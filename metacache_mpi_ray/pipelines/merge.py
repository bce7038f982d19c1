"""Merge mode — the analog of the reference's standalone ``merge``
command (/root/reference/src/mode_merge.cpp:209-307 +
classification.cpp:889-925): re-combine candidate sets produced by
independent runs (e.g. per-corpus-slice dedup jobs) and re-derive the
final assignment. Evidence in the reference that candidate sets are a
clean serializable intermediate; here the verified edge list is that
intermediate.
"""

from __future__ import annotations

from metacache_mpi_ray.stages.cluster import assign_clusters


def merge_cluster_runs(docs, *edge_datasets):
    """Re-cluster a docs dataset from the union of several runs'
    verified edges (the merge-mode pipeline; D5 union semantics:
    connected components ignore a pair given by several runs)."""
    first, *rest = edge_datasets
    return assign_clusters(docs, first.union(*rest) if rest else first)
