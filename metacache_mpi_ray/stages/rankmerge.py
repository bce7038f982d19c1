"""Rank-aware candidate merge + bounded insert + hit-threshold
classification — the reference's candidate post-processing as a grouped
operator family.

Reference semantics re-expressed (/root/reference/src/candidates.h:
90-102, 191-289 and classification.cpp:227-262):

1. *merge below rank*: a candidate below ``merge_below`` is replaced by
   its ancestor at that rank before insertion (``rules.mergeBelow``,
   candidates.h:241-244), so per-sequence hits pool at the chosen rank.
2. *bounded insert*: per query, one entry per taxon keeping its MAX
   hits (candidates.h:262-268 "update, if more hits"), sorted by hits
   descending, truncated at ``max_candidates``. The reference's list is
   stream-order sensitive when full; this operator is the
   order-independent closure (merge first, then one global top-k) —
   deterministic under any partitioning, tie-broken by node id.
3. *classify*: the best candidate must clear ``hits_min``
   (classification.cpp:242); every further candidate with
   hits > (best - hits_min) * hits_diff_fraction joins a ranked-LCA
   vote (classification.cpp:247-262); an LCA shallower than
   ``highest_rank`` is unclassified.

Dispatch shape: both steps are ONE ``functions/blocks.hash_exchange``
on ``query_id`` (stages/windows.py), so each query's candidates reach
one reduce whole. The merge is the windows top-k whose map side and
reduce both take the max hits per (query, node) before ranking (a
per-block max then a per-block top-k is exact); classification lexsorts
each partition by (query, rank) and runs one vectorized segment kernel
(per-rank min/max reducts over the broadcast lineage matrix — no
per-query Python). The taxonomy rides in one broadcast object, like the
reference's in-memory taxonomy cache.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from metacache_mpi_ray.stages.taxonomy import Taxonomy
from metacache_mpi_ray.stages.windows import _group_exchange, _topk

_I64MAX = np.iinfo(np.int64).max
_I64MIN = np.iinfo(np.int64).min

_CLASSIFY_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("best_node", pa.int64()),
        ("best_hits", pa.int64()),
        ("lca_node", pa.int64()),
        ("classified", pa.bool_()),
    ]
)


def _max_hits(t: pa.Table) -> pa.Table:
    """One (query_id, node_id, hits) row per (query, node): its max hits."""
    g = t.group_by(["query_id", "node_id"]).aggregate([("hits", "max")])
    return pa.table(
        {"query_id": g["query_id"], "node_id": g["node_id"], "hits": g["hits_max"]}
    )


def merge_candidates(
    cand,
    tax: Taxonomy,
    *,
    merge_below: str | None = None,
    max_candidates: int = 4,
):
    """(query_id, node_id, hits) candidate rows -> per-query bounded
    candidate lists (query_id, node_id, hits, rank) with rank 1-based by
    hits descending (ties by node_id)."""
    if merge_below is not None:
        tref = ray.put(tax)
        rank = merge_below

        def remap(t: pa.Table) -> pa.Table:
            tx = ray.get(tref)
            nodes = t["node_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {
                    "query_id": t["query_id"],
                    "node_id": pa.array(tx.ancestor(nodes, rank), type=pa.int64()),
                    "hits": t["hits"],
                }
            )

        cand = cand.map_batches(remap, batch_format="pyarrow")
    return _topk(
        cand,
        "query_id",
        "hits",
        max_candidates,
        tiebreak=["node_id"],
        prepare=_max_hits,
    )


def _classify_segment_rows(
    tax: Taxonomy,
    hits: np.ndarray,
    nodes: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    hits_min: int,
    frac: float,
    highest_rank: str | None,
):
    """Vectorized classification over contiguous per-query segments of
    rank-ordered candidate rows. Returns per-segment
    (best_node, best_hits, lca_node, classified)."""
    nseg = len(starts)
    best_hits = hits[starts]
    best_node = nodes[starts]
    thr = np.where(
        best_hits > hits_min, (best_hits - hits_min) * frac, 0.0
    )
    seg_of = np.repeat(np.arange(nseg), sizes)
    incl = hits > thr[seg_of]
    incl[starts] = True  # the best candidate always votes (lca seed)
    # per-rank agreement across included rows: min == max and set
    lin = tax.lineage[tax._rows(nodes)]
    lin_min = np.where(incl[:, None], lin, _I64MAX)
    lin_max = np.where(incl[:, None], lin, _I64MIN)
    mins = np.minimum.reduceat(lin_min, starts, axis=0)
    maxs = np.maximum.reduceat(lin_max, starts, axis=0)
    agree = (mins == maxs) & (mins >= 0)
    any_agree = agree.any(axis=1)
    depth_idx = np.where(
        any_agree, agree.shape[1] - 1 - agree[:, ::-1].argmax(axis=1), 0
    )
    lca = mins[np.arange(nseg), depth_idx]
    # no agreeing rank at all -> root of the best candidate's lineage
    root_fallback = tax.lineage[tax._rows(best_node), 0]
    lca = np.where(any_agree, lca, root_fallback)
    classified = best_hits >= hits_min
    if highest_rank is not None:
        min_depth = tax.rank_names.index(highest_rank)
        classified &= depth_idx >= min_depth
    return best_node, best_hits, lca, classified


def classify_merged(
    topk,
    tax: Taxonomy,
    *,
    hits_min: int = 0,
    hits_diff_fraction: float = 1.0,
    highest_rank: str | None = None,
):
    """Bounded candidate lists (query_id, node_id, hits, rank) ->
    per-query classification (query_id, best_node, best_hits, lca_node,
    classified)."""
    tref = ray.put(tax)

    def kernel(t, starts, sizes):
        if t.num_rows == 0:
            return _CLASSIFY_SCHEMA.empty_table()
        bn, bh, lca, cl = _classify_segment_rows(
            ray.get(tref),
            t["hits"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["node_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            starts,
            sizes,
            hits_min,
            hits_diff_fraction,
            highest_rank,
        )
        q = t["query_id"].to_numpy(zero_copy_only=False)[starts]
        cols = (q, bn, bh, lca, cl)
        return pa.Table.from_arrays(
            [pa.array(v, type=f.type) for v, f in zip(cols, _CLASSIFY_SCHEMA)],
            schema=_CLASSIFY_SCHEMA,
        )

    return _group_exchange(
        topk.select_columns(["query_id", "node_id", "hits", "rank"]),
        ["query_id", "rank"],
        kernel,
    )
