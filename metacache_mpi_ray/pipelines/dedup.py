"""End-to-end near-duplicate detection pipeline (the flagship).

docs -> MinHash signatures -> LSH bands -> bucket star-edges (capped)
     -> signature verification (dedupes cross-band pairs) -> union-find
     -> clusters(doc_id, cluster_id, is_dup)

Stage-by-stage mapping to the reference is documented in each stage
module; the lifecycle mirrors /root/reference build+query fused into one
streaming job (SURVEY.md §3, §7.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import ray.data

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.stages.banding import compute_bands
from metacache_mpi_ray.stages.candidates import bucket_edges
from metacache_mpi_ray.stages.cluster import assign_clusters
from metacache_mpi_ray.stages.signatures import compute_signatures
from metacache_mpi_ray.stages.verify import verify_edges

# verified-edge count past which components come from distributed
# min-label propagation instead of the driver DSU
CLUSTER_DRIVER_EDGE_LIMIT = 50_000_000


@dataclass
class DedupResult:
    signatures: "ray.data.Dataset"
    verified_edges: "ray.data.Dataset"
    clusters: "ray.data.Dataset"


def near_dup_pipeline(
    docs: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
    *,
    num_partitions: int | None = None,
    signer_concurrency: int | None = None,
    include_substring: bool = False,
) -> DedupResult:
    """Run the full MinHash/LSH dedup over a canonical ``docs`` dataset.

    ``signatures`` is materialized once (it is consumed by both the
    banding stage and the verification joins — the analog of the
    reference's persisted per-rank DB artifact, SURVEY.md S9/S10); at
    checkpointed scale it is written to Parquet instead (see
    state/checkpoint.py).
    """
    from metacache_mpi_ray.stages.joins import default_num_partitions

    cfg = cfg or DedupConfig()
    if num_partitions is None:
        num_partitions = default_num_partitions()
    # coalesce the signer output to ~num_partitions blocks inside the
    # same execution: the read stage typically hands down hundreds of
    # row-group-sized blocks, and every downstream pass inherits that
    # count — the bucket hash exchange runs one split task per INPUT
    # block (each returning num_partitions pieces), so the coalesce
    # bounds its task count at num_partitions. At real scale the caller
    # sizes num_partitions to the cluster, which keeps blocks near the
    # object-store target size instead of row-group crumbs.
    sigs = (
        compute_signatures(docs, cfg, concurrency=signer_concurrency, batch_size=128)
        .repartition(num_partitions)
        .materialize()
    )
    bands = compute_bands(sigs, cfg)
    edges = bucket_edges(
        bands,
        key_cols=["band_id", "band_hash"],
        id_col="doc_id",
        cap=cfg.bucket_cap,
        num_partitions=num_partitions,
    )
    # the final cluster-assignment pass only needs doc_id, but mapping
    # over the full-width signature blocks pays per-block executor
    # overhead for ~nothing (measured ~2 s of a 44 s 2-CPU run). Build
    # a doc_id-only, few-block projection CONCURRENTLY with the verify
    # execution (independent datasets; Ray schedules both), so the
    # assignment pass at the end touches a ~16-bytes/row dataset in a
    # handful of blocks instead.
    import threading

    ids_holder: dict = {}

    def _project_ids():
        try:
            ids_holder["ds"] = (
                sigs.select_columns(["doc_id"])
                .repartition(max(4, num_partitions // 8))
                .materialize()
            )
        except Exception:  # fall back to assigning over sigs directly
            import logging

            logging.getLogger(__name__).warning(
                "doc_id projection failed; cluster assignment will map "
                "over the full-width signature blocks",
                exc_info=True,
            )

    ids_thread = threading.Thread(target=_project_ids, daemon=True)
    ids_thread.start()
    # auto strategy: verify_edges dedupes the raw per-band edges, sizes
    # the endpoint signature subset, and falls back to the two-exchange join
    # path only when that subset outgrows one broadcast object — at
    # web-scale dup rates the broadcast would otherwise become a
    # driver-memory scale-killer
    verified = verify_edges(
        edges, sigs, cfg, num_partitions=num_partitions, strategy="auto"
    ).materialize()
    if include_substring:
        # exact long-match substring edges (suffix/anchor stage, F6
        # analog): docs sharing an exact span >= ~min_match_len are
        # duplicates even when whole-doc Jaccard is below threshold
        from metacache_mpi_ray.stages.substring import substring_dup_edges

        sub_edges = substring_dup_edges(
            docs, cfg, num_partitions=num_partitions
        ).materialize()

        def strip(t):
            import numpy as _np
            import pyarrow as _pa

            return _pa.table(
                {
                    "a": t["a"],
                    "b": t["b"],
                    "est_sim": _pa.array(
                        _np.full(len(t), 1.0), type=_pa.float64()
                    ),
                }
            )

        verified = verified.union(
            sub_edges.map_batches(strip, batch_format="pyarrow")
        ).materialize()
    # assign over the materialized signatures (same doc_id set as docs);
    # re-running the ingest lineage just to read doc_id would re-parse
    # the whole input a second time.
    # the driver DSU streams the edge list once (vectorized pointer
    # jumping, ~16 bytes/edge resident) and broadcasts the labels;
    # past CLUSTER_DRIVER_EDGE_LIMIT verified edges even that outgrows
    # one process, and components come from distributed min-label
    # propagation (rounds of the keyed exchange) instead
    distributed = verified.count() > CLUSTER_DRIVER_EDGE_LIMIT
    ids_thread.join()
    assign_src = ids_holder.get("ds", sigs)
    if distributed:
        from metacache_mpi_ray.stages.cluster import assign_clusters_distributed

        clusters = assign_clusters_distributed(
            assign_src, verified, num_partitions=num_partitions
        )
    else:
        clusters = assign_clusters(assign_src, verified)
    return DedupResult(signatures=sigs, verified_edges=verified, clusters=clusters)


def dedup_clusters(docs, cfg: DedupConfig | None = None, **kw) -> "ray.data.Dataset":
    return near_dup_pipeline(docs, cfg, **kw).clusters
