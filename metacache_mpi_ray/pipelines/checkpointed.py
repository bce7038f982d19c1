"""Checkpointed flagship pipeline: resumable signature + bucketing
stages with per-partition lineage (north_rule requirement).

Layout mirrors the reference's persisted per-rank DB artifact
(/root/reference/src/mode_build.cpp:1076-1091: dbfile_<rank> written per
rank, reloaded by query), generalized:

    <ckpt_root>/config.json            config guard (refuses mismatch)
    <ckpt_root>/signatures/shard=K/    per-input-shard signatures
    <ckpt_root>/edges/                 deduped candidate edges
    <ckpt_root>/verified/              similarity-verified edges
    <ckpt_root>/clusters/              final assignment
    <ckpt_root>/metrics.jsonl          per-stage lineage

Input shards are round-robin assignments of the *sorted* input file
list (the reference sorts file lists so all ranks agree,
mode_build.cpp:570-575; we sort so shard membership is deterministic
across resumes). A killed run resumes by skipping finished shards /
stages.

The root is not a queryable index: it has no format-2 ``index.json``,
so ``query_against_index`` / ``extend_index`` refuse it — build the
index with ``pipelines/incremental.build_index``.
"""

from __future__ import annotations

import os
import time

import ray.data as rd

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.state.checkpoint import (
    checkpointed_stage,
    init_checkpoint_root,
    sharded_checkpointed_stage,
)
from metacache_mpi_ray.state.metrics import MetricsRecorder
from metacache_mpi_ray.stages.banding import compute_bands
from metacache_mpi_ray.stages.candidates import bucket_edges, dedupe_edges
from metacache_mpi_ray.stages.cluster import assign_clusters
from metacache_mpi_ray.stages.ingest import ingest_pages
from metacache_mpi_ray.stages.signatures import compute_signatures
from metacache_mpi_ray.stages.verify import verify_edges


def _list_input_files(pages_path: str) -> list[str]:
    if os.path.isdir(pages_path):
        files = sorted(
            os.path.join(pages_path, f)
            for f in os.listdir(pages_path)
            if f.endswith(".parquet")
        )
    else:
        files = [pages_path]
    if not files:
        raise FileNotFoundError(f"no parquet files under {pages_path}")
    return files


def run_dedup_checkpointed(
    pages_path: str,
    ckpt_root: str,
    cfg: DedupConfig | None = None,
    *,
    num_shards: int = 8,
    num_partitions: int = 32,
):
    """pages parquet -> clusters, checkpointing every stage under
    ckpt_root. Safe to kill and re-run: finished shards/stages are
    skipped; a different config refuses to resume."""
    cfg = cfg or DedupConfig()
    files = _list_input_files(pages_path)
    init_checkpoint_root(ckpt_root, cfg, input_files=files)
    metrics = MetricsRecorder(ckpt_root)
    num_shards = min(num_shards, len(files))
    shard_files = {k: files[k::num_shards] for k in range(num_shards)}

    def sig_shard(k: int):
        docs = ingest_pages(
            rd.read_parquet(shard_files[k], columns=["url", "html", "text"])
        )
        return compute_signatures(docs, cfg, batch_size=128)

    t0 = time.time()
    sigs = sharded_checkpointed_stage(
        ckpt_root, "signatures", list(range(num_shards)), sig_shard
    )
    metrics.record("signatures", rows_out=sigs.count(), t_start=t0, num_shards=num_shards)

    t0 = time.time()
    # the edge checkpoint keeps unique pairs (dedupe here doubles as the
    # persisted artifact's canonical form, mirroring the reference's
    # compacted DB file)
    edges = checkpointed_stage(
        ckpt_root,
        "edges",
        lambda: dedupe_edges(
            bucket_edges(
                compute_bands(sigs, cfg),
                key_cols=["band_id", "band_hash"],
                id_col="doc_id",
                cap=cfg.bucket_cap,
                num_partitions=num_partitions,
            ),
            num_partitions=num_partitions,
        ),
    )
    metrics.record("edges", rows_out=edges.count(), t_start=t0)

    t0 = time.time()
    verified = checkpointed_stage(
        ckpt_root,
        "verified",
        lambda: verify_edges(edges, sigs, cfg, num_partitions=num_partitions),
    )
    metrics.record("verified", rows_out=verified.count(), t_start=t0)

    t0 = time.time()
    clusters = checkpointed_stage(
        ckpt_root,
        "clusters",
        lambda: assign_clusters(sigs, verified),
    )
    metrics.record("clusters", rows_out=clusters.count(), t_start=t0)
    return clusters
