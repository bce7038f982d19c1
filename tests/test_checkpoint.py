"""Checkpoint/resume semantics (north_rule: resumable signature +
bucketing stages; config guard mirrors the reference's DB version check,
/root/reference/src/sketch_database.h:869-908)."""

import os

import pytest

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.state.checkpoint import (
    ConfigMismatch,
    completed_shards,
    init_checkpoint_root,
    stage_done,
)


def test_config_guard(tmp_path):
    root = str(tmp_path / "ck")
    cfg = DedupConfig()
    init_checkpoint_root(root, cfg)
    init_checkpoint_root(root, cfg)  # same config: fine
    with pytest.raises(ConfigMismatch):
        init_checkpoint_root(root, DedupConfig(shingle_k=8))


def test_full_run_then_resume_skips_everything(tmp_path, corpus_dir):
    from metacache_mpi_ray.pipelines.checkpointed import run_dedup_checkpointed
    from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline
    from metacache_mpi_ray.stages.ingest import ingest_pages
    import ray.data as rd

    root = str(tmp_path / "ck")
    cfg = DedupConfig()
    cl1 = run_dedup_checkpointed(
        f"{corpus_dir}/pages", root, cfg, num_shards=3, num_partitions=4
    ).to_pandas()
    assert stage_done(root, "edges") and stage_done(root, "clusters")
    assert completed_shards(root, "signatures") == [0, 1, 2]

    # record artifact mtimes, resume, assert nothing recomputed
    sig_dir = os.path.join(root, "signatures")
    mtimes = {
        f: os.path.getmtime(os.path.join(sig_dir, f)) for f in os.listdir(sig_dir)
    }
    cl2 = run_dedup_checkpointed(
        f"{corpus_dir}/pages", root, cfg, num_shards=3, num_partitions=4
    ).to_pandas()
    mtimes2 = {
        f: os.path.getmtime(os.path.join(sig_dir, f)) for f in os.listdir(sig_dir)
    }
    assert mtimes == mtimes2
    m1 = cl1.sort_values("doc_id").reset_index(drop=True)
    m2 = cl2.sort_values("doc_id").reset_index(drop=True)
    assert (m1["cluster_id"].values == m2["cluster_id"].values).all()

    # checkpointed result must equal the in-memory pipeline's
    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages"))
    ref = near_dup_pipeline(docs, cfg, num_partitions=4).clusters.to_pandas()
    ref = ref.sort_values("doc_id").reset_index(drop=True)
    assert (m1["cluster_id"].values == ref["cluster_id"].values).all()


def test_partial_shard_resume(tmp_path, corpus_dir):
    """Kill-after-first-shard simulation: only missing shards recompute."""
    from metacache_mpi_ray.pipelines.checkpointed import run_dedup_checkpointed
    from metacache_mpi_ray.state.checkpoint import sharded_checkpointed_stage
    from metacache_mpi_ray.stages.ingest import ingest_pages
    from metacache_mpi_ray.stages.signatures import compute_signatures
    import ray.data as rd

    root = str(tmp_path / "ck")
    cfg = DedupConfig()
    init_checkpoint_root(root, cfg)
    files = sorted(
        os.path.join(f"{corpus_dir}/pages", f)
        for f in os.listdir(f"{corpus_dir}/pages")
    )
    shard_files = {k: files[k::3] for k in range(3)}

    def sig_shard(k):
        return compute_signatures(
            ingest_pages(rd.read_parquet(shard_files[k])), cfg, batch_size=1024
        )

    # simulate a run killed after shard 0 (of an intended 3)
    part = sharded_checkpointed_stage(
        root, "signatures", [0], sig_shard, total_shards=3
    )
    assert completed_shards(root, "signatures") == [0]
    # the shard=K directory names must not become a column on read
    assert "shard" not in part.schema().names
    mtime0 = os.path.getmtime(os.path.join(root, "signatures", "shard=0"))

    # full restart completes the rest without touching shard 0
    out = run_dedup_checkpointed(
        f"{corpus_dir}/pages", root, cfg, num_shards=3, num_partitions=4
    )
    assert completed_shards(root, "signatures") == [0, 1, 2]
    assert os.path.getmtime(os.path.join(root, "signatures", "shard=0")) == mtime0
    assert out.count() == 500

    # lineage metrics recorded for every stage
    from metacache_mpi_ray.state.metrics import MetricsRecorder

    stages = {m["stage"] for m in MetricsRecorder(root).read_all()}
    assert {"signatures", "edges", "verified", "clusters"} <= stages


def test_shard_layout_guard(tmp_path, corpus_dir):
    """Resume with a different shard count must refuse (layout guard)."""
    from metacache_mpi_ray.pipelines.checkpointed import run_dedup_checkpointed

    root = str(tmp_path / "ck")
    cfg = DedupConfig()
    run_dedup_checkpointed(f"{corpus_dir}/pages", root, cfg, num_shards=3, num_partitions=4)
    with pytest.raises(ConfigMismatch):
        run_dedup_checkpointed(
            f"{corpus_dir}/pages", root, cfg, num_shards=2, num_partitions=4
        )
