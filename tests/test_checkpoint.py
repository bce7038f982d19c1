"""Checkpoint/resume semantics (north_rule: resumable signature +
bucketing stages; config guard mirrors the reference's DB version check,
/root/reference/src/sketch_database.h:869-908)."""

import glob
import os

import pandas as pd
import pytest

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.pipelines.incremental import index_shards, shard_files
from metacache_mpi_ray.state.checkpoint import (
    ConfigMismatch,
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


def _stored_mtimes(root: str) -> dict:
    return {
        f: os.path.getmtime(f)
        for stage in ("signatures", "bands", "verified", "clusters")
        for f in glob.glob(os.path.join(root, stage, "**", "*.parquet"), recursive=True)
    }


def test_full_run_then_resume_skips_everything(tmp_path, corpus_dir):
    from metacache_mpi_ray.pipelines.checkpointed import run_dedup_checkpointed
    from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline
    from metacache_mpi_ray.stages.ingest import ingest_pages
    import ray.data as rd

    root = str(tmp_path / "ck")
    cfg = DedupConfig()
    cl1 = run_dedup_checkpointed(
        f"{corpus_dir}/pages", root, cfg, num_partitions=4
    ).to_pandas()
    assert stage_done(root, "verified") and stage_done(root, "clusters")
    assert index_shards(root) == 4

    # record artifact mtimes, resume, assert nothing recomputed
    mtimes = _stored_mtimes(root)
    assert len(mtimes) == 16
    cl2 = run_dedup_checkpointed(
        f"{corpus_dir}/pages", root, cfg, num_partitions=4
    ).to_pandas()
    assert _stored_mtimes(root) == mtimes
    m1 = cl1.sort_values("doc_id").reset_index(drop=True)
    m2 = cl2.sort_values("doc_id").reset_index(drop=True)
    assert (m1["cluster_id"].values == m2["cluster_id"].values).all()

    # checkpointed result must equal the in-memory pipeline's
    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages"))
    ref = near_dup_pipeline(docs, cfg, num_partitions=4).clusters.to_pandas()
    ref = ref.sort_values("doc_id").reset_index(drop=True)
    assert (m1["cluster_id"].values == ref["cluster_id"].values).all()


def test_checkpointed_root_is_queryable(tmp_path, corpus_dir):
    """The checkpointed pipeline's root is a format-2 index: a query
    against it equals the query against a build_index root of the same
    files, and every stage has a lineage row."""
    from metacache_mpi_ray.pipelines.checkpointed import run_dedup_checkpointed
    from metacache_mpi_ray.pipelines.incremental import build_index, query_against_index
    from metacache_mpi_ray.stages.ingest import ingest_pages
    from metacache_mpi_ray.state.metrics import MetricsRecorder
    import ray.data as rd

    cfg = DedupConfig()
    pages = f"{corpus_dir}/pages"
    ck = str(tmp_path / "ck")
    idx = str(tmp_path / "idx")
    assert run_dedup_checkpointed(pages, ck, cfg, num_partitions=4).count() == 500
    build_index(ingest_pages(rd.read_parquet(pages)), cfg, idx, num_partitions=4)

    # the batch: the corpus pages again, under new urls (so new doc_ids)
    batch = rd.read_parquet(pages).limit(60).to_pandas()
    batch["url"] = batch["url"] + "?copy"
    got = [
        query_against_index(ingest_pages(rd.from_pandas(batch)), root, cfg)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        for root in (ck, idx)
    ]
    assert len(got[0]) == 60 and got[0]["matched"].sum() >= 30
    pd.testing.assert_frame_equal(got[0], got[1])

    stages = {m["stage"] for m in MetricsRecorder(ck).read_all()}
    assert {"signatures", "bands", "verified", "clusters"} <= stages


def test_shard_layout_guard(tmp_path, corpus_dir):
    """A rerun with another ``num_partitions`` keeps the stored shard
    count; a changed input file list refuses to resume."""
    from metacache_mpi_ray.pipelines.checkpointed import run_dedup_checkpointed

    root = str(tmp_path / "ck")
    cfg = DedupConfig()
    pages = f"{corpus_dir}/pages"
    first = run_dedup_checkpointed(pages, root, cfg, num_partitions=3).to_pandas()
    again = run_dedup_checkpointed(pages, root, cfg, num_partitions=2).to_pandas()
    assert index_shards(root) == 3
    assert all(len(shard_files(root, "signatures", p)) == 1 for p in range(3))
    pd.testing.assert_frame_equal(
        first.sort_values("doc_id").reset_index(drop=True),
        again.sort_values("doc_id").reset_index(drop=True),
    )
    one_file = sorted(glob.glob(f"{pages}/*.parquet"))[0]
    with pytest.raises(ConfigMismatch):
        run_dedup_checkpointed(one_file, root, cfg, num_partitions=3)
