"""Checkpointed flagship pipeline: a pages directory -> a resumable,
queryable index build.

``run_dedup_checkpointed`` binds the root to its config and to the
*sorted* input file list (the reference sorts file lists so all ranks
agree, mode_build.cpp:570-575; a changed list refuses to resume), then
runs ``pipelines/incremental.build_index`` over those files. The root is
a format-2 index, the analog of the reference's per-rank DB artifact
(mode_build.cpp:1076-1091: dbfile_<rank> written per rank, reloaded by
query): ``query_against_index`` and ``extend_index`` read it, and a
killed run resumes from its installed stages (see ``build_index``).
"""

from __future__ import annotations

import os

import ray.data as rd

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.pipelines.incremental import build_index
from metacache_mpi_ray.state.checkpoint import init_checkpoint_root
from metacache_mpi_ray.stages.ingest import ingest_pages


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
    num_partitions: int | None = None,
):
    """pages parquet -> clusters, built as an index under ``ckpt_root``
    with ``num_partitions`` shards (a resumed root keeps its stored
    count). Safe to kill and re-run: installed stages are reused; a
    different config or input file list refuses to resume."""
    cfg = cfg or DedupConfig()
    files = _list_input_files(pages_path)
    init_checkpoint_root(ckpt_root, cfg, input_files=files)
    docs = ingest_pages(rd.read_parquet(files, columns=["url", "html", "text"]))
    return build_index(docs, cfg, ckpt_root, num_partitions=num_partitions)
