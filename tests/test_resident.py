"""Resident index files: each worker keeps the stored shard files it has
decoded, keyed by path and checked by the file's stamp (inode, size,
mtime, ctime), within a byte budget (pipelines/incremental.py)."""

import json
import os
import shutil
from collections import OrderedDict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

import metacache_mpi_ray.pipelines.incremental as inc
from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.pipelines.incremental import build_index, query_against_index
from metacache_mpi_ray.stages.ingest import ingest_documents

CFG = DedupConfig()


@pytest.fixture()
def cache(monkeypatch):
    """A fresh, empty resident cache for this process."""
    monkeypatch.setattr(inc, "_resident_files", OrderedDict())
    return inc._resident_files


def _write_ids(path, ids) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(pa.table({"doc_id": pa.array(ids, type=pa.int64())}), path)


def _decoded(path) -> tuple[list, dict]:
    stats = inc._new_stats()
    (ids,) = inc._resident(path, inc._decode_dups, stats)
    return ids.tolist(), stats


def test_same_size_rewrite_is_decoded_again(tmp_path, cache):
    path = str(tmp_path / "log" / "000001-dup.parquet")
    _write_ids(path, [1, 2, 3])
    ids, stats = _decoded(path)
    assert ids == [1, 2, 3] and stats["files_decoded"] == 1
    assert stats["bytes_decoded"] == os.path.getsize(path)
    ids, stats = _decoded(path)
    assert ids == [1, 2, 3] and stats["files_decoded"] == 0
    # a new file of the same byte size renamed over the old one (the way
    # a rebuilt root replaces its files)
    tmp = str(tmp_path / "staged.parquet")
    _write_ids(tmp, [7, 8, 9])
    assert os.path.getsize(tmp) == os.path.getsize(path)
    os.replace(tmp, path)
    ids, stats = _decoded(path)
    assert ids == [7, 8, 9] and stats["files_decoded"] == 1
    assert stats["bytes"] == stats["bytes_decoded"] == os.path.getsize(path)


def test_visit_drops_files_no_longer_listed(tmp_path, cache):
    d = str(tmp_path / "clusters" / "0")
    old, new = os.path.join(d, "part-0.parquet"), os.path.join(d, "extend-b1.parquet")
    _write_ids(old, [1])
    _write_ids(new, [2])
    for f in inc._visit(inc._listing(d)):
        _decoded(f)
    assert set(cache) == {old, new}
    os.remove(old)  # a compaction removes the files it merged
    assert inc._visit(inc._listing(d)) == [new]
    assert set(cache) == {new}


def test_budget_evicts_least_recently_used(tmp_path, cache, monkeypatch):
    paths = [str(tmp_path / f"{i}-dup.parquet") for i in range(3)]
    for i, p in enumerate(paths):
        _write_ids(p, np.arange(100) + 1000 * i)  # 800 decoded bytes each
    monkeypatch.setattr(inc, "RESIDENT_BYTES", 2 * 800)
    _decoded(paths[0])
    _decoded(paths[1])
    _decoded(paths[0])  # now the most recently used
    _decoded(paths[2])
    assert list(cache) == [paths[0], paths[2]]
    assert sum(e[2] for e in cache.values()) <= inc.RESIDENT_BYTES
    assert _decoded(paths[1])[1]["files_decoded"] == 1
    assert _decoded(paths[2])[1]["files_decoded"] == 0


def test_file_over_budget_is_read_through(tmp_path, cache, monkeypatch):
    path = str(tmp_path / "1-dup.parquet")
    _write_ids(path, np.arange(100))
    monkeypatch.setattr(inc, "RESIDENT_BYTES", 799)
    for _ in range(2):
        ids, stats = _decoded(path)
        assert ids == list(range(100)) and stats["files_decoded"] == 1
    assert not cache


# --- end to end ------------------------------------------------------------


def _token_docs(ids, src=None):
    """doc i carries 'tok<src[i]> ' * 40: equal tokens are exact copies,
    distinct tokens share no shingle."""
    src = ids if src is None else src
    txt = np.char.multiply(np.char.add(np.char.add("tok", np.asarray(src).astype("U")), " "), 40)
    return ingest_documents(
        rd.from_arrow(
            pa.table({"doc_id": pa.array(ids, type=pa.int64()), "text": pa.array(txt, type=pa.string())})
        )
    )


def _query(root, ids, src) -> pd.DataFrame:
    out = query_against_index(_token_docs(np.asarray(ids, dtype=np.int64), np.asarray(src)), root)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _probe_rows(root) -> list[dict]:
    with open(os.path.join(root, "metrics.jsonl")) as f:
        return [json.loads(l) for l in f if '"query_probe"' in l]


def _index_files(root) -> int:
    shards = inc.index_shards(root)
    return len(inc.log_files(root)) + sum(
        len(inc.shard_files(root, stage, p))
        for stage in ("bands", "signatures", "clusters")
        for p in range(shards)
    )


def test_repeated_queries_agree_and_decode_each_file_once_per_worker(tmp_path):
    root = str(tmp_path / "idx")
    build_index(_token_docs(np.arange(60, dtype=np.int64)), CFG, root, num_partitions=4)
    ids, src = [1000, 1001, 1002, 1003], [0, 17, 42, 99999]
    runs = [_query(root, ids, src) for _ in range(8)]
    for r in runs[1:]:
        pd.testing.assert_frame_equal(r, runs[0])
    assert runs[0]["matched"].tolist() == [True, True, True, False]
    assert runs[0]["matched_cluster_id"].tolist() == [0, 17, 42, -1]
    rows = _probe_rows(root)[-8:]
    assert all(r["bytes_decoded"] <= r["stored_bytes_read"] for r in rows)
    pids = {p for r in rows for p in r["worker_pids"]}
    # a worker decodes each index file at most once over all eight
    # queries (nothing changes the index and nothing is evicted)
    assert sum(r["files_decoded"] for r in rows) <= len(pids) * _index_files(root)
    assert sum(r["files_decoded"] for r in rows) < 8 * _index_files(root)


def test_root_deleted_and_rebuilt_is_answered_from_new_files(tmp_path):
    root = str(tmp_path / "idx")
    build_index(_token_docs(np.arange(40, dtype=np.int64)), CFG, root, num_partitions=2)
    for _ in range(4):  # let the workers take the old files in
        before = _query(root, [1000, 1001], [5, 7])
        assert before["matched_cluster_id"].tolist() == [5, 7]
    shutil.rmtree(root)
    # same root, same file names: tok5 is now doc 505, tok7 is gone
    rebuilt_ids = np.arange(500, 540, dtype=np.int64)
    build_index(_token_docs(rebuilt_ids, rebuilt_ids - 500 + (rebuilt_ids == 507) * 1000),
                CFG, root, num_partitions=2)
    for _ in range(4):
        after = _query(root, [1000, 1001], [5, 7])
        assert after["matched"].tolist() == [True, False]
        assert after["matched_cluster_id"].tolist() == [505, -1]
