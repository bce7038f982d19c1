"""functions/blocks.hash_exchange — the keyed all-to-all over plain Ray
tasks that pair dedup, the index probe and the bucket and segment
stages run on."""

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from metacache_mpi_ray.functions.blocks import hash_exchange


def _census():
    """reduce: (key, n rows) per distinct key of the partition. Built
    in a closure so workers receive it by value (test modules are not
    importable there)."""

    def census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"k": pa.array([], type=pa.int64()), "n": pa.array([], type=pa.int64())}
            )
        keys, counts = np.unique(t["k"].to_numpy(), return_counts=True)
        return pa.table(
            {"k": pa.array(keys, type=pa.int64()), "n": pa.array(counts, type=pa.int64())}
        )

    return census


def _blocks(ds) -> list[pa.Table]:
    return [ray.get(r) for r in ds.to_arrow_refs()]


def _check_whole_keys(out_blocks, keys: np.ndarray):
    """Every key sits in exactly one output block with its full count."""
    got = pa.concat_tables([b for b in out_blocks if b.num_rows])
    want_k, want_n = np.unique(keys, return_counts=True)
    k = got["k"].to_numpy()
    assert len(k) == len(np.unique(k))  # no key split over partitions
    order = np.argsort(k)
    assert (k[order] == want_k).all()
    assert (got["n"].to_numpy()[order] == want_n).all()


@pytest.mark.parametrize("num_partitions", [1, 3, 16])
def test_hash_exchange_keeps_each_key_whole(num_partitions):
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 50, size=3000).astype(np.int64)
    ds = rd.from_arrow(pa.table({"k": keys, "v": np.arange(3000)})).repartition(7)
    out = _blocks(hash_exchange(ds, ["k"], _census(), num_partitions=num_partitions))
    assert len(out) == num_partitions
    _check_whole_keys(out, keys)


def test_hash_exchange_more_partitions_than_blocks():
    keys = np.array([5, 9, 5, 11, 9, 5, 40, 41], dtype=np.int64)
    ds = rd.from_arrow(pa.table({"k": keys})).repartition(2)
    out = _blocks(hash_exchange(ds, ["k"], _census(), num_partitions=11))
    assert len(out) == 11
    assert sum(b.num_rows == 0 for b in out) >= 11 - 5
    _check_whole_keys(out, keys)


def test_hash_exchange_empty_and_schemaless_blocks():
    """Zero-row blocks, typed or without any columns, pass through as
    empty pieces; an all-empty input reduces every partition over a
    column-less zero-row table."""
    keys = np.array([1, 2, 2, 3, 3, 3], dtype=np.int64)
    refs = [
        ray.put(pa.table({"k": keys[:2]})),
        ray.put(pa.table({"k": pa.array([], type=pa.int64())})),
        ray.put(pa.table({})),
        ray.put(pa.table({"k": keys[2:]})),
    ]
    out = _blocks(
        hash_exchange(rd.from_arrow_refs(refs), ["k"], _census(), num_partitions=4)
    )
    _check_whole_keys(out, keys)

    empty = rd.from_arrow_refs([ray.put(pa.table({})), ray.put(pa.table({}))])
    out = _blocks(hash_exchange(empty, ["k"], _census(), num_partitions=3))
    assert len(out) == 3
    assert all(b.num_rows == 0 and b.column_names == ["k", "n"] for b in out)

    # the map side on its own (the exchange skips blocks whose metadata
    # says zero rows): an empty or column-less block splits into empties
    from metacache_mpi_ray.functions.blocks import _exchange_split

    for block in (pa.table({}), pa.table({"k": pa.array([], type=pa.int64())})):
        pieces = ray.get(
            _exchange_split.options(num_returns=3).remote(block, ["k"], 3, None)
        )
        assert [p.num_rows for p in pieces] == [0, 0, 0]


def test_hash_exchange_multi_key_and_combine():
    """Keys over several columns stay whole, and ``combine`` runs on each
    input block before the split (here: per-block distinct rows, so the
    reduce's row count per key is the number of blocks holding it)."""
    a = np.array([1, 1, 1, 2, 2, 1], dtype=np.int64)
    b = np.array([7, 7, 8, 7, 7, 7], dtype=np.int64)
    refs = [ray.put(pa.table({"a": a[:3], "b": b[:3]})), ray.put(pa.table({"a": a[3:], "b": b[3:]}))]

    def distinct(t: pa.Table) -> pa.Table:
        return t.group_by(["a", "b"]).aggregate([])

    def count(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {c: pa.array([], type=pa.int64()) for c in ("a", "b", "n")}
            )
        return t.group_by(["a", "b"]).aggregate([([], "count_all")]).rename_columns(
            ["a", "b", "n"]
        )

    out = hash_exchange(
        rd.from_arrow_refs(refs), ["a", "b"], count, num_partitions=3, combine=distinct
    ).to_pandas()
    got = {(r.a, r.b): r.n for r in out.itertuples()}
    assert got == {(1, 7): 2, (1, 8): 1, (2, 7): 1}


def test_bucket_stats_counts_and_empty_schema():
    """The census sums per-block counts to the exact bucket sizes, and
    an empty input still yields key_cols + ["bucket_size"]."""
    from metacache_mpi_ray.stages.candidates import bucket_stats

    rng = np.random.default_rng(4)
    band_id = rng.integers(0, 3, 500)
    band_hash = rng.integers(0, 40, 500)
    tab = pa.table(
        {
            "band_id": pa.array(band_id, type=pa.int64()),
            "band_hash": pa.array(band_hash, type=pa.int64()),
            "doc_id": pa.array(np.arange(500), type=pa.int64()),
        }
    )
    got = bucket_stats(rd.from_arrow(tab).repartition(4), ["band_id", "band_hash"])
    got = got.to_pandas()
    assert list(got.columns) == ["band_id", "band_hash", "bucket_size"]
    want = tab.to_pandas().groupby(["band_id", "band_hash"]).size()
    assert dict(zip(zip(got["band_id"], got["band_hash"]), got["bucket_size"])) == {
        k: int(v) for k, v in want.items()
    }
    empty = bucket_stats(rd.from_arrow(tab.slice(0, 0)), ["band_id", "band_hash"])
    assert empty.count() == 0
    assert empty.schema().names == ["band_id", "band_hash", "bucket_size"]


def test_bucket_and_segment_stages_run_no_sort_or_groupby(monkeypatch):
    """Every bucket and segment stage keys its groups through
    hash_exchange: the flagship, all-pairs bucketing, anchor candidates,
    the scored substring stages, the cluster LCS report and the bucket
    census call neither ``Dataset.sort`` nor ``Dataset.groupby``."""
    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline
    from metacache_mpi_ray.stages.candidates import bucket_all_pairs, bucket_stats
    from metacache_mpi_ray.stages.ingest import ingest_documents
    from metacache_mpi_ray.stages.substring import (
        anchor_candidates,
        cluster_lcs_report,
        scored_substring_edges,
    )

    calls = []

    def forbid(name):
        def f(self, key=None, *args, **kwargs):
            calls.append((name, key))
            raise AssertionError(f"{name}({key!r}) on a keyed-bucket stage")

        return f

    monkeypatch.setattr(rd.Dataset, "sort", forbid("sort"))
    monkeypatch.setattr(rd.Dataset, "groupby", forbid("groupby"))

    cfg = DedupConfig()
    rng = np.random.default_rng(8)
    words = [f"w{i}" for i in range(300)]

    def mk(n):
        return " ".join(words[int(rng.integers(0, 300))] for _ in range(n))

    shared = mk(150)
    texts = [mk(60) + " " + shared for _ in range(4)] + [mk(200) for _ in range(8)]
    texts += texts[:3]  # exact copies
    docs = ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), type=pa.int64()),
                    "text": pa.array(texts, type=pa.string()),
                }
            )
        )
    ).materialize()

    clusters = near_dup_pipeline(docs, cfg, num_partitions=2).clusters.to_pandas()
    assert len(clusters) == len(texts)
    assert clusters["is_dup"].sum() >= 3
    keyed = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1, 2, 2, 2, 3], type=pa.int64()),
                "doc_id": pa.array(range(6), type=pa.int64()),
            }
        )
    )
    assert bucket_all_pairs(keyed, ["k"], cap=8).count() == 1 + 3
    assert bucket_stats(keyed, ["k"]).count() == 3
    assert anchor_candidates(docs, cfg, num_partitions=2, max_hosts=None).count() > 0
    assert scored_substring_edges(docs, cfg, num_partitions=2).count() > 0
    with_clusters = docs.map_batches(
        lambda t: t.append_column(
            "cluster_id", pa.array(t["doc_id"].to_numpy() % 3, type=pa.int64())
        ),
        batch_format="pyarrow",
    )
    assert cluster_lcs_report(with_clusters, min_cluster=2, max_members=4).count() > 0
    assert calls == []
