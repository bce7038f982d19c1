"""functions/blocks.hash_exchange — the keyed all-to-all over plain Ray
tasks that pair dedup and the index probe run on."""

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
