"""Block-level dataset utilities.

``hash_exchange`` is the engine's keyed all-to-all (every join, pair
dedup, the index build's shard writes, every bucket and segment stage, the
connected-components rounds, the windows family, the vocabulary census,
rank-merge, the Bloom build and sharded probe, and the ambiguity
filter): plain Ray tasks instead of a Ray Data
``sort``/``groupby``/``join``, whose fixed cost per execution dwarfs the
work on a small input, whose sorted blocks split key groups that then
need a boundary stitch, and whose join emits zero-row blocks with the
operator's internal schema. One exchange moves one or several keyed
inputs, so a join is one exchange whose reduce sees both sides of each
key whole. Its partition function, ``split_by_key``, also names the
persisted index's shards, so the daily batch splits itself the same
way and each probe task reads only its own shard files. Its split half,
``split_blocks``, also feeds the verify step (``stages/verify.py``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd


def ensure_columns(df, columns: list[str]):
    """pandas frame with at least ``columns`` — the empty result of a
    Ray groupby/aggregate loses its schema on ``to_pandas()`` (zero-row
    shuffle blocks carry the operator's internal schema, or none), so
    every driver-side consumer of a possibly-empty grouped table
    rebuilds the expected columns through this ONE helper."""
    if all(c in df.columns for c in columns):
        return df
    return df.reindex(columns=columns)


def doc_blocks(ds):
    """The non-empty blocks of a dataset as (ref, rows) pairs, in order,
    yielded as its execution streams them."""
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in zip(bundle.block_refs, bundle.metadata):
            if meta.num_rows:
                yield ref, meta.num_rows


def assemble_sorted_i64(mat, col: str):
    """ObjectRef to the sorted int64 numpy array of ``col`` over a
    MATERIALIZED dataset, assembled in ONE off-driver task from the
    block refs — the values never cross the driver heap. The broadcast
    side of ``stages/joins.probe_key_set`` and of ``filter_unseen``'s
    exact verify (stages/bloom.py)."""
    refs = [ref for ref, _ in doc_blocks(mat)]
    if not refs:
        return ray.put(np.empty(0, dtype=np.int64))
    return _assemble_sorted.remote(col, *refs)


@ray.remote
def _assemble_sorted(col: str, *tabs) -> np.ndarray:
    parts = [t[col].to_numpy(zero_copy_only=False) for t in tabs if len(t)]
    return np.sort(np.concatenate(parts).astype(np.int64))


def _as_table(block) -> pa.Table:
    if isinstance(block, pa.Table):
        return block
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).to_arrow()


def task_returns(pieces):
    """A task's pieces as its return value: Ray stores the one value of
    a ``num_returns=1`` task as it is, so one piece goes back alone."""
    return pieces[0] if len(pieces) == 1 else tuple(pieces)


def returned_refs(out, n: int) -> list:
    """The refs of a task submitted with ``num_returns=n`` as a list
    (Ray gives one ref, not a tuple, when ``n`` is 1)."""
    return [out] if n == 1 else list(out)


def _key_u64(col) -> np.ndarray:
    """u64 view of one key column: integer-like values as their int64
    bits, strings and binaries as a content hash."""
    from metacache_mpi_ray.functions.hashing import (
        U64,
        arrow_string_buffer,
        doc_hashes_from_buffer,
    )

    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t) or (
        pa.types.is_binary(t) or pa.types.is_large_binary(t)
    ):
        return doc_hashes_from_buffer(*arrow_string_buffer(col))
    return col.to_numpy(zero_copy_only=False).astype(np.int64).view(U64)


def split_by_key(t: pa.Table, key_cols: list[str], num_partitions: int) -> list[pa.Table]:
    """``t`` -> ``num_partitions`` pieces keyed by a splitmix64/mix2 hash
    of ``key_cols``: THE partition function of ``hash_exchange`` and of
    the persisted index's shards (pipelines/incremental.py), so a key
    lands in the same partition on both."""
    from metacache_mpi_ray.functions.hashing import U64, mix2, splitmix64

    h = None
    for c in key_cols:
        v = _key_u64(t[c])
        h = splitmix64(v) if h is None else mix2(h, v)
    # the narrowest dtype: numpy's stable sort radix-sorts 8/16-bit keys
    part = (h % U64(num_partitions)).astype(np.min_scalar_type(num_partitions - 1))
    order = np.argsort(part, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(part, minlength=num_partitions))])
    t = t.take(pa.array(order))
    return [t.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]


@ray.remote
def _exchange_split(block, key_cols, num_partitions, combine):
    """One input block -> ``num_partitions`` pieces keyed by the hash of
    ``key_cols`` (after the map-side ``combine``)."""
    t = _as_table(block)
    if t.num_rows == 0 or not set(key_cols) <= set(t.column_names):
        # empty blocks may carry no schema: every piece is empty
        pieces = [pa.table({})] * num_partitions
    else:
        if combine is not None:
            t = combine(t)
        pieces = split_by_key(t, key_cols, num_partitions)
    return task_returns(pieces)


def split_blocks(ds, key_cols: list[str], num_partitions: int, combine=None) -> list[list]:
    """The split half of ``hash_exchange``: one ``_exchange_split`` task
    per non-empty block of ``ds`` -> one list of piece refs per
    partition, in block order."""
    split = _exchange_split.options(num_returns=num_partitions)
    pieces = [[] for _ in range(num_partitions)]
    for ref, _ in doc_blocks(ds):
        out = split.remote(ref, key_cols, num_partitions, combine)
        for p, r in enumerate(returned_refs(out, num_partitions)):
            pieces[p].append(r)
    return pieces


def _concat_pieces(pieces) -> pa.Table:
    """One input's pieces of a partition as one table. With no rows the
    result keeps the schema of the input's non-empty blocks (their empty
    slices carry it), or has no columns when the whole input was empty."""
    parts = [p for p in pieces if p.num_rows]
    if parts:
        return pa.concat_tables(parts, promote_options="default")
    return next((p for p in pieces if p.num_columns), pa.table({}))


@ray.remote
def _exchange_reduce(reduce, sizes, *pieces):
    tables, lo = [], 0
    for n in sizes:
        tables.append(_concat_pieces(pieces[lo : lo + n]))
        lo += n
    return reduce(*tables)


def hash_exchange(ds, key_cols: list[str], reduce, *, num_partitions: int, combine=None):
    """Keyed all-to-all over plain Ray tasks -> a ref-backed Dataset of
    ``num_partitions`` blocks, one per partition.

    ``ds`` is one Dataset, or a list of Datasets that all carry
    ``key_cols``. One task per input block applies ``combine``
    (map-side pre-aggregation, Table -> Table; with several inputs a
    list holds one per input, ``None`` for none) and splits its rows
    into ``num_partitions`` pieces by a splitmix64/mix2 hash of
    ``key_cols`` (integer-valued, or strings, which hash by content).
    One task per partition concatenates each input's pieces and returns
    ``reduce(table)``, or ``reduce(table_0, table_1, ...)`` with one
    table per input. Every row of one key, from every input, lands in
    ONE partition, so ``reduce`` sees each key group whole — a join, a
    group aggregate or both at once — and no boundary stitch is needed.
    ``reduce`` must accept zero-row tables (a partition no row of an
    input hashed to); such a table keeps the input's schema, or has no
    columns when the whole input was empty. For a zero-row partition
    ``reduce`` returns its output schema.

    Each input executes once; there is no Ray Data shuffle, so no sort
    sample, no shuffle operator start-up and no extra execution.
    """
    num_partitions = max(1, int(num_partitions))
    inputs = list(ds) if isinstance(ds, (list, tuple)) else [ds]
    combines = combine if isinstance(combine, (list, tuple)) else [combine] * len(inputs)
    sides = [
        split_blocks(d, key_cols, num_partitions, comb) for d, comb in zip(inputs, combines)
    ]
    sizes = [len(side[0]) for side in sides]
    out = [
        _exchange_reduce.remote(reduce, sizes, *[r for side in sides for r in side[i]])
        for i in range(num_partitions)
    ]
    return rd.from_arrow_refs(out)
