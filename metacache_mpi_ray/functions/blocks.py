"""Block-level dataset utilities.

``drop_empty_blocks`` works around a Ray 2.49 hash-shuffle quirk: join /
groupby operators emit zero-row blocks carrying the operator's INTERNAL
schema (the join's pre-projection columns, or no columns at all).
Projections skip empty blocks, so the stowaways survive select/rename
and later poison an acero join whose partition sees only them
("No match ... for key field reference"). Pruning by block ref is
metadata-only — no data moves.

``hash_exchange`` is the engine's keyed all-to-all (pair dedup, the
index probe, every bucket and segment stage): plain Ray tasks instead
of a Ray Data ``sort``/``groupby``, whose fixed cost per execution
dwarfs the work on a small input, and whose sorted blocks split key
groups that then need a boundary stitch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd


def drop_empty_blocks(mat, schema: pa.Schema | None = None):
    """Prune zero-row blocks from a MATERIALIZED dataset.

    Returns a dataset over only the non-empty block refs. If EVERY
    block is empty, returns an empty single-block dataset with
    ``schema`` — pass the expected Arrow schema whenever the input
    came through a hash-shuffle projection, because in the all-empty
    case ``mat.schema()`` reports the very stowaway schema this
    function exists to discard. Without ``schema`` the fallback is
    ``mat.schema()`` (fine for inputs whose kernels emit typed empty
    tables, e.g. map_batches stages with explicit empty branches).
    """
    refs = [
        ref
        for bundle in mat.iter_internal_ref_bundles()
        for ref, meta in zip(bundle.block_refs, bundle.metadata)
        if meta.num_rows
    ]
    if not refs:
        if schema is None:
            got = mat.schema()
            if got is None:
                # e.g. the materialized sort of an empty dataset has
                # ZERO blocks and no schema at all — without the
                # caller-supplied fallback there is nothing to build
                raise ValueError(
                    "drop_empty_blocks: dataset has no blocks and no "
                    "schema; pass the expected schema explicitly"
                )
            schema = got.base_schema
        return rd.from_arrow(schema.empty_table())
    return rd.from_arrow_refs(refs)


def ensure_columns(df, columns: list[str]):
    """pandas frame with at least ``columns`` — the empty result of a
    Ray groupby/aggregate loses its schema on ``to_pandas()`` (zero-row
    shuffle blocks carry the operator's internal schema, or none), so
    every driver-side consumer of a possibly-empty grouped table
    rebuilds the expected columns through this ONE helper."""
    if all(c in df.columns for c in columns):
        return df
    return df.reindex(columns=columns)


def assemble_sorted_i64(mat, col: str):
    """ObjectRef to the sorted int64 numpy array of ``col`` over a
    MATERIALIZED dataset, assembled in ONE off-driver task from the
    block refs — the values never cross the driver heap. The shared
    broadcast-set builder for the boilerplate / decontamination /
    verify families."""
    refs = [
        ref
        for bundle in mat.iter_internal_ref_bundles()
        for ref, meta in zip(bundle.block_refs, bundle.metadata)
        if meta.num_rows
    ]
    if not refs:
        return ray.put(np.empty(0, dtype=np.int64))

    @ray.remote
    def _assemble(*tabs):
        parts = [
            t[col].to_numpy(zero_copy_only=False) for t in tabs if len(t)
        ]
        return (
            np.sort(np.concatenate(parts).astype(np.int64))
            if parts
            else np.empty(0, dtype=np.int64)
        )

    return _assemble.remote(*refs)


def _as_table(block) -> pa.Table:
    if isinstance(block, pa.Table):
        return block
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).to_arrow()


@ray.remote
def _exchange_split(block, key_cols, num_partitions, combine):
    """One input block -> ``num_partitions`` pieces keyed by the hash of
    ``key_cols`` (after the map-side ``combine``)."""
    from metacache_mpi_ray.functions.hashing import U64, mix2, splitmix64

    t = _as_table(block)
    if t.num_rows == 0 or not set(key_cols) <= set(t.column_names):
        # empty blocks may carry no schema: every piece is empty
        pieces = [pa.table({})] * num_partitions
    else:
        if combine is not None:
            t = combine(t)
        h = None
        for c in key_cols:
            v = t[c].to_numpy(zero_copy_only=False).astype(np.int64).view(U64)
            h = splitmix64(v) if h is None else mix2(h, v)
        part = (h % U64(num_partitions)).astype(np.int64)
        order = np.argsort(part, kind="stable")
        bounds = np.searchsorted(part[order], np.arange(num_partitions + 1))
        t = t.take(pa.array(order))
        pieces = [
            t.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    return pieces[0] if num_partitions == 1 else tuple(pieces)


@ray.remote
def _exchange_reduce(reduce, *pieces):
    parts = [p for p in pieces if p.num_rows]
    if not parts:
        return reduce(pa.table({}))
    return reduce(pa.concat_tables(parts, promote_options="default"))


def hash_exchange(ds, key_cols: list[str], reduce, *, num_partitions: int, combine=None):
    """Keyed all-to-all over plain Ray tasks -> a ref-backed Dataset of
    ``num_partitions`` blocks, one per partition.

    One task per input block applies ``combine`` (map-side
    pre-aggregation, Table -> Table) and splits its rows into
    ``num_partitions`` pieces by a splitmix64/mix2 hash of
    ``key_cols`` (int64-valued); one task per partition concatenates
    its pieces and returns ``reduce(table)``. Every row of one key lands
    in ONE partition, so ``reduce`` sees each key group whole and no
    boundary stitch is needed. ``reduce`` must accept a zero-row table
    that may have no columns (a partition no row hashed to) and return
    its output schema for it.

    ``ds`` executes once; there is no Ray Data shuffle, so no sort
    sample, no shuffle operator start-up and no extra execution.
    """
    num_partitions = max(1, int(num_partitions))
    split = _exchange_split.options(num_returns=num_partitions)
    pieces = [
        split.remote(ref, key_cols, num_partitions, combine)
        for bundle in ds.iter_internal_ref_bundles()
        for ref, meta in zip(bundle.block_refs, bundle.metadata)
        if meta.num_rows != 0
    ]
    if num_partitions == 1:
        pieces = [[p] for p in pieces]
    out = [
        _exchange_reduce.remote(reduce, *[p[i] for p in pieces])
        for i in range(num_partitions)
    ]
    return rd.from_arrow_refs(out)
