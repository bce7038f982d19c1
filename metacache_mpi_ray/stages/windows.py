"""Grouped / windowed operators over the ordered event log.

Ray Data has no event-time window primitives. Round-1 expressed these
as ``groupby().map_groups`` — one Python call + DataFrame per group,
which dominates cost at 10^8 keys. This version uses the same shape as
the LSH bucket stages (stages/candidates.py): ONE
``functions/blocks.hash_exchange`` on the group column moves every row
of a group to one partition, whose reduce sorts the partition in place
and runs a vectorized segment kernel over the group runs. Each group
arrives whole, so there are no boundary fragments and no driver stitch;
per-row work is numpy/Arrow and per-group Python is nil.

Reference analogs: per-group top-k = the bounded candidate list (A2,
/root/reference/src/candidates.h:191-289); windowed hit counting = A1
(candidates.h:118-180).

Ordering note: duplicate (key, ts) rows are ordered arbitrarily within
their group — the same ambiguity a SQL window ORDER BY has on ties.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from metacache_mpi_ray.functions.blocks import hash_exchange
from metacache_mpi_ray.stages.candidates import run_bounds


def _sorted_runs(t: pa.Table, sort_cols: list[str], descending: list[bool]):
    """``t`` sorted by ``sort_cols`` and the (starts, sizes) of its runs
    of equal ``sort_cols[0]``."""
    order = ["descending" if d else "ascending" for d in descending]
    t = t.sort_by(list(zip(sort_cols, order)))
    return (t, *run_bounds(t[sort_cols[0]].to_numpy(zero_copy_only=False)))


def _group_exchange(
    ds, sort_cols, kernel, *, descending=None, combine=None, prepare=None
):
    """Hash-exchange ``ds`` on ``sort_cols[0]`` and return the Dataset of
    ``kernel(t, starts, sizes)`` over each partition: ``t`` is the
    partition (after ``prepare``, Table -> Table) sorted by ``sort_cols``
    and (starts, sizes) bound its groups, every group whole.
    ``combine`` is the exchange's map-side step. An empty ``ds`` runs
    ``kernel`` once over a zero-row table with its schema."""
    from metacache_mpi_ray.stages.joins import default_num_partitions

    descending = descending or [False] * len(sort_cols)
    prepare = prepare or (lambda t: t)

    def reduce(t: pa.Table) -> pa.Table:
        return kernel(*_sorted_runs(prepare(t), sort_cols, descending))

    mat = ds.materialize()
    if mat.count() == 0:
        # the exchange would see no schema: rebuild the typed empty input
        sch = mat.schema() or ds.schema()
        empty = pa.schema(list(zip(sch.names, sch.types))).empty_table()
        return rd.from_arrow(reduce(empty))
    return hash_exchange(
        mat,
        sort_cols[:1],
        reduce,
        num_partitions=default_num_partitions(minimum=2),
        combine=combine,
    )


def _topk(ds, group_col, order_col, k, *, descending=True, tiebreak=None, prepare=None):
    """``topk_per_group`` with an optional ``prepare`` step (Table ->
    Table, e.g. a max per (group, id)) applied before ranking on the map
    side and again in the reduce."""
    sort_cols = [group_col, order_col] + list(tiebreak or [])
    desc = [False, descending] + [False] * (len(sort_cols) - 2)
    prepare = prepare or (lambda t: t)

    def head(t, starts, sizes):
        within = np.arange(t.num_rows) - np.repeat(starts, sizes)
        sel = np.flatnonzero(within < k)
        return t.take(pa.array(sel, type=pa.int64())), within[sel] + 1

    def first_k(t: pa.Table) -> pa.Table:
        return head(*_sorted_runs(prepare(t), sort_cols, desc))[0]

    def ranked(t, starts, sizes):
        top, rank = head(t, starts, sizes)
        return top.append_column("rank", pa.array(rank, type=pa.int64()))

    return _group_exchange(
        ds, sort_cols, ranked, descending=desc, combine=first_k, prepare=prepare
    )


def topk_per_group(
    ds,
    group_col: str,
    order_col: str,
    k: int,
    *,
    descending: bool = True,
    tiebreak: list[str] | None = None,
):
    """Per-group bounded top-k with deterministic tie-break columns.

    One exchange on ``group_col``; each input block first keeps its own
    top k rows per group (exact: a row outside its block's top k is
    outside the group's), so a hot group moves at most k rows per
    block. The reduce sorts by (group, order, *tiebreak) and emits each
    group's first k rows with 1-based ``rank``.
    """
    return _topk(
        ds, group_col, order_col, k, descending=descending, tiebreak=tiebreak
    )


def lag_per_group(
    ds, group_col: str, ts_col: str, value_col: str, out_col: str = "prev_value"
):
    """Per-key previous-row value in ts order (LAG window function):
    each partition, sorted by (group, ts), shifts ``value_col`` down one
    row and nulls the first row of every group."""

    def kernel(t, starts, sizes):
        vals = t[value_col].combine_chunks()
        n = len(vals)
        prev = vals
        if n:
            prev = pa.concat_arrays([pa.nulls(1, vals.type), vals.slice(0, n - 1)])
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        return t.append_column(
            out_col, pc.if_else(pa.array(first), pa.nulls(n, vals.type), prev)
        )

    return _group_exchange(ds, [group_col, ts_col], kernel)


def sessionize(ds, group_col: str, ts_col: str, gap_us: int = 1800_000_000):
    """Session windows per key: a new session starts when the gap to the
    previous event exceeds ``gap_us``. Emits per-session aggregates
    (group, session_id, n_events, t_start, t_end), detected vectorized
    over each (group, ts)-sorted partition."""

    def kernel(t, starts, sizes):
        n = t.num_rows
        ts = t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        change = np.zeros(n, dtype=bool)
        change[starts] = True
        new_sess = change.copy()
        new_sess[1:] |= (ts[1:] - ts[:-1]) > gap_us
        s_starts = np.flatnonzero(new_sess)
        s_sizes = np.diff(np.append(s_starts, n))
        # session's position within its key segment
        seg_first = change[s_starts]  # session opens a new key segment
        seg_idx = np.cumsum(seg_first) - 1
        sid = np.arange(len(s_starts)) - np.flatnonzero(seg_first)[seg_idx]
        return pa.table(
            {
                group_col: t[group_col].take(pa.array(s_starts, type=pa.int64())),
                "session_id": pa.array(sid, type=pa.int64()),
                "n_events": pa.array(s_sizes, type=pa.int64()),
                "t_start": pa.array(ts[s_starts], type=pa.int64()),
                "t_end": pa.array(ts[s_starts + s_sizes - 1], type=pa.int64()),
            }
        )

    return _group_exchange(ds, [group_col, ts_col], kernel)


def collect_members(ds, key_col: str, id_col: str):
    """Grouped sorted collect-list: (key, rep_id, members) with members
    a comma-joined ascending id list, built for every group of a
    partition at once by one Arrow ``binary_join`` over the id runs."""

    def kernel(t, starts, sizes):
        ids = t[id_col].combine_chunks()
        offsets = pa.array(np.append(starts, t.num_rows), type=pa.int32())
        idx = pa.array(starts, type=pa.int64())
        return pa.table(
            {
                key_col: t[key_col].take(idx),
                "rep_id": ids.take(idx).cast(pa.int64()),
                "members": pc.binary_join(
                    pa.ListArray.from_arrays(offsets, ids.cast(pa.string())), ","
                ),
            }
        )

    return _group_exchange(ds, [key_col, id_col], kernel)


def hopping_window_agg(
    ds, group_col: str, ts_col: str, width_us: int, slide_us: int, aggs: list
):
    """Hopping (sliding) event-time windows: window w covers
    [w*slide, w*slide + width); each event lands in width/slide windows
    (a vectorized 1->k row expansion), then one key+window groupby —
    same no-per-key-state shape as the tumbling form."""
    assert width_us % slide_us == 0, "width must be a multiple of slide"
    k = width_us // slide_us

    def expand(t: pa.Table) -> pa.Table:
        ts = t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ts)
        w0 = ts // slide_us
        wins = np.repeat(w0, k) - np.tile(np.arange(k, dtype=np.int64), n)
        cols = {}
        for c in t.column_names:
            arr = t[c]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            idx = np.repeat(np.arange(n, dtype=np.int64), k)
            cols[c] = arr.take(pa.array(idx))
        cols["window_id"] = pa.array(wins, type=pa.int64())
        return pa.table(cols)

    return (
        ds.map_batches(expand, batch_format="pyarrow")
        .groupby([group_col, "window_id"])
        .aggregate(*aggs)
    )


def quantile_per_group(ds, group_col: str, value_col: str, q: float):
    """Exact per-group discrete quantile with DuckDB ``quantile_disc``
    semantics: the value at index floor(q*(m-1)) of the group's m
    sorted non-NULL values; NULL for an all-NULL group. The output
    column has the value column's type."""
    assert 0.0 <= q <= 1.0

    def kernel(t, starts, sizes):
        vals = t[value_col].combine_chunks()
        # nulls sort last in each group, so its m valid values lead it
        valid = vals.is_valid().to_numpy(zero_copy_only=False)
        cum = np.concatenate([[0], np.cumsum(valid)])
        m = cum[starts + sizes] - cum[starts]
        pick = starts + np.floor(q * (np.maximum(m, 1) - 1)).astype(np.int64)
        return pa.table(
            {
                group_col: t[group_col].take(pa.array(starts, type=pa.int64())),
                "quantile": vals.take(pa.array(pick, type=pa.int64(), mask=m == 0)),
            }
        )

    return _group_exchange(
        ds.select_columns([group_col, value_col]), [group_col, value_col], kernel
    )


def tumbling_window_agg(ds, group_col: str, ts_col: str, width_us: int, aggs: list):
    """Tumbling event-time windows via key+bucket groupby (the scalable
    form: no per-key state, one shuffle)."""
    def add_window(t: pa.Table) -> pa.Table:
        win = pc.divide(t[ts_col].cast(pa.int64()), width_us)
        return t.append_column("window_id", win)

    return ds.map_batches(add_window, batch_format="pyarrow").groupby(
        [group_col, "window_id"]
    ).aggregate(*aggs)
