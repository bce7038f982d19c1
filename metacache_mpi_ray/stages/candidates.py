"""Candidate-edge generation from LSH buckets — the shuffle at the heart
of the engine.

Reference analog: the query-side multimap probe + location-list merge
(`accumulate_matches`, /root/reference/src/sketch_database.h:804-833)
combined with the build-side insert (:1079-1097) — re-expressed as ONE
hash exchange on the band key (SURVEY.md §4: ship records through a
shuffle keyed by sketch features instead of shipping queries to every
index shard).

Semantics per bucket (band_id, band_hash):
  * buckets larger than ``cap`` are dropped — the analog of the
    reference's overpopulated-feature removal / uint8 location cap
    (/root/reference/src/sketch_database.h:356-417, config.h:77); hot
    boilerplate buckets are non-discriminative. Every bucket is seen
    whole, so the cap applies to the whole bucket at any block layout.
  * surviving buckets emit star edges (min_doc_id, other_doc_id) —
    |bucket|-1 edges preserve union-find connectivity without the
    O(m^2) pair explosion (SURVEY.md §7.3); ``bucket_all_pairs`` emits
    every pair instead for the pair-listing operators.

Implementation: fold the key columns into one 64-bit ``bkey``, then
``functions/blocks.hash_exchange`` on it — every row of one bucket lands
in one partition, whose reduce sorts by ``bkey`` and runs a vectorized
segment kernel. Pair dedup (``dedupe_edges`` / ``unique_pairs``) runs on
the same exchange; no stage here range-sorts or stitches bucket
fragments. The census kernel ``bucket_histogram`` runs per band shard.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from metacache_mpi_ray.functions.blocks import hash_exchange
from metacache_mpi_ray.functions.hashing import U64, mix2, splitmix64

_EDGE_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def fold_keys(cols) -> np.ndarray:
    """Fold int64 key columns (or broadcastable arrays of them) into one
    u64 key, viewed int64: splitmix64 of the first, ``mix2`` with each
    next. The fold of ``_combine_keys`` and of ``band_key_rows``."""
    h = None
    for col in cols:
        col = np.asarray(col, dtype=np.int64).view(U64)
        h = splitmix64(col) if h is None else mix2(h, col)
    bk = h.view(np.int64)
    # 0 -> 1 (a 2^-64 event): 0 was once a sentinel; the fold stays so
    # band keys already persisted in an index keep their values
    bk[bk == 0] = 1
    return bk


def _combine_keys(batch: pa.Table, key_cols: list[str], id_col: str) -> pa.Table:
    """Fold multiple key columns into one u64 (viewed int64) ``bkey``."""
    bk = fold_keys(batch[c].to_numpy(zero_copy_only=False) for c in key_cols)
    return pa.table({"bkey": pa.array(bk, type=pa.int64()), id_col: batch[id_col]})


def run_bounds(*cols: np.ndarray):
    """(starts, sizes) of the equal-value runs of parallel columns that
    are already sorted together."""
    n = len(cols[0])
    change = np.zeros(n, dtype=bool)
    if n:
        change[0] = True
    for c in cols:
        change[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(change)
    return starts, np.diff(np.append(starts, n))


_HISTOGRAM = pa.schema([("bucket_size", pa.int64()), ("n_buckets", pa.int64())])


def bucket_histogram(keys) -> pa.Table:
    """The census kernel (A8 analog, mode_build.cpp:847-1074 and
    mode_info.cpp:288-345): the ``bkey`` arrays of one band shard, every
    bucket whole in it -> (bucket_size, n_buckets), sorted by size."""
    k = np.sort(np.concatenate([np.empty(0, dtype=np.int64), *keys]))
    size, n = np.unique(run_bounds(k)[1], return_counts=True)
    return pa.table([size.astype(np.int64), n.astype(np.int64)], schema=_HISTOGRAM)


def merge_histograms(parts) -> pa.Table:
    """``bucket_histogram``s of disjoint bucket sets (one per band
    shard) -> one histogram, sorted by size."""
    t = pa.concat_tables([_HISTOGRAM.empty_table(), *parts])
    size, inv = np.unique(t["bucket_size"].to_numpy(), return_inverse=True)
    n = np.zeros(len(size), dtype=np.int64)
    np.add.at(n, inv, t["n_buckets"].to_numpy())
    return pa.table([size, n], schema=_HISTOGRAM)


def histogram_sums(hist: pa.Table) -> list[int]:
    """[n, Σx, Σx², Σx³] over the bucket sizes x of a histogram, exact
    as Python ints (in int64, Σx³ wraps at a 2^21-row bucket)."""
    rows = list(zip(hist["bucket_size"].to_pylist(), hist["n_buckets"].to_pylist()))
    return [sum(n * x**k for x, n in rows) for k in range(4)]


def star_edges(ids: np.ndarray, starts: np.ndarray, sizes: np.ndarray, cap: int):
    """The bucket kernel of ``bucket_edges`` and the flagship's bucket
    task: over the equal-key runs (``starts``, ``sizes``) of ``ids``,
    every bucket of 2..``cap`` members emits (bucket min, member) for
    each other member."""
    keep = (sizes > 1) & (sizes <= cap)
    mins = np.minimum.reduceat(ids, starts)
    a = np.repeat(mins[keep], sizes[keep])
    b = ids[np.repeat(keep, sizes)]
    sel = a != b
    return a[sel], b[sel]


def distinct_pairs(a: np.ndarray, b: np.ndarray):
    """The distinct (a, b) pairs of two parallel id arrays, sorted by
    (a, b)."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    starts, _ = run_bounds(a, b)
    return a[starts], b[starts]


def _bucket_exchange(ds, key_cols, id_col, kernel, num_partitions):
    """Fold ``key_cols`` into ``bkey``, hash-exchange on it, and run
    ``kernel(ids, starts, sizes) -> (a, b)`` over each partition's
    bkey-sorted buckets, every bucket whole."""
    keyed = ds.map_batches(
        lambda t: _combine_keys(t, key_cols, id_col), batch_format="pyarrow"
    )

    def reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EDGE_SCHEMA.empty_table()
        keys = t["bkey"].to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        ids = t[id_col].to_numpy(zero_copy_only=False)[order]
        a, b = kernel(ids, *run_bounds(keys[order]))
        return pa.table(
            {"a": pa.array(a, type=pa.int64()), "b": pa.array(b, type=pa.int64())}
        )

    return hash_exchange(keyed, ["bkey"], reduce, num_partitions=num_partitions)


def bucket_edges(
    ds,
    key_cols: list[str],
    id_col: str = "doc_id",
    cap: int = 256,
    num_partitions: int = 32,
):
    """rows(key_cols..., id_col) -> candidate star edges (a = bucket min,
    b = every other member) of the buckets with 2..``cap`` members.

    Returns a ref-backed Dataset of ``num_partitions`` blocks (the input
    executes once; downstream consumers re-read the blocks). The
    flagship graph's bucket task runs the same kernel
    (pipelines/dedup.py)."""

    return _bucket_exchange(
        ds, key_cols, id_col, partial(star_edges, cap=cap), num_partitions
    )


def segment_all_pairs(
    ids: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    mask: np.ndarray,
    *,
    extra: np.ndarray | None = None,
    sample_cap: int | None = None,
):
    """All distinct (a < b) pairs of the selected equal-key segments of
    a sorted stream — vectorized by grouping segments of EQUAL SIZE, so
    the Python loop runs at most (distinct sizes) times regardless of
    segment count (round-3: the previous per-bucket loop was one Python
    iteration per bucket, which dominates at millions of buckets).

    ``extra`` is an optional parallel per-row value (e.g. a position);
    returns (a, b) or (a, b, ea, eb) with the extras swapped alongside.
    ``sample_cap``: segments larger than this are reduced to sample_cap
    members chosen by the deterministic splitmix64 id-hash rule (the
    smallest mixed ids — independent of row order).
    """
    sel_starts = starts[mask]
    sel_sizes = sizes[mask]
    out_a, out_b, out_ea, out_eb = [], [], [], []
    for z in np.unique(sel_sizes).tolist():
        zs = sel_starts[sel_sizes == z]
        gather = zs[:, None] + np.arange(z, dtype=np.int64)[None, :]
        vals = ids[gather]  # (k, z)
        ext = extra[gather] if extra is not None else None
        if sample_cap is not None and z > sample_cap:
            mix = splitmix64(vals.reshape(-1).view(U64)).reshape(vals.shape)
            pick = np.argsort(mix, axis=1)[:, :sample_cap]
            vals = np.take_along_axis(vals, pick, axis=1)
            if ext is not None:
                ext = np.take_along_axis(ext, pick, axis=1)
            z = sample_cap
        if z < 2:
            continue
        i, j = np.triu_indices(z, 1)
        ai = vals[:, i].reshape(-1)
        bj = vals[:, j].reshape(-1)
        swap = ai > bj
        a = np.where(swap, bj, ai)
        b = np.where(swap, ai, bj)
        keep = a != b
        out_a.append(a[keep])
        out_b.append(b[keep])
        if ext is not None:
            pi = ext[:, i].reshape(-1)
            pj = ext[:, j].reshape(-1)
            out_ea.append(np.where(swap, pj, pi)[keep])
            out_eb.append(np.where(swap, pi, pj)[keep])
    def cat(parts):
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    if extra is None:
        return cat(out_a), cat(out_b)
    return cat(out_a), cat(out_b), cat(out_ea), cat(out_eb)


def bucket_all_pairs(
    ds,
    key_cols: list[str],
    id_col: str = "doc_id",
    cap: int = 256,
):
    """rows(key_cols..., id_col) -> ALL distinct pairs (a < b) per
    bucket, capped at ``cap`` members (over-cap buckets dropped).

    Star edges (bucket_edges) guarantee CONNECTIVITY for union-find at
    |m|-1 edges per bucket; pair-LISTING operators (near-dup pair
    reports, Hamming/ cosine verification surfaces) need every
    qualifying pair: a bucket {x, v, w} with only (v, w) truly similar
    would lose that pair behind the star center. Pairs per bucket are
    O(m^2) but m <= cap. Same exchange as ``bucket_edges``, over
    ``joins.default_num_partitions()`` partitions."""
    from metacache_mpi_ray.stages.joins import default_num_partitions

    def all_pairs(ids, starts, sizes):
        return segment_all_pairs(ids, starts, sizes, (sizes > 1) & (sizes <= cap))

    return _bucket_exchange(
        ds, key_cols, id_col, all_pairs, default_num_partitions()
    )


def _pair_runs(count: bool, weight: str | None = None):
    """lexsort + run-length kernel over (a, b): one row per distinct
    pair, sorted. With ``count`` it adds ``n_bands_hit`` = the run's
    row count (``weight=None``) or the sum of its ``weight`` column —
    the map-side combine counts raw edges, the reduce sums partials."""

    def kernel(t: pa.Table) -> pa.Table:
        out = {"a": pa.int64(), "b": pa.int64()}
        if count:
            out["n_bands_hit"] = pa.int64()
        if t.num_rows == 0:
            return pa.schema(out).empty_table()
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        starts, sizes = run_bounds(a, b)
        cols = [a[starts], b[starts]]
        if count:
            if weight is None:
                cols.append(sizes)
            else:
                w = t[weight].to_numpy(zero_copy_only=False).astype(np.int64)
                cols.append(np.add.reduceat(w[order], starts))
        return pa.table(
            {name: pa.array(c, type=pa.int64()) for name, c in zip(out, cols)}
        )

    return kernel


def dedupe_edges(edges, num_partitions: int = 32):
    """Collapse the same (a, b) edge found in multiple bands; keep the
    number of agreeing bands as a signal column ``n_bands_hit``.

    One ``hash_exchange`` on (a, b) with a map-side combine: each input
    block collapses its own duplicates first (multiplicity is high — a
    pair shared by k bands arrives k times), then every pair lands whole
    in one of ``num_partitions`` partitions, where the same run-length
    kernel sums the partial counts. No range sort, no boundary stitch."""
    return hash_exchange(
        edges,
        ["a", "b"],
        _pair_runs(True, "n_bands_hit"),
        num_partitions=num_partitions,
        combine=_pair_runs(True),
    )


def unique_pairs(edges, num_partitions: int = 32):
    """Distinct (a, b) rows, multiplicity dropped — ``dedupe_edges``
    without the count column."""
    distinct = _pair_runs(False)
    return hash_exchange(
        edges, ["a", "b"], distinct, num_partitions=num_partitions, combine=distinct
    )


def ambiguity_filter(ds, key_col: str, source_col: str, max_sources: int):
    """Ambiguous-feature removal (D4 analog, /root/reference/src/
    sketch_database.h:428-470): drop every row whose ``key_col`` bucket
    spans MORE than ``max_sources`` distinct sources — a feature present
    across many sources/domains is non-discriminative, independent of
    its raw SIZE (the D3 cap). One ``hash_exchange`` on ``key_col``
    (each block first keeps its distinct (key, source) rows; the reduce
    counts each key's distinct sources and emits the keys over the
    limit), then a broadcast anti-filter with the small ambiguous-key
    list.

    ``ds`` is consumed twice (census + anti-filter) without
    materializing (it is corpus-sized); its lineage must be
    deterministic across executions — materialize limit/sample inputs
    first (see stages/bloom.filter_unseen for the failure mode)."""
    import ray

    from metacache_mpi_ray.stages.joins import default_num_partitions

    def distinct(t: pa.Table) -> pa.Table:
        return t.group_by([key_col, source_col]).aggregate([])

    def wide(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:  # the whole input was empty
            return t
        g = t.group_by(key_col).aggregate(
            [(source_col, "count_distinct", pc.CountOptions(mode="all"))]
        )
        n = g[f"{source_col}_count_distinct"]
        return g.filter(pc.greater(n, max_sources)).select([key_col])

    amb = hash_exchange(
        ds.select_columns([key_col, source_col]),
        [key_col],
        wide,
        num_partitions=default_num_partitions(minimum=2),
        combine=distinct,
    )
    parts = [
        b[key_col].to_numpy(zero_copy_only=False)
        for b in ray.get(amb.to_arrow_refs())
        if b.num_rows
    ]
    if not parts:
        return ds
    kref = ray.put(np.sort(np.concatenate(parts)))

    def drop(t: pa.Table) -> pa.Table:
        from metacache_mpi_ray.stages.verify import lookup_sorted

        k = ray.get(kref)
        vals = t[key_col].to_numpy(zero_copy_only=False)
        _, found = lookup_sorted(k, vals)
        return t.filter(pa.array(~found))

    return ds.map_batches(drop, batch_format="pyarrow")
