"""Candidate-edge generation from LSH buckets — the shuffle at the heart
of the engine.

Reference analog: the query-side multimap probe + location-list merge
(`accumulate_matches`, /root/reference/src/sketch_database.h:804-833)
combined with the build-side insert — re-expressed as ONE range-shuffle
on the band key (SURVEY.md §4: ship records through a shuffle keyed by
sketch features instead of shipping queries to every index shard).

Semantics per bucket (band_id, band_hash):
  * bucket fragments larger than ``cap`` are dropped — the analog of the
    reference's overpopulated-feature removal / uint8 location cap
    (/root/reference/src/sketch_database.h:356-417, config.h:77); hot
    boilerplate buckets are non-discriminative. In ``bucket_edges`` the
    cap applies to each sorted-batch fragment, and a split bucket whose
    reassembled size exceeds it also gets no cross-fragment edges; the
    index probe (pipelines/incremental.py) sees every bucket whole, so
    there the cap applies to the whole bucket.
  * surviving buckets emit star edges (min_doc_id, other_doc_id) —
    |bucket|-1 edges preserve union-find connectivity without the
    O(m^2) pair explosion (SURVEY.md §7.3).

Implementation (one shuffle, no hash-join actors): combine the key
columns into a single 64-bit ``bkey``, global ``sort("bkey")`` (range
partition), then a vectorized per-batch pass finds group boundaries and
emits edges with ``np.minimum.reduceat``. A bucket split across batch
boundaries is stitched by *bridge rows*: each batch also emits its
first and last group as (bkey, fragment_min); any fragment of a split
bucket is necessarily the first or last group of its batch, so a tiny
driver-side pass over bridge rows adds the missing cross-fragment
edges. Pair dedup (``dedupe_edges`` / ``unique_pairs``) needs no
order, so it runs on ``functions/blocks.hash_exchange`` instead.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Count

from metacache_mpi_ray.functions.blocks import hash_exchange
from metacache_mpi_ray.functions.hashing import U64, mix2, splitmix64


def _combine_keys(batch: pa.Table, key_cols: list[str], id_col: str) -> pa.Table:
    """Fold multiple key columns into one u64 (viewed int64) ``bkey``."""
    h = None
    for c in key_cols:
        col = batch[c].to_numpy(zero_copy_only=False).astype(np.int64).view(U64)
        h = splitmix64(col) if h is None else mix2(h, col)
    bk = h.view(np.int64).copy()
    bk[bk == 0] = 1  # 0 is the bridge-row sentinel (2^-64 event)
    return pa.table(
        {
            "bkey": pa.array(bk, type=pa.int64()),
            id_col: batch[id_col],
        }
    )


def _make_edge_emitter(id_col: str, cap: int, hot_policy: str = "drop"):
    """hot_policy — what to do with bucket fragments larger than cap:

    * ``drop``   — reference parity (overpopulated features cleared,
                   /root/reference/src/sketch_database.h:398-417);
                   non-discriminative boilerplate buckets vanish.
    * ``star``   — emit the full star anyway (edges stay LINEAR in
                   bucket size — the star construction is itself the
                   skew mitigation vs. O(m^2) pair expansion); recall
                   survives hot buckets, verification load grows.
    * ``sample`` — star over a deterministic cap-size sample (smallest
                   hash-mixed ids), bounding verification load while
                   keeping a connectivity core; the "salted" middle
                   ground from SURVEY.md §7.3.
    """

    def emit(batch: pa.Table) -> pa.Table:
        keys = batch["bkey"].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        n = len(keys)
        empty = {
            "a": pa.array([], type=pa.int64()),
            "b": pa.array([], type=pa.int64()),
            "bridge_key": pa.array([], type=pa.int64()),
        }
        if n == 0:
            return pa.table(empty)
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(keys[1:], keys[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        sizes = np.diff(np.append(starts, n))
        mins = np.minimum.reduceat(ids, starts)
        ok = sizes <= cap
        if hot_policy == "star":
            ok = np.ones_like(ok)
        keep_groups = ok & (sizes > 1)
        a = np.repeat(mins[keep_groups], sizes[keep_groups])
        b_mask = np.repeat(keep_groups, sizes)
        b = ids[b_mask]
        sel = a != b
        if hot_policy == "sample" and (~ok & (sizes > 1)).any():
            # hot groups: star over the cap smallest mixed ids per
            # group. Vectorized by SIZE CLASS (the r4 per-hot-group
            # Python loop serialized on boilerplate-heavy crawls where
            # thousands of buckets overflow the cap): groups sharing a
            # size gather into one (k, size) matrix and a single
            # axis-1 argpartition picks every group's sample at once —
            # the Python loop runs per DISTINCT size, not per group.
            # Same pick set as the per-group loop (selection by mixed
            # id is order-free).
            hot = np.flatnonzero(~ok & (sizes > 1))
            hsizes = sizes[hot]
            ea_parts, eb_parts = [], []
            for sz in np.unique(hsizes):
                gstarts = starts[hot[hsizes == sz]]
                ids2 = ids[gstarts[:, None] + np.arange(sz)]  # (k, sz)
                hot_mix = splitmix64(np.ascontiguousarray(ids2).view(U64))
                part = np.argpartition(hot_mix, cap - 1, axis=1)[:, :cap]
                picked = np.take_along_axis(ids2, part, axis=1)
                ea_parts.append(
                    np.repeat(picked.min(axis=1), picked.shape[1])
                )
                eb_parts.append(picked.ravel())
            ea = np.concatenate(ea_parts)
            eb = np.concatenate(eb_parts)
            es = ea != eb
            a = np.concatenate([a[sel], ea[es]])
            b = np.concatenate([b[sel], eb[es]])
            sel = np.ones(len(a), dtype=bool)
        # bridge rows: first + last group of this batch (possible split
        # fragments), regardless of size — they carry the fragment size
        # so the stitch can enforce the cap on the REASSEMBLED bucket
        bridge_idx = [0] if len(starts) == 1 else [0, len(starts) - 1]
        bk = keys[starts[bridge_idx]]
        bm = mins[bridge_idx]
        bsz = sizes[bridge_idx]
        return pa.table(
            {
                "a": pa.array(
                    np.concatenate([a[sel], bm]), type=pa.int64()
                ),
                "b": pa.array(
                    np.concatenate([b[sel], bm]), type=pa.int64()
                ),
                "bridge_key": pa.array(
                    np.concatenate([np.zeros(sel.sum(), dtype=np.int64), bk]),
                    type=pa.int64(),
                ),
                "bsz": pa.array(
                    np.concatenate([np.zeros(sel.sum(), dtype=np.int64), bsz]),
                    type=pa.int64(),
                ),
            }
        )

    return emit


def bucket_edges(
    ds,
    key_cols: list[str],
    id_col: str = "doc_id",
    cap: int = 256,
    num_partitions: int = 32,  # kept for API compat; sort picks its own
    hot_policy: str = "drop",
):
    """rows(key_cols..., id_col) -> candidate edges (a < b, a = bucket min).

    Returns a MaterializedDataset (the edge list is the natural
    checkpoint artifact; at scale it is written to Parquet instead —
    see pipelines/checkpointed.py). ``hot_policy`` controls over-cap
    buckets (see _make_edge_emitter)."""
    keyed = ds.map_batches(
        lambda t: _combine_keys(t, key_cols, id_col), batch_format="pyarrow"
    )
    emitted = (
        keyed.sort("bkey")
        .map_batches(_make_edge_emitter(id_col, cap, hot_policy), batch_format="pyarrow")
        .materialize()
    )
    # stitch buckets split across batch boundaries (tiny: <= 2 rows/batch)
    edges, bridges = split_edges_and_bridges(
        emitted, ["a", "b"], ["a", "bridge_key", "bsz"]
    )
    if len(bridges):
        g = bridges.groupby("bridge_key").agg(
            **{"min": ("a", "min"), "nunique": ("a", "nunique"), "total": ("bsz", "sum")}
        )
        split = g[g["nunique"] > 1]
        if hot_policy == "drop" and len(split):
            # a split bucket whose REASSEMBLED size exceeds the cap is
            # overpopulated: no cross-fragment edges either (per-fragment
            # stars already honored the per-fragment cap)
            split = split[split["total"] <= cap]
        if len(split):
            extra = bridges.merge(
                split.rename(columns={"min": "gmin"}), left_on="bridge_key", right_index=True
            )
            extra = extra[extra["a"] != extra["gmin"]]
            extra_df = pd.DataFrame(
                {"a": extra["gmin"].astype("int64"), "b": extra["a"].astype("int64")}
            ).drop_duplicates()
            if len(extra_df):
                # arrow block, matching the main edge stream (mixed
                # block types break downstream sorts and to_arrow_refs)
                edges = edges.union(
                    ray.data.from_arrow(
                        pa.Table.from_pandas(extra_df, preserve_index=False)
                    )
                )
    # the edge list is consumed several times downstream (count,
    # endpoint collection, scoring); it is ref-backed already (see
    # split_edges_and_bridges), so consumers re-read blocks instead of
    # re-executing the sort lineage — no materialize() cycle needed
    return edges


@ray.remote(num_returns=2)
def _split_bridge_block(tab: pa.Table, edge_cols: list[str], bridge_cols: list[str]):
    if len(tab) == 0 or "bridge_key" not in tab.schema.names:
        # an empty input produces schema-less (or column-poor) blocks
        def _e(cols: list[str]) -> pa.Table:
            return pa.table({c: pa.array([], type=pa.int64()) for c in cols})

        return _e(edge_cols), _e(bridge_cols)
    return (
        bridge_split(False, edge_cols)(tab),
        bridge_split(True, bridge_cols)(tab),
    )


def split_edges_and_bridges(emitted, edge_cols: list[str], bridge_cols: list[str]):
    """Materialized emitter output -> (ref-backed edges Dataset,
    driver-side bridges DataFrame) in ONE pass of plain per-block tasks.

    Replaces the previous two full dataset executions (edge filter +
    bridge ``to_pandas``) plus the final ``materialize()`` — each paid a
    streaming-executor startup, a fixed serial cost per execution that
    was a measurable slice of a 2-CPU scaling leg. The returned Dataset
    is backed by the already-computed block refs, so repeated downstream
    consumption (count, endpoint collection, scoring) re-reads instead
    of re-executing."""
    refs = emitted.to_arrow_refs()
    if not refs:
        empty = pa.table({c: pa.array([], type=pa.int64()) for c in edge_cols})
        return ray.data.from_arrow(empty), pd.DataFrame(columns=bridge_cols)
    out = [_split_bridge_block.remote(r, edge_cols, bridge_cols) for r in refs]
    bridge_tabs = ray.get([b for _, b in out])
    bridges = pa.concat_tables(bridge_tabs).to_pandas()
    return ray.data.from_arrow_refs([e for e, _ in out]), bridges


@ray.remote(num_returns=2)
def _split_flag_block(tab: pa.Table, flag_col: str, final_schema, frag_schema):
    if len(tab) == 0 or flag_col not in tab.schema.names:
        return final_schema.empty_table(), frag_schema.empty_table()
    import pyarrow.compute as pc

    mask = tab[flag_col]
    return (
        tab.filter(pc.invert(mask)).select(final_schema.names),
        tab.filter(mask).select(frag_schema.names),
    )


def split_final_and_frags(emitted, flag_col: str, final_schema, frag_schema):
    """Materialized (rows + bool flag) output -> (ref-backed final
    Dataset, driver-side fragments DataFrame) in ONE pass of per-block
    tasks — the boolean-flag sibling of ``split_edges_and_bridges``
    (same rationale: the two dataset executions it replaces each paid a
    streaming-executor startup, a fixed serial cost per execution)."""
    refs = emitted.to_arrow_refs()
    if not refs:
        return (
            ray.data.from_arrow(final_schema.empty_table()),
            frag_schema.empty_table().to_pandas(),
        )
    out = [
        _split_flag_block.remote(r, flag_col, final_schema, frag_schema)
        for r in refs
    ]
    frags = pa.concat_tables(ray.get([f for _, f in out])).to_pandas()
    return ray.data.from_arrow_refs([e for e, _ in out]), frags


def bridge_split(want_bridge: bool, cols: list[str]):
    """Batch filter routing the bridge-stitch convention shared by every
    bucket-emission stage (flagship edges, all-pairs buckets, substring
    anchors): rows with ``bridge_key != 0`` are bucket fragments shipped
    to the driver stitch; rows with 0 are in-batch results. ONE helper
    so a change to the sentinel scheme cannot silently miss a stage (r3
    review finding)."""

    def f(t: pa.Table) -> pa.Table:
        bkv = t["bridge_key"].to_numpy(zero_copy_only=False)
        mask = (bkv != 0) if want_bridge else (bkv == 0)
        return t.filter(pa.array(mask)).select(cols)

    return f


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
    SAME rule for every caller, so bucket fragments and stitches agree).
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
    *,
    batch_size: int | None = None,
):
    """rows(key_cols..., id_col) -> ALL distinct pairs (a < b) per
    bucket, capped at ``cap`` members (over-cap buckets dropped).

    Star edges (bucket_edges) guarantee CONNECTIVITY for union-find at
    |m|-1 edges per bucket; pair-LISTING operators (near-dup pair
    reports, Hamming/ cosine verification surfaces) need every
    qualifying pair: a bucket {x, v, w} with only (v, w) truly similar
    would lose that pair behind the star center. Pairs per bucket are
    O(m^2) but m <= cap. Buckets split across batch boundaries are
    reassembled exactly: edge fragments ship their member lists (<= 2
    per batch) to a tiny driver stitch that emits the cross-fragment
    pairs; the downstream (a, b) dedupe collapses duplicates."""
    keyed = ds.map_batches(
        lambda t: _combine_keys(t, key_cols, id_col), batch_format="pyarrow"
    )

    def emit(batch: pa.Table) -> pa.Table:
        keys = batch["bkey"].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        n = len(keys)
        empty = {
            "a": pa.array([], type=pa.int64()),
            "b": pa.array([], type=pa.int64()),
            "bridge_key": pa.array([], type=pa.int64()),
        }
        if n == 0:
            return pa.table(empty)
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(keys[1:], keys[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        sizes = np.diff(np.append(starts, n))
        nseg = len(starts)
        a, b = segment_all_pairs(ids, starts, sizes, (sizes > 1) & (sizes <= cap))
        # bridge rows: every member of the batch's first and last
        # segment (potential split fragments), if the fragment is
        # within cap; EVERY boundary fragment also ships one size
        # MARKER row (b = -1, a = fragment size) so the stitch can
        # enforce the cap on the REASSEMBLED total even when an
        # over-cap fragment's members never shipped
        bridge_idx = [0] if nseg == 1 else [0, nseg - 1]
        bk_list, bm_list, bside = [], [], []
        for gi in bridge_idx:
            if sizes[gi] <= cap:
                bm_list.append(ids[starts[gi] : starts[gi] + sizes[gi]])
                bside.append(ids[starts[gi] : starts[gi] + sizes[gi]])
                bk_list.append(np.full(sizes[gi], keys[starts[gi]], dtype=np.int64))
            bm_list.append(np.array([sizes[gi]], dtype=np.int64))
            bside.append(np.array([-1], dtype=np.int64))
            bk_list.append(np.array([keys[starts[gi]]], dtype=np.int64))
        bk = np.concatenate(bk_list) if bk_list else np.empty(0, dtype=np.int64)
        bm = np.concatenate(bm_list) if bm_list else np.empty(0, dtype=np.int64)
        bs = np.concatenate(bside) if bside else np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "a": pa.array(np.concatenate([a, bm]), type=pa.int64()),
                "b": pa.array(np.concatenate([b, bs]), type=pa.int64()),
                "bridge_key": pa.array(
                    np.concatenate([np.zeros(len(a), dtype=np.int64), bk]),
                    type=pa.int64(),
                ),
            }
        )

    emitted = (
        keyed.sort("bkey")
        .map_batches(emit, batch_format="pyarrow", batch_size=batch_size)
        .materialize()
    )

    edges, bridges = split_edges_and_bridges(
        emitted, ["a", "b"], ["a", "b", "bridge_key"]
    )
    if len(bridges):
        extra_a, extra_b = [], []
        for _, grp in bridges.groupby("bridge_key"):
            av = grp["a"].to_numpy(dtype=np.int64)
            bv = grp["b"].to_numpy(dtype=np.int64)
            markers = bv == -1
            # true reassembled size = sum of fragment-size markers (the
            # over-cap fragments counted even though their members
            # never shipped)
            if av[markers].sum() > cap:
                continue
            members = np.unique(av[~markers])
            if len(members) < 2:
                continue
            i, j = np.triu_indices(len(members), 1)
            extra_a.append(members[i])
            extra_b.append(members[j])
        if extra_a:
            extra_df = pd.DataFrame(
                {
                    "a": np.concatenate(extra_a),
                    "b": np.concatenate(extra_b),
                }
            ).drop_duplicates()
            # arrow block, matching the main edge stream (a pandas block
            # in the union trips the downstream block-type assertion)
            edges = edges.union(
                ray.data.from_arrow(
                    pa.Table.from_pandas(extra_df, preserve_index=False)
                )
            )
    return edges


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
        change = np.empty(len(a), dtype=bool)
        change[0] = True
        change[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        starts = np.flatnonzero(change)
        cols = [a[starts], b[starts]]
        if count:
            if weight is None:
                cols.append(np.diff(np.append(starts, len(a))))
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
    its raw SIZE (the D3 cap). Two grouped aggregates (the distinct
    count comes from grouping (key, source) pairs first), then a
    broadcast anti-filter with the small ambiguous-key list.

    ``ds`` is consumed twice (census + anti-filter) without
    materializing (it is corpus-sized); its lineage must be
    deterministic across executions — materialize limit/sample inputs
    first (see stages/bloom.filter_unseen for the failure mode)."""
    import ray

    pairs = ds.groupby([key_col, source_col]).aggregate(Count(alias_name="__n"))
    distinct = pairs.groupby(key_col).aggregate(Count(alias_name="n_sources"))
    amb = distinct.filter(expr=f"n_sources > {max_sources}").to_pandas()
    if len(amb) == 0:
        return ds
    keys = np.sort(amb[key_col].to_numpy())
    kref = ray.put(keys)

    def drop(t: pa.Table) -> pa.Table:
        from metacache_mpi_ray.stages.verify import lookup_sorted

        k = ray.get(kref)
        vals = t[key_col].to_numpy(zero_copy_only=False)
        _, found = lookup_sorted(k, vals)
        return t.filter(pa.array(~found))

    return ds.map_batches(drop, batch_format="pyarrow")


def bucket_stats(ds, key_cols: list[str]):
    """Feature-frequency census (analog of A8: the distributed
    feature-count census that costs ~230 lines of MPI in the reference,
    /root/reference/src/mode_build.cpp:847-1074 — here one groupby)."""
    return ds.groupby(key_cols).aggregate(Count(alias_name="bucket_size"))
