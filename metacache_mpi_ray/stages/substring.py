"""Exact long-match substring dedup — the analog of the reference's
semi-global alignment verification stage (/root/reference/src/
alignment.h:52-299, used at classification.cpp:77-103): after sketch-
based candidates, an exact character-level check confirms real overlap.

Two layers:

1. ``anchor_candidates`` — corpus-wide: every doc emits sampled exact
   ``anchor_len``-char anchors (keep a window's rolling hash when
   ``hash % anchor_mod == 0`` — winnowing-style deterministic sampling);
   bucketing on the anchor hash (``bucket_edges``) yields docs sharing
   an exact span, star-edges like the LSH stage. Because the anchor is an exact
   64-char substring, a shared key IS an exact long match (up to 64-bit
   hash collision, same risk class as the reference's feature hash).

2. ``cluster_lcs_report`` — per-cluster exact refinement: the longest
   common substring of each member against the cluster representative
   via the ``lcs_len_hashed`` binary-search rolling-hash kernel,
   dispatched as one hash exchange on ``cluster_id`` (the suffix-array
   machinery below remains as the cross-check oracle).

``scored_substring_edges`` (the contiguous-run scorer) and
``cluster_lcs_report`` run every keyed step on
``functions/blocks.hash_exchange``: each reduce sees its key groups
whole, so no stage range-sorts or stitches boundary fragments.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.functions.blocks import hash_exchange
from metacache_mpi_ray.functions.hashing import U64
from metacache_mpi_ray.stages.candidates import (
    bucket_edges,
    dedupe_edges,
    run_bounds,
    segment_all_pairs,
)


def host_of_url_arrow(col):
    """Vectorized url -> host (authority); rows without a scheme fall
    back to the whole string (the documents-table adapter uses doc_id
    strings as urls)."""
    import pyarrow.compute as pc

    ex = pc.extract_regex(
        col,
        # authority minus userinfo and port: DNS hosts are
        # case-insensitive and userinfo/port must not split a host into
        # several "distinct sources" for the D4 count
        pattern=r"^[a-zA-Z][a-zA-Z0-9+.\-]*://(?:[^/?#@]*@)?(?P<h>[^/?#:]+)",
    )
    host = pc.struct_field(ex, "h")
    return pc.utf8_lower(pc.if_else(pc.is_valid(host), host, col))


def anchor_rows(
    cfg: DedupConfig, *, include_host: bool = False, include_pos: bool = False
):
    """map_batches fn: docs -> (anchor_hash:int64, doc_id:int64
    [, host][, pos]) rows.

    Fully vectorized over the batch: one shingle pass (width anchor_len)
    straight from the Arrow string buffer, winnowing-style selection
    (hash % anchor_mod == 0), then per-doc dedup via lexsort.
    ``include_host`` adds the doc's url host per row for the D4
    ambiguity filter (boilerplate spans shared across many hosts);
    ``include_pos`` adds each anchor's window position (one row per
    (doc, hash) keeping its SMALLEST position) for the contiguous-run
    scorer — one emitter for both shapes, so the kernels cannot
    drift apart (round-3 review)."""
    from metacache_mpi_ray.functions.hashing import (
        arrow_string_buffer,
        shingle_hashes_from_buffer,
    )

    L, mod = cfg.anchor_len, cfg.anchor_mod

    def emit(batch: pa.Table) -> pa.Table:
        data, starts, ends = arrow_string_buffer(batch["norm_text"])
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        lens = ends - starts
        long_enough = lens >= L
        cols = {"anchor_hash": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.int64())}
        if include_host:
            cols["host"] = pa.array([], type=pa.string())
        if include_pos:
            cols["pos"] = pa.array([], type=pa.int64())
        empty = pa.table(cols)
        if not long_enough.any():
            return empty
        h, offsets = shingle_hashes_from_buffer(data, starts, ends, L, cfg.seed + 1)
        # a row shorter than L has no anchor: drop its whole-text hash
        counts = np.diff(offsets)
        h = h[np.repeat(long_enough, counts)]
        counts = np.where(long_enough, counts, 0)
        src_row = np.repeat(np.arange(len(ids)), counts)
        doc_of = ids[src_row]
        pos_all = (
            np.arange(len(h), dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
            if include_pos
            else None
        )
        sel = h % U64(mod) == 0
        if not sel.any():
            return empty
        hs, ds, rows_sel = h[sel], doc_of[sel], src_row[sel]
        ps = pos_all[sel] if include_pos else None
        # dedup (doc, hash) pairs: lexsort + adjacent-compare; with
        # positions, the smallest position per pair sorts (and stays)
        # first
        order = (
            np.lexsort((ps, hs, ds)) if include_pos else np.lexsort((hs, ds))
        )
        hs, ds, rows_sel = hs[order], ds[order], rows_sel[order]
        if include_pos:
            ps = ps[order]
        keep = np.empty(len(hs), dtype=bool)
        keep[0] = True
        keep[1:] = (hs[1:] != hs[:-1]) | (ds[1:] != ds[:-1])
        hh = (hs[keep] >> np.uint64(1)).astype(np.int64)
        # 0 -> 1 (a 2^-63 event): 0 was once a sentinel; the fold stays
        # so anchor keys, like band keys, keep their earlier values
        hh[hh == 0] = 1
        out = {
            "anchor_hash": pa.array(hh),
            "doc_id": pa.array(ds[keep], type=pa.int64()),
        }
        if include_host:
            hosts = host_of_url_arrow(batch["url"])
            if isinstance(hosts, pa.ChunkedArray):
                hosts = hosts.combine_chunks()
            out["host"] = hosts.take(pa.array(rows_sel[keep]))
        if include_pos:
            out["pos"] = pa.array(ps[keep], type=pa.int64())
        return pa.table(out)

    return emit


def anchor_candidates(
    docs,
    cfg: DedupConfig | None = None,
    *,
    num_partitions: int = 16,
    max_hosts: int | None = None,
):
    """docs -> (a, b, n_bands_hit) edges of docs sharing >=1 exact anchor.

    ``n_bands_hit`` here counts shared sampled anchors — a proxy for
    shared-span length (each anchor covers anchor_len chars, sampled at
    ~1/anchor_mod density). ``max_hosts`` engages the D4 ambiguity
    filter: anchors appearing on more than that many distinct url hosts
    are boilerplate (navigation, footers) and are removed BEFORE the
    bucket shuffle, mirroring sketch_database.h:428-470."""
    cfg = cfg or DedupConfig()
    rows = docs.map_batches(
        anchor_rows(cfg, include_host=max_hosts is not None),
        batch_format="pyarrow",
    )
    if max_hosts is not None:
        from metacache_mpi_ray.stages.candidates import ambiguity_filter

        rows = ambiguity_filter(rows, "anchor_hash", "host", max_hosts)
        rows = rows.select_columns(["anchor_hash", "doc_id"])
    edges = bucket_edges(
        rows, key_cols=["anchor_hash"], id_col="doc_id",
        cap=cfg.bucket_cap, num_partitions=num_partitions,
    )
    return dedupe_edges(edges, num_partitions=num_partitions)


def substring_dup_edges(docs, cfg: DedupConfig | None = None, **kw):
    """Edges whose shared exact span is plausibly >= min_match_len.

    Anchors survive winnowing at density ~1/anchor_mod, so a truly
    shared span of min_match_len chars yields on expectation
    E = (min_match_len - anchor_len) / anchor_mod shared anchors; the
    filter requires >= max(1, E // 4) — recall-safe against a 4x
    shortfall of the sampling (P[X < E/4] is negligible for E >= 8)
    while still rejecting pairs sharing only a few boilerplate anchors
    when E is large. (Round-3 review: the old divisor used anchor_len,
    which over-required anchors for sparse anchor_mod configs.)"""
    cfg = cfg or DedupConfig()
    need = max(1, (cfg.min_match_len - cfg.anchor_len) // (cfg.anchor_mod * 4))
    edges = anchor_candidates(docs, cfg, **kw)
    return edges.filter(expr=f"n_bands_hit >= {need}")


# ---------------------------------------------------------------------------
# A1 full analog: contiguous positional-anchor runs -> shared-span estimate
# ---------------------------------------------------------------------------

def positional_anchor_rows(cfg: DedupConfig):
    """docs -> (anchor_hash, doc_id, pos) rows: ``anchor_rows`` with the
    window position the contiguous-run scorer needs
    (/root/reference/src/candidates.h:118-180 scores hits inside a
    bounded window RANGE, not hit counts). One (doc_id, anchor_hash)
    keeps its smallest position."""
    return anchor_rows(cfg, include_pos=True)


_PAIR_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("diag", pa.int64()), ("pos_a", pa.int64())]
)


def _bucket_pairs(pair_cap: int):
    """Reduce over whole anchor buckets: (anchor_hash, doc_id, pos) ->
    (a, b, diag, pos_a), all pairs of each bucket; a bucket larger than
    ``pair_cap`` pairs up its ``pair_cap`` smallest-splitmix64(id)
    members (``segment_all_pairs``'s deterministic sample)."""

    def reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PAIR_SCHEMA.empty_table()
        keys = t["anchor_hash"].to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        ids = t["doc_id"].to_numpy(zero_copy_only=False)[order]
        pos = t["pos"].to_numpy(zero_copy_only=False)[order]
        starts, sizes = run_bounds(keys[order])
        a, b, ea, eb = segment_all_pairs(
            ids, starts, sizes, sizes > 1, extra=pos, sample_cap=pair_cap
        )
        return pa.Table.from_arrays([a, b, ea - eb, ea], schema=_PAIR_SCHEMA)

    return reduce


def _diagonal_runs(anchor_len: int, max_gap: int, min_match_len: int):
    """Reduce over whole (a, b) pairs: (a, b, diag, pos_a) -> (a, b,
    est_span). Per diagonal, positions split into runs at gaps above
    ``max_gap``; a run spans last - first + ``anchor_len`` chars; each
    pair keeps its longest run if it reaches ``min_match_len``."""
    schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("est_span", pa.int64())])

    def reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        a, b, d, p = (
            t[c].to_numpy(zero_copy_only=False) for c in ("a", "b", "diag", "pos_a")
        )
        order = np.lexsort((p, d, b, a))
        a, b, d, p = a[order], b[order], d[order], p[order]
        brk = np.zeros(len(a), dtype=bool)
        brk[run_bounds(a, b, d)[0]] = True
        brk[1:] |= (p[1:] - p[:-1]) > max_gap
        first = np.flatnonzero(brk)
        last = np.append(first[1:], len(a)) - 1
        span = p[last] - p[first] + anchor_len
        pair_starts, _ = run_bounds(a[first], b[first])
        best = np.maximum.reduceat(span, pair_starts)
        ok = best >= min_match_len
        firsts = first[pair_starts[ok]]
        return pa.Table.from_arrays([a[firsts], b[firsts], best[ok]], schema=schema)

    return reduce


def scored_substring_edges(
    docs,
    cfg: DedupConfig | None = None,
    *,
    num_partitions: int = 16,
    pair_cap: int = 16,
    max_gap: int | None = None,
):
    """Candidate pairs scored by the longest CONTIGUOUS anchor run on a
    shared diagonal (pos_a - pos_b constant): est_span ≈ the longest
    exactly-shared region — the precision upgrade over the count-based
    ``substring_dup_edges`` heuristic. Returns (a, b, est_span) with
    est_span >= cfg.min_match_len.

    Two hash exchanges over ``num_partitions`` partitions: anchors key
    on ``anchor_hash`` (all pairs per whole bucket), then pairs key on
    (a, b), whose reduce scores gap-split runs per diagonal and keeps
    each pair's longest.
    """
    cfg = cfg or DedupConfig()
    if max_gap is None:
        # anchors sample ~1/anchor_mod of positions; a gap beyond
        # anchor_len + 8*mod positions inside a truly shared region has
        # probability (1-1/mod)^gap ~ e^-8 — treat as a region break
        max_gap = cfg.anchor_len + 8 * cfg.anchor_mod
    rows = docs.map_batches(positional_anchor_rows(cfg), batch_format="pyarrow")
    pairs = hash_exchange(
        rows, ["anchor_hash"], _bucket_pairs(pair_cap), num_partitions=num_partitions
    )
    return hash_exchange(
        pairs,
        ["a", "b"],
        _diagonal_runs(cfg.anchor_len, max_gap, cfg.min_match_len),
        num_partitions=num_partitions,
    )


# ---------------------------------------------------------------------------
# suffix array (prefix doubling) + per-cluster longest common substring
# ---------------------------------------------------------------------------

def suffix_array(s: np.ndarray) -> np.ndarray:
    """Suffix array of a uint8/int array via prefix doubling, O(n log n)
    numpy (argsort per round)."""
    n = len(s)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = np.asarray(s, dtype=np.int64)
    sa = np.argsort(rank, kind="stable")
    k = 1
    tmp = np.empty(n, dtype=np.int64)
    while True:
        # key = (rank[i], rank[i+k] or -1)
        second = np.full(n, -1, dtype=np.int64)
        second[: n - k] = rank[k:]
        order = np.lexsort((second, rank))
        sa = order
        # recompute ranks
        tmp[sa[0]] = 0
        prev_key = (rank[sa[:-1]], second[sa[:-1]])
        cur_key = (rank[sa[1:]], second[sa[1:]])
        newgrp = (cur_key[0] != prev_key[0]) | (cur_key[1] != prev_key[1])
        tmp[sa[1:]] = np.cumsum(newgrp)
        rank = tmp.copy()
        if rank[sa[-1]] == n - 1:
            break
        k *= 2
    return sa


def lcp_array(s: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """Kasai LCP array (linear, small Python loop — used only inside
    per-cluster map_groups where n = cluster text size, bounded)."""
    n = len(s)
    rank = np.empty(n, dtype=np.int64)
    rank[sa] = np.arange(n)
    lcp = np.zeros(n, dtype=np.int64)
    h = 0
    sl = s.tolist()
    for i in range(n):
        r = rank[i]
        if r > 0:
            j = sa[r - 1]
            while i + h < n and j + h < n and sl[i + h] == sl[j + h]:
                h += 1
            lcp[r] = h
            if h:
                h -= 1
        else:
            h = 0
    return lcp


def longest_common_substring_len(a: bytes, b: bytes) -> int:
    """Length of the longest exact common substring of a and b (suffix
    array + LCP over the separated concatenation)."""
    if not a or not b:
        return 0
    # separators outside byte range avoided by mapping to int16 with sentinels
    arr = np.concatenate(
        [
            np.frombuffer(a, dtype=np.uint8).astype(np.int64) + 2,
            [1],
            np.frombuffer(b, dtype=np.uint8).astype(np.int64) + 2,
        ]
    )
    sa = suffix_array(arr)
    lcp = lcp_array(arr, sa)
    na = len(a)
    side_a = sa < na  # suffix starts in a (sentinel at na is neither side)
    side_b = sa > na
    best = 0
    for r in range(1, len(sa)):
        if (side_a[r] and side_b[r - 1]) or (side_b[r] and side_a[r - 1]):
            if lcp[r] > best:
                best = int(lcp[r])
    return best


def lcs_len_hashed(a: bytes, b: bytes, seed: int = 0) -> int:
    """Length of the longest exact common substring via binary search on
    the match length with vectorized rolling-hash window sets:
    a common substring of length L exists iff the L-gram hash sets of a
    and b intersect (monotone in L), so O((n+m) log min(n,m)) numpy
    passes replace the per-suffix Python loops of the suffix-array path.
    64-bit fmix hashes; collision probability ~ (n*m)/2^64 per probe —
    the same risk class as the engine's feature hashes.
    """
    from metacache_mpi_ray.functions.hashing import rolling_shingle_hashes

    if not a or not b:
        return 0
    ua = np.frombuffer(a, dtype=np.uint8)
    ub = np.frombuffer(b, dtype=np.uint8)
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        ha = rolling_shingle_hashes(ua, mid, seed)
        hb = rolling_shingle_hashes(ub, mid, seed)
        if np.intersect1d(ha, hb).size:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _lcs_rows_for_cluster(
    cluster_id: int,
    doc_ids: np.ndarray,
    texts: list[str],
    min_cluster: int,
    max_members: int,
):
    """(cluster_id, doc_id, lcs_with_rep) rows for one complete cluster
    whose members arrive doc_id-sorted: LCS of the representative (min
    doc_id) against each of the first ``max_members`` members."""
    if len(doc_ids) < min_cluster:
        return [], [], []
    m = min(len(doc_ids), max_members)
    rep_text = texts[0].encode("utf-8")
    out_c, out_d, out_l = [], [], []
    for i in range(1, m):
        out_c.append(int(cluster_id))
        out_d.append(int(doc_ids[i]))
        out_l.append(lcs_len_hashed(rep_text, texts[i].encode("utf-8")))
    return out_c, out_d, out_l


def _cluster_heads(head: int):
    """The ``head`` smallest-doc_id rows of each cluster, sorted by
    (cluster_id, doc_id) — the exchange's combine, and the reduce's
    first step: a cluster's global head lies inside the union of its
    per-block heads, so truncating map-side is exact."""

    def kernel(t: pa.Table) -> pa.Table:
        cl = t["cluster_id"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, cl))
        starts, sizes = run_bounds(cl[order])
        rank = np.arange(len(order)) - np.repeat(starts, sizes)
        return t.take(pa.array(order[rank < head]))

    return kernel


def cluster_lcs_report(
    docs_with_clusters,
    *,
    min_cluster: int = 2,
    max_members: int = 16,
):
    """Longest common substring between each cluster's representative
    (min doc_id) and its first ``max_members`` members — per-cluster
    exact refinement.

    One ``hash_exchange`` on ``cluster_id`` over
    ``joins.default_num_partitions()`` partitions: the map-side combine
    keeps each cluster's ``max(max_members, min_cluster)`` smallest-
    doc_id rows per block (enough to check ``min_cluster`` and score
    ``max_members``), so a huge cluster does not ship all its text; the
    reduce sees each cluster's head whole. Per-pair LCS cost is the
    ``lcs_len_hashed`` kernel."""
    from metacache_mpi_ray.stages.joins import default_num_partitions

    heads = _cluster_heads(max(max_members, min_cluster))
    schema = pa.schema(
        [("cluster_id", pa.int64()), ("doc_id", pa.int64()),
         ("lcs_with_rep", pa.int64())]
    )

    def reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        t = heads(t)
        cl = t["cluster_id"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["norm_text"].to_pylist()
        out_c, out_d, out_l = [], [], []
        for s, z in zip(*run_bounds(cl)):
            c, d_, l_ = _lcs_rows_for_cluster(
                cl[s], ids[s : s + z], texts[s : s + z], min_cluster, max_members
            )
            out_c.extend(c)
            out_d.extend(d_)
            out_l.extend(l_)
        return pa.Table.from_arrays(
            [pa.array(v, type=pa.int64()) for v in (out_c, out_d, out_l)],
            schema=schema,
        )

    return hash_exchange(
        docs_with_clusters.select_columns(["cluster_id", "doc_id", "norm_text"]),
        ["cluster_id"],
        reduce,
        num_partitions=default_num_partitions(),
        combine=heads,
    )
