"""Candidate-pair verification — the analog of the reference's
hit-counting / top-k candidate filter (/root/reference/src/candidates.h:
118-289): LSH gives candidates, a similarity check keeps real ones.

One core (``_verify_core``) serves three thin adapters:

* ``verify_edges`` — MinHash: the fraction of agreeing signature values
  estimates Jaccard (sigma ~= sqrt(s(1-s)/n_perms) ~= 0.044 at 128
  perms); pairs with ``est_sim >= cfg.verify_threshold`` (threshold
  minus a noise margin) survive.
* ``verify_pairs_payload`` — any fixed-width per-id payload (SimHash
  values, embedding vectors) with a caller-supplied scorer.
* ``verify_edges_exact_jaccard`` — exact n-gram Jaccard over each doc's
  unique shingle set.

Every adapter packs its payload as ONE ``large_binary`` value per id, so
both strategies below hand the same scorer the same Arrow types. The
core always reduces the edges to distinct (a, b) pairs first (LSH emits
a pair once per agreeing band, and the join path would otherwise ship a
payload row per raw edge — measured >50 GB of spill at 4M docs),
filters the payload table to the edge endpoints once, materializes it,
and then picks a strategy by the filtered payload's BYTES (block
metadata):

* ``broadcast`` — the subset fits ``broadcast_bytes_limit``: one task
  assembles the id-sorted subset off-driver, its return object is the
  broadcast, and edges score in map_batches with a searchsorted lookup
  (the broadcast-small-side join pattern, SURVEY.md §2.4 J2).
* ``join`` — scale fallback past the limit: two two-input
  ``hash_exchange`` calls move the distinct edges against the same
  filtered blocks. The first is keyed on ``a`` and attaches ``pay_a``;
  the second is keyed on ``b``, attaches ``pay_b`` and scores. Each
  reduce looks its edges up in its id-sorted payload piece.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.functions.blocks import hash_exchange
from metacache_mpi_ray.stages.signatures import sig_from_arrow

_PAYLOAD = pa.schema([("doc_id", pa.int64()), ("payload", pa.large_binary())])


def lookup_sorted(sorted_ids: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions, found_mask) of ``ids`` in ``sorted_ids``; positions
    are clamped so callers can gather safely and must mask by ``found``
    — verify_edges is a public API and may be handed edges whose
    endpoints are absent from the signature set."""
    if len(sorted_ids) == 0:
        return np.zeros(len(ids), dtype=np.int64), np.zeros(len(ids), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_ids, ids), len(sorted_ids) - 1)
    return pos, sorted_ids[pos] == ids


def filter_to_ids(id_col: str, wanted_ref):
    """map_batches fn: keep rows whose ``id_col`` is in the broadcast
    sorted id array ``wanted_ref`` (ray.put once, read per task)."""

    def pick(batch: pa.Table) -> pa.Table:
        w = ray.get(wanted_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        _, found = lookup_sorted(w, ids)
        return batch.filter(pa.array(found))

    return pick


@ray.remote
def _block_edge_ids(t):
    """Per-block unique endpoint ids (parallel pre-contraction before
    the serial merge)."""
    if len(t) == 0:  # empty blocks can arrive schema-less
        return np.empty(0, dtype=np.int64)
    return np.unique(
        np.concatenate(
            [
                t["a"].to_numpy(zero_copy_only=False),
                t["b"].to_numpy(zero_copy_only=False),
            ]
        )
    )


@ray.remote
def _assemble_edge_ids(*parts):
    """Sorted unique edge-endpoint ids from per-block unique arrays —
    the merge touches the contracted id sets, not the raw edge bytes,
    and nothing crosses the driver heap."""
    parts = [p for p in parts if len(p)]
    return np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)


@ray.remote
def _assemble_payload(*tabs):
    """(id-sorted ids, payload large_binary array) from the filtered,
    packed blocks — built off-driver in ONE task; the task's return
    object IS the broadcast. The caller only broadcasts a non-empty
    side."""
    t = pa.concat_tables([x for x in tabs if len(x)])  # empties may lack a schema
    ids = t["doc_id"].to_numpy()
    order = np.argsort(ids)
    return ids[order], t["payload"].take(order).combine_chunks()


def _verify_core(
    edges,
    table,
    *,
    id_col: str,
    pack,
    score,
    value_col: str,
    value_type,
    strategy: str,
    broadcast_bytes_limit: int,
    num_partitions: int,
):
    """Shared verify path: edges(a, b, ...) x ``table`` -> (a, b,
    ``value_col``), one row per distinct pair that ``score`` keeps.

    ``pack(batch) -> Table(doc_id int64, payload large_binary)`` turns
    the endpoint-filtered rows of ``table`` (id column ``id_col``) into
    one packed payload per id; ``score(pay_a, pay_b) -> (values, keep)``
    scores aligned large_binary arrays. Contract: ONE payload per id —
    the sorted-id lookups of both paths assume it. Endpoints without
    a payload row drop their edges.

    ``strategy``: ``auto`` broadcasts when the filtered payload's bytes
    fit ``broadcast_bytes_limit``, else joins; ``broadcast`` / ``join``
    force a path. Both paths score the same distinct pairs against the
    same materialized blocks, so their outputs are identical."""
    from metacache_mpi_ray.stages.candidates import unique_pairs

    def rows(a, b, vals) -> pa.Table:
        return pa.table(
            {
                "a": pa.array(a, type=pa.int64()),
                "b": pa.array(b, type=pa.int64()),
                value_col: pa.array(vals, type=value_type),
            }
        )

    empty = rows([], [], [])

    def scored(a, b, pay_a, pay_b) -> pa.Table:
        if len(a) == 0:
            return empty
        vals, keep = score(pay_a, pay_b)
        return rows(a[keep], b[keep], vals[keep])

    # distinct pairs on EVERY path: scores depend only on the two
    # payloads, so multiplicity is pure cost
    edges = unique_pairs(edges, num_partitions)
    wanted_ref = _assemble_edge_ids.remote(
        *[_block_edge_ids.remote(r) for r in edges.to_arrow_refs()]
    )

    def pack_rows(batch: pa.Table) -> pa.Table:
        return pack(batch) if len(batch) else _PAYLOAD.empty_table()

    # materialized ONCE: the broadcast assembly or both exchanges read
    # these blocks (Ray Data has no cross-branch CSE)
    side = (
        table.map_batches(filter_to_ids(id_col, wanted_ref), batch_format="pyarrow")
        .map_batches(pack_rows, batch_format="pyarrow")
        .materialize()
    )
    if side.count() == 0:
        # no edges, or edges whose endpoints are all absent from the
        # table: every edge drops
        return rd.from_arrow(empty)

    if strategy == "broadcast" or (
        strategy == "auto" and side.size_bytes() <= broadcast_bytes_limit
    ):
        lookup_ref = _assemble_payload.remote(*side.to_arrow_refs())

        def score_b(batch: pa.Table) -> pa.Table:
            ids_s, pay = ray.get(lookup_ref)
            a = batch["a"].to_numpy(zero_copy_only=False)
            b = batch["b"].to_numpy(zero_copy_only=False)
            ia, fa = lookup_sorted(ids_s, a)
            ib, fb = lookup_sorted(ids_s, b)
            found = fa & fb
            return scored(a[found], b[found], pay.take(ia[found]), pay.take(ib[found]))

        return edges.map_batches(score_b, batch_format="pyarrow")

    def attach(e: pa.Table, s: pa.Table, key: str, pay: str):
        """This partition's edges whose ``key`` endpoint has a payload
        row in its piece of side, with that payload as column ``pay``."""
        if e.num_rows == 0 or s.num_rows == 0:
            return None
        ids = s[key].to_numpy(zero_copy_only=False)
        order = np.argsort(ids)
        pos, found = lookup_sorted(ids[order], e[key].to_numpy(zero_copy_only=False))
        return e.filter(pa.array(found)).append_column(
            pay, s[pay].take(order[pos[found]])
        )

    with_pay_a = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("pay_a", pa.large_binary())])

    def join_a(e: pa.Table, s: pa.Table) -> pa.Table:
        j = attach(e, s, "a", "pay_a")
        return with_pay_a.empty_table() if j is None else j.select(with_pay_a.names)

    def join_b_score(e: pa.Table, s: pa.Table) -> pa.Table:
        j = attach(e, s, "b", "pay_b")
        if j is None:
            return empty
        a = j["a"].to_numpy(zero_copy_only=False)
        b = j["b"].to_numpy(zero_copy_only=False)
        return scored(a, b, j["pay_a"], j["pay_b"])

    sa = side.rename_columns({"doc_id": "a", "payload": "pay_a"})
    sb = side.rename_columns({"doc_id": "b", "payload": "pay_b"})
    j = hash_exchange([edges, sa], ["a"], join_a, num_partitions=num_partitions)
    return hash_exchange([j, sb], ["b"], join_b_score, num_partitions=num_partitions)


def _binary_offsets(col) -> tuple[pa.Array, np.ndarray]:
    """(combined array, int64 value offsets) of a binary/large_binary
    column, honoring the array's slice offset."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    off_dt = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    offs = np.frombuffer(col.buffers()[1], dtype=off_dt)[
        col.offset : col.offset + len(col) + 1
    ]
    return col, offs.astype(np.int64)


def _pack_fixed(ids: np.ndarray, pay: np.ndarray, dtype: np.dtype) -> pa.Table:
    """(ids, (n, w) payload matrix) -> Table(doc_id, payload) with each
    row's w values packed as one fixed-width large_binary value."""
    n, w = pay.shape
    if n == 0 or w == 0:
        # extractors report width 0 for empty/all-null blocks; a
        # zero-width row carries nothing to score
        return _PAYLOAD.empty_table()
    row = w * dtype.itemsize
    flat = np.ascontiguousarray(pay, dtype=dtype).view(np.uint8).reshape(-1)
    offs = np.arange(0, (n + 1) * row, row, dtype=np.int64)
    bin_col = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n, [None, pa.py_buffer(offs), pa.py_buffer(flat)]
    )
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()), "payload": bin_col})


def _unpack_fixed(col, dtype: np.dtype) -> np.ndarray:
    """Packed fixed-width column -> (n, w) matrix. Rows are tightly
    packed (``_pack_fixed`` wrote them; Arrow take/concat preserve dense
    value layout), so the value bytes are one view."""
    col, offs = _binary_offsets(col)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    seg = np.ascontiguousarray(data[offs[0] : offs[-1]])
    return seg.view(dtype).reshape(len(col), -1)


def verify_pairs_payload(
    edges,
    table,
    *,
    id_col: str,
    extract,
    score,
    value_col: str,
    value_type=None,
    payload_dtype,
    strategy: str = "auto",
    broadcast_bytes_limit: int = 2 << 30,
    num_partitions: int = 16,
):
    """Pair verification against one fixed-width payload row per id
    (MinHash signatures, SimHash values, embedding vectors).

    ``extract(batch) -> (ids int64, payload 2D ndarray)`` pulls the
    payload rows out of a ``table`` batch (it may drop rows, e.g. null
    embeddings); rows ship packed as ``payload_dtype`` and ``score(pa,
    pb) -> (values ndarray, keep bool mask)`` scores the aligned
    unpacked matrices. Strategy and multiplicity semantics are the
    core's (``_verify_core``): one row per distinct surviving pair."""
    dtype = np.dtype(payload_dtype)

    def pack(batch: pa.Table) -> pa.Table:
        return _pack_fixed(*extract(batch), dtype)

    def score_packed(col_a, col_b):
        return score(_unpack_fixed(col_a, dtype), _unpack_fixed(col_b, dtype))

    return _verify_core(
        edges,
        table,
        id_col=id_col,
        pack=pack,
        score=score_packed,
        value_col=value_col,
        value_type=value_type or pa.float64(),
        strategy=strategy,
        broadcast_bytes_limit=broadcast_bytes_limit,
        num_partitions=num_partitions,
    )


def minhash_scores(sa: np.ndarray, sb: np.ndarray, threshold: float):
    """(est_sim, keep) of aligned (n, n_perms) signature matrices: the
    fraction of agreeing values estimates Jaccard, and a pair is kept
    when it reaches ``threshold``. The one scoring rule of
    ``verify_edges``, the flagship's score task and the daily batch's
    verify task."""
    est = (sa == sb).mean(axis=1)
    return est, est >= threshold


def verify_edges(
    edges,
    signatures,
    cfg: DedupConfig,
    num_partitions: int = 32,
    *,
    strategy: str = "auto",
    broadcast_bytes_limit: int = 2 << 30,
):
    """edges(a, b, ...) x signatures(doc_id, sig) -> (a, b, est_sim) for
    distinct pairs whose estimated Jaccard clears the verification
    threshold."""

    def extract(batch: pa.Table):
        return batch["doc_id"].to_numpy(zero_copy_only=False), sig_from_arrow(batch["sig"])

    return verify_pairs_payload(
        edges,
        signatures.select_columns(["doc_id", "sig"]),
        id_col="doc_id",
        extract=extract,
        score=partial(minhash_scores, threshold=cfg.verify_threshold),
        value_col="est_sim",
        payload_dtype=np.uint64,
        strategy=strategy,
        broadcast_bytes_limit=broadcast_bytes_limit,
        num_partitions=num_partitions,
    )


def _jaccard_batch(
    va: np.ndarray, la: np.ndarray, vb: np.ndarray, lb: np.ndarray
) -> np.ndarray:
    """Exact Jaccard per aligned set pair, fully vectorized: each side's
    values are unique within a set, so in the per-edge sorted merge of
    both sides every adjacent duplicate is one cross-side match —
    |A∩B| per edge falls out of one lexsort + reduct, no per-edge
    Python."""
    nedges = len(la)
    vals = np.concatenate([va, vb])
    tags = np.concatenate(
        [np.repeat(np.arange(nedges, dtype=np.int64), la),
         np.repeat(np.arange(nedges, dtype=np.int64), lb)]
    )
    order = np.lexsort((vals, tags))
    v, g = vals[order], tags[order]
    dup = np.zeros(len(v), dtype=np.int64)
    if len(v) > 1:
        dup[1:] = ((v[1:] == v[:-1]) & (g[1:] == g[:-1])).astype(np.int64)
    inter = np.bincount(g, weights=dup, minlength=nedges).astype(np.int64)
    union = la + lb - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 0.0)


def shingle_sets(batch: pa.Table, cfg: DedupConfig) -> pa.Table:
    """docs batch (doc_id, norm_text) -> Table(doc_id, payload) with each
    doc's UNIQUE sorted shingle hashes packed as one large_binary value
    (u64 little-endian) — the exact-Jaccard payload."""
    from metacache_mpi_ray.functions.hashing import (
        arrow_string_buffer,
        shingle_hashes_from_buffer,
    )

    data, starts, ends = arrow_string_buffer(batch["norm_text"])
    h, offs = shingle_hashes_from_buffer(data, starts, ends, cfg.shingle_k, cfg.seed)
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    n = len(ids)
    # per-doc unique+sort without a per-doc loop: sort (doc, hash)
    # pairs, drop adjacent dups, rebuild offsets
    doc_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
    order = np.lexsort((h, doc_of))
    hs, ds_ = h[order], doc_of[order]
    keep = np.empty(len(hs), dtype=bool)
    if len(hs):
        keep[0] = True
        keep[1:] = (hs[1:] != hs[:-1]) | (ds_[1:] != ds_[:-1])
    hs, ds_ = hs[keep], ds_[keep]
    counts = np.bincount(ds_, minlength=n)
    byte_offs = np.concatenate([[0], np.cumsum(counts)]) * 8
    bin_col = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n,
        [None,
         pa.py_buffer(byte_offs.astype(np.int64).tobytes()),
         pa.py_buffer(hs.tobytes())],
    )
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()), "payload": bin_col})


def _unpack_bin_u64(col) -> tuple[np.ndarray, np.ndarray]:
    """Packed binary column -> (flat u64 values, per-row lengths)."""
    col, boffs = _binary_offsets(col)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    flat = np.ascontiguousarray(data[boffs[0] : boffs[-1]]).view(np.uint64)
    return flat, np.diff(boffs) // 8


def verify_edges_exact_jaccard(
    edges,
    docs,
    cfg: DedupConfig,
    *,
    strategy: str = "auto",
    broadcast_bytes_limit: int = 2 << 30,
    num_partitions: int = 16,
):
    """Exact n-gram Jaccard verification of candidate pairs — the
    precision-grade alternative to MinHash-estimated verification.
    ``docs(doc_id, norm_text)`` is filtered to the edge endpoints first,
    so shingle sets (``shingle_sets``) are built only for those docs;
    scoring is one lexsort + reduct per edge batch
    (``_jaccard_batch``)."""
    thresh = cfg.sim_threshold

    def score(col_a, col_b):
        va, la = _unpack_bin_u64(col_a)
        vb, lb = _unpack_bin_u64(col_b)
        sims = _jaccard_batch(va, la, vb, lb)
        return sims, sims >= thresh

    return _verify_core(
        edges,
        docs.select_columns(["doc_id", "norm_text"]),
        id_col="doc_id",
        pack=partial(shingle_sets, cfg=cfg),
        score=score,
        value_col="jaccard",
        value_type=pa.float64(),
        strategy=strategy,
        broadcast_bytes_limit=broadcast_bytes_limit,
        num_partitions=num_partitions,
    )
