"""Candidate-pair verification — the analog of the reference's
hit-counting / top-k candidate filter (/root/reference/src/candidates.h:
118-289): LSH gives candidates, a similarity check keeps real ones.

One step, ``pair_score``, verifies candidate pairs for every caller: the
flagship graph and ``build_index`` call it over their shard refs
(``pipelines/dedup._score_graph``), and three thin Dataset adapters
drive it through ``_verify_core``:

* ``verify_edges`` — MinHash: the fraction of agreeing signature values
  estimates Jaccard (sigma ~= sqrt(s(1-s)/n_perms) ~= 0.044 at 128
  perms); pairs with ``est_sim >= cfg.verify_threshold`` (threshold
  minus a noise margin) survive.
* ``verify_pairs_payload`` — any fixed-width per-id payload (SimHash
  values, embedding vectors) with a caller-supplied scorer.
* ``verify_edges_exact_jaccard`` — exact n-gram Jaccard over each doc's
  unique shingle set.

With P shards, the step takes edge pieces split by the shard of ``a``
and payload-table pieces split by the shard of their id (both by
``functions/blocks.split_by_key``, so an id names one shard on both
sides; ``_verify_core`` splits with ``blocks.split_blocks``, the split
half of ``hash_exchange``):

1. pair task q: every copy of a pair shares its ``a``, so dropping
   duplicate (a, b) rows here is exact (LSH emits a pair once per
   agreeing band, and a payload per raw edge measured >50 GB of spill
   at 4M docs). It packs only the payload rows its ``a`` ids need,
   attaches them as ``pay_a`` and splits the pairs by the shard of
   ``b``;
2. score task r: packs the rows of the payload pieces of shard r that
   its ``b`` ids need and keeps the pairs ``score`` accepts. Neither
   task concatenates or returns a payload shard: each payload row is
   stored once, in its piece (the reference reads every candidate's
   sketch from its rank's one shard, sketch_database.h:540).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.functions.blocks import (
    returned_refs,
    split_blocks,
    split_by_key,
    task_returns,
)
from metacache_mpi_ray.stages.candidates import distinct_pairs
from metacache_mpi_ray.stages.signatures import sig_from_arrow

_PAYLOAD = pa.schema([("doc_id", pa.int64()), ("payload", pa.large_binary())])
_U64 = np.dtype(np.uint64)


def lookup_sorted(sorted_ids: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions, found_mask) of ``ids`` in ``sorted_ids``; positions
    are clamped so callers can gather safely and must mask by ``found``
    — verify_edges is a public API and may be handed edges whose
    endpoints are absent from the signature set."""
    if len(sorted_ids) == 0:
        return np.zeros(len(ids), dtype=np.int64), np.zeros(len(ids), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_ids, ids), len(sorted_ids) - 1)
    return pos, sorted_ids[pos] == ids


def _ids(t: pa.Table, col: str) -> np.ndarray:
    return t[col].to_numpy(zero_copy_only=False).astype(np.int64)


def _column(pieces, col: str) -> np.ndarray:
    parts = [_ids(t, col) for t in pieces if t.num_rows]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _payload_of(pieces, id_col: str, pack, ids: np.ndarray):
    """(found mask, payload of each found id) for ``ids``: ``pack`` runs
    on only the rows of each payload piece whose id is among them."""
    found = np.zeros(len(ids), dtype=bool)
    if len(ids) == 0:
        return found, pa.nulls(0)
    want = np.unique(ids)
    packed = []
    for t in pieces:
        if t.num_rows:
            _, need = lookup_sorted(want, _ids(t, id_col))
            if need.any():
                packed.append(pack(t.filter(pa.array(need))))
    packed = [t for t in packed if t.num_rows]
    if not packed:
        return found, pa.nulls(0)
    packed = pa.concat_tables(packed)
    pid = _ids(packed, "doc_id")
    order = np.argsort(pid)
    pos, found = lookup_sorted(pid[order], ids)
    return found, packed["payload"].take(order[pos[found]])


@ray.remote
def _pair_task(pack, id_col: str, shards: int, n_edges: int, *pieces):
    """Pair task q: edge pieces whose ``a`` is in shard q, then payload
    pieces of shard q -> the distinct pairs with ``pay_a`` attached,
    split by the shard of ``b``."""
    edges = pieces[:n_edges]
    a, b = distinct_pairs(_column(edges, "a"), _column(edges, "b"))
    found, pay = _payload_of(pieces[n_edges:], id_col, pack, a)
    rows = pa.table(
        {
            "a": pa.array(a[found], type=pa.int64()),
            "b": pa.array(b[found], type=pa.int64()),
            "pay_a": pay,
        }
    )
    return task_returns(split_by_key(rows, ["b"], shards))


@ray.remote(num_returns=2)
def _score_task(pack, score, id_col: str, schema: pa.Schema, n_pairs: int, *refs):
    """Score task r: pieces of (a, b, pay_a) whose ``b`` is in shard r,
    then payload pieces of shard r -> (the kept (a, b, value) rows,
    their count)."""
    parts = [t for t in refs[:n_pairs] if t.num_rows]
    if not parts:
        return schema.empty_table(), 0
    pairs = pa.concat_tables(parts)
    b = _ids(pairs, "b")
    found, pay_b = _payload_of(refs[n_pairs:], id_col, pack, b)
    if not found.any():
        return schema.empty_table(), 0
    pay_a = pairs["pay_a"] if found.all() else pairs["pay_a"].filter(pa.array(found))
    vals, keep = score(pay_a, pay_b)
    out = pa.table(
        [_ids(pairs, "a")[found][keep], b[found][keep], vals[keep]], schema=schema
    )
    return out, out.num_rows


def pair_score(
    edge_pieces,
    payload_pieces,
    *,
    id_col: str,
    pack,
    score,
    value_col: str,
    value_type,
):
    """The verify step over refs. ``edge_pieces[q]`` holds the refs of
    the edge pieces (a, b, ...) whose ``a`` is in shard q and
    ``payload_pieces[q]`` those of the payload-table rows whose
    ``id_col`` is in shard q -> (scored refs, scored count refs), one of
    each per shard. A scored block holds one (a, b, ``value_col``) row
    per distinct pair that ``score`` keeps. Pair task q and score task q
    both read the payload pieces of shard q, so no task holds a shard
    whole.

    ``pack(table) -> Table(doc_id int64, payload)`` turns rows of the
    payload table into one payload value per id (any Arrow type; it may
    drop rows); ``score(pay_a, pay_b) -> (values, keep)`` scores aligned
    payload columns. Contract: ONE payload row per id. Endpoints without
    one drop their edges."""
    shards = len(edge_pieces)
    out_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), (value_col, value_type)])
    pair = _pair_task.options(num_returns=shards)
    pairs = [
        returned_refs(
            pair.remote(pack, id_col, shards, len(edge_pieces[q]), *edge_pieces[q],
                        *payload_pieces[q]),
            shards,
        )
        for q in range(shards)
    ]
    scored = [
        _score_task.remote(
            pack, score, id_col, out_schema, shards, *[pr[r] for pr in pairs],
            *payload_pieces[r],
        )
        for r in range(shards)
    ]
    return [s[0] for s in scored], [s[1] for s in scored]


def _verify_core(
    edges,
    table,
    *,
    id_col: str,
    pack,
    score,
    value_col: str,
    value_type,
    num_partitions: int,
):
    """edges(a, b, ...) x ``table`` -> (a, b, ``value_col``): the verify
    step (``pair_score``) over both datasets' blocks, one output block
    per shard."""
    shards = max(1, int(num_partitions))
    scored, _ = pair_score(
        split_blocks(edges, ["a"], shards),
        split_blocks(table, [id_col], shards),
        id_col=id_col,
        pack=pack,
        score=score,
        value_col=value_col,
        value_type=value_type,
    )
    return rd.from_arrow_refs(scored)


def _binary_offsets(col) -> tuple[pa.Array, np.ndarray]:
    """(combined array, int64 value offsets) of a binary/large_binary
    column, honoring the array's slice offset."""
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
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
    num_partitions: int = 16,
):
    """Pair verification against one fixed-width payload row per id
    (SimHash values, embedding vectors).

    ``extract(batch) -> (ids int64, payload 2D ndarray)`` pulls the
    payload rows out of a ``table`` batch (it may drop rows, e.g. null
    embeddings); rows ship packed as ``payload_dtype`` and ``score(pa,
    pb) -> (values ndarray, keep bool mask)`` scores the aligned
    unpacked matrices. One row per distinct surviving pair
    (``pair_score``)."""
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


def sig_payload(sigs: pa.Table) -> pa.Table:
    """Signature rows -> the verify step's (doc_id, payload) rows, each
    ``sig`` packed as one fixed-width value (Arrow takes and filters
    packed binary rows ~2.5x faster than fixed-size lists)."""
    return _pack_fixed(_ids(sigs, "doc_id"), sig_from_arrow(sigs["sig"]), _U64)


def sig_scores(col_a, col_b, threshold: float):
    """``minhash_scores`` over two aligned ``sig_payload`` columns."""
    return minhash_scores(_unpack_fixed(col_a, _U64), _unpack_fixed(col_b, _U64), threshold)


def verify_edges(
    edges,
    signatures,
    cfg: DedupConfig,
    num_partitions: int = 32,
    *,
    strategy: str = "auto",
):
    """edges(a, b, ...) x signatures(doc_id, sig) -> (a, b, est_sim) for
    distinct pairs whose estimated Jaccard clears the verification
    threshold: the flagship's verify step with its pack and score.
    ``strategy`` accepts only ``"auto"`` (there is one verify step)."""
    if strategy != "auto":
        raise ValueError(f"strategy must be 'auto', got {strategy!r}")
    return _verify_core(
        edges,
        signatures.select_columns(["doc_id", "sig"]),
        id_col="doc_id",
        pack=sig_payload,
        score=partial(sig_scores, threshold=cfg.verify_threshold),
        value_col="est_sim",
        value_type=pa.float64(),
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
    num_partitions: int = 16,
):
    """Exact n-gram Jaccard verification of candidate pairs — the
    precision-grade alternative to MinHash-estimated verification.
    Shingle sets (``shingle_sets``) are built only for the docs whose
    ids the verify step's tasks need; scoring is one lexsort + reduct
    per task (``_jaccard_batch``)."""
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
        num_partitions=num_partitions,
    )
