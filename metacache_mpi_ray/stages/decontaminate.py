"""Benchmark decontamination: token-n-gram overlap against an eval set.

A training corpus must not contain verbatim passages from the
benchmarks it will be evaluated on, so large-scale pipelines remove
every document sharing an n-token gram with the held-out set (the
GPT-3/PaLM-style 13-gram rule; we default to n=5 so small test corpora
actually overlap). Structurally this is the reference's clade-exclusion
anti-filter (/root/reference/src/classification.cpp:141-183: drop hits
whose key appears in an excluded set) with a token n-gram as the key:
the benchmark's distinct gram hashes (one keyed exchange) are the key
set of the shared key-set step, ``stages/joins.probe_key_set``, and
each corpus doc's keys are its gram hashes. Benchmarks are small by
construction (~1e5 docs even when the corpus is 1e12), so the gram set
is normally broadcast as one sorted array and probed per batch with no
shuffle; a set past the step's byte bound runs as its two keyed
exchanges instead, with the same answer.

Hashing: each token gets a content hash (zero-copy from the Arrow
buffer), and an n-gram's hash is a position-normalized polynomial over
the n token hashes — the same prefix-sum machinery as the byte-level
shingler (functions/hashing.py), lifted from uint8 symbols to u64
symbols. Gram-hash equality therefore tracks string equality of the
space-joined token window (63+ bit hashes; collisions negligible),
which is what the DuckDB oracle checks string-wise.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from metacache_mpi_ray.functions.blocks import hash_exchange
from metacache_mpi_ray.functions.hashing import (
    U64,
    _pow_seq,
    _shingle_base,
    arrow_string_buffer,
    doc_hashes_from_buffer,
    murmur3_fmix64,
)
from metacache_mpi_ray.stages.joins import default_num_partitions, probe_key_set

DECON_SEED = 67


def token_ngram_hashes(
    tok_flat, sizes: np.ndarray, n: int, seed: int = DECON_SEED
) -> tuple[np.ndarray, np.ndarray]:
    """Hash every n-token gram fully inside a row.

    ``tok_flat`` is an Arrow string array of all tokens in row-major
    order; ``sizes`` is tokens-per-row. Returns ``(gram_hash_u64,
    row_index)`` with one entry per gram POSITION (rows shorter than n
    tokens contribute nothing). One prefix-sum pass over the per-token
    content hashes; grams never span a row boundary by construction of
    the per-row gather.
    """
    nrows = len(sizes)
    empty = (np.empty(0, dtype=U64), np.empty(0, dtype=np.int64))
    if nrows == 0 or len(tok_flat) == 0:
        return empty
    data, starts, ends = arrow_string_buffer(tok_flat)
    th = doc_hashes_from_buffer(data, starts, ends, seed)
    ns = np.maximum(sizes.astype(np.int64) - n + 1, 0)
    total = int(ns.sum())
    if total == 0:
        return empty
    b, binv = _shingle_base(seed + 1)
    m = len(th)
    with np.errstate(over="ignore"):
        pows = _pow_seq(b, m)
        terms = (th + U64(1)) * pows
        prefix = np.concatenate([np.zeros(1, dtype=U64), np.cumsum(terms, dtype=U64)])
        row_idx = np.repeat(np.arange(nrows, dtype=np.int64), ns)
        seg0 = np.cumsum(sizes) - sizes  # first token index per row
        gs = np.cumsum(ns) - ns
        within = np.arange(total, dtype=np.int64) - np.repeat(gs, ns)
        src = seg0[row_idx] + within
        inv = _pow_seq(binv, m)
        vals = (prefix[src + n] - prefix[src]) * inv[src]
    return murmur3_fmix64(vals), row_idx


def _batch_grams(t: pa.Table, text_col: str, n: int, seed: int):
    """(gram_hash u64, row_index) for a batch's text column."""
    col = t[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # null text -> "" (zero tokens, zero grams); without this the null
    # list's NaN length wraps to INT64_MIN and the gram count explodes
    col = pc.fill_null(col, "")
    toks = pc.utf8_split_whitespace(col)
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    sizes = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    return token_ngram_hashes(flat, sizes, n, seed)


_GRAMS = pa.schema([("g", pa.int64())])


def _distinct_grams(t: pa.Table) -> pa.Table:
    if t.num_rows == 0:
        return _GRAMS.empty_table()
    return pa.table({"g": np.unique(t["g"].to_numpy(zero_copy_only=False))}, schema=_GRAMS)


def benchmark_grams(bench, *, n: int = 5, text_col: str = "text", seed: int = DECON_SEED):
    """Dataset of the benchmark's distinct gram hashes: (g:int64).

    Per-batch unique in numpy first, then ONE keyed exchange whose
    combine and reduce keep the distinct grams per key — the benchmark
    side is small, but the shape stays correct if it isn't. Hashes are
    carried as int64 via a bijective u64->i64 view (order differs,
    equality doesn't).
    """

    def partial(t: pa.Table) -> pa.Table:
        h, _ = _batch_grams(t, text_col, n, seed)
        return pa.table({"g": pa.array(h.view(np.int64), type=pa.int64())})

    return hash_exchange(
        bench.map_batches(partial, batch_format="pyarrow"),
        ["g"],
        _distinct_grams,
        num_partitions=default_num_partitions(minimum=2),
        combine=_distinct_grams,
    )


def decontaminate(
    docs,
    bench,
    *,
    n: int = 5,
    mode: str = "flag",
    text_col: str = "text",
    id_col: str = "doc_id",
    seed: int = DECON_SEED,
):
    """Flag or drop corpus docs sharing any n-token gram with ``bench``.

    ``mode='flag'`` returns (doc_id, n_hits, is_contaminated) where
    ``n_hits`` counts gram POSITIONS of the doc whose gram occurs
    anywhere in the benchmark (is_contaminated = n_hits > 0, as int64
    for oracle-compare stability). ``mode='filter'`` returns the input
    rows of clean documents unchanged.

    The distinct benchmark grams are the key set of
    ``joins.probe_key_set``; each doc's keys are its gram hashes.
    """
    if mode not in ("flag", "filter"):
        raise ValueError(f"mode must be 'flag' or 'filter', got {mode!r}")

    def explode(t: pa.Table):
        h, row = _batch_grams(t, text_col, n, seed)
        return h.view(np.int64), row

    def finish(t: pa.Table, row: np.ndarray, hit: np.ndarray) -> pa.Table:
        n_hits = np.bincount(row[hit], minlength=len(t)).astype(np.int64)
        if mode == "filter":
            return t.filter(pa.array(n_hits == 0))
        return pa.table(
            {
                "doc_id": t[id_col].cast(pa.int64()),
                "n_hits": pa.array(n_hits, type=pa.int64()),
                "is_contaminated": pa.array((n_hits > 0).astype(np.int64), type=pa.int64()),
            }
        )

    bg = benchmark_grams(bench, n=n, text_col=text_col, seed=seed)
    return probe_key_set(docs, bg, explode, finish, id_col=id_col)
