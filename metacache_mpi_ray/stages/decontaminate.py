"""Benchmark decontamination: token-n-gram overlap against an eval set.

A training corpus must not contain verbatim passages from the
benchmarks it will be evaluated on, so large-scale pipelines remove
every document sharing an n-token gram with the held-out set (the
GPT-3/PaLM-style 13-gram rule; we default to n=5 so small test corpora
actually overlap). Structurally this is the reference's clade-exclusion
anti-filter (/root/reference/src/classification.cpp:141-183: drop hits
whose key appears in an excluded set) with a token n-gram as the key,
and it reuses the repo's broadcast-vs-join auto switch:

* the benchmark's distinct gram hashes are tiny by construction
  (benchmarks are ~1e5 docs even when the corpus is 1e12), so the
  default path assembles them OFF-driver into one sorted u64 array,
  broadcast once via the object store, and every corpus batch does a
  vectorized ``searchsorted`` membership test — no shuffle at all;
* when the gram table outgrows the object store the same semantics run
  as two keyed exchanges (functions/blocks.hash_exchange): exploded
  ``(doc_id, gram)`` rows meet the distinct benchmark grams on the gram
  key and count hits per document, then the hit counts meet the
  documents on the document key.

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

import ray

from metacache_mpi_ray.functions.blocks import assemble_sorted_i64, hash_exchange
from metacache_mpi_ray.functions.hashing import (
    U64,
    _pow_seq,
    _shingle_base,
    arrow_string_buffer,
    doc_hashes_from_buffer,
    murmur3_fmix64,
)
from metacache_mpi_ray.stages.corpus_clean import _is_in_sorted
from metacache_mpi_ray.stages.verify import lookup_sorted

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
_HITS = pa.schema([("doc_id", pa.int64()), ("n_hits", pa.int64())])
_FLAGS = _HITS.append(pa.field("is_contaminated", pa.int64()))


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
    from metacache_mpi_ray.stages.joins import default_num_partitions

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
    strategy: str = "auto",
    broadcast_limit: int = 256 << 20,
    num_partitions: int | None = None,
    seed: int = DECON_SEED,
):
    """Flag or drop corpus docs sharing any n-token gram with ``bench``.

    ``mode='flag'`` returns (doc_id, n_hits, is_contaminated) where
    ``n_hits`` counts gram POSITIONS of the doc whose gram occurs
    anywhere in the benchmark (is_contaminated = n_hits > 0, as int64
    for oracle-compare stability). ``mode='filter'`` returns the input
    rows of clean documents unchanged.

    ``strategy``: 'broadcast' ships the sorted benchmark gram array
    (assembled off-driver from block refs); 'join' explodes corpus
    grams, matches them against the distinct benchmark grams in one
    exchange on the gram and sums the hits onto the docs in one
    exchange on the doc id; 'auto' picks by benchmark gram count x 8 bytes vs
    ``broadcast_limit``.
    """
    if mode not in ("flag", "filter"):
        raise ValueError(f"mode must be 'flag' or 'filter', got {mode!r}")
    if strategy not in ("auto", "broadcast", "join"):
        raise ValueError(
            f"strategy must be 'auto', 'broadcast' or 'join', got {strategy!r}"
        )

    def zero_flags(t: pa.Table) -> pa.Table:
        z = np.zeros(len(t), dtype=np.int64)
        return pa.table(
            {
                "doc_id": t[id_col].cast(pa.int64()),
                "n_hits": pa.array(z, type=pa.int64()),
                "is_contaminated": pa.array(z, type=pa.int64()),
            }
        )

    bg = benchmark_grams(bench, n=n, text_col=text_col, seed=seed)
    n_grams = bg.count()

    if n_grams == 0:
        # empty benchmark: nothing is contaminated
        if mode == "filter":
            return docs
        return docs.map_batches(zero_flags, batch_format="pyarrow")

    if strategy == "broadcast" or (
        strategy == "auto" and n_grams * 8 <= broadcast_limit
    ):
        gram_ref = assemble_sorted_i64(bg, "g")

        def score(t: pa.Table) -> pa.Table:
            h, row = _batch_grams(t, text_col, n, seed)
            grams = ray.get(gram_ref)  # zero-copy shared-memory read
            hit = _is_in_sorted(grams, h.view(np.int64))
            n_hits = np.bincount(row[hit], minlength=len(t)).astype(np.int64)
            if mode == "filter":
                return t.filter(pa.array(n_hits == 0))
            return pa.table(
                {
                    "doc_id": t[id_col].cast(pa.int64()),
                    "n_hits": pa.array(n_hits, type=pa.int64()),
                    "is_contaminated": pa.array(
                        (n_hits > 0).astype(np.int64), type=pa.int64()
                    ),
                }
            )

        return docs.map_batches(score, batch_format="pyarrow")

    # ---- join path: exploded corpus grams x distinct benchmark grams
    from metacache_mpi_ray.stages.joins import default_num_partitions

    if num_partitions is None:
        num_partitions = default_num_partitions(minimum=2)

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h, row = _batch_grams(t, text_col, n, seed)
        return pa.table(
            {
                "doc_id": pa.array(ids[row], type=pa.int64()),
                "g": pa.array(h.view(np.int64), type=pa.int64()),
            }
        )

    def hits_per_doc(cg: pa.Table, grams: pa.Table) -> pa.Table:
        """This gram partition's hit count per doc (a doc's grams spread
        over every partition, so these are partial counts)."""
        if cg.num_rows == 0 or grams.num_rows == 0:
            return _HITS.empty_table()
        hit = _is_in_sorted(
            np.sort(grams["g"].to_numpy(zero_copy_only=False)),
            cg["g"].to_numpy(zero_copy_only=False),
        )
        ids, cnt = np.unique(
            cg["doc_id"].to_numpy(zero_copy_only=False)[hit], return_counts=True
        )
        return pa.table([ids, cnt.astype(np.int64)], schema=_HITS)

    hits = hash_exchange(
        [docs.map_batches(explode, batch_format="pyarrow"), bg],
        ["g"],
        hits_per_doc,
        num_partitions=num_partitions,
    )

    # the hit counts meet the documents on the document key: the reduce
    # sums each doc's partial counts and left-joins them onto its rows
    def doc_hits(d: pa.Table, h: pa.Table, key: str) -> np.ndarray:
        ids = d[key].to_numpy(zero_copy_only=False).astype(np.int64)
        out = np.zeros(len(ids), dtype=np.int64)
        if h.num_rows:
            hit_ids, inv = np.unique(h[key].to_numpy(), return_inverse=True)
            total = np.bincount(inv, weights=h["n_hits"].to_numpy()).astype(np.int64)
            pos, found = lookup_sorted(hit_ids, ids)
            out[found] = total[pos[found]]
        return out

    if mode == "filter":
        # filter keeps the caller's rows and id column name
        def clean_rows(d: pa.Table, h: pa.Table) -> pa.Table:
            if d.num_rows == 0:
                return d
            return d.filter(pa.array(doc_hits(d, h, id_col) == 0))

        return hash_exchange(
            [docs, hits.rename_columns({"doc_id": id_col})],
            [id_col],
            clean_rows,
            num_partitions=num_partitions,
        )

    def ids_only(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t[id_col].cast(pa.int64())})

    def flags(d: pa.Table, h: pa.Table) -> pa.Table:
        if d.num_rows == 0:
            return _FLAGS.empty_table()
        nh = doc_hits(d, h, "doc_id")
        return pa.table(
            {
                "doc_id": d["doc_id"],
                "n_hits": pa.array(nh, type=pa.int64()),
                "is_contaminated": pa.array((nh > 0).astype(np.int64), type=pa.int64()),
            }
        )

    return hash_exchange(
        [docs.map_batches(ids_only, batch_format="pyarrow"), hits],
        ["doc_id"],
        flags,
        num_partitions=num_partitions,
    )
