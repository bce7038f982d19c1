"""Vectorized 64-bit integer hashing kernels (NumPy, wraparound uint64).

The reference uses a small family of integer mixers (thomas_mueller,
murmur3 fmix, splitmix-style; /root/reference/src/hash_int.h:39-181) as
its k-mer -> feature hash. We use the public splitmix64 / murmur3
fmix64 finalizers, vectorized over uint64 numpy arrays. All arithmetic
is modulo 2**64 (numpy unsigned wraparound), fully deterministic across
platforms.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64

_SM_GAMMA = U64(0x9E3779B97F4A7C15)
_SM_M1 = U64(0xBF58476D1CE4E5B9)
_SM_M2 = U64(0x94D049BB133111EB)
_FM_M1 = U64(0xFF51AFD7ED558CCD)
_FM_M2 = U64(0xC4CEB9FE1A85EC53)

_S30, _S27, _S31, _S33 = U64(30), U64(27), U64(31), U64(33)


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """splitmix64 finalizer (public constants), vectorized."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=U64) + _SM_GAMMA
        z = (z ^ (z >> _S30)) * _SM_M1
        z = (z ^ (z >> _S27)) * _SM_M2
        return z ^ (z >> _S31)


def murmur3_fmix64(x: np.ndarray | int) -> np.ndarray:
    """murmur3 64-bit finalizer (cf. reference hash_int.h:66-74), vectorized."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=U64)
        z = (z ^ (z >> _S33)) * _FM_M1
        z = (z ^ (z >> _S33)) * _FM_M2
        return z ^ (z >> _S33)


def mix2(a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
    """Combine two u64 hash streams into one (order-sensitive)."""
    return murmur3_fmix64(np.asarray(a, dtype=U64) ^ splitmix64(b))


def hash_str_column(strings, seed: int = 0) -> np.ndarray:
    """Vectorized u64 hash of a column of strings / bytes.

    Used for stable ids (doc_id = hash(url)) and content hashes
    (text_hash). Delegates to pandas' vectorized stable string hash
    (siphash, fixed key) then re-mixes with the seed — deterministic
    across runs and processes.
    """
    import pandas as pd
    from pandas.util import hash_pandas_object

    s = pd.Series(list(strings), dtype="object")
    base = hash_pandas_object(s, index=False, categorize=False).to_numpy(dtype=U64)
    return murmur3_fmix64(base ^ splitmix64(U64(seed & 0xFFFFFFFFFFFFFFFF)))


# ---------------------------------------------------------------------------
# Rolling char-shingle hashing — the analog of the reference's 2-bit k-mer
# encoder + integer hash (/root/reference/src/dna_encoding.h:303-348 +
# hash_int.h). Fully vectorized over a concatenated byte buffer.
# ---------------------------------------------------------------------------

def _inv_u64(x: int) -> int:
    """Multiplicative inverse of an odd x modulo 2**64 (Newton iteration)."""
    inv = x  # correct mod 2**3; each step doubles the bits
    for _ in range(6):
        inv = (inv * (2 - x * inv)) & 0xFFFFFFFFFFFFFFFF
    return inv


def _shingle_base(seed: int) -> tuple[int, int]:
    b = int(splitmix64(U64(0xB16B00B5 ^ (seed & 0xFFFFFFFF)))) | 1
    return b, _inv_u64(b)


# grow-on-demand caches of the geometric power sequences (keyed by base):
# amortizes the sequential multiply.accumulate across batches per worker
_POW_CACHE: dict[int, np.ndarray] = {}


def _pow_seq(base: int, n: int) -> np.ndarray:
    """[B^0, B^1, ..., B^(n-1)] mod 2**64, cached and grown on demand."""
    cur = _POW_CACHE.get(base)
    if cur is None or len(cur) < n:
        size = max(n, 1 << 20, 0 if cur is None else 2 * len(cur))
        with np.errstate(over="ignore"):
            seq = np.multiply.accumulate(np.full(size, U64(base)))
        seq = np.concatenate([np.ones(1, dtype=U64), seq[:-1]])
        _POW_CACHE[base] = seq
        cur = seq
    return cur[:n]


def rolling_shingle_hashes(
    buf: np.ndarray, k: int, seed: int = 0, *, finalize: bool = True
) -> np.ndarray:
    """u64 hash of every k-byte window of ``buf`` (uint8 array).

    Returns an array of length ``len(buf) - k + 1`` (empty if shorter).
    Position-normalized polynomial hash computed with prefix sums —
    window [i, i+k) hashes to (S[i+k] - S[i]) * B^-i where
    S[i] = sum_{j<i} (buf[j]+1) * B^j mod 2**64 and B is odd (hence
    invertible mod 2**64). O(n) total, fully vectorized. The +1 keeps
    NUL bytes from annihilating.

    ``finalize=False`` skips the fmix64 output mixing: a bijection, so
    collision structure (and hence Jaccard over shingle sets) is
    identical — the MinHash path skips it since its own (a*h+b)
    permutations re-disperse; key-uniformity consumers (SimHash bit
    votes, anchor sampling) keep it.
    """
    n = buf.shape[0]
    if n < k:
        return np.empty(0, dtype=U64)
    b, binv = _shingle_base(seed)
    with np.errstate(over="ignore"):
        pows = _pow_seq(b, n)
        invpows = _pow_seq(binv, n - k + 1)
        terms = (buf.astype(U64) + U64(1)) * pows
        prefix = np.concatenate([np.zeros(1, dtype=U64), np.cumsum(terms, dtype=U64)])
        vals = (prefix[k:] - prefix[: n - k + 1]) * invpows
    return murmur3_fmix64(vals) if finalize else vals


def concat_shingle_hashes(
    texts: list[bytes], k: int, seed: int = 0, *, finalize: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Shingle-hash a whole batch of documents in one vectorized pass.

    Concatenates all docs into one byte buffer, computes every k-gram
    hash, then masks out windows that span a document boundary. Docs
    shorter than ``k`` contribute a single whole-text hash so that every
    document has at least one shingle (mirrors the reference's handling
    of short windows, /root/reference/src/dna_encoding.h:286-288).

    Returns ``(hashes, offsets)`` where ``offsets`` has length
    ``len(texts)+1`` and doc i's shingles are ``hashes[offsets[i]:offsets[i+1]]``.
    """
    lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=len(texts))
    if len(texts) == 0:
        return np.empty(0, dtype=U64), np.zeros(1, dtype=np.int64)
    buf = np.frombuffer(b"".join(texts), dtype=np.uint8)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    ends = starts + lens
    return shingle_hashes_from_buffer(buf, starts, ends, k, seed, finalize=finalize)


# ---------------------------------------------------------------------------
# Zero-copy Arrow string-column hashing: an Arrow string array already
# stores all row values as one contiguous UTF-8 buffer + offsets, which
# is exactly the layout the batch shingle hasher wants — no to_pylist,
# no per-row encode, no join.
# ---------------------------------------------------------------------------

def arrow_string_buffer(col) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(data_u8, starts, ends) byte ranges per row of an Arrow string col.

    Handles both 32-bit (string/binary) and 64-bit (large_string/
    large_binary) offset layouts — external parquet written with
    large_string would otherwise be silently misread as int32 offsets.
    """
    import pyarrow as pa
    import pyarrow.types as pt

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pt.is_large_string(col.type) or pt.is_large_binary(col.type):
        off_dtype = np.int64
    elif pt.is_string(col.type) or pt.is_binary(col.type):
        off_dtype = np.int32
    else:
        raise TypeError(f"expected a (large_)string/binary column, got {col.type}")
    n = len(col)
    offs = np.frombuffer(col.buffers()[1], dtype=off_dtype)[col.offset : col.offset + n + 1]
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8) if col.buffers()[2] is not None else np.empty(0, np.uint8)
    return data, offs[:-1].astype(np.int64), offs[1:].astype(np.int64)


def _span_prefix(span: np.ndarray, seed: int) -> tuple[np.ndarray, int]:
    """(S, B^-1) for position-normalized polynomial hashing over ``span``:
    S[0] = 0, S[i+1] = S[i] + (span[i]+1) * B^i, built in one array."""
    b, binv = _shingle_base(seed)
    prefix = np.empty(len(span) + 1, dtype=U64)
    prefix[0] = 0
    terms = prefix[1:]
    with np.errstate(over="ignore"):
        np.add(span, U64(1), out=terms, dtype=U64)
        np.multiply(terms, _pow_seq(b, len(span)), out=terms)
        np.cumsum(terms, out=terms)
    return prefix, binv


def _whole_hashes(prefix: np.ndarray, binv: int, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Whole-text hash of the rows ``[s, e)`` of a ``_span_prefix`` span:
    the full-string polynomial, the length folded in (so "a" vs
    "a\0"-style prefixes differ), fmix64."""
    inv = _pow_seq(binv, int(s.max()) + 1 if len(s) else 1)
    with np.errstate(over="ignore"):
        vals = (prefix[e] - prefix[s]) * inv[s]
        vals ^= splitmix64((e - s).astype(U64))
    return murmur3_fmix64(vals)


def _fmix64_inplace(z: np.ndarray) -> None:
    """``z = murmur3_fmix64(z)`` in place, with one scratch array."""
    tmp = np.empty_like(z)
    with np.errstate(over="ignore"):
        for m in (_FM_M1, _FM_M2):
            z ^= np.right_shift(z, _S33, out=tmp)
            z *= m
        z ^= np.right_shift(z, _S33, out=tmp)


def doc_hashes_from_buffer(
    data: np.ndarray, starts: np.ndarray, ends: np.ndarray, seed: int = 0
) -> np.ndarray:
    """One u64 content hash per row (full-string polynomial + fmix),
    from one prefix over the rows' byte span ``[min(starts), max(ends))``
    only: a sliced Arrow array never hashes its parent's other bytes."""
    if len(starts) == 0:
        return np.empty(0, dtype=U64)
    lo = int(starts.min())
    prefix, binv = _span_prefix(data[lo : int(ends.max())], seed)
    return _whole_hashes(prefix, binv, starts - lo, ends - lo)


def shingle_hashes_from_buffer(
    data: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    k: int,
    seed: int = 0,
    *,
    finalize: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch shingle hashing straight from an Arrow string buffer.

    Same output contract as concat_shingle_hashes: (hashes, offsets)
    with >=1 shingle per row (whole-string hash fallback for short
    rows). The rows must be contiguous (``starts[1:] == ends[:-1]``, as
    Arrow offsets are): every k-byte window of their span
    ``[starts[0], ends[-1])`` is hashed once, in place, then the
    windows that cross a row end are dropped; short rows' whole-text
    hashes come from the same prefix.
    """
    nrows = len(starts)
    if nrows == 0:
        return np.empty(0, dtype=U64), np.zeros(1, dtype=np.int64)
    if not np.array_equal(starts[1:], ends[:-1]):
        raise ValueError("shingle_hashes_from_buffer needs contiguous rows")
    lo = int(starts[0])
    prefix, binv = _span_prefix(data[lo : int(ends[-1])], seed)
    s, e = starts - lo, ends - lo
    nw = max(len(prefix) - k, 0)  # windows in the span
    with np.errstate(over="ignore"):
        vals = prefix[k:] - prefix[:nw]
        np.multiply(vals, _pow_seq(binv, nw), out=vals)
    if finalize:
        _fmix64_inplace(vals)
    # window starts in [max(s, e-k+1), e) cross row r's end
    keep = np.ones(nw, dtype=bool)
    cross = e[:, None] - k + 1 + np.arange(k - 1)
    keep[cross[(cross >= s[:, None]) & (cross < nw)]] = False

    n_shingles = np.maximum(e - s - k + 1, 0)
    short = np.flatnonzero(n_shingles == 0)
    if len(short) == 0:
        return vals[keep], np.concatenate([[0], np.cumsum(n_shingles)])
    offsets = np.concatenate([[0], np.cumsum(np.maximum(n_shingles, 1))])
    out = np.empty(offsets[-1], dtype=U64)
    fill = np.ones(len(out), dtype=bool)
    fill[offsets[short]] = False
    out[fill] = vals[keep]
    out[offsets[short]] = _whole_hashes(prefix, binv, s[short], e[short])
    return out, offsets


def minhash_perm_constants(n_perms: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) constants for n_perms independent affine u64 permutations."""
    a = splitmix64(np.arange(n_perms, dtype=U64) + U64((seed * 2 + 1) & 0xFFFFFFFFFFFFFFFF)) | U64(1)
    b = splitmix64(np.arange(n_perms, dtype=U64) + U64((seed * 2 + 2) & 0xFFFFFFFFFFFFFFFF))
    return a, b
