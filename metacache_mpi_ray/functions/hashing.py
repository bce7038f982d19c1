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


def _span_terms(span: np.ndarray, seed: int, out: np.ndarray) -> int:
    """``out[i] = (span[i]+1) * B^i`` for the polynomial hash with the
    base of ``seed``; returns B^-1."""
    b, binv = _shingle_base(seed)
    with np.errstate(over="ignore"):
        np.add(span, U64(1), out=out, dtype=U64)
        np.multiply(out, _pow_seq(b, len(span)), out=out)
    return binv


def _span_prefix(span: np.ndarray, seed: int) -> tuple[np.ndarray, int]:
    """(S, B^-1) for position-normalized polynomial hashing over ``span``:
    S[0] = 0, S[i+1] = S[i] + (span[i]+1) * B^i, built in one array."""
    prefix = np.empty(len(span) + 1, dtype=U64)
    prefix[0] = 0
    binv = _span_terms(span, seed, prefix[1:])
    np.cumsum(prefix[1:], out=prefix[1:])
    return prefix, binv


def _whole_hashes(sums: np.ndarray, binv: int, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Whole-text hash of the rows ``[s, e)`` of a span, from each row's
    sum of ``(b+1) * B^j`` over its span positions j: the full-string
    polynomial (scaled back by ``B^-s``), the length
    folded in (so "a" vs "a\0"-style prefixes differ), fmix64."""
    inv = _pow_seq(binv, int(s.max()) + 1 if len(s) else 1)
    with np.errstate(over="ignore"):
        vals = sums * inv[s]
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
    over the rows' byte span ``[min(starts), max(ends))`` only: a sliced
    Arrow array never hashes its parent's other bytes. Contiguous rows
    (``starts[1:] == ends[:-1]``, as Arrow offsets are) sum their terms
    with one ``np.add.reduceat``; other rows difference one prefix."""
    if len(starts) == 0:
        return np.empty(0, dtype=U64)
    if not np.array_equal(starts[1:], ends[:-1]):
        lo = int(starts.min())
        prefix, binv = _span_prefix(data[lo : int(ends.max())], seed)
        s, e = starts - lo, ends - lo
        with np.errstate(over="ignore"):
            return _whole_hashes(prefix[e] - prefix[s], binv, s, e)
    lo = int(starts[0])
    s, e = starts - lo, ends - lo
    # one zero term past the span: an empty last row's start is in range
    terms = np.empty(int(e[-1]) + 1, dtype=U64)
    terms[-1] = 0
    binv = _span_terms(data[lo : int(ends[-1])], seed, terms[:-1])
    sums = np.add.reduceat(terms, s)
    sums[s == e] = 0  # reduceat gives an empty row terms[s]
    return _whole_hashes(sums, binv, s, e)


def window_hashes(
    data: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    k: int,
    seed: int = 0,
    *,
    finalize: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every k-byte window of the contiguous rows ``[starts, ends)``
    (``starts[1:] == ends[:-1]``, as Arrow offsets are), hashed once
    over their span ``[starts[0], ends[-1])`` (``_window_sums``).

    Returns ``(vals, segments, short, whole)``: ``vals[i]`` hashes the
    window starting at span byte ``i``; the windows run in ``2 * nrows``
    segments of ``segments`` lengths, each row's own windows and then
    those that cross its end (``np.repeat`` over them labels every
    window; the last segments run past ``len(vals)``); ``short`` lists
    the rows shorter than ``k`` (no window of their own) and ``whole``
    their whole-text hashes (``doc_hashes_from_buffer``)."""
    if not np.array_equal(starts[1:], ends[:-1]):
        raise ValueError("shingle hashing needs contiguous rows")
    vals = _window_sums(data[int(starts[0]) : int(ends[-1])], k, seed)
    if finalize:
        _fmix64_inplace(vals)
    lens = ends - starts
    segments = np.empty(2 * len(lens), dtype=np.int64)
    segments[0::2] = np.maximum(lens - k + 1, 0)
    segments[1::2] = lens - segments[0::2]
    short = np.flatnonzero(lens < k)
    return vals, segments, short, doc_hashes_from_buffer(data, starts[short], ends[short], seed)


def _window_sums(span: np.ndarray, k: int, seed: int) -> np.ndarray:
    """``sum_{j<k} (span[i+j]+1) * B^j`` for every window start ``i``:
    the prefix form's ``(S[i+k] - S[i]) * B^-i``, mod 2**64, built by
    doubling instead (``W_2h[i] = W_h[i] + W_h[i+h] * B^h``, the set
    bits of k joined the same way) — a few vectorized passes instead of
    a sequential cumsum."""
    n = len(span)
    if n < k:
        return np.empty(0, dtype=U64)
    b, _ = _shingle_base(seed)
    w = np.add(span, U64(1), dtype=U64)  # W_h on [0, n - h]
    tmp = np.empty(n, dtype=U64)
    acc, m, h = None, 0, 1  # acc = W_m on [0, n - m]
    with np.errstate(over="ignore"):
        while True:
            if k & h:
                if acc is None:
                    acc = w[: n - h + 1] if h == k else w[: n - h + 1].copy()
                else:
                    size = n - m - h + 1
                    np.multiply(w[m : m + size], U64(pow(b, m, 1 << 64)), out=tmp[:size])
                    acc = acc[:size]
                    acc += tmp[:size]
                m += h
            if 2 * h > k:
                return acc
            size = n - 2 * h + 1
            np.multiply(w[h : h + size], U64(pow(b, h, 1 << 64)), out=tmp[:size])
            w[:size] += tmp[:size]
            h *= 2


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
    rows). The rows must be contiguous (``window_hashes``); the windows
    that cross a row end are dropped.
    """
    if len(starts) == 0:
        return np.empty(0, dtype=U64), np.zeros(1, dtype=np.int64)
    vals, segments, short, whole = window_hashes(
        data, starts, ends, k, seed, finalize=finalize
    )
    keep = np.repeat(np.arange(len(segments)) % 2 == 0, segments)[: len(vals)]
    n_shingles = segments[0::2]
    if len(short) == 0:
        return vals[keep], np.concatenate([[0], np.cumsum(n_shingles)])
    offsets = np.concatenate([[0], np.cumsum(np.maximum(n_shingles, 1))])
    out = np.empty(offsets[-1], dtype=U64)
    fill = np.ones(len(out), dtype=bool)
    fill[offsets[short]] = False
    out[fill] = vals[keep]
    out[offsets[short]] = whole
    return out, offsets


def minhash_perm_constants(n_perms: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) constants for n_perms independent affine u64 permutations."""
    a = splitmix64(np.arange(n_perms, dtype=U64) + U64((seed * 2 + 1) & 0xFFFFFFFFFFFFFFFF)) | U64(1)
    b = splitmix64(np.arange(n_perms, dtype=U64) + U64((seed * 2 + 2) & 0xFFFFFFFFFFFFFFFF))
    return a, b
