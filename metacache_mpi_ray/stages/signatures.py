"""MinHash signature stage — the analog of the reference's sketcher.

Reference: per-window bottom-s sketch of canonical k-mer hashes
(/root/reference/src/hash_dna.h:104-152, k=16 / sketchlen=16,
mode_build.cpp:65-68). Here: per-document MinHash over char-16-gram
shingle hashes of norm-v1 text, one vectorized pass per slice of about
``SIGN_SLICE_BYTES`` of text (``MinHashSigner``):

  1. ``functions/hashing.window_hashes`` hashes every 16-byte window
     of the slice's contiguous byte span once;
  2. OPH (``oph_sign_rows``, the default scheme) scatters every window
     straight into the bin of its top bits in its row, the windows that
     cross a row end into a spare row, puts a row shorter than 16 bytes
     by its whole-text hash, and densifies the rows with an empty bin.
     ``oph_minhash_from_shingles`` gives the same signatures from a
     per-row shingle stream (``shingle_hashes_from_buffer``, which drops
     the crossing windows); ``"kperm"`` runs one ``np.minimum.reduceat``
     pass per affine permutation over that stream
     (``minhash_from_shingles``).

Duplicate shingles need no dedup for plain min-hash (min over a
multiset equals min over its set), unlike the reference's bottom-s
sketch which must keep distinct values (hash_dna.h:130-137).

Permutation constants are built once per signer (``MinHashSigner``),
not per batch (SURVEY.md §2.3 T3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.functions.hashing import (
    U64,
    arrow_string_buffer,
    minhash_perm_constants,
    shingle_hashes_from_buffer,
    window_hashes,
)


def minhash_from_shingles(
    hashes: np.ndarray, offsets: np.ndarray, n_perms: int, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Core kernel: per-doc shingle hash stream -> (ndocs, n_perms) u64
    signatures, one vectorized reduceat pass per permutation."""
    n = len(offsets) - 1
    sig = np.empty((n, n_perms), dtype=U64)
    if n == 0 or len(hashes) == 0:
        return sig
    starts = offsets[:-1]
    buf = np.empty_like(hashes)
    with np.errstate(over="ignore"):
        for p in range(n_perms):
            np.multiply(hashes, a[p], out=buf)
            np.add(buf, b[p], out=buf)
            sig[:, p] = np.minimum.reduceat(buf, starts)
    return sig


_EMPTY_BIN = np.iinfo(np.uint64).max


def _oph_scatter(hashes: np.ndarray, row_keys: np.ndarray, n: int, n_bins: int) -> np.ndarray:
    """(n + 1, n_bins) min hash per (row, bin): ``row_keys[i]`` is hash
    i's row shifted left by log2(n_bins) (row n takes what no row
    keeps), its bin the top log2(n_bins) hash bits; ``row_keys`` becomes
    the scatter key in place. Hashes must be fmix-finalized (uniform);
    n_bins a power of two."""
    lg = int(n_bins).bit_length() - 1
    sig = np.full((n + 1, n_bins), _EMPTY_BIN, dtype=U64)
    row_keys += (hashes >> U64(64 - lg)).view(np.int64)
    np.minimum.at(sig.reshape(-1), row_keys, hashes)  # vectorized scatter-min
    return sig


def _densify(sig: np.ndarray) -> np.ndarray:
    """Rotation densification (Shrivastava & Li 2014) of the rows with
    an empty bin: an empty bin takes the value of the nearest filled bin
    to its left, circularly. Over the doubled column range, a running
    max of "own index if filled" finds it for every column at once (a
    row with no filled bin keeps the sentinel)."""
    n_bins = sig.shape[1]
    filled = sig != _EMPTY_BIN
    rows = np.flatnonzero(~filled.all(axis=1))
    if len(rows) == 0:
        return sig
    cols = np.arange(2 * n_bins, dtype=np.int32)
    src = np.where(np.tile(filled[rows], 2), cols, -1)
    src = np.maximum.accumulate(src, axis=1)[:, n_bins:] & (n_bins - 1)
    sig[rows] = np.take_along_axis(sig[rows], src, axis=1)
    return sig


def oph_minhash_from_shingles(
    hashes: np.ndarray, offsets: np.ndarray, n_bins: int
) -> np.ndarray:
    """One-permutation hashing (Li, Owen, Zhang 2012) with rotation
    densification of a per-doc shingle stream (row i's shingles are
    ``hashes[offsets[i]:offsets[i+1]]``): shingles land in ``n_bins``
    bins by their top hash bits; the signature is the min hash value
    per bin. ONE O(M) scatter over the stream instead of n_perms passes
    — the at-scale scheme. Requires fmix-finalized (uniform) hashes;
    n_bins must be a power of two. ``oph_sign_rows`` is the same
    signature straight from the window hashes."""
    n = len(offsets) - 1
    lg = int(n_bins).bit_length() - 1
    row_keys = np.repeat(np.arange(n, dtype=np.int64) << lg, np.diff(offsets))
    return _densify(_oph_scatter(hashes, row_keys, n, n_bins)[:n])


def oph_sign_rows(
    data: np.ndarray, starts: np.ndarray, ends: np.ndarray, k: int, seed: int, n_bins: int
) -> np.ndarray:
    """OPH signatures of the contiguous rows ``[starts, ends)``, equal to
    ``oph_minhash_from_shingles`` over ``shingle_hashes_from_buffer``'s
    stream without building it: every window keeps its row's key, the
    windows that cross a row end scatter into the spare row, and a row
    shorter than k puts its whole-text hash in its bin."""
    n = len(starts)
    if n == 0:
        return np.empty((0, n_bins), dtype=U64)
    vals, segments, short, whole = window_hashes(data, starts, ends, k, seed)
    lg = int(n_bins).bit_length() - 1
    keys = np.full(2 * n, n << lg, dtype=np.int64)
    keys[0::2] = np.arange(n, dtype=np.int64) << lg
    row_keys = np.repeat(keys, segments)[: len(vals)]
    sig = _oph_scatter(vals, row_keys, n, n_bins)[:n]
    sig[short, whole >> U64(64 - lg)] = whole
    return _densify(sig)


def sign_rows(data, starts, ends, cfg: DedupConfig, a, b) -> np.ndarray:
    """(nrows, n_perms) u64 signatures of the contiguous rows
    ``[starts, ends)`` of one byte buffer."""
    if cfg.minhash_scheme == "oph":
        return oph_sign_rows(data, starts, ends, cfg.shingle_k, cfg.seed, cfg.n_perms)
    # fmix finalization skipped: the (a*h+b) permutations are the
    # dispersal step, and fmix is a bijection (same Jaccard structure)
    hashes, offsets = shingle_hashes_from_buffer(
        data, starts, ends, cfg.shingle_k, cfg.seed, finalize=False
    )
    return minhash_from_shingles(hashes, offsets, cfg.n_perms, a, b)


def minhash_matrix(
    texts: list[bytes], cfg: DedupConfig, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """(ndocs, n_perms) u64 signature matrix for a list of documents
    (the reference path; ``MinHashSigner`` signs Arrow buffers with the
    same kernels)."""
    lens = np.array([len(t) for t in texts], dtype=np.int64)
    ends = np.cumsum(lens)
    data = np.frombuffer(b"".join(texts), dtype=np.uint8)
    return sign_rows(data, ends - lens, ends, cfg, a, b)


_MODP = 1_000_000_007


def modp_perm_constants(n_perms: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Small affine-permutation constants a in [1, p-1], b in [0, p-1]
    for the SQL-reproducible mod-p MinHash variant. Derived from the
    same splitmix64 stream as the production u64 permutations so the
    DuckDB oracle can embed them as literals (int64)."""
    a64, b64 = minhash_perm_constants(n_perms, seed)
    a = (a64 % U64(_MODP - 1)).astype(np.int64) + 1
    b = (b64 % U64(_MODP)).astype(np.int64)
    return a, b


def token_modp_signature_batch(
    batch: pa.Table, n_perms: int = 16, seed: int = 0
) -> pa.Table:
    """SQL-exact MinHash signatures over whitespace tokens: tokens =
    split(text, ' ') (empty tokens kept, matching DuckDB string_split),
    token hash = polynomial hash mod p (base 131), signature value =
    min over tokens of (a_i * x + b_i) — NO modulus on the affine step,
    so a_i, x < p ~ 2^30 keeps every product < 2^60: the exact same
    ``minhash_from_shingles`` kernel the flagship signer uses runs it
    with zero u64 wraparound, and DuckDB reproduces it in BIGINT.
    Output rows (doc_id, perm_id, min_hash) — the signature matrix
    exploded for order-insensitive value hashing."""
    import pyarrow.compute as pc

    from metacache_mpi_ray.stages.textstats import modp_poly_hash

    toks = pc.split_pattern(batch["text"], " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = toks.flatten()
    data, starts, ends = arrow_string_buffer(flat)
    token_hashes = modp_poly_hash(data, starts, ends).astype(U64)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    a, b = modp_perm_constants(n_perms, seed)
    sig = minhash_from_shingles(
        token_hashes, offsets, n_perms, a.astype(U64), b.astype(U64)
    )
    n = len(counts)
    doc_ids = np.repeat(
        batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64), n_perms
    )
    perm_ids = np.tile(np.arange(n_perms, dtype=np.int64), n)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "perm_id": pa.array(perm_ids, type=pa.int64()),
            "min_hash": pa.array(sig.reshape(-1).astype(np.int64), type=pa.int64()),
        }
    )


def sig_to_arrow(sig: np.ndarray) -> pa.FixedSizeListArray:
    """(n, P) u64 matrix -> fixed_size_list<uint64, P> column (zero-copy)."""
    n, p = sig.shape
    return pa.FixedSizeListArray.from_arrays(pa.array(sig.reshape(-1)), p)


def sig_from_arrow(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """fixed_size_list<uint64, P> column -> (n, P) u64 matrix."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    p = col.type.list_size
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return np.ascontiguousarray(flat).reshape(-1, p).astype(U64, copy=False)


def signature_schema(n_perms: int) -> pa.Schema:
    """The schema of ``MinHashSigner``'s output rows."""
    return pa.schema(
        [
            ("doc_id", pa.int64()),
            ("text_hash", pa.int64()),
            ("n_chars", pa.int64()),
            ("sig", pa.list_(pa.uint64(), n_perms)),
        ]
    )


#: norm_text bytes per signing slice (a row larger than this is its own
#: slice). Each u64 temporary of a slice's window hashes and OPH keys is
#: 8x this, so 64 KiB keeps them at 512 KiB, well inside a 2 MiB L2. Over
#: 8000 web_mix docs (1-vCPU Xeon VM) 256 KiB signed ~15% slower and
#: 32-128 KiB within 5% of 64 KiB; dup_heavy's short rows did not care
SIGN_SLICE_BYTES = 64 << 10


def sign_slices(starts: np.ndarray, ends: np.ndarray) -> list[tuple[int, int]]:
    """Row ranges ``[i, j)`` of at most ``SIGN_SLICE_BYTES`` of text each
    (or one row, when that row alone is larger), cut by ``searchsorted``
    over the row ends."""
    cuts = [0]
    while cuts[-1] < len(starts):
        i = cuts[-1]
        j = int(np.searchsorted(ends, starts[i] + SIGN_SLICE_BYTES, side="right"))
        cuts.append(max(j, i + 1))
    return list(zip(cuts, cuts[1:]))


class MinHashSigner:
    """docs batch -> (doc_id, text_hash, n_chars, sig).

    Signs the batch in slices of about ``SIGN_SLICE_BYTES`` of
    ``norm_text``, cut at row boundaries. Permutation constants are
    derived once per signer from cfg.seed, so every signer produces
    identical signatures for identical text (determinism invariant,
    SURVEY.md §2.9).
    """

    def __init__(self, cfg: DedupConfig | None = None):
        self.cfg = cfg or DedupConfig()
        self.a, self.b = minhash_perm_constants(self.cfg.n_perms, self.cfg.seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # zero-copy: hash straight out of the Arrow string buffer
        data, starts, ends = arrow_string_buffer(batch["norm_text"])
        sig = np.concatenate(
            [
                sign_rows(data, starts[i:j], ends[i:j], self.cfg, self.a, self.b)
                for i, j in sign_slices(starts, ends)
            ]
            or [np.empty((0, self.cfg.n_perms), dtype=U64)]
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text_hash": batch["text_hash"],
                "n_chars": batch["n_chars"],
                "sig": sig_to_arrow(sig),
            }
        )


def compute_signatures(docs, cfg: DedupConfig, *, batch_size: int = 4096):
    """docs -> signatures dataset, on the elastic task pool: the signer
    state (permutation constants, ~2 KB) is built once on the driver and
    ships inside the pickled callable, so the stage reuses the warm
    worker processes of the read stage."""
    return docs.map_batches(
        MinHashSigner(cfg), batch_format="pyarrow", batch_size=batch_size
    )
