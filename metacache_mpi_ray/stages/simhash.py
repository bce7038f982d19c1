"""SimHash near-duplicate detection — the alternate sketch family.

64-bit SimHash over char-shingle hashes: each shingle votes its bit
pattern (+1/-1 per bit); the sign of the summed votes is the signature.
Near-dups are pairs within ``simhash_hamming`` bits; candidate
generation splits the 64 bits into (hamming+1) blocks — any pair within
distance h must agree exactly on at least one block (pigeonhole), so a
groupby per block finds all candidates, mirroring the LSH-band shuffle.

Fully vectorized: votes accumulate via np.add.reduceat over the
batch-concatenated shingle stream (same layout trick as MinHash).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.functions.hashing import U64, concat_shingle_hashes
from metacache_mpi_ray.stages.candidates import bucket_all_pairs


_POPBITS = None  # (256, 8) int64: bit k of byte value v, little-endian


def simhash_from_shingles(hashes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Core kernel: per-doc shingle stream -> (n,) u64 simhash.

    Per-byte histogram voting (round-3; the round-2 version unpacked an
    (M, 64) bit matrix and ran a strided axis-0 reduceat over it —
    4.1 s per 5.6M-shingle batch, ~90M adds/s): for each of the 8 byte
    positions, one np.bincount scatters the M byte values into per-doc
    256-bin histograms, and a (n,256) @ (256,8) popcount-table matmul
    turns histograms into per-bit ones-counts. Same arithmetic, same
    bit-identical signatures (parity-tested against the round-1
    reference kernel), ~6x faster and no M x 64 intermediate. Docs with
    zero shingles get simhash 0 (the old reduceat indexed out of range
    or read the neighboring segment for empty segments)."""
    global _POPBITS
    n = len(offsets) - 1
    if n == 0 or len(hashes) == 0:
        return np.zeros(n, dtype=U64)
    if _POPBITS is None:
        _POPBITS = np.unpackbits(
            np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
        ).astype(np.int64)
    counts = np.diff(offsets)
    seg = np.repeat(np.arange(n, dtype=np.int64), counts)
    byte_mat = hashes.view(np.uint8).reshape(-1, 8)
    base = seg * np.int64(256)
    votes = np.empty((n, 64), dtype=bool)
    cnt2 = counts[:, None]
    for j in range(8):
        hist = np.bincount(base + byte_mat[:, j], minlength=n * 256).reshape(n, 256)
        ones = hist @ _POPBITS  # (n, 8) per-bit ones-counts
        votes[:, j * 8 : (j + 1) * 8] = (2 * ones) > cnt2
    return np.packbits(votes, axis=1, bitorder="little").view(U64).reshape(-1)


def _simhash_from_shingles_ref(hashes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Round-1 reference kernel (64 shift+reduceat passes) kept for the
    value-parity test — signatures must stay bit-identical."""
    n = len(offsets) - 1
    out = np.zeros(n, dtype=U64)
    if n == 0 or len(hashes) == 0:
        return out
    starts = offsets[:-1]
    counts = np.diff(offsets)
    for j in range(64):
        ones = np.add.reduceat(((hashes >> U64(j)) & U64(1)).astype(np.int64), starts)
        out |= ((2 * ones > counts).astype(U64) << U64(j))
    return out


def simhash_matrix(texts: list[bytes], cfg: DedupConfig) -> np.ndarray:
    """(n,) u64 simhash per document (list-of-bytes reference path)."""
    if len(texts) == 0:
        return np.zeros(0, dtype=U64)
    hashes, offsets = concat_shingle_hashes(texts, cfg.shingle_k, cfg.seed)
    return simhash_from_shingles(hashes, offsets)


def hamming_distance_u64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = (a ^ b).view(np.uint8).reshape(len(a), 8)
    return np.unpackbits(x, axis=1).sum(axis=1).astype(np.int64)


class SimHasher:
    """Batch stage: docs -> (doc_id, simhash). Built on the driver; the
    instance ships in the pickled callable (task pool)."""

    def __init__(self, cfg: DedupConfig | None = None):
        self.cfg = cfg or DedupConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from metacache_mpi_ray.functions.hashing import (
            arrow_string_buffer,
            shingle_hashes_from_buffer,
        )

        data, starts, ends = arrow_string_buffer(batch["norm_text"])
        hashes, offsets = shingle_hashes_from_buffer(
            data, starts, ends, self.cfg.shingle_k, self.cfg.seed
        )
        sh = simhash_from_shingles(hashes, offsets)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                # bit-preserving reinterpret u64 -> i64 (SQL/Arrow friendly)
                "simhash": pa.array(sh.view(np.int64), type=pa.int64()),
            }
        )


def simhash_block_rows(cfg: DedupConfig):
    """simhashes -> (block_id, block_val, doc_id, simhash) rows, one per
    bit-block (pigeonhole candidate key)."""
    n_blocks = cfg.simhash_hamming + 1
    width = 64 // n_blocks

    def emit(batch: pa.Table) -> pa.Table:
        sh = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
        n = len(sh)
        blocks = []
        for j in range(n_blocks):
            shift = np.uint64(j * width)
            mask = np.uint64((1 << width) - 1)
            blocks.append(((sh >> shift) & mask).astype(np.int64))
        block_val = np.concatenate(blocks)
        return pa.table(
            {
                "block_id": pa.array(np.repeat(np.arange(n_blocks, dtype=np.int64), n)),
                "block_val": pa.array(block_val),
                "doc_id": pa.array(np.tile(batch["doc_id"].to_numpy(zero_copy_only=False), n_blocks)),
            }
        )

    return emit


def simhash_dedup(
    docs,
    cfg: DedupConfig | None = None,
    *,
    num_partitions: int = 16,
):
    """docs -> candidate edges within simhash Hamming distance, verified
    exactly (Hamming check on the full 64-bit signatures in the
    flagship's verify step)."""
    cfg = cfg or DedupConfig()
    sims = docs.map_batches(
        SimHasher(cfg), batch_format="pyarrow", batch_size=4096
    ).materialize()
    blocks = sims.map_batches(simhash_block_rows(cfg), batch_format="pyarrow")
    # pair-LISTING semantics: all pairs per pigeonhole bucket (a star
    # edge set would miss (v, w) pairs hiding behind a dissimilar
    # bucket-mate with a smaller id)
    edges = bucket_all_pairs(
        blocks, key_cols=["block_id", "block_val"], id_col="doc_id",
        cap=cfg.bucket_cap,
    )
    # exact Hamming verification through the flagship's verify step
    # (stages/verify.verify_pairs_payload): each pair and score task
    # packs only the simhashes its pairs need
    from metacache_mpi_ray.stages.verify import verify_pairs_payload

    hmax = cfg.simhash_hamming

    def extract(batch: pa.Table):
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        vals = (
            batch["simhash"].to_numpy(zero_copy_only=False)
            .astype(np.int64).view(U64).reshape(-1, 1)
        )
        return ids, vals

    def score(va: np.ndarray, vb: np.ndarray):
        d = hamming_distance_u64(va[:, 0], vb[:, 0])
        return d, d <= hmax

    return verify_pairs_payload(
        edges,
        sims,
        id_col="doc_id",
        extract=extract,
        score=score,
        value_col="hamming",
        value_type=pa.int64(),
        payload_dtype=U64,
        num_partitions=num_partitions,
    )
