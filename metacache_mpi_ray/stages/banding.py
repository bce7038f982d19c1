"""LSH banding — the analog of the reference's feature->location insert.

Reference: each sketch feature becomes a key in the inverted multimap
``feature -> [(target, window)]`` (/root/reference/src/sketch_database.h:
201-206, 1079-1097). Here: each document's 128-perm signature is split
into ``n_bands`` bands of ``rows_per_band`` values; each band hashes to
a 64-bit ``band_hash``; the emitted rows

    (band_id:int64, band_hash:int64, doc_id:int64)

are exactly the pre-shuffle form of the inverted index — the `groupby`
on (band_id, band_hash) downstream IS the index build + probe in one
all-to-all exchange (SURVEY.md §4 "architectural inversion").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.functions.blocks import _as_table, split_by_key
from metacache_mpi_ray.functions.hashing import U64, mix2, splitmix64
from metacache_mpi_ray.stages.candidates import fold_keys
from metacache_mpi_ray.stages.signatures import MinHashSigner, sig_from_arrow

def band_hashes(sig: np.ndarray, cfg: DedupConfig) -> np.ndarray:
    """(n, n_perms) signature matrix -> (n, n_bands) u64 band hashes.

    Band j's hash chains the band's row values through mix2, seeded by
    the band id so identical row-values in different bands never
    collide into the same bucket key space.
    """
    n = sig.shape[0]
    b, r = cfg.n_bands, cfg.rows_per_band
    rows = sig.reshape(n, b, r)
    h = np.broadcast_to(
        splitmix64(np.arange(b, dtype=U64) + U64(cfg.seed & 0xFFFFFFFF)), (n, b)
    ).copy()
    for j in range(r):
        h = mix2(h, rows[:, :, j])
    return h


def _to_i63(u64: np.ndarray) -> np.ndarray:
    return (u64 >> np.uint64(1)).astype(np.int64)


def make_band_batch(cfg: DedupConfig):
    """map_batches fn: signatures batch -> band rows (1 row -> n_bands rows)."""

    def emit(batch: pa.Table) -> pa.Table:
        sig = sig_from_arrow(batch["sig"])
        n = sig.shape[0]
        bh = _to_i63(band_hashes(sig, cfg))           # (n, b)
        b = cfg.n_bands
        doc_id = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "band_id": pa.array(
                    np.tile(np.arange(b, dtype=np.int64), n), type=pa.int64()
                ),
                "band_hash": pa.array(bh.reshape(-1), type=pa.int64()),
                "doc_id": pa.array(np.repeat(doc_id, b), type=pa.int64()),
            }
        )

    return emit


def compute_bands(signatures, cfg: DedupConfig):
    """signatures -> band rows dataset (stateless tasks; row count x n_bands)."""
    return signatures.map_batches(make_band_batch(cfg), batch_format="pyarrow")


def band_key_rows(sigs: pa.Table, cfg: DedupConfig) -> pa.Table:
    """signature rows -> (bkey, doc_id) rows: each band key folded to the
    one u64 ``bkey`` that ``bucket_edges`` folds (band_id, band_hash) to,
    straight from the (n, n_bands) hash matrix."""
    bh = _to_i63(band_hashes(sig_from_arrow(sigs["sig"]), cfg))
    bk = fold_keys([np.arange(cfg.n_bands, dtype=np.int64), bh]).reshape(-1)
    doc_id = np.repeat(sigs["doc_id"].to_numpy(zero_copy_only=False), cfg.n_bands)
    return pa.table({"bkey": bk, "doc_id": doc_id.astype(np.int64, copy=False)})


def split_signed(sig: pa.Table, cfg: DedupConfig, shards: int) -> list[pa.Table]:
    """One block's signature rows -> its band rows split by the shard of
    ``bkey``, then its signature rows split by the shard of ``doc_id``
    (``shards`` pieces each)."""
    bands = split_by_key(band_key_rows(sig, cfg), ["bkey"], shards)
    return [*bands, *split_by_key(sig, ["doc_id"], shards)]


@ray.remote
def sign_split(block, cfg: DedupConfig, shards: int):
    """The sign task of ``pipelines/dedup._sign_pieces``: one docs block
    -> ``split_signed``'s 2 * ``shards`` pieces. One ``MinHashSigner``
    call signs the block (it slices by bytes)."""
    sig = MinHashSigner(cfg)(_as_table(block)).combine_chunks()
    return tuple(split_signed(sig, cfg, shards))
