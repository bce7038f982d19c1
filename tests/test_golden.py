"""Golden-value fixtures (FIXTURES.md F2 — the analog of the
reference's frozen, re-parseable output format,
/root/reference/docs/query.txt:216-223): signature/simhash/cluster
values for a fixed tiny corpus at the default config are pinned here;
any unintentional change to hashing constants, normalization, the OPH
scheme or the clustering pipeline breaks these assertions loudly.

Also locks in Arrow slice handling: the kernels must produce identical
values on sliced (non-zero offset) arrays — map_batches routinely
hands out slices of larger blocks.
"""

import numpy as np
import pyarrow as pa

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.functions.hashing import (
    arrow_string_buffer,
    doc_hashes_from_buffer,
    minhash_perm_constants,
    shingle_hashes_from_buffer,
)
from metacache_mpi_ray.stages.signatures import minhash_matrix
from metacache_mpi_ray.stages.simhash import simhash_matrix

CFG = DedupConfig()

_TEXTS = [
    "the quick brown fox jumps over the lazy dog again and again",
    "a completely different document about rivers mountains and lakes",
    "short",
]


def test_golden_signature_values():
    a, b = minhash_perm_constants(CFG.n_perms, CFG.seed)
    sig = minhash_matrix([t.encode() for t in _TEXTS], CFG, a, b)
    # pin a stable digest of the full signature matrix
    digest = int(np.bitwise_xor.reduce(sig.reshape(-1)))
    checksums = [int(s.sum(dtype=np.uint64)) for s in sig]
    assert digest == 14617700499288921906, f"signature values drifted: {digest}"
    assert checksums == [
        497353218334666373,
        16441634464880614091,
        11317042174287936256,
    ], checksums


def test_golden_band_key_values():
    """Band keys are persisted in an index's bands/: the fold of the
    (n, n_bands) hash matrix is pinned, and equals the fold of the
    (band_id, band_hash) rows that ``bucket_edges`` buckets on."""
    from metacache_mpi_ray.stages.banding import band_key_rows, make_band_batch
    from metacache_mpi_ray.stages.candidates import _combine_keys
    from metacache_mpi_ray.stages.signatures import sig_to_arrow

    a, b = minhash_perm_constants(CFG.n_perms, CFG.seed)
    sig = minhash_matrix([t.encode() for t in _TEXTS], CFG, a, b)
    t = pa.table({"doc_id": pa.array([7, 8, 9], pa.int64()), "sig": sig_to_arrow(sig)})
    keys = band_key_rows(t, CFG)
    bk = keys["bkey"].to_numpy()
    assert int(np.bitwise_xor.reduce(bk)) == 3121705869610372331
    assert [bk[0], bk[1], bk[-1]] == [
        -4910616785371219494, 2225006525209839825, 1094146022057404635
    ]
    assert keys.equals(_combine_keys(make_band_batch(CFG)(t), ["band_id", "band_hash"], "doc_id"))


def test_golden_simhash_values():
    sh = simhash_matrix([t.encode() for t in _TEXTS], CFG)
    assert sh.tolist() == [
        6361408496098218563,
        14685494748806772998,
        3547178905807165430,
    ], sh.tolist()


def test_sliced_arrays_hash_identically():
    """A sliced Arrow array (offset > 0) must hash exactly like the
    equivalent unsliced one — map_batches hands out slices."""
    col_full = pa.array(_TEXTS * 4, type=pa.string())
    col_slice = col_full.slice(3, 3)  # == _TEXTS, but offset=3
    col_fresh = pa.array(_TEXTS, type=pa.string())

    for fn in (
        lambda c: doc_hashes_from_buffer(*arrow_string_buffer(c), seed=22),
        lambda c: shingle_hashes_from_buffer(
            *arrow_string_buffer(c), CFG.shingle_k, CFG.seed
        )[0],
    ):
        hs = fn(col_slice)
        hf = fn(col_fresh)
        assert np.array_equal(hs, hf)


def test_golden_cluster_assignment(corpus_dir):
    """End-to-end golden: the 500-doc fixed-seed corpus must produce
    exactly this many dups/clusters at the default config."""
    import ray.data as rd

    from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline
    from metacache_mpi_ray.stages.ingest import ingest_pages

    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages"))
    cl = near_dup_pipeline(docs, CFG, num_partitions=4).clusters.to_pandas()
    assert len(cl) == 500
    assert int(cl["is_dup"].sum()) == 269
    assert cl["cluster_id"].nunique() == 313
