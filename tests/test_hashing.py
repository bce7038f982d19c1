"""Unit tests for the vectorized hash kernels (no Ray needed)."""

import numpy as np

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.functions.hashing import (
    concat_shingle_hashes,
    minhash_perm_constants,
    murmur3_fmix64,
    rolling_shingle_hashes,
    splitmix64,
)
from metacache_mpi_ray.stages.signatures import (
    minhash_matrix,
    sig_from_arrow,
    sig_to_arrow,
)
from metacache_mpi_ray.stages.verify import _pack_fixed, _unpack_fixed


def test_mixers_deterministic_and_dispersive():
    x = np.arange(1000, dtype=np.uint64)
    a, b = splitmix64(x), splitmix64(x)
    assert (a == b).all()
    assert len(np.unique(a)) == 1000
    assert len(np.unique(murmur3_fmix64(x))) == 1000


def test_rolling_shingles_match_manual():
    buf = np.frombuffer(b"abcdefgh", dtype=np.uint8)
    h = rolling_shingle_hashes(buf, 3, seed=7)
    assert len(h) == 6
    # window i must equal hashing that window alone
    for i in range(6):
        single = rolling_shingle_hashes(buf[i : i + 3], 3, seed=7)
        assert single[0] == h[i]


def test_concat_shingles_equals_per_doc():
    docs = [b"hello world this is a doc", b"another different document here", b"xy"]
    k = 5
    hashes, offsets = concat_shingle_hashes(docs, k, seed=3)
    for i, d in enumerate(docs):
        got = hashes[offsets[i] : offsets[i + 1]]
        if len(d) >= k:
            exp = rolling_shingle_hashes(np.frombuffer(d, dtype=np.uint8), k, seed=3)
            assert (got == exp).all()
        else:
            assert len(got) == 1  # whole-doc fallback shingle


def test_minhash_identical_and_disjoint():
    cfg = DedupConfig()
    a, b = minhash_perm_constants(cfg.n_perms, cfg.seed)
    t1 = b"the quick brown fox jumps over the lazy dog " * 8
    t3 = b"zz totally unrelated material about rivers and mountains " * 8
    sig = minhash_matrix([t1, t1, t3], cfg, a, b)
    assert (sig[0] == sig[1]).all()
    assert (sig[0] == sig[2]).mean() < 0.05


def test_minhash_estimates_jaccard():
    cfg = DedupConfig()
    a, b = minhash_perm_constants(cfg.n_perms, cfg.seed)
    rng = np.random.default_rng(1)
    words = ["w%03d" % i for i in range(300)]
    base = [words[i] for i in rng.integers(0, 300, 400)]
    mut = [w if rng.random() > 0.05 else "XXX" for w in base]
    t1 = (" ".join(base)).encode()
    t2 = (" ".join(mut)).encode()
    h1, _ = concat_shingle_hashes([t1], cfg.shingle_k, cfg.seed)
    h2, _ = concat_shingle_hashes([t2], cfg.shingle_k, cfg.seed)
    s1, s2 = set(h1.tolist()), set(h2.tolist())
    true_j = len(s1 & s2) / len(s1 | s2)
    sig = minhash_matrix([t1, t2], cfg, a, b)
    est = (sig[0] == sig[1]).mean()
    assert abs(est - true_j) < 0.15  # 128 perms => sigma ~ 0.044


def test_sig_arrow_and_binary_roundtrip():
    cfg = DedupConfig()
    a, b = minhash_perm_constants(cfg.n_perms, cfg.seed)
    sig = minhash_matrix([b"abc def ghi jkl mno pqr stu vwx", b"hello world " * 4], cfg, a, b)
    assert (sig_from_arrow(sig_to_arrow(sig)) == sig).all()
    # verify ships signatures through its join exchanges as packed binary
    packed = _pack_fixed(np.arange(2), sig, np.dtype(np.uint64))["payload"]
    assert (_unpack_fixed(packed, np.dtype(np.uint64)) == sig).all()
    assert (_unpack_fixed(packed.slice(1), np.dtype(np.uint64)) == sig[1:]).all()


def test_signer_byte_slices_equal_per_row_signing(monkeypatch):
    """Cutting a batch into byte-budget slices (a row over the budget, a
    batch of rows all shorter than k, an empty batch, many cuts) signs
    every row as if it were signed alone."""
    import pyarrow as pa

    from metacache_mpi_ray.stages import signatures

    monkeypatch.setattr(signatures, "SIGN_SLICE_BYTES", 40)
    rng = np.random.default_rng(5)
    words = ["alpha", "beta", "gamma", "delta", "eps", ""]
    long_rows = [" ".join(rng.choice(words, int(rng.integers(0, 30)))) for _ in range(40)]
    batches = [
        long_rows + ["x" * 500] + long_rows[:5],  # one row over the budget
        ["ab", "", "c", "defg"] * 10,             # every row shorter than k
        [],
    ]
    for scheme in ("oph", "kperm"):
        cfg = DedupConfig(minhash_scheme=scheme)
        signer = signatures.MinHashSigner(cfg)
        for texts in batches:
            n = len(texts)
            batch = pa.table(
                {
                    "doc_id": pa.array(np.arange(n), type=pa.int64()),
                    "text_hash": pa.array(np.zeros(n, dtype=np.int64)),
                    "n_chars": pa.array(np.zeros(n, dtype=np.int64)),
                    "norm_text": pa.array(texts, type=pa.string()),
                }
            )
            got = sig_from_arrow(signer(batch)["sig"])
            want = [minhash_matrix([t.encode()], cfg, signer.a, signer.b) for t in texts]
            assert got.shape == (n, cfg.n_perms)
            assert np.array_equal(got, np.concatenate(want) if want else got[:0])
