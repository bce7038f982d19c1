"""The one verify step against in-process oracles.

Every verify adapter runs ``verify.pair_score``. These tests feed it
duplicated and reversed edges, edge and payload datasets with empty
blocks between their rows and, for the payload adapter, null payload
rows, at P = 1, 3 and 8. The sorted output must equal an oracle that
takes the distinct (a, b) rows, looks both endpoints up in the whole
payload table (the broadcast lookup) and scores one pair at a time:
one row per distinct surviving pair, reversed pairs included.
"""
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from metacache_mpi_ray.config import DedupConfig

PARTITIONS = (1, 3, 8)


def blocks(t: pa.Table, n: int):
    """``t`` as ``n`` blocks, each after an empty block."""
    cuts = np.linspace(0, t.num_rows, n + 1).astype(int)
    parts = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        parts += [t.slice(0, 0), t.slice(lo, hi - lo)]
    return rd.from_arrow(parts)


def dup_edges(pairs: list[tuple[int, int]], times: int = 3) -> pa.Table:
    """Every pair ``times`` times and once reversed, shuffled."""
    rows = pairs * times + [(b, a) for a, b in pairs]
    order = np.random.default_rng(0).permutation(len(rows))
    return pa.table(
        {
            "a": pa.array([rows[i][0] for i in order], type=pa.int64()),
            "b": pa.array([rows[i][1] for i in order], type=pa.int64()),
        }
    )


def oracle(edges: pa.Table, ids, score, value_col: str) -> list[tuple]:
    """Sorted (a, b, value) rows: each distinct (a, b) row of ``edges``
    whose endpoints are both in ``ids``, scored by ``score(i, j)`` on
    their positions in ``ids``, kept when it says so."""
    pos = {int(x): i for i, x in enumerate(ids)}
    rows = []
    for a, b in sorted(set(zip(edges["a"].to_pylist(), edges["b"].to_pylist()))):
        if a in pos and b in pos:
            v, keep = score(pos[a], pos[b])
            if keep:
                rows.append((a, b, round(float(v), 12)))
    return rows


def verified_rows(ds, value_col: str) -> list[tuple]:
    df = ds.to_pandas()
    return sorted(
        (int(a), int(b), round(float(v), 12))
        for a, b, v in zip(df.get("a", []), df.get("b", []), df.get(value_col, []))
    )


def test_verify_pairs_payload_paths_identical_on_duplicated_edges():
    from metacache_mpi_ray.stages.verify import verify_pairs_payload

    rng = np.random.default_rng(11)
    n, d = 40, 8
    vecs = rng.normal(size=(n, d))
    vecs[1] = vecs[0] + 1e-9  # one genuinely near pair
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    rows = [None if i in (6, 13) else vecs[i].tolist() for i in range(n)]
    table = blocks(
        pa.table(
            {
                "doc_id": pa.array(np.arange(n, dtype=np.int64)),
                "emb": pa.array(rows, type=pa.list_(pa.float64())),
            }
        ),
        2,
    )
    # 6 and 13 have null payloads, 99 has no row
    pairs = [(0, 1), (2, 3), (4, 5), (0, 7), (6, 9), (9, 13), (8, 99), (10, 11)]
    edges = dup_edges(pairs, times=4)

    def extract(batch: pa.Table):
        t = batch.filter(batch["emb"].is_valid())
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        emb = np.array(t["emb"].to_pylist(), dtype=np.float64).reshape(-1, d)
        return ids, emb

    def score(va: np.ndarray, vb: np.ndarray):
        sim = (va * vb).sum(axis=1)
        return sim, sim >= 0.0

    valid = [i for i in range(n) if rows[i] is not None]
    want = oracle(
        edges,
        valid,
        lambda i, j: (s := float(vecs[valid[i]] @ vecs[valid[j]]), s >= 0.0),
        "sim",
    )
    assert {(0, 1), (1, 0)} <= {(a, b) for a, b, _ in want}
    for p in PARTITIONS:
        out = verify_pairs_payload(
            blocks(edges, 3),
            table,
            id_col="doc_id",
            extract=extract,
            score=score,
            value_col="sim",
            payload_dtype=np.float64,
            num_partitions=p,
        )
        assert verified_rows(out, "sim") == want, p


def test_verify_edges_paths_identical_on_duplicated_edges():
    from metacache_mpi_ray.stages.signatures import sig_to_arrow
    from metacache_mpi_ray.stages.verify import verify_edges

    cfg = DedupConfig(n_perms=16, n_bands=16, sim_threshold=0.1)
    rng = np.random.default_rng(5)
    n = 30
    sig_mat = rng.integers(0, 2**63, size=(n, cfg.n_perms)).astype(np.uint64)
    for x, y in [(0, 1), (2, 3), (10, 11), (5, 20)]:
        sig_mat[y, :8] = sig_mat[x, :8]
    sig_mat[1] = sig_mat[0]  # one exact-duplicate signature pair
    sigs = blocks(
        pa.table(
            {
                "doc_id": pa.array(np.arange(n, dtype=np.int64)),
                "sig": sig_to_arrow(sig_mat),
            }
        ),
        2,
    )
    pairs = [(0, 1), (2, 3), (10, 11), (5, 20), (4, 9), (7, 50)]
    edges = dup_edges(pairs, times=5)

    def score(i, j):
        est = float((sig_mat[i] == sig_mat[j]).mean())
        return est, est >= cfg.verify_threshold

    want = oracle(edges, range(n), score, "est_sim")
    assert len(want) == 8  # 4 agreeing pairs, each both ways
    for p in PARTITIONS:
        out = verify_edges(blocks(edges, 3), sigs, cfg, num_partitions=p)
        assert verified_rows(out, "est_sim") == want, p
    with pytest.raises(ValueError, match="auto"):
        verify_edges(edges, sigs, cfg, strategy="join")


def shingle_jaccard(texts: list[str], k: int):
    """jaccard(i, j): exact Jaccard of the byte k-gram sets of two texts."""
    sets = [{t[i : i + k] for i in range(len(t) - k + 1)} for t in map(str.encode, texts)]
    return lambda i, j: len(sets[i] & sets[j]) / len(sets[i] | sets[j])


def test_exact_jaccard_paths_identical_on_duplicated_edges():
    from metacache_mpi_ray.stages.verify import verify_edges_exact_jaccard

    cfg = DedupConfig(shingle_k=3, sim_threshold=0.2)
    texts = [
        "the quick brown fox jumps over the lazy dog again and again",
        "the quick brown fox jumps over the lazy dog again and again",
        "a completely different document about ray data pipelines",
        "yet another unrelated string of words for the corpus here",
        "the quick brown fox jumps over a lazy cat again and again",
        "a completely different document about ray data pipelines too",
    ]
    docs = blocks(
        pa.table(
            {
                "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                "norm_text": pa.array(texts),  # shingle_sets reads norm_text
            }
        ),
        2,
    )
    pairs = [(0, 1), (0, 2), (2, 3), (1, 4), (2, 5), (3, 8)]
    edges = dup_edges(pairs, times=3)
    jac = shingle_jaccard(texts, cfg.shingle_k)

    def score(i, j):
        return jac(i, j), jac(i, j) >= cfg.sim_threshold

    want = oracle(edges, range(len(texts)), score, "jaccard")
    assert (0, 1, 1.0) in want and (1, 0, 1.0) in want
    assert len(want) == 6
    for p in PARTITIONS:
        out = verify_edges_exact_jaccard(blocks(edges, 3), docs, cfg, num_partitions=p)
        assert verified_rows(out, "jaccard") == want, p
