"""End-to-end correctness of the MinHash/LSH dedup pipeline against a
brute-force O(n^2) exact-Jaccard oracle (SURVEY.md §5: ground-truth
style validation, mirroring the reference's embedded-ground-truth
evaluation at /root/reference/src/classification.cpp:111-131).

Gate (BASELINE.json): dup-pair recall >= 0.99 at the configured
shingle/signature config.
"""

import itertools

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.functions.hashing import concat_shingle_hashes
from metacache_mpi_ray.functions.text import extract_text_from_html, normalize_text_py
from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline
from metacache_mpi_ray.stages.banding import band_key_rows, compute_bands
from metacache_mpi_ray.stages.candidates import (
    bucket_edges,
    distinct_pairs,
    run_bounds,
    star_edges,
)
from metacache_mpi_ray.stages.cluster import assign_clusters
from metacache_mpi_ray.stages.ingest import ingest_documents, ingest_pages
from metacache_mpi_ray.stages.signatures import (
    MinHashSigner,
    compute_signatures,
    sig_from_arrow,
)
from metacache_mpi_ray.stages.verify import minhash_scores, verify_edges
from metacache_mpi_ray.state.unionfind import connected_components_arrays

CFG = DedupConfig()


def _oracle_shingle_sets(corpus_dir):
    """url -> set of shingle hashes, computed independently of the Ray path
    (single-process reference implementation)."""
    pages = pq.read_table(f"{corpus_dir}/pages")
    texts = []
    for url, html, text in zip(
        pages["url"].to_pylist(), pages["html"].to_pylist(), pages["text"].to_pylist()
    ):
        t = text if text is not None else extract_text_from_html(html)
        texts.append(normalize_text_py(t).encode("utf-8"))
    hashes, offsets = concat_shingle_hashes(texts, CFG.shingle_k, CFG.seed)
    urls = pages["url"].to_pylist()
    return {
        urls[i]: set(hashes[offsets[i] : offsets[i + 1]].tolist())
        for i in range(len(urls))
    }


@pytest.fixture(scope="module")
def pipeline_result(corpus_dir):
    pages = rd.read_parquet(f"{corpus_dir}/pages")
    docs = ingest_pages(pages)
    res = near_dup_pipeline(docs, CFG, num_partitions=8)
    clusters = res.clusters.to_pandas()
    docs_pd = docs.to_pandas()[["doc_id", "url"]]
    merged = clusters.merge(docs_pd, on="doc_id")
    return merged  # doc_id, cluster_id, is_dup, url


def test_recall_vs_bruteforce_oracle(corpus_dir, pipeline_result):
    shingles = _oracle_shingle_sets(corpus_dir)
    urls = sorted(shingles)
    truth_pairs = []
    for u, v in itertools.combinations(urls, 2):
        su, sv = shingles[u], shingles[v]
        inter = len(su & sv)
        if inter == 0:
            continue
        j = inter / (len(su) + len(sv) - inter)
        if j >= CFG.sim_threshold:
            truth_pairs.append((u, v))
    assert len(truth_pairs) > 50, "corpus must plant enough duplicate pairs"

    cluster_of = dict(zip(pipeline_result["url"], pipeline_result["cluster_id"]))
    found = sum(1 for u, v in truth_pairs if cluster_of[u] == cluster_of[v])
    recall = found / len(truth_pairs)
    assert recall >= 0.99, f"dup-pair recall {recall:.4f} < 0.99 ({found}/{len(truth_pairs)})"


def test_low_similarity_pairs_stay_separate(corpus_dir, pipeline_result):
    """Negative controls: pairs well below threshold must not be directly
    clustered unless bridged transitively through real dups. We check
    clusters don't collapse: number of clusters stays close to truth."""
    shingles = _oracle_shingle_sets(corpus_dir)
    cluster_of = dict(zip(pipeline_result["url"], pipeline_result["cluster_id"]))
    # sample disjoint-ish pairs
    urls = sorted(shingles)
    rng = np.random.default_rng(0)
    bad = 0
    checked = 0
    for _ in range(2000):
        u, v = rng.choice(urls, 2, replace=False)
        su, sv = shingles[u], shingles[v]
        inter = len(su & sv)
        j = inter / (len(su) + len(sv) - inter) if inter else 0.0
        if j < 0.3:
            checked += 1
            if cluster_of[u] == cluster_of[v]:
                bad += 1
    assert checked > 1000
    assert bad / checked < 0.01, f"{bad}/{checked} dissimilar pairs wrongly clustered"


def test_exact_duplicates_always_cluster(corpus_dir, pipeline_result):
    truth = pq.read_table(f"{corpus_dir}/truth.parquet").to_pandas()
    merged = pipeline_result.merge(truth, on="url")
    exact = merged[merged["dup_kind"] == "exact"]
    # every exact-dup truth group maps to exactly one output cluster
    n_out = exact.groupby("true_cluster")["cluster_id"].nunique()
    assert (n_out == 1).all()
    assert exact["is_dup"].all()


def _templated_docs():
    """A templated corpus: 300 exact copies of one page (a bucket past
    ``bucket_cap`` in every band), five 40-page near-dup families with a
    few words swapped, and 50 unique pages."""
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(400)]
    templates = [rng.choice(words, 120).tolist() for _ in range(6)]
    texts = [" ".join(templates[0])] * 300
    for t in templates[1:]:
        for _ in range(40):
            w = list(t)
            for k in rng.integers(0, len(w), 3):
                w[k] = words[int(rng.integers(0, len(words)))]
            texts.append(" ".join(w))
    texts += [" ".join(rng.choice(words, 80)) for _ in range(50)]
    return ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(np.arange(len(texts)) * 7 + 3, type=pa.int64()),
                    "text": pa.array(texts, type=pa.string()),
                }
            )
        )
    )


def _layouts(docs):
    """The same docs as 1 block, as 7 blocks, and as 7 blocks with
    zero-row blocks between them."""
    t = pa.concat_tables(ray.get(docs.to_arrow_refs())).combine_chunks()
    cuts = np.linspace(0, t.num_rows, 8).astype(int)
    parts = [t.slice(lo, hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:])]
    empty = t.slice(0, 0)
    with_empty = [empty] + [x for p in parts for x in (p, empty)]
    return {
        "1 block": rd.from_arrow(t),
        "7 blocks": rd.from_arrow(parts),
        "empty blocks": rd.from_arrow(with_empty),
    }


def _sorted_table(ds, keys):
    t = pa.concat_tables([b for b in ray.get(ds.to_arrow_refs()) if b.num_rows])
    return t.sort_by([(k, "ascending") for k in keys]).combine_chunks()


def _stage_chain(docs, cfg, num_partitions):
    """The Dataset-level stages the flagship graph must reproduce."""
    sigs = compute_signatures(docs, cfg).materialize()
    edges = bucket_edges(
        compute_bands(sigs, cfg),
        key_cols=["band_id", "band_hash"],
        id_col="doc_id",
        cap=cfg.bucket_cap,
        num_partitions=num_partitions,
    )
    verified = verify_edges(edges, sigs, cfg, num_partitions=num_partitions).materialize()
    return sigs, verified, assign_clusters(sigs, verified)


_KEYS = (["doc_id"], ["a", "b"], ["doc_id"])


def _numpy_reference(docs, cfg):
    """The flagship's signatures, verified edges and clusters computed in
    this process over the whole corpus at once, sorted like
    ``_sorted_table``: one ``MinHashSigner`` call, ``band_key_rows``, one
    sort of every band key + ``star_edges``, ``distinct_pairs``,
    ``minhash_scores`` on the looked-up signatures, and
    ``connected_components_arrays``. No Ray task, no shard split and no
    verify step of the engine."""
    t = pa.concat_tables([b for b in ray.get(docs.to_arrow_refs()) if b.num_rows])
    sigs = MinHashSigner(cfg)(t.combine_chunks())
    bands = band_key_rows(sigs, cfg)
    keys = bands["bkey"].to_numpy()
    order = np.argsort(keys, kind="stable")
    a, b = distinct_pairs(
        *star_edges(bands["doc_id"].to_numpy()[order], *run_bounds(keys[order]), cfg.bucket_cap)
    )
    ids = sigs["doc_id"].to_numpy()
    rows = np.argsort(ids)
    mat = sig_from_arrow(sigs["sig"])
    sa = mat[rows[np.searchsorted(ids, a, sorter=rows)]]
    sb = mat[rows[np.searchsorted(ids, b, sorter=rows)]]
    est, keep = minhash_scores(sa, sb, cfg.verify_threshold)
    verified = pa.table({"a": a[keep], "b": b[keep], "est_sim": est[keep]})
    nodes, labels = connected_components_arrays(a[keep], b[keep])
    dup = np.isin(ids, nodes)
    cluster_id = ids.copy()
    cluster_id[dup] = labels[np.searchsorted(nodes, ids[dup])]
    clusters = pa.table({"doc_id": ids, "cluster_id": cluster_id, "is_dup": dup})
    return [
        x.sort_by([(k, "ascending") for k in keys_]).combine_chunks()
        for x, keys_ in zip((sigs, verified, clusters), _KEYS)
    ]


def test_pipeline_deterministic(corpus_dir):
    """The stage chain equals an in-process numpy reference byte for
    byte, sorted (signatures, verified edges and clusters), and so do
    near_dup_pipeline's verified edges and clusters at P = 1, 4 and 8,
    over a planted crawl and a templated corpus, each as 1 block, 7
    blocks and 7 blocks with empty blocks between them (the flagship's
    signatures are checked against the reference in the index files,
    tests/test_incremental.py). The chain verifies with the graph's own step
    (``verify_edges``), so the reference is the independent oracle."""
    corpora = {
        "planted": ingest_pages(rd.read_parquet(f"{corpus_dir}/pages")),
        "templated": _templated_docs(),
    }
    for name, docs in corpora.items():
        ref = _numpy_reference(docs, CFG)
        assert ref[1].num_rows > 0, name
        if name == "templated":  # the 300 copies meet only in over-cap buckets
            cl = ref[2].to_pandas().set_index("doc_id")
            assert not cl.loc[np.arange(300) * 7 + 3, "is_dup"].any()
        for layout, ds in _layouts(docs).items():
            want = [
                _sorted_table(x, k) for x, k in zip(_stage_chain(ds, CFG, 4), _KEYS)
            ]
            for field, w, r in zip(("signatures", "verified", "clusters"), want, ref):
                assert w.equals(r), (name, layout, "chain", field)
            for p in (1, 4, 8):
                res = near_dup_pipeline(ds, CFG, num_partitions=p)
                got = (res.verified_edges, res.clusters)
                for field, g, r, k in zip(("verified", "clusters"), got, ref[1:], _KEYS[1:]):
                    assert _sorted_table(g, k).equals(r), (name, layout, p, field)
                    assert g.num_blocks() == p, (name, layout, p, field)


def test_pipeline_runs_one_ray_data_execution(corpus_dir, monkeypatch):
    """The flagship is one graph of plain Ray tasks: its only Ray Data
    execution is the one that produces its ``docs`` input."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    runs = []
    real = StreamingExecutor.execute

    def counted(self, *args, **kw):
        runs.append(1)
        return real(self, *args, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    res = near_dup_pipeline(
        ingest_pages(rd.read_parquet(f"{corpus_dir}/pages")), CFG, num_partitions=4
    )
    assert len(runs) == 1
    assert res.verified_edges.count() > 0


def test_pipeline_block_size_invariant(corpus_dir):
    """~16 KB blocks spread every bucket over hundreds of input blocks;
    the bucket and pair hash exchanges must still see each key group
    whole and give the identical clusters (the at-scale regime where a
    bucket's rows come from many blocks)."""
    from ray.data import DataContext

    pages = rd.read_parquet(f"{corpus_dir}/pages")
    base = near_dup_pipeline(ingest_pages(pages), CFG, num_partitions=8).clusters.to_pandas()
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        ctx.target_max_block_size = 16 * 1024
        tiny = near_dup_pipeline(ingest_pages(pages), CFG, num_partitions=8).clusters.to_pandas()
    finally:
        ctx.target_max_block_size = old
    m = base.sort_values("doc_id").reset_index(drop=True).merge(
        tiny.sort_values("doc_id").reset_index(drop=True), on="doc_id"
    )
    assert len(m) == len(base)
    assert (m["cluster_id_x"] == m["cluster_id_y"]).all()
    assert (m["is_dup_x"] == m["is_dup_y"]).all()


def _verify_inputs():
    """(entry-point name -> callable(edges, num_partitions)) over tiny
    inputs for the three public verify adapters."""
    import pyarrow as pa

    from metacache_mpi_ray.stages.signatures import sig_to_arrow
    from metacache_mpi_ray.stages.verify import (
        verify_edges,
        verify_edges_exact_jaccard,
        verify_pairs_payload,
    )

    n = 12
    ids = pa.array(np.arange(n, dtype=np.int64))
    cfg = DedupConfig(n_perms=16, n_bands=16, shingle_k=3)
    sig_mat = np.random.default_rng(3).integers(0, 2**63, size=(n, 16)).astype(np.uint64)
    sigs = rd.from_arrow(pa.table({"doc_id": ids, "sig": sig_to_arrow(sig_mat)}))
    vals = rd.from_arrow(pa.table({"doc_id": ids, "v": pa.array(np.arange(n) % 3)}))
    docs = rd.from_arrow(
        pa.table({"doc_id": ids, "norm_text": [f"page {i % 3} body text" for i in range(n)]})
    )

    def extract(b):
        return (
            b["doc_id"].to_numpy(zero_copy_only=False),
            b["v"].to_numpy(zero_copy_only=False).reshape(-1, 1).astype(np.int64),
        )

    def score(x, y):
        return x[:, 0] - y[:, 0], np.ones(len(x), dtype=bool)

    return {
        "minhash": lambda e, p: verify_edges(e, sigs, cfg, num_partitions=p),
        "payload": lambda e, p: verify_pairs_payload(
            e, vals, id_col="doc_id", extract=extract, score=score,
            value_col="d", value_type=pa.int64(), payload_dtype=np.int64,
            num_partitions=p,
        ),
        "exact_jaccard": lambda e, p: verify_edges_exact_jaccard(
            e, docs, cfg, num_partitions=p
        ),
    }


@pytest.mark.parametrize("entry", ["minhash", "payload", "exact_jaccard"])
def test_verify_join_left_side_is_distinct_pairs(monkeypatch, entry):
    """Spill pin: the pair task attaches a payload to each row it
    emits, so raw per-band edge multiplicity there re-creates the
    measured payload-times-multiplicity spill at 4M docs. Every entry
    point's pair tasks must emit exactly one row, with its payload, per
    distinct pair, however duplicated its input, and return only those
    P pieces (no payload shard)."""
    import pyarrow as pa

    from metacache_mpi_ray.functions.blocks import returned_refs
    from metacache_mpi_ray.stages import verify

    pairs = [(0, 1), (2, 3), (4, 5), (1, 7), (0, 9)]
    edges = rd.from_arrow(
        pa.table(
            {
                "a": pa.array([p[0] for p in pairs] * 5, type=pa.int64()),
                "b": pa.array([p[1] for p in pairs] * 5, type=pa.int64()),
            }
        )
    ).repartition(3)
    run = _verify_inputs()[entry]
    emitted = []
    real = verify._pair_task

    class Spy:
        def options(self, **kw):
            task = real.options(**kw)

            class Submit:
                def remote(self, *args):
                    out = task.remote(*args)
                    emitted.extend(returned_refs(out, kw["num_returns"]))
                    return out

            return Submit()

    monkeypatch.setattr(verify, "_pair_task", Spy())
    for p in (1, 3):
        emitted.clear()
        out = run(edges, p).to_pandas()
        rows = pa.concat_tables([t for t in ray.get(emitted) if t.num_rows])
        assert len(emitted) == p * p  # P pair tasks, P pieces each
        assert all(isinstance(t, pa.Table) and "b" in t.column_names for t in ray.get(emitted))
        assert rows.num_rows == len(pairs), p
        assert set(zip(rows["a"].to_pylist(), rows["b"].to_pylist())) == set(pairs)
        assert rows["pay_a"].null_count == 0
        assert len(out) <= len(pairs)
