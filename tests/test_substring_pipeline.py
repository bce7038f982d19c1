"""Substring-dedup integration + hot-bucket cap + verify against
in-process oracles."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline
from metacache_mpi_ray.stages.ingest import ingest_pages

CFG = DedupConfig()


def _table(ds) -> pa.Table:
    return pa.concat_tables([b for b in ray.get(ds.to_arrow_refs()) if b.num_rows])


def test_substring_stage_clusters_long_shared_spans(corpus_dir):
    truth = pq.read_table(f"{corpus_dir}/truth.parquet").to_pandas()
    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages")).materialize()

    plain = near_dup_pipeline(docs, CFG, num_partitions=4)
    withsub = near_dup_pipeline(docs, CFG, num_partitions=4, include_substring=True)

    docs_pd = docs.to_pandas()[["doc_id", "url"]]

    def clustered_truth_groups(res):
        cl = res.clusters.to_pandas().merge(docs_pd, on="doc_id").merge(truth, on="url")
        sub = cl[cl["dup_kind"] == "substring"]
        grp = sub.groupby("true_cluster")["cluster_id"].nunique()
        return (grp == 1).mean(), len(grp)

    frac_plain, n_groups = clustered_truth_groups(plain)
    frac_sub, _ = clustered_truth_groups(withsub)
    assert n_groups >= 3
    # substring pairs share a long exact span but low whole-doc Jaccard:
    # the substring stage must connect (almost) all of them
    assert frac_sub >= 0.9
    assert frac_sub >= frac_plain


def _hot_bucket_ds():
    """200 rows all landing in ONE bucket (same key)."""
    return rd.from_arrow(
        pa.table(
            {
                "k": pa.array([7] * 200, type=pa.int64()),
                "doc_id": pa.array(range(200), type=pa.int64()),
            }
        )
    )


def test_hot_bucket_policies():
    from metacache_mpi_ray.stages.candidates import bucket_edges

    ds = _hot_bucket_ds()
    drop = bucket_edges(ds, ["k"], cap=50).to_pandas()
    assert len(drop) == 0  # reference semantics: overpopulated key cleared


def test_verify_join_strategy_matches_broadcast(corpus_dir):
    """verify_edges (the flagship's verify step, whose pair and score
    tasks join the edges with the signatures on ``a`` then ``b``) equals
    a in-process broadcast lookup of every signature, at P = 1 and 4."""
    from test_verify_parity import oracle, verified_rows

    from metacache_mpi_ray.stages.banding import compute_bands
    from metacache_mpi_ray.stages.candidates import bucket_edges, dedupe_edges
    from metacache_mpi_ray.stages.signatures import compute_signatures, sig_from_arrow
    from metacache_mpi_ray.stages.verify import verify_edges

    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages"))
    sigs = compute_signatures(docs, CFG, batch_size=1024).materialize()
    edges = dedupe_edges(
        bucket_edges(
            compute_bands(sigs, CFG), ["band_id", "band_hash"], cap=CFG.bucket_cap
        ),
        num_partitions=4,
    ).materialize()
    st = _table(sigs)
    mat = sig_from_arrow(st["sig"])

    def score(i, j):
        est = float((mat[i] == mat[j]).mean())
        return est, est >= CFG.verify_threshold

    want = oracle(_table(edges), st["doc_id"].to_pylist(), score, "est_sim")
    assert len(want) > 50
    for p in (1, 4):
        got = verified_rows(verify_edges(edges, sigs, CFG, num_partitions=p), "est_sim")
        assert got == want, p


def test_exact_jaccard_verification(corpus_dir):
    from metacache_mpi_ray.stages.banding import compute_bands
    from metacache_mpi_ray.stages.candidates import bucket_edges, dedupe_edges
    from metacache_mpi_ray.stages.signatures import compute_signatures
    from metacache_mpi_ray.stages.verify import verify_edges_exact_jaccard

    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages")).materialize()
    sigs = compute_signatures(docs, CFG, batch_size=1024).materialize()
    edges = dedupe_edges(
        bucket_edges(
            compute_bands(sigs, CFG), ["band_id", "band_hash"], cap=CFG.bucket_cap
        ),
        num_partitions=4,
    ).materialize()
    vx = verify_edges_exact_jaccard(edges, docs, CFG).to_pandas()
    assert len(vx) > 50
    assert (vx["jaccard"] >= CFG.sim_threshold).all()


def test_distributed_cluster_method_matches_driver(corpus_dir, monkeypatch):
    from metacache_mpi_ray.stages import cluster

    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages")).materialize()
    d = near_dup_pipeline(docs, CFG, num_partitions=4).clusters.to_pandas()
    # a limit of 0 verified edges sends every run to distributed components
    monkeypatch.setattr(cluster, "CLUSTER_DRIVER_EDGE_LIMIT", 0)
    x = near_dup_pipeline(docs, CFG, num_partitions=4).clusters.to_pandas()
    m = d.sort_values("doc_id").reset_index(drop=True)
    k = x.sort_values("doc_id").reset_index(drop=True)
    assert (m["cluster_id"].values == k["cluster_id"].values).all()
    assert (m["is_dup"].values == k["is_dup"].values).all()


def test_scored_substring_edges_estimates_shared_span():
    """A1 full analog: the contiguous-run score must track the TRUE
    longest-common-substring length on planted partial overlaps and
    stay silent on unrelated docs."""
    from metacache_mpi_ray.functions.text import normalize_text_py
    from metacache_mpi_ray.stages.ingest import ingest_documents
    from metacache_mpi_ray.stages.substring import (
        lcs_len_hashed,
        scored_substring_edges,
    )

    rng = np.random.default_rng(17)
    words = [f"w{i}" for i in range(600)]

    def mk(n):
        return " ".join(words[int(rng.integers(0, 600))] for _ in range(n))

    shared = mk(150)  # ~ 500+ chars shared span
    texts = {
        1: mk(120) + " " + shared + " " + mk(100),
        2: mk(90) + " " + shared + " " + mk(130),
        3: mk(200),   # unrelated
        4: mk(210),   # unrelated
    }
    tab = pa.table(
        {
            "doc_id": pa.array(list(texts), type=pa.int64()),
            "text": pa.array(list(texts.values()), type=pa.string()),
        }
    )
    docs = ingest_documents(rd.from_arrow(tab))
    out = scored_substring_edges(docs, CFG, num_partitions=4).to_pandas()
    # exactly the planted pair survives the min_match_len filter
    assert len(out) == 1
    assert (int(out["a"][0]), int(out["b"][0])) == (1, 2)
    exact = lcs_len_hashed(
        normalize_text_py(texts[1]).encode(), normalize_text_py(texts[2]).encode()
    )
    est = int(out["est_span"][0])
    # run-estimate brackets the true span: anchors under-cover the ends
    # by at most ~anchor_len + sampling slack each side, never overshoot
    # beyond one max_gap bridge
    assert exact >= CFG.min_match_len
    assert 0.6 * exact <= est <= 1.3 * exact


def test_anchor_ambiguity_filter_drops_cross_host_boilerplate():
    """D4 wired into the substring pipeline: a footer shared across
    many hosts must not produce candidate edges, while a genuine long
    match within one host still does."""
    from metacache_mpi_ray.stages.ingest import ingest_pages
    from metacache_mpi_ray.stages.substring import anchor_candidates

    rng = np.random.default_rng(21)
    words = [f"w{i}" for i in range(400)]

    def mk(n):
        return " ".join(words[int(rng.integers(0, 400))] for _ in range(n))

    footer = mk(60)          # boilerplate on every host
    shared = mk(120)         # genuine shared span, one host only
    pages = []
    for h in range(6):
        for p in range(2):
            body = mk(100)
            extra = (" " + shared) if (h == 0) else ""
            pages.append(
                (f"https://host{h}.example/p{p}", body + extra + " " + footer)
            )
    tab = pa.table(
        {
            "url": pa.array([u for u, _ in pages]),
            "html": pa.array([None] * len(pages), type=pa.binary()),
            "text": pa.array([t for _, t in pages], type=pa.string()),
        }
    )
    docs = ingest_pages(rd.from_arrow(tab)).materialize()
    loose = anchor_candidates(docs, CFG, num_partitions=4).to_pandas()
    strict = anchor_candidates(docs, CFG, num_partitions=4, max_hosts=3).to_pandas()
    # without the filter the footer connects docs across hosts
    assert len(loose) > len(strict)
    # the genuine pair on host0 (sharing `shared`) survives the filter
    ids = docs.to_pandas().set_index("url")["doc_id"]
    a, b = sorted([ids["https://host0.example/p0"], ids["https://host0.example/p1"]])
    assert ((strict["a"] == a) & (strict["b"] == b)).any()
    # and no strict edge links docs of different hosts
    host_of = {
        r["doc_id"]: r["url"].split("/")[2]
        for _, r in docs.to_pandas().iterrows()
    }
    assert all(host_of[r["a"]] == host_of[r["b"]] for _, r in strict.iterrows())


def _layouts():
    """Input block count x exchange partition count."""
    return [(k, p) for k in (1, 3, 8) for p in (1, 2, 5)]


def test_scored_substring_pair_bridge_stitch():
    """The planted pair and its span estimate are identical at every
    block layout: both exchanges (anchor buckets, then (a, b) pairs)
    see their key groups whole, so no split bucket or diagonal run is
    scored per fragment."""
    from metacache_mpi_ray.stages.ingest import ingest_documents
    from metacache_mpi_ray.stages.substring import scored_substring_edges

    rng = np.random.default_rng(23)
    words = [f"w{i}" for i in range(600)]

    def mk(n):
        return " ".join(words[int(rng.integers(0, 600))] for _ in range(n))

    shared = mk(150)
    tab = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [mk(80) + " " + shared, shared + " " + mk(70), mk(200)],
                type=pa.string(),
            ),
        }
    )
    docs = ingest_documents(rd.from_arrow(tab)).materialize()

    def run(k, parts):
        out = scored_substring_edges(
            docs.repartition(k), CFG, num_partitions=parts
        ).to_pandas()
        return sorted(zip(out["a"], out["b"], out["est_span"]))

    base = run(1, 1)
    assert [(a, b) for a, b, _ in base] == [(1, 2)]
    for k, parts in _layouts():
        assert run(k, parts) == base, (k, parts)


def test_cluster_lcs_report_matches_pandas_reference_across_batch_sizes(monkeypatch):
    """The cluster_id hash exchange must reproduce the per-cluster
    rep-vs-member LCS exactly at every block layout, including clusters
    spread over several input blocks (the map-side head truncation is
    exact)."""
    from metacache_mpi_ray.stages import joins
    from metacache_mpi_ray.stages.substring import (
        cluster_lcs_report,
        lcs_len_hashed,
    )

    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(200)]

    def mk(n):
        return " ".join(words[int(rng.integers(0, 200))] for _ in range(n))

    rows = []
    for cid in range(6):
        base = mk(40)
        for j in range(int(rng.integers(1, 5))):
            # member texts share a prefix with the rep
            rows.append((cid, cid * 100 + j, base[: len(base) - 5 * j] + " " + mk(6)))
    df = pd.DataFrame(rows, columns=["cluster_id", "doc_id", "norm_text"])

    # pandas reference
    want = set()
    for cid, g in df.groupby("cluster_id"):
        g = g.sort_values("doc_id").head(8)
        if len(g) < 2:
            continue
        rep = g.iloc[0]["norm_text"].encode()
        for _, r in g.iloc[1:].iterrows():
            want.add(
                (int(cid), int(r["doc_id"]), lcs_len_hashed(rep, r["norm_text"].encode()))
            )

    ds = rd.from_pandas(df.sample(frac=1.0, random_state=7))  # shuffled input
    for k, parts in _layouts():
        monkeypatch.setattr(joins, "default_num_partitions", lambda: parts)
        got_df = cluster_lcs_report(ds.repartition(k), min_cluster=2, max_members=8)
        got = set(
            zip(*[got_df.to_pandas()[c] for c in ["cluster_id", "doc_id", "lcs_with_rep"]])
        )
        assert got == want, (k, parts)


def test_exact_jaccard_join_strategy_matches_broadcast(corpus_dir):
    """verify_edges_exact_jaccard equals a in-process oracle that looks
    every doc's text up and takes the exact Jaccard of its byte k-gram
    sets, at P = 1 and 4."""
    from test_verify_parity import oracle, shingle_jaccard, verified_rows

    from metacache_mpi_ray.stages.banding import compute_bands
    from metacache_mpi_ray.stages.candidates import bucket_edges, dedupe_edges
    from metacache_mpi_ray.stages.signatures import compute_signatures
    from metacache_mpi_ray.stages.verify import verify_edges_exact_jaccard

    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages")).materialize()
    sigs = compute_signatures(docs, CFG, batch_size=1024).materialize()
    edges = dedupe_edges(
        bucket_edges(
            compute_bands(sigs, CFG), ["band_id", "band_hash"], cap=CFG.bucket_cap
        ),
        num_partitions=4,
    ).materialize()
    dt = _table(docs)
    jac = shingle_jaccard(dt["norm_text"].to_pylist(), CFG.shingle_k)

    def score(i, j):
        return jac(i, j), jac(i, j) >= CFG.sim_threshold

    want = oracle(_table(edges), dt["doc_id"].to_pylist(), score, "jaccard")
    assert len(want) > 50
    for p in (1, 4):
        got = verified_rows(
            verify_edges_exact_jaccard(edges, docs, CFG, num_partitions=p), "jaccard"
        )
        assert got == want, p


def test_emit_bucket_pairs_bridge_rows_bounded_and_stitch_exact():
    """A 100-member anchor bucket at pair_cap=4 yields exactly the pairs
    of its 4 smallest-splitmix64(id) members, with their diagonals and
    a-side positions, at every block layout (the bucket is sampled
    whole, never per fragment)."""
    from metacache_mpi_ray.functions.blocks import hash_exchange
    from metacache_mpi_ray.functions.hashing import U64, splitmix64
    from metacache_mpi_ray.stages.substring import _bucket_pairs

    cap = 4
    n_hot = 100
    ids = np.arange(1, n_hot + 1, dtype=np.int64)
    pos = np.arange(n_hot, dtype=np.int64) * 3
    t = pa.table(
        {"anchor_hash": pa.array(np.full(n_hot, 77, dtype=np.int64)),
         "doc_id": pa.array(ids), "pos": pa.array(pos)}
    )
    sample = ids[np.argsort(splitmix64(ids.view(U64)))[:cap]]
    pos_of = dict(zip(ids.tolist(), pos.tolist()))
    want = {
        (a, b, pos_of[a] - pos_of[b], pos_of[a])
        for a in sample.tolist()
        for b in sample.tolist()
        if a < b
    }
    assert len(want) == cap * (cap - 1) // 2
    for k, parts in _layouts():
        out = hash_exchange(
            rd.from_arrow(t).repartition(k),
            ["anchor_hash"],
            _bucket_pairs(cap),
            num_partitions=parts,
        ).to_pandas()
        got = list(zip(*[out[c].tolist() for c in ["a", "b", "diag", "pos_a"]]))
        assert sorted(got) == sorted(want), (k, parts)
