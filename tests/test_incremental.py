"""Incremental query-against-persisted-index mode (the reference's
build-once/query-many shape, mode_query.cpp:404-455)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.pipelines.incremental import (
    build_index,
    query_against_index,
)
from metacache_mpi_ray.stages.ingest import ingest_documents, ingest_pages
from metacache_mpi_ray.state.checkpoint import ConfigMismatch


@pytest.fixture(scope="module")
def index_root(tmp_path_factory, corpus_dir):
    cfg = DedupConfig()
    root = str(tmp_path_factory.mktemp("qidx") / "root")
    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages"))
    clusters = build_index(docs, cfg, root, num_partitions=4)
    return root, clusters.to_pandas(), corpus_dir


def test_query_matches_copies_and_rejects_fresh(index_root):
    root, idx_clusters, corpus_dir = index_root
    pages = rd.read_parquet(f"{corpus_dir}/pages").to_pandas()
    # B = exact copies of 20 stored pages (new ids) + 20 fresh docs made
    # of an alien alphabet (shares no shingles with the corpus)
    copies = pages.head(20)
    b_tab = pa.table(
        {
            "doc_id": pa.array(
                list(range(10_000_000, 10_000_020))
                + list(range(20_000_000, 20_000_020)),
                type=pa.int64(),
            ),
            "text": pa.array(
                [
                    t if t is not None else ""
                    for t in copies["text"].where(
                        copies["text"].notna(), copies["html"].astype(str)
                    )
                ][:20]
                + [f"zzqx{i} " * 60 for i in range(20)],
                type=pa.string(),
            ),
        }
    )
    # resolve copies' text the same way ingest does (html fallback rows
    # carry the raw html string here; they just need to MATCH the index
    # only when the extracted text matches — so use only non-null rows)
    non_null = copies["text"].notna().to_numpy()
    b_docs = ingest_documents(rd.from_arrow(b_tab))
    out = query_against_index(b_docs, root, num_partitions=4).to_pandas()
    out = out.set_index("doc_id")
    # fresh docs never match
    for i in range(20_000_000, 20_000_020):
        assert not out.loc[i, "matched"]
        assert out.loc[i, "matched_cluster_id"] == -1
    # exact copies of resolved-text pages always match
    hits = [
        10_000_000 + j for j in range(20) if non_null[j]
    ]
    assert len(hits) >= 10
    for i in hits:
        assert out.loc[i, "matched"]
        assert out.loc[i, "matched_cluster_id"] >= 0


def test_matched_cluster_resolves_to_index_cluster(index_root):
    """A copy of a stored page must resolve to that page's own cluster
    in the persisted clusters artifact."""
    root, idx_clusters, corpus_dir = index_root
    pages = rd.read_parquet(f"{corpus_dir}/pages").to_pandas()
    row = pages[pages["text"].notna()].iloc[0]
    b_docs = ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([77_000_001], type=pa.int64()),
                    "text": pa.array([row["text"]], type=pa.string()),
                }
            )
        )
    )
    out = query_against_index(b_docs, root, num_partitions=4).to_pandas()
    assert bool(out["matched"].iloc[0])
    # the stored doc's id = hash(url); find its cluster via the url hash
    from metacache_mpi_ray.stages.ingest import _col_hash_i63

    stored_id = int(_col_hash_i63(pa.array([row["url"]]), seed=11)[0])
    stored_cluster = int(
        idx_clusters.set_index("doc_id").loc[stored_id, "cluster_id"]
    )
    assert int(out["matched_cluster_id"].iloc[0]) == stored_cluster


def test_query_all_fresh_batch_matches_nothing(index_root):
    """A batch where NO doc matches the index must return a full
    (matched=False, -1) frame — regression: the empty match groupby
    loses its schema on to_pandas() and used to raise KeyError."""
    root, _, _ = index_root
    b_docs = ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(30_000_000, 30_000_008), type=pa.int64()),
                    "text": pa.array(
                        [f"qwkx{i} vbzn{i} " * 40 for i in range(8)], type=pa.string()
                    ),
                }
            )
        )
    )
    out = query_against_index(b_docs, root, num_partitions=4).to_pandas()
    assert len(out) == 8
    assert not out["matched"].any()
    assert (out["matched_cluster_id"] == -1).all()


def test_query_probe_telemetry_and_sig_pruning(index_root):
    """Every query_against_index run appends a metrics.jsonl row with
    the candidate/verified/matched counts (r3 verdict item 9), and the
    verify tasks open signature shards only for candidate endpoints: a
    batch with zero candidate pairs reads ZERO corpus-signature files."""
    import json
    import os

    root, _, corpus_dir = index_root
    mpath = os.path.join(root, "metrics.jsonl")

    def probe_rows():
        if not os.path.exists(mpath):
            return []
        with open(mpath) as f:
            return [
                json.loads(l) for l in f if '"query_probe"' in l
            ]

    before = len(probe_rows())
    # alien-alphabet batch: no shingle overlap -> zero candidate pairs
    fresh = ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(40_000_000, 40_000_006), type=pa.int64()),
                    "text": pa.array(
                        [f"jjqv{i} xxwp{i} " * 40 for i in range(6)],
                        type=pa.string(),
                    ),
                }
            )
        )
    )
    out = query_against_index(fresh, root, num_partitions=4).to_pandas()
    assert not out["matched"].any()
    rows = probe_rows()
    assert len(rows) == before + 1
    r = rows[-1]
    assert r["status"] == "ok"
    assert r["n_candidate_pairs"] == 0
    assert r["n_verified"] == 0
    assert r["n_matched_new_docs"] == 0
    assert r["sig_files_read"] == 0  # zero corpus-signature bytes

    # a matching batch must verify and read at least one signature
    # file (only the shards its candidates' stored endpoints hash to)
    pages = rd.read_parquet(f"{corpus_dir}/pages").to_pandas()
    copy = pages[pages["text"].notna()].head(3)
    match_docs = ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(41_000_000, 41_000_003), type=pa.int64()),
                    "text": pa.array(list(copy["text"]), type=pa.string()),
                }
            )
        )
    )
    out2 = query_against_index(match_docs, root, num_partitions=4).to_pandas()
    assert out2["matched"].any()
    r2 = probe_rows()[-1]
    assert r2["n_candidate_pairs"] > 0
    assert r2["n_verified"] > 0
    assert 1 <= r2["sig_files_read"] <= r2["sig_files_total"]
    assert r2["stored_bytes_read"] > r["stored_bytes_read"] > 0


def test_query_ignores_new_x_new_pairs(index_root):
    """The daily graph also verifies the batch's new x new pairs (for the
    extend that may reuse it); a query answers and counts only new x
    stored pairs: two near-identical new docs with no stored match both
    come back unmatched, with zero candidate pairs and no
    'inconsistent' guard."""
    import json
    import os

    root, _, _ = index_root
    rng = np.random.default_rng(5)
    words = ["".join(rng.choice(list("qzxjvkw"), 6)) for _ in range(200)]
    twin = list(words)
    twin[100] = "kkkkkk"
    docs = ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([42_000_000, 42_000_001], type=pa.int64()),
                    "text": pa.array([" ".join(words), " ".join(twin)], type=pa.string()),
                }
            )
        )
    ).materialize()
    out = query_against_index(docs, root, num_partitions=4).to_pandas()
    assert len(out) == 2
    assert not out["matched"].any()
    assert (out["matched_cluster_id"] == -1).all()
    with open(os.path.join(root, "metrics.jsonl")) as f:
        r = [json.loads(l) for l in f if '"query_probe"' in l][-1]
    assert r["status"] == "ok"
    assert r["n_candidate_pairs"] == 0
    assert r["n_verified"] == 0
    # the twins did verify, as the new x new pair the graph keeps
    from metacache_mpi_ray.pipelines import incremental

    verified = pa.concat_tables(ray.get(incremental._last_batch[1].verified))
    assert verified.to_pydict()["a"] == [42_000_000]
    assert verified.to_pydict()["b_stored"] == [False]


def test_query_refuses_config_mismatch(index_root):
    root, _, _ = index_root
    other = DedupConfig(sim_threshold=0.9)
    b_docs = ingest_documents(
        rd.from_arrow(
            pa.table(
                {"doc_id": pa.array([1], type=pa.int64()),
                 "text": pa.array(["hello world"], type=pa.string())}
            )
        )
    )
    with pytest.raises(ConfigMismatch):
        query_against_index(b_docs, root, other)


def _count_executions(monkeypatch) -> list:
    """Calls of ``StreamingExecutor.execute`` (one per Ray Data
    execution) from here on."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    runs = []
    real = StreamingExecutor.execute

    def counted(self, *args, **kw):
        runs.append(1)
        return real(self, *args, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return runs


def _mtimes(root: str, stages) -> dict:
    import glob
    import os

    return {
        f: os.path.getmtime(f)
        for stage in stages
        for f in glob.glob(os.path.join(root, stage, "**", "*.parquet"), recursive=True)
    }


_INDEX_STAGES = ("signatures", "bands", "verified", "clusters")


def _canon(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)


def test_build_index_resumes_from_checkpoint(index_root, corpus_dir, monkeypatch):
    """Re-running build_index over a fully installed root runs no Ray
    Data execution and rewrites no stored file."""
    import os

    root, idx_clusters, _ = index_root
    for stage in _INDEX_STAGES:
        assert os.path.exists(os.path.join(root, f"{stage}.done"))
    before = _mtimes(root, _INDEX_STAGES)
    assert len(before) == 16
    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages"))
    runs = _count_executions(monkeypatch)
    again = build_index(docs, DedupConfig(), root, num_partitions=4)
    assert len(runs) == 0
    assert _mtimes(root, _INDEX_STAGES) == before
    pd.testing.assert_frame_equal(
        _canon(again), idx_clusters.sort_values("doc_id").reset_index(drop=True)
    )


def test_build_index_runs_one_ray_data_execution(tmp_path, corpus_dir, monkeypatch):
    """A fresh build is the flagship graph plus its sink: the only Ray
    Data execution is the one that produces ``docs``."""
    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages"))
    runs = _count_executions(monkeypatch)
    build_index(docs, DedupConfig(), str(tmp_path / "idx"), num_partitions=4)
    assert len(runs) == 1


def test_build_index_resumes_from_stored_signatures_and_bands(
    tmp_path, corpus_dir, monkeypatch
):
    """A build killed after installing signatures and bands (verified/,
    clusters/ and their markers gone, as tools/soak.py simulates) resumes
    from the stored files: ``docs`` is never executed, signatures and
    bands are not rewritten, and the clusters are the same."""
    import os
    import shutil

    from metacache_mpi_ray.pipelines.incremental import read_clusters

    root = str(tmp_path / "idx")
    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages"))
    want = _canon(build_index(docs, DedupConfig(), root, num_partitions=4))
    for stage in ("verified", "clusters"):
        shutil.rmtree(os.path.join(root, stage))
        os.remove(os.path.join(root, f"{stage}.done"))
    kept = _mtimes(root, ("signatures", "bands"))
    runs = _count_executions(monkeypatch)
    build_index(docs, DedupConfig(), root, num_partitions=4)
    assert len(runs) == 0
    assert _mtimes(root, ("signatures", "bands")) == kept
    pd.testing.assert_frame_equal(_canon(read_clusters(root)), want)


def _shard_tables(root: str, stage: str) -> list:
    import pyarrow.parquet as pq

    from metacache_mpi_ray.pipelines.incremental import index_shards, shard_files

    return [
        pa.concat_tables([pq.ParquetFile(f).read() for f in shard_files(root, stage, p)])
        for p in range(index_shards(root))
    ]


def test_build_index_files_match_the_stage_chain(tmp_path, corpus_dir):
    """At P = 1, 4 and 8 every index shard holds only rows of its shard,
    sorted by its key, and each stage's rows are the Dataset stage
    chain's and the in-process numpy reference's (the flagship oracles
    of tests/test_dedup_pipeline.py), with the band keys of their
    signatures."""
    from test_dedup_pipeline import _numpy_reference, _sorted_table, _stage_chain

    from metacache_mpi_ray.functions.blocks import split_by_key
    from metacache_mpi_ray.stages.banding import band_key_rows

    cfg = DedupConfig()
    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages")).materialize()
    sigs, verified, clusters = _stage_chain(docs, cfg, 4)
    bands = sigs.map_batches(lambda t: band_key_rows(t, cfg), batch_format="pyarrow")
    chain = {  # stage -> (chain output, sort keys, shard key)
        "signatures": (sigs, ["doc_id"], "doc_id"),
        "bands": (bands, ["bkey", "doc_id"], "bkey"),
        "verified": (verified, ["a", "b"], "b"),
        "clusters": (clusters, ["doc_id"], "doc_id"),
    }
    want = {stage: _sorted_table(ds, keys) for stage, (ds, keys, _) in chain.items()}
    assert want["verified"].num_rows > 0
    ref_sigs, ref_verified, ref_clusters = _numpy_reference(docs, cfg)
    ref = {
        "signatures": ref_sigs,
        "bands": band_key_rows(ref_sigs, cfg)
        .sort_by([("bkey", "ascending"), ("doc_id", "ascending")])
        .combine_chunks(),
        "verified": ref_verified,
        "clusters": ref_clusters,
    }
    for p_count in (1, 4, 8):
        root = str(tmp_path / f"idx{p_count}")
        build_index(docs, cfg, root, num_partitions=p_count)
        for stage, (_, keys, shard_key) in chain.items():
            tabs = _shard_tables(root, stage)
            assert len(tabs) == p_count, (stage, p_count)
            for p, t in enumerate(tabs):
                first = "a" if stage == "verified" else keys[0]
                assert t.equals(t.sort_by(first)), (stage, p)
                assert split_by_key(t, [shard_key], p_count)[p].num_rows == t.num_rows
            got = pa.concat_tables(tabs).sort_by([(k, "ascending") for k in keys])
            got = got.combine_chunks()
            assert got.equals(want[stage]), (stage, p_count, "chain")
            assert got.equals(ref[stage]), (stage, p_count, "reference")


def test_incremental_agrees_with_full_recompute(tmp_path, corpus_dir):
    """dedup(A) + query(B vs A) must agree with dedup(A ∪ B) on which B
    docs are duplicates of A — the oracle recomputation check."""
    from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline

    cfg = DedupConfig()
    pages = rd.read_parquet(f"{corpus_dir}/pages").to_pandas()
    pages = pages[pages["text"].notna()].reset_index(drop=True)
    n = len(pages)
    a_df = pages.iloc[: n // 2]
    a_tab = pa.table(
        {
            "doc_id": pa.array(np.arange(len(a_df)), type=pa.int64()),
            "text": pa.array(a_df["text"].tolist(), type=pa.string()),
        }
    )
    # B: copies of 15 A docs + 15 fresh alien docs
    b_texts = a_df["text"].head(15).tolist() + [f"qj{i}w " * 80 for i in range(15)]
    b_tab = pa.table(
        {
            "doc_id": pa.array(np.arange(len(b_texts)) + 1_000_000, type=pa.int64()),
            "text": pa.array(b_texts, type=pa.string()),
        }
    )
    root = str(tmp_path / "idx")
    a_docs = ingest_documents(rd.from_arrow(a_tab))
    build_index(a_docs, cfg, root, num_partitions=4)
    b_docs = ingest_documents(rd.from_arrow(b_tab))
    got = (
        query_against_index(b_docs, root, num_partitions=4)
        .to_pandas()
        .set_index("doc_id")["matched"]
    )

    # full recompute over A ∪ B
    both = ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.concat_arrays(
                        [a_tab["doc_id"].combine_chunks(), b_tab["doc_id"].combine_chunks()]
                    ),
                    "text": pa.concat_arrays(
                        [a_tab["text"].combine_chunks(), b_tab["text"].combine_chunks()]
                    ),
                }
            )
        )
    )
    full = near_dup_pipeline(both, cfg, num_partitions=4).clusters.to_pandas()
    full = full.set_index("doc_id")
    a_ids = set(a_tab["doc_id"].to_pylist())
    cluster_members: dict[int, list[int]] = {}
    for d, c in full["cluster_id"].items():
        cluster_members.setdefault(int(c), []).append(int(d))
    for bid in b_tab["doc_id"].to_pylist():
        c = int(full.loc[bid, "cluster_id"])
        has_a_partner = any(m in a_ids for m in cluster_members[c] if m != bid)
        assert bool(got.loc[bid]) == has_a_partner, bid


BLOCKS_X_PARTITIONS = [(k, p) for k in (1, 3, 8) for p in (1, 2, 5)]


def _probe_sharded(tab: pa.Table, k: int, p: int, cap: int):
    """The daily probe's layout: ``tab`` cut into k batch blocks, each
    split by shard of bkey (blocks.split_by_key), and the bucket kernel
    run on each shard's concatenated pieces."""
    from metacache_mpi_ray.functions.blocks import split_by_key
    from metacache_mpi_ray.pipelines.incremental import probe_bucket_pairs

    bounds = np.linspace(0, tab.num_rows, k + 1).astype(int)
    pieces = [
        split_by_key(tab.slice(lo, hi - lo), ["bkey"], p)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    shards = [pa.concat_tables([blk[q] for blk in pieces]) for q in range(p)]
    pairs = [
        probe_bucket_pairs(*(t[c].to_numpy() for c in ("bkey", "id", "side")), cap)
        for t in shards
    ]
    return pd.DataFrame(
        {"a": np.concatenate([a for a, _ in pairs]), "b": np.concatenate([b for _, b in pairs])}
    )


def test_probe_bridge_stitch_across_batch_boundary():
    """A band bucket spread over many input blocks must emit its full
    new x stored cross product and its new x new pairs at every shard
    count, and a bucket over the cap (stored + new rows) must emit
    nothing."""
    # bucket bkey=5: stored {1,2,3} + new {11,12,13}; bucket bkey=9:
    # stored {4} + new {14}
    tab = pa.table(
        {
            "bkey": pa.array([5] * 6 + [9] * 2, type=pa.int64()),
            "id": pa.array([1, 2, 3, 11, 12, 13, 4, 14], type=pa.int64()),
            "side": pa.array([0, 0, 0, 1, 1, 1, 0, 1], type=pa.int8()),
        }
    )
    want = {(n, s) for n in (11, 12, 13) for s in (1, 2, 3)} | {(14, 4)}
    want |= {(11, 12), (11, 13), (12, 13)}
    for k, p in BLOCKS_X_PARTITIONS:
        pairs = _probe_sharded(tab, k, p, cap=256)
        assert set(zip(pairs["a"], pairs["b"])) == want, (k, p)
        assert len(pairs) == len(want), (k, p)
        # bucket 5 has 6 members > cap=4: none of its pairs; bucket 9
        # (2 members) survives intact
        capped = _probe_sharded(tab, k, p, cap=4)
        assert set(zip(capped["a"], capped["b"])) == {(14, 4)}, (k, p)


def test_probe_emit_new_new_across_batch_boundaries():
    """The probe emits every (new x new) and (new x stored) pair of a
    bucket within the cap (extend needs both), and no
    pair of an over-cap bucket, whatever the input block count and
    shard count — compared against a brute-force enumeration."""
    import itertools

    rng = np.random.default_rng(7)
    rows = []
    # 6 buckets with varying stored/new mixes, incl. new-only and
    # stored-only buckets and one over-cap bucket
    specs = [(5, 3, 3), (9, 1, 1), (12, 0, 4), (15, 2, 0), (21, 4, 5), (30, 1, 2)]
    next_id = 1
    for bkey, n_stored, n_new in specs:
        for s in range(n_stored):
            rows.append((bkey, next_id, 0)); next_id += 1
        for nn in range(n_new):
            rows.append((bkey, 100 + next_id, 1)); next_id += 1
    perm = rng.permutation(len(rows))
    tab = pa.table(
        {
            "bkey": pa.array([rows[i][0] for i in perm], type=pa.int64()),
            "id": pa.array([rows[i][1] for i in perm], type=pa.int64()),
            "side": pa.array([rows[i][2] for i in perm], type=pa.int8()),
        }
    )
    # brute force: buckets <= cap emit EVERY pair, over-cap buckets none
    want_min = set()
    cap = 8
    by_key: dict[int, list[tuple[int, int]]] = {}
    for bkey, i, side in rows:
        by_key.setdefault(bkey, []).append((i, side))
    for bkey, members in by_key.items():
        new = sorted(i for i, s in members if s == 1)
        stored = sorted(i for i, s in members if s == 0)
        if len(members) <= cap:
            want_min |= {(n, s) for n in new for s in stored}
            want_min |= set(itertools.combinations(new, 2))
    assert len(by_key[21]) > cap  # the over-cap bucket is exercised
    for k, p in BLOCKS_X_PARTITIONS:
        pairs = _probe_sharded(tab, k, p, cap=cap)
        got = set(zip(pairs["a"], pairs["b"]))
        assert got == want_min, (k, p, got ^ want_min)


def test_query_with_tiny_probe_batches_matches_default(index_root):
    """End-to-end: the query result must not depend on how the batch is
    split into blocks or on the probe's partition count, and it holds
    one row per batch doc in the batch's block order."""
    from metacache_mpi_ray.pipelines.incremental import query_against_index

    root, _, corpus_dir = index_root
    pages = rd.read_parquet(f"{corpus_dir}/pages").to_pandas()
    sub = pages.head(12).copy()
    sub["url"] = "http://q.example/" + sub.index.astype(str)
    new_docs = ingest_pages(rd.from_pandas(sub)).materialize()
    base = query_against_index(new_docs, root, num_partitions=4).to_pandas()
    b = base.sort_values("doc_id").reset_index(drop=True)
    assert b["matched"].any()
    for k, p in BLOCKS_X_PARTITIONS:
        batch = new_docs.repartition(k).materialize()
        assert batch.num_blocks() == k
        got = query_against_index(batch, root, num_partitions=p).to_pandas()
        assert list(got["doc_id"]) == list(batch.to_pandas()["doc_id"]), (k, p)
        t = got.sort_values("doc_id").reset_index(drop=True)
        assert (b["doc_id"] == t["doc_id"]).all(), (k, p)
        assert (b["matched"] == t["matched"]).all(), (k, p)
        assert (b["matched_cluster_id"] == t["matched_cluster_id"]).all(), (k, p)


def test_repl_index_agrees_with_batch_query(index_root):
    """S13 analog: per-line interactive lookups must agree with the
    batch query path on matched/unmatched and resolve to the same
    stored cluster."""
    from metacache_mpi_ray.pipelines.incremental import (
        ReplIndex,
        query_against_index,
    )

    root, idx_clusters, corpus_dir = index_root
    pages = rd.read_parquet(f"{corpus_dir}/pages").to_pandas()
    sub = pages.head(10).copy()
    sub["url"] = "http://repl.example/" + sub.index.astype(str)
    new_docs = ingest_pages(rd.from_pandas(sub))
    batch = (
        query_against_index(new_docs, root, num_partitions=4)
        .to_pandas()
        .merge(new_docs.to_pandas()[["doc_id", "norm_text"]], on="doc_id")
    )
    repl = ReplIndex(root)
    n_matched = 0
    for _, r in batch.iterrows():
        got = repl.query(r["norm_text"])
        assert got["matched"] == bool(r["matched"]), r["doc_id"]
        if got["matched"]:
            n_matched += 1
            clusters = {m["cluster_id"] for m in got["matches"]}
            assert int(r["matched_cluster_id"]) in clusters
    assert n_matched > 0
    # unknown text stays unmatched
    assert repl.query("never seen text " * 30)["matched"] is False

    # raw, un-normalized text (mixed case, whitespace runs, an entity,
    # accents) is normalized and signed as the batch path's documents
    stored = pages[pages["text"].notna()]["text"].head(6).tolist()
    raw = [
        "  " + "\t".join(w.upper() if i % 3 == 0 else w for i, w in enumerate(t.split(" ")))
        + " \n\n "
        for t in stored[:3]
    ] + [
        t.replace(" ", "   ", 5) + " Café &amp; naïve ÉTÉ"
        for t in stored[3:]
    ] + ["Brand-NEW   téxt &amp; Nothing\n\nlike it " * 20]
    raw_ids = list(range(40_000_000, 40_000_000 + len(raw)))
    batch = (
        query_against_index(
            ingest_documents(
                rd.from_arrow(
                    pa.table({"doc_id": pa.array(raw_ids, pa.int64()), "text": raw})
                )
            ),
            root,
            num_partitions=4,
        )
        .to_pandas()
        .set_index("doc_id")
    )
    n_matched = 0
    for i, text in zip(raw_ids, raw):
        got = repl.query(text)
        assert got["matched"] == bool(batch.loc[i, "matched"]), i
        if got["matched"]:
            n_matched += 1
            assert int(batch.loc[i, "matched_cluster_id"]) in {
                m["cluster_id"] for m in got["matches"]
            }
    assert n_matched >= 3
def test_repl_index_refuses_pre_format2_root(index_root, tmp_path):
    """An index without a format-2 index.json (an older unsharded
    writer's, e.g. without a bands artifact) is refused by the REPL and
    the batch query with ConfigMismatch — never misread through a
    fallback."""
    import os
    import shutil

    from metacache_mpi_ray.pipelines.incremental import ReplIndex

    root, _, corpus_dir = index_root
    old_root = str(tmp_path / "old_index")
    shutil.copytree(root, old_root)
    os.remove(f"{old_root}/index.json")
    with pytest.raises(ConfigMismatch, match="rebuild with build_index"):
        ReplIndex(old_root)
    pages = rd.read_parquet(f"{corpus_dir}/pages").to_pandas()
    sub = pages.head(3).copy()
    sub["url"] = "http://old.example/" + sub.index.astype(str)
    with pytest.raises(ConfigMismatch, match="rebuild with build_index"):
        query_against_index(ingest_pages(rd.from_pandas(sub)), old_root)
    assert ReplIndex(root).query(pages[pages["text"].notna()]["text"].iloc[0])["matched"]


def test_repl_index_honors_bucket_cap(tmp_path):
    """Over-cap buckets are non-discriminative and skipped by the batch
    probe; the repl must apply the same policy (it used to scan them
    and report matched=True where the batch path says False)."""
    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.pipelines.incremental import (
        ReplIndex,
        build_index,
        query_against_index,
    )

    cfg = DedupConfig(bucket_cap=3)
    body = "identical boilerplate body repeated " * 20
    corpus = ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(10), type=pa.int64()),
                    "text": pa.array([body] * 10, type=pa.string()),
                }
            )
        )
    )
    root = str(tmp_path / "capidx")
    build_index(corpus, cfg, root, num_partitions=2)
    probe_doc = ingest_documents(
        rd.from_arrow(
            pa.table(
                {"doc_id": pa.array([999], type=pa.int64()),
                 "text": pa.array([body], type=pa.string())}
            )
        )
    )
    batch = query_against_index(probe_doc, root, num_partitions=2).to_pandas()
    repl = ReplIndex(root).query(body)
    # every band bucket holds all 10 identical docs > cap 3: both paths
    # must agree the probe matches nothing
    assert not batch["matched"].iloc[0]
    assert repl["matched"] is False or repl["matched"] == False  # noqa: E712


def test_repl_index_breaks_top_k_ties_by_doc_id(tmp_path):
    """Matches tied on est_sim rank by doc_id, ascending (the rule of
    ``ann.brute_force_topk``): 100 exact copies of one page give the 5
    smallest ids, not whichever 5 an unstable sort leaves in front."""
    from metacache_mpi_ray.pipelines.incremental import ReplIndex, build_index

    body = "one page stored a hundred times over in the index " * 10
    ids = np.arange(1, 101, dtype=np.int64) * 7
    corpus = ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(ids, type=pa.int64()),
                    "text": pa.array([body] * len(ids), type=pa.string()),
                }
            )
        )
    )
    root = str(tmp_path / "tieidx")
    build_index(corpus, DedupConfig(), root, num_partitions=4)
    got = ReplIndex(root).query(body, top_k=5)["matches"]
    assert [m["est_sim"] for m in got] == [1.0] * 5
    assert [m["doc_id"] for m in got] == [7, 14, 21, 28, 35]


@pytest.mark.parametrize("n_stored, matched", [(2, True), (3, False)])
def test_repl_index_cap_counts_the_query_doc(tmp_path, n_stored, matched):
    """A bucket's size includes the query doc on both paths: with
    bucket_cap=3, 2 identical stored docs + the query fit the cap and
    match, 3 + the query do not (the repl used to keep a bucket of
    exactly ``cap`` stored docs that the batch probe drops)."""
    from metacache_mpi_ray.pipelines.incremental import ReplIndex

    cfg = DedupConfig(bucket_cap=3)
    body = "identical boilerplate body repeated " * 20
    corpus = ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(n_stored), type=pa.int64()),
                    "text": pa.array([body] * n_stored, type=pa.string()),
                }
            )
        )
    )
    root = str(tmp_path / "capidx")
    build_index(corpus, cfg, root, num_partitions=2)
    probe_doc = ingest_documents(
        rd.from_arrow(
            pa.table(
                {"doc_id": pa.array([999], type=pa.int64()),
                 "text": pa.array([body], type=pa.string())}
            )
        )
    )
    batch = query_against_index(probe_doc, root, num_partitions=2).to_pandas()
    repl = ReplIndex(root).query(body)
    assert bool(batch["matched"].iloc[0]) is matched
    assert repl["matched"] is matched


def test_repl_index_ram_guard(index_root):
    """ReplIndex refuses (with the artifact byte count, not an OOM) to
    load an index whose on-disk artifacts exceed max_bytes; 0 disables
    the guard; the env override is honored (r4 review item)."""
    import pytest

    from metacache_mpi_ray.pipelines.incremental import ReplIndex

    root, _, _ = index_root
    with pytest.raises(MemoryError, match="bytes on disk"):
        ReplIndex(root, max_bytes=16)
    assert ReplIndex(root, max_bytes=0).sig_ids is not None  # disabled
    import os as _os

    _os.environ["METACACHE_REPL_MAX_BYTES"] = "16"
    try:
        with pytest.raises(MemoryError):
            ReplIndex(root)
    finally:
        del _os.environ["METACACHE_REPL_MAX_BYTES"]
    assert ReplIndex(root).cl_ids is not None  # default limit: loads


def test_build_index_shard_files_are_byte_reproducible(tmp_path, corpus_dir):
    """The same corpus built twice (P = 4, 7 input blocks, whose arrival
    order varies) writes byte-identical signature, band and cluster
    shard files: every shard is sorted, not left in arrival order."""
    import glob
    import os

    roots = []
    for run in range(2):
        root = str(tmp_path / f"idx{run}")
        docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages")).repartition(7)
        build_index(docs, DedupConfig(), root, num_partitions=4)
        roots.append(root)
    for stage in ("signatures", "bands", "clusters"):
        names = [
            sorted(os.path.relpath(f, r) for f in glob.glob(f"{r}/{stage}/*/*.parquet"))
            for r in roots
        ]
        assert names[0] == names[1] and len(names[0]) == 4
        for rel in names[0]:
            a, b = (open(os.path.join(r, rel), "rb").read() for r in roots)
            assert a == b, rel


def test_build_index_of_an_empty_corpus(tmp_path):
    """Zero docs build a whole index: every stage installed with one
    typed empty file per shard. Queries against it match nothing, and
    extending it gives the clusters of a build over the batch."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from metacache_mpi_ray.pipelines.extend import extend_index
    from metacache_mpi_ray.pipelines.incremental import read_clusters

    cfg = DedupConfig()
    empty = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    root = str(tmp_path / "empty")
    build_index(ingest_documents(rd.from_arrow(empty)), cfg, root, num_partitions=4)
    want_cols = {
        "signatures": ["doc_id", "text_hash", "n_chars", "sig"],
        "bands": ["bkey", "doc_id"],
        "verified": ["a", "b", "est_sim"],
        "clusters": ["doc_id", "cluster_id", "is_dup"],
    }
    for stage, cols in want_cols.items():
        assert os.path.exists(os.path.join(root, f"{stage}.done")), stage
        tabs = _shard_tables(root, stage)
        assert len(tabs) == 4 and all(t.num_rows == 0 for t in tabs), stage
        assert all(t.column_names == cols for t in tabs), stage
    assert pq.read_schema(
        os.path.join(root, "signatures", "0", "part-0.parquet")
    ).field("sig").type == pa.list_(pa.uint64(), cfg.n_perms)
    assert read_clusters(root).count() == 0

    texts = ["alpha beta gamma delta " * 20, "alpha beta gamma delta " * 20 + "x",
             "zz qq ww ee " * 30, "lorem ipsum dolor " * 25]
    batch = pa.table({"doc_id": pa.array([11, 12, 13, 14], pa.int64()),
                      "text": pa.array(texts, pa.string())})
    got = query_against_index(ingest_documents(rd.from_arrow(batch)), root, cfg).to_pandas()
    assert sorted(got["doc_id"]) == [11, 12, 13, 14]
    assert not got["matched"].any() and (got["matched_cluster_id"] == -1).all()

    ext = str(tmp_path / "ext")
    shutil.copytree(root, ext)
    extend_index(ingest_documents(rd.from_arrow(batch)), ext, cfg)
    rebuilt = str(tmp_path / "rebuilt")
    build_index(ingest_documents(rd.from_arrow(batch)), cfg, rebuilt, num_partitions=4)
    pd.testing.assert_frame_equal(_canon(read_clusters(ext)), _canon(read_clusters(rebuilt)))
    assert _canon(read_clusters(ext))["is_dup"].sum() == 2
