"""functions/blocks.hash_exchange — the keyed all-to-all over plain Ray
tasks that pair dedup, the index probe, the joins, and the bucket,
segment and grouped stages run on."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data as rd

from metacache_mpi_ray.functions.blocks import hash_exchange


def _census():
    """reduce: (key, n rows) per distinct key of the partition. Built
    in a closure so workers receive it by value (test modules are not
    importable there)."""

    def census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"k": pa.array([], type=pa.int64()), "n": pa.array([], type=pa.int64())}
            )
        keys, counts = np.unique(t["k"].to_numpy(), return_counts=True)
        return pa.table(
            {"k": pa.array(keys, type=pa.int64()), "n": pa.array(counts, type=pa.int64())}
        )

    return census


def _blocks(ds) -> list[pa.Table]:
    return [ray.get(r) for r in ds.to_arrow_refs()]


def _check_whole_keys(out_blocks, keys: np.ndarray):
    """Every key sits in exactly one output block with its full count."""
    got = pa.concat_tables([b for b in out_blocks if b.num_rows])
    want_k, want_n = np.unique(keys, return_counts=True)
    k = got["k"].to_numpy()
    assert len(k) == len(np.unique(k))  # no key split over partitions
    order = np.argsort(k)
    assert (k[order] == want_k).all()
    assert (got["n"].to_numpy()[order] == want_n).all()


@pytest.mark.parametrize("num_partitions", [1, 3, 16])
def test_hash_exchange_keeps_each_key_whole(num_partitions):
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 50, size=3000).astype(np.int64)
    ds = rd.from_arrow(pa.table({"k": keys, "v": np.arange(3000)})).repartition(7)
    out = _blocks(hash_exchange(ds, ["k"], _census(), num_partitions=num_partitions))
    assert len(out) == num_partitions
    _check_whole_keys(out, keys)


def test_hash_exchange_more_partitions_than_blocks():
    keys = np.array([5, 9, 5, 11, 9, 5, 40, 41], dtype=np.int64)
    ds = rd.from_arrow(pa.table({"k": keys})).repartition(2)
    out = _blocks(hash_exchange(ds, ["k"], _census(), num_partitions=11))
    assert len(out) == 11
    assert sum(b.num_rows == 0 for b in out) >= 11 - 5
    _check_whole_keys(out, keys)


def test_hash_exchange_empty_and_schemaless_blocks():
    """Zero-row blocks, typed or without any columns, pass through as
    empty pieces; an all-empty input reduces every partition over a
    column-less zero-row table."""
    keys = np.array([1, 2, 2, 3, 3, 3], dtype=np.int64)
    refs = [
        ray.put(pa.table({"k": keys[:2]})),
        ray.put(pa.table({"k": pa.array([], type=pa.int64())})),
        ray.put(pa.table({})),
        ray.put(pa.table({"k": keys[2:]})),
    ]
    out = _blocks(
        hash_exchange(rd.from_arrow_refs(refs), ["k"], _census(), num_partitions=4)
    )
    _check_whole_keys(out, keys)

    empty = rd.from_arrow_refs([ray.put(pa.table({})), ray.put(pa.table({}))])
    out = _blocks(hash_exchange(empty, ["k"], _census(), num_partitions=3))
    assert len(out) == 3
    assert all(b.num_rows == 0 and b.column_names == ["k", "n"] for b in out)

    # the map side on its own (the exchange skips blocks whose metadata
    # says zero rows): an empty or column-less block splits into empties
    from metacache_mpi_ray.functions.blocks import _exchange_split

    for block in (pa.table({}), pa.table({"k": pa.array([], type=pa.int64())})):
        pieces = ray.get(
            _exchange_split.options(num_returns=3).remote(block, ["k"], 3, None)
        )
        assert [p.num_rows for p in pieces] == [0, 0, 0]


def test_hash_exchange_multi_key_and_combine():
    """Keys over several columns stay whole, and ``combine`` runs on each
    input block before the split (here: per-block distinct rows, so the
    reduce's row count per key is the number of blocks holding it)."""
    a = np.array([1, 1, 1, 2, 2, 1], dtype=np.int64)
    b = np.array([7, 7, 8, 7, 7, 7], dtype=np.int64)
    refs = [ray.put(pa.table({"a": a[:3], "b": b[:3]})), ray.put(pa.table({"a": a[3:], "b": b[3:]}))]

    def distinct(t: pa.Table) -> pa.Table:
        return t.group_by(["a", "b"]).aggregate([])

    def count(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {c: pa.array([], type=pa.int64()) for c in ("a", "b", "n")}
            )
        return t.group_by(["a", "b"]).aggregate([([], "count_all")]).rename_columns(
            ["a", "b", "n"]
        )

    out = hash_exchange(
        rd.from_arrow_refs(refs), ["a", "b"], count, num_partitions=3, combine=distinct
    ).to_pandas()
    got = {(r.a, r.b): r.n for r in out.itertuples()}
    assert got == {(1, 7): 2, (1, 8): 1, (2, 7): 1}


def test_bucket_and_segment_stages_run_no_sort_or_groupby(monkeypatch):
    """Every bucket and segment stage keys its groups through
    hash_exchange: the flagship, all-pairs bucketing, anchor candidates,
    the scored substring stages, the cluster LCS report and the bucket
    census call neither ``Dataset.sort`` nor ``Dataset.groupby``."""
    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.pipelines.dedup import bucket_census, near_dup_pipeline
    from metacache_mpi_ray.stages.candidates import bucket_all_pairs
    from metacache_mpi_ray.stages.ingest import ingest_documents
    from metacache_mpi_ray.stages.substring import (
        anchor_candidates,
        cluster_lcs_report,
        scored_substring_edges,
    )

    calls = []

    def forbid(name):
        def f(self, key=None, *args, **kwargs):
            calls.append((name, key))
            raise AssertionError(f"{name}({key!r}) on a keyed-bucket stage")

        return f

    monkeypatch.setattr(rd.Dataset, "sort", forbid("sort"))
    monkeypatch.setattr(rd.Dataset, "groupby", forbid("groupby"))

    cfg = DedupConfig()
    rng = np.random.default_rng(8)
    words = [f"w{i}" for i in range(300)]

    def mk(n):
        return " ".join(words[int(rng.integers(0, 300))] for _ in range(n))

    shared = mk(150)
    texts = [mk(60) + " " + shared for _ in range(4)] + [mk(200) for _ in range(8)]
    texts += texts[:3]  # exact copies
    docs = ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), type=pa.int64()),
                    "text": pa.array(texts, type=pa.string()),
                }
            )
        )
    ).materialize()

    clusters = near_dup_pipeline(docs, cfg, num_partitions=2).clusters.to_pandas()
    assert len(clusters) == len(texts)
    assert clusters["is_dup"].sum() >= 3
    keyed = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1, 2, 2, 2, 3], type=pa.int64()),
                "doc_id": pa.array(range(6), type=pa.int64()),
            }
        )
    )
    assert bucket_all_pairs(keyed, ["k"], cap=8).count() == 1 + 3
    census = bucket_census(docs, cfg, 2)
    assert pc.sum(pc.multiply(census["bucket_size"], census["n_buckets"])).as_py() == (
        len(texts) * cfg.n_bands
    )
    assert anchor_candidates(docs, cfg, num_partitions=2, max_hosts=None).count() > 0
    assert scored_substring_edges(docs, cfg, num_partitions=2).count() > 0
    with_clusters = docs.map_batches(
        lambda t: t.append_column(
            "cluster_id", pa.array(t["doc_id"].to_numpy() % 3, type=pa.int64())
        ),
        batch_format="pyarrow",
    )
    assert cluster_lcs_report(with_clusters, min_cluster=2, max_members=4).count() > 0
    assert calls == []


def test_two_input_exchange_sees_both_sides_of_each_key():
    """With a list of inputs the reduce gets one table per input, both
    holding every row of the partition's keys; an input with no rows
    at all arrives column-less, one with rows elsewhere keeps its
    schema."""
    left = rd.from_arrow(
        pa.table({"k": np.arange(40, dtype=np.int64) % 13, "x": np.arange(40)})
    ).repartition(3)
    right = rd.from_arrow(
        pa.table({"k": np.arange(13, dtype=np.int64), "y": np.arange(13) * 10})
    ).repartition(2)
    empty = rd.from_arrow_refs([ray.put(pa.table({}))])

    def pairs(lt: pa.Table, rt: pa.Table, et: pa.Table) -> pa.Table:
        assert lt.column_names == ["k", "x"] and rt.column_names == ["k", "y"]
        assert et.num_columns == 0
        return lt.join(rt, keys="k") if lt.num_rows else pa.table(
            {"k": pa.array([], pa.int64()), "x": pa.array([], pa.int64()), "y": pa.array([], pa.int64())}
        )

    out = hash_exchange([left, right, empty], ["k"], pairs, num_partitions=5).to_pandas()
    assert len(out) == 40
    assert (out["y"] == (out["k"] * 10)).all()


def test_joins_run_no_dataset_join(monkeypatch, key_set_side):
    """Every join and the connected-components rounds go through
    hash_exchange: with ``Dataset.join`` (and, for the components,
    ``Dataset.sort``) raising, large_join, the verify step,
    distributed components, and the keyed-exchange side of the key-set
    step (decontamination, boilerplate removal, bloom's exact verify)
    all still run and give the expected rows."""
    import pandas as pd

    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.stages.bloom import filter_unseen
    from metacache_mpi_ray.stages.cluster import (
        assign_clusters,
        assign_clusters_distributed,
        propagate_min_labels,
    )
    from metacache_mpi_ray.stages.corpus_clean import remove_boilerplate_lines
    from metacache_mpi_ray.stages.decontaminate import decontaminate
    from metacache_mpi_ray.stages.ingest import ingest_documents
    from metacache_mpi_ray.stages.joins import large_join
    from metacache_mpi_ray.stages.signatures import compute_signatures
    from metacache_mpi_ray.stages.signatures import sig_from_arrow
    from metacache_mpi_ray.stages.verify import (
        verify_edges,
        verify_edges_exact_jaccard,
    )
    from test_verify_parity import oracle, shingle_jaccard, verified_rows

    def forbid(name):
        def f(self, *args, **kwargs):
            raise AssertionError(f"Dataset.{name} on a keyed-exchange path")

        return f

    monkeypatch.setattr(rd.Dataset, "join", forbid("join"))

    left = pd.DataFrame({"k": np.arange(30) % 7, "x": np.arange(30)})
    right = pd.DataFrame({"k": np.arange(5), "y": np.arange(5) * 10})
    for how, want in (("inner", left.merge(right, on="k")),
                      ("left_outer", left.merge(right, on="k", how="left"))):
        got = large_join(
            rd.from_pandas(left), rd.from_pandas(right), on=("k",),
            join_type=how, num_partitions=3,
        ).to_pandas()
        assert len(got) == len(want)
        assert set(zip(got["x"], got["y"].fillna(-1))) == set(
            zip(want["x"], want["y"].fillna(-1))
        )

    cfg = DedupConfig()
    words = [f"w{i}" for i in range(60)]
    rng = np.random.default_rng(2)
    base = [" ".join(rng.choice(words, 40)) for _ in range(4)]
    texts = base + [t + " extra" for t in base] + base[:2]
    docs = ingest_documents(
        rd.from_arrow(
            pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                      "text": pa.array(texts)})
        )
    ).materialize()
    sigs = compute_signatures(docs, cfg).materialize()
    n = len(texts)
    a, b = np.triu_indices(n, 1)
    edges = rd.from_arrow(pa.table({"a": a.astype(np.int64), "b": b.astype(np.int64)}))
    st = pa.concat_tables(ray.get(sigs.to_arrow_refs()))
    dt = pa.concat_tables(ray.get(docs.to_arrow_refs()))
    mat = sig_from_arrow(st["sig"])
    jac = shingle_jaccard(dt["norm_text"].to_pylist(), cfg.shingle_k)
    edge_t = pa.table({"a": a.astype(np.int64), "b": b.astype(np.int64)})
    for fn, table, col, ids, score in (
        (verify_edges, sigs, "est_sim", st["doc_id"].to_pylist(),
         lambda i, j: (est := float((mat[i] == mat[j]).mean()), est >= cfg.verify_threshold)),
        (verify_edges_exact_jaccard, docs, "jaccard", dt["doc_id"].to_pylist(),
         lambda i, j: (jac(i, j), jac(i, j) >= cfg.sim_threshold)),
    ):
        want = oracle(edge_t, ids, score, col)
        assert len(want) > 0
        assert verified_rows(fn(edges, table, cfg, num_partitions=3), col) == want

    chain = rd.from_arrow(pa.table({"a": np.arange(20, dtype=np.int64),
                                    "b": np.arange(1, 21, dtype=np.int64)}))
    ids = rd.from_arrow(pa.table({"doc_id": np.arange(25, dtype=np.int64)}))
    with monkeypatch.context() as m:
        m.setattr(rd.Dataset, "sort", forbid("sort"))
        labels = propagate_min_labels(chain, num_partitions=3).to_pandas()
        dst = assign_clusters_distributed(ids, chain, num_partitions=3).to_pandas()
    assert len(labels) == 21 and (labels["cluster_id"] == 0).all()
    drv = assign_clusters(ids, chain).to_pandas().sort_values("doc_id")
    pd.testing.assert_frame_equal(
        drv.reset_index(drop=True),
        dst.sort_values("doc_id").reset_index(drop=True),
        check_dtype=False,
    )

    corpus = rd.from_arrow(pa.table({"doc_id": pa.array([1, 2, 3], type=pa.int64()),
                                     "text": pa.array(["a b c d e", "x y z w v", "p q r s t"])}))
    bench = rd.from_arrow(pa.table({"text": pa.array(["zz a b c yy"])}))
    key_set_side("join")  # the keyed-exchange side of every key-set step
    flags = decontaminate(corpus, bench, n=3).to_pandas()
    assert dict(zip(flags["doc_id"], flags["n_hits"])) == {1: 1, 2: 0, 3: 0}
    kept = decontaminate(corpus, bench, n=3, mode="filter").to_pandas()
    assert sorted(kept["doc_id"]) == [2, 3]

    seen = rd.from_arrow(pa.table({"key": np.arange(100, dtype=np.int64)}))
    new = rd.from_arrow(pa.table({"key": np.arange(90, 110, dtype=np.int64)}))
    unseen = filter_unseen(new, seen, "key", n_expected=100).to_pandas()
    assert sorted(unseen["key"]) == list(range(100, 110))

    pages = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(4), type=pa.int64()),
        "text": pa.array(["nav\nbody one\nfoot", "nav\nbody two", "foot\nnav", "solo"]),
    }))
    clean = remove_boilerplate_lines(pages, min_docs=2).to_pandas().sort_values("doc_id")
    assert list(clean["clean_text"]) == ["body one", "body two", "", "solo"]
    assert list(clean["n_removed"]) == [2, 1, 2, 0]


def test_grouped_stages_run_no_sort_or_groupby(monkeypatch):
    """The windows family, the vocab census, rank-merge, the ambiguity
    filter, both Bloom builds and the sharded probe group through
    hash_exchange: with ``Dataset.sort`` and ``Dataset.groupby``
    raising they all run and give the expected rows."""
    import pandas as pd

    from metacache_mpi_ray.stages.bloom import (
        build_bloom,
        build_bloom_sharded,
        key_hashes,
        probe_bloom,
    )
    from metacache_mpi_ray.stages.candidates import ambiguity_filter
    from metacache_mpi_ray.stages.rankmerge import classify_merged, merge_candidates
    from metacache_mpi_ray.stages.taxonomy import Taxonomy
    from metacache_mpi_ray.stages.vocab import top_terms, vocab_census
    from metacache_mpi_ray.stages.windows import (
        collect_members,
        lag_per_group,
        quantile_per_group,
        sessionize,
        topk_per_group,
    )

    def forbid(name):
        def f(self, *args, **kwargs):
            raise AssertionError(f"Dataset.{name} on a keyed-exchange stage")

        return f

    monkeypatch.setattr(rd.Dataset, "sort", forbid("sort"))
    monkeypatch.setattr(rd.Dataset, "groupby", forbid("groupby"))

    ev = rd.from_arrow(
        pa.table(
            {
                "u": pa.array([1, 1, 1, 2, 2, 3], type=pa.int64()),
                "ts": pa.array([10, 20, 900, 5, 6, 1], type=pa.int64()),
                "v": pa.array([3, 1, 2, 9, 8, 4], type=pa.int64()),
                "id": pa.array(range(6), type=pa.int64()),
            }
        )
    ).repartition(3)
    top = topk_per_group(ev, "u", "v", 2, tiebreak=["id"]).to_pandas()
    assert sorted(zip(top["u"], top["rank"], top["id"])) == [
        (1, 1, 0), (1, 2, 2), (2, 1, 3), (2, 2, 4), (3, 1, 5)
    ]
    lag = lag_per_group(ev, "u", "ts", "id").to_pandas()
    assert sorted(zip(lag["id"], lag["prev_value"].fillna(-1))) == [
        (0, -1), (1, 0), (2, 1), (3, -1), (4, 3), (5, -1)
    ]
    ses = sessionize(ev, "u", "ts", gap_us=100).to_pandas()
    assert sorted(zip(ses["u"], ses["n_events"])) == [(1, 1), (1, 2), (2, 2), (3, 1)]
    members = collect_members(ev, "u", "id").to_pandas()
    assert sorted(members["members"]) == ["0,1,2", "3,4", "5"]
    med = quantile_per_group(ev, "u", "v", 0.5).to_pandas()
    assert dict(zip(med["u"], med["quantile"])) == {1: 2, 2: 8, 3: 4}

    docs = rd.from_arrow(pa.table({"text": ["b b a", "a c", "b"]})).repartition(2)
    census = vocab_census(docs).to_pandas()
    assert dict(zip(census["term"], census["tf"])) == {"a": 2, "b": 3, "c": 1}
    assert top_terms(docs, 2).to_pandas()["term"].tolist() == ["b", "a"]

    tax = Taxonomy.from_edges(
        pd.DataFrame(
            {
                "node_id": [1, 10, 11, 100, 101],
                "parent_id": [1, 1, 1, 10, 10],
                "rank": ["root", "src", "src", "doc", "doc"],
            }
        ),
        ["root", "src", "doc"],
    )
    cand = rd.from_arrow(
        pa.table(
            {
                "query_id": pa.array([7, 7, 7, 8], type=pa.int64()),
                "node_id": pa.array([100, 101, 11, 100], type=pa.int64()),
                "hits": pa.array([5, 6, 2, 3], type=pa.int64()),
            }
        )
    ).repartition(2)
    merged = merge_candidates(cand, tax, merge_below="src").to_pandas()
    assert sorted(zip(merged["query_id"], merged["node_id"], merged["hits"])) == [
        (7, 10, 6), (7, 11, 2), (8, 10, 3)
    ]
    cls = classify_merged(merge_candidates(cand, tax), tax, hits_min=1).to_pandas()
    assert dict(zip(cls["query_id"], cls["best_node"])) == {7: 101, 8: 100}

    rows = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1, 1, 2, 2], type=pa.int64()),
                "src": pa.array(["a", "b", "c", "a", "a"]),
            }
        )
    ).repartition(2)
    kept = ambiguity_filter(rows, "k", "src", max_sources=2).to_pandas()
    assert kept["k"].tolist() == [2, 2]

    key_tab = pa.table({"key": np.arange(200, dtype=np.int64)})
    keys = rd.from_arrow(key_tab).repartition(3)
    bloom = build_bloom(keys, "key", n_expected=200, n_shards=4)
    assert bloom.might_contain(*key_hashes(key_tab, "key", bloom.seed)).all()
    sharded = build_bloom_sharded(keys, "key", n_expected=200, n_shards=4)
    assert probe_bloom(keys, sharded, "key").to_pandas()["might_seen"].all()
