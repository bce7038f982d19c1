"""Rank-aware candidate merge + bounded insert + threshold classify
(candidates.h:90-102,191-289 / classification.cpp:227-262 analogs)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from metacache_mpi_ray.stages.rankmerge import classify_merged, merge_candidates
from metacache_mpi_ray.stages.taxonomy import Taxonomy


def _tree():
    # root(1) -> lang en(10), de(11) -> src 100..103 -> docs 1000+
    nodes = pd.DataFrame(
        {
            "node_id": [1, 10, 11, 100, 101, 102, 103, 1000, 1001, 1002],
            "parent_id": [1, 1, 1, 10, 10, 11, 11, 100, 101, 102],
            "rank": ["root", "lang", "lang", "src", "src", "src", "src",
                     "doc", "doc", "doc"],
        }
    )
    return Taxonomy.from_edges(nodes, ["root", "lang", "src", "doc"])


def test_merge_below_rank_pools_hits():
    tax = _tree()
    cand = rd.from_pandas(
        pd.DataFrame(
            {
                "query_id": [7, 7, 7, 7],
                "node_id": [1000, 100, 1001, 102],
                "hits": [5, 3, 4, 9],
            }
        )
    )
    out = (
        merge_candidates(cand, tax, merge_below="src", max_candidates=4)
        .to_pandas()
        .sort_values("rank")
    )
    # 1000->100 (max(5,3)=5), 1001->101 (4), 102 stays (9)
    assert list(zip(out["node_id"], out["hits"], out["rank"])) == [
        (102, 9, 1), (100, 5, 2), (101, 4, 3)
    ]


def test_bounded_insert_and_tiebreak():
    tax = _tree()
    cand = rd.from_pandas(
        pd.DataFrame(
            {
                "query_id": [1] * 4,
                "node_id": [100, 101, 102, 103],
                "hits": [5, 7, 5, 2],
            }
        )
    )
    out = (
        merge_candidates(cand, tax, max_candidates=2)
        .to_pandas()
        .sort_values("rank")
    )
    # 7 first; the two 5s tie -> smaller node id (100) survives the cap
    assert list(zip(out["node_id"], out["rank"])) == [(101, 1), (100, 2)]


def _reference_classify(groups, tax, hits_min, frac):
    """Straight transcription of classification.cpp:227-262."""
    want = {}
    for qid, cands in groups.items():
        cands = sorted(cands, key=lambda c: (-c[1], c[0]))
        best_node, best_hits = cands[0]
        if best_hits < hits_min:
            want[qid] = (best_node, best_hits, None, False)
            continue
        thr = (best_hits - hits_min) * frac if best_hits > hits_min else 0
        lca = best_node
        for node, hits in cands[1:]:
            if hits > thr:
                lca = int(tax.ranked_lca(np.array([lca]), np.array([node]))[0])
            else:
                break
        want[qid] = (best_node, best_hits, lca, True)
    return want


def test_classify_matches_reference_rules_across_batch_sizes(monkeypatch):
    """Equal to the reference at the default layout and at every block
    count x exchange partition count: each query's candidates reach
    one reduce whole."""
    from metacache_mpi_ray.stages import joins

    tax = _tree()
    rng = np.random.default_rng(11)
    rows = []
    groups = {}
    node_pool = [10, 11, 100, 101, 102, 103]
    for qid in range(40):
        k = int(rng.integers(1, 5))
        picked = rng.choice(len(node_pool), size=k, replace=False)
        cands = [(node_pool[i], int(rng.integers(0, 12))) for i in picked]
        groups[qid] = cands
        rows.extend((qid, n, h) for n, h in cands)
    cand = rd.from_pandas(
        pd.DataFrame(rows, columns=["query_id", "node_id", "hits"]).sample(
            frac=1.0, random_state=3
        )
    )
    hits_min, frac = 4, 0.5
    want = _reference_classify(groups, tax, hits_min, frac)

    layouts = [(cand, None)] + [
        (cand.repartition(k), parts) for k in (1, 3, 8) for parts in (1, 2, 5)
    ]
    for ds, parts in layouts:
        if parts is not None:
            monkeypatch.setattr(joins, "default_num_partitions", lambda **_: parts)
        topk = merge_candidates(ds, tax, max_candidates=4).materialize()
        out = classify_merged(
            topk, tax, hits_min=hits_min, hits_diff_fraction=frac
        ).to_pandas()
        assert len(out) == 40
        for _, r in out.iterrows():
            bn, bh, lca, cl = want[int(r["query_id"])]
            assert int(r["best_node"]) == bn
            assert int(r["best_hits"]) == bh
            assert bool(r["classified"]) == cl
            if cl:
                assert int(r["lca_node"]) == lca


def test_classify_highest_rank_gate():
    tax = _tree()
    # candidates under different langs -> LCA = root, too coarse for
    # highest_rank="lang"
    cand = rd.from_pandas(
        pd.DataFrame(
            {"query_id": [1, 1], "node_id": [100, 102], "hits": [9, 9]}
        )
    )
    topk = merge_candidates(cand, tax, max_candidates=4)
    out = classify_merged(
        topk, tax, hits_min=1, hits_diff_fraction=1.0, highest_rank="lang"
    ).to_pandas()
    assert not bool(out["classified"][0])
    # same lang -> LCA at lang depth -> classified
    cand2 = rd.from_pandas(
        pd.DataFrame(
            {"query_id": [2, 2], "node_id": [100, 101], "hits": [9, 9]}
        )
    )
    out2 = classify_merged(
        merge_candidates(cand2, tax, max_candidates=4),
        tax, hits_min=1, hits_diff_fraction=1.0, highest_rank="lang",
    ).to_pandas()
    assert bool(out2["classified"][0])
    assert int(out2["lca_node"][0]) == 10
