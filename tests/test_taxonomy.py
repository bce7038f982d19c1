"""Taxonomy tree, ranked-LCA, redistribution, and pair-counting eval."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from metacache_mpi_ray.stages.taxonomy import (
    Taxonomy,
    pair_eval,
    ranked_lca_classify,
    redistribute_counts,
)


def _tree():
    # root(1) -> lang en(10), de(11) -> hosts 100..103
    nodes = pd.DataFrame(
        {
            "node_id": [1, 10, 11, 100, 101, 102, 103],
            "parent_id": [1, 1, 1, 10, 10, 11, 11],
            "rank": ["root", "lang", "lang", "host", "host", "host", "host"],
        }
    )
    return Taxonomy.from_edges(nodes, ["root", "lang", "host"])


def test_taxonomy_ranked_lca_pairs():
    tax = _tree()
    a = np.array([100, 100, 100, 10])
    b = np.array([101, 102, 100, 102])
    got = tax.ranked_lca(a, b)
    # same lang -> lang node; cross lang -> root; identical -> itself;
    # lang vs host under other lang -> root
    assert got.tolist() == [10, 1, 100, 1]


def test_ranked_lca_classify_votes():
    cand = pa.table(
        {
            "anchor": pa.array([1, 1, 1, 2, 2, 3, 3, 9], type=pa.int64()),
            "lang": pa.array(["en", "en", "en", "en", "de", "en", "en", "fr"]),
            "source": pa.array(["a", "a", "a", "a", "b", "a", "b", "z"]),
            "is_self": pa.array([1, 0, 0, 1, 0, 1, 0, 0], type=pa.int64()),
        }
    )
    out = (
        ranked_lca_classify(rd.from_arrow(cand), "anchor", ["lang", "source"])
        .to_pandas()
        .set_index("anchor")
    )
    assert out.loc[1, "lca_rank"] == "source" and out.loc[1, "lca_node"] == "a"
    assert out.loc[2, "lca_rank"] == "root"
    assert out.loc[3, "lca_rank"] == "lang" and out.loc[3, "lca_node"] == "en"
    assert 9 not in out.index  # no self row -> not an anchor


def test_redistribute_counts_proportional():
    rows = []
    # en: leaves a=3 direct, b=1 direct; 4 coarse-only en docs
    rows += [("en", "a", 1)] * 3 + [("en", "b", 1)] * 1 + [("en", "x", 0)] * 4
    # de: leaf c=2 direct, no coarse
    rows += [("de", "c", 1)] * 2
    tab = pa.table(
        {
            "lang": pa.array([r[0] for r in rows]),
            "source": pa.array([r[1] for r in rows]),
            "at_leaf": pa.array([r[2] for r in rows], type=pa.int64()),
        }
    )
    out = (
        redistribute_counts(rd.from_arrow(tab), ["lang", "source"])
        .to_pandas()
        .set_index(["lang", "source"])
    )
    # est = n_direct * (t + cc) / t : en/a -> 3*(4+4)/4 = 6, en/b -> 2
    assert out.loc[("en", "a"), "est_num"] / out.loc[("en", "a"), "denom"] == 6
    assert out.loc[("en", "b"), "est_num"] / out.loc[("en", "b"), "denom"] == 2
    assert out.loc[("de", "c"), "est_num"] / out.loc[("de", "c"), "denom"] == 2


def test_pair_eval_counts():
    # pred groups: {1,2,3}, {4,5}; truth: {1,2}, {3,4}, {5}
    tab = pa.table(
        {
            "doc": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "pred": pa.array([0, 0, 0, 1, 1], type=pa.int64()),
            "truth": pa.array([7, 7, 8, 8, 9], type=pa.int64()),
        }
    )
    out = pair_eval(rd.from_arrow(tab), ["pred"], ["truth"]).to_pandas()
    # pred pairs: C(3,2)+C(2,2)=4; truth pairs: 1+1=2; joint: (0,7)x2 ->1
    assert int(out["tp"][0]) == 1
    assert int(out["fp"][0]) == 3
    assert int(out["fn"][0]) == 1
    assert abs(out["precision"][0] - 0.25) < 1e-12
    assert abs(out["recall"][0] - 0.5) < 1e-12


def test_redistribute_counts_empty_sides(ray_session):
    """ADVICE r2: a side with no rows (all-fine or all-coarse input) must
    not KeyError on the schema-less empty groupby result."""
    all_fine = pd.DataFrame(
        {"lang": ["en", "en", "fr"], "source": ["a", "b", "c"], "at_leaf": [1, 1, 1]}
    )
    out = redistribute_counts(rd.from_pandas(all_fine), ["lang", "source"]).to_pandas()
    assert len(out) == 3
    # no coarse mass: est_num/denom == n_direct exactly
    assert (out["est_num"] == out["n_direct"] * out["denom"]).all()

    all_coarse = pd.DataFrame(
        {"lang": ["en", "fr"], "source": ["a", "b"], "at_leaf": [0, 0]}
    )
    out2 = redistribute_counts(rd.from_pandas(all_coarse), ["lang", "source"])
    assert out2.count() == 0
    assert set(out2.schema().names) == {"lang", "source", "n_direct", "est_num", "denom"}
