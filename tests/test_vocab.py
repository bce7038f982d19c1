"""Vocabulary census (stages/vocab.py): exact tf/df vs a pure-Python
reference, batch-size and layout invariance, heavy hitters."""

import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from metacache_mpi_ray.stages.vocab import (
    tokenize_column,
    top_terms,
    vocab_census,
)


def _py_tokens(text):
    if text is None:
        return []
    return [t for t in re.sub(r"[^a-z0-9]+", " ", text.lower()).split(" ") if t]


def _py_census(texts):
    tf = Counter()
    df = Counter()
    for t in texts:
        toks = _py_tokens(t)
        tf.update(toks)
        df.update(set(toks))
    return tf, df


TEXTS = [
    "The cat, the CAT! sat.",
    "",
    None,
    "dog dog cat;dog",
    "  a  ",
    "Numbers 42 and 42 and 007",
    "MIXED Case mixed case",
    "tail-token tail token",
] * 7  # enough rows for several blocks


def test_tokenize_matches_python_reference():
    flat, sizes = tokenize_column(pa.array(TEXTS[:8]))
    got = flat.to_pylist()
    want = [tok for t in TEXTS[:8] for tok in _py_tokens(t)]
    assert got == want
    assert sizes.tolist() == [len(_py_tokens(t)) for t in TEXTS[:8]]
    # per-row sizes stay aligned after empty-token removal
    assert int(sizes.sum()) == len(got)


@pytest.mark.parametrize("n_blocks", [1, 3, 8, 11])
def test_census_exact_across_block_counts(n_blocks, monkeypatch):
    """Exact at every block count x exchange partition count: each term
    reaches one reduce whole."""
    from metacache_mpi_ray.stages import joins

    tf, df = _py_census(TEXTS)
    ds = rd.from_arrow(pa.table({"text": pa.array(TEXTS)})).repartition(n_blocks)
    for parts in (1, 2, 5):
        monkeypatch.setattr(joins, "default_num_partitions", lambda **_: parts)
        out = vocab_census(ds).to_pandas().set_index("term").sort_index()
        assert out["tf"].to_dict() == dict(tf), parts
        assert out["df"].to_dict() == dict(df), parts


def test_census_single_term_spanning_all_blocks():
    # one term repeated everywhere forces every block's segment to be a
    # boundary fragment — the stitch must sum them exactly once each
    ds = rd.from_arrow(pa.table({"text": pa.array(["same same"] * 40)})).repartition(8)
    out = vocab_census(ds).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["term"] == "same"
    assert int(out.iloc[0]["tf"]) == 80
    assert int(out.iloc[0]["df"]) == 40


def test_census_empty_corpus():
    ds = rd.from_arrow(pa.table({"text": pa.array([], type=pa.string())}))
    out = vocab_census(ds)
    assert out.count() == 0
    # ray's to_pandas drops columns of an empty dataset; the dataset
    # schema is the contract
    assert out.schema().names == ["term", "tf", "df"]


def test_top_terms_order_and_tiebreak():
    texts = ["b b b a a c", "a b z z"]
    ds = rd.from_arrow(pa.table({"text": pa.array(texts)}))
    out = top_terms(ds, 3).to_pandas()
    # counts: b=4, a=3, z=2, c=1 -> top3 b,a,z; ties broken by term asc
    assert out["term"].tolist() == ["b", "a", "z"]
    assert out["tf"].tolist() == [4, 3, 2]


def test_top_terms_tie_breaks_alphabetical():
    ds = rd.from_arrow(pa.table({"text": pa.array(["x y", "y x", "w w"])}))
    out = top_terms(ds, 4).to_pandas()
    assert out["term"].tolist() == ["w", "x", "y"]
    assert out["tf"].tolist() == [2, 2, 2]


def test_census_large_random_vs_reference():
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(50)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(0, 30)))
        for _ in range(400)
    ]
    tf, df = _py_census(texts)
    ds = rd.from_arrow(pa.table({"text": pa.array(texts)})).repartition(5)
    out = vocab_census(ds).to_pandas().set_index("term")
    assert out["tf"].to_dict() == dict(tf)
    assert out["df"].to_dict() == dict(df)
