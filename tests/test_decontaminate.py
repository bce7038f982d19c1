"""Benchmark-decontamination stage: kernel, both sides of the key-set
step (``key_set_side``: broadcast and keyed exchange), edge cases."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray.data as rd

from metacache_mpi_ray.stages.decontaminate import (
    _batch_grams,
    decontaminate,
    token_ngram_hashes,
)


def _naive_grams(texts, n):
    """(gram string, row) for every n-gram position — pure-Python oracle."""
    out = []
    for i, t in enumerate(texts):
        toks = t.split()
        for j in range(len(toks) - n + 1):
            out.append((" ".join(toks[j : j + n]), i))
    return out


def _rng_texts(rng, n_rows, vocab=20, max_len=12):
    words = [f"w{i}" for i in range(vocab)]
    return [
        " ".join(rng.choice(words, size=rng.integers(0, max_len + 1)))
        for _ in range(n_rows)
    ]


def test_kernel_matches_naive_gram_equality():
    """Hash equality must coincide with string equality of grams."""
    rng = np.random.default_rng(7)
    texts = _rng_texts(rng, 60)
    t = pa.table({"text": pa.array(texts)})
    h, row = _batch_grams(t, "text", 3, seed=5)
    naive = _naive_grams(texts, 3)
    assert len(h) == len(naive)
    # group positions by hash and by string: partitions must be identical
    by_hash = {}
    for k, (hv, r) in enumerate(zip(h.tolist(), row.tolist())):
        by_hash.setdefault(hv, set()).add(k)
        assert naive[k][1] == r
    by_str = {}
    for k, (g, _) in enumerate(naive):
        by_str.setdefault(g, set()).add(k)
    assert sorted(map(sorted, by_hash.values())) == sorted(
        map(sorted, by_str.values())
    )


def test_kernel_short_rows_and_empty():
    t = pa.table({"text": pa.array(["a b", "", "a b c", "x"])})
    h, row = _batch_grams(t, "text", 3, seed=1)
    assert row.tolist() == [2]  # only the 3-token row has a gram
    h0, r0 = token_ngram_hashes(pa.array([], type=pa.string()), np.array([], dtype=np.int64), 3)
    assert len(h0) == 0 and len(r0) == 0


def _mk_docs(texts):
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                "text": pa.array(texts),
            }
        )
    ).repartition(4)


def _pandas_decon(texts, bench_texts, n):
    bench = {g for g, _ in _naive_grams(bench_texts, n)}
    rows = []
    for i, t in enumerate(texts):
        hits = sum(1 for g, r in _naive_grams([t], n) if g in bench)
        rows.append((i, hits, int(hits > 0)))
    return sorted(rows)


SIDES = ["broadcast", "join"]


@pytest.mark.parametrize("side", SIDES)
def test_strategies_match_pandas_reference(side, key_set_side):
    key_set_side(side)
    rng = np.random.default_rng(11)
    texts = _rng_texts(rng, 80, vocab=8, max_len=10)
    bench_texts = _rng_texts(rng, 6, vocab=8, max_len=10)
    docs = _mk_docs(texts)
    bench = rd.from_arrow(pa.table({"text": pa.array(bench_texts)}))
    out = decontaminate(docs, bench, n=3).to_pandas()
    got = sorted(
        zip(
            out["doc_id"].astype(int),
            out["n_hits"].astype(int),
            out["is_contaminated"].astype(int),
        )
    )
    assert got == _pandas_decon(texts, bench_texts, 3)
    assert any(h > 0 for _, h, _ in got)  # non-vacuous: some overlap exists


@pytest.mark.parametrize("side", SIDES)
def test_empty_benchmark_all_clean(side, key_set_side):
    key_set_side(side)
    docs = _mk_docs(["alpha beta gamma delta", "one two three four"])
    bench = rd.from_arrow(pa.table({"text": pa.array([], type=pa.string())}))
    out = decontaminate(docs, bench, n=3).to_pandas()
    assert len(out) == 2 and out["n_hits"].sum() == 0
    kept = decontaminate(docs, bench, n=3, mode="filter")
    assert kept.count() == 2


def test_join_path_no_matches_branch(key_set_side):
    docs = _mk_docs(["alpha beta gamma delta", "one two three four"])
    bench = rd.from_arrow(pa.table({"text": pa.array(["zz yy xx ww vv"])}))
    for side in SIDES:
        key_set_side(side)
        out = decontaminate(docs, bench, n=3).to_pandas()
        assert len(out) == 2 and out["is_contaminated"].sum() == 0


@pytest.mark.parametrize("side", SIDES)
def test_filter_mode_drops_exactly_contaminated(side, key_set_side):
    key_set_side(side)
    texts = [
        "clean page about cooking rice slowly",
        "the exam answer is here today",  # contains the benchmark gram
        "another clean doc with plain words",
    ]
    docs = _mk_docs(texts)
    bench = rd.from_arrow(
        pa.table({"text": pa.array(["leak: the exam answer is here now"])})
    )
    kept = decontaminate(docs, bench, n=5, mode="filter").to_pandas()
    assert sorted(kept["doc_id"].astype(int)) == [0, 2]
    # filter mode preserves the input columns untouched
    assert sorted(kept.columns) == ["doc_id", "text"]
    assert set(kept["text"]) == {texts[0], texts[2]}


def test_auto_picks_broadcast_and_matches_join(key_set_side):
    """The default bound and the forced exchange side give the pandas
    reference's flags and the same filtered rows."""
    rng = np.random.default_rng(3)
    texts = _rng_texts(rng, 50, vocab=6, max_len=9)
    bench_texts = _rng_texts(rng, 4, vocab=6, max_len=9)
    docs, bench = _mk_docs(texts), rd.from_arrow(
        pa.table({"text": pa.array(bench_texts)})
    )
    want = _pandas_decon(texts, bench_texts, 3)
    for side in SIDES:
        key_set_side(side)
        flags = decontaminate(docs, bench, n=3).to_pandas()
        got = sorted(
            zip(
                flags["doc_id"].astype(int),
                flags["n_hits"].astype(int),
                flags["is_contaminated"].astype(int),
            )
        )
        assert got == want
        kept = decontaminate(docs, bench, n=3, mode="filter").to_pandas()
        assert sorted(kept["doc_id"].astype(int)) == [i for i, h, _ in want if h == 0]


def test_null_text_rows_are_clean_not_crash():
    """A null text value must hash as empty (zero grams), not wrap the
    NaN list length to INT64_MIN (regression: multi-exabyte np.repeat)."""
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": pa.array(["the exam answer is here today", None, "x"]),
        }
    )
    docs = rd.from_arrow(t)
    bench = rd.from_arrow(
        pa.table({"text": pa.array(["leak: the exam answer is here now"])})
    )
    out = decontaminate(docs, bench, n=5).to_pandas().set_index("doc_id")
    assert out.loc[1, "n_hits"] == 0 and out.loc[0, "n_hits"] > 0


@pytest.mark.parametrize("side", SIDES)
def test_filter_mode_honors_custom_id_col(side, key_set_side):
    """filter mode must key the clean-doc join on id_col, not a
    hardcoded 'doc_id' (regression: contaminated docs silently kept,
    or a crash, when the id column has another name)."""
    key_set_side(side)
    texts = [
        "clean page about cooking rice slowly",
        "the exam answer is here today",
        "another clean doc with plain words",
    ]
    docs = rd.from_arrow(
        pa.table(
            {
                "uid": pa.array([10, 11, 12], type=pa.int64()),
                "text": pa.array(texts),
            }
        )
    ).repartition(2)
    bench = rd.from_arrow(
        pa.table({"text": pa.array(["leak: the exam answer is here now"])})
    )
    kept = decontaminate(docs, bench, n=5, mode="filter", id_col="uid").to_pandas()
    assert sorted(kept["uid"].astype(int)) == [10, 12]
    assert sorted(kept.columns) == ["text", "uid"]
