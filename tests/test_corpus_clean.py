"""Corpus-cleaning operators: boilerplate-line removal (both sides of
the key-set step, ``key_set_side``: broadcast and keyed exchange, vs a
pandas reference), PII redaction vs Python re, within-doc repetition
stats vs a pandas reference."""

import re

import pytest

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd


def _pandas_remove_boilerplate(df: pd.DataFrame, min_docs: int) -> pd.DataFrame:
    lines = df.assign(lines=df["text"].str.split("\n")).explode("lines")
    nd = lines.drop_duplicates(["doc_id", "lines"]).groupby("lines").size()
    hot = set(nd[nd >= min_docs].index)
    rows = []
    for _, r in df.iterrows():
        ls = r["text"].split("\n")
        kept = [l for l in ls if l not in hot]
        rows.append(
            {
                "doc_id": r["doc_id"],
                "clean_text": "\n".join(kept),
                "n_kept": len(kept),
                "n_removed": len(ls) - len(kept),
            }
        )
    return pd.DataFrame(rows)


def _corpus(n=120, seed=7) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "eps"]
    rows = []
    for i in range(n):
        body = " ".join(rng.choice(vocab, size=6))
        parts = ["cookie banner", f"body {i} {body}", f"footer {i % 3}"]
        if i % 4 == 0:
            parts.append("promo line shared")
        if i % 17 == 0:
            parts = [""]  # empty-text doc: one empty line
        rows.append({"doc_id": i, "text": "\n".join(parts)})
    return pd.DataFrame(rows)


def _run(df, min_docs, **kw) -> pd.DataFrame:
    from metacache_mpi_ray.stages.corpus_clean import remove_boilerplate_lines

    ds = rd.from_pandas(df).repartition(5)
    out = remove_boilerplate_lines(ds, min_docs=min_docs, **kw).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SIDES = ("broadcast", "join")


def test_remove_boilerplate_broadcast_matches_pandas(key_set_side):
    df = _corpus()
    want = (
        _pandas_remove_boilerplate(df, 25)
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for side in SIDES:
        key_set_side(side)
        got = _run(df, 25)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        # 'cookie banner' (120 docs) and 'footer k' (40 each) removed;
        # bodies kept — the check is non-vacuous in both directions
        assert (got["n_removed"] > 0).any() and (got["n_kept"] > 0).any()


def test_remove_boilerplate_join_parity(key_set_side):
    """Both sides agree with each other and with pandas on a second
    corpus, where the 'promo' line (30 docs) is hot at min_docs=30."""
    df = _corpus(n=130, seed=8)
    want = _pandas_remove_boilerplate(df, 30).sort_values("doc_id").reset_index(drop=True)
    key_set_side("broadcast")
    b = _run(df, 30)
    key_set_side("join")
    j = _run(df, 30)
    pd.testing.assert_frame_equal(b, j, check_dtype=False)
    pd.testing.assert_frame_equal(j, want, check_dtype=False)


def test_remove_boilerplate_all_lines_removed(key_set_side):
    # every doc is a single shared hot line -> every clean_text == ''
    df = pd.DataFrame({"doc_id": range(40), "text": ["same line"] * 40})
    for side in SIDES:
        key_set_side(side)
        out = _run(df, 10)
        assert (out["clean_text"] == "").all()
        assert (out["n_kept"] == 0).all()
        assert (out["n_removed"] == 1).all()


def test_remove_boilerplate_nothing_hot(key_set_side):
    df = pd.DataFrame(
        {"doc_id": range(10), "text": [f"unique {i}\nalso {i}" for i in range(10)]}
    )
    for side in SIDES:
        key_set_side(side)
        out = _run(df, 5)
        assert (out["clean_text"] == df["text"]).all()
        assert (out["n_removed"] == 0).all()


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("min_docs", [2, 5])
def test_null_text_is_one_empty_line(side, min_docs, key_set_side):
    """A null text is one empty line whether or not any line is hot
    (min_docs=2 makes 'a' hot; at 5 nothing is): clean_text '', one
    kept line, none removed."""
    from metacache_mpi_ray.stages.corpus_clean import remove_boilerplate_lines

    key_set_side(side)
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], type=pa.int64()),
                "text": pa.array(["a\nb", None, "a"]),
            }
        )
    )
    out = remove_boilerplate_lines(docs, min_docs=min_docs).to_pandas().set_index("doc_id")
    assert out.loc[1, "clean_text"] == ""
    assert out.loc[1, "n_kept"] == 1 and out.loc[1, "n_removed"] == 0
    assert out.loc[0, "n_removed"] == (1 if min_docs == 2 else 0)


def test_line_census_counts_distinct_docs():
    from metacache_mpi_ray.stages.corpus_clean import (
        _line_hashes,
        line_census,
    )

    # 'dup' appears twice inside doc 0 but must count ONCE for doc 0
    df = pd.DataFrame(
        {"doc_id": [0, 1, 2], "text": ["dup\ndup\nx", "dup\ny", "z"]}
    )
    cen = line_census(rd.from_pandas(df).repartition(3)).to_pandas()
    h_dup = _line_hashes(pa.array(["dup"]))[0]
    assert int(cen.loc[cen["line_hash"] == h_dup, "n_docs"].iloc[0]) == 2


def test_redact_pii_matches_python_re():
    from metacache_mpi_ray.stages.corpus_clean import (
        EMAIL_PATTERN,
        PHONE_PATTERN,
        redact_pii_batch,
    )

    texts = [
        "write to a.b-c_d@mail.example.org today",
        "call +1 555 0142 or 555-0199 now",
        "both x9@y.zz and (02) 555 0101.",
        "nothing here",
        "",
    ]
    t = pa.table({"doc_id": pa.array(range(5), type=pa.int64()),
                  "text": pa.array(texts)})
    out = redact_pii_batch(t).to_pandas()
    for i, s in enumerate(texts):
        want = re.sub(PHONE_PATTERN, "<PHONE>", re.sub(EMAIL_PATTERN, "<EMAIL>", s))
        assert out.loc[i, "text"] == want
        assert out.loc[i, "n_emails"] == len(re.findall(EMAIL_PATTERN, s))
        assert out.loc[i, "n_phones"] == len(re.findall(PHONE_PATTERN, s))


def test_repetition_stats_matches_pandas():
    from metacache_mpi_ray.stages.corpus_clean import repetition_stats_batch

    texts = [
        "a\nb\na\na",      # 'a' x3 -> 2 dup occurrences, 2 chars
        "x\ny",             # no dups
        "",                # one empty line, no dup
        "ab\nab\ncd\ncd\ncd",  # 1 + 2 dups, 2+4=6 dup chars
    ]
    t = pa.table({"doc_id": pa.array(range(4), type=pa.int64()),
                  "text": pa.array(texts)})
    out = repetition_stats_batch(t).to_pandas()
    assert out["n_lines"].tolist() == [4, 2, 1, 5]
    assert out["n_dup_lines"].tolist() == [2, 0, 0, 3]
    assert out["n_dup_chars"].tolist() == [2, 0, 0, 6]


def test_clean_corpus_composition():
    from metacache_mpi_ray.stages.corpus_clean import clean_corpus

    df = pd.DataFrame(
        {
            "doc_id": range(30),
            "text": [
                f"cookie banner\nbody {i} mail{i}@ex.org\nfooter" for i in range(30)
            ],
        }
    )
    out = clean_corpus(
        rd.from_pandas(df).repartition(3), min_docs=10
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # banner+footer removed, email redacted, body kept
    assert (out["n_removed"] == 2).all()
    assert (out["n_emails"] == 1).all()
    assert out.loc[5, "clean_text"] == "body 5 <EMAIL>"


def test_null_text_rows_survive_cleaning():
    """Null text hashes as empty (one empty line), not a NaN->INT64_MIN
    np.repeat crash (regression)."""
    from metacache_mpi_ray.stages.corpus_clean import (
        remove_boilerplate_lines,
        repetition_stats_batch,
    )

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], type=pa.int64()),
                "text": pa.array(["hot\nkeep me", None, "hot\nother"]),
            }
        )
    )
    out = (
        remove_boilerplate_lines(docs, min_docs=2)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[0, "clean_text"] == "keep me"
    assert out.loc[1, "n_removed"] == 0
    rep = repetition_stats_batch(
        pa.table(
            {
                "doc_id": pa.array([0], type=pa.int64()),
                "text": pa.array([None], type=pa.string()),
            }
        )
    )
    assert rep["n_dup_lines"].to_pylist() == [0]
