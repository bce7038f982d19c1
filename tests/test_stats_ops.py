"""Unit tests: hash-LCS vs suffix-array parity, ambiguity filter,
grouped moments vs numpy, the band-bucket census vs brute force."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd


def test_lcs_hashed_matches_suffix_array():
    from metacache_mpi_ray.stages.substring import (
        lcs_len_hashed,
        longest_common_substring_len,
    )

    rng = np.random.default_rng(9)
    alpha = list("abcdef ")
    for _ in range(25):
        a = "".join(rng.choice(alpha, size=int(rng.integers(1, 120))))
        b = "".join(rng.choice(alpha, size=int(rng.integers(1, 120))))
        # plant a shared span in half the cases
        if rng.random() < 0.5:
            span = "".join(rng.choice(alpha, size=int(rng.integers(5, 40))))
            ia = int(rng.integers(0, len(a)))
            ib = int(rng.integers(0, len(b)))
            a = a[:ia] + span + a[ia:]
            b = b[:ib] + span + b[ib:]
        ab, bb = a.encode(), b.encode()
        assert lcs_len_hashed(ab, bb) == longest_common_substring_len(ab, bb)
    assert lcs_len_hashed(b"", b"xyz") == 0
    assert lcs_len_hashed(b"same", b"same") == 4


def test_ambiguity_filter_drops_wide_buckets():
    from metacache_mpi_ray.stages.candidates import ambiguity_filter

    tab = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 2, 3], type=pa.int64()),
            "src": pa.array(["a", "b", "c", "a", "a", "z"]),
            "doc": pa.array([10, 11, 12, 13, 14, 15], type=pa.int64()),
        }
    )
    out = ambiguity_filter(rd.from_arrow(tab), "k", "src", max_sources=2).to_pandas()
    # k=1 spans 3 sources -> dropped entirely; k=2 (1 source), k=3 kept
    assert sorted(out["doc"]) == [13, 14, 15]
    # no-op when nothing is ambiguous
    out2 = ambiguity_filter(rd.from_arrow(tab), "k", "src", max_sources=5).to_pandas()
    assert len(out2) == 6


def test_grouped_moments_match_numpy():
    from metacache_mpi_ray.stages.stats import grouped_moments

    rng = np.random.default_rng(4)
    g = rng.integers(0, 3, size=500)
    x = rng.integers(1, 1000, size=500)
    tab = pa.table(
        {"g": pa.array(g, type=pa.int64()), "x": pa.array(x, type=pa.int64())}
    )
    out = (
        grouped_moments(rd.from_arrow(tab), ["g"], "x")
        .to_pandas()
        .set_index("g")
        .sort_index()
    )
    for gi in range(3):
        vals = x[g == gi].astype(np.float64)
        assert out.loc[gi, "n"] == len(vals)
        assert abs(out.loc[gi, "mean"] - vals.mean()) < 1e-9
        assert abs(out.loc[gi, "variance"] - vals.var()) < 1e-6
        sd = vals.std()
        skew = ((vals - vals.mean()) ** 3).mean() / sd**3
        assert abs(out.loc[gi, "skewness"] - skew) < 1e-9
    # global (ungrouped) moments
    gout = grouped_moments(rd.from_arrow(tab), None, "x").to_pandas()
    assert int(gout["n"][0]) == 500
    assert abs(gout["mean"][0] - x.mean()) < 1e-9


def _census_docs() -> pa.Table:
    """Canonical docs whose band buckets hold 1 to 4 rows: distinct
    pages, exact copies (2 and 3 of a text) and near copies."""
    from metacache_mpi_ray.stages.ingest import _ingest_documents_batch

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(400)]

    def page(n):
        return " ".join(words[int(i)] for i in rng.integers(0, 400, n))

    texts = [page(80) for _ in range(40)]
    texts += texts[:6] + texts[:2]  # exact copies
    texts += [t + " " + page(2) for t in texts[:2] + texts[10:14]]  # near copies
    texts += [""]  # an empty page
    return _ingest_documents_batch(
        pa.table(
            {
                "doc_id": pa.array(np.arange(len(texts)) * 7 + 3, type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
            }
        )
    )


@pytest.mark.parametrize("n_blocks", [1, 7])
def test_bucket_census_matches_brute_force(n_blocks):
    """The census histogram and its moments over a docs dataset equal a
    brute-force ``np.unique`` over ``band_key_rows`` of the whole corpus,
    at every shard count and block layout (empty blocks included)."""
    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.pipelines.dedup import bucket_census
    from metacache_mpi_ray.stages.banding import band_key_rows
    from metacache_mpi_ray.stages.signatures import MinHashSigner
    from metacache_mpi_ray.stages.stats import histogram_moments

    cfg = DedupConfig()
    docs = _census_docs()
    sizes = np.unique(
        band_key_rows(MinHashSigner(cfg)(docs), cfg)["bkey"].to_numpy(), return_counts=True
    )[1]
    want_size, want_n = np.unique(sizes, return_counts=True)
    assert want_size.max() >= 4
    cuts = np.linspace(0, docs.num_rows, n_blocks + 1).astype(int)
    blocks = [docs.slice(lo, hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:])]
    if n_blocks > 1:
        blocks[1:1] = [docs.slice(0, 0)]
        blocks.append(docs.slice(0, 0))
    ds = rd.from_arrow(blocks)
    x = [int(v) for v in sizes]
    for shards in (1, 4, 8):
        got = bucket_census(ds, cfg, shards)
        assert got.schema.names == ["bucket_size", "n_buckets"]
        assert got["bucket_size"].to_pylist() == want_size.tolist(), shards
        assert got["n_buckets"].to_pylist() == want_n.tolist(), shards
        mom = histogram_moments(got).to_pylist()[0]
        assert [mom[c] for c in ("n", "sum_x", "sum_x2", "sum_x3")] == [
            sum(v**k for v in x) for k in range(4)
        ]
        xf = sizes.astype(float)
        assert mom["mean"] == pytest.approx(xf.mean())
        assert mom["variance"] == pytest.approx(xf.var())


def test_bucket_census_of_an_empty_input_is_typed():
    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.pipelines.dedup import bucket_census

    got = bucket_census(rd.from_arrow(_census_docs().slice(0, 0)), DedupConfig(), 4)
    assert got.num_rows == 0
    assert got.schema == pa.schema([("bucket_size", pa.int64()), ("n_buckets", pa.int64())])


def test_bucket_size_sums_are_exact_past_int64(tmp_path):
    """One band bucket of 2,097,157 rows (as many empty pages, or exact
    copies of one page, share every band key): Σx³ = 2097157³ exceeds
    int64. ``info``'s sums stay exact; a query's int64 column raises
    instead of wrapping."""
    import json

    import pyarrow.parquet as pq

    from metacache_mpi_ray.pipelines.incremental import bucket_size_sums
    from metacache_mpi_ray.stages.candidates import bucket_histogram
    from metacache_mpi_ray.stages.stats import histogram_moments

    big = 2_097_157
    (tmp_path / "index.json").write_text(json.dumps({"format": 2, "shards": 1}))
    (tmp_path / "bands" / "0").mkdir(parents=True)
    pq.write_table(
        pa.table(
            {
                "bkey": pa.array(np.r_[np.full(big, 9), [4, 12]], type=pa.int64()),
                "doc_id": pa.array(np.arange(big + 2), type=pa.int64()),
            }
        ),
        str(tmp_path / "bands" / "0" / "part-0.parquet"),
    )
    want = [3, big + 2, big**2 + 2, big**3 + 2]
    assert want[3] > np.iinfo(np.int64).max
    assert bucket_size_sums(str(tmp_path)) == want
    hist = bucket_histogram([np.full(big, 9), np.array([4, 12])])
    assert hist.to_pylist() == [
        {"bucket_size": 1, "n_buckets": 2},
        {"bucket_size": big, "n_buckets": 1},
    ]
    with pytest.raises(OverflowError):
        histogram_moments(hist)
