"""Stress tests for the keyed-exchange window operators: many blocks,
a hot key spread over every block, and a sweep of block layouts x
exchange partition counts — every op is compared against a pandas
reference implementation on the full data."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd


def _events(n_rows=20000, n_users=40, seed=3, n_blocks=37):
    """Few users over many blocks -> most groups straddle boundaries;
    one 'hot' user owns ~25% of all rows (spans many blocks)."""
    rng = np.random.default_rng(seed)
    users = rng.integers(0, n_users, size=n_rows)
    users[: n_rows // 4] = 7  # hot key
    ts = rng.choice(np.arange(n_rows * 10), size=n_rows, replace=False).astype(
        np.int64
    )  # unique ts -> deterministic orders
    vals = rng.normal(size=n_rows)
    ids = np.arange(n_rows, dtype=np.int64)
    df = pd.DataFrame({"u": users, "ts": ts, "v": vals, "id": ids})
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(
        n_blocks
    )
    return df, ds


def _layouts():
    """Input block count x exchange partition count."""
    return [(k, p) for k in (1, 3, 8) for p in (1, 2, 5)]


def _check_topk(df, ds):
    from metacache_mpi_ray.stages.windows import topk_per_group

    got = (
        topk_per_group(ds, "u", "v", 5, tiebreak=["id"])
        .to_pandas()
        .sort_values(["u", "rank"])
        .reset_index(drop=True)
    )
    exp = (
        df.sort_values(["v", "id"], ascending=[False, True])
        .groupby("u", sort=False)
        .head(5)
        .copy()
    )
    exp = exp.sort_values(["u", "v", "id"], ascending=[True, False, True])
    exp["rank"] = exp.groupby("u").cumcount() + 1
    exp = exp.sort_values(["u", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["u", "id", "rank"]], exp[["u", "id", "rank"]], check_dtype=False
    )


def test_topk_stress_matches_pandas():
    _check_topk(*_events())


def _check_lag(df, ds):
    from metacache_mpi_ray.stages.windows import lag_per_group

    got = (
        lag_per_group(ds, "u", "ts", "id", out_col="prev")
        .to_pandas()
        .sort_values(["u", "ts"])
        .reset_index(drop=True)
    )
    exp = df.sort_values(["u", "ts"]).reset_index(drop=True)
    exp["prev"] = exp.groupby("u")["id"].shift(1)
    assert len(got) == len(exp)
    g = got["prev"].to_numpy(dtype=float)
    e = exp["prev"].to_numpy(dtype=float)
    both_nan = np.isnan(g) & np.isnan(e)
    assert (both_nan | (g == e)).all()


def test_lag_stress_matches_pandas():
    _check_lag(*_events())


def _check_sessionize(df, ds, gap=40000):
    from metacache_mpi_ray.stages.windows import sessionize

    got = (
        sessionize(ds, "u", "ts", gap_us=gap)
        .to_pandas()
        .sort_values(["u", "session_id"])
        .reset_index(drop=True)
    )
    e = df.sort_values(["u", "ts"]).copy()
    prev = e.groupby("u")["ts"].shift(1)
    new = prev.isna() | ((e["ts"] - prev) > gap)
    e["sid"] = new.groupby(e["u"]).cumsum().astype("int64") - 1
    exp = (
        e.groupby(["u", "sid"])
        .agg(n_events=("ts", "size"), t_start=("ts", "min"), t_end=("ts", "max"))
        .reset_index()
        .rename(columns={"sid": "session_id"})
        .sort_values(["u", "session_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["u", "session_id", "n_events", "t_start", "t_end"]],
        exp[["u", "session_id", "n_events", "t_start", "t_end"]],
        check_dtype=False,
    )


def test_sessionize_stress_matches_pandas():
    _check_sessionize(*_events())


def _check_collect_members(df, ds):
    from metacache_mpi_ray.stages.windows import collect_members

    got = (
        collect_members(
            ds.select_columns(["u", "id"]), "u", "id"
        )
        .to_pandas()
        .sort_values("u")
        .reset_index(drop=True)
    )
    exp = (
        df.sort_values(["u", "id"])
        .groupby("u")["id"]
        .agg(lambda s: ",".join(map(str, s)))
        .reset_index(name="members")
    )
    exp["rep_id"] = df.groupby("u")["id"].min().values
    exp = exp.sort_values("u").reset_index(drop=True)
    assert (got["u"].values == exp["u"].values).all()
    assert (got["rep_id"].values == exp["rep_id"].values).all()
    assert list(got["members"]) == list(exp["members"])


def test_collect_members_stress_matches_pandas():
    _check_collect_members(*_events())


def _check_quantile(df, ds, qs=(0.0, 0.25, 0.5, 0.9, 1.0)):
    from metacache_mpi_ray.stages.windows import quantile_per_group

    for q in qs:
        got = (
            quantile_per_group(ds, "u", "ts", q)
            .to_pandas()
            .sort_values("u")
            .reset_index(drop=True)
        )
        exp = (
            df.sort_values(["u", "ts"])
            .groupby("u")["ts"]
            .apply(lambda s: s.iloc[int(np.floor(q * (len(s) - 1)))])
            .reset_index(name="quantile")
        )
        assert (got["u"].values == exp["u"].values).all()
        assert (got["quantile"].values == exp["quantile"].values).all(), q


def test_quantile_stress_matches_pandas():
    _check_quantile(*_events())


def test_window_ops_match_pandas_at_every_layout(monkeypatch):
    """A small input at every block layout x partition count: each
    group reaches one reduce whole, so every op equals its pandas
    reference at every layout."""
    from metacache_mpi_ray.stages import joins

    df, ds = _events(n_rows=3000, n_users=40, n_blocks=1)
    for k, parts in _layouts():
        monkeypatch.setattr(joins, "default_num_partitions", lambda **_: parts)
        laid = ds.repartition(k)
        _check_topk(df, laid)
        _check_lag(df, laid)
        _check_sessionize(df, laid, gap=400)
        _check_collect_members(df, laid)
        _check_quantile(df, laid, qs=(0.0, 0.5, 1.0))


def test_quantile_skips_nulls_like_duckdb():
    """quantile_disc semantics: NULL values are skipped, an all-NULL
    group yields NULL, and every output block keeps the value type."""
    import duckdb

    from metacache_mpi_ray.stages.windows import quantile_per_group

    tab = pa.table(
        {
            "g": pa.array([1, 1, 1, 1, 2, 2, 3, 3, 3, 4], type=pa.int64()),
            "v": pa.array([5, None, 1, 3, None, None, 7, 2, None, 6], type=pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", tab)
    ds = rd.from_arrow(tab).repartition(4)
    for q in (0.0, 0.5, 1.0):
        out = quantile_per_group(ds, "g", "v", q)
        blocks = [ray.get(r) for r in out.to_arrow_refs()]
        assert all(b.schema.field("quantile").type == pa.int64() for b in blocks), q
        got = {
            g: v
            for b in blocks
            for g, v in zip(b["g"].to_pylist(), b["quantile"].to_pylist())
        }
        want = dict(con.execute(f"SELECT g, quantile_disc(v, {q}) FROM t GROUP BY g").fetchall())
        assert got == want, q


def test_hopping_window_agg_counts():
    from ray.data.aggregate import Count

    from metacache_mpi_ray.stages.windows import hopping_window_agg

    df, ds = _events(n_rows=3000, n_users=10)
    out = (
        hopping_window_agg(ds, "u", "ts", 4000, 1000, [Count(alias_name="n")])
        .to_pandas()
    )
    # every event counted in exactly width/slide = 4 windows
    assert out["n"].sum() == 4 * len(df)
    # spot-check one (user, window) cell against brute force
    row = out.iloc[0]
    w, u = int(row["window_id"]), row["u"]
    lo, hi = w * 1000, w * 1000 + 4000
    brute = ((df["u"] == u) & (df["ts"] >= lo) & (df["ts"] < hi)).sum()
    assert int(row["n"]) == brute
