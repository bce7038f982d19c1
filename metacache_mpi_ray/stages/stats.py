"""Summary-statistics operators — the analog of the reference's
info-mode index statistics (/root/reference/src/mode_info.cpp:288-345)
built on accumulating moments (/root/reference/src/stat_moments.h):
mean / variance / skewness over grouped values via distributed power
sums — one hash-shuffle groupby carrying Sum(x), Sum(x²), Sum(x³),
Count; the higher moments are derived in a final vectorized map.
``histogram_moments`` derives the same row from a bucket-size histogram
(the census of ``info`` and the census queries).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data.aggregate import Count, Sum

from metacache_mpi_ray.stages.candidates import histogram_sums


_SUMS = ("n", "sum_x", "sum_x2", "sum_x3")


def moments_from_sums(n, s1, s2, s3):
    """(mean, variance, skewness) float64 arrays from the count and the
    power sums Σx, Σx², Σx³ (arrays of one value per group)."""
    n, s1, s2, s3 = (np.asarray(v).astype(np.float64) for v in (n, s1, s2, s3))
    mean = s1 / n
    var = np.maximum(s2 / n - mean**2, 0.0)
    # E[(x-µ)³] = s3/n - 3µ s2/n + 2µ³ ; skew = m3 / σ³
    m3 = s3 / n - 3 * mean * s2 / n + 2 * mean**3
    sd = np.sqrt(var)
    skew = np.where(sd > 0, m3 / np.where(sd > 0, sd, 1.0) ** 3, 0.0)
    return mean, var, skew


def grouped_moments(ds, group_cols, value_col: str):
    """-> per-group (group_cols..., n, sum_x, sum_x2, sum_x3 int64 and
    mean, variance, skewness float64). ``group_cols=None`` gives global
    moments. Integer power sums ride exactly (hash-stable for oracles);
    floats are derived views."""

    def powers(t: pa.Table) -> pa.Table:
        x = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {c: t[c] for c in (group_cols or [])}
        cols["__x"] = pa.array(x, type=pa.int64())
        cols["__x2"] = pa.array(x * x, type=pa.int64())
        cols["__x3"] = pa.array(x * x * x, type=pa.int64())
        return pa.table(cols)

    key = group_cols if group_cols else None
    agg = (
        ds.map_batches(powers, batch_format="pyarrow")
        .groupby(key)
        .aggregate(
            Count(alias_name="n"),
            Sum("__x", alias_name="sum_x"),
            Sum("__x2", alias_name="sum_x2"),
            Sum("__x3", alias_name="sum_x3"),
        )
    )

    return agg.map_batches(_with_moments, batch_format="pyarrow")


def _with_moments(t: pa.Table) -> pa.Table:
    """A table with n, sum_x, sum_x2, sum_x3 columns -> it with mean,
    variance and skewness appended (derived views of the exact sums)."""
    floats = moments_from_sums(*(t[c].to_numpy(zero_copy_only=False) for c in _SUMS))
    for c, v in zip(("mean", "variance", "skewness"), floats):
        t = t.append_column(c, pa.array(v, type=pa.float64()))
    return t


def histogram_moments(hist: pa.Table) -> pa.Table:
    """A (bucket_size, n_buckets) histogram (``candidates.bucket_histogram``)
    -> the one row ``grouped_moments`` gives with no group columns; the
    sums are exact, so one past int64 raises instead of wrapping. The
    floats come from the exact Python-int sums, as ``info`` derives
    them, so both report the same values."""
    sums = histogram_sums(hist)
    t = pa.table({c: pa.array([v], type=pa.int64()) for c, v in zip(_SUMS, sums)})
    for c, v in zip(("mean", "variance", "skewness"), moments_from_sums(*sums)):
        t = t.append_column(c, pa.array([float(v)], type=pa.float64()))
    return t
