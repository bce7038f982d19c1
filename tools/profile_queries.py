"""Time every __ray_entry__.queries() entry (and its DuckDB oracle) at a
given sf dir, mimicking the driver's CORRECTNESS pass.

Usage: python tools/profile_queries.py [sf_dir] [--only name1,name2]
Prints one line per query: engine_sec oracle_sec rows and the sha256 of
its output (``output_digest``), plus a total. Two checkouts' outputs of
a query are equal when their digests are.
"""
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def output_digest(df) -> str:
    """sha256 of a query's output frame, its rows sorted by every column
    (column order kept): the CSV of the sorted rows, with list and
    array cells written as their Python lists."""
    key = df.copy()
    for c in key.columns:
        if key[c].dtype == object:
            key[c] = key[c].map(lambda v: repr(v.tolist() if hasattr(v, "tolist") else v))
    key = key.sort_values(list(key.columns), kind="stable")
    return hashlib.sha256(key.to_csv(index=False).encode()).hexdigest()


def main() -> None:
    sf_dir = "/root/testdata/sf0.01"
    only = None
    args = sys.argv[1:]
    while args:
        a = args.pop(0)
        if a == "--only":
            only = set(args.pop(0).split(","))
        else:
            sf_dir = a

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False)

    import duckdb
    import pandas as pd
    import pyarrow as pa

    import __ray_entry__ as entry

    qs = entry.queries()
    oracles = entry.oracle_sql()

    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events "
        "documents embeddings"
    ).split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')"
        )

    results = {}
    t_suite = time.perf_counter()
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        err = None
        nrows = -1
        digest = None
        try:
            out = fn(sf_dir)
            if hasattr(out, "to_pandas") and not isinstance(out, pd.DataFrame):
                if isinstance(out, pa.Table):
                    out = out.to_pandas()
                else:  # ray Dataset
                    out = out.to_pandas()
            nrows = len(out)
        except Exception as e:  # noqa: BLE001
            err = f"{type(e).__name__}: {e}"[:200]
        t_engine = time.perf_counter() - t0
        if err is None:
            try:
                digest = output_digest(pd.DataFrame(out))
            except Exception as e:  # noqa: BLE001
                err = f"digest {type(e).__name__}: {e}"[:200]

        t_oracle = 0.0
        orows = None
        if name in oracles and err is None:
            t1 = time.perf_counter()
            try:
                odf = con.execute(oracles[name]).df()
                orows = len(odf)
            except Exception as e:  # noqa: BLE001
                err = f"oracle {type(e).__name__}: {e}"[:200]
            t_oracle = time.perf_counter() - t1

        results[name] = {
            "engine_sec": round(t_engine, 3),
            "oracle_sec": round(t_oracle, 3),
            "rows": nrows,
            "oracle_rows": orows,
            "sha256": digest,
            "err": err,
        }
        print(
            f"{name:34s} eng {t_engine:7.2f}s  orc {t_oracle:7.2f}s  "
            f"rows {nrows:>7}  sha256 {(digest or '-')[:16]}  {err or ''}",
            flush=True,
        )

    total = time.perf_counter() - t_suite
    print(f"\nTOTAL {total:.1f}s over {len(results)} queries")
    slow = sorted(
        results.items(),
        key=lambda kv: kv[1]["engine_sec"] + kv[1]["oracle_sec"],
        reverse=True,
    )[:10]
    print("slowest:")
    for n, r in slow:
        print(f"  {n:34s} {r['engine_sec'] + r['oracle_sec']:7.2f}s")
    with open("/tmp/profile_queries.json", "w") as f:
        json.dump({"total_sec": total, "results": results}, f, indent=1)
    ray.shutdown()


if __name__ == "__main__":
    main()
