"""Driver-mirror verification: drive __ray_entry__ the way the driver
does — smoke entry(), run every queries() entry, compare oracle-backed
ones against DuckDB (row count + schema + sorted-column sorted-row
values, int-ish columns cast to int64). Exit code 1 on any failure.

Usage: python tools/drive_entry.py [sf_dir] [--only a,b,c] [--json out.json]

--json writes a committable artifact: one record per driven query
(status, rows, seconds) plus suite totals, mirroring the driver's
CORRECTNESS_r{N}.json but over the FULL registry instead of its
50-query window.
"""
import json
import os
import sys
import time

sf_dir = "/root/testdata/sf0.01"
only = None
json_out = None
args = sys.argv[1:]
while args:
    a = args.pop(0)
    if a == "--only":
        only = set(args.pop(0).split(","))
    elif a == "--json":
        json_out = args.pop(0)
    else:
        sf_dir = a

import ray

ray.init(address="local", num_cpus=8, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

import __ray_entry__ as E

# --- smoke ---
t0 = time.perf_counter()
res = E.entry()
if hasattr(res, "to_pandas") and not isinstance(res, pd.DataFrame):
    res = res.to_pandas()
print(f"entry(): {len(res)} rows, cols={list(res.columns)} "
      f"({time.perf_counter() - t0:.1f}s)", flush=True)

qs = E.queries()
oracles = E.oracle_sql()

con = duckdb.connect()
for t in ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split():
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')")


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]) or str(df[c].dtype).startswith(
                ("uint", "int")):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64").round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


n_pass = n_rows_only = n_fail = 0
fails = []
records = {}
t_suite = time.perf_counter()
for name, fn in qs.items():
    if only and name not in only:
        continue
    t1 = time.perf_counter()
    try:
        out = fn(sf_dir)
        if isinstance(out, pa.Table):
            out = out.to_pandas()
        elif hasattr(out, "to_pandas") and not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        eng_s = time.perf_counter() - t1
        if name not in oracles:
            n_rows_only += 1
            records[name] = {"status": "no_oracle", "rows": len(out),
                             "sec": round(eng_s, 2)}
            print(f"{name:36s} rows-only  {len(out):>7} rows  "
                  f"{eng_s:6.2f}s", flush=True)
            continue
        odf = con.execute(oracles[name]).df()
        a, b = canon(out.copy()), canon(odf)
        ok_rows = len(a) == len(b)
        ok_schema = list(a.columns) == list(b.columns)
        ok_vals = False
        if ok_rows and ok_schema:
            try:
                pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                              atol=1e-6, rtol=1e-6)
                ok_vals = True
            except AssertionError:
                ok_vals = False
        if ok_rows and ok_schema and ok_vals:
            n_pass += 1
            records[name] = {"status": "pass", "rows": len(a),
                             "sec": round(eng_s, 2)}
            print(f"{name:36s} PASS       {len(a):>7} rows  "
                  f"{eng_s:6.2f}s", flush=True)
        else:
            n_fail += 1
            fails.append(name)
            records[name] = {"status": "fail", "rows": len(a),
                             "oracle_rows": len(b), "schema_ok": ok_schema,
                             "sec": round(eng_s, 2)}
            print(f"{name:36s} FAIL rows={len(a)}/{len(b)} "
                  f"schema={ok_schema} cols_eng={list(out.columns)} "
                  f"cols_orc={list(odf.columns)}", flush=True)
    except Exception as e:  # noqa: BLE001
        n_fail += 1
        fails.append(name)
        records[name] = {"status": "error",
                         "error": f"{type(e).__name__}: {e}"[:200]}
        print(f"{name:36s} ERROR {type(e).__name__}: {e}"[:250], flush=True)

total = time.perf_counter() - t_suite
print(f"\nTOTAL {total:.1f}s  pass={n_pass} rows_only={n_rows_only} "
      f"fail={n_fail}")
if fails:
    print("FAILS:", fails)
if json_out:
    with open(json_out, "w") as f:
        json.dump({"sf_dir": sf_dir, "total_sec": round(total, 1),
                   "pass": n_pass, "rows_only": n_rows_only,
                   "fail": n_fail, "queries": records}, f, indent=1)
    print(f"wrote {json_out}")
ray.shutdown()
sys.exit(1 if fails else 0)
