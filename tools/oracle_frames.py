"""Compare a registered query's output with its DuckDB oracle.

One helper for every oracle check: ``tools/drive_entry.py`` (the whole
registry) and the tier-1 tests that drive single queries. Nothing here
starts Ray.
"""
import duckdb
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def oracle_connection(sf_dir: str):
    """DuckDB connection with the sf dir's tables registered as views."""
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Columns sorted by name, int-ish columns as int64, floats rounded
    to 6 places, rows sorted by every column."""
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]) or str(df[c].dtype).startswith(
            ("uint", "int")
        ):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64").round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(out: pd.DataFrame, oracle: pd.DataFrame) -> dict:
    """Row count, column names and values of ``out`` against ``oracle``
    (canonicalized first): ``{"rows", "oracle_rows", "rows_ok",
    "schema_ok", "values_ok", "ok"}``."""
    a, b = canon(out.copy()), canon(oracle)
    res = {
        "rows": len(a),
        "oracle_rows": len(b),
        "rows_ok": len(a) == len(b),
        "schema_ok": list(a.columns) == list(b.columns),
        "values_ok": False,
    }
    if res["rows_ok"] and res["schema_ok"]:
        try:
            pd.testing.assert_frame_equal(a, b, check_dtype=False, atol=1e-6, rtol=1e-6)
            res["values_ok"] = True
        except AssertionError:
            pass
    res["ok"] = res["rows_ok"] and res["schema_ok"] and res["values_ok"]
    return res
