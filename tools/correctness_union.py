"""Cross-round CORRECTNESS union report (VERDICT r4 item 1).

The driver's per-round CORRECTNESS run caps at 50 queries in registry
order, so no single round covers the full registry. This tool merges
every CORRECTNESS_r*.json with the current registry and prints, per
query: the newest round with a green row, the check strength
(oracle-hash vs rows-only), and staleness in rounds — making "which
oracle hasn't been re-verified lately" visible at a glance.

Usage: python tools/correctness_union.py [--write CORRECTNESS_UNION.md]
Exit 1 if any query recorded a red (mismatch/error) in its newest
round, or a registered query has no evidence and is NOT in the upcoming
window (first 50) — i.e. the rotation failed to schedule it.
"""
import glob
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def registry_order() -> list[str]:
    src = open(os.path.join(REPO, "metacache_mpi_ray/pipelines/queries.py")).read()
    m = re.search(r"^QUERIES = \{(.*?)^\}", src, re.S | re.M)
    return re.findall(r'"([a-z0-9_]+)":\s*q_', m.group(1))


def oracle_keys() -> set[str]:
    src = open(os.path.join(REPO, "metacache_mpi_ray/pipelines/queries.py")).read()
    m = re.search(r"^ORACLE_SQL = \{(.*?)\n\}", src, re.S | re.M)
    return set(re.findall(r'^\s{4}"([a-z0-9_]+)":', m.group(1), re.M))


def load_rounds() -> dict[int, dict]:
    rounds = {}
    for f in sorted(glob.glob(os.path.join(REPO, "CORRECTNESS_r*.json"))):
        m = re.search(r"_r(\d+)\.json$", f)
        if m:
            rounds[int(m.group(1))] = json.load(open(f))
    return rounds


def load_self_drives() -> dict[int, dict]:
    """DRIVE_FULL_r{N}.json — the committed full-registry self-drive
    (tools/drive_entry.py --json): same oracles, no 50-query cap."""
    drives = {}
    for f in sorted(glob.glob(os.path.join(REPO, "DRIVE_FULL_r*.json"))):
        m = re.search(r"_r(\d+)\.json$", f)
        if m:
            drives[int(m.group(1))] = json.load(open(f)).get("queries", {})
    return drives


def row_status(row: dict) -> str:
    """green = all three matches true; rows_only = the driver recorded
    err='no_oracle' with a row count (the weaker rows-only check); red =
    a mismatch or a real error."""
    if row.get("err") == "no_oracle":
        return "rows_only" if row.get("spark_rows") is not None else "red"
    if row.get("err"):
        return "red"
    if row.get("hash_match") and row.get("rows_match") and row.get("schema_match"):
        return "green"
    return "red"


def build_report():
    reg = registry_order()
    oracles = oracle_keys()
    rounds = load_rounds()
    drives = load_self_drives()
    latest_round = max(rounds) if rounds else 0
    rows = []
    for pos, q in enumerate(reg):
        newest, status = None, "never"
        for r in sorted(rounds, reverse=True):
            if q in rounds[r]:
                newest, status = r, row_status(rounds[r][q])
                break
        drive_status = None
        for r in sorted(drives, reverse=True):
            if q in drives[r]:
                s = drives[r][q]["status"]
                drive_status = f"r{r} {'green' if s == 'pass' else s}"
                break
        rows.append(
            {
                "query": q,
                "pos": pos,
                "oracle": q in oracles,
                "last_round": newest,
                "status": status,
                "stale_rounds": (latest_round - newest) if newest else None,
                "in_next_window": pos < 50,
                "self_drive": drive_status,
            }
        )
    return rows, latest_round


def main() -> int:
    rows, latest = build_report()
    out = None
    if "--write" in sys.argv:
        out = sys.argv[sys.argv.index("--write") + 1]
    lines = [
        f"# CORRECTNESS union (through round {latest})",
        "",
        "| query | check | last green | stale (rounds) | next window | self-drive |",
        "|---|---|---|---|---|---|",
    ]
    bad = 0
    for r in rows:
        kind = "oracle" if r["oracle"] else "rows-only"
        last = f"r{r['last_round']} {r['status']}" if r["last_round"] else "NEVER"
        stale = "-" if r["stale_rounds"] is None else str(r["stale_rounds"])
        lines.append(
            f"| {r['query']} | {kind} | {last} | {stale} |"
            f" {'yes' if r['in_next_window'] else ''} |"
            f" {r['self_drive'] or ''} |"
        )
        if r["status"] == "red":
            bad += 1
            print(f"RED: {r['query']} (r{r['last_round']})", file=sys.stderr)
        if r["status"] == "never" and not r["in_next_window"]:
            bad += 1
            print(f"UNSCHEDULED+NEVER: {r['query']}", file=sys.stderr)
    n_oracle = sum(r["oracle"] for r in rows)
    n_green = sum(r["status"] == "green" for r in rows)
    n_never = sum(r["status"] == "never" for r in rows)
    max_oracle_stale = max(
        (r["stale_rounds"] for r in rows if r["oracle"] and r["stale_rounds"] is not None),
        default=0,
    )
    n_drive_green = sum(
        1 for r in rows if r["self_drive"] and r["self_drive"].endswith("green")
    )
    n_drive_bad = sum(
        1 for r in rows
        if r["self_drive"] and r["self_drive"].split()[-1] in ("fail", "error")
    )
    bad += n_drive_bad
    summary = (
        f"{len(rows)} registered ({n_oracle} oracle-backed); "
        f"{n_green} oracle-green all-time, {n_never} never driven; "
        f"max oracle staleness {max_oracle_stale} round(s); "
        f"self-drive: {n_drive_green} green, {n_drive_bad} red"
    )
    lines += ["", summary, ""]
    text = "\n".join(lines)
    if out:
        open(out, "w").write(text)
        print(f"wrote {out}")
    print(summary)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
