"""Tests of the benchmark itself: python3 -m pytest perfbench -q -p no:cacheprovider

The last test runs the benchmark command end to end (about three
minutes at 2 Ray CPUs)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import corpora  # noqa: E402
import host  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, check_span_tree, self_times  # noqa: E402
from workloads import Context, WebMix, assignment_problems, pair_scores  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(os.path.join(HERE, "predictions.json")) as f:
    PREDICTIONS = json.load(f)


# ---- generators ----------------------------------------------------------


def test_dup_heavy_deterministic_per_seed():
    a_pages, a_truth = corpora.dup_heavy_pages(5000, 5)
    b_pages, b_truth = corpora.dup_heavy_pages(5000, 5)
    assert a_pages.equals(b_pages) and a_truth.equals(b_truth)
    c_pages, _ = corpora.dup_heavy_pages(5000, 6)
    assert not a_pages.equals(c_pages)


def test_dup_heavy_keeps_exact_groups_above_the_cap():
    pages, truth = corpora.dup_heavy_pages(5000, 1)
    kinds = np.array(truth["dup_kind"].to_pylist())
    clusters = truth["true_cluster"].to_numpy()
    texts = pages["html"].to_pylist()
    hot = np.unique(clusters[kinds == "exact_hot"])
    assert len(hot) == len(corpora.HOT_EXACT_GROUPS)
    for c in hot:
        members = np.flatnonzero(clusters == c)
        assert len(members) > corpora.BUCKET_CAP
        assert len({texts[i] for i in members}) == 1
    sizes = np.unique(clusters, return_counts=True)[1]
    assert sizes.min() == 1 and sizes.max() > corpora.BUCKET_CAP
    assert np.mean(np.isin(kinds, ["near", "near_hot"])) >= corpora.NEAR_SHARE


def test_web_mix_and_daily_batches_deterministic_per_seed():
    a, _ = corpora.web_mix_pages(500, 3)
    b, _ = corpora.web_mix_pages(500, 3)
    assert a.equals(b)
    p1, re1 = corpora.daily_batch(a, 40, seed=3, batch=2)
    p2, re2 = corpora.daily_batch(a, 40, seed=3, batch=2)
    assert p1.equals(p2) and np.array_equal(re1, re2)
    assert re1.sum() == 20 and p1.num_rows == 40
    other, _ = corpora.daily_batch(a, 40, seed=3, batch=3)
    assert not other.equals(p1)
    stored_urls = set(a["url"].to_pylist())
    assert not stored_urls & set(p1["url"].to_pylist())
    stored_html = set(a["html"].to_pylist())
    html = p1["html"].to_pylist()
    assert all(h in stored_html for h in html[:20])
    assert not any(h in stored_html for h in html[20:])


# ---- scores and checks ---------------------------------------------------


def test_pair_scores_from_contingency_counts():
    true = np.array([0, 0, 0, 1, 1, 2])
    # one true pair of cluster 0 split off, one false pair (2 with 1)
    got = np.array([10, 10, 11, 12, 12, 12])
    recall, precision = pair_scores(true, got)
    assert recall == pytest.approx(2 / 4)  # found (0,1) and (3,4) of 4 true pairs
    assert precision == pytest.approx(2 / 4)  # 1 + 3 predicted pairs


def test_assignment_problems():
    ids = np.array([1, 2, 3, 4])
    good = pa.table({"doc_id": [3, 1, 2, 4], "cluster_id": [1, 1, 1, 4]})
    edges = pa.table({"a": [1, 1], "b": [2, 3]})
    assert assignment_problems(good, ids, edges) == []
    split = pa.table({"doc_id": [3, 1, 2, 4], "cluster_id": [3, 1, 1, 4]})
    assert any("edge" in p for p in assignment_problems(split, ids, edges))
    foreign = pa.table({"doc_id": [3, 1, 2, 4], "cluster_id": [9, 9, 9, 4]})
    assert assignment_problems(foreign, ids, pa.table({"a": [1], "b": [2]}))
    missing = pa.table({"doc_id": [1, 2, 3], "cluster_id": [1, 1, 1]})
    assert assignment_problems(missing, ids, edges)


def test_log_counters(tmp_path):
    logs = tmp_path / "logs"
    (logs / "ray-data").mkdir(parents=True)
    schema = "(ReadParquet pid=1) Failed to hash the schemas (for deduplication): x\n"
    (logs / "worker-a-ffff-1.err").write_text(schema * 2 + "unrelated\n")
    (logs / "ray-data" / "ray-data.log").write_text(schema * 2)  # a copy, not counted
    (logs / "python-core-driver-01_9.log").write_text(
        "E core_worker.cc: Actor X has constructor arguments in the object store "
        "and max_restarts > 0. If ...\n"
    )
    (logs / "raylet.out").write_text(
        "Spilled 90 MiB, 3 objects, write throughput 90 MiB/s.\n"
        "Spilled 120 MiB, 4 objects, write throughput 60 MiB/s.\n"
    )
    assert host.recurring_warnings(str(tmp_path)) == 3
    assert host.spilled_mb(str(tmp_path)) == 120.0
    (logs / "raylet.out").write_text("nothing spilled\n")
    assert host.spilled_mb(str(tmp_path)) == 0.0


# ---- spans ---------------------------------------------------------------


def _tree() -> Tracer:
    t = Tracer()
    with t.span("run"):
        with t.span("flagship"):
            with t.span("a"):
                time.sleep(0.01)
            with t.span("b"):
                time.sleep(0.01)
        with t.span("c"):
            pass
    return t


def test_span_tree_well_formed():
    t = _tree()
    assert check_span_tree(t.spans, "flagship") == []
    assert check_span_tree(t.spans, "run") == []
    selfs = self_times(t.spans)
    assert all(v >= 0 for v in selfs.values())
    assert sum(selfs.values()) == pytest.approx(t.seconds("run"))
    assert {s["run_id"] for s in t.spans} == {t.run_id}


def test_span_tree_problems_detected():
    t = _tree()
    bad = [dict(s) for s in t.spans]
    a = next(s for s in bad if s["name"] == "a")
    a["end"] = next(s for s in bad if s["name"] == "run")["end"] + 1
    assert any("outside" in p for p in check_span_tree(bad, "run"))
    other = [dict(s) for s in t.spans]
    other[-1]["run_id"] = "x"
    assert check_span_tree(other, "run")


# ---- declarations ---------------------------------------------------------


def test_result_line_refuses_undeclared_metrics():
    names = {m["name"]: 1.0 for m in BENCH["end_to_end"]}
    line = json.loads(run.result_line(True, 3, 0, names, trace=0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    with pytest.raises(ValueError):
        run.result_line(True, 3, 0, {**names, "made_up": 1.0}, trace=0)
    with pytest.raises(ValueError):
        run.result_line(True, 3, 0, {"setup_s": 1.0}, trace=0)


def test_every_layer_metric_has_a_prediction():
    layers = {m["name"] for m in BENCH["per_layer"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    workloads = {w["name"] for w in BENCH["workloads"]}
    assert set(PREDICTIONS["layers"]) == layers
    assert workloads <= set(PREDICTIONS["workloads"]) == set(run.CORPUS_DOCS)
    for row in PREDICTIONS["layers"].values():
        for target in row["moves"] + row["not"]:
            metric, workload = target.split("@")
            assert metric in e2e | layers and workload in run.CORPUS_DOCS


def _context(tmp_path, workload: str = "web_mix") -> Context:
    return Context(workload=workload, seed=1, seconds=0, partitions=1, docs=4, warm_docs=4,
                   batch_docs=2, min_ops=2, run_dir=str(tmp_path),
                   digests=run.DigestStore(str(tmp_path / "digests.json")), digest_key="k")


def test_a_run_whose_passes_all_fail_still_reports(tmp_path, monkeypatch):
    wl = WebMix(_context(tmp_path))
    monkeypatch.setattr(wl, "_truth_by_doc",
                        lambda: (np.arange(4), np.zeros(4, int), np.array(["unique"] * 4)))

    def failing_pass(pages_dir=None):
        raise RuntimeError("pass failed")

    monkeypatch.setattr(wl, "_pass", failing_pass)
    out = wl.timed()
    assert out.attempted == out.failed == 2
    assert out.metrics["success_rate"] == out.metrics["docs_per_s"] == 0
    line = json.loads(run.result_line(False, out.attempted, out.failed,
                                      {**out.metrics, "setup_s": 1.0}, trace=0))
    assert line["correct"] is False and line["failed"] == line["attempted"]


def test_main_prints_a_failed_result_when_the_run_raises(tmp_path, monkeypatch, capsys):
    class NoRay:
        started = False

        def __init__(self, cpus, temp_dir):
            pass

        def stop(self):
            pass

    class BrokenInputs(WebMix):
        def make_inputs(self):
            raise RuntimeError("inputs failed")

    for var in ("TMPDIR", "PYTHONPATH"):  # main sets both; restore them afterwards
        monkeypatch.setenv(var, os.environ.get(var, ""))
    monkeypatch.setattr(run, "STATE", str(tmp_path / "state"))
    monkeypatch.setattr(run, "RaySession", NoRay)
    monkeypatch.setitem(workloads.WORKLOADS, "web_mix", BrokenInputs)
    for trace in (0, 1):
        assert run.main(["--workload", "web_mix", "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--ray-cpus", "1", "--partitions", "1"]) == 0
        report, result = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()[-2:]]
        assert result["correct"] is False and result["attempted"] == result["failed"] == 1
        declared = {m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]}
        assert set(result["metrics"]) == declared
        assert "inputs failed" in report["report"]["problems"][0]


def _run(*args: str) -> tuple[dict, dict]:
    cmd = BENCH["command"] + list(args)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    report, result = _run("--workload", "index_daily", "--seed", "3", "--seconds", "1",
                          "--trace", str(trace))
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["ray_cpus"] and report["affinity_cpus"] and "nproc" in report
