"""Benchmark of the web-page dedup engine, measured from outside the engine.

    python3 perfbench/run.py --ray-cpus 2 --partitions 4 \
        --workload web_mix --seed 1 --seconds 12 --trace 0

Workloads (reasons in BENCHMARK.json, predictions in predictions.json):

* ``web_mix``: ``near_dup_pipeline`` over the planted crawl corpus;
* ``dup_heavy``: ``near_dup_pipeline`` over the templated corpus of
  ``corpora.dup_heavy_pages`` (hot buckets, large components);
* ``index_daily``: ``build_index`` once in set-up, then a closed loop of
  one client sending daily batches: ``query_against_index`` (read), then
  ``extend_index`` (write) onto a per-run copy of the index.

With ``--trace 0`` the run times the public entry points and prints the
end-to-end metrics. With ``--trace 1`` it composes the flagship from the
public stage calls with a ``.materialize()`` between layers, runs one
traced daily batch, and prints the per-layer metrics. The barriers undo
the flagship's operator fusion, so per-layer seconds are an attribution,
not an exact split of the untraced time.

Every run checks the engine's output and counts each mismatch as a
failed operation. The line before the result is a ``report`` object
with the machine's CPU counts, the Ray settings and every figure the
run measured; the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

CORPUS_DOCS = {"web_mix": 8000, "dup_heavy": 8000, "index_daily": 3000}
BATCH_DOCS = 100  # index_daily batch: half re-crawled, half fresh pages
WARM_DOCS = 1000  # fixed web_mix corpus the flagship set-up warms the workers on
MIN_OPS = 3  # timed operations per run even when --seconds is shorter
OBJECT_STORE_MB = 768
# AF_UNIX socket paths are capped at 107 bytes and Ray nests its sockets
# ~62 bytes below its temp dir (session_<timestamp>_<pid>/sockets/...)
MAX_RAY_TEMP_LEN = 44


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CORPUS_DOCS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # fixed for the machine in BENCHMARK.json's command
    p.add_argument("--ray-cpus", type=int, required=True)
    p.add_argument("--partitions", type=int, required=True)
    return p.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, trace: int) -> str:
    """The final stdout line; refuses metric names BENCHMARK.json does not declare."""
    units = declared_metrics(trace)
    if set(metrics) != set(units):
        raise ValueError(
            f"metrics differ from BENCHMARK.json: extra {sorted(set(metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(metrics))}"
        )
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        }
    )


def code_fingerprint() -> str:
    """Hash of the engine and benchmark sources; keys the digest store."""
    h = hashlib.sha256()
    for top in ("metacache_mpi_ray", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        h.update(name.encode() + f.read())
    return h.hexdigest()[:16]


class DigestStore:
    """Cluster-assignment digests of earlier runs of the same code and seed,
    kept in the checkout so a later run can be compared with them."""

    def __init__(self, path: str):
        self.path = path
        self.known: dict[str, str] = {}
        if os.path.exists(path):
            with open(path) as f:
                self.known = json.load(f)

    def agrees(self, key: str, digest: str) -> bool:
        """True when ``digest`` matches the stored one (or none is stored yet)."""
        if self.known.setdefault(key, digest) != digest:
            return False
        with open(self.path, "w") as f:
            json.dump(self.known, f, indent=1, sort_keys=True)
        return True


class RaySession:
    """The local Ray cluster of one run: started once and stopped here."""

    def __init__(self, cpus: int, temp_dir: str):
        self.cpus = cpus
        self.temp_dir = temp_dir
        self.started = False

    def start(self) -> float:
        """Start Ray; returns the seconds it took."""
        import ray
        from ray.data import DataContext

        t0 = time.perf_counter()
        ray.init(
            address="local",
            num_cpus=self.cpus,
            include_dashboard=False,
            logging_level="ERROR",
            object_store_memory=OBJECT_STORE_MB << 20,
            _temp_dir=self.temp_dir,
        )
        elapsed = time.perf_counter() - t0
        self.started = True
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        return elapsed

    def session_dir(self) -> str:
        import ray

        return ray._private.worker._global_node.get_session_dir_path()

    def stop(self) -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()


def failed_outcome(trace: int, error: Exception):
    """The outcome of a run whose set-up or measurement raised: one failed
    operation, every declared metric at the failure sentinel 0."""
    from workloads import Outcome

    return Outcome(
        attempted=1,
        failed=1,
        metrics=dict.fromkeys(declared_metrics(trace), 0.0),
        report={"problems": [repr(error)]},
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [ROOT, HERE]
    # the engine must be importable before anything starts
    import metacache_mpi_ray  # noqa: F401

    import host
    from workloads import WORKLOADS, Context

    os.makedirs(STATE, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=STATE)
    ray_temp = os.path.join(STATE, "ray")
    if len(ray_temp) > MAX_RAY_TEMP_LEN:
        ray_temp = tempfile.mkdtemp(prefix="pb-", dir="/tmp")
    os.makedirs(ray_temp, exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(run_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"])
    # Ray workers import the engine (and nothing else) from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )

    session = RaySession(args.ray_cpus, ray_temp)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        partitions=args.partitions,
        docs=CORPUS_DOCS[args.workload],
        warm_docs=WARM_DOCS,
        batch_docs=BATCH_DOCS,
        min_ops=MIN_OPS,
        run_dir=run_dir,
        digests=DigestStore(os.path.join(STATE, "digests.json")),
        digest_key=f"{args.workload}/{args.seed}/{code_fingerprint()}",
    )
    workload = WORKLOADS[args.workload](ctx)
    start_s = warm_s = 0.0
    try:
        try:
            workload.make_inputs()
            start_s = session.start()
            warm_s = workload.warm_up()
            out = workload.traced() if args.trace else workload.timed()
        except Exception as e:  # the run still reports, as one failed operation
            out = failed_outcome(args.trace, e)
        if session.started:
            session_dir = session.session_dir()
            out.report["log.recurring_warnings"] = host.recurring_warnings(session_dir)
            out.report["spilled_mb"] = host.spilled_mb(session_dir)
    finally:
        session.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(ray_temp, ignore_errors=True)

    if args.trace:
        out.metrics["log.recurring_warnings"] = out.report.get("log.recurring_warnings", 0)
        out.metrics["store.spilled_mb"] = out.report.get("spilled_mb", 0.0)
    else:
        out.metrics["setup_s"] = start_s + warm_s
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **host.machine(),
        "ray_cpus": args.ray_cpus,
        "partitions": args.partitions,
        "ray_start_s": start_s,
        "warm_up_s": warm_s,
        **out.report,
    }
    print(json.dumps({"report": report}))
    print(result_line(out.failed == 0, out.attempted, out.failed, out.metrics, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
