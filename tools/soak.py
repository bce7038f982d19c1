"""Scale soak: checkpointed index build + crash-resume +
incremental query at N docs (default 1M), bracketed by bench.py's
capacity probe (``_ray_probe``, a fixed mini flagship) so the numbers
are attributable on a throttled VM (BASELINE.md methodology).

Usage: python tools/soak.py [n_docs] [--root DIR]

Phases (each timed, probes before/after the suite):
  1. cold build_index into a fresh checkpoint root (all artifacts:
     hash-sharded signatures, bands, verified and clusters)
  2. crash simulation: delete the verified and clusters stages and
     re-run build_index — the graph starts from the stored signature
     and band files, and only verified and clusters are written
     (resume evidence at soak scale, r3 verdict item 5)
  3. warm full resume (everything cached) — should be ~seconds
  4. query_against_index of a 10% batch (50% copies / 50% fresh), run
     twice: cold, then warm (the workers keep the index files the cold
     run decoded). Reports each run's telemetry row incl. sig_files_read
     vs total (signature shards consulted by the verify tasks) and
     files_decoded / bytes_decoded (files read from disk)
  5. the REPL path: ``ReplIndex`` loads the index, then 500 single-text
     lookups (half copies, half fresh) give ``repl_p50_ms``
"""
import json
import os
import shutil
import sys
import time

n_docs = 1_000_000
root = None
args = sys.argv[1:]
while args:
    a = args.pop(0)
    if a == "--root":
        root = args.pop(0)
    elif a.isdigit():
        n_docs = int(a)

root = root or f"/tmp/metacache_soak_idx_{n_docs}"

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from bench import _corpus_dir, _probe_input, _ray_probe, _read_docs  # noqa: E402

import ray  # noqa: E402

ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext  # noqa: E402

DataContext.get_current().enable_progress_bars = False

import ray.data as rd  # noqa: E402

from metacache_mpi_ray.config import DedupConfig  # noqa: E402
from metacache_mpi_ray.pipelines.incremental import (  # noqa: E402
    build_index,
    query_against_index,
)

out: dict = {"n_docs": n_docs, "cpus": int(ray.cluster_resources()["CPU"])}
corpus = _corpus_dir(n_docs)
probe = _probe_input(corpus)
out["probe_start"] = _ray_probe(probe)
cfg = DedupConfig()
num_partitions = 32


if os.path.exists(root):
    shutil.rmtree(root)

t0 = time.perf_counter()
clusters = build_index(_read_docs(corpus), cfg, root, num_partitions=num_partitions)
n_rows = clusters.count()
out["cold_build_sec"] = round(time.perf_counter() - t0, 2)
out["clusters_rows"] = n_rows

# crash simulation: a build killed after installing signatures and
# bands; the resume reads their files in place of the sign tasks (docs
# is never executed) and writes only verified and clusters
for stage in ("verified", "clusters"):
    for p in (os.path.join(root, f"{stage}.done"), os.path.join(root, stage)):
        if os.path.isdir(p):
            shutil.rmtree(p)
        elif os.path.exists(p):
            os.remove(p)
t0 = time.perf_counter()
clusters2 = build_index(_read_docs(corpus), cfg, root, num_partitions=num_partitions)
n2 = clusters2.count()
out["resume_from_verified_sec"] = round(time.perf_counter() - t0, 2)
assert n2 == n_rows, (n2, n_rows)

t0 = time.perf_counter()
n3 = build_index(_read_docs(corpus), cfg, root, num_partitions=num_partitions).count()
out["warm_full_resume_sec"] = round(time.perf_counter() - t0, 2)
assert n3 == n_rows

# query batch: 10% of corpus size — half exact copies, half alien
import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402

nq = max(1000, n_docs // 10)
half = nq // 2
pages = (
    rd.read_parquet(f"{corpus}/pages", columns=["url", "text", "html"])
    .limit(half)
    .to_pandas()
)
texts = [
    t if t is not None else (h or "")
    for t, h in zip(pages["text"], pages["html"])
]
fresh = [f"zzqx{i} wvnm{i} " * 50 for i in range(nq - half)]
batch = pa.table(
    {
        "doc_id": pa.array(
            np.arange(nq, dtype=np.int64) + 10_000_000_000, type=pa.int64()
        ),
        "text": pa.array(texts + fresh, type=pa.string()),
    }
)
from metacache_mpi_ray.stages.ingest import ingest_documents  # noqa: E402

docs_q = ingest_documents(rd.from_arrow(batch).repartition(16))
for run in ("cold", "warm"):
    t0 = time.perf_counter()
    res = query_against_index(docs_q, root, num_partitions=num_partitions).to_pandas()
    out[f"query_{run}_sec"] = round(time.perf_counter() - t0, 2)
    out["query_rows"] = len(res)
    out["query_matched"] = int(res["matched"].sum())
    # pruning and decode telemetry from the probe's metrics row
    with open(os.path.join(root, "metrics.jsonl")) as f:
        rows = [json.loads(l) for l in f if '"query_probe"' in l]
    out[f"probe_telemetry_{run}"] = {
        k: rows[-1][k]
        for k in (
            "n_candidate_pairs", "n_verified", "n_matched_new_docs",
            "sig_files_read", "sig_files_total", "files_decoded",
            "bytes_decoded", "stored_bytes_read", "status",
        )
    }
from metacache_mpi_ray.pipelines.incremental import ReplIndex  # noqa: E402

t0 = time.perf_counter()
repl = ReplIndex(root)
out["repl_load_sec"] = round(time.perf_counter() - t0, 2)
lat = []
for text in texts[:250] + fresh[:250]:
    t0 = time.perf_counter()
    repl.query(text)
    lat.append(time.perf_counter() - t0)
out["repl_p50_ms"] = round(float(np.median(lat)) * 1e3, 3)
del repl
out["probe_end"] = _ray_probe(probe)
print(json.dumps(out))
ray.shutdown()
