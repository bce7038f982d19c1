"""Benchmark harness — prints ONE JSON line with headline + per-query secs.

Headline: the flagship MinHash/LSH near-dup clustering pipeline over a
deterministic synthetic Common-Crawl-style pages corpus (BASELINE.json
input_hint shape; generated once and cached under /tmp), plus secondary
pipelines over the $GRAFT_SF_DIR testdata tables.

    python bench.py             # one run at $RAY_GRAFT_CPUS (default 32)
    python bench.py --scaling   # fresh subprocesses at N and 4N CPUs
                                # (GRAFT_SCALE_LO/HI, default 2 -> 8; see
                                # BASELINE.md for why not 8 -> 32) on the
                                # same input -> throughput at both +
                                # scaling efficiency (= speedup / 4)
    python bench.py --evidence  # the scaling suite at 4M docs + a size
                                # soak, appends a BASELINE.md row

Capacity probe: the benchmark VM's deliverable CPU swings several-fold
between runs (BASELINE.md), so every timed section is bracketed by
``_ray_probe`` (one fixed mini flagship, timed) and gated on it: an attempt
or leg whose probes exceed the gate is retried; discarded ones are recorded.

Environment: GRAFT_SF_DIR, RAY_GRAFT_CPUS, GRAFT_BENCH_DOCS (every mode);
GRAFT_SCALE_LO, GRAFT_SCALE_HI, GRAFT_SCALE_DOCS, GRAFT_SCALE_REPS
(--scaling, --evidence); GRAFT_EVIDENCE_SOAK (comma doc counts),
GRAFT_EVIDENCE_TAG (--evidence). A leg's parent also passes it
GRAFT_HEADLINE_ONLY and, on every attempt but the last, GRAFT_ABORT_GATE_SEC.

This script OWNS its Ray session (init+shutdown); library code never does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_DOCS = int(os.environ.get("GRAFT_BENCH_DOCS", "120000"))
CORPUS_SEED = 42
# N -> 4N scaling pair. Default 2 -> 8: the benchmark VM exposes 32 logical
# CPUs but delivers ~9 cores of parallel numpy throughput (BASELINE.md), so
# 8 -> 32 measures its ceiling; 2 -> 8 is on the linear part of the curve
SCALE_LO = int(os.environ.get("GRAFT_SCALE_LO", "2"))
SCALE_HI = int(os.environ.get("GRAFT_SCALE_HI", "8"))

#: the probe's fixed input: the first PROBE_DOCS docs of the corpus
PROBE_DOCS = 2048
#: a headline attempt is retried while either of its probes exceeds
#: this many seconds, up to BENCH_RETRIES times and within
#: BENCH_RETRY_BUDGET_SEC of wall time (under deep throttle an attempt
#: costs minutes, and the run must finish inside its budget)
BENCH_PROBE_GATE_SEC = 4.0
BENCH_RETRIES = 2
BENCH_RETRY_BUDGET_SEC = 420.0
#: healthy probe seconds by leg CPU count (measured at 2 and 8 CPUs: the
#: mini job's parallel slice runs ~2x faster at 8), 1.0 elsewhere; a
#: leg's probes are gated as multiples of it
RAY_PROBE_REF_SEC = {2: 2.0, 8: 1.0}
#: a leg is retried while a probe exceeds this multiple of healthy, up
#: to LEG_RETRIES times
LEG_PROBE_GATE = 2.0
LEG_RETRIES = 2


def _corpus_dir(n_docs: int | None = None) -> str:
    n = n_docs if n_docs is not None else BENCH_DOCS
    out = f"/tmp/metacache_bench_corpus_n{n}_s{CORPUS_SEED}"
    marker = os.path.join(out, ".complete")
    if not os.path.exists(marker):
        from metacache_mpi_ray.sources.pages import write_pages_corpus

        write_pages_corpus(out, n, seed=CORPUS_SEED, n_files=16)
        with open(marker, "w") as f:
            f.write("ok")
    return out


def _read_docs(corpus: str):
    import ray.data as rd

    from metacache_mpi_ray.stages.ingest import ingest_pages

    return ingest_pages(
        rd.read_parquet(f"{corpus}/pages", columns=["url", "html", "text"])
    )


def _ray_probe(docs) -> float:
    """Seconds of one fixed mini flagship over ``docs`` (``_probe_input``)
    at 4 partitions. The benchmark VM schedules Ray's process group apart from
    small fork/spawn pools (a 2-CPU engine leg ran healthy while numpy
    probes around it read 7-50x starved, and the reverse), so the probe
    that gates engine runs has the engine's process shape. The work is
    the same at every CPU count, so probes compare across legs."""
    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline

    t0 = time.time()
    near_dup_pipeline(docs, DedupConfig(), num_partitions=4).clusters.count()
    return round(time.time() - t0, 3)


def _probe_input(corpus: str):
    """The first PROBE_DOCS docs of ``corpus``, after two untimed probes
    (worker spawn and imports, then whatever stayed cold), so the first
    timed probe reads capacity. Needs a Ray session."""
    docs = _read_docs(corpus).limit(PROBE_DOCS)
    _ray_probe(docs)
    _ray_probe(docs)
    return docs


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import ray.data as rd

    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline
    from metacache_mpi_ray.pipelines.queries import (
        q_events_window_agg,
        q_exact_dedup_groups,
        q_lineitem_pricing_summary,
        q_simhash_dup_pairs,
        q_substring_candidates,
        q_token_count_stats,
    )
    from metacache_mpi_ray.stages.ingest import ingest_pages

    cfg = DedupConfig()
    corpus = _corpus_dir()
    num_partitions = max(8, NUM_CPUS)
    headline_only = os.environ.get("GRAFT_HEADLINE_ONLY") == "1"
    queries: dict[str, float] = {}

    # warm the page cache with raw byte reads, not a parquet count: on
    # the burst-throttled benchmark VM decoding the corpus (~30 s of CPU at 240k
    # docs) drains the budget the timed section needs (BASELINE.md)
    import glob

    for path in glob.glob(f"{corpus}/pages/*.parquet"):
        with open(path, "rb") as fh:
            while fh.read(1 << 24):
                pass
    probe = _probe_input(corpus)
    ray_probe_start = _ray_probe(probe)

    # a leg given a gate aborts on a throttled start probe before paying
    # the headline (a throttled 240k-doc 2-CPU leg costs minutes, the
    # probe ~2 s); its parent records the leg as discarded and retries
    abort_gate = os.environ.get("GRAFT_ABORT_GATE_SEC")
    if abort_gate is not None and ray_probe_start > float(abort_gate):
        ray.shutdown()
        return {
            "metric": "scaling leg aborted on throttled start probe",
            "aborted": True,
            "value": None,
            "num_cpus": NUM_CPUS,
            "ray_probe_start_sec": ray_probe_start,
        }

    # Probe-gated headline: a headline in one of the benchmark VM's 5-20x
    # throttle windows reports the VM, not the engine, so an attempt with a
    # bracketing probe over the gate is retried. Every attempt is kept in
    # `headline_attempts`; the one reported is chosen by its probes, never
    # by its own time. A leg runs once: its parent gates it.
    attempts: list[dict] = []
    loop_t0 = time.time()
    for _attempt in range((0 if headline_only else BENCH_RETRIES) + 1):
        rp_start = ray_probe_start if not attempts else _ray_probe(probe)
        t0 = time.time()
        res = near_dup_pipeline(_read_docs(corpus), cfg, num_partitions=num_partitions)
        n_docs = res.clusters.count()
        attempts.append(
            {"sec": round(time.time() - t0, 3), "ray_probes": [rp_start, _ray_probe(probe)]}
        )
        if (
            max(attempts[-1]["ray_probes"]) <= BENCH_PROBE_GATE_SEC
            or time.time() - loop_t0 > BENCH_RETRY_BUDGET_SEC
        ):
            break
    kept = min(attempts, key=lambda a: max(a["ray_probes"]))
    headline = kept["sec"]
    queries["dedup_synth"] = headline
    out = {
        "metric": "near-dup clustering throughput (synthetic CC-style corpus)",
        "value": headline,
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "n_docs": n_docs,
        "docs_per_sec": round(n_docs / headline, 1),
        "ray_probe_sec": kept["ray_probes"][1],
        "ray_probe_start_sec": kept["ray_probes"][0],
    }
    if headline_only:
        # a scaling or soak leg: its parent reads only the headline
        ray.shutdown()
        return out

    # incremental query-vs-index (the reference's query mode): the index
    # build is checkpointed under the corpus dir (first run pays it once;
    # resumes are read-back), the timed section is the probe of a new
    # batch — same-text pages under variant urls, so every doc matches
    from metacache_mpi_ray.pipelines.incremental import (
        build_index,
        query_against_index,
    )

    # named by index format: a cached older-format index is never reused
    idx_root = os.path.join(corpus, "_index_f2")
    build_index(_read_docs(corpus), cfg, idx_root, num_partitions=num_partitions)
    n_batch = min(10000, BENCH_DOCS)
    new_batch = rd.read_parquet(
        f"{corpus}/pages", columns=["url", "html", "text"]
    ).limit(n_batch)

    def variant(t):
        import pyarrow.compute as _pc

        return t.set_column(
            t.schema.get_field_index("url"),
            "url",
            _pc.binary_join_element_wise(t["url"], "?v=2", ""),
        )

    b_docs = ingest_pages(new_batch.map_batches(variant, batch_format="pyarrow"))
    t0 = time.time()
    n_q = query_against_index(b_docs, idx_root, num_partitions=num_partitions).count()
    queries["incremental_query"] = round(time.time() - t0, 3)
    assert n_q == n_batch

    # extend mode (the reference's 'modify'): add the same batch to a
    # COPY of the persisted index (extending the cached index itself
    # would mutate it across bench runs)
    import shutil

    from metacache_mpi_ray.pipelines.extend import extend_index

    ext_root = "/tmp/metacache_bench_extend_work"
    if os.path.exists(ext_root):
        shutil.rmtree(ext_root)
    shutil.copytree(idx_root, ext_root)
    t0 = time.time()
    n_e = extend_index(b_docs, ext_root, num_partitions=num_partitions).count()
    queries["extend_index"] = round(time.time() - t0, 3)
    assert n_e == n_docs + n_batch
    shutil.rmtree(ext_root)

    for name, fn in [
        ("exact_dedup_sf", q_exact_dedup_groups),
        ("token_count_stats_sf", q_token_count_stats),
        ("lineitem_pricing_summary_sf", q_lineitem_pricing_summary),
        ("events_window_agg_sf", q_events_window_agg),
        ("simhash_dedup_sf", q_simhash_dup_pairs),
        ("substring_candidates_sf", q_substring_candidates),
    ]:
        t0 = time.time()
        fn(SF_DIR).count()
        queries[name] = round(time.time() - t0, 3)

    ray.shutdown()
    # every headline attempt, throttled ones included
    out["headline_attempts"] = attempts
    out["headline_probe_gate_sec"] = BENCH_PROBE_GATE_SEC
    return out


def _hw_chunk(args):
    import numpy as np

    n, reps = args
    a = np.arange(n, dtype=np.uint64)
    for _ in range(reps):
        a = (a ^ (a >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
    return float(a[0])


def hw_ceiling(lo: int, hi: int, total=160_000_000, reps=4) -> dict:
    """Ray-free strong-scaling ceiling of THIS VM for memory-bound numpy
    work: the same fixed total workload split across lo and hi worker
    processes (the engine cannot scale better than its substrate). Fork
    pools with a warm first map and a TIMED second map, so spawn and
    import latency, which swings apart from compute here, stay out."""
    import multiprocessing as mp

    def run(p: int) -> float:
        with mp.get_context("fork").Pool(p) as pool:
            pool.map(_hw_chunk, [(1_000_000, 1)] * p)  # warm children
            t0 = time.time()
            pool.map(_hw_chunk, [(total // p, reps)] * p)
            return time.time() - t0

    t_lo = min(run(lo), run(lo))
    t_hi = min(run(hi), run(hi))
    return {
        f"hw_sec_{lo}": round(t_lo, 3),
        f"hw_sec_{hi}": round(t_hi, 3),
        "hw_efficiency": round((t_lo / t_hi) / (hi / lo), 3),
    }


def _run_leg(env: dict, what: str) -> dict:
    """Run this script in a child process and return its last stdout
    line as JSON; a failed leg raises with the child's stderr tail."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env, capture_output=True, text=True, cwd=os.path.dirname(os.path.abspath(__file__)),
    )
    try:
        proc.check_returncode()
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.CalledProcessError, IndexError, json.JSONDecodeError) as e:
        raise RuntimeError(
            f"{what} failed ({e!r}); stderr tail:\n"
            + "\n".join(proc.stderr.splitlines()[-40:])
        ) from e


def _leg_probes(r: dict) -> list[float]:
    """A leg's [start, end] probes as multiples of the healthy reference
    at its CPU count (an aborted leg has only its start probe)."""
    ref = RAY_PROBE_REF_SEC.get(r["num_cpus"], 1.0)
    return [
        round(p / ref, 3)
        for p in (r.get("ray_probe_start_sec"), r.get("ray_probe_sec"))
        if p is not None
    ]


def _gated_leg(ncpu: int, n_docs: int, discarded: list) -> dict:
    """One headline-only run of this script at ``ncpu`` CPUs over
    ``n_docs`` docs, gated on its probes: a leg with a probe over
    LEG_PROBE_GATE is retried, up to LEG_RETRIES times, and every
    discarded leg is appended to ``discarded``. Each attempt but the last
    gets the gate in seconds and aborts on a throttled start probe; the
    last runs to the end, so a suite finishes even when every window is
    throttled (its probes stay in the leg's record). The gate reads the
    probes, never the leg's own time, so it cannot favor fast runs."""
    r = None
    for attempt in range(LEG_RETRIES + 1):
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_DOCS=str(n_docs),
            GRAFT_HEADLINE_ONLY="1",
        )
        env.pop("GRAFT_ABORT_GATE_SEC", None)
        final = attempt == LEG_RETRIES
        if not final:
            gate_sec = LEG_PROBE_GATE * RAY_PROBE_REF_SEC.get(ncpu, 1.0)
            env["GRAFT_ABORT_GATE_SEC"] = f"{gate_sec:.2f}"
        r = _run_leg(env, f"leg at {ncpu} CPUs over {n_docs} docs")
        if r.get("aborted"):
            discarded.append(
                {"cpus": ncpu, "sec": None, "aborted_on_probe": True,
                 "probes": _leg_probes(r)}
            )
            continue
        if max(_leg_probes(r) or [0.0]) <= LEG_PROBE_GATE:
            return r
        if not final:
            discarded.append({"cpus": ncpu, "sec": r["value"], "probes": _leg_probes(r)})
    return r  # every window throttled: keep the last leg


def run_scaling(scale_docs: int | None = None) -> dict:
    """The lo -> hi suite over ``scale_docs`` docs (default
    GRAFT_SCALE_DOCS, else the bench corpus size): GRAFT_SCALE_REPS
    pairs of gated legs, medians and per-pair efficiencies."""
    if scale_docs is None:
        scale_docs = int(os.environ.get("GRAFT_SCALE_DOCS", str(BENCH_DOCS)))
    _corpus_dir(scale_docs)  # generate + warm once, outside timing
    lo, hi = SCALE_LO, SCALE_HI
    reps = int(os.environ.get("GRAFT_SCALE_REPS", "3"))
    discarded: list[dict] = []
    lows, highs, ray_lo, ray_hi, pairs, hw_reps = [], [], [], [], [], []
    n_docs = None
    for rep in range(reps):
        # alternate the leg order per rep: a monotone capacity drift then
        # biases half the pairs up and half down instead of all one way
        if rep % 2 == 0:
            r_lo = _gated_leg(lo, scale_docs, discarded)
            r_hi = _gated_leg(hi, scale_docs, discarded)
        else:
            r_hi = _gated_leg(hi, scale_docs, discarded)
            r_lo = _gated_leg(lo, scale_docs, discarded)
        lows.append(r_lo["value"])
        highs.append(r_hi["value"])
        ray_lo.append([r_lo.get("ray_probe_start_sec"), r_lo.get("ray_probe_sec")])
        ray_hi.append([r_hi.get("ray_probe_start_sec"), r_hi.get("ray_probe_sec")])
        # per-adjacent-pair efficiency: the two legs of one rep ran
        # back-to-back, so they share a capacity window far more often
        # than the suite-wide medians do. A pair is matched when both
        # legs saw comparable hardware: every probe within 1.5x of
        # healthy (noise around healthy must not disqualify a pair), or
        # all four probes within 1.5x of each other (equal throttle).
        pp = _leg_probes(r_lo) + _leg_probes(r_hi)
        pairs.append(
            {
                "eff": round((r_lo["value"] / r_hi["value"]) / (hi / lo), 3),
                "probes": pp,
                "matched": bool(pp)
                and (max(pp) <= 1.5 or max(pp) / max(min(pp), 0.01) <= 1.5),
            }
        )
        n_docs = r_lo["n_docs"]
        # hw ceiling sampled per rep, next to the legs it normalizes: an
        # end-of-suite sample can land in another capacity window
        hw_reps.append(hw_ceiling(lo, hi))
    med = lambda xs: sorted(xs)[len(xs) // 2]
    t_lo, t_hi = med(lows), med(highs)
    eff = (t_lo / t_hi) / (hi / lo)
    matched_effs = [p["eff"] for p in pairs if p["matched"]]
    # report the per-rep MEDIAN window's full dict, so its sec fields
    # and its efficiency come from one window
    hw_effs = [h["hw_efficiency"] for h in hw_reps]
    hw = dict(sorted(hw_reps, key=lambda h: h["hw_efficiency"])[len(hw_reps) // 2])
    hw["hw_efficiency_per_rep"] = hw_effs
    hw["hw_efficiency"] = med(hw_effs)
    out = {
        "metric": f"scaling efficiency (N={lo} -> {hi} CPUs, same input, median of {reps})",
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"all_sec_{lo}": lows,
        f"all_sec_{hi}": highs,
        # per-leg [start, end] probe seconds
        f"ray_probe_{lo}": ray_lo,
        f"ray_probe_{hi}": ray_hi,
        # discarded legs and pair_efficiencies[].probes are multiples of
        # these healthy references (1.0 = healthy)
        "ray_probe_healthy_ref": {str(c): RAY_PROBE_REF_SEC.get(c, 1.0) for c in (lo, hi)},
        "probe_gate_sec": LEG_PROBE_GATE,
        "discarded_throttled_legs": discarded,
        "scaling_efficiency": round(eff, 3),
        # per-rep adjacent-pair efficiencies (window-local ratios) and
        # the median over MATCHED pairs — the substrate-robust headline
        "pair_efficiencies": pairs,
        "scaling_efficiency_paired": med(matched_effs) if matched_effs else None,
        "n_docs": n_docs,
    }
    out.update(hw)
    # 1.0 = the engine adds no sub-linearity beyond the substrate
    out["efficiency_vs_hw_ceiling"] = round(eff / hw["hw_efficiency"], 3)
    return out


def run_evidence() -> dict:
    """One-command scaling-evidence refresh: the scaling suite at a LARGE
    fixed input (GRAFT_SCALE_DOCS, default 4M docs — the input size where
    the fixed per-execution overhead measured in rounds 3/4 vanishes)
    plus a size-soak curve (GRAFT_EVIDENCE_SOAK) of gated legs at
    RAY_GRAFT_CPUS, persisted as SCALING_EVIDENCE_<tag>.json
    (GRAFT_EVIDENCE_TAG) and appended to BASELINE.md as one table row."""
    here = os.path.dirname(os.path.abspath(__file__))
    scaling = run_scaling(int(os.environ.get("GRAFT_SCALE_DOCS", "4000000")))
    soak_sizes = [
        int(x)
        for x in os.environ.get("GRAFT_EVIDENCE_SOAK", "120000,1000000").split(",")
        if x.strip()
    ]
    soak, soak_discarded = [], []
    for n in soak_sizes:
        _corpus_dir(n)  # generate outside timing
        r = _gated_leg(NUM_CPUS, n, soak_discarded)
        soak.append(
            {
                "n_docs": r["n_docs"],
                "sec": r["value"],
                "docs_per_sec": r["docs_per_sec"],
                "ray_probes": [r.get("ray_probe_start_sec"), r.get("ray_probe_sec")],
            }
        )
    tag = os.environ.get("GRAFT_EVIDENCE_TAG", time.strftime("%Y%m%d-%H%M%S"))
    evidence = {
        "generated_by": "python bench.py --evidence",
        "tag": tag,
        "scaling": scaling,
        "soak": soak,
        "discarded_soak_legs": soak_discarded,
    }
    path = os.path.join(here, f"SCALING_EVIDENCE_{tag}.json")
    with open(path, "w") as f:
        json.dump(evidence, f, indent=1)
    lo, hi = SCALE_LO, SCALE_HI
    soak_txt = "; ".join(
        f"{s['n_docs'] / 1000:g}k={s['docs_per_sec'] / 1000:.1f}k/s" for s in soak
    )
    row = (
        f"| {time.strftime('%Y-%m-%d')} `{tag}` | {scaling['n_docs']:,} docs "
        f"{lo}->{hi} x{len(scaling[f'all_sec_{lo}'])} | "
        f"{scaling[f'sec_{lo}']:.1f} / {scaling[f'sec_{hi}']:.1f} s | "
        f"raw {scaling['scaling_efficiency']:.3f} / paired "
        f"{scaling['scaling_efficiency_paired']} | "
        f"hw {scaling['hw_efficiency']:.3f} | {soak_txt} |\n"
    )
    header = "## Scaling evidence (`python bench.py --evidence`)"
    baseline = os.path.join(here, "BASELINE.md")
    text = open(baseline).read() if os.path.exists(baseline) else ""
    if header not in text:
        text += (
            f"\n{header}\n\n"
            "One row per refresh; full probe disclosure in the matching "
            "`SCALING_EVIDENCE_<tag>.json`.\n\n"
            "| when / tag | suite | sec lo/hi (median) | efficiency | "
            "hw ceiling | soak throughput |\n"
            "|---|---|---|---|---|---|\n"
        )
    with open(baseline, "w") as f:
        f.write(text + row)
    return evidence


if __name__ == "__main__":
    if "--evidence" in sys.argv:
        print(json.dumps(run_evidence()))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
