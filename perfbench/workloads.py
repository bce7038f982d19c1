"""The three workloads: inputs, set-up, the timed loop and the traced run.

Every engine call here goes through a public entry point:
``pipelines.dedup.near_dup_pipeline``, ``pipelines.incremental``'s
``build_index`` / ``query_against_index``, ``pipelines.extend.extend_index``
and, in the traced run, the ``stages.*`` calls the flagship is made of.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import corpora
import host
from tracing import Tracer, check_span_tree


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    partitions: int
    docs: int
    warm_docs: int
    batch_docs: int
    min_ops: int
    run_dir: str
    digests: object  # run.DigestStore
    digest_key: str


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)


def _collect(ds) -> pa.Table:
    import ray

    tabs = ray.get(ds.to_arrow_refs())
    return pa.concat_tables(tabs) if tabs else pa.table({})


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive interpolation; the median for q=50)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def assignment_digest(clusters: pa.Table) -> str:
    """sha256 of the (doc_id, cluster_id) assignment sorted by doc_id."""
    ids = clusters["doc_id"].to_numpy()
    order = np.argsort(ids, kind="stable")
    h = hashlib.sha256(ids[order].tobytes())
    h.update(clusters["cluster_id"].to_numpy()[order].tobytes())
    return h.hexdigest()


def pair_scores(true_cluster: np.ndarray, cluster: np.ndarray) -> tuple[float, float]:
    """Pairwise (recall, precision) of an assignment against the truth,
    from the (true_cluster, cluster_id) contingency counts. Precision of
    an assignment with no pairs is 1."""

    def pairs(counts: np.ndarray) -> float:
        return float((counts * (counts - 1) // 2).sum())

    joint = np.unique(np.stack([true_cluster, cluster]), axis=1, return_counts=True)[1]
    tp = pairs(joint)
    true = pairs(np.unique(true_cluster, return_counts=True)[1])
    pred = pairs(np.unique(cluster, return_counts=True)[1])
    return (tp / true if true else 1.0), (tp / pred if pred else 1.0)


def assignment_problems(clusters: pa.Table, doc_ids: np.ndarray, edges: pa.Table) -> list[str]:
    """Structural checks of one cluster assignment over ``doc_ids``
    (sorted) with the verified ``edges`` it was built from."""
    ids = clusters["doc_id"].to_numpy()
    cl = clusters["cluster_id"].to_numpy()
    order = np.argsort(ids)
    ids, cl = ids[order], cl[order]
    if len(ids) != len(doc_ids) or not np.array_equal(ids, doc_ids):
        return [f"assignment covers {len(ids)} rows, not the {len(doc_ids)} input docs"]
    problems = []
    label_pos = np.searchsorted(ids, cl)
    if np.any(label_pos >= len(ids)) or np.any(cl[np.minimum(label_pos, len(ids) - 1)] != cl):
        problems.append("a cluster id is not a doc of its own cluster")
    if edges.num_rows:
        a = cl[np.searchsorted(ids, edges["a"].to_numpy())]
        b = cl[np.searchsorted(ids, edges["b"].to_numpy())]
        if np.any(a != b):
            problems.append("a verified edge joins two clusters")
    return problems


class FlagshipWorkload:
    """``near_dup_pipeline`` over one seeded corpus (web_mix, dup_heavy)."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        from metacache_mpi_ray.config import DedupConfig

        self.cfg = DedupConfig()

    def corpus(self) -> tuple[pa.Table, pa.Table]:
        raise NotImplementedError

    def make_inputs(self) -> None:
        ctx = self.ctx
        pages, truth = self.corpus()
        self.pages_dir = corpora.write_corpus(pages, truth, os.path.join(ctx.run_dir, "corpus"))
        self.truth = truth

    def _read_docs(self, pages_dir: str | None = None):
        import ray.data as rd

        from metacache_mpi_ray.stages.ingest import ingest_pages

        return ingest_pages(rd.read_parquet(pages_dir or self.pages_dir))

    def _pass(self, pages_dir: str | None = None):
        """One flagship pass from a Parquet corpus (default: the workload's)
        to materialized clusters; returns (seconds, clusters, verified edges)."""
        from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline

        t0 = time.perf_counter()
        res = near_dup_pipeline(
            self._read_docs(pages_dir), self.cfg, num_partitions=self.ctx.partitions
        )
        clusters = res.clusters.materialize()
        seconds = time.perf_counter() - t0
        return seconds, _collect(clusters), _collect(res.verified_edges)

    def warm_up(self) -> float:
        """One untimed pass over a small corpus that is the same on every
        seed: starts the workers and pays the first-call costs the timed
        passes would otherwise see. Returns the pass's seconds."""
        warm_dir = corpora.write_corpus(
            *corpora.web_mix_pages(self.ctx.warm_docs, 0), os.path.join(self.ctx.run_dir, "warm")
        )
        t0 = time.perf_counter()
        self._pass(warm_dir)
        return time.perf_counter() - t0

    def _truth_by_doc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sorted doc_ids, their true clusters, their dup kinds), matched
        to the truth sidecar by url through the engine's ingest ids."""
        ids = _collect(self._read_docs().select_columns(["doc_id", "url"]))
        row_of = {u: i for i, u in enumerate(self.truth["url"].to_pylist())}
        rows = np.array([row_of[u] for u in ids["url"].to_pylist()])
        order = np.argsort(ids["doc_id"].to_numpy())
        rows = rows[order]
        return (
            ids["doc_id"].to_numpy()[order],
            self.truth["true_cluster"].to_numpy()[rows],
            np.array(self.truth["dup_kind"].to_pylist())[rows],
        )

    def _check(self, out: Outcome, clusters: pa.Table, edges: pa.Table, doc_ids, digests: list) -> bool:
        problems = assignment_problems(clusters, doc_ids, edges)
        digest = assignment_digest(clusters)
        if digests and digest != digests[0]:
            problems.append("assignment differs from this run's first pass")
        elif not self.ctx.digests.agrees(self.ctx.digest_key, digest):
            problems.append("assignment differs from an earlier run of this code and seed")
        digests.append(digest)
        out.attempted += 1
        if problems:
            out.failed += 1
            out.report.setdefault("problems", []).extend(problems)
        return not problems

    def _passes(self, out: Outcome, doc_ids, digests: list) -> tuple[list[float], pa.Table]:
        """Flagship passes for ``--seconds`` (at least ``min_ops``)."""
        times, first, tries = [], None, 0
        t_start = time.perf_counter()
        while tries < self.ctx.min_ops or time.perf_counter() - t_start < self.ctx.seconds:
            tries += 1
            try:
                seconds, clusters, edges = self._pass()
            except Exception as e:  # a failed pass is a measured outcome
                out.attempted += 1
                out.failed += 1
                out.report.setdefault("problems", []).append(repr(e))
                continue
            if self._check(out, clusters, edges, doc_ids, digests):
                times.append(seconds)
                first = clusters if first is None else first
        return times, first

    def timed(self) -> Outcome:
        out = Outcome()
        doc_ids, true, kinds = self._truth_by_doc()
        before = host.cpu_seconds()
        times, clusters = self._passes(out, doc_ids, [])
        cpu = host.cpu_delta(before, host.cpu_seconds())
        recall = precision = 0.0  # the failure sentinel when no pass succeeded
        by_kind = {}
        if clusters is not None:
            cl = clusters["cluster_id"].to_numpy()[np.argsort(clusters["doc_id"].to_numpy())]
            recall, precision = pair_scores(true, cl)
            by_kind = {k: pair_scores(true[kinds == k], cl[kinds == k])[0] for k in np.unique(kinds)}
        n = self.ctx.docs
        out.metrics = {
            "docs_per_s": n / statistics.median(times) if times else 0.0,
            "cpu_s_per_kdoc": cpu / (n * out.attempted / 1000),
            "peak_rss_mb": host.peak_rss_mb(),
            "pair_recall": recall,
            "pair_precision": precision,
            "success_rate": 1 - out.failed / out.attempted,
        }
        out.report.update(
            {
                "docs": n,
                "pass_s": times,
                "docs_per_s": out.metrics["docs_per_s"],
                "cpu_s_per_kdoc": out.metrics["cpu_s_per_kdoc"],
                "peak_rss_mb": out.metrics["peak_rss_mb"],
                "pair_recall": recall,
                "pair_recall_by_kind": by_kind,
                "pair_precision": precision,
                "error_rate": out.failed / out.attempted,
            }
        )
        return out

    # ---- traced run ------------------------------------------------------

    def traced(self) -> Outcome:
        out = Outcome()
        doc_ids = self._truth_by_doc()[0]
        digests: list = []
        untraced, _ = self._passes(out, doc_ids, digests)
        tracer = Tracer()
        with tracer.span("run"):
            layers = traced_flagship(tracer, self)
            self._check(out, layers.pop("_clusters"), layers.pop("_edges"), doc_ids, digests)
            index = self.index_for_trace(tracer)
            layers.update(traced_daily_batch(tracer, self, index, out))
        problems = check_span_tree(tracer.spans, "flagship") + check_span_tree(tracer.spans, "run")
        out.attempted += 1
        if problems:
            out.failed += 1
            out.report.setdefault("problems", []).extend(problems)
        tracer.write(os.path.join(os.path.dirname(self.ctx.run_dir), f"spans-{self.ctx.workload}.jsonl"))
        layers["trace.overhead_s"] = (
            tracer.seconds("flagship") - statistics.median(untraced) if untraced else 0.0
        )
        out.metrics = layers
        out.report.update({"untraced_pass_s": untraced, "traced_pass_s": tracer.seconds("flagship"),
                           "run_id": tracer.run_id, **layers})
        return out

    def stored_pages(self) -> pa.Table:
        return pq.read_table(self.pages_dir)

    def index_for_trace(self, tracer: Tracer) -> str:
        """Build an index over this workload's corpus (traced as one span)."""
        from metacache_mpi_ray.pipelines.incremental import build_index

        root = os.path.join(self.ctx.run_dir, "trace-index")
        with tracer.span("index.build"):
            build_index(self._read_docs(), self.cfg, root,
                        num_partitions=self.ctx.partitions).materialize()
        return root


class WebMix(FlagshipWorkload):
    def corpus(self):
        return corpora.web_mix_pages(self.ctx.docs, self.ctx.seed)


class DupHeavy(FlagshipWorkload):
    def corpus(self):
        return corpora.dup_heavy_pages(self.ctx.docs, self.ctx.seed)


def _dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


class IndexDaily(FlagshipWorkload):
    """``build_index`` in set-up, then one client's closed loop of daily
    batches: ``query_against_index`` then ``extend_index`` per batch, on
    a per-run copy of the index made before timing."""

    def corpus(self):
        return corpora.web_mix_pages(self.ctx.docs, self.ctx.seed)

    def warm_up(self) -> float:
        """Build the index, copy it for this run, and send one warm-up batch
        (the first batch pays the query and extend paths' first-call costs)."""
        from metacache_mpi_ray.pipelines.incremental import build_index

        t0 = time.perf_counter()
        base = os.path.join(self.ctx.run_dir, "index")
        build_index(self._read_docs(), self.cfg, base,
                    num_partitions=self.ctx.partitions).materialize()
        self.build_s = time.perf_counter() - t0
        self.stored = self.stored_pages()
        self.index = os.path.join(self.ctx.run_dir, "work-index")
        shutil.copytree(base, self.index)
        self.n_indexed = self.stored.num_rows
        self._batch(Outcome(), batch=0)
        return time.perf_counter() - t0

    def _batch(self, out: Outcome, batch: int):
        """Query then extend one batch and check both; returns (query_s,
        extend_s, matched re-crawls, matched docs, re-crawls), or None when
        an operation raised."""
        import ray.data as rd

        from metacache_mpi_ray.pipelines.extend import extend_index
        from metacache_mpi_ray.pipelines.incremental import query_against_index
        from metacache_mpi_ray.stages.ingest import ingest_pages

        pages, recrawled = corpora.daily_batch(self.stored, self.ctx.batch_docs, self.ctx.seed, batch)
        docs = ingest_pages(rd.from_arrow(pages)).materialize()
        ids = _collect(docs.select_columns(["doc_id"]))["doc_id"].to_numpy()
        out.attempted += 2
        try:
            t0 = time.perf_counter()
            res = _collect(query_against_index(docs, self.index, num_partitions=self.ctx.partitions))
            query_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            clusters = extend_index(docs, self.index, num_partitions=self.ctx.partitions,
                                    batch_id=f"d{batch}")
            extend_s = time.perf_counter() - t0
            n_clusters = clusters.count()
        except Exception as e:  # a failed batch is a measured outcome
            out.failed += 2
            out.report.setdefault("problems", []).append(repr(e))
            return None
        problems = []
        order = np.argsort(res["doc_id"].to_numpy())
        matched = res["matched"].to_numpy(zero_copy_only=False)[order]
        want = recrawled[np.argsort(ids)]
        if not np.array_equal(res["doc_id"].to_numpy()[order], np.sort(ids)):
            problems.append(f"query returned {res.num_rows} rows for a {len(ids)}-doc batch")
            matched = np.zeros(len(ids), dtype=bool)
        elif np.any(matched != want):
            problems.append(
                f"query matched {int((matched & want).sum())}/{int(want.sum())} re-crawls "
                f"and {int((matched & ~want).sum())} fresh pages"
            )
        out.failed += bool(problems)
        self.n_indexed += len(ids)
        if n_clusters != self.n_indexed:
            problems.append(f"extended index holds {n_clusters} docs, expected {self.n_indexed}")
            out.failed += 1
        if problems:
            out.report.setdefault("problems", []).extend(problems)
        return query_s, extend_s, int((matched & want).sum()), int(matched.sum()), int(want.sum())

    def timed(self) -> Outcome:
        out = Outcome()
        q, e, re_hit, hits, re_total = [], [], 0, 0, 0
        before = host.cpu_seconds()
        t_start = time.perf_counter()
        batch = 0
        while batch < self.ctx.min_ops or time.perf_counter() - t_start < self.ctx.seconds:
            batch += 1
            got = self._batch(out, batch)
            if got is not None:
                q.append(got[0])
                e.append(got[1])
                re_hit, hits, re_total = re_hit + got[2], hits + got[3], re_total + got[4]
        cpu = host.cpu_delta(before, host.cpu_seconds())
        n = self.ctx.batch_docs
        per_batch = [a + b for a, b in zip(q, e)]
        out.metrics = {
            "docs_per_s": n / statistics.median(per_batch) if per_batch else 0.0,
            "cpu_s_per_kdoc": cpu / (n * batch / 1000),
            "peak_rss_mb": host.peak_rss_mb(),
            "pair_recall": re_hit / re_total if re_total else 0.0,
            "pair_precision": re_hit / hits if hits else 1.0,
            "success_rate": 1 - out.failed / out.attempted,
        }
        if not per_batch:  # no batch succeeded: the failure sentinel
            out.metrics.update(pair_recall=0.0, pair_precision=0.0)
        out.report.update(
            {
                "docs": n,
                "index_docs": self.stored.num_rows,
                "batches": batch,
                "build_index_s": self.build_s,
                "query_s": q,
                "extend_s": e,
                "query_s.p50": percentile(q, 50) if q else None,
                "query_s.p90": percentile(q, 90) if q else None,
                "extend_s.p50": percentile(e, 50) if e else None,
                "extend_s.p90": percentile(e, 90) if e else None,
                "query_recall": out.metrics["pair_recall"],
                "query_false_match": (hits - re_hit) / (n * len(q) - re_total) if q else None,
                "docs_per_s": out.metrics["docs_per_s"],
                "cpu_s_per_kdoc": out.metrics["cpu_s_per_kdoc"],
                "peak_rss_mb": out.metrics["peak_rss_mb"],
                "error_rate": out.failed / out.attempted,
            }
        )
        return out

    def index_for_trace(self, tracer: Tracer) -> str:
        return self.index


# ---- the traced compositions -------------------------------------------


def _counts(rec: dict, ds) -> None:
    rec["counts"].update(rows=ds.count(), blocks=ds.num_blocks(), bytes=ds.size_bytes())


def traced_flagship(tracer: Tracer, wl: FlagshipWorkload) -> dict:
    """The flagship rebuilt from its public stage calls, one span and one
    ``.materialize()`` per layer; returns the per-layer metrics plus the
    clusters and verified edges (keys ``_clusters``, ``_edges``)."""
    from metacache_mpi_ray.stages.banding import compute_bands
    from metacache_mpi_ray.stages.candidates import bucket_edges, unique_pairs
    from metacache_mpi_ray.stages.cluster import assign_clusters
    from metacache_mpi_ray.stages.signatures import compute_signatures
    from metacache_mpi_ray.stages.verify import verify_edges

    cfg, parts = wl.cfg, wl.ctx.partitions
    with tracer.span("flagship"):
        with tracer.span("ingest") as s:
            docs = wl._read_docs().materialize()
            _counts(s, docs)
        with tracer.span("signatures") as s:
            sigs = compute_signatures(docs, cfg, batch_size=128).repartition(parts).materialize()
            _counts(s, sigs)
        with tracer.span("banding") as s:
            bands = compute_bands(sigs, cfg).materialize()
            _counts(s, bands)
        with tracer.span("candidates") as s:
            edges = bucket_edges(bands, key_cols=["band_id", "band_hash"], id_col="doc_id",
                                 cap=cfg.bucket_cap, num_partitions=parts).materialize()
            _counts(s, edges)
        with tracer.span("verify") as s:
            verified = verify_edges(edges, sigs, cfg, num_partitions=parts,
                                    strategy="auto").materialize()
            _counts(s, verified)
        with tracer.span("cluster") as s:
            clusters = assign_clusters(sigs.select_columns(["doc_id"]), verified).materialize()
            _counts(s, clusters)
    # census of the candidate layer: extra work, kept outside the flagship span
    with tracer.span("census"):
        with tracer.span("census.unique_pairs") as s:
            distinct = unique_pairs(edges).materialize()
            _counts(s, distinct)
        # stages.candidates.bucket_stats (a hash groupby) took 40 s over
        # these 256k band rows at 2 Ray CPUs, so the buckets are counted here
        with tracer.span("census.bucket_sizes") as s:
            keys = _collect(bands.select_columns(["band_id", "band_hash"]))
            keys = np.stack([keys["band_id"].to_numpy(), keys["band_hash"].to_numpy()])
            bucket_sizes = np.unique(keys, axis=1, return_counts=True)[1]
            s["counts"]["rows"] = len(bucket_sizes)

    import ray

    block_rows = np.array([len(t) for t in ray.get(edges.to_arrow_refs())])
    block_rows = block_rows[block_rows > 0]
    cl = _collect(clusters)
    sizes = np.unique(cl["cluster_id"].to_numpy(), return_counts=True)[1]
    n_docs, n_edges, n_distinct = docs.count(), edges.count(), distinct.count()
    n_verified = verified.count()
    sec = tracer.seconds
    return {
        "ingest.s": sec("ingest"),
        "ingest.rows": n_docs,
        "ingest.blocks": docs.num_blocks(),
        "ingest.bytes": docs.size_bytes(),
        "signatures.s": sec("signatures"),
        "signatures.blocks": sigs.num_blocks(),
        "signatures.bytes": sigs.size_bytes(),
        "banding.s": sec("banding"),
        "banding.rows": bands.count(),
        "candidates.s": sec("candidates"),
        "candidates.edges_per_doc": n_edges / n_docs,
        "candidates.distinct_pairs": n_distinct,
        "candidates.multiplicity": n_edges / n_distinct if n_distinct else 1.0,
        "candidates.hot_buckets": int((bucket_sizes > cfg.bucket_cap).sum()),
        "candidates.block_skew": (
            block_rows.max() / np.median(block_rows) if len(block_rows) else 1.0
        ),
        "verify.s": sec("verify"),
        "verify.pairs_in": n_edges,
        "verify.verified": n_verified,
        "verify.yield": n_verified / n_edges if n_edges else 1.0,
        "cluster.s": sec("cluster"),
        "cluster.components": len(sizes),
        "cluster.largest": int(sizes.max()),
        "_clusters": cl,
        "_edges": _collect(verified),
    }


def traced_daily_batch(tracer: Tracer, wl: FlagshipWorkload, index: str, out: Outcome) -> dict:
    """One daily batch against ``index``: signing of the batch, the query
    and the extend, each in its own span; the engine's own
    ``metrics.jsonl`` rows give the probe counts and the extend phases."""
    import ray.data as rd

    from metacache_mpi_ray.pipelines.extend import extend_index
    from metacache_mpi_ray.pipelines.incremental import query_against_index
    from metacache_mpi_ray.stages.ingest import ingest_pages
    from metacache_mpi_ray.stages.signatures import compute_signatures
    from metacache_mpi_ray.state.metrics import MetricsRecorder

    n = wl.ctx.batch_docs
    pages, _ = corpora.daily_batch(wl.stored_pages(), n, wl.ctx.seed, batch=1000)
    docs = ingest_pages(rd.from_arrow(pages)).materialize()
    index_bytes = _dir_bytes(index)
    with tracer.span("daily_batch"):
        with tracer.span("query.signatures") as s:
            _counts(s, compute_signatures(docs, wl.cfg, batch_size=128).materialize())
        with tracer.span("query") as s:
            res = _collect(query_against_index(docs, index, num_partitions=wl.ctx.partitions))
            s["counts"]["rows"] = res.num_rows
        with tracer.span("extend"):
            extend_index(docs, index, num_partitions=wl.ctx.partitions, batch_id="traced")
    out.attempted += 1
    if res.num_rows != n:
        out.failed += 1
        out.report.setdefault("problems", []).append(f"traced query returned {res.num_rows} rows")
    rows = MetricsRecorder(index).read_all()
    probe = [r for r in rows if r["stage"] == "query_probe"][-1]
    ext = [r for r in rows if r["stage"] == "extend_index"][-1]
    sec = tracer.seconds
    layers = {
        "query.s": sec("query"),
        "query.signatures.s": sec("query.signatures"),
        "query.candidate_pairs": probe["n_candidate_pairs"],
        "query.yield": (
            probe["n_verified"] / probe["n_candidate_pairs"] if probe["n_candidate_pairs"] else 0.0
        ),
        "query.sig_files_read_ratio": (
            probe["sig_files_read"] / probe["sig_files_total"] if probe["sig_files_total"] else 0.0
        ),
        "extend.s": sec("extend"),
        "extend.bytes_written_per_new_doc": (_dir_bytes(index) - index_bytes) / n,
        "index.bytes": index_bytes,
    }
    for phase in ("sign_sort_stage", "band_stage", "probe_verify", "contract",
                  "rewrite_clusters", "commit"):
        layers[f"extend.{phase}.s"] = ext["phases"][phase]
    return layers


WORKLOADS = {"web_mix": WebMix, "dup_heavy": DupHeavy, "index_daily": IndexDaily}
