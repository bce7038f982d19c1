"""CLI — the analog of the reference's mode dispatch
(/root/reference/src/main.cpp + mode_build/mode_query/mode_merge/
mode_info): a user of `metacache build|query|merge|info` drives the
same operations here as

    python -m metacache_mpi_ray build  --pages DIR --index ROOT
    python -m metacache_mpi_ray extend --pages DIR --index ROOT   (reference 'modify' mode)
    python -m metacache_mpi_ray query  --index ROOT --pages DIR --out DIR
    python -m metacache_mpi_ray dedup  --pages DIR --out DIR
    python -m metacache_mpi_ray merge  --edges DIR [--edges DIR ...] --pages DIR --out DIR
    python -m metacache_mpi_ray repl   --index ROOT   (interactive stdin shell)
    python -m metacache_mpi_ray annotate --pages DIR --mapping FILE --key K --annotation A --header-cols C1,C2 --out DIR
    python -m metacache_mpi_ray info   --index ROOT

The CLI owns the Ray session (guarded init; library code never calls
ray.init — the driver contract).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _cfg_from_args(args) -> "DedupConfig":
    from metacache_mpi_ray.config import DedupConfig

    kw = {}
    for f in ("shingle_k", "n_perms", "n_bands", "bucket_cap"):
        v = getattr(args, f, None)
        if v is not None:
            kw[f] = v
    if getattr(args, "sim_threshold", None) is not None:
        kw["sim_threshold"] = args.sim_threshold
    return DedupConfig(**kw)


def _read_pages(pages: str, *, canonicalize_urls: bool):
    import ray.data as rd

    from metacache_mpi_ray.stages.ingest import ingest_pages

    return ingest_pages(
        rd.read_parquet(pages), canonicalize_urls=canonicalize_urls
    )


def cmd_build(args) -> int:
    _ensure_ray()
    from metacache_mpi_ray.pipelines.incremental import build_index

    docs = _read_pages(args.pages, canonicalize_urls=args.canonicalize_urls)
    clusters = build_index(
        docs, _cfg_from_args(args), args.index, num_partitions=args.num_partitions
    )
    print(json.dumps({"mode": "build", "index": args.index, "docs": clusters.count()}))
    return 0


def cmd_extend(args) -> int:
    """The reference's ``modify`` mode: add pages to an existing index
    (/root/reference/src/main.cpp:72-73, mode_build.cpp:1114-1137)."""
    _ensure_ray()
    from metacache_mpi_ray.pipelines.extend import extend_index

    from metacache_mpi_ray.pipelines.incremental import load_index_config
    from metacache_mpi_ray.state.checkpoint import ConfigMismatch

    docs = _read_pages(args.pages, canonicalize_urls=args.canonicalize_urls)
    # sketch params are read from the stored index; an explicitly-passed
    # flag is an assertion about THAT field only (building a full config
    # from one flag would reset the others to defaults and spuriously
    # mismatch an index built with several non-default params)
    stored = load_index_config(args.index)
    for f in ("shingle_k", "n_perms", "n_bands", "bucket_cap", "sim_threshold"):
        v = getattr(args, f, None)
        if v is not None and v != getattr(stored, f):
            raise ConfigMismatch(
                f"--{f.replace('_', '-')}={v} does not match the stored "
                f"index's {f}={getattr(stored, f)}"
            )
    clusters = extend_index(
        docs,
        args.index,
        num_partitions=args.num_partitions,
        batch_id=args.batch_id,
    )
    print(
        json.dumps(
            {"mode": "extend", "index": args.index, "docs": clusters.count()}
        )
    )
    return 0


def cmd_query(args) -> int:
    _ensure_ray()
    from metacache_mpi_ray.pipelines.incremental import query_against_index

    docs = _read_pages(args.pages, canonicalize_urls=args.canonicalize_urls)
    out = query_against_index(
        docs, args.index, num_partitions=args.num_partitions
    ).materialize()  # one execution serves both the write and the count
    out.write_parquet(args.out)
    n = out.count()
    print(json.dumps({"mode": "query", "out": args.out, "queried": n}))
    return 0


def cmd_dedup(args) -> int:
    _ensure_ray()
    from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline

    docs = _read_pages(args.pages, canonicalize_urls=args.canonicalize_urls)
    res = near_dup_pipeline(
        docs, _cfg_from_args(args), num_partitions=args.num_partitions
    )
    res.clusters.write_parquet(args.out)
    print(json.dumps({"mode": "dedup", "out": args.out, "docs": res.clusters.count()}))
    return 0


def cmd_merge(args) -> int:
    _ensure_ray()
    import ray.data as rd

    from metacache_mpi_ray.pipelines.merge import merge_cluster_runs

    docs = _read_pages(args.pages, canonicalize_urls=args.canonicalize_urls)
    edge_sets = [rd.read_parquet(e) for e in args.edges]
    merged = merge_cluster_runs(docs, *edge_sets)
    merged.write_parquet(args.out)
    print(json.dumps({"mode": "merge", "out": args.out, "docs": merged.count()}))
    return 0


def cmd_annotate(args) -> int:
    """Annotate mode — the mode_annotate analog
    (/root/reference/src/mode_annotate.cpp:238-311): look up an
    annotation per record key in a mapping parquet, rewrite headers."""
    _ensure_ray()
    import pyarrow.parquet as pq
    import ray.data as rd

    from metacache_mpi_ray.pipelines.annotate import annotate_docs

    docs = rd.read_parquet(args.pages)
    mapping = pq.read_table(args.mapping).to_pandas()
    out = annotate_docs(
        docs,
        mapping,
        on=args.key,
        annotation_col=args.annotation,
        header_cols=args.header_cols.split(","),
    ).materialize()
    out.write_parquet(args.out)
    print(json.dumps({"mode": "annotate", "out": args.out, "docs": out.count()}))
    return 0


#: REPL ``:set`` options -> (parser, validator). The reference's
#: interactive shell accepts new QUERY options on any input line
#: (mode_query.cpp:269-315); these are the query-time knobs that do
#: not invalidate stored signatures.
_REPL_OPTS = {
    "top_k": (int, lambda v: v >= 1),
    "verify_threshold": (float, lambda v: 0.0 <= v <= 1.0),
    "bucket_cap": (int, lambda v: v >= 1),
}


def cmd_repl(args) -> int:
    """Interactive query shell (S13 analog, mode_query.cpp:269-315):
    each stdin line is queried against the in-RAM index; one JSON result
    line per query. Lines starting with ``:set <opt> <value>`` re-parse
    query options for subsequent lines (the reference shell's
    per-line option re-parsing); ``:options`` echoes the current ones.
    EOF or an empty line exits."""
    _ensure_ray()
    from metacache_mpi_ray.pipelines.incremental import ReplIndex

    idx = ReplIndex(args.index)
    opts = {"top_k": args.top_k, "verify_threshold": None, "bucket_cap": None}
    print(json.dumps({"mode": "repl", "index": args.index, "ready": True}))
    for line in sys.stdin:
        text = line.rstrip("\n")
        if not text:
            break
        if text == ":options":
            print(json.dumps({"options": opts}))
            continue
        if text.startswith(":set "):
            parts = text.split()
            key = parts[1] if len(parts) == 3 else None
            if key not in _REPL_OPTS:
                print(
                    json.dumps(
                        {"error": f"usage: :set {{{'|'.join(_REPL_OPTS)}}} <value>"}
                    )
                )
                continue
            parse, valid = _REPL_OPTS[key]
            try:
                val = parse(parts[2])
                if not valid(val):
                    raise ValueError(parts[2])
            except ValueError:
                print(json.dumps({"error": f"bad value for {key}: {parts[2]!r}"}))
                continue
            opts[key] = val
            print(json.dumps({"options": opts}))
            continue
        print(
            json.dumps(
                idx.query(
                    text,
                    top_k=opts["top_k"],
                    verify_threshold=opts["verify_threshold"],
                    bucket_cap=opts["bucket_cap"],
                )
            )
        )
    return 0


def cmd_info(args) -> int:
    """Index statistics — the mode_info analog
    (reference src/mode_info.cpp:288-345): config, layout (format,
    shard count, files per shard of each sharded stage, cluster-log
    length — compaction keeps the last two bounded), artifact row
    counts (from the Parquet footers; clusters through the resolving
    reader), band-bucket occupancy moments (one histogram task per band
    shard, ``candidates.bucket_histogram``; the power sums are exact)."""
    _ensure_ray()
    from metacache_mpi_ray.pipelines.incremental import (
        INDEX_FORMAT,
        bucket_size_sums,
        index_shards,
        load_index_config,
        log_batches,
        log_files,
        read_clusters,
        shard_files,
        stage_rows,
    )
    from metacache_mpi_ray.stages.stats import moments_from_sums
    from metacache_mpi_ray.state.checkpoint import resume_pending_commit

    cfg = load_index_config(args.index)
    shards = index_shards(args.index)
    resume_pending_commit(args.index)
    out = {
        "mode": "info",
        "index": args.index,
        "config": json.loads(cfg.to_json()),
        "format": INDEX_FORMAT,
        "shards": shards,
        "files_per_shard": {
            stage: [len(shard_files(args.index, stage, p)) for p in range(shards)]
            for stage in ("signatures", "bands", "verified", "clusters")
        },
        "cluster_log_batches": log_batches(log_files(args.index)),
    }
    for stage in ("signatures", "verified", "bands"):
        out[f"rows_{stage}"] = stage_rows(args.index, stage)
    out["rows_clusters"] = read_clusters(args.index).count()
    sums = bucket_size_sums(args.index)
    mean, var, skew = (float(m) for m in moments_from_sums(*sums))
    out["bucket_size_moments"] = {
        "n": sums[0], "mean": mean, "variance": var, "skewness": skew
    }
    # extension lineage (reference 'modify' mode): which batches were
    # added, how many docs/edges/touched clusters each brought
    import os

    extends_path = os.path.join(args.index, "extends.json")
    if os.path.exists(extends_path):
        with open(extends_path) as f:
            out["extends"] = json.load(f)
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="metacache_mpi_ray")
    sub = p.add_subparsers(dest="mode", required=True)

    def common(sp, pages=True):
        if pages:
            sp.add_argument("--pages", required=True, help="pages parquet file/dir")
        sp.add_argument("--num-partitions", type=int, default=16, dest="num_partitions")
        sp.add_argument(
            "--canonicalize-urls", action="store_true", dest="canonicalize_urls"
        )
        for f in ("shingle_k", "n_perms", "n_bands", "bucket_cap"):
            sp.add_argument(f"--{f.replace('_','-')}", type=int, default=None, dest=f)
        sp.add_argument("--sim-threshold", type=float, default=None, dest="sim_threshold")

    sp = sub.add_parser("build", help="build a persisted dedup index")
    common(sp)
    sp.add_argument("--index", required=True)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser(
        "extend", help="add pages to an existing index (reference 'modify' mode)"
    )
    common(sp)
    sp.add_argument("--index", required=True)
    sp.add_argument("--batch-id", default=None, dest="batch_id")
    sp.set_defaults(fn=cmd_extend)

    sp = sub.add_parser("query", help="query new pages against an index")
    common(sp)
    sp.add_argument("--index", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_query)

    sp = sub.add_parser("dedup", help="one-shot near-dup clustering")
    common(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_dedup)

    sp = sub.add_parser("merge", help="merge verified-edge sets, re-cluster")
    common(sp)
    sp.add_argument("--edges", action="append", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_merge)

    sp = sub.add_parser("annotate", help="rewrite record headers from a mapping")
    sp.add_argument("--pages", required=True, help="records parquet file/dir")
    sp.add_argument("--mapping", required=True, help="mapping parquet (key + annotation)")
    sp.add_argument("--key", required=True, help="join key column")
    sp.add_argument("--annotation", required=True, help="annotation column in mapping")
    sp.add_argument(
        "--header-cols", required=True, dest="header_cols",
        help="comma-separated record columns prefixed to the header",
    )
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_annotate)

    sp = sub.add_parser("repl", help="interactive per-query lookup shell")
    sp.add_argument("--index", required=True)
    sp.add_argument("--top-k", type=int, default=5, dest="top_k")
    sp.set_defaults(fn=cmd_repl)

    sp = sub.add_parser("info", help="index statistics")
    sp.add_argument("--index", required=True)
    sp.set_defaults(fn=cmd_info)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
