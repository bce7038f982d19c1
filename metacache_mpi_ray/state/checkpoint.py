"""Checkpointed stage outputs + resume — the analog of the reference's
per-rank DB artifact write/read (/root/reference/src/sketch_database.h:
858-999, mode_build.cpp:1076-1091), generalized to per-stage Parquet
checkpoints with atomic rename and a config guard.

Layout per pipeline run:

    <ckpt_root>/
      config.json                  # DedupConfig of the run (F4 fixture)
      <stage>/                     # completed stage output (parquet dir)
      <stage>.__tmp__/             # in-progress write (discarded on resume)
      <stage>.done                 # completion marker (written after rename)

A persisted index (pipelines/incremental.build_index, format 2) adds
``index.json`` ({"format": 2, "shards": P}) and stores its signatures,
bands and clusters stages as P hash shards, ``<stage>/<p>/*.parquet``;
``extend_index`` appends one file per shard and batch, a
``cluster_log/`` of per-batch label remaps and dup marks, and installs
them through the commit journal at the bottom of this module
(``extend.commit.json``: journaled renames and removals, rolled
forward by whichever reader or writer finds it first).

Rules (mirrors the reference's DB version/type-width check,
sketch_database.h:869-908):
* a checkpoint root with a different config.json refuses to resume
  (ConfigMismatch) — silent wrong-config reuse is the failure the
  reference guards against;
* a stage is reused iff its ``.done`` marker exists; partial writes are
  invisible because data moves into place via a single atomic rename;
* sharded stages (``shard=K`` subdirs) resume per shard, so a killed
  run skips finished shards (the resumable-output requirement). Every
  reader passes ``partitioning=None``: the ``shard=K`` directory names
  must not turn into a column.
"""

from __future__ import annotations

import json
import os
import shutil

import ray.data

from metacache_mpi_ray.config import DedupConfig


class ConfigMismatch(RuntimeError):
    pass


def _input_manifest(input_files: list[str]) -> str:
    """Sorted (path, size) list identifying the input corpus of a run."""
    entries = []
    for p in sorted(input_files):
        try:
            size = os.path.getsize(p)
        except OSError:
            size = -1
        entries.append({"path": p, "size": size})
    return json.dumps(entries, sort_keys=True)


def init_checkpoint_root(
    root: str, cfg: DedupConfig, input_files: list[str] | None = None
) -> str:
    """Create (or validate) a checkpoint root for this config AND input.

    The input manifest (sorted file list + sizes) is bound to the root
    alongside the config: resuming against a different or modified
    corpus refuses, mirroring the config guard — silently reusing stage
    checkpoints computed from other data is the failure mode the
    reference's DB version check exists to prevent
    (/root/reference/src/sketch_database.h:869-908)."""
    os.makedirs(root, exist_ok=True)
    guards = [("config.json", cfg.to_json())]
    if input_files is not None:
        # a root that was EXTENDED holds artifacts for a larger corpus
        # than any fixed input manifest: resuming a one-shot run from it
        # would return results that don't correspond to the declared
        # inputs (extend_index keeps build_index-compatible artifacts,
        # so the manifest alone wouldn't catch the mutation)
        if os.path.exists(os.path.join(root, "extends.json")):
            raise ConfigMismatch(
                f"checkpoint at {root} was extended after its build "
                "(extends.json present); a manifest-pinned run cannot "
                "resume from it — use a fresh checkpoint root"
            )
        guards.append(("inputs.json", _input_manifest(input_files)))
    for fname, payload in guards:
        path = os.path.join(root, fname)
        if os.path.exists(path):
            with open(path) as f:
                existing = f.read()
            if existing != payload:
                what = "config" if fname == "config.json" else "input file list"
                raise ConfigMismatch(
                    f"checkpoint at {root} was written with a different {what}; "
                    "refusing to resume (delete the directory or change ckpt root)"
                )
        else:
            tmp = path + ".tmp"
            with open(tmp, "w") as f:
                f.write(payload)
            os.replace(tmp, path)
    return root


def stage_done(root: str, stage: str) -> bool:
    return os.path.exists(os.path.join(root, f"{stage}.done"))


def _write_parquet_stage(ds, tmp: str, empty_schema=None) -> None:
    """write_parquet that survives EMPTY datasets: Ray writes no files
    (not even the directory) for 0 rows, which would break the atomic
    rename and the later read — persist an explicit empty file with the
    dataset's schema (or the caller-supplied ``empty_schema`` pyarrow
    schema when even Ray's schema is unknown) instead."""
    ds.write_parquet(tmp)
    os.makedirs(tmp, exist_ok=True)
    if not any(f.endswith(".parquet") for f in os.listdir(tmp)):
        import pyarrow as pa
        import pyarrow.parquet as pq

        sch = ds.schema()
        if sch is not None:
            empty = pa.table(
                {n: pa.array([], type=t) for n, t in zip(sch.names, sch.types)}
            )
        elif empty_schema is not None:
            empty = empty_schema.empty_table()
        else:
            raise ValueError(
                f"stage produced 0 rows and no schema; pass empty_schema "
                f"to checkpoint it ({tmp})"
            )
        pq.write_table(empty, os.path.join(tmp, "empty-0.parquet"))


def install_stage(root: str, stage: str, write) -> None:
    """Run ``write(tmp_dir)`` and move its output into <root>/<stage>/
    atomically, then write the ``.done`` marker — a crash at any point
    leaves either no stage dir or a complete one, never a partial one."""
    final = os.path.join(root, stage)
    marker = os.path.join(root, f"{stage}.done")
    tmp = os.path.join(root, f"{stage}.__tmp__")
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    write(tmp)
    if os.path.exists(final):
        shutil.rmtree(final)
    os.replace(tmp, final)
    with open(marker + ".tmp", "w") as f:
        json.dump({"stage": stage, "rows": None}, f)
    os.replace(marker + ".tmp", marker)


def checkpointed_stage(
    root: str,
    stage: str,
    compute,  # () -> ray.data.Dataset
    *,
    read_columns: list[str] | None = None,
    empty_schema=None,
) -> "ray.data.Dataset":
    """Run ``compute()`` and persist its output under <root>/<stage>/
    (through ``install_stage``), or read the existing checkpoint if the
    stage already completed."""
    if not stage_done(root, stage):
        install_stage(
            root, stage, lambda tmp: _write_parquet_stage(compute(), tmp, empty_schema)
        )
    return ray.data.read_parquet(
        os.path.join(root, stage), columns=read_columns, partitioning=None
    )


def sharded_checkpointed_stage(
    root: str,
    stage: str,
    shard_ids: list[int],
    compute_shard,  # (shard_id) -> ray.data.Dataset
    *,
    read_columns: list[str] | None = None,
    total_shards: int | None = None,
) -> "ray.data.Dataset":
    """Per-shard resumable stage: each shard is checkpointed atomically
    under <root>/<stage>/shard=<k>/; finished shards are skipped on
    resume (kill/restart test in tests/test_checkpoint.py)."""
    stage_dir = os.path.join(root, stage)
    os.makedirs(stage_dir, exist_ok=True)
    # shard-layout guard: resuming with a different shard count would
    # silently mix incompatible shard assignments (mirrors the config
    # guard; the reference equivalent is the per-rank DB file count).
    # ``shard_ids`` may be a partial list when retrying specific shards;
    # ``total_shards`` (default: len(shard_ids)) names the intended
    # full layout the sidecar records.
    layout_path = os.path.join(stage_dir, ".shard_layout")
    n_layout = total_shards if total_shards is not None else len(shard_ids)
    layout = f"{n_layout}"
    if os.path.exists(layout_path):
        with open(layout_path) as f:
            if f.read().strip() != layout:
                raise ConfigMismatch(
                    f"stage {stage!r} at {root} was checkpointed with a "
                    f"different shard count; refusing to resume"
                )
    else:
        # legacy checkpoint without a sidecar: completed shard markers
        # outside the claimed layout betray a different prior layout
        stale = [k for k in completed_shards(root, stage) if k >= n_layout]
        if stale:
            raise ConfigMismatch(
                f"stage {stage!r} at {root} has completed shards {stale} "
                f"outside the claimed layout of {n_layout}; refusing to mix"
            )
        with open(layout_path + ".tmp", "w") as f:
            f.write(layout)
        os.replace(layout_path + ".tmp", layout_path)
    for k in shard_ids:
        sdir = os.path.join(stage_dir, f"shard={k}")
        smarker = os.path.join(stage_dir, f"shard-{k}.done")
        if os.path.exists(smarker):
            continue
        tmp = os.path.join(stage_dir, f"shard-{k}.__tmp__")
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        ds = compute_shard(k)
        _write_parquet_stage(ds, tmp)
        if os.path.exists(sdir):
            shutil.rmtree(sdir)
        os.replace(tmp, sdir)
        with open(smarker + ".tmp", "w") as f:
            f.write("done")
        os.replace(smarker + ".tmp", smarker)
    files: list[str] = []
    for k in shard_ids:
        d = os.path.join(stage_dir, f"shard={k}")
        files.extend(
            sorted(
                os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
            )
        )
    return ray.data.read_parquet(files, columns=read_columns, partitioning=None)


def completed_shards(root: str, stage: str) -> list[int]:
    stage_dir = os.path.join(root, stage)
    if not os.path.isdir(stage_dir):
        return []
    out = []
    for name in os.listdir(stage_dir):
        if name.startswith("shard-") and name.endswith(".done"):
            out.append(int(name[len("shard-") : -len(".done")]))
    return sorted(out)


# --- extend-commit journal (pipelines/extend.py writes it; every index
# reader heals a torn commit via resume_pending_commit) -----------------


def _checkpoint_install_files(root: str, journal_path: str) -> None:
    """Roll an extend-commit journal forward: each move is an os.replace
    made idempotent (skip when the source is gone and the target
    exists), then the removals (files a compaction replaced), the
    lineage append, and cleanup. Every step can be repeated, so a crash
    anywhere in here is healed by running it again."""
    with open(journal_path) as f:
        journal = json.load(f)
    for src, dst in journal["moves"]:
        if os.path.exists(src):
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            os.replace(src, dst)
        elif not os.path.exists(dst):
            raise RuntimeError(
                f"interrupted extend at {root}: journaled move lost both "
                f"sides ({src} -> {dst}); rebuild the index"
            )
    for path in journal["removes"]:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
    lineage = json.loads(journal["lineage"])
    extends_path = os.path.join(root, "extends.json")
    records = []
    if os.path.exists(extends_path):
        with open(extends_path) as f:
            records = json.load(f)
    if not any(r["batch_id"] == lineage["batch_id"] for r in records):
        records.append(lineage)
        with open(extends_path + ".tmp", "w") as f:
            json.dump(records, f, indent=1)
        os.replace(extends_path + ".tmp", extends_path)
    # two readers may heal the same journal concurrently: every rename
    # above is individually idempotent, so the loser of these final
    # cleanup races just finds the work already done
    try:
        os.remove(journal_path)
    except FileNotFoundError:
        pass
    shutil.rmtree(journal["staging"], ignore_errors=True)


def resume_pending_commit(ckpt_root: str) -> bool:
    """Complete an interrupted extend commit, if any. Returns True when
    a pending journal was rolled forward. Safe (and cheap: one stat) to
    call from any reader before consuming index artifacts."""
    journal_path = os.path.join(ckpt_root, "extend.commit.json")
    if os.path.exists(journal_path):
        _checkpoint_install_files(ckpt_root, journal_path)
        return True
    return False
