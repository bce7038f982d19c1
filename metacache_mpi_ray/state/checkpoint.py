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
``index.json`` ({"format": 2, "shards": P}) and stores each of its
stages (signatures, bands, verified, clusters) as P hash shards,
``<stage>/<p>/*.parquet``;
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
  invisible because data moves into place via a single atomic rename.
"""

from __future__ import annotations

import json
import os
import shutil

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


def stage_tmp(root: str, stage: str) -> str:
    """The empty in-progress directory ``<root>/<stage>.__tmp__`` (a
    killed run's leftover is discarded); ``install_stage`` moves it into
    place once every file of the stage is written there."""
    tmp = os.path.join(root, f"{stage}.__tmp__")
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    return tmp


def install_stage(root: str, stage: str, rows: int) -> None:
    """Move ``<stage>.__tmp__`` into <root>/<stage>/ atomically, then
    write the ``.done`` marker — a crash at any point leaves either no
    stage dir or a complete one, never a partial one."""
    final = os.path.join(root, stage)
    marker = os.path.join(root, f"{stage}.done")
    if os.path.exists(final):
        shutil.rmtree(final)
    os.replace(os.path.join(root, f"{stage}.__tmp__"), final)
    with open(marker + ".tmp", "w") as f:
        json.dump({"stage": stage, "rows": rows}, f)
    os.replace(marker + ".tmp", marker)


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
