"""Incremental query-against-persisted-index dedup — the analog of the
reference's query mode: build once, query many.

Reference shape: ``mode_query.cpp:404-455`` loads the per-rank DB
artifact (``dbfile_<rank>``) and streams new reads against it via the
multimap probe ``sketch_database.h:804-833`` (accumulate_matches),
bounded by the maxcand candidate list. This is THE daily operation of a
training-data pipeline: dedup a new crawl batch against the existing
corpus index without re-processing the corpus.

Index layout (format 2, ``index.json`` = {"format": 2, "shards": P}):
``build_index`` runs the flagship graph (pipelines/dedup.py), whose
tasks already split their outputs by ``functions/blocks.split_by_key``
— the partition function of ``hash_exchange`` — and writes each shard
from a task: signatures and clusters by the shard of ``doc_id``, band
keys by the shard of ``bkey`` (sorted by ``bkey`` inside a shard),
verified edges by the shard of ``b``: ``<stage>/<p>/*.parquet``, the
analog of the reference's per-rank shards (sketch_database.h:540),
written in the same pass that sketches the corpus (mode_build.cpp:
1076-1091). ``extend_index`` appends one file per shard and batch plus
a ``cluster_log/`` of label remaps and dup marks; ``read_clusters`` is
the one reader that resolves them.

The daily batch (``_daily_batch``, shared by query and extend) is one
graph of plain Ray tasks; no Ray Data execution touches the stored
index:

1. the flagship's sign step (``dedup._sign_pieces``): one task per
   batch block signs, bands and splits the block by shard;
2. probe task p takes the ``searchsorted`` range of each batch band key
   in every file of ``bands/<p>``, adds the batch's band pieces p and
   runs the bucket kernel ``probe_bucket_pairs`` (every bucket is whole
   in one shard, so the hot-bucket cap counts stored and new rows) for
   new x stored and new x new pairs, marking each pair whose ``b`` has
   a stored row (``b_stored``: the rows a query answers from);
3. verify task q takes the batch's signature pieces, looks up only the
   candidate rows of ``signatures/<q>``, keeps pairs with ``est_sim >=
   cfg.verify_threshold`` (the rule of ``verify_edges``), and resolves
   each stored endpoint to its cluster through ``clusters/<q>`` plus
   the log.

A query keeps its batch graph for the extend that usually follows it on
the same batch (the reference sketches and looks up a read once and
feeds every output from that one candidate list): ``_last_batch`` holds
one ``(key, _DailyBatch)``, set by each query and taken by each
``extend_index`` call, hit or miss, so at most one batch's refs stay
pinned and none after an extend. The key (``_batch_key``) is the Ray
node and job, the root's realpath, the shard count, the config, the
batch's non-empty block refs in order (refs are immutable and their ids
never reused within a session), and the index state: every file of
``bands/<p>``, ``signatures/<p>``, ``clusters/<p>`` and ``cluster_log/``
with its ``_resident`` stamp, taken after any torn commit is healed. A
batch whose key matches is the same function of the same files, so the
extend's result equals a fresh graph's.

Resident shards: the stored files are read in these tasks (and in
``read_clusters``' tasks) through ``_resident``, which keeps each
decoded file in the worker process, as the reference keeps its loaded
database shard in memory between query batches (mode_query.cpp:421).
A file is decoded into the sorted arrays its lookup wants (bands by
``bkey``, signatures and clusters by ``doc_id``, remaps by label), so a
batch decodes only the files its worker has not seen and probes them by
binary search. A kept file is used only while its stamp (inode, size,
mtime, ctime; one ``os.stat`` per use) is unchanged: installed files are
never rewritten in place, and a deleted and rebuilt root gets new
stamps. Each task gets the listing of its shard directories and the
log taken when it was submitted, and drops the kept files of those
directories the listing no longer holds; past ``RESIDENT_BYTES`` per process the least
recently used files are dropped, and a file larger than that is read
through without being kept.

One read path: only this module reads index files. The probe and
verify tasks and ``ReplIndex`` share the decoders and the kernels
(``_bucket_rows``, ``_probe_pairs``, ``_signature_rows``,
``minhash_scores``, ``_cluster_labels``); ``info`` takes row counts from
the Parquet footers and runs the census kernel ``bucket_histogram`` as
one task per band shard, so no Ray Data read touches the index. Every
index file, built or extended, is written by one rule (``_sorted_shard``).

The query then takes the minimum matched cluster per new doc. Each probe
appends a telemetry row (candidate/verified/matched counts, the
signature files and stored bytes consulted, and the files and bytes
decoded from disk) to the index root's metrics.jsonl.

doc_ids must be disjoint between the index corpus and the query batch
(ids are content-derived hashes of distinct urls in the ingest path).
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.functions.blocks import _as_table, doc_blocks, split_by_key
from metacache_mpi_ray.pipelines.dedup import _score_graph, _sign_pieces
from metacache_mpi_ray.stages.candidates import (
    bucket_histogram,
    distinct_pairs,
    histogram_sums,
    merge_histograms,
    run_bounds,
    segment_all_pairs,
)
from metacache_mpi_ray.stages.cluster import components
from metacache_mpi_ray.stages.signatures import (
    minhash_perm_constants,
    sig_from_arrow,
    sig_to_arrow,
    sign_rows,
    signature_schema,
)
from metacache_mpi_ray.stages.verify import lookup_sorted, minhash_scores
from metacache_mpi_ray.state.checkpoint import (
    ConfigMismatch,
    init_checkpoint_root,
    install_stage,
    resume_pending_commit,
    stage_done,
    stage_tmp,
)

INDEX_FORMAT = 2
#: the stages of an index and the key each one's files are sorted by
#: (``_sorted_shard``)
_STAGE_KEYS = {"signatures": "doc_id", "bands": "bkey", "verified": "a", "clusters": "doc_id"}
_STAGES = tuple(_STAGE_KEYS)
_PAIRS = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("b_stored", pa.bool_())])
_NO_IDS = np.empty(0, dtype=np.int64)
_BANDS = pa.schema([("bkey", pa.int64()), ("doc_id", pa.int64())])
_EDGES = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("est_sim", pa.float64())])
_QUERY_OUT = pa.schema(
    [("doc_id", pa.int64()), ("matched", pa.bool_()), ("matched_cluster_id", pa.int64())]
)
_CLUSTERS = pa.schema(
    [("doc_id", pa.int64()), ("cluster_id", pa.int64()), ("is_dup", pa.bool_())]
)
_VERIFIED = pa.schema(
    [
        ("a", pa.int64()),
        ("b", pa.int64()),
        ("est_sim", pa.float64()),
        ("b_label", pa.int64()),  # stored b: its resolved cluster; new b: b
        ("b_stored", pa.bool_()),  # b has a stored row (the probe's view)
        ("b_dup", pa.bool_()),  # stored b already marked a dup
    ]
)


def build_index(
    docs,
    cfg: DedupConfig,
    ckpt_root: str,
    *,
    num_partitions: int | None = None,
):
    """Dedup ``docs`` with the flagship graph (pipelines/dedup.py) and
    persist the queryable artifacts under ``ckpt_root``: index.json and
    config.json guards, and the signatures/, bands/, verified/ and
    clusters/ stages as ``num_partitions`` shards each, one file per
    shard written by a task (``_write_shard_task``). Returns the
    clusters dataset.

    Resumable: each stage is installed with its ``.done`` marker,
    signatures and bands as soon as they are written, verified and
    clusters at the end, and an installed stage is never rewritten. With
    every marker present the clusters are read back; with signatures and
    bands installed the graph starts from their files and ``docs`` is
    never executed. A root holding artifacts without a format-2
    ``index.json`` is refused."""
    from metacache_mpi_ray.stages.joins import default_num_partitions

    if num_partitions is None:
        num_partitions = default_num_partitions()
    init_checkpoint_root(ckpt_root, cfg)
    shards = _init_index_meta(ckpt_root, num_partitions)
    if not all(stage_done(ckpt_root, s) for s in _STAGES):
        _build(docs, cfg, ckpt_root, shards)
    return read_clusters(ckpt_root)


def _build(docs, cfg: DedupConfig, root: str, shards: int) -> None:
    """The flagship graph plus the index sink (``build_index``): one
    write task per (stage, shard) into the stage's tmp directory, each
    stage installed once its writes finish, with one lineage row."""
    from metacache_mpi_ray.state.metrics import MetricsRecorder

    metrics = MetricsRecorder(root)
    t0 = time.time()

    def write(stage: str, pieces: list, schema: pa.Schema):
        if stage_done(root, stage):
            return None
        tmp = stage_tmp(root, stage)
        return [
            _write_shard_task.remote(
                os.path.join(tmp, str(p), "part-0.parquet"), stage, schema, *ps
            )
            for p, ps in enumerate(pieces)
        ]

    def install(stage: str, writes) -> None:
        if writes is not None:
            rows = sum(ray.get(writes))
            install_stage(root, stage, rows)
            metrics.record(stage, rows_out=rows, t_start=t0, shards=shards)

    def stored(stage: str) -> list:
        return [
            [_read_task.remote(f) for f in shard_files(root, stage, p)]
            for p in range(shards)
        ]

    if stage_done(root, "signatures") and stage_done(root, "bands"):
        # one read task per stored file in place of the sign tasks
        band_pieces, sig_pieces = stored("bands"), stored("signatures")
    else:
        band_pieces, sig_pieces = _sign_pieces(
            (ref for ref, _ in doc_blocks(docs)), cfg, shards
        )
    sig_writes = write("signatures", sig_pieces, signature_schema(cfg.n_perms))
    band_writes = write("bands", band_pieces, _BANDS)
    verified_refs, counts = _score_graph(band_pieces, sig_pieces, cfg, shards)
    install("signatures", sig_writes)
    install("bands", band_writes)
    cluster_refs = components(sig_pieces, verified_refs, sum(ray.get(counts)))
    verified_writes = write("verified", [[r] for r in verified_refs], _EDGES)
    cluster_writes = write("clusters", [[r] for r in cluster_refs], _CLUSTERS)
    install("verified", verified_writes)
    install("clusters", cluster_writes)


def load_index_config(ckpt_root: str) -> DedupConfig:
    with open(os.path.join(ckpt_root, "config.json")) as f:
        return DedupConfig.from_json(f.read())


def index_shards(ckpt_root: str) -> int:
    """The shard count P of a format-2 index; ConfigMismatch for any
    other root (an older unsharded index is refused, never misread).
    Readers call it before healing a torn commit, so an older root's
    journal is never replayed by this format's installer."""
    path = os.path.join(ckpt_root, "index.json")
    meta = {}
    if os.path.exists(path):
        with open(path) as f:
            meta = json.load(f)
    if meta.get("format") != INDEX_FORMAT:
        raise ConfigMismatch(
            f"{ckpt_root} is not a format-{INDEX_FORMAT} index (index.json "
            f"{'missing' if not meta else meta}); rebuild with build_index"
        )
    return int(meta["shards"])


def _init_index_meta(ckpt_root: str, shards: int) -> int:
    """Write index.json for a fresh root, or return the shard count of
    the format-2 root being resumed."""
    path = os.path.join(ckpt_root, "index.json")
    if os.path.exists(path) or any(stage_done(ckpt_root, s) for s in _STAGES):
        return index_shards(ckpt_root)
    with open(path + ".tmp", "w") as f:
        json.dump({"format": INDEX_FORMAT, "shards": int(shards)}, f)
    os.replace(path + ".tmp", path)
    return int(shards)


def _check_config(ckpt_root: str, cfg: DedupConfig | None) -> DedupConfig:
    stored_cfg = load_index_config(ckpt_root)
    if cfg is not None and cfg != stored_cfg:
        raise ConfigMismatch(
            f"index at {ckpt_root} was built with a different DedupConfig; "
            "signatures are not comparable across configs"
        )
    return stored_cfg


def _parquet_files(d: str) -> list[str]:
    if not os.path.isdir(d):
        return []
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))


def _shard_dir(ckpt_root: str, stage: str, shard: int) -> str:
    return os.path.join(ckpt_root, stage, str(shard))


def _log_dir(ckpt_root: str) -> str:
    return os.path.join(ckpt_root, "cluster_log")


def shard_files(ckpt_root: str, stage: str, shard: int) -> list[str]:
    """The parquet files of one shard of a sharded stage, sorted."""
    return _parquet_files(_shard_dir(ckpt_root, stage, shard))


def log_files(ckpt_root: str) -> list[str]:
    """The cluster-label log, oldest batch first (names start with a
    zero-padded batch sequence number)."""
    return _parquet_files(_log_dir(ckpt_root))


def log_batches(files: list[str]) -> int:
    """How many extend batches the cluster log holds."""
    return len({os.path.basename(f).split("-", 1)[0] for f in files})


def _read_file(path: str, columns=None) -> pa.Table:
    """One Parquet file (``ParquetFile``: no partitioning, so a shard
    directory name never becomes a column; ~0.3-0.5 ms a file, where
    ``pq.read_table``'s dataset layer costs ~1-1.5 ms and far more on a
    worker's first call)."""
    with pq.ParquetFile(path) as pf:
        return pf.read(columns=columns)


def _read_files(files: list[str], columns=None) -> pa.Table | None:
    """Concatenated rows of ``files`` (``None`` for no files)."""
    tabs = [_read_file(f, columns) for f in files]
    return pa.concat_tables(tabs, promote_options="default") if tabs else None


def _nbytes(files: list[str]) -> int:
    return sum(os.path.getsize(f) for f in files)


def _write_table(t: pa.Table, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(t, path)


def _sorted_shard(t: pa.Table, stage: str) -> pa.Table:
    """The write rule of every index file: rows sorted by the stage's
    key (``_STAGE_KEYS``) and then by every other flat column (bands by
    ``(bkey, doc_id)``) into one contiguous table, so the same rows
    write the same bytes whatever order they arrive in."""
    key = _STAGE_KEYS[stage]
    flat = [f.name for f in t.schema if f.name != key and not pa.types.is_nested(f.type)]
    return t.sort_by([(c, "ascending") for c in [key, *flat]]).combine_chunks()


@ray.remote
def _write_shard_task(path: str, stage: str, schema: pa.Schema, *pieces) -> int:
    """Write task: the pieces of one stage shard -> ``path`` by
    ``_sorted_shard``; a shard no row hashed to is a typed empty file.
    Returns the row count."""
    parts = [t for t in pieces if t.num_rows]
    t = _sorted_shard(pa.concat_tables(parts) if parts else schema.empty_table(), stage)
    _write_table(t, path)
    return t.num_rows


@ray.remote
def _read_task(path: str) -> pa.Table:
    return _read_file(path)


# --- resident index files --------------------------------------------------

#: byte budget of the decoded index files one process keeps: past it the
#: least recently used files are dropped, and a file that alone decodes
#: to more is read through without being kept
RESIDENT_BYTES = 256 << 20

# path -> (stamp, decode, decoded bytes, decoded arrays), least recently
# used first
_resident_files: OrderedDict = OrderedDict()


def _new_stats() -> dict:
    """A task's read counters: bytes of the index files it consulted,
    and the files and bytes of those it decoded from disk."""
    return {"bytes": 0, "files_decoded": 0, "bytes_decoded": 0, "pid": os.getpid()}


def _stamp(path: str) -> tuple:
    """(inode, size, mtime_ns, ctime_ns) of a file: what tells an
    installed index file from any later file at its path."""
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _resident(path: str, decode, stats: dict | None = None) -> tuple:
    """``decode(path)`` (a tuple of arrays) of one index file, kept in
    this process for later tasks. Each use makes one ``os.stat``; a kept
    entry is used only while the file's stamp (inode, size, mtime,
    ctime) is unchanged. Installed files are never rewritten in place
    (extend renames staged files in, compaction writes new names), and
    the stamp also tells a root deleted and rebuilt at the same path
    from the old one."""
    stamp = _stamp(path)
    if stats is not None:
        stats["bytes"] += stamp[1]
    kept = _resident_files.pop(path, None)
    if kept is not None and kept[0] == stamp and kept[1] is decode:
        _resident_files[path] = kept
        return kept[3]
    arrays = decode(path)
    if stats is not None:
        stats["files_decoded"] += 1
        stats["bytes_decoded"] += stamp[1]
    nbytes = sum(a.nbytes for a in arrays)
    if nbytes <= RESIDENT_BYTES:
        for a in arrays:
            a.setflags(write=False)  # shared by every later task
        _resident_files[path] = (stamp, decode, nbytes, arrays)
        total = sum(e[2] for e in _resident_files.values())
        while total > RESIDENT_BYTES:
            total -= _resident_files.popitem(last=False)[1][2]
    return arrays


def _listing(d: str) -> tuple[str, list[str]]:
    """(``d``, its parquet files sorted): the files a task is sent to
    read, listed when the task is submitted."""
    return d, _parquet_files(d)


def _visit(listing: tuple[str, list[str]]) -> list[str]:
    """The files of a ``_listing``; kept entries of its directory that it
    no longer holds (compacted or deleted) are dropped."""
    d, files = listing
    listed = set(files)
    for path in [p for p in _resident_files if os.path.dirname(p) == d and p not in listed]:
        del _resident_files[path]
    return files


def _decode_bands(path: str) -> tuple:
    """Band file -> (bkey, doc_id), sorted by bkey."""
    t = _read_file(path, ["bkey", "doc_id"])
    bk = t["bkey"].to_numpy()
    order = np.argsort(bk, kind="stable")
    return bk[order], t["doc_id"].to_numpy()[order]


def _decode_signatures(path: str) -> tuple:
    """Signature file -> (doc_id sorted, its (n, n_perms) u64 rows)."""
    t = _read_file(path, ["doc_id", "sig"])
    ids = t["doc_id"].to_numpy()
    order = np.argsort(ids, kind="stable")
    return ids[order], sig_from_arrow(t["sig"])[order]


def _decode_clusters(path: str) -> tuple:
    """Cluster file -> (doc_id, cluster_id, is_dup) in file order, plus
    the sorted doc_ids and the order that sorts them."""
    t = _read_file(path, _CLUSTERS.names)
    ids = t["doc_id"].to_numpy()
    order = np.argsort(ids, kind="stable")
    dup = t["is_dup"].to_numpy(zero_copy_only=False)
    return ids, t["cluster_id"].to_numpy(), dup, ids[order], order


def _decode_remap(path: str) -> tuple:
    """Remap log file -> (from_label, to_label), sorted by from_label."""
    t = _read_file(path, ["from_label", "to_label"])
    frm = t["from_label"].to_numpy()
    order = np.argsort(frm, kind="stable")
    return frm[order], t["to_label"].to_numpy()[order]


def _decode_dups(path: str) -> tuple:
    """Dup log file -> (doc_ids,)."""
    return (_read_file(path, ["doc_id"])["doc_id"].to_numpy(),)


# --- the cluster-label log -----------------------------------------------


def load_log(files: list[str], stats: dict | None = None):
    """(remaps, dup_ids): the (from_label, to_label) arrays of every
    batch in order, and every doc_id a batch marked a dup."""
    remaps, dups = [], [np.empty(0, dtype=np.int64)]
    for f in files:
        if f.endswith("-remap.parquet"):
            remaps.append(_resident(f, _decode_remap, stats))
        else:
            dups.append(_resident(f, _decode_dups, stats)[0])
    return remaps, np.unique(np.concatenate(dups))


def _resolve(ids, cl, dup, remaps, dup_ids: np.ndarray) -> pa.Table:
    """Stored (doc_id, cluster_id, is_dup) rows -> their current values:
    every remap in batch order, then the dup marks ORed in. Exact
    because a label remapped away never comes back (a component's
    minimum only falls, and new ids never collide with stored ones)."""
    for frm, to in remaps:
        if len(frm):
            pos, found = lookup_sorted(frm, cl)
            cl = np.where(found, to[pos], cl)
    if len(dup_ids):
        dup = dup | np.isin(ids, dup_ids)
    return pa.table([ids, cl, dup], schema=_CLUSTERS)


def resolve_clusters(t: pa.Table, remaps, dup_ids: np.ndarray) -> pa.Table:
    """``_resolve`` over a (doc_id, cluster_id, is_dup) table."""
    return _resolve(
        t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
        t["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64),
        t["is_dup"].to_numpy(zero_copy_only=False).astype(bool),
        remaps,
        dup_ids,
    )


def _stored_clusters(files, log, stats: dict | None = None, ids=None) -> pa.Table:
    """The current (doc_id, cluster_id, is_dup) rows of a clusters shard
    (``files`` and the ``log``, both ``_listing``s) from the resident
    files: every row in file order, or only the rows of the sorted
    ``ids`` when given."""
    parts = []
    for f in _visit(files):
        fid, fcl, fdup, fsorted, forder = _resident(f, _decode_clusters, stats)
        if ids is not None:
            pos, found = lookup_sorted(fsorted, ids)
            rows = forder[pos[found]]
            fid, fcl, fdup = fid[rows], fcl[rows], fdup[rows]
        parts.append((fid, fcl, fdup))
    remaps, dup_ids = load_log(_visit(log), stats)
    if not parts:
        return _CLUSTERS.empty_table()
    return _resolve(*(np.concatenate(c) for c in zip(*parts)), remaps, dup_ids)


@ray.remote
def _resolved_shard(files, log) -> pa.Table:
    return _stored_clusters(files, log)


def read_clusters(ckpt_root: str):
    """The index's current clusters (doc_id, cluster_id, is_dup), one
    block per shard: the stored rows resolved through the cluster log.
    The one reader of the clusters stage (query, extend, REPL, info)."""
    shards = index_shards(ckpt_root)
    resume_pending_commit(ckpt_root)
    log = _listing(_log_dir(ckpt_root))
    return rd.from_arrow_refs(
        [
            _resolved_shard.remote(_listing(_shard_dir(ckpt_root, "clusters", p)), log)
            for p in range(shards)
        ]
    )


def stage_rows(ckpt_root: str, stage: str) -> int:
    """The stored rows of a sharded stage, from its files' Parquet
    footers (``info``; the clusters log adds no rows)."""
    return sum(
        pq.read_metadata(f).num_rows
        for p in range(index_shards(ckpt_root))
        for f in shard_files(ckpt_root, stage, p)
    )


@ray.remote
def _band_histogram(files) -> pa.Table:
    """Band shard files (a ``_listing``) -> the histogram of its bucket
    sizes: a bucket is whole in the shard of its ``bkey``."""
    return bucket_histogram([_resident(f, _decode_bands)[0] for f in _visit(files)])


def bucket_size_sums(ckpt_root: str) -> list[int]:
    """[n, Σx, Σx², Σx³] over the sizes x of the index's band buckets
    (``info``'s census), exact: one histogram task per band shard."""
    bands = [_listing(_shard_dir(ckpt_root, "bands", p)) for p in range(index_shards(ckpt_root))]
    return histogram_sums(merge_histograms(ray.get([_band_histogram.remote(b) for b in bands])))


class ReplIndex:
    """Interactive single-query lookup against a persisted index — the
    analog of the reference's interactive query shell (S13,
    /root/reference/src/mode_query.cpp:269-315: stdin lines queried
    against the in-RAM database).

    Loads the index into driver memory ONCE — like the reference, the
    interactive path assumes the index fits in RAM; batch workloads go
    through ``query_against_index``. The band and signature files are
    decoded by the daily tasks' decoders into one sorted run per stage,
    the clusters come from ``read_clusters``, and each ``query(text)``
    signs like a batch doc and runs the daily kernels once over those
    runs (1-2 ms)."""

    #: refuse to load an index whose on-disk artifacts exceed this many
    #: bytes (in-RAM footprint is larger still after decompression);
    #: override per-instance or via METACACHE_REPL_MAX_BYTES. The REPL
    #: is the one deliberately driver-RAM-resident mode in the repo —
    #: without the guard a mis-pointed ckpt_root OOMs the driver
    #: instead of erroring with the artifact size (r4 review).
    DEFAULT_MAX_BYTES = 8 << 30

    def __init__(self, ckpt_root: str, max_bytes: int | None = None):
        shards = index_shards(ckpt_root)
        resume_pending_commit(ckpt_root)
        if max_bytes is None:
            max_bytes = int(
                os.environ.get("METACACHE_REPL_MAX_BYTES", self.DEFAULT_MAX_BYTES)
            )
        files = {
            stage: [f for p in range(shards) for f in shard_files(ckpt_root, stage, p)]
            for stage in ("signatures", "bands", "clusters")
        }
        artifact_bytes = sum(_nbytes(fs) for fs in files.values())
        if max_bytes > 0 and artifact_bytes > max_bytes:
            raise MemoryError(
                f"ReplIndex loads the whole index into driver RAM; the "
                f"artifacts under {ckpt_root!r} total {artifact_bytes:,} "
                f"bytes on disk (limit {max_bytes:,}). Use "
                f"query_against_index for batch workloads, or raise the "
                f"limit via ReplIndex(..., max_bytes=...) / "
                f"METACACHE_REPL_MAX_BYTES."
            )
        self.cfg = load_index_config(ckpt_root)
        self._perms = minhash_perm_constants(self.cfg.n_perms, self.cfg.seed)
        self.band_keys, self.band_docs = _sorted_run(files["bands"], _decode_bands)
        self.sig_ids, self.sig_mat = _sorted_run(files["signatures"], _decode_signatures)
        cl = pa.concat_tables(ray.get(read_clusters(ckpt_root).to_arrow_refs())).sort_by("doc_id")
        self.cl_ids, self.cl_lab, self.cl_dup = (cl[c].to_numpy() for c in _CLUSTERS.names)

    def query(
        self,
        text: str,
        top_k: int = 5,
        *,
        verify_threshold: float | None = None,
        bucket_cap: int | None = None,
    ) -> dict:
        """One interactive lookup. ``verify_threshold`` / ``bucket_cap``
        override the index config for THIS query only — the two
        query-time knobs that do not invalidate stored signatures
        (the reference's interactive shell re-parses query options per
        input line, mode_query.cpp:269-315; the REPL CLI's ``:set``
        maps onto these)."""
        from metacache_mpi_ray.functions.hashing import arrow_string_buffer
        from metacache_mpi_ray.functions.text import normalize_text_arrow
        from metacache_mpi_ray.stages.banding import band_key_rows

        # normalized, signed and banded exactly as a batch doc is
        norm = normalize_text_arrow(pa.array([text], pa.string()))
        sig = sign_rows(*arrow_string_buffer(norm), self.cfg, *self._perms)
        bands = band_key_rows(
            pa.table({"doc_id": pa.array([0], pa.int64()), "sig": sig_to_arrow(sig)}), self.cfg
        )
        nk = bands["bkey"].to_numpy()
        _, cand, *_ = _probe_pairs(
            *_bucket_rows(self.band_keys, self.band_docs, np.unique(nk)),
            nk, bands["doc_id"].to_numpy(),
            self.cfg.bucket_cap if bucket_cap is None else int(bucket_cap),
        )
        cand, mat = _signature_rows(self.sig_ids, self.sig_mat, cand)
        est, keep = minhash_scores(
            mat,
            sig,
            self.cfg.verify_threshold if verify_threshold is None else float(verify_threshold),
        )
        cand, est = cand[keep], est[keep]
        # est_sim descending, then doc_id: ties rank as in brute_force_topk
        order = np.lexsort((cand, -est))[:top_k]
        labels, _ = _cluster_labels(self.cl_ids, self.cl_lab, self.cl_dup, cand[order])
        matches = [
            {"doc_id": int(d), "est_sim": round(float(s), 4), "cluster_id": int(c)}
            for d, s, c in zip(cand[order], est[order], labels)
        ]
        return {"matched": bool(matches), "matches": matches}


def _sorted_run(files: list[str], decode) -> tuple:
    """The ``decode``d arrays of ``files``, concatenated and sorted by
    the first (the decoders sort each file by its lookup key)."""
    arrays = [np.concatenate(c) for c in zip(*map(decode, files))]
    order = np.argsort(arrays[0], kind="stable")
    return tuple(a[order] for a in arrays)


# --- the daily batch: one graph of plain Ray tasks ------------------------


def probe_bucket_pairs(keys, ids, side, cap: int):
    """Parallel (bkey, id, side) arrays, every bucket WHOLE -> the
    candidate pair arrays of every band bucket (side 0 = stored, 1 =
    new): (a=new, b=stored) for each new x stored pair, and every new x
    new pair with a < b, which ``extend_index`` needs (the reference's
    ``modify`` mode, where the new batch also dedups against itself; a
    query's answers keep only the pairs with a stored ``b``, and the
    REPL's one-doc batch forms none). Buckets larger than ``cap``
    (stored + new rows) emit nothing — the reference's hot-feature
    removal, sketch_database.h:398-417. A pair shared by several buckets
    is emitted once per bucket."""
    order = np.lexsort((side, keys))
    keys, ids, side = keys[order], ids[order], side[order]
    starts, sizes = run_bounds(keys)
    # per bucket: stored rows sort first (side 0), new rows after.
    # cross products emitted FULLY vectorized (no per-bucket Python,
    # round-3): for each mixed bucket with m stored and k new rows
    # the k*m outputs are laid out new-major, so a = new[out // m]
    # and b = stored[out % m] by pure index arithmetic
    n_new_per = np.add.reduceat(side.astype(np.int64), starts)
    mixed = (n_new_per > 0) & (n_new_per < sizes) & (sizes <= cap)
    if mixed.any():
        s_m = starts[mixed]
        z_m = sizes[mixed]
        k_m = n_new_per[mixed]
        m_m = z_m - k_m
        outs = k_m * m_m
        total = int(outs.sum())
        out0 = np.concatenate([[0], np.cumsum(outs)[:-1]])
        within = np.arange(total, dtype=np.int64) - np.repeat(out0, outs)
        rep_m = np.repeat(m_m, outs)
        a = ids[np.repeat(s_m + m_m, outs) + within // rep_m]
        b = ids[np.repeat(s_m, outs) + within % rep_m]
    else:
        a = np.empty(0, dtype=np.int64)
        b = np.empty(0, dtype=np.int64)
    # all (new x new) pairs of surviving buckets: the new rows of a
    # bucket are its contiguous tail (stored sort first), so reuse the
    # flagship's equal-size-grouped pair kernel
    nn = (n_new_per >= 2) & (sizes <= cap)
    if nn.any():
        na, nb = segment_all_pairs(ids, starts + sizes - n_new_per, n_new_per, nn)
        a = np.concatenate([a, na])
        b = np.concatenate([b, nb])
    return a, b


def _concat(tabs) -> pa.Table | None:
    tabs = [t for t in tabs if t.num_rows]
    return pa.concat_tables(tabs, promote_options="default") if tabs else None


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The concatenated ``arange(lo[i], hi[i])`` of every i."""
    n = hi - lo
    return np.arange(int(n.sum()), dtype=np.int64) + np.repeat(lo - (np.cumsum(n) - n), n)


def _bucket_rows(bk: np.ndarray, ids: np.ndarray, keys: np.ndarray):
    """Stored band rows sorted by ``bkey`` -> the (bkey, doc_id) rows in
    the ``searchsorted`` range of each of the sorted distinct batch
    ``keys``: all the stored rows of every bucket a batch row hits."""
    rows = _ranges(np.searchsorted(bk, keys, "left"), np.searchsorted(bk, keys, "right"))
    return bk[rows], ids[rows]


def _probe_pairs(sk, sid, nk, nid, cap: int):
    """The stored rows of the hit buckets (``_bucket_rows``) and the
    batch's (bkey, doc_id) rows -> the distinct (a, b) candidate pairs
    of ``probe_bucket_pairs``, sorted, whether each ``b`` is stored (has
    a stored row in a hit bucket; a re-queried stored id is stored, a
    batch-only id is not), and the counts it emitted of pairs with a
    stored and with a new ``b``."""
    side = np.repeat(np.array([0, 1], dtype=np.int8), [len(sk), len(nk)])
    a, b = probe_bucket_pairs(
        np.concatenate([sk, nk]), np.concatenate([sid, nid]), side, cap
    )
    n_stored, n = int(np.isin(b, sid).sum()), len(a)
    a, b = distinct_pairs(a, b)
    return a, b, np.isin(b, sid), n_stored, n - n_stored


def _signature_rows(ids: np.ndarray, mat: np.ndarray, need: np.ndarray):
    """Stored signature rows sorted by doc_id -> the (ids, rows) of the
    sorted ``need`` ids they hold."""
    pos, found = lookup_sorted(ids, need)
    pos = pos[found]
    return ids[pos], mat[pos]


def _cluster_labels(cl_ids, cl_lab, cl_dup, ids: np.ndarray):
    """(doc_id, cluster_id, is_dup) arrays sorted by doc_id -> each of
    ``ids``' current cluster and dup mark; an id without a row is its
    own cluster and not a dup."""
    pos, found = lookup_sorted(cl_ids, ids)
    if not len(cl_ids):
        return ids.copy(), found
    return np.where(found, cl_lab[pos], ids), found & cl_dup[pos]


@ray.remote
def _probe_shard(files, cap: int, shards: int, *pieces):
    """Probe task p: the batch's pieces p against the resident files of
    band shard p (``files``, a ``_listing``) -> distinct (a, b,
    b_stored) candidate pairs, new x stored and new x new, split by the
    shard of ``b``, and a stats dict (pairs emitted with a stored and
    with a new ``b``, one per bucket hit as in the kernel; the
    ``_new_stats`` read counters). Each batch key takes its
    ``searchsorted`` range of every stored file, so only stored rows
    whose bucket holds a new row enter the kernel, and they are all of
    that bucket's stored rows."""
    stats = {**_new_stats(), "pairs": 0, "pairs_new": 0}
    new = _concat(pieces)
    if new is None:
        return (*[_PAIRS.empty_table()] * shards, stats)
    nk = new["bkey"].to_numpy(zero_copy_only=False)
    keys = np.unique(nk)
    rows = [_bucket_rows(*_resident(f, _decode_bands, stats), keys) for f in _visit(files)]
    sk, sid = (np.concatenate(c) for c in zip((_NO_IDS, _NO_IDS), *rows))
    *pairs, stats["pairs"], stats["pairs_new"] = _probe_pairs(
        sk, sid, nk, new["doc_id"].to_numpy(zero_copy_only=False), cap
    )
    return (*split_by_key(pa.table(pairs, schema=_PAIRS), ["b"], shards), stats)


@ray.remote(num_returns=2)
def _verify_shard(sig_files, cluster_files, log, threshold: float, n_pieces: int, *refs):
    """Verify task q: candidate pair pieces whose ``b`` is in shard q,
    then the batch's signature pieces -> the pairs with ``est_sim >=
    threshold``, each stored ``b`` (``b_stored`` from the probe)
    resolved to its current cluster; a ``b`` in the batch is scored
    with the batch's signature. And a stats dict (pairs kept with a
    stored and with a new ``b``, signature files consulted, the
    ``_new_stats`` read counters). Stored signatures and clusters are
    looked up by binary search in the resident files of shard q (the
    three file arguments are ``_listing``s)."""
    stats = {**_new_stats(), "verified": 0, "verified_new": 0, "sig_files_read": 0}
    pairs = _concat(refs[:n_pieces])
    if pairs is None:
        return _VERIFIED.empty_table(), stats
    b = pairs["b"].to_numpy()
    in_index = np.unique(b[pairs["b_stored"].to_numpy(zero_copy_only=False)])
    a, b = distinct_pairs(pairs["a"].to_numpy(), b)
    stored = np.isin(b, in_index)
    new = pa.concat_tables([t.select(["doc_id", "sig"]) for t in refs[n_pieces:]])
    ids = new["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mat = sig_from_arrow(new["sig"])
    order = np.argsort(ids)
    _, b_new = lookup_sorted(ids[order], b)
    need = np.unique(b[~b_new])
    if len(need):
        files = _visit(sig_files)
        stats["sig_files_read"] = len(files)
        rows = [_signature_rows(*_resident(f, _decode_signatures, stats), need) for f in files]
        ids, mat = (np.concatenate(c) for c in zip((ids, mat), *rows))
        order = np.argsort(ids)
    ids_s, mat_s = ids[order], mat[order]
    pa_, fa = lookup_sorted(ids_s, a)
    pb, fb = lookup_sorted(ids_s, b)
    est, keep = minhash_scores(mat_s[pa_], mat_s[pb], threshold)
    keep &= fa & fb
    a, b, est, stored = a[keep], b[keep], est[keep], stored[keep]
    label, dup = b.copy(), np.zeros(len(b), dtype=bool)
    want = np.unique(b[stored])
    if len(want):
        cl = _stored_clusters(cluster_files, log, stats, want)
        cid = cl["doc_id"].to_numpy()
        o = np.argsort(cid)
        label, dup = _cluster_labels(
            cid[o], cl["cluster_id"].to_numpy()[o],
            cl["is_dup"].to_numpy(zero_copy_only=False)[o], b,
        )
    stats["verified"] = int(stored.sum())
    stats["verified_new"] = len(a) - stats["verified"]
    return pa.table([a, b, est, label, stored, dup], schema=_VERIFIED), stats


@dataclass
class _DailyBatch:
    """The refs of one batch's graph (``_sign_pieces``' pieces, then the
    probe and verify outputs)."""
    sig_pieces: list  # [shard][block]: signature rows by shard of doc_id
    band_pieces: list  # [shard][block]: band rows by shard of bkey
    verified: list  # per shard q: verified pairs whose b is in q
    probe_stats: list  # per probe task: stats dict
    verify_stats: list  # per verify task: stats dict


@dataclass
class _IndexState:
    """The ``_listing``s one daily batch reads, taken once per call."""
    bands: list  # per shard
    signatures: list  # per shard
    clusters: list  # per shard
    log: tuple

    def stamps(self) -> tuple:
        """Every listed file with its ``_stamp``."""
        listings = [*self.bands, *self.signatures, *self.clusters, self.log]
        return tuple((f, _stamp(f)) for _, files in listings for f in files)


def _index_state(ckpt_root: str, shards: int) -> _IndexState:
    def stage(name):
        return [_listing(_shard_dir(ckpt_root, name, p)) for p in range(shards)]

    return _IndexState(
        stage("bands"), stage("signatures"), stage("clusters"), _listing(_log_dir(ckpt_root))
    )


def _batch_key(ckpt_root, shards, cfg, blocks, state: _IndexState) -> tuple:
    """What a daily batch's graph is a function of (module docstring)."""
    ctx = ray.get_runtime_context()
    return (
        ctx.get_node_id(), ctx.get_job_id(), os.path.realpath(ckpt_root), shards, cfg,
        tuple(blocks), state.stamps(),
    )


#: the last query's (key, _DailyBatch), taken by the next extend_index
_last_batch: tuple | None = None


def _take_batch() -> tuple | None:
    """Pop the kept query batch (``extend_index`` calls it first thing,
    so no refs stay pinned after an extend, whatever it does next)."""
    global _last_batch
    kept, _last_batch = _last_batch, None
    return kept


def _daily_batch(blocks, cfg, shards, state: _IndexState, *, mark=None):
    """Sign -> probe -> verify for the batch ``blocks`` (its
    ``doc_blocks`` pairs) against the index's shards as listed in
    ``state`` (module docstring); an empty batch runs no task. Returns
    refs only; ``mark(phase)``, when given, is called after waiting for
    each step (extend's phase timings)."""

    def done(phase, refs):
        if mark is not None:
            ray.wait(refs, num_returns=len(refs), fetch_local=False)
            mark(phase)

    if not blocks:
        return _DailyBatch([], [], [], [], [])
    band_pieces, sig_pieces = _sign_pieces([ref for ref, _ in blocks], cfg, shards)
    done("sign_sort_stage", [r for ps in sig_pieces for r in ps])
    probe = _probe_shard.options(num_returns=shards + 1)
    probes = [
        probe.remote(state.bands[p], cfg.bucket_cap, shards, *band_pieces[p])
        for p in range(shards)
    ]
    done("band_stage", [r for pr in probes for r in pr])
    verifies = [
        _verify_shard.remote(
            state.signatures[q],
            state.clusters[q],
            state.log,
            cfg.verify_threshold,
            shards,
            *[pr[q] for pr in probes],
            *[r for ps in sig_pieces for r in ps],
        )
        for q in range(shards)
    ]
    verified = [v[0] for v in verifies]
    done("probe_verify", verified)
    return _DailyBatch(
        sig_pieces, band_pieces, verified, [pr[shards] for pr in probes], [v[1] for v in verifies]
    )


@ray.remote
def _min_matched_cluster(*tabs):
    """Verified pieces -> (sorted new ids, minimum resolved stored
    cluster per new id) over the (a=new, b=stored) rows, as one task."""
    t = _concat(tabs)
    stored = np.zeros(0, bool) if t is None else t["b_stored"].to_numpy(zero_copy_only=False)
    if not stored.any():
        return _NO_IDS, _NO_IDS
    a = t["a"].to_numpy()[stored]
    lab = t["b_label"].to_numpy()[stored]
    order = np.lexsort((lab, a))
    a_s, l_s = a[order], lab[order]
    starts, _ = run_bounds(a_s)
    return a_s[starts], np.minimum.reduceat(l_s, starts)


@ray.remote
def _emit_rows(block, match) -> pa.Table:
    """One batch docs block -> its (doc_id, matched, matched_cluster_id)
    rows, in block order."""
    ids_s, cl = match
    ids = _as_table(block)["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    pos, found = lookup_sorted(ids_s, ids)
    mcl = np.where(found, cl[pos], -1) if len(ids_s) else np.full(len(ids), -1)
    return pa.table([ids, found, mcl], schema=_QUERY_OUT)


def query_against_index(
    new_docs,
    ckpt_root: str,
    cfg: DedupConfig | None = None,
    *,
    num_partitions: int | None = None,
):
    """Stream a new batch of canonical docs against a persisted index.

    Returns (doc_id, matched, matched_cluster_id) per new doc:
    ``matched`` iff some stored doc clears the similarity threshold;
    ``matched_cluster_id`` = the minimum matched stored cluster id, or
    -1. The index corpus itself is never re-signed or re-clustered.
    ``num_partitions`` is accepted for compatibility and has no effect:
    the index's shard count sets the task counts.
    """
    from metacache_mpi_ray.state.metrics import MetricsRecorder

    global _last_batch
    _last_batch = None  # a new query replaces the kept batch
    cfg = _check_config(ckpt_root, cfg)
    shards = index_shards(ckpt_root)
    resume_pending_commit(ckpt_root)
    metrics = MetricsRecorder(ckpt_root)
    t0 = time.time()

    blocks = list(doc_blocks(new_docs))
    state = _index_state(ckpt_root, shards)
    batch = _daily_batch(blocks, cfg, shards, state)
    match_ref = _min_matched_cluster.remote(*batch.verified)
    out_refs = [_emit_rows.remote(ref, match_ref) for ref, _ in blocks]
    key = _batch_key(ckpt_root, shards, cfg, blocks, state)  # while the graph runs
    pstats, vstats = ray.get(batch.probe_stats), ray.get(batch.verify_stats)
    m_ids, _ = ray.get(match_ref)
    n_verified = sum(s["verified"] for s in vstats)

    # telemetry (r3 verdict item 9): one metrics.jsonl row per probe
    # with the band-overlap/verified/matched counts, so any recurrence
    # of the session-9 anomaly (verified pairs present, zero match
    # rows) is diagnosable post-hoc from the index root alone. The
    # pair counts are new x stored only: the batch's new x new pairs
    # (kept for extend) answer no query
    status = "inconsistent" if (len(m_ids) == 0 and n_verified > 0) else "ok"
    try:
        row = metrics.record(
            "query_probe",
            rows_out=len(m_ids),
            t_start=t0,
            n_candidate_pairs=sum(s["pairs"] for s in pstats),
            n_verified=n_verified,
            n_matched_new_docs=len(m_ids),
            sig_files_read=sum(s["sig_files_read"] for s in vstats),
            sig_files_total=sum(len(files) for _, files in state.signatures),
            stored_bytes_read=sum(s["bytes"] for s in pstats + vstats),
            files_decoded=sum(s["files_decoded"] for s in pstats + vstats),
            bytes_decoded=sum(s["bytes_decoded"] for s in pstats + vstats),
            worker_pids=sorted({s["pid"] for s in pstats + vstats}),
            status=status,
        )
    except OSError:
        # read-only index root (one writer, many query consumers):
        # telemetry is best-effort, never a reason to fail a query
        # whose compute already finished
        row = {"status": status}
    # impossible-state guard: every verified new x stored pair carries a
    # new_id, so any such pair MUST yield match rows. Crash loudly
    # rather than return an all-unmatched result (a silent all-False
    # was observed once in a deeply-throttled window, BASELINE.md
    # session-9 — this converts any recurrence into a diagnosable error)
    if row["status"] == "inconsistent":
        raise RuntimeError(
            "internal inconsistency: verified candidate pairs exist but "
            "cluster resolution produced no matches; re-run the query "
            f"(metrics.jsonl run_id={metrics.run_id})"
        )
    _last_batch = (key, batch)
    if not out_refs:
        return rd.from_arrow(_QUERY_OUT.empty_table())
    return rd.from_arrow_refs(out_refs)
