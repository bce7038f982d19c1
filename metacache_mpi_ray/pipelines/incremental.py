"""Incremental query-against-persisted-index dedup — the analog of the
reference's query mode: build once, query many.

Reference shape: ``mode_query.cpp:404-455`` loads the per-rank DB
artifact (``dbfile_<rank>``) and streams new reads against it via the
multimap probe ``sketch_database.h:804-833`` (accumulate_matches),
bounded by the maxcand candidate list. This is THE daily operation of a
training-data pipeline: dedup a new crawl batch against the existing
corpus index without re-processing the corpus.

Ray-Data shape: the persisted artifacts are the band-key, signature and
cluster Parquet checkpoints written by ``build_index`` (or by
``pipelines/checkpointed.run_dedup_checkpointed`` — same layout). The
query side probes the persisted band table directly (one hash exchange
of stored+new band rows on the band key — zero corpus-signature reads
on the probe), then verifies candidate pairs against a FOOTER-PRUNED
read of the doc_id-sorted signature checkpoint (only files whose id
range intersects the candidate endpoints are touched), and resolves each
matched new doc to the minimum matched stored cluster. Each probe
appends a telemetry row (candidate/verified/matched counts, files
pruned) to the index root's metrics.jsonl.

doc_ids must be disjoint between the index corpus and the query batch
(ids are content-derived hashes of distinct urls in the ingest path).
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.functions.blocks import hash_exchange
from metacache_mpi_ray.stages.banding import compute_bands
from metacache_mpi_ray.stages.candidates import (
    _combine_keys,
    segment_all_pairs,
    bucket_edges,
    dedupe_edges,
)
from metacache_mpi_ray.stages.cluster import assign_clusters
from metacache_mpi_ray.stages.signatures import compute_signatures
from metacache_mpi_ray.stages.verify import (
    filter_to_ids,
    lookup_sorted,
    verify_edges,
)
from metacache_mpi_ray.state.checkpoint import (
    ConfigMismatch,
    checkpointed_stage,
    init_checkpoint_root,
    resume_pending_commit,
)


def build_index(
    docs,
    cfg: DedupConfig,
    ckpt_root: str,
    *,
    num_partitions: int | None = None,
):
    """Dedup ``docs`` and persist the queryable artifacts under
    ``ckpt_root`` (signatures/, edges/, verified/, clusters/ +
    config.json guard). Returns the clusters dataset. Resumable: a
    finished stage is read back instead of recomputed."""
    from metacache_mpi_ray.stages.joins import default_num_partitions

    if num_partitions is None:
        num_partitions = default_num_partitions()
    init_checkpoint_root(ckpt_root, cfg)
    # coalesced to num_partitions blocks inside the signer execution:
    # right-sizes both the checkpoint files (one per partition, the
    # resumable layout) and every downstream sort/groupby, which pay
    # per-input-block fixed costs (see pipelines/dedup.py)
    # doc_id-sorted: each checkpoint file then covers a narrow id range
    # (tight parquet footer min/max stats), so the query path's verify
    # stage can prune whole files by candidate-id intersection instead
    # of re-reading the full corpus signature table per query batch
    # (the reference's per-rank DB artifact IS the random-access index,
    # sketch_database.h:959-999)
    sigs = checkpointed_stage(
        ckpt_root,
        "signatures",
        lambda: compute_signatures(docs, cfg, batch_size=128)
        .repartition(num_partitions)
        .sort("doc_id"),
    )
    # the queryable band table (bkey, doc_id) is part of the persisted
    # index — queries probe it directly instead of re-banding millions
    # of stored signatures per batch (the reference stores the feature
    # multimap itself, not just the sketches). Computed FIRST so the
    # edges stage buckets over it instead of re-banding the corpus
    # (bucket_edges refolds bkey through splitmix64 — a bijection, so
    # the bucket structure is identical)
    bands = checkpointed_stage(
        ckpt_root,
        "bands",
        lambda: _band_keys(sigs, cfg, "doc_id"),
    )
    edge_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("n_bands_hit", pa.int64())]
    )
    edges = checkpointed_stage(
        ckpt_root,
        "edges",
        empty_schema=edge_schema,
        compute=lambda: dedupe_edges(
            bucket_edges(
                bands,
                key_cols=["bkey"],
                id_col="doc_id",
                cap=cfg.bucket_cap,
                num_partitions=num_partitions,
            ),
            num_partitions=num_partitions,
        ),
    )
    verified = checkpointed_stage(
        ckpt_root,
        "verified",
        empty_schema=pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), ("est_sim", pa.float64())]
        ),
        compute=lambda: verify_edges(
            edges, sigs, cfg, num_partitions=num_partitions
        ),
    )
    return checkpointed_stage(
        ckpt_root, "clusters", lambda: assign_clusters(sigs, verified)
    )


def load_index_config(ckpt_root: str) -> DedupConfig:
    with open(os.path.join(ckpt_root, "config.json")) as f:
        return DedupConfig.from_json(f.read())


def _read_stage(ckpt_root: str, stage: str, columns=None):
    """Read a stage checkpoint as an explicit sorted file list (avoids
    hive-partition inference over the sharded shard=K layout).

    Heals a torn extend commit first (one stat when there is none):
    without this, a crash between an extend's journal write and its
    installation would leave sibling readers (query mode, REPL, info)
    silently consuming a half-updated index."""
    resume_pending_commit(ckpt_root)
    files = sorted(
        glob.glob(os.path.join(ckpt_root, stage, "**", "*.parquet"), recursive=True)
    )
    if not files:
        raise FileNotFoundError(f"no checkpointed stage {stage!r} under {ckpt_root}")
    return rd.read_parquet(files, columns=columns)


def _sig_file_intersects(path: str, ids_sorted: np.ndarray) -> bool:
    """True iff any row group's doc_id [min, max] footer range contains
    a candidate id (files without usable stats are always kept)."""
    import pyarrow.parquet as pq

    md = pq.read_metadata(path)
    if md.num_row_groups == 0:
        return True
    try:
        col_idx = [
            md.row_group(0).column(i).path_in_schema
            for i in range(md.row_group(0).num_columns)
        ].index("doc_id")
    except ValueError:
        return True
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(col_idx).statistics
        if st is None or not st.has_min_max:
            return True
        lo = np.searchsorted(ids_sorted, st.min, side="left")
        hi = np.searchsorted(ids_sorted, st.max, side="right")
        if hi > lo:
            return True
    return False


@ray.remote
def _intersecting_sig_files(paths: list, ids_sorted: np.ndarray) -> list:
    return [p for p in paths if _sig_file_intersects(p, ids_sorted)]


def _pruned_sig_read(ckpt_root: str, ids_sorted: np.ndarray):
    """Read ONLY the signature checkpoint files whose doc_id footer
    range intersects ``ids_sorted`` (build_index writes the signatures
    doc_id-sorted, so each file covers a narrow id range). Files
    without stats (or an older unsorted index) are kept — pruning is a
    pure byte-level optimization; exactness always comes from the
    verify stage's own id filtering. Returns (dataset, n_kept,
    n_total)."""
    import pyarrow.parquet as pq

    resume_pending_commit(ckpt_root)
    files = sorted(
        glob.glob(
            os.path.join(ckpt_root, "signatures", "**", "*.parquet"), recursive=True
        )
    )
    if not files:
        raise FileNotFoundError(f"no checkpointed stage 'signatures' under {ckpt_root}")
    if len(files) <= 64:
        keep = [f for f in files if _sig_file_intersects(f, ids_sorted)]
    else:
        # big index: footer reads fan out as Ray tasks (one per ~32-file
        # chunk) instead of a serial driver loop — at 10^4+ files the
        # driver otherwise pays len(files) x ~1 ms of storage stats
        ids_ref = ray.put(ids_sorted)
        chunks = [files[i : i + 32] for i in range(0, len(files), 32)]
        kept_lists = ray.get(
            [_intersecting_sig_files.remote(c, ids_ref) for c in chunks]
        )
        keep = [f for part in kept_lists for f in part]
    # nothing intersects: read one file for a schema-stable empty-ish
    # dataset (verify filters it away)
    read = keep or files[:1]
    return (
        rd.read_parquet(read, columns=["doc_id", "sig"]),
        len(keep),
        len(files),
    )


def _band_keys(sigs, cfg: DedupConfig, id_out: str):
    """signatures -> (bkey, <id_out>) rows, band key folded to one u64."""
    bands = compute_bands(sigs, cfg)
    return bands.map_batches(
        lambda t: _combine_keys(t, ["band_id", "band_hash"], "doc_id"),
        batch_format="pyarrow",
    ).rename_columns({"doc_id": id_out})


class ReplIndex:
    """Interactive single-query lookup against a persisted index — the
    analog of the reference's interactive query shell (S13,
    /root/reference/src/mode_query.cpp:269-315: stdin lines queried
    against the in-RAM database).

    Loads the index artifacts (band table, signatures, clusters) into
    driver memory ONCE — like the reference, the interactive path
    assumes the index fits in RAM; batch workloads go through
    ``query_against_index``. Each ``query(text)`` is pure numpy:
    normalize -> sign -> band -> searchsorted probe -> signature
    verification -> cluster resolution, a few ms per query."""

    #: refuse to load an index whose on-disk artifacts exceed this many
    #: bytes (in-RAM footprint is larger still after decompression);
    #: override per-instance or via METACACHE_REPL_MAX_BYTES. The REPL
    #: is the one deliberately driver-RAM-resident mode in the repo —
    #: without the guard a mis-pointed ckpt_root OOMs the driver
    #: instead of erroring with the artifact size (r4 review).
    DEFAULT_MAX_BYTES = 8 << 30

    def __init__(self, ckpt_root: str, max_bytes: int | None = None):
        import pyarrow.parquet as pq

        from metacache_mpi_ray.functions.hashing import minhash_perm_constants
        from metacache_mpi_ray.stages.signatures import sig_from_arrow

        if max_bytes is None:
            max_bytes = int(
                os.environ.get("METACACHE_REPL_MAX_BYTES", self.DEFAULT_MAX_BYTES)
            )
        artifact_bytes = sum(
            os.path.getsize(f)
            for stage in ("signatures", "bands", "clusters")
            for f in glob.glob(
                os.path.join(ckpt_root, stage, "**", "*.parquet"), recursive=True
            )
        )
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
        self._perm = (
            minhash_perm_constants(self.cfg.n_perms, self.cfg.seed)
            if self.cfg.minhash_scheme != "oph"
            else (None, None)
        )
        files = sorted(
            glob.glob(os.path.join(ckpt_root, "signatures", "**", "*.parquet"),
                      recursive=True)
        )
        sig_tab = pa.concat_tables(
            [pq.read_table(f, columns=["doc_id", "sig"]) for f in files]
        )
        self.sig_ids = sig_tab["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(self.sig_ids)
        self.sig_ids = self.sig_ids[order]
        self.sig_mat = sig_from_arrow(sig_tab["sig"])[order]
        try:
            bands = _read_stage(ckpt_root, "bands").to_pandas()
        except FileNotFoundError:
            # index built by an older writer without a bands artifact:
            # derive the band table from the in-RAM signatures (the same
            # fallback query_against_index uses)
            bands = self._bands_from_sigs()
        bk = bands["bkey"].to_numpy(dtype=np.int64)
        order = np.argsort(bk)
        self.band_keys = bk[order]
        self.band_docs = bands["doc_id"].to_numpy(dtype=np.int64)[order]
        cl = _read_stage(
            ckpt_root, "clusters", columns=["doc_id", "cluster_id"]
        ).to_pandas()
        ci = cl["doc_id"].to_numpy(dtype=np.int64)
        order = np.argsort(ci)
        self.cl_ids = ci[order]
        self.cl_lab = cl["cluster_id"].to_numpy(dtype=np.int64)[order]

    def _bands_from_sigs(self):
        """(bkey, doc_id) frame derived from the in-RAM signature
        matrix — same kernels as the persisted bands artifact."""
        import pandas as pd

        from metacache_mpi_ray.stages.banding import _to_i63, band_hashes
        from metacache_mpi_ray.stages.candidates import _combine_keys

        bh = _to_i63(band_hashes(self.sig_mat, self.cfg))  # (n, n_bands)
        n, nb = bh.shape
        key_tab = pa.table(
            {
                "band_id": pa.array(
                    np.tile(np.arange(nb, dtype=np.int64), n), type=pa.int64()
                ),
                "band_hash": pa.array(bh.reshape(-1), type=pa.int64()),
                "doc_id": pa.array(np.repeat(self.sig_ids, nb), type=pa.int64()),
            }
        )
        folded = _combine_keys(key_tab, ["band_id", "band_hash"], "doc_id")
        return pd.DataFrame(
            {
                "bkey": folded["bkey"].to_numpy(zero_copy_only=False),
                "doc_id": folded["doc_id"].to_numpy(zero_copy_only=False),
            }
        )

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
        from metacache_mpi_ray.functions.text import normalize_text_py
        from metacache_mpi_ray.stages.banding import _to_i63, band_hashes
        from metacache_mpi_ray.stages.candidates import _combine_keys
        from metacache_mpi_ray.stages.signatures import minhash_matrix

        norm = normalize_text_py(text).encode("utf-8")
        sig = minhash_matrix([norm], self.cfg, *self._perm)
        bh = _to_i63(band_hashes(sig, self.cfg)).reshape(-1)
        key_tab = pa.table(
            {
                "band_id": pa.array(
                    np.arange(self.cfg.n_bands, dtype=np.int64), type=pa.int64()
                ),
                "band_hash": pa.array(bh, type=pa.int64()),
                "doc_id": pa.array(
                    np.zeros(self.cfg.n_bands, dtype=np.int64), type=pa.int64()
                ),
            }
        )
        qkeys = (
            _combine_keys(key_tab, ["band_id", "band_hash"], "doc_id")["bkey"]
            .to_numpy(zero_copy_only=False)
        )
        lo = np.searchsorted(self.band_keys, qkeys, side="left")
        hi = np.searchsorted(self.band_keys, qkeys, side="right")
        cap = self.cfg.bucket_cap if bucket_cap is None else int(bucket_cap)
        cand = np.unique(
            np.concatenate(
                # over-cap buckets are non-discriminative and dropped,
                # matching the batch probe's hot-feature-removal policy
                # (and bounding per-query work, the reference's maxcand);
                # like the batch probe, the bucket size counts the query
                [
                    self.band_docs[l:h]
                    for l, h in zip(lo.tolist(), hi.tolist())
                    if h - l + 1 <= cap
                ]
                or [np.empty(0, dtype=np.int64)]
            )
        )
        if len(cand) == 0:
            return {"matched": False, "matches": []}
        pos = np.searchsorted(self.sig_ids, cand)
        pos = np.minimum(pos, len(self.sig_ids) - 1)
        found = self.sig_ids[pos] == cand
        cand, pos = cand[found], pos[found]
        est = (self.sig_mat[pos] == sig[0][None, :]).mean(axis=1)
        thresh = (
            self.cfg.verify_threshold
            if verify_threshold is None
            else float(verify_threshold)
        )
        keep = est >= thresh
        cand, est = cand[keep], est[keep]
        order = np.argsort(-est)[:top_k]
        cp = np.minimum(np.searchsorted(self.cl_ids, cand), max(len(self.cl_ids) - 1, 0))
        cl_ok = len(self.cl_ids) > 0
        matches = [
            {
                "doc_id": int(d),
                "est_sim": round(float(s), 4),
                "cluster_id": int(self.cl_lab[p]) if cl_ok and self.cl_ids[p] == d else int(d),
            }
            for d, s, p in zip(cand[order], est[order], cp[order])
        ]
        return {"matched": bool(len(matches)), "matches": matches}


@ray.remote
def _assemble_sorted_unique(col: str, *tabs):
    """Sorted unique values of ``col`` over blocks, as one task."""
    parts = [t[col].to_numpy(zero_copy_only=False) for t in tabs if len(t)]  # len guard: empty blocks can be schema-less
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


@ray.remote
def _assemble_sorted_pairs(key_col: str, val_col: str, *tabs):
    """(keys_sorted, values) lookup arrays over blocks, as one task."""
    ks = [t[key_col].to_numpy(zero_copy_only=False) for t in tabs if len(t)]
    vs = [t[val_col].to_numpy(zero_copy_only=False) for t in tabs if len(t)]
    if not ks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    k = np.concatenate(ks).astype(np.int64)
    v = np.concatenate(vs).astype(np.int64)
    order = np.argsort(k)
    return k[order], v[order]


@ray.remote
def _min_cluster_per_new(lookup, *tabs):
    """Verified (a=new, b=stored) blocks -> (sorted new ids, minimum
    stored cluster id per new id), as one task. ``lookup`` is the
    (sorted doc ids, cluster ids) pair of the matched stored docs; a
    stored doc absent from it (shouldn't happen) stands for itself."""
    ids_s, cl = lookup
    tabs = [t for t in tabs if len(t)]
    if not tabs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    a = np.concatenate([t["a"].to_numpy(zero_copy_only=False) for t in tabs])
    b = np.concatenate([t["b"].to_numpy(zero_copy_only=False) for t in tabs])
    out = b.astype(np.int64)
    if len(ids_s):
        pos, found = lookup_sorted(ids_s, b)
        out = np.where(found, cl[pos], out)
    order = np.lexsort((out, a))
    a_s, o_s = a[order].astype(np.int64), out[order]
    change = np.empty(len(a_s), dtype=bool)
    change[0] = True
    np.not_equal(a_s[1:], a_s[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    return a_s[starts], np.minimum.reduceat(o_s, starts)


def probe_tagged_bands(
    tagged,
    cap: int,
    *,
    num_partitions: int | None = None,
    emit_new_new: bool = False,
):
    """(bkey, id, side) rows -> (new x stored) candidate pairs (a=new,
    b=stored) per band bucket: ONE ``hash_exchange`` on ``bkey``
    (functions/blocks.py), so every bucket lands whole in one partition
    and the vectorized bucket kernel runs as that partition's reduce.
    Buckets larger than ``cap`` (stored + new rows) emit nothing — the
    reference's hot-feature removal, sketch_database.h:398-417.

    ``emit_new_new``: additionally emit all (new x new) pairs per
    surviving bucket — required by ``extend_index`` (the reference's
    ``modify`` mode), where the new batch must also dedup against
    itself; ``query_against_index`` keeps it off (queries never join
    each other). Columns stay (a, b); for new x new pairs both sides
    are new ids with a < b. A pair shared by several buckets is emitted
    once per bucket; verify dedupes pairs."""
    from metacache_mpi_ray.stages.joins import default_num_partitions

    def probe(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table(
                {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())}
            )
        keys = t["bkey"].to_numpy(zero_copy_only=False)
        ids = t["id"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        order = np.lexsort((side, keys))
        keys, ids, side = keys[order], ids[order], side[order]
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(keys[1:], keys[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        sizes = np.diff(np.append(starts, n))
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
        if emit_new_new:
            # all (new x new) pairs of surviving buckets: the new rows
            # of a bucket are its contiguous tail (stored sort first),
            # so reuse the flagship's equal-size-grouped pair kernel
            nn = (n_new_per >= 2) & (sizes <= cap)
            if nn.any():
                na, nb = segment_all_pairs(
                    ids, starts + sizes - n_new_per, n_new_per, nn
                )
                a = np.concatenate([a, na])
                b = np.concatenate([b, nb])
        return pa.table(
            {"a": pa.array(a, type=pa.int64()), "b": pa.array(b, type=pa.int64())}
        )

    if num_partitions is None:
        num_partitions = default_num_partitions()
    return hash_exchange(tagged, ["bkey"], probe, num_partitions=num_partitions)


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
    """
    from metacache_mpi_ray.stages.joins import default_num_partitions

    if num_partitions is None:
        num_partitions = default_num_partitions()
    stored_cfg = load_index_config(ckpt_root)
    if cfg is not None and cfg != stored_cfg:
        raise ConfigMismatch(
            f"index at {ckpt_root} was built with a different DedupConfig; "
            "signatures are not comparable across configs"
        )
    cfg = stored_cfg
    import time as _time

    from metacache_mpi_ray.state.metrics import MetricsRecorder

    metrics = MetricsRecorder(ckpt_root)
    t0 = _time.time()

    sigs_new = compute_signatures(new_docs, cfg, batch_size=128).materialize()

    try:
        bands_idx = _read_stage(ckpt_root, "bands").rename_columns(
            {"doc_id": "idx_id"}
        )
    except FileNotFoundError:
        # index built by an older writer without a bands artifact:
        # derive them from the stored signatures
        bands_idx = _band_keys(
            _read_stage(ckpt_root, "signatures", columns=["doc_id", "sig"]),
            cfg,
            "idx_id",
        )
    bands_new = _band_keys(sigs_new, cfg, "new_id")

    # the probe: ONE hash exchange on bkey over the union of stored
    # and new band rows (the shuffle-by-feature form of
    # accumulate_matches); each bucket lands whole in one partition,
    # whose kernel (a) drops overpopulated buckets — the reference's
    # hot-feature removal, sketch_database.h:398-417 — and (b) emits
    # (new x stored) pairs per surviving bucket
    def tag(side: int, id_col: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "bkey": t["bkey"],
                    "id": t[id_col].cast(pa.int64()),
                    "side": pa.array(
                        np.full(len(t), side, dtype=np.int8), type=pa.int8()
                    ),
                }
            )

        return f

    tagged = bands_idx.map_batches(tag(0, "idx_id"), batch_format="pyarrow").union(
        bands_new.map_batches(tag(1, "new_id"), batch_format="pyarrow")
    )
    # a pair found by k bands arrives k times; verify dedupes it
    pairs = probe_tagged_bands(tagged, cfg.bucket_cap, num_partitions=num_partitions)
    n_pairs = pairs.count()

    # verify reads ONLY the signature files whose footer id range
    # intersects the candidate stored endpoints (b side) — at scale the
    # per-batch verify cost tracks the candidate set, not the corpus.
    # Zero candidates -> zero corpus-signature bytes read.
    sig_files_read = sig_files_total = 0
    if n_pairs == 0:
        verified = rd.from_arrow(
            pa.table(
                {
                    "a": pa.array([], type=pa.int64()),
                    "b": pa.array([], type=pa.int64()),
                    "est_sim": pa.array([], type=pa.float64()),
                }
            )
        )
    else:
        stored_ids = ray.get(
            _assemble_sorted_unique.remote("b", *(pairs.to_arrow_refs() or []))
        )
        sigs_idx, sig_files_read, sig_files_total = _pruned_sig_read(
            ckpt_root, stored_ids
        )
        sigs_all = sigs_new.select_columns(["doc_id", "sig"]).union(sigs_idx)
        verified = verify_edges(
            pairs, sigs_all, cfg, num_partitions=num_partitions
        ).materialize()

    # matched stored docs -> their cluster ids: broadcast-pick the
    # matched subset of the clusters checkpoint (dup-subset pattern);
    # both assemblies run as single tasks over the materialized blocks —
    # only refs touch the driver (round-3 serial-overhead trim)
    v_refs = verified.to_arrow_refs() or []
    mref = _assemble_sorted_unique.remote("b", *v_refs)
    clusters_idx = _read_stage(ckpt_root, "clusters", columns=["doc_id", "cluster_id"])

    sub = clusters_idx.map_batches(
        filter_to_ids("doc_id", mref), batch_format="pyarrow"
    )
    cref = _assemble_sorted_pairs.remote(
        "doc_id", "cluster_id", *(sub.to_arrow_refs() or [])
    )

    # one task resolves every verified pair to its stored cluster and
    # keeps the minimum per new doc (the result is batch-sized and the
    # driver reads it anyway; a Ray Data groupby would add a shuffle)
    match_ref = _min_cluster_per_new.remote(cref, *v_refs)
    m_ids, _ = ray.get(match_ref)

    # telemetry (r3 verdict item 9): one metrics.jsonl row per probe
    # with the band-overlap/verified/matched counts, so any recurrence
    # of the session-9 anomaly (verified pairs present, zero match
    # rows) is diagnosable post-hoc from the index root alone
    n_verified = verified.count()
    status = "inconsistent" if (len(m_ids) == 0 and n_verified > 0) else "ok"
    try:
        row = metrics.record(
            "query_probe",
            rows_out=len(m_ids),
            t_start=t0,
            n_candidate_pairs=n_pairs,
            n_verified=n_verified,
            n_matched_new_docs=len(m_ids),
            sig_files_read=sig_files_read,
            sig_files_total=sig_files_total,
            status=status,
        )
    except OSError:
        # read-only index root (one writer, many query consumers):
        # telemetry is best-effort, never a reason to fail a query
        # whose compute already finished
        row = {"status": status}
    # impossible-state guard: every verified pair carries a new_id, so a
    # non-empty verified table MUST yield match rows. Crash loudly
    # rather than return an all-unmatched result (a silent all-False
    # was observed once in a deeply-throttled window, BASELINE.md
    # session-9 — this converts any recurrence into a diagnosable error)
    if row["status"] == "inconsistent":
        raise RuntimeError(
            "internal inconsistency: verified candidate pairs exist but "
            "cluster resolution produced no matches; re-run the query "
            f"(metrics.jsonl run_id={metrics.run_id})"
        )

    def finish(t: pa.Table) -> pa.Table:
        ids_s, cl = ray.get(match_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        if len(ids_s):
            pos, found = lookup_sorted(ids_s, ids)
            mcl = np.where(found, cl[pos], -1)
        else:  # nothing matched anywhere
            found = np.zeros(len(ids), dtype=bool)
            mcl = np.full(len(ids), -1, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "matched": pa.array(found, type=pa.bool_()),
                "matched_cluster_id": pa.array(mcl, type=pa.int64()),
            }
        )

    return new_docs.map_batches(finish, batch_format="pyarrow")
