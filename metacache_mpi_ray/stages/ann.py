"""Similarity search over an embedding column (list<float>).

* ``brute_force_topk`` — baseline: every batch computes a float64
  matmul against the query matrix (built on the driver, shipped inside
  the pickled ``BruteForceScorer``) and keeps each query's best k rows
  of the batch; ``windows.topk_per_group`` ranks the partials. The
  canonical broadcast-small-side pattern: no shuffle of the big side.
* ``ivf_topk`` / ``build_ivf_index`` + ``ivf_topk_indexed`` — scale
  path: a coarse k-means quantizer; only the nprobe nearest cells of
  each query are scored (bounded recall). The indexed form writes one
  parquet directory per cell and reads only the probed ones.
* ``embedding_near_dup`` — embedding-cosine near-duplicate pairs via
  multi-table random-hyperplane bucketing + exact cosine verification.

Reference analog: the top-k candidate list (bounded sorted insert,
/root/reference/src/candidates.h:191-289) — here partial+final top-k,
both ordered by (sim desc, neighbor_id asc).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from metacache_mpi_ray.functions.hashing import U64, splitmix64


def _emb_matrix(col) -> np.ndarray:
    """list<float> column -> (n, d) float64 matrix.

    Null rows become zero vectors — norm 0, so they score cosine 0 and
    never match — instead of silently misaligning every row after them
    (flatten() drops null slots' values). A ragged valid row raises."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    if n == 0:
        return flat.reshape(0, 0)
    lens = col.value_lengths().drop_null().to_numpy(zero_copy_only=False)
    if len(lens) and (lens != lens[0]).any():
        raise ValueError(
            "ragged embedding column: list lengths "
            f"{sorted(set(lens.tolist()))} (expected one fixed dimension)"
        )
    if col.null_count == 0:
        return flat.reshape(n, -1)
    if not len(lens):  # every row null
        return np.zeros((n, 0))
    d = int(lens[0])
    if d == 0:  # nulls + zero-length valid rows: nothing to gather
        return np.zeros((n, 0))
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    out = np.zeros((n, d))
    out[valid] = flat.reshape(-1, d)
    return out


def _valid_emb(batch: pa.Table, id_col: str = "vec_id"):
    """(ids, matrix) over only the rows with a non-null embedding.

    A null embedding can never match anything, so every consumer drops
    the row up front — this also keeps the matrix width stable across
    blocks (an all-null BLOCK would otherwise produce a width-0 matrix
    that breaks matmuls against fixed-d query/centroid/plane
    matrices)."""
    col = batch["embedding"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        batch = batch.filter(col.is_valid())
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    return ids, _emb_matrix(batch["embedding"])


def _drop_null_emb(batch: pa.Table) -> pa.Table:
    """Batch minus its null-embedding rows (see _valid_emb)."""
    col = batch["embedding"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return batch.filter(col.is_valid()) if col.null_count else batch


def _normalize(m: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(m, axis=1, keepdims=True)
    nrm[nrm == 0] = 1.0
    return m / nrm


class BruteForceScorer:
    """Batch of vectors -> each query's best k rows of the batch by
    (sim desc, neighbor_id asc), self-matches excluded: the exact
    per-block step under ``windows.topk_per_group``. Built on the driver
    with the query ids and matrix; the instance ships in the pickled
    callable, so the stage runs on the task pool."""

    def __init__(self, q_ids: np.ndarray, q_mat: np.ndarray, k: int):
        self.q_ids = np.asarray(q_ids, dtype=np.int64)
        self.q_mat = _normalize(np.asarray(q_mat, dtype=np.float64))
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, raw = _valid_emb(batch)
        if len(ids) == 0 or len(self.q_ids) == 0:
            return pa.table(
                {"query_id": pa.array([], type=pa.int64()),
                 "neighbor_id": pa.array([], type=pa.int64()),
                 "sim": pa.array([], type=pa.float64())}
            )
        sims = self.q_mat @ _normalize(raw).T  # (nq, nb)
        # columns in neighbor_id order, then a stable sort on sim desc:
        # each row lists its neighbours by (sim desc, neighbor_id asc)
        by_id = np.argsort(ids, kind="stable")
        ids, sims = ids[by_id], sims[:, by_id]
        self_match = ids[None, :] == self.q_ids[:, None]
        ranked = np.where(self_match, -np.inf, sims)
        top = np.argsort(-ranked, axis=1, kind="stable")[:, : self.k]
        rows = np.arange(len(self.q_ids))[:, None]
        keep = ~self_match[rows, top]  # only when fewer than k others
        return pa.table(
            {
                "query_id": pa.array(
                    np.broadcast_to(self.q_ids[:, None], top.shape)[keep]
                ),
                "neighbor_id": pa.array(ids[top][keep]),
                "sim": pa.array(sims[rows, top][keep], type=pa.float64()),
            }
        )


def _ranked_topk(candidates, q_ids: np.ndarray, q_mat: np.ndarray, k: int):
    """(query_id, neighbor_id, rank) of each query's k nearest
    ``candidates`` rows: per-block partials from ``BruteForceScorer``,
    ranked by ``windows.topk_per_group`` with neighbor_id breaking ties."""
    from metacache_mpi_ray.stages.windows import topk_per_group

    partials = candidates.map_batches(
        BruteForceScorer(q_ids, q_mat, k), batch_format="pyarrow", batch_size=4096
    )
    ranked = topk_per_group(partials, "query_id", "sim", k, tiebreak=["neighbor_id"])
    # at most nq * k rows: select on the driver, as a map over the
    # zero-row blocks of empty partitions would emit schemaless blocks
    # (Ray logs a schema-divergence warning for each)
    cols = ["query_id", "neighbor_id", "rank"]
    return rd.from_arrow([t.select(cols) for t in ray.get(ranked.to_arrow_refs())])


def _query_matrix(embeddings, query_ids) -> tuple[np.ndarray, np.ndarray]:
    """(ids, raw matrix) of the query rows with a non-null embedding."""
    qset = pa.array([int(q) for q in query_ids], type=pa.int64())
    rows = embeddings.map_batches(
        lambda t: _drop_null_emb(
            t.filter(pc.is_in(pc.cast(t["vec_id"], pa.int64()), value_set=qset))
        ),
        batch_format="pyarrow",
    ).take_all()
    ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    if not rows:
        return ids, np.empty((0, 0))
    return ids, np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in rows])


def brute_force_topk(embeddings, query_ids: list[int], k: int = 5):
    """Exact cosine top-k of each query vector against the whole table.

    Returns (query_id, neighbor_id, rank) with rank 1..k, deterministic
    tie-break on neighbor_id."""
    q_ids, q_mat = _query_matrix(embeddings, query_ids)
    return _ranked_topk(embeddings, q_ids, q_mat, k)


def _kmeans(sample: np.ndarray, n_cells: int, seed: int, iters: int = 10) -> np.ndarray:
    """Tiny numpy k-means for the IVF coarse quantizer (driver-side on a
    sample; deterministic)."""
    rng = np.random.default_rng(seed)
    cent = sample[rng.choice(len(sample), size=min(n_cells, len(sample)), replace=False)]
    for _ in range(iters):
        d = ((sample[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = sample[m].mean(axis=0)
    return cent


def _coarse_quantizer(embeddings, n_cells: int, seed: int, train_sample: int) -> np.ndarray:
    """IVF centroids, L2-normalized: ``_kmeans`` over the normalized
    hash-spread sample of ``kmeans._fit_sample`` (null embeddings
    skipped)."""
    from metacache_mpi_ray.stages.kmeans import _fit_sample

    sample = _fit_sample(embeddings, n_cells, seed, train_sample, "vec_id")
    return _normalize(_kmeans(_normalize(sample), n_cells, seed))


def _cell_of(batch: pa.Table, cent: np.ndarray) -> np.ndarray:
    """Nearest-centroid cell of each row of ``batch`` (non-null
    embeddings only): ``kmeans._assign_cells`` under cosine."""
    from metacache_mpi_ray.stages.kmeans import _assign_cells

    if len(batch) == 0:
        return np.empty(0, dtype=np.int64)
    mat = _normalize(_emb_matrix(batch["embedding"]))
    return _assign_cells(mat, cent, "cos").astype(np.int64)


def _probe_cells(q_unit: np.ndarray, cent: np.ndarray, nprobe: int) -> np.ndarray:
    """Sorted union over queries of each query's nprobe nearest cells
    (``q_unit``: the L2-normalized query matrix)."""
    qcells = np.argsort(-(q_unit @ cent.T), axis=1)[:, :nprobe]
    return np.unique(qcells)


def ivf_topk(
    embeddings,
    query_ids: list[int],
    k: int = 5,
    *,
    n_cells: int = 16,
    nprobe: int = 4,
    seed: int = 3,
    train_sample: int = 4096,
):
    """IVF approximate top-k: coarse k-means cells (trained driver-side
    on a sample, centroids shipped in the cell filter), search
    restricted to the nprobe nearest cells per query — the scale path
    where brute force over the full table is too expensive. Bounded
    recall by construction.
    """
    cent = _coarse_quantizer(embeddings, n_cells, seed, train_sample)
    q_ids, q_mat = _query_matrix(embeddings, query_ids)
    probe = _probe_cells(_normalize(q_mat), cent, nprobe)

    def cell_filter(batch: pa.Table) -> pa.Table:
        batch = _drop_null_emb(batch)  # null rows belong to no cell
        return batch.filter(pa.array(np.isin(_cell_of(batch, cent), probe)))

    candidates = embeddings.map_batches(cell_filter, batch_format="pyarrow")
    return _ranked_topk(candidates, q_ids, q_mat, k)


def build_ivf_index(
    embeddings,
    out_dir: str,
    *,
    n_cells: int = 16,
    seed: int = 3,
    train_sample: int = 4096,
) -> np.ndarray:
    """Write a cell-partitioned IVF index: train the coarse quantizer
    (driver-side k-means on a hash-spread sample), assign every vector
    to its nearest centroid in map_batches, and write ONE parquet
    partition directory per cell (``cell=K/``). Centroids persist next
    to the data, so queries prune at the READ — ``ivf_topk_indexed``
    lists only the nprobe cell directories instead of full-scan
    filtering (round-2's ivf_topk read every row and filtered after).
    Returns the (n_cells, d) centroid matrix."""
    import json
    import os

    cent = _coarse_quantizer(embeddings, n_cells, seed, train_sample)

    def assign(batch: pa.Table) -> pa.Table:
        batch = _drop_null_emb(batch)  # null rows are not indexable
        return batch.append_column("cell", pa.array(_cell_of(batch, cent)))

    os.makedirs(out_dir, exist_ok=True)
    embeddings.map_batches(assign, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["cell"]
    )
    np.save(os.path.join(out_dir, "centroids.npy"), cent)
    with open(os.path.join(out_dir, "ivf.json"), "w") as f:
        json.dump({"n_cells": int(len(cent)), "d": int(cent.shape[1]),
                   "seed": seed}, f)
    return cent


def ivf_topk_indexed(
    index_dir: str,
    query_ids,
    query_mat: np.ndarray,
    k: int = 5,
    *,
    nprobe: int = 4,
    stats_out: dict | None = None,
):
    """Approximate top-k against a ``build_ivf_index`` directory: only
    the union of each query's nprobe nearest cell partitions is READ —
    storage-level pruning, the property that matters at 100 TB where a
    full scan per query batch is the cost ceiling. ``stats_out`` (if
    given) receives probed/total file counts and bytes so callers and
    tests can assert the pruning actually happened."""
    import glob
    import os

    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    qmat = _normalize(np.asarray(query_mat, dtype=np.float64))
    probe_cells = _probe_cells(qmat, cent, nprobe)

    def cell_files(c: int) -> list[str]:
        return sorted(glob.glob(os.path.join(index_dir, f"cell={c}", "*.parquet")))

    probe_files = [f for c in probe_cells.tolist() for f in cell_files(c)]
    if stats_out is not None:
        all_files = sorted(
            glob.glob(os.path.join(index_dir, "cell=*", "*.parquet"))
        )
        stats_out.update(
            {
                "probed_cells": probe_cells.tolist(),
                "probed_files": len(probe_files),
                "total_files": len(all_files),
                "probed_bytes": sum(os.path.getsize(f) for f in probe_files),
                "total_bytes": sum(os.path.getsize(f) for f in all_files),
            }
        )
    candidates = rd.read_parquet(probe_files, columns=["vec_id", "embedding"])
    return _ranked_topk(candidates, np.asarray(query_ids, dtype=np.int64), qmat, k)


def hyperplane_codes(mat: np.ndarray, n_planes: int, seed: int) -> np.ndarray:
    """Random-hyperplane sign pattern -> int64 bucket code per row."""
    d = mat.shape[1]
    raw = splitmix64(np.arange(n_planes * d, dtype=U64) + U64(seed & 0xFFFFFFFF))
    planes = (raw.astype(np.float64) / 2**63 - 1.0).reshape(n_planes, d)
    signs = (mat @ planes.T) > 0
    return (signs.astype(np.int64) << np.arange(n_planes, dtype=np.int64)).sum(axis=1)


def _auto_planes(n_rows: int, target_bucket: int = 8) -> int:
    """Hyperplane count scaling with corpus size: 2^planes buckets
    should keep the MEAN bucket near ``target_bucket`` rows, because the
    candidate stage lists ALL pairs per bucket — at a fixed 12 planes a
    1M-row corpus averaged 244 rows/bucket and emitted ~480M pair rows
    (measured: 139 s end-to-end; auto-sized it is bounded by the true
    near-dup density). Clamped to [12, 24]: 12 preserves the sf-scale
    defaults (and their oracle outputs) exactly, 24 bounds per-plane
    recall loss."""
    return int(min(24, max(12, np.ceil(np.log2(max(n_rows / target_bucket, 2.0))))))


def _resolve_lsh_layout(
    n_rows: int, n_planes: int | None = None, n_tables: int | None = None
) -> tuple[int, int]:
    """(n_planes, n_tables) for multi-table hyperplane LSH. Auto-sized
    tables grow one per 2 extra planes past the 12-plane floor, which
    holds analytic at-threshold (cos 0.95, per-plane collision ~0.899)
    candidate recall at ~0.73 / ~0.66 / ~0.55 for 12/4, 17/6, 24/10 —
    the measured curve the r3 advice asked for (one table per 3 planes
    decayed to ~0.59 at 1M rows). EXPLICIT caller values are respected
    verbatim, never bumped (test_ann_layout_* pins both behaviors)."""
    if n_planes is None:
        n_planes = _auto_planes(n_rows)
        if n_tables is None:
            n_tables = 4 + max(0, (n_planes - 12) // 2)
    if n_tables is None:
        n_tables = 4
    return n_planes, n_tables


def embedding_near_dup(
    embeddings,
    *,
    sim_threshold: float = 0.95,
    n_planes: int | None = None,
    n_tables: int | None = None,
    seed: int = 7,
    cap: int = 512,
    num_partitions: int = 16,
):
    """Embedding-cosine near-duplicate pairs.

    Multi-table hyperplane LSH: ``n_tables`` independent sign-pattern
    bucketings; same-bucket rows become candidate pairs (capped),
    verified by exact cosine through the flagship's verify step.

    ``n_planes=None`` auto-sizes from the corpus (see _auto_planes).
    ``n_tables=None`` auto-sizes with it: 4 tables at the 12-plane
    floor, +1 per 2 extra planes. Candidate recall for pairs sitting AT
    sim_threshold=0.95 (per-plane collision ~0.899): 12 planes/4 tables
    ~0.73; 17 planes (1M rows) would drop to ~0.59 with one table per
    3 planes, the +1/2-planes rate holds ~0.66 (r3 advice). Pairs above
    threshold collide more; exact duplicates always collide. An
    EXPLICITLY passed n_tables is respected verbatim, never bumped.
    """
    from metacache_mpi_ray.stages.candidates import bucket_all_pairs

    # consumed twice (code emission + exact-cosine verify) — one read
    embeddings = embeddings.materialize()
    n_planes, n_tables = _resolve_lsh_layout(
        embeddings.count(), n_planes=n_planes, n_tables=n_tables
    )

    def emit_codes(batch: pa.Table) -> pa.Table:
        ids, raw = _valid_emb(batch)  # null rows can never near-dup
        if len(ids) == 0:
            empty = pa.array([], type=pa.int64())
            return pa.table(
                {"table_id": empty, "code": empty, "doc_id": empty}
            )
        mat = _normalize(raw)
        tabs, codes, outids = [], [], []
        for t in range(n_tables):
            c = hyperplane_codes(mat, n_planes, seed + 1000 * t)
            tabs.append(np.full(len(ids), t, dtype=np.int64))
            codes.append(c)
            outids.append(ids)
        return pa.table(
            {
                "table_id": pa.array(np.concatenate(tabs)),
                "code": pa.array(np.concatenate(codes)),
                "doc_id": pa.array(np.concatenate(outids)),
            }
        )

    codes = embeddings.map_batches(emit_codes, batch_format="pyarrow")
    # pair-LISTING semantics: all pairs per bucket (star edges would
    # hide a qualifying pair behind the bucket's min id)
    edges = bucket_all_pairs(
        codes, key_cols=["table_id", "code"], id_col="doc_id", cap=cap
    )
    # exact cosine verification through the flagship's verify step
    # (stages/verify.verify_pairs_payload): each pair and score task
    # packs only the vectors (d x 8 bytes/doc) its pairs need
    from metacache_mpi_ray.stages.verify import verify_pairs_payload

    def extract(batch: pa.Table):
        # null rows drop here; verify then drops any edge touching them
        ids, raw = _valid_emb(batch)
        return ids, _normalize(raw)

    def score(va: np.ndarray, vb: np.ndarray):
        sim = (va * vb).sum(axis=1)
        return sim, sim >= sim_threshold

    return verify_pairs_payload(
        edges,
        embeddings,
        id_col="vec_id",
        extract=extract,
        score=score,
        value_col="cos_sim",
        value_type=pa.float64(),
        payload_dtype=np.float64,
        num_partitions=num_partitions,
    )
