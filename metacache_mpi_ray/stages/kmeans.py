"""Distributed k-means over an embedding column + SemDeDup-style
semantic deduplication.

The reference clusters reads by voting over a learned index
(classification.cpp:235-265); the training-data analog over embeddings
is centroid clustering: k-means cells group semantically-similar
documents, and SemDeDup (Abbas et al., 2023 — public) deduplicates by
keeping one representative per high-cosine group *within* each cell.

Ray Data shapes:

* ``kmeans_fit`` — Lloyd's iterations where each iteration is ONE
  streaming pass: centroids ride a single ``ray.put`` broadcast, every
  block emits one partial row (flattened k×d per-cell vector sums +
  k counts), and the driver combines partials (k×d floats per block —
  the only driver-side state is the centroid matrix itself). No
  shuffle at any point. When the block count is large the partials are
  pre-combined in a second ``map_batches`` pass over coalesced blocks,
  so driver traffic stays bounded by ``combine_blocks`` rows.
* ``kmeans_assign`` — stateless ``map_batches`` argmax/argmin against
  the broadcast centroids (ties -> lowest cell id, deterministic).
* ``semantic_dedup`` — assign cells, emit capped all-pairs per cell
  (``bucket_all_pairs``: the flagship's bucket hash exchange),
  verify pairs by exact cosine through the flagship's verify step
  (``verify.verify_pairs_payload``), union-find the surviving edges, and keep
  min-id per component. Identical vectors always share a cell (the
  assignment is a pure function of the vector), so exact duplicates
  are never lost to cell boundaries; near-duplicates split across
  cells are the method's documented approximation (same as the
  published algorithm).

Metrics: ``cos`` (spherical k-means — vectors and centroids L2-
normalized, assignment by max dot) and ``l2`` (plain Lloyd's on raw
vectors, assignment by min squared distance; integer-valued inputs
make the distances integer-exact in float64, which the planted oracle
relies on).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from metacache_mpi_ray.functions.hashing import splitmix64
from metacache_mpi_ray.stages.ann import (
    _emb_matrix,
    _normalize,
    _valid_emb,
)

U64 = np.uint64


def _fit_sample(
    embeddings,
    n_cells: int,
    seed: int,
    train_sample: int,
    id_col: str,
    emb_col: str = "embedding",
) -> np.ndarray:
    """Deterministic hash-spread init sample (limit() alone would seed
    from the leading blocks only); the IVF coarse quantizer trains on
    it too (``ann._coarse_quantizer``). take_all (not to_pandas): fixed-size-list columns with
    null rows fail Ray's pandas tensor-extension cast."""

    def hash_sample(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (splitmix64(ids.view(U64) ^ U64(seed)) & U64(7)) == 0
        return t.filter(pa.array(keep))

    rows = (
        embeddings.map_batches(hash_sample, batch_format="pyarrow")
        .limit(train_sample)
        .take_all()
    )
    if not rows:
        rows = embeddings.limit(train_sample).take_all()
    vecs = [
        np.asarray(r[emb_col], dtype=np.float64)
        for r in rows
        if r[emb_col] is not None
    ]
    if not vecs:
        return np.empty((0, 0), dtype=np.float64)
    return np.stack(vecs)


def _partial_sums_fn(cent_ref, metric: str, emb_col: str):
    """Per-block partial: one output row with the block's per-cell
    vector sums (flattened k*d) and per-cell counts (k)."""

    def partial(t: pa.Table) -> pa.Table:
        cent = ray.get(cent_ref)
        k, d = cent.shape
        col = t[emb_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        valid = ~np.asarray(col.is_null())
        sums = np.zeros((k, d), dtype=np.float64)
        counts = np.zeros(k, dtype=np.int64)
        if valid.any():
            sub = t.filter(pa.array(valid))
            mat = _emb_matrix(sub[emb_col]).astype(np.float64)
            if metric == "cos":
                mat = _normalize(mat)
            assign = _assign_cells(mat, cent, metric)
            np.add.at(sums, assign, mat)
            np.add.at(counts, assign, 1)
        return pa.table(
            {
                "sums": pa.FixedSizeListArray.from_arrays(
                    pa.array(sums.reshape(-1), type=pa.float64()), k * d
                ),
                "counts": pa.FixedSizeListArray.from_arrays(
                    pa.array(counts, type=pa.int64()), k
                ),
            }
        )

    return partial


def _combine_rows(t: pa.Table) -> pa.Table:
    """Sum partial rows into one (associative — used for the optional
    coalescing pass AND the final driver combine)."""
    s = np.asarray(t["sums"].combine_chunks().flatten(), dtype=np.float64)
    c = np.asarray(t["counts"].combine_chunks().flatten(), dtype=np.int64)
    kd = t["sums"].type.list_size
    k = t["counts"].type.list_size
    sums = s.reshape(-1, kd).sum(axis=0)
    counts = c.reshape(-1, k).sum(axis=0)
    return pa.table(
        {
            "sums": pa.FixedSizeListArray.from_arrays(
                pa.array(sums, type=pa.float64()), kd
            ),
            "counts": pa.FixedSizeListArray.from_arrays(
                pa.array(counts, type=pa.int64()), k
            ),
        }
    )


def _assign_cells(mat: np.ndarray, cent: np.ndarray, metric: str) -> np.ndarray:
    """Row -> nearest-centroid index; ties resolve to the lowest cell
    id (argmax/argmin take the first maximum/minimum)."""
    if metric == "cos":
        return (mat @ cent.T).argmax(axis=1)
    # ||x-c||^2 = ||x||^2 - 2 x.c + ||c||^2; ||x||^2 is constant per
    # row so the argmin needs only the last two terms
    d2 = (cent * cent).sum(axis=1)[None, :] - 2.0 * (mat @ cent.T)
    return d2.argmin(axis=1)


def kmeans_fit(
    embeddings,
    n_cells: int,
    *,
    iters: int = 8,
    seed: int = 3,
    metric: str = "cos",
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    train_sample: int = 4096,
    combine_blocks: int = 64,
) -> np.ndarray:
    """Lloyd's k-means over the full dataset; returns (k, d) centroids.

    One streaming pass per iteration; driver state is the centroid
    matrix plus at most ``combine_blocks`` partial rows per round.
    Deterministic: fixed seed sample init, fixed iteration count,
    first-index tie-breaks. Empty cells keep their previous centroid.
    """
    if metric not in ("cos", "l2"):
        raise ValueError(f"metric must be 'cos' or 'l2', got {metric!r}")
    init = _fit_sample(embeddings, n_cells, seed, train_sample, id_col, emb_col)
    if len(init) == 0:
        raise ValueError("cannot fit k-means on an empty embedding table")
    if metric == "cos":
        init = _normalize(init)
    # deterministic spread init: the sample is already hash-spread, so
    # evenly-strided rows avoid duplicate seeds from adjacent rows
    stride = max(1, len(init) // n_cells)
    cent = init[::stride][:n_cells].copy()
    if len(cent) < n_cells:
        cent = np.vstack([cent, init[: n_cells - len(cent)]])
    k, d = cent.shape

    for _ in range(iters):
        cent_ref = ray.put(cent)
        partials = embeddings.map_batches(
            _partial_sums_fn(cent_ref, metric, emb_col),
            batch_format="pyarrow",
            batch_size=None,
        ).materialize()
        if partials.num_blocks() > combine_blocks:
            partials = partials.repartition(combine_blocks).map_batches(
                _combine_rows, batch_format="pyarrow", batch_size=None
            )
        rows = partials.take_all()
        sums = np.zeros((k, d), dtype=np.float64)
        counts = np.zeros(k, dtype=np.int64)
        for r in rows:
            sums += np.asarray(r["sums"], dtype=np.float64).reshape(k, d)
            counts += np.asarray(r["counts"], dtype=np.int64)
        nonempty = counts > 0
        if metric == "cos":
            # spherical: new centroid = renormalized mean direction;
            # cells whose members cancel to a zero sum keep the old one
            norms = np.linalg.norm(sums, axis=1)
            ok = nonempty & (norms > 0)
            safe = np.where(norms > 0, norms, 1.0)
            new = np.where(ok[:, None], sums / safe[:, None], cent)
        else:
            new = np.where(
                nonempty[:, None], sums / np.maximum(counts, 1)[:, None], cent
            )
        if np.array_equal(new, cent):
            break
        cent = new
    return cent


def kmeans_assign(
    embeddings,
    centroids: np.ndarray,
    *,
    metric: str = "cos",
    id_col: str = "vec_id",
    emb_col: str = "embedding",
):
    """-> Dataset(id_col, cell): nearest-centroid cell per row (null
    embeddings dropped — they belong to no cell)."""
    if metric not in ("cos", "l2"):
        raise ValueError(f"metric must be 'cos' or 'l2', got {metric!r}")
    cent = np.asarray(centroids, dtype=np.float64)
    if metric == "cos":
        cent = _normalize(cent)
    cent_ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        ids, raw = _valid_emb(batch, id_col=id_col)
        if len(ids) == 0:
            e = pa.array([], type=pa.int64())
            return pa.table({id_col: e, "cell": e})
        c = ray.get(cent_ref)
        mat = raw.astype(np.float64)
        if metric == "cos":
            mat = _normalize(mat)
        cells = _assign_cells(mat, c, metric).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "cell": pa.array(cells, type=pa.int64()),
            }
        )

    return embeddings.map_batches(assign, batch_format="pyarrow")


def cell_histogram(assigned):
    """(cell, n_vecs) sizes of each k-means cell — the bucket-size
    census (A8/A9 analog) for the semantic index."""
    from ray.data.aggregate import Count

    return assigned.groupby("cell").aggregate(Count(alias_name="n_vecs"))


def semantic_dedup(
    embeddings,
    *,
    n_cells: int | None = None,
    sim_threshold: float = 0.95,
    iters: int = 8,
    seed: int = 3,
    cap: int = 512,
    num_partitions: int = 16,
    centroids: np.ndarray | None = None,
    id_col: str = "vec_id",
):
    """SemDeDup: k-means cells -> capped within-cell candidate pairs ->
    exact-cosine verify -> union-find -> keep min id per component.

    Returns Dataset(vec_id, cluster_id, is_dup) with the flagship's
    cluster conventions: cluster_id = min id of the connected
    component, ``is_dup`` = member of a semantic-duplicate component
    (representatives included). The SemDeDup prune set is
    ``is_dup AND vec_id != cluster_id``.

    ``n_cells=None`` auto-sizes to ``max(64, n / (cap / 4))`` so the
    MEAN cell stays well under the all-pairs cap: at a fixed 64 cells a
    1M-vector corpus averages 15,625 vectors/cell — every cell exceeds
    the cap and the candidate stage silently emits NOTHING. 64 is the
    floor so sf-scale corpora (and their oracles) keep the old default
    exactly.
    """
    from metacache_mpi_ray.stages.candidates import bucket_all_pairs
    from metacache_mpi_ray.stages.cluster import assign_clusters
    from metacache_mpi_ray.stages.verify import verify_pairs_payload

    if n_cells is None:
        # materialize before count(): the lineage is consumed again by
        # fit, assign, and the verify extract — without this, count()
        # adds a full extra execution and inherits the
        # nondeterministic-lineage hazard (matches embedding_near_dup)
        embeddings = embeddings.materialize()
        n = embeddings.count()
        n_cells = int(max(64, np.ceil(n / max(cap / 4, 1.0))))
    cent = (
        np.asarray(centroids, dtype=np.float64)
        if centroids is not None
        else kmeans_fit(
            embeddings, n_cells, iters=iters, seed=seed, metric="cos",
            id_col=id_col,
        )
    )
    assigned = kmeans_assign(embeddings, cent, metric="cos", id_col=id_col)
    edges = bucket_all_pairs(assigned, key_cols=["cell"], id_col=id_col, cap=cap)

    def extract(batch: pa.Table):
        ids, raw = _valid_emb(batch, id_col=id_col)
        return ids, _normalize(raw.astype(np.float64))

    def score(va: np.ndarray, vb: np.ndarray):
        sim = (va * vb).sum(axis=1)
        return sim, sim >= sim_threshold

    verified = verify_pairs_payload(
        edges,
        embeddings,
        id_col=id_col,
        extract=extract,
        score=score,
        value_col="cos_sim",
        value_type=pa.float64(),
        payload_dtype=np.float64,
        num_partitions=num_partitions,
    )
    ids_only = embeddings.select_columns([id_col])
    clusters = assign_clusters(ids_only, verified, id_col=id_col)
    if id_col != "doc_id":
        clusters = clusters.map_batches(
            lambda t: t.rename_columns([id_col, "cluster_id", "is_dup"]),
            batch_format="pyarrow",
        )
    return clusters
