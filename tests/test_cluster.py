"""Direct unit tests for the connected-components kernels — the
correctness-critical core of cluster assignment (stages/cluster.py,
state/unionfind.py). The e2e dedup tests exercise near-clique graphs
only; these cover adversarial shapes (long chains, stars, duplicate and
self edges) and the two-level per-block-forest path explicitly."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from metacache_mpi_ray.stages.cluster import (
    assign_clusters,
    assign_clusters_distributed,
    propagate_min_labels,
)
from metacache_mpi_ray.state.unionfind import (
    UnionFind,
    connected_components_arrays,
)


def _naive_labels(a: np.ndarray, b: np.ndarray) -> dict[int, int]:
    uf = UnionFind()
    uf.add_edge_batch(a, b)
    return uf.labels()


def _graphs():
    rng = np.random.default_rng(7)
    # random sparse graph with duplicate edges in both orders
    a = rng.integers(0, 500, 800).astype(np.int64)
    b = rng.integers(0, 500, 800).astype(np.int64)
    yield "random", np.concatenate([a, b]), np.concatenate([b, a])
    # a 300-hop chain (worst case for min-label propagation)
    n = np.arange(300, dtype=np.int64) + 1000
    yield "chain", n[:-1], n[1:]
    # star: hub is the max id, so every label must hop through the hub
    yield "star", np.full(64, 999, dtype=np.int64), np.arange(64, dtype=np.int64)
    # self edges only: every node is its own singleton component
    s = np.arange(10, dtype=np.int64)
    yield "self", s, s


@pytest.mark.parametrize("name,a,b", list(_graphs()))
def test_connected_components_matches_naive_dsu(name, a, b):
    nodes, labels = connected_components_arrays(a, b)
    assert np.array_equal(nodes, np.sort(nodes)), "nodes must come back sorted"
    got = dict(zip(nodes.tolist(), labels.tolist()))
    assert got == _naive_labels(a, b)


def test_assign_clusters_two_level_matches_single_block(ray_session):
    # a chain split across 8 blocks in shuffled order: every block's local
    # forest is a fragment, so the serial merge must reconnect them
    rng = np.random.default_rng(11)
    n = 257
    a = np.arange(n - 1, dtype=np.int64)
    b = a + 1
    order = rng.permutation(n - 1)
    a, b = a[order], b[order]
    blocks = [
        pa.table({"a": a[i::8], "b": b[i::8]}) for i in range(8)
    ]
    docs = rd.from_pandas(pd.DataFrame({"doc_id": np.arange(n + 50, dtype=np.int64)}))

    multi = rd.from_arrow(blocks)
    assert multi.num_blocks() > 1
    single = rd.from_arrow(pa.concat_tables(blocks)).repartition(1)

    out_m = assign_clusters(docs, multi).to_pandas().sort_values("doc_id")
    out_s = assign_clusters(docs, single).to_pandas().sort_values("doc_id")
    pd.testing.assert_frame_equal(
        out_m.reset_index(drop=True), out_s.reset_index(drop=True)
    )
    # the whole chain collapses to min id 0; ids beyond the chain untouched
    assert (out_m.loc[out_m.doc_id < n, "cluster_id"] == 0).all()
    assert (out_m.loc[out_m.doc_id >= n, "cluster_id"]
            == out_m.loc[out_m.doc_id >= n, "doc_id"]).all()
    assert out_m.loc[out_m.doc_id < n, "is_dup"].all()
    assert not out_m.loc[out_m.doc_id >= n, "is_dup"].any()


def test_propagate_min_labels_long_chain(ray_session):
    # diameter 255 >> max_iters: only the pointer-jumping shortcut makes
    # this converge (O(log d) rounds); without it the old code silently
    # returned wrong labels
    n = 256
    edges = rd.from_pandas(
        pd.DataFrame(
            {"a": np.arange(n - 1, dtype=np.int64) + 10,
             "b": np.arange(n - 1, dtype=np.int64) + 11}
        )
    )
    labels = propagate_min_labels(edges, max_iters=20, num_partitions=4).to_pandas()
    assert len(labels) == n
    assert (labels["cluster_id"] == 10).all()


def test_assign_clusters_distributed_matches_driver(ray_session):
    rng = np.random.default_rng(3)
    a = rng.integers(0, 200, 300).astype(np.int64)
    b = rng.integers(0, 200, 300).astype(np.int64)
    keep = a != b
    a, b = a[keep], b[keep]
    edges = rd.from_pandas(pd.DataFrame({"a": a, "b": b})).repartition(4)
    docs = rd.from_pandas(pd.DataFrame({"doc_id": np.arange(220, dtype=np.int64)}))
    drv = assign_clusters(docs, edges).to_pandas().sort_values("doc_id")
    dst = (
        assign_clusters_distributed(docs, edges, num_partitions=4)
        .to_pandas()
        .sort_values("doc_id")
    )
    pd.testing.assert_frame_equal(
        drv.reset_index(drop=True),
        dst.reset_index(drop=True),
        check_dtype=False,
    )


def test_propagate_min_labels_hash_scale_ids(ray_session):
    # the fixpoint check must stay exact for 63-bit ids (wraparound of
    # a naive sum would risk a premature break -> wrong labels)
    base = (1 << 62) + 1000
    a = np.array([base + 0, base + 1, base + 5], dtype=np.int64)
    b = np.array([base + 1, base + 2, base + 6], dtype=np.int64)
    edges = rd.from_pandas(pd.DataFrame({"a": a, "b": b})).repartition(2)
    labels = propagate_min_labels(edges, num_partitions=4).to_pandas()
    got = dict(zip(labels["doc_id"], labels["cluster_id"]))
    assert got == {
        base + 0: base + 0, base + 1: base + 0, base + 2: base + 0,
        base + 5: base + 5, base + 6: base + 5,
    }


def test_distributed_cc_crossover_exact_at_scale(ray_session):
    """The >=50M-edge crossover path (distributed components)
    pinned as CI (r3 verdict item 7): 30k nodes / 150k random edges (dense -> few propagation rounds),
    distributed min-label propagation must label EVERY node identically
    to the driver DSU. Marked slow-ish but in the default CI list so
    the scale path cannot rot."""
    rng = np.random.default_rng(77)
    n = 30_000
    a = rng.integers(0, n, 150_000).astype(np.int64)
    b = rng.integers(0, n, 150_000).astype(np.int64)
    keep = a != b
    a, b = a[keep], b[keep]
    edges = rd.from_pandas(pd.DataFrame({"a": a, "b": b})).repartition(8)
    docs = rd.from_pandas(
        pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64)})
    ).repartition(4)
    drv = assign_clusters(docs, edges).to_pandas().sort_values("doc_id")
    dst = (
        assign_clusters_distributed(docs, edges, num_partitions=8)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert np.array_equal(
        drv["cluster_id"].to_numpy(), dst["cluster_id"].to_numpy()
    )
    assert np.array_equal(drv["is_dup"].to_numpy(), dst["is_dup"].to_numpy())


def test_flagship_distributed_cluster_method_parity(
    ray_session, corpus_dir, monkeypatch, tmp_path
):
    """near_dup_pipeline and build_index past CLUSTER_DRIVER_EDGE_LIMIT
    (forced here by a limit of 0) give the same clusters as the driver
    DSU on the planted corpus, and the same clusters/ files — the auto
    switch can flip at 50M edges without changing results."""
    import glob
    import os

    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline
    from metacache_mpi_ray.pipelines.incremental import build_index
    from metacache_mpi_ray.stages import cluster
    from metacache_mpi_ray.stages.ingest import ingest_pages

    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages"))
    cfg = DedupConfig()
    drv = (
        near_dup_pipeline(docs, cfg, num_partitions=4)
        .clusters.to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    roots = [str(tmp_path / "uf"), str(tmp_path / "distributed")]
    build_index(docs, cfg, roots[0], num_partitions=4)
    monkeypatch.setattr(cluster, "CLUSTER_DRIVER_EDGE_LIMIT", 0)
    calls = []

    def spy(*args, **kw):
        calls.append(kw)
        return assign_clusters_distributed(*args, **kw)

    monkeypatch.setattr(cluster, "assign_clusters_distributed", spy)
    dst = (
        near_dup_pipeline(docs, cfg, num_partitions=4)
        .clusters.to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(calls) == 1, "the forced limit never reached distributed components"
    pd.testing.assert_frame_equal(drv, dst, check_dtype=False)
    build_index(docs, cfg, roots[1], num_partitions=4)
    assert len(calls) == 2
    files = [sorted(glob.glob(f"{r}/clusters/*/*.parquet")) for r in roots]
    names = [[os.path.relpath(f, r) for f in fs] for fs, r in zip(files, roots)]
    assert names[0] == names[1] and len(names[0]) == 4
    for a, b in zip(*files):
        assert open(a, "rb").read() == open(b, "rb").read(), a


def test_assign_clusters_past_the_limit_runs_distributed(ray_session, monkeypatch):
    """``assign_clusters`` runs the flagship's components step: past
    ``CLUSTER_DRIVER_EDGE_LIMIT`` (forced by a limit of 0) its labels
    come from distributed propagation and equal the union-find task's,
    over pandas docs and edge blocks; an empty docs input gives a typed
    empty dataset on either branch."""
    from metacache_mpi_ray.stages import cluster

    rng = np.random.default_rng(5)
    a = rng.integers(0, 200, 150).astype(np.int64)
    b = rng.integers(0, 200, 150).astype(np.int64)
    docs = rd.from_pandas(
        [pd.DataFrame({"doc_id": np.arange(i, 220, 3, dtype=np.int64)}) for i in range(3)]
    )
    edges = rd.from_pandas(
        [pd.DataFrame({"a": a[i::2], "b": b[i::2]}) for i in range(2)]
    )
    empty = rd.from_pandas(pd.DataFrame({"doc_id": np.array([], dtype=np.int64)}))
    want = assign_clusters(docs, edges).to_pandas().sort_values("doc_id")
    assert assign_clusters(empty, edges).schema().names == ["doc_id", "cluster_id", "is_dup"]
    monkeypatch.setattr(cluster, "CLUSTER_DRIVER_EDGE_LIMIT", 0)
    calls = []

    def spy(*args, **kw):
        calls.append(kw)
        return assign_clusters_distributed(*args, **kw)

    monkeypatch.setattr(cluster, "assign_clusters_distributed", spy)
    got = assign_clusters(docs, edges).to_pandas().sort_values("doc_id")
    assert len(calls) == 1
    assert len(got) == 220
    pd.testing.assert_frame_equal(
        want.reset_index(drop=True), got.reset_index(drop=True), check_dtype=False
    )
    assert assign_clusters(empty, edges).count() == 0


def test_assign_clusters_distributed_zero_edges(ray_session):
    # a no-duplicate corpus produces an empty edge list; the distributed
    # path must label every doc as its own singleton, not crash in the
    # per-round join on a schema-less empty side
    docs = rd.from_pandas(pd.DataFrame({"doc_id": np.arange(7, dtype=np.int64)}))
    edges = rd.from_arrow(
        pa.table({"a": pa.array([], type=pa.int64()),
                  "b": pa.array([], type=pa.int64())})
    )
    out = assign_clusters_distributed(docs, edges, num_partitions=4).to_pandas()
    assert len(out) == 7
    assert (out["cluster_id"] == out["doc_id"]).all()
    assert not out["is_dup"].any()


def test_ensure_columns():
    from metacache_mpi_ray.functions.blocks import ensure_columns

    full = pd.DataFrame({"a": [1], "b": [2]})
    assert ensure_columns(full, ["a", "b"]) is full
    empty = pd.DataFrame()
    out = ensure_columns(empty, ["a", "b"])
    assert list(out.columns) == ["a", "b"] and len(out) == 0


@pytest.mark.parametrize("num_partitions", [1, 2, 5])
def test_distributed_cc_giant_component(ray_session, num_partitions):
    """A 10^5-member star (the BTS hot-label shape: every pointer edge
    of the component shares one source) plus a 4096-node chain (the
    longest diameter): distributed labels equal the driver DSU's
    exactly at every partition count."""
    rng = np.random.default_rng(19)
    hub = 10**6
    leaves = np.arange(1, 10**5, dtype=np.int64) + hub
    chain = np.arange(4096, dtype=np.int64) + 5 * 10**6
    a = np.concatenate([np.full(len(leaves), hub, dtype=np.int64), chain[:-1]])
    b = np.concatenate([leaves, chain[1:]])
    order = rng.permutation(len(a))
    edges = rd.from_arrow(pa.table({"a": a[order], "b": b[order]})).repartition(4)
    ids = np.concatenate([[7], a, b])
    docs = rd.from_arrow(pa.table({"doc_id": np.unique(ids)})).repartition(3)
    drv = assign_clusters(docs, edges).to_pandas().sort_values("doc_id")
    dst = (
        assign_clusters_distributed(docs, edges, num_partitions=num_partitions)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert len(dst) == len(drv) == len(leaves) + 1 + len(chain) + 1
    assert np.array_equal(drv["doc_id"].to_numpy(), dst["doc_id"].to_numpy())
    assert np.array_equal(drv["cluster_id"].to_numpy(), dst["cluster_id"].to_numpy())
    assert np.array_equal(drv["is_dup"].to_numpy(), dst["is_dup"].to_numpy())
