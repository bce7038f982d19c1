"""Batch stages run as plain map_batches tasks, and nearest-neighbour
top-k breaks ties on neighbor_id."""

import numpy as np
import pyarrow as pa
import ray.data as rd

SF = "/root/testdata/sf0.001"


def _tied_embeddings() -> rd.Dataset:
    """Query 0 plus 20 neighbours with one identical vector, their ids
    shuffled within the one block: every neighbour ties on cosine."""
    ids = [0] + np.random.default_rng(11).permutation(np.arange(1, 21)).tolist()
    vecs = [[1.0, 0.0, 0.0, 0.0]] + [[1.0, 1.0, 0.0, 0.0]] * 20
    return rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids, type=pa.int64()),
                "embedding": pa.array(vecs, type=pa.list_(pa.float64())),
            }
        )
    )


def _ranked(ds) -> list[tuple[int, int]]:
    df = ds.to_pandas().sort_values("rank")
    assert (df["query_id"] == 0).all()
    return list(zip(df["rank"].tolist(), df["neighbor_id"].tolist()))


def test_topk_ties_break_on_neighbor_id():
    from metacache_mpi_ray.stages.ann import brute_force_topk, ivf_topk

    want = [(1, 1), (2, 2), (3, 3)]
    assert _ranked(brute_force_topk(_tied_embeddings(), [0], k=3)) == want
    assert (
        _ranked(ivf_topk(_tied_embeddings(), [0], k=3, n_cells=2, nprobe=2))
        == want
    )


def test_no_actor_pools(monkeypatch, tmp_path):
    """Every batch stage is a plain task: ``Dataset.map_batches`` raises
    on an actor-pool call (a class, ``concurrency`` or
    ``fn_constructor_kwargs``)."""
    orig = rd.Dataset.map_batches

    def guarded(self, fn, *args, **kwargs):
        if (
            isinstance(fn, type)
            or kwargs.get("concurrency") is not None
            or "fn_constructor_kwargs" in kwargs
        ):
            raise AssertionError(f"actor-pool map_batches: {fn!r}")
        return orig(self, fn, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "map_batches", guarded)

    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.pipelines.queries import QUERIES
    from metacache_mpi_ray.stages.ann import (
        brute_force_topk,
        build_ivf_index,
        ivf_topk,
        ivf_topk_indexed,
    )
    from metacache_mpi_ray.stages.ingest import read_docs
    from metacache_mpi_ray.stages.multimodal import (
        media_feature_pipeline,
        synth_media_table,
    )
    from metacache_mpi_ray.stages.simhash import simhash_dedup

    simhash_dedup(read_docs(SF), DedupConfig(), num_partitions=2).materialize()
    media_feature_pipeline(rd.from_arrow(synth_media_table(16))).materialize()

    emb = _tied_embeddings()
    assert len(brute_force_topk(emb, [0], k=3).to_pandas()) == 3
    assert len(ivf_topk(emb, [0], k=3, n_cells=2, nprobe=2).to_pandas()) == 3
    idx = str(tmp_path / "ivf")
    build_ivf_index(emb, idx, n_cells=2, train_sample=64)
    got = ivf_topk_indexed(idx, [0], np.array([[1.0, 0.0, 0.0, 0.0]]), k=3, nprobe=2)
    assert len(got.to_pandas()) == 3

    for name in ("lang_id_trigram", "lang_id_planted", "media_features", "video_frame_sample"):
        assert QUERIES[name](SF).count() > 0, name
