"""Tests for join operators, windowed/grouped ops, multimodal plumbing,
IVF ANN, and merge mode."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd


def test_broadcast_join_matches_pandas():
    from metacache_mpi_ray.stages.joins import broadcast_join

    big = pd.DataFrame({"k": [1, 2, 3, 2, 9], "x": [10, 20, 30, 40, 50]})
    small = pd.DataFrame({"k": [1, 2, 3], "name": ["a", "b", "c"]})
    out = broadcast_join(rd.from_pandas(big), small, on="k").to_pandas()
    exp = big.merge(small, on="k")
    assert len(out) == len(exp) == 4
    assert set(zip(out["x"], out["name"])) == set(zip(exp["x"], exp["name"]))


def test_broadcast_join_key_dtype_mismatch_heals():
    """A small side whose key drifted to float64 (pandas NaN) or int32
    is cast to the big side's key type instead of crashing acero."""
    from metacache_mpi_ray.stages.joins import broadcast_join

    big = pd.DataFrame({"k": [1, 2, 3], "x": [10, 20, 30]})
    small = pd.DataFrame({"k": np.array([1.0, 2.0]), "name": ["a", "b"]})
    out = broadcast_join(rd.from_pandas(big), small, on="k").to_pandas()
    assert sorted(zip(out["x"], out["name"])) == [(10, "a"), (20, "b")]


def test_broadcast_join_rejects_overlap_and_bad_how():
    from metacache_mpi_ray.stages.joins import broadcast_join

    big = rd.from_pandas(pd.DataFrame({"k": [1], "x": [10]}))
    with pytest.raises(ValueError, match="non-key columns"):
        broadcast_join(big, pd.DataFrame({"k": [1], "x": [99]}), on="k")
    with pytest.raises(ValueError, match="inner"):
        broadcast_join(
            big, pd.DataFrame({"k": [1], "y": [5]}), on="k", how="outer"
        )


def test_large_join_auto_partitions_matches_pandas():
    from metacache_mpi_ray.stages.joins import large_join

    left = pd.DataFrame({"k": np.arange(200) % 37, "x": np.arange(200)})
    right = pd.DataFrame({"k": np.arange(37), "y": np.arange(37) * 10})
    out = large_join(
        rd.from_pandas(left), rd.from_pandas(right), on=("k",)
    ).to_pandas()
    exp = left.merge(right, on="k")
    assert len(out) == len(exp) == 200
    assert set(zip(out["x"], out["y"])) == set(zip(exp["x"], exp["y"]))


def test_anti_join_broadcast():
    from metacache_mpi_ray.stages.joins import anti_join_broadcast

    ds = rd.from_pandas(pd.DataFrame({"doc_id": [1, 2, 3, 4, 5]}))
    out = anti_join_broadcast(ds, [2, 4], on="doc_id").to_pandas()
    assert sorted(out["doc_id"]) == [1, 3, 5]


def test_asof_lookup():
    from metacache_mpi_ray.stages.joins import asof_lookup

    ds = rd.from_pandas(pd.DataFrame({"t": [5, 10, 15, 3, 100]}))
    keys = np.array([4, 10, 50])
    vals = np.array([1, 2, 3])
    out = asof_lookup(ds, keys, vals, on="t", out_col="step").to_pandas()
    got = dict(zip(out["t"], out["step"]))
    assert got[5] == 1 and got[10] == 2 and got[15] == 2 and got[100] == 3
    assert pd.isna(got[3])


def test_topk_lag_sessionize():
    from metacache_mpi_ray.stages.windows import lag_per_group, sessionize, topk_per_group

    df = pd.DataFrame(
        {
            "u": [1, 1, 1, 2, 2],
            "ts": [100, 200, 5_000_000_000, 10, 20],
            "v": [5.0, 9.0, 7.0, 1.0, 2.0],
            "id": [1, 2, 3, 4, 5],
        }
    )
    ds = rd.from_pandas(df)
    top = topk_per_group(ds, "u", "v", 2, tiebreak=["id"]).to_pandas()
    got = {(r.u, r["rank"]): r.id for _, r in top.iterrows()}
    assert got[(1, 1)] == 2 and got[(1, 2)] == 3
    assert got[(2, 1)] == 5 and got[(2, 2)] == 4

    lag = lag_per_group(ds, "u", "ts", "v").to_pandas()
    u1 = lag[lag["u"] == 1].sort_values("ts")
    assert pd.isna(u1["prev_value"].iloc[0]) and u1["prev_value"].iloc[1] == 5.0

    ses = sessionize(ds, "u", "ts", gap_us=1800_000_000).to_pandas()
    u1s = ses[ses["u"] == 1]
    assert len(u1s) == 2  # big gap splits user 1 into two sessions
    assert sorted(u1s["n_events"]) == [1, 2]


def test_multimodal_real_codecs():
    from metacache_mpi_ray.stages.multimodal import (
        FrameSampler,
        ImageDecoder,
        ImageResizer,
        decode_bmp,
        decode_mjbm_frames,
        decode_wav,
        encode_bmp,
        encode_mjbm,
        encode_wav,
        media_feature_pipeline,
        synth_media_table,
    )

    # codecs round-trip exactly
    rng = np.random.default_rng(5)
    px = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
    w, h, back = decode_bmp(np.frombuffer(encode_bmp(px), dtype=np.uint8))
    assert (w, h) == (5, 7) and (back == px).all()
    samples = (rng.normal(size=300) * 1000).astype(np.int16)
    rate, ch, got = decode_wav(np.frombuffer(encode_wav(samples, 8000), dtype=np.uint8))
    assert rate == 8000 and ch == 1 and (got == samples).all()
    frames = [encode_bmp(px), encode_bmp(px[:4])]
    dec = list(decode_mjbm_frames(np.frombuffer(encode_mjbm(frames), dtype=np.uint8)))
    assert len(dec) == 2 and dec[0][1].tobytes() == frames[0]

    media = rd.from_arrow(synth_media_table(64, seed=3))
    feats = media_feature_pipeline(media, batch_size=16).to_pandas()
    assert len(feats) == 64  # 'fake' policy keeps opaque rows
    assert {"media_id", "width", "height", "feature"} <= set(feats.columns)

    # decoded dims are REAL: re-derive one image's dims from its bytes
    tab = synth_media_table(64, seed=3)
    df = tab.to_pandas()
    img = df[df["media_type"] == "image"].iloc[0]
    w, h, _ = decode_bmp(np.frombuffer(img["payload"], dtype=np.uint8))
    row = feats.set_index("media_id").loc[img["media_id"]]
    assert (int(row["width"]), int(row["height"])) == (w, h)

    # determinism across runs
    feats2 = media_feature_pipeline(
        rd.from_arrow(synth_media_table(64, seed=3)), batch_size=16
    ).to_pandas()
    a = feats.sort_values("media_id").reset_index(drop=True)
    b = feats2.sort_values("media_id").reset_index(drop=True)
    assert (a["width"] == b["width"]).all()

    # unknown-codec integration point stays explicit
    opaque = pa.table(
        {
            "media_id": pa.array([0], type=pa.int64()),
            "payload": pa.array([b"JFIF-not-really" * 10], type=pa.binary()),
        }
    )
    with pytest.raises(NotImplementedError):
        ImageDecoder(on_unknown="error")(opaque)
    assert len(ImageDecoder(on_unknown="skip")(opaque)) == 0

    # real resize: output decodes to the target dims
    rs = ImageResizer(target_w=4, target_h=3, on_unknown="skip")
    imgs = pa.table(
        {
            "media_id": pa.array([1], type=pa.int64()),
            "payload": pa.array([encode_bmp(px)], type=pa.binary()),
        }
    )
    out = rs(imgs)
    rw, rh, rpx = decode_bmp(np.frombuffer(out["payload"][0].as_py(), dtype=np.uint8))
    assert (rw, rh) == (4, 3)

    # frame sampling parses the container and emits decodable frames
    vids = pa.table(
        {
            "media_id": pa.array([9], type=pa.int64()),
            "payload": pa.array([encode_mjbm([encode_bmp(px)] * 6)], type=pa.binary()),
        }
    )
    fr = FrameSampler(n_frames=4, on_unknown="skip")(vids)
    assert len(fr) == 4
    fw, fh, _ = decode_bmp(np.frombuffer(fr["frame"][0].as_py(), dtype=np.uint8))
    assert (fw, fh) == (5, 7)


def test_ivf_topk_recall_vs_brute_force():
    from metacache_mpi_ray.stages.ann import brute_force_topk, ivf_topk

    rng = np.random.default_rng(11)
    mat = rng.normal(size=(200, 16))
    tab = pa.table(
        {
            "vec_id": pa.array(range(200), type=pa.int64()),
            "embedding": pa.array(
                [r.astype(np.float32).tolist() for r in mat], type=pa.list_(pa.float32())
            ),
        }
    )
    ds = rd.from_arrow(tab)
    bf = brute_force_topk(ds, [0, 1, 2], k=5).to_pandas()
    iv = ivf_topk(ds, [0, 1, 2], k=5, n_cells=4, nprobe=3).to_pandas()
    # nprobe=3 of 4 cells: expect most of the true top-5 recovered
    overlap = 0
    for q in (0, 1, 2):
        b = set(bf[bf["query_id"] == q]["neighbor_id"])
        i = set(iv[iv["query_id"] == q]["neighbor_id"])
        overlap += len(b & i)
    assert overlap >= 10  # >= 2/3 average recall on this easy layout


def test_merge_runs_reconnects_split_halves(corpus_dir):
    """Splitting the corpus breaks cross-half dup pairs per-run; the
    merge must still union each run's own findings consistently."""
    import ray.data as rd

    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline
    from metacache_mpi_ray.pipelines.merge import merge_cluster_runs
    from metacache_mpi_ray.stages.ingest import ingest_pages

    cfg = DedupConfig()
    docs = ingest_pages(rd.read_parquet(f"{corpus_dir}/pages")).materialize()
    full = near_dup_pipeline(docs, cfg, num_partitions=4)
    merged = merge_cluster_runs(
        docs, full.verified_edges, full.verified_edges
    ).to_pandas()
    ref = full.clusters.to_pandas()
    m = merged.sort_values("doc_id").reset_index(drop=True)
    r = ref.sort_values("doc_id").reset_index(drop=True)
    # merging a run with itself must be idempotent
    assert (m["cluster_id"].values == r["cluster_id"].values).all()
def test_asof_lookup_empty_table():
    # an empty lookup table means every row precedes the first key ->
    # all-null out column (used to IndexError on the empty value gather)
    from metacache_mpi_ray.stages.joins import asof_lookup

    ds = rd.from_arrow(
        pa.table({"t": pa.array([1, 5, 9], type=pa.int64())})
    )
    out = asof_lookup(
        ds, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
        on="t", out_col="step",
    ).to_pandas()
    assert len(out) == 3
    assert out["step"].isna().all()


def test_default_num_partitions_tracks_cluster_cpus():
    """Pipeline entry points size their partition default from the
    cluster (r4 item 9): at the 4-CPU test cluster the default is the
    floor (8), never the old hardcoded 16/32."""
    import inspect

    import ray

    from metacache_mpi_ray.stages.joins import default_num_partitions

    n = default_num_partitions()
    cpus = int(ray.cluster_resources().get("CPU"))
    assert n == max(8, min(cpus, 512))

    # every converted entry point defaults num_partitions to None
    from metacache_mpi_ray.pipelines.dedup import near_dup_pipeline
    from metacache_mpi_ray.pipelines.extend import extend_index
    from metacache_mpi_ray.pipelines.incremental import (
        build_index,
        query_against_index,
    )

    for fn in (near_dup_pipeline, build_index, query_against_index, extend_index):
        assert inspect.signature(fn).parameters["num_partitions"].default is None
