"""Sharded Bloom filter: no false negatives, bounded fpp, exact
filter_unseen vs a pandas anti-join oracle, across key dtypes and
partition counts."""
import numpy as np
import pyarrow as pa
import pytest
import ray

from metacache_mpi_ray.stages.bloom import (
    BloomFilter,
    bloom_params,
    build_bloom,
    filter_unseen,
    key_hashes,
    probe_bloom,
)


def _corpus_ds(n=2000, parallelism=5, as_str=False):
    ids = np.arange(n, dtype=np.int64) * 7 + 3
    if as_str:
        keys = pa.array([f"http://site-{i}.example/p" for i in ids])
    else:
        keys = pa.array(ids, type=pa.int64())
    return ray.data.from_arrow(pa.table({"key": keys})).repartition(parallelism)


def test_bloom_params_monotone():
    m1, k1 = bloom_params(1000, 0.01)
    m2, _ = bloom_params(1000, 0.001)
    assert m2 > m1 and 1 <= k1 <= 16


@pytest.mark.parametrize("as_str", [False, True])
def test_no_false_negatives_and_bounded_fpp(as_str):
    n = 2000
    ds = _corpus_ds(n, as_str=as_str)
    bloom = build_bloom(ds, "key", n_expected=n, fpp=0.01, n_shards=8)

    got = probe_bloom(ds, bloom, "key").to_pandas()
    assert got["might_seen"].all()  # zero false negatives, always

    # disjoint fresh keys: measured fpp within 5x of the target
    fresh_ids = np.arange(n, dtype=np.int64) * 7 + 4  # never ≡3 mod 7
    if as_str:
        fresh = pa.array([f"http://other-{i}.example/p" for i in fresh_ids])
    else:
        fresh = pa.array(fresh_ids, type=pa.int64())
    t = pa.table({"key": fresh})
    h1, h2 = key_hashes(t, "key", bloom.seed)
    rate = bloom.might_contain(h1, h2).mean()
    assert rate < 0.05


@pytest.mark.parametrize("mode", ["exact", "approx"])
@pytest.mark.parametrize("parallelism", [1, 7])
def test_filter_unseen_matches_anti_join(mode, parallelism):
    corpus = _corpus_ds(1500, parallelism=parallelism)
    # new batch: 300 seen + 300 fresh, interleaved
    seen = np.arange(300, dtype=np.int64) * 7 * 5 + 3  # every 5th corpus key
    fresh = np.arange(300, dtype=np.int64) * 7 + 5
    keys = np.empty(600, dtype=np.int64)
    keys[0::2], keys[1::2] = seen, fresh
    new = ray.data.from_arrow(
        pa.table({"key": keys, "payload": np.arange(600)})
    ).repartition(parallelism)

    out = filter_unseen(
        new, corpus, "key", n_expected=1500, fpp=0.001, mode=mode
    ).to_pandas()
    expect = np.sort(fresh)
    if mode == "exact":
        assert np.array_equal(np.sort(out["key"].to_numpy()), expect)
    else:
        # approx may drop a fresh key at the fpp, never pass a seen one
        got = np.sort(out["key"].to_numpy())
        assert np.isin(got, expect).all()
        assert len(got) >= len(expect) * 0.99
    # payload column survives the filter
    assert set(out.columns) == {"key", "payload"}


def test_filter_unseen_empty_sides():
    corpus = _corpus_ds(100)
    empty = ray.data.from_arrow(
        pa.table({"key": pa.array([], type=pa.int64())})
    )
    assert filter_unseen(empty, corpus, "key", n_expected=100).count() == 0
    # all-new batch against the corpus
    new = ray.data.from_arrow(
        pa.table({"key": pa.array([10**12, 10**12 + 1], type=pa.int64())})
    )
    assert filter_unseen(new, corpus, "key", n_expected=100).count() == 2


def test_shard_assembly_deterministic():
    ds = _corpus_ds(500, parallelism=3)
    b1 = build_bloom(ds, "key", n_expected=500, n_shards=4)
    b2 = build_bloom(_corpus_ds(500, parallelism=9), "key", n_expected=500, n_shards=4)
    assert isinstance(b1, BloomFilter)
    assert b1.m_shard == b2.m_shard and b1.k == b2.k
    assert np.array_equal(b1.bits, b2.bits)


def test_filter_unseen_string_keys():
    corpus = _corpus_ds(400, as_str=True)
    seen = [f"http://site-{i*7+3}.example/p" for i in range(0, 400, 4)]
    fresh = [f"http://fresh-{i}.example/p" for i in range(50)]
    new = ray.data.from_arrow(pa.table({"key": pa.array(seen + fresh)}))
    out = filter_unseen(new, corpus, "key", n_expected=400).to_pandas()
    assert sorted(out["key"]) == sorted(fresh)


@pytest.mark.parametrize("side", ["join", "auto"])
def test_filter_unseen_join_path(side, key_set_side):
    """Exact answer on each side of the key-set bound: ``auto`` keeps
    the default (whole filter, broadcast verify), ``join`` forces the
    sharded filter and the keyed-exchange verify."""
    key_set_side("join" if side == "join" else "broadcast")
    corpus = _corpus_ds(1500, parallelism=4)
    seen = np.arange(200, dtype=np.int64) * 7 * 5 + 3
    fresh = np.arange(200, dtype=np.int64) * 7 + 5
    keys = np.concatenate([seen, fresh])
    new = ray.data.from_arrow(
        pa.table({"key": keys, "payload": np.arange(400)})
    ).repartition(3)
    out = filter_unseen(new, corpus, "key", n_expected=1500, fpp=0.001).to_pandas()
    assert np.array_equal(np.sort(out["key"].to_numpy()), np.sort(fresh))
    assert set(out.columns) == {"key", "payload"}
    got = dict(zip(out["key"], out["payload"]))
    assert all(got[k] == 200 + i for i, k in enumerate(fresh))


def test_filter_unseen_join_path_no_positives(key_set_side):
    corpus = _corpus_ds(300)
    new = ray.data.from_arrow(
        pa.table({"key": pa.array([10**12, 10**12 + 1], type=pa.int64())})
    )
    for side in ("broadcast", "join"):
        key_set_side(side)
        out = filter_unseen(new, corpus, "key", n_expected=300).to_pandas()
        assert sorted(out["key"]) == [10**12, 10**12 + 1]


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_sharded_degrade_path_parity(mode, key_set_side):
    """A ``ShardedBloomFilter`` (slice refs + shard-routed probe) must
    give EXACTLY what the whole filter gives on the same planted data
    (r3 verdict item 3), with the exact verify on either side of the
    key-set bound."""
    from metacache_mpi_ray.stages.bloom import build_bloom_sharded

    corpus = _corpus_ds(1500, parallelism=4)
    seen = np.arange(300, dtype=np.int64) * 7 * 5 + 3
    fresh = np.arange(300, dtype=np.int64) * 7 + 5
    keys = np.empty(600, dtype=np.int64)
    keys[0::2], keys[1::2] = seen, fresh
    new = ray.data.from_arrow(
        pa.table({"key": keys, "payload": np.arange(600)})
    ).repartition(5)

    base = filter_unseen(
        new, corpus, "key", n_expected=1500, fpp=0.001, mode=mode
    ).to_pandas()
    sb = build_bloom_sharded(corpus, "key", n_expected=1500, fpp=0.001)
    for side in ("broadcast", "join"):
        key_set_side(side)
        sharded = filter_unseen(
            new, corpus, "key", n_expected=1500, fpp=0.001, mode=mode, bloom=sb
        ).to_pandas()
        assert np.array_equal(
            np.sort(base["key"].to_numpy()), np.sort(sharded["key"].to_numpy())
        )
        assert set(sharded.columns) == {"key", "payload"}
        if mode == "exact":
            assert np.array_equal(np.sort(sharded["key"].to_numpy()), np.sort(fresh))


def test_sharded_degrade_join_strategy_parity(key_set_side, monkeypatch):
    """Past the key-set bound filter_unseen builds the sharded filter
    itself and verifies by keyed exchange; below it, the whole filter
    and the broadcast verify: the same exact answer."""
    from metacache_mpi_ray.stages import bloom as bloom_mod

    built = []
    real = bloom_mod.build_bloom_sharded
    monkeypatch.setattr(
        bloom_mod, "build_bloom_sharded", lambda *a, **k: built.append(1) or real(*a, **k)
    )
    corpus = _corpus_ds(1200, parallelism=3)
    seen = np.arange(150, dtype=np.int64) * 7 * 4 + 3
    fresh = np.arange(150, dtype=np.int64) * 7 + 5
    new = ray.data.from_arrow(
        pa.table(
            {"key": np.concatenate([seen, fresh]), "payload": np.arange(300)}
        )
    ).repartition(3)
    for side, n_built in (("broadcast", 0), ("join", 1)):
        key_set_side(side)
        out = filter_unseen(new, corpus, "key", n_expected=1200, fpp=0.001).to_pandas()
        assert np.array_equal(np.sort(out["key"].to_numpy()), np.sort(fresh))
        assert set(out.columns) == {"key", "payload"}
        assert len(built) == n_built


def test_sharded_probe_no_false_negatives():
    """Direct ShardedBloomFilter build + probe_bloom: every corpus key
    tests positive, and slice refs really are separate objects."""
    from metacache_mpi_ray.stages.bloom import ShardedBloomFilter, build_bloom_sharded

    ds = _corpus_ds(800, parallelism=3)
    sb = build_bloom_sharded(ds, "key", n_expected=800, fpp=0.01, n_shards=8)
    assert isinstance(sb, ShardedBloomFilter)
    assert sb.n_shards == 8
    got = probe_bloom(ds, sb, "key").to_pandas()
    assert got["might_seen"].all()


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_sharded_filter_empty_inputs(mode, key_set_side):
    """An empty frontier through a ShardedBloomFilter has no unseen
    rows, and an empty corpus leaves every frontier row unseen, on
    both sides of the key-set bound (regression: the shard-routed
    probe of an empty batch raised AttributeError)."""
    from metacache_mpi_ray.stages.bloom import build_bloom_sharded

    corpus = _corpus_ds(300)
    empty = ray.data.from_arrow(pa.table({"key": pa.array([], type=pa.int64())}))
    new = ray.data.from_arrow(pa.table({"key": np.arange(5, dtype=np.int64)}))
    sb = build_bloom_sharded(corpus, "key", n_expected=300)
    sb_empty = build_bloom_sharded(empty, "key", n_expected=300)
    for side in ("broadcast", "join"):
        key_set_side(side)
        assert filter_unseen(empty, corpus, "key", 300, mode=mode, bloom=sb).count() == 0
        out = filter_unseen(new, empty, "key", 300, mode=mode, bloom=sb_empty).to_pandas()
        assert sorted(out["key"]) == list(range(5))


def test_filter_unseen_consumes_new_ds_once(tmp_path):
    """filter_unseen's exact paths read new_ds more than once logically;
    the rows seen by every pass must be IDENTICAL even when the input
    lineage is nondeterministic across executions (e.g. limit over a
    parallel read). Regression: a 1M-corpus frontier via limit() leaked
    28k-46k phantom 'unseen' rows that varied across runs. The flaky
    map below emits a corpus key only from the SECOND execution on — if
    new_ds were re-executed per pass, that key would miss the
    positive-set pass and leak out as unseen."""
    import os

    corpus = _corpus_ds(300)
    marker = str(tmp_path / "first_exec")

    def flaky(t: pa.Table) -> pa.Table:
        if not os.path.exists(marker):
            open(marker, "w").write("x")
            return t.filter(pa.array(t["key"].to_numpy() != 17))
        return t

    # corpus keys are i*7+3: 3, 10, 17 are all present in the corpus
    new = (
        ray.data.from_arrow(
            pa.table({"key": pa.array([3, 10, 17], type=pa.int64())})
        )
        .map_batches(flaky, batch_format="pyarrow")
    )
    out = filter_unseen(new, corpus, "key", n_expected=300).to_pandas()
    # every emitted key is in the corpus: nothing unseen
    assert len(out) == 0
