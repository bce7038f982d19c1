"""Sharded Bloom filter: crawl-frontier membership at web scale.

The reference's only membership structure is the feature multimap
itself (exact probe, /root/reference/src/sketch_database.h:804-833);
the web-crawl analog a 10^12-document pipeline needs is "has this
url / content hash been ingested before?" answered WITHOUT shuffling
the whole corpus against every incoming batch.

Design (scale notes):

- **Build is one key exchange, never a bitmap shuffle.** Keys hash to
  ``(h1, h2)`` u64 pairs inside ``map_batches`` (zero-copy from Arrow
  buffers for string keys); rows of 20 bytes take one
  ``functions/blocks.hash_exchange`` on their shard, and each reduce
  sets the ``m/n_shards``-bit slice of every shard it holds with one
  vectorized scatter (``_shard_bitmaps``, shared by both builds).
  Shipping per-block partial bitmaps instead would move ``#blocks x m/8`` bytes — at m = 10^10 bits that
  is the difference between a few GB of key rows and terabytes.
- **Probe is broadcast + vectorized bit tests.** The assembled filter
  (one ``(n_shards, m_shard/64)`` u64 matrix) is ``ray.put`` once and
  every probe batch tests k double-hashed positions
  (Kirsch–Mitzenmacher, public technique) with numpy gathers.
- **Sizing**: a Bloom filter is O(n) bits, so a single broadcastable
  filter covers frontiers up to ~10^10 keys on 128 GiB nodes
  (~12 GB at fpp 1%). Past ``bitmap_broadcast_limit`` the build and
  probe degrade automatically to the shard-keyed path
  (``ShardedBloomFilter``): slices live as separate object refs and
  probe rows are exchanged on their shard, with per-task memory
  bounded by the slices a partition touches.
- **Exactness**: ``filter_unseen`` uses the filter only to PRUNE. A
  bloom negative is definitely-new; the (rare) positives are
  exact-verified against the corpus keys with a broadcast semi-join
  bounded by ``true_seen + fpp * |batch|`` rows, so results are exact
  and DuckDB-oracle-checkable (anti-join semantics). ``mode="approx"``
  skips the verify scan for callers that accept the documented fpp.

Key identity convention: a key IS its 64-bit content hash, matching
the engine's exact-dedup convention (8-byte raw-hash shuffle,
pipelines/queries.py:_docs_raw_hashed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from metacache_mpi_ray.functions.hashing import (
    arrow_string_buffer,
    doc_hashes_from_buffer,
    mix2,
)
from metacache_mpi_ray.stages.windows import _group_exchange

U64 = np.uint64
_SHARD_MIX = 0xD6E8FEB86659FD93


def key_hashes(t: pa.Table, col: str, seed: int = 101) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (h1, h2) u64 hash pair for ``t[col]``.

    String columns hash zero-copy from the Arrow buffer; integer
    columns through the splitmix/murmur mixer chain. h2 is forced odd
    so the double-hash stride never degenerates to a fixed point.
    """
    c = t[col]
    if isinstance(c, pa.ChunkedArray):
        c = c.combine_chunks()
    if pa.types.is_string(c.type) or pa.types.is_large_string(c.type):
        data, starts, ends = arrow_string_buffer(c)
        h1 = doc_hashes_from_buffer(data, starts, ends, seed=seed)
    else:
        base = c.to_numpy(zero_copy_only=False).astype(np.int64).view(U64)
        h1 = mix2(base, seed)
    h2 = mix2(h1, seed + 0x9E37) | U64(1)
    return h1, h2


def bloom_params(n_expected: int, fpp: float) -> tuple[int, int]:
    """(m_bits, k) for ``n_expected`` keys at false-positive rate ``fpp``."""
    n = max(1, n_expected)
    m = int(math.ceil(-n * math.log(fpp) / (math.log(2) ** 2)))
    k = max(1, min(16, round(m / n * math.log(2))))
    return m, k


@dataclass(frozen=True)
class BloomFilter:
    """Assembled sharded filter; broadcast whole via ``ray.put``."""

    bits: np.ndarray  # (n_shards, m_shard // 64) uint64
    m_shard: int  # bits per shard
    k: int
    seed: int

    @property
    def n_shards(self) -> int:
        return self.bits.shape[0]

    def shard_of(self, h1: np.ndarray) -> np.ndarray:
        return (mix2(h1, _SHARD_MIX) % U64(self.n_shards)).astype(np.int64)

    def might_contain(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Vectorized membership test (no false negatives)."""
        if len(h1) == 0:
            return np.zeros(0, dtype=bool)
        sh = self.shard_of(h1)
        m = U64(self.m_shard)
        res = np.ones(len(h1), dtype=bool)
        for i in range(self.k):
            pos = (h1 + U64(i) * h2) % m
            word = self.bits[sh, (pos >> U64(6)).astype(np.int64)]
            res &= (word >> (pos & U64(63))) & U64(1) == U64(1)
        return res


@dataclass(frozen=True)
class ShardedBloomFilter:
    """Degrade path past the broadcast limit (~10^10 keys): the shard
    bitmap slices stay in the object store as SEPARATE refs — the full
    bitmap is never assembled on the driver or shipped as one object.
    Probes route rows to their shard (one keyed exchange on the shard
    id) so each probe task pulls only the slices its rows touch."""

    shard_refs: tuple  # ObjectRef per shard -> (m_shard // 64,) uint64
    m_shard: int
    k: int
    seed: int

    @property
    def n_shards(self) -> int:
        return len(self.shard_refs)

    def shard_of(self, h1: np.ndarray) -> np.ndarray:
        return (mix2(h1, _SHARD_MIX) % U64(self.n_shards)).astype(np.int64)


def _test_bits(w: np.ndarray, h1: np.ndarray, h2: np.ndarray, k: int, m_shard: int) -> np.ndarray:
    """k double-hashed bit tests against ONE shard slice ``w``."""
    m = U64(m_shard)
    res = np.ones(len(h1), dtype=bool)
    for i in range(k):
        pos = (h1 + U64(i) * h2) % m
        word = w[(pos >> U64(6)).astype(np.int64)]
        res &= (word >> (pos & U64(63))) & U64(1) == U64(1)
    return res


@ray.remote
def _put_shard_slices(tab: pa.Table):
    """Re-put each shard bitmap as its own object IN A TASK — the
    bytes go block -> object store without touching the driver heap."""
    out = []
    for i in range(len(tab)):
        sh = tab["shard"][i].as_py()
        w = np.frombuffer(tab["bits"][i].as_py(), dtype=U64)
        out.append((int(sh), ray.put(w)))
    return out


def _shard_bitmaps(ds, col: str, n_shards: int, m_total: int, k: int, seed: int):
    """The shared build: key hash rows (20 bytes each) take ONE
    ``hash_exchange`` on their shard, and each reduce scatters every
    shard it holds into its ``m_shard``-bit slice. Returns (Dataset of
    one (shard, bits) row per shard that saw a key, m_shard)."""
    m_shard = ((-(-m_total // n_shards) + 63) // 64) * 64
    m = U64(m_shard)

    def emit(t: pa.Table) -> pa.Table:
        h1, h2 = key_hashes(t, col, seed)
        sh = (mix2(h1, _SHARD_MIX) % U64(n_shards)).astype(np.int32)
        return pa.table({"shard": sh, "h1": h1, "h2": h2})

    def scatter(t: pa.Table, starts, sizes) -> pa.Table:
        h1 = t["h1"].to_numpy(zero_copy_only=False)
        h2 = t["h2"].to_numpy(zero_copy_only=False)
        row = np.repeat(np.arange(len(starts)), sizes)  # slice of each key
        words = np.zeros((len(starts), m_shard // 64), dtype=U64)
        for i in range(k):
            pos = (h1 + U64(i) * h2) % m
            np.bitwise_or.at(
                words,
                (row, (pos >> U64(6)).astype(np.int64)),
                U64(1) << (pos & U64(63)),
            )
        return pa.table(
            {
                "shard": t["shard"].take(pa.array(starts, type=pa.int64())),
                "bits": pa.array([w.tobytes() for w in words], type=pa.large_binary()),
            }
        )

    emitted = ds.map_batches(emit, batch_format="pyarrow")
    return _group_exchange(emitted, ["shard"], scatter), m_shard


def build_bloom_sharded(
    ds,
    col: str,
    n_expected: int,
    fpp: float = 0.01,
    n_shards: int | None = None,
    seed: int = 101,
    max_shard_bytes: int = 256 << 20,
) -> ShardedBloomFilter:
    """Build the shard-slice filter. Same one-key-exchange build as
    ``build_bloom`` (never a bitmap shuffle); the only difference is
    assembly — per-shard slices are re-put as separate objects instead
    of collected into one matrix. ``n_shards`` auto-sizes so each
    slice stays under ``max_shard_bytes``."""
    m_total, k = bloom_params(n_expected, fpp)
    if n_shards is None:
        n_shards = max(16, -(-(m_total // 8) // max_shard_bytes))
    rows, m_shard = _shard_bitmaps(ds, col, n_shards, m_total, k, seed)
    refs: list = [None] * n_shards
    for blk in rows.to_arrow_refs():
        for sh, r in ray.get(_put_shard_slices.remote(blk)):
            refs[sh] = r
    # shards that saw no keys share ONE all-zero slice
    zero_ref = None
    for i in range(n_shards):
        if refs[i] is None:
            if zero_ref is None:
                zero_ref = ray.put(np.zeros(m_shard // 64, dtype=U64))
            refs[i] = zero_ref
    return ShardedBloomFilter(
        shard_refs=tuple(refs), m_shard=m_shard, k=k, seed=seed
    )


def build_bloom(
    ds,
    col: str,
    n_expected: int,
    fpp: float = 0.01,
    n_shards: int = 16,
    seed: int = 101,
) -> BloomFilter:
    """Build a sharded Bloom filter over ``ds[col]``.

    One 20-byte-per-key ``hash_exchange`` on the shard id, one
    vectorized scatter per shard in its reduce; the shard count is
    ``n_shards`` (bounded, so the per-shard Python is O(n_shards), not
    O(keys)).
    """
    m_total, k = bloom_params(n_expected, fpp)
    rows, m_shard = _shard_bitmaps(ds, col, n_shards, m_total, k, seed)
    bits = np.zeros((n_shards, m_shard // 64), dtype=U64)
    for r in rows.take_all():
        bits[int(r["shard"])] = np.frombuffer(r["bits"], dtype=U64)
    return BloomFilter(bits=bits, m_shard=m_shard, k=k, seed=seed)


def probe_bloom(ds, bloom, col: str, out_col: str = "might_seen"):
    """Append a boolean bloom-membership column (approximate: false
    positives at the filter's fpp, never false negatives). Accepts a
    ``BloomFilter`` (whole-filter broadcast) or a
    ``ShardedBloomFilter`` (shard-routed probe — see below)."""
    if isinstance(bloom, ShardedBloomFilter):
        return _probe_bloom_sharded(ds, bloom, col, out_col)
    ref = ray.put(bloom)

    def f(t: pa.Table) -> pa.Table:
        b = ray.get(ref)
        h1, h2 = key_hashes(t, col, b.seed)
        return t.append_column(out_col, pa.array(b.might_contain(h1, h2)))

    return ds.map_batches(f, batch_format="pyarrow")


def _probe_bloom_sharded(ds, sb: ShardedBloomFilter, col: str, out_col: str):
    """Shard-keyed probe: one ``hash_exchange`` on the rows' shard id,
    and each reduce groups its rows by shard and pulls ONLY the bitmap
    slices of the shards it holds, each once. Worker memory = touched
    slices, not the filter; no single object ever carries the whole
    bitmap. Output row order follows the exchange (Dataset contract:
    order is not part of probe semantics)."""
    refs = sb.shard_refs
    k, m_shard, seed = sb.k, sb.m_shard, sb.seed

    def tag(t: pa.Table) -> pa.Table:
        h1, h2 = key_hashes(t, col, seed)
        return (
            t.append_column("__shard", pa.array(sb.shard_of(h1), type=pa.int64()))
            .append_column("__h1", pa.array(h1.view(np.int64), type=pa.int64()))
            .append_column("__h2", pa.array(h2.view(np.int64), type=pa.int64()))
        )

    def test(t: pa.Table, starts, sizes) -> pa.Table:
        sh = t["__shard"].to_numpy(zero_copy_only=False)
        h1 = t["__h1"].to_numpy(zero_copy_only=False).view(U64)
        h2 = t["__h2"].to_numpy(zero_copy_only=False).view(U64)
        res = np.zeros(len(sh), dtype=bool)
        for s0, s1 in zip(starts.tolist(), (starts + sizes).tolist()):
            w = ray.get(refs[int(sh[s0])])
            res[s0:s1] = _test_bits(w, h1[s0:s1], h2[s0:s1], k, m_shard)
        return t.drop_columns(["__shard", "__h1", "__h2"]).append_column(
            out_col, pa.array(res)
        )

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    return _group_exchange(tagged, ["__shard"], test)


def filter_unseen(
    new_ds,
    corpus_ds,
    col: str,
    n_expected: int,
    fpp: float = 0.01,
    n_shards: int = 16,
    seed: int = 101,
    mode: str = "exact",
    bloom: "BloomFilter | ShardedBloomFilter | None" = None,
    strategy: str = "auto",
    broadcast_bytes_limit: int = 2 << 30,
    n_new: int | None = None,
    bitmap_broadcast_limit: int = 2 << 30,
):
    """Rows of ``new_ds`` whose key does not appear in ``corpus_ds``.

    Bloom prune -> (exact mode) verify the positives against the
    corpus keys. Two exact strategies (``strategy="auto"`` picks by
    the positive-set bound ``|new| * 8`` bytes vs
    ``broadcast_bytes_limit``):

    - ``broadcast``: ship the positive hash set (``true_seen + fpp *
      |new|`` u64s) to the workers and scan the corpus key column once
      — no corpus-sized structure ever reaches the driver; right when
      the incoming batch is small relative to the corpus (the frontier
      case).
    - ``join``: bloom-negative rows pass straight through (no
      shuffle); only the positives take a hash-partitioned left-outer
      join against the distinct corpus keys (8-byte rows) — nothing is
      ever collected to the driver, for batch sizes where even the
      positive set outgrows one object.

    ``mode="approx"`` returns the pruned set directly: exact up to the
    documented fpp (a false positive drops a genuinely-new row; never
    the reverse). ``n_new`` (row-count hint for ``auto``) avoids a
    count() execution of ``new_ds`` when the caller already knows it.

    When the filter bitmap itself would exceed
    ``bitmap_broadcast_limit`` bytes (n_expected past ~10^10 keys at
    1% fpp on default limits), the build/probe degrade to the
    shard-keyed path automatically: slices stay as separate object
    refs and probes route rows to their shard — identical results,
    bounded worker memory.
    """
    if mode != "approx":
        # the exact paths consume new_ds TWICE (positive-set emission +
        # the final filter, or the neg/pos split): materialize once so
        # a lazy nondeterministic upstream (limit over a parallel read,
        # a sample) cannot hand DIFFERENT rows to the two passes — rows
        # missing from the first pass never enter the positive set, are
        # never looked up in the corpus, and leak out as phantom
        # "unseen" rows (measured: a limit(50k) frontier over a 1M
        # corpus returned 28k-46k unseen rows, varying across runs,
        # where the true answer is 0)
        new_ds = new_ds.materialize()
    if bloom is None:
        m_total, _k = bloom_params(n_expected, fpp)
        if m_total // 8 > bitmap_broadcast_limit:
            bloom = build_bloom_sharded(
                corpus_ds, col, n_expected, fpp=fpp, seed=seed
            )
        else:
            bloom = build_bloom(
                corpus_ds, col, n_expected, fpp=fpp, n_shards=n_shards, seed=seed
            )

    if isinstance(bloom, ShardedBloomFilter):
        # shard-keyed degrade path: membership marks come from the
        # shard-routed probe; everything downstream (exact verify /
        # join) consumes the marked rows, never the filter itself
        marked = probe_bloom(new_ds, bloom, col, "__might")
        if mode == "approx":
            return marked.map_batches(
                lambda t: t.filter(pc.invert(t["__might"])).drop_columns(
                    ["__might"]
                ),
                batch_format="pyarrow",
            )
        marked = marked.materialize()
        if strategy == "auto":
            est = n_new if n_new is not None else new_ds.count()
            strategy = "broadcast" if est * 8 <= broadcast_bytes_limit else "join"
        if strategy == "join":
            out_cols = [c for c in marked.schema().names if c != "__might"]
            neg = marked.map_batches(
                lambda t: t.filter(pc.invert(t["__might"])).drop_columns(
                    ["__might"]
                ),
                batch_format="pyarrow",
            )

            def pos_h1(t: pa.Table) -> pa.Table:
                t = t.filter(t["__might"]).drop_columns(["__might"])
                h1, _ = key_hashes(t, col, seed)
                return t.append_column("_h1", pa.array(h1.view(np.int64)))

            pos_ds = marked.map_batches(pos_h1, batch_format="pyarrow").materialize()
            return _anti_join_positives(neg, pos_ds, corpus_ds, col, seed, out_cols)

        def emit_pos_sharded(t: pa.Table) -> pa.Table:
            h1, _ = key_hashes(t, col, seed)
            return pa.table(
                {"h1": np.unique(h1[t["__might"].to_numpy(zero_copy_only=False)])}
            )

        pos = np.unique(
            np.concatenate(
                [
                    b["h1"].to_numpy(zero_copy_only=False).view(U64)
                    for b in marked.map_batches(
                        emit_pos_sharded, batch_format="pyarrow"
                    ).iter_batches(batch_size=None, batch_format="pyarrow")
                ]
                or [np.empty(0, dtype=U64)]
            )
        )
        return _verify_positives_broadcast(new_ds, corpus_ds, col, seed, pos)

    bref = ray.put(bloom)

    if mode == "approx":

        def keep_neg(t: pa.Table) -> pa.Table:
            b = ray.get(bref)
            h1, h2 = key_hashes(t, col, b.seed)
            return t.filter(pa.array(~b.might_contain(h1, h2)))

        return new_ds.map_batches(keep_neg, batch_format="pyarrow")

    if strategy == "auto":
        est = n_new if n_new is not None else new_ds.count()
        strategy = "broadcast" if est * 8 <= broadcast_bytes_limit else "join"
    if strategy == "join":
        return _filter_unseen_join(new_ds, corpus_ds, col, seed, bref)

    # broadcast: collect positive h1 values (small by construction)
    def emit_pos(t: pa.Table) -> pa.Table:
        b = ray.get(bref)
        h1, h2 = key_hashes(t, col, b.seed)
        return pa.table({"h1": np.unique(h1[b.might_contain(h1, h2)])})

    pos = np.unique(
        np.concatenate(
            [
                b["h1"].to_numpy(zero_copy_only=False).view(U64)
                for b in new_ds.map_batches(
                    emit_pos, batch_format="pyarrow"
                ).iter_batches(batch_size=None, batch_format="pyarrow")
            ]
            or [np.empty(0, dtype=U64)]
        )
    )
    return _verify_positives_broadcast(new_ds, corpus_ds, col, seed, pos)


def _verify_positives_broadcast(new_ds, corpus_ds, col: str, seed: int, pos: np.ndarray):
    """Exact-verify bloom positives: one corpus key-column scan against
    the broadcast positive set, then one pass over new rows dropping
    true hits."""
    pos_ref = ray.put(pos)

    def emit_found(t: pa.Table) -> pa.Table:
        p = ray.get(pos_ref)
        if len(p) == 0:
            return pa.table({"h1": np.empty(0, dtype=U64)})
        h1, _ = key_hashes(t, col, seed)
        idx = np.searchsorted(p, h1)
        idx[idx == len(p)] = 0
        return pa.table({"h1": np.unique(h1[p[idx] == h1])})

    found = np.unique(
        np.concatenate(
            [
                b["h1"].to_numpy(zero_copy_only=False).view(U64)
                for b in corpus_ds.map_batches(
                    emit_found, batch_format="pyarrow"
                ).iter_batches(batch_size=None, batch_format="pyarrow")
            ]
            or [np.empty(0, dtype=U64)]
        )
    )
    found_ref = ray.put(found)

    def keep_unseen(t: pa.Table) -> pa.Table:
        f = ray.get(found_ref)
        h1, _ = key_hashes(t, col, seed)
        if len(f) == 0:
            return t
        idx = np.searchsorted(f, h1)
        idx[idx == len(f)] = 0
        return t.filter(pa.array(f[idx] != h1))

    return new_ds.map_batches(keep_unseen, batch_format="pyarrow")


def _filter_unseen_join(new_ds, corpus_ds, col: str, seed: int, bref):
    """Distributed exact path: negatives stream through untouched;
    positives anti-join the corpus keys (8-byte rows, one keyed
    exchange, nothing on the driver)."""
    out_cols = list(new_ds.schema().names)

    def split(keep_positive: bool):
        def f(t: pa.Table) -> pa.Table:
            b = ray.get(bref)
            h1, h2 = key_hashes(t, col, b.seed)
            m = b.might_contain(h1, h2)
            if keep_positive:
                t = t.append_column("_h1", pa.array(h1.view(np.int64)))
                return t.filter(pa.array(m))
            return t.filter(pa.array(~m))

        return f

    neg = new_ds.map_batches(split(False), batch_format="pyarrow")
    pos = new_ds.map_batches(split(True), batch_format="pyarrow").materialize()
    return _anti_join_positives(neg, pos, corpus_ds, col, seed, out_cols)


def _anti_join_positives(neg, pos, corpus_ds, col: str, seed: int, out_cols):
    """Shared tail of the join strategy: ``pos`` rows (carrying their
    key hash in ``_h1``) meet the raw corpus key hashes in ONE two-input
    ``hash_exchange`` on ``_h1``, whose reduce keeps the positives no
    corpus key matches; survivors union with the untouched negatives."""
    from metacache_mpi_ray.functions.blocks import hash_exchange
    from metacache_mpi_ray.stages.corpus_clean import _is_in_sorted
    from metacache_mpi_ray.stages.joins import default_num_partitions

    if pos.count() == 0:
        return neg  # nothing bloom-positive: every row is new

    def corpus_keys(t: pa.Table) -> pa.Table:
        h1, _ = key_hashes(t, col, seed)
        return pa.table({"_h1": pa.array(np.unique(h1).view(np.int64))})

    def unseen(p: pa.Table, keys: pa.Table) -> pa.Table:
        if p.num_rows == 0 or keys.num_rows == 0:
            return p.select(out_cols)
        k = np.sort(keys["_h1"].to_numpy(zero_copy_only=False))
        seen = _is_in_sorted(k, p["_h1"].to_numpy(zero_copy_only=False))
        return p.filter(pa.array(~seen)).select(out_cols)

    anti = hash_exchange(
        [pos, corpus_ds.map_batches(corpus_keys, batch_format="pyarrow")],
        ["_h1"],
        unseen,
        num_partitions=default_num_partitions(minimum=2),
    )
    return neg.union(anti)
