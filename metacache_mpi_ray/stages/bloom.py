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
- **Sizing**: a Bloom filter is O(n) bits (~1.2 bytes a key at fpp
  1%). ``filter_unseen`` builds the whole filter while its bitmap is
  at most ``joins.KEY_SET_BROADCAST_BYTES`` (256 MiB, ~2*10^8 keys at
  1%), the bound every broadcast key set in the engine shares; past it
  the build and probe take the shard-keyed path
  (``ShardedBloomFilter``): slices live as separate object refs and
  probe rows are exchanged on their shard, with per-task memory
  bounded by the slices a partition touches.
- **Exactness**: ``filter_unseen`` marks each new row once through
  ``probe_bloom`` (either filter kind) and uses the marks only to
  PRUNE. A bloom negative is definitely new; the positives (``true_seen
  + fpp * |batch|`` rows) are exact-verified against the corpus key
  hashes — broadcast while that set fits the same bound, else one
  keyed exchange — so results are exact and DuckDB-oracle-checkable
  (anti-join semantics). ``mode="approx"`` skips the verify for callers
  that accept the documented fpp.

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

from metacache_mpi_ray.functions.blocks import assemble_sorted_i64, hash_exchange
from metacache_mpi_ray.functions.hashing import (
    arrow_string_buffer,
    doc_hashes_from_buffer,
    mix2,
)
from metacache_mpi_ray.stages import joins
from metacache_mpi_ray.stages.verify import lookup_sorted
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
    """Degrade path past ``joins.KEY_SET_BROADCAST_BYTES``: the shard
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
):
    """Rows of ``new_ds`` whose key does not appear in ``corpus_ds``.

    The Bloom filter over the corpus keys (built here unless ``bloom``
    is given: a ``ShardedBloomFilter`` when its bitmap would exceed
    ``joins.KEY_SET_BROADCAST_BYTES``, else a ``BloomFilter``) marks
    each new row once through ``probe_bloom``. A negative is
    definitely new. ``mode="approx"`` returns the negatives: exact up
    to the filter's fpp (a false positive drops a genuinely-new row;
    never the reverse). ``mode="exact"`` also keeps the positives whose
    key hash no corpus key has: while their distinct hashes fit
    ``joins.KEY_SET_BROADCAST_BYTES`` they are broadcast and one corpus
    scan finds the seen ones, else one keyed exchange on the hash.
    """
    if bloom is None:
        m_total, _k = bloom_params(n_expected, fpp)
        if m_total // 8 > joins.KEY_SET_BROADCAST_BYTES:
            bloom = build_bloom_sharded(corpus_ds, col, n_expected, fpp=fpp, seed=seed)
        else:
            bloom = build_bloom(
                corpus_ds, col, n_expected, fpp=fpp, n_shards=n_shards, seed=seed
            )

    def negatives(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(t["__might"])).drop_columns(["__might"])

    marked = probe_bloom(new_ds, bloom, col, "__might")
    if mode == "approx":
        return marked.map_batches(negatives, batch_format="pyarrow")
    # the exact path reads the marked rows more than once: materialize
    # them so a lazy nondeterministic upstream (limit over a parallel
    # read, a sample) cannot hand DIFFERENT rows to the reads (measured:
    # a limit(50k) frontier over a 1M corpus returned 28k-46k phantom
    # unseen rows, varying across runs, where the answer is 0)
    marked = marked.materialize()

    def distinct_hashes(t: pa.Table) -> pa.Table:
        h1, _ = key_hashes(t, col, seed)
        return pa.table({"_h1": pa.array(np.unique(h1).view(np.int64))})

    pos = marked.map_batches(
        lambda t: distinct_hashes(t.filter(t["__might"])), batch_format="pyarrow"
    ).materialize()
    if pos.count() * 8 <= joins.KEY_SET_BROADCAST_BYTES:
        # broadcast the positive key hashes; one corpus scan keeps the
        # ones it holds (the found set, at most as large)
        pos_ref = assemble_sorted_i64(pos, "_h1")

        def found(t: pa.Table) -> pa.Table:
            k = distinct_hashes(t)
            return k.filter(pa.array(lookup_sorted(ray.get(pos_ref), k["_h1"].to_numpy())[1]))

        found_ref = assemble_sorted_i64(
            corpus_ds.map_batches(found, batch_format="pyarrow").materialize(), "_h1"
        )

        def unseen(t: pa.Table) -> pa.Table:
            h1 = key_hashes(t, col, seed)[0].view(np.int64)
            seen = lookup_sorted(ray.get(found_ref), h1)[1]
            return t.filter(pa.array(~seen)).drop_columns(["__might"])

        return marked.map_batches(unseen, batch_format="pyarrow")

    # past the bound the positive rows meet the corpus key hashes in ONE
    # two-input exchange on the hash; the negatives pass untouched
    def positives(t: pa.Table) -> pa.Table:
        t = t.filter(t["__might"]).drop_columns(["__might"])
        return t.append_column("_h1", pa.array(key_hashes(t, col, seed)[0].view(np.int64)))

    def unseen_part(p: pa.Table, keys: pa.Table) -> pa.Table:
        if p.num_columns == 0:
            return p  # no positives anywhere
        k = np.sort(keys["_h1"].to_numpy()) if keys.num_rows else np.empty(0, np.int64)
        return p.filter(pa.array(~lookup_sorted(k, p["_h1"].to_numpy())[1])).drop_columns(["_h1"])

    unseen_pos = hash_exchange(
        [
            marked.map_batches(positives, batch_format="pyarrow"),
            corpus_ds.map_batches(distinct_hashes, batch_format="pyarrow"),
        ],
        ["_h1"],
        unseen_part,
        num_partitions=joins.default_num_partitions(minimum=2),
    )
    return marked.map_batches(negatives, batch_format="pyarrow").union(unseen_pos)
