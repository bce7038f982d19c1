"""End-to-end near-duplicate detection pipeline (the flagship).

docs -> MinHash signatures -> LSH bands -> bucket star-edges (capped)
     -> signature verification (dedupes cross-band pairs) -> union-find
     -> clusters(doc_id, cluster_id, is_dup)

``near_dup_pipeline`` runs as one graph of plain Ray tasks over the
blocks of its ``docs`` input, which is the only Ray Data execution of a
pass. With P = ``num_partitions``, every split below is
``functions/blocks.split_by_key`` (the partition function of
``hash_exchange``), and each task gets its inputs as object refs:

1. sign (``_sign_pieces``, which ``build_index``, the daily batch and
   ``bucket_census`` also run), one ``banding.sign_split`` task per
   non-empty docs block, submitted as the block arrives: MinHash in
   slices of about ``signatures.SIGN_SLICE_BYTES`` of text, each one
   pass from window hashes to OPH bins (``signatures.oph_sign_rows``),
   then ``banding.split_signed``: band keys folded to ``bkey``, band
   rows split by the shard of ``bkey``, signature rows by the shard of
   ``doc_id``;
2. bucket task p: every bucket of band shard p is whole, so the star
   kernel ``candidates.star_edges`` (capped at ``cfg.bucket_cap``)
   runs as in ``bucket_edges``; distinct pairs split by the shard of ``a``;
3-4. verify (``verify.pair_score``, the one verify step, which
   ``verify_edges`` and the other verify adapters also run): pair task q
   drops duplicate (a, b) pairs (exact: every copy of a pair shares its
   ``a``), attaches sig[a] from the signature pieces of shard q and
   splits by the shard of ``b``; score task r attaches sig[b] from the
   signature pieces of shard r and keeps the pairs
   ``verify.minhash_scores`` accepts. The sign pieces are the one copy
   of each signature shard: no task concatenates or returns one;
5. components (``cluster.components``, which ``assign_clusters`` also
   runs): one spanning forest per score output, one union-find merge,
   one assign task per shard over the ``doc_id`` column of its
   signature pieces; past ``cluster.CLUSTER_DRIVER_EDGE_LIMIT``
   verified edges, distributed min-label propagation instead.

tests/test_dedup_pipeline.py checks the outputs byte for byte against
an in-process numpy reference over the whole corpus and against the
Dataset-level stage chain ``compute_signatures`` -> ``compute_bands``
-> ``bucket_edges`` -> ``verify_edges`` -> ``assign_clusters``, which
perfbench's ``--trace 1`` runs. ``pipelines/incremental.build_index``
runs this same graph with a sink that writes each shard of signatures,
bands, verified edges and clusters from a task, and the checkpointed
pipeline is a ``build_index`` over its input files. The lifecycle mirrors the
reference's build + query fused into one streaming job (SURVEY.md §3,
§7.1); its build is one streaming pass per rank that sketches a window
and inserts it into the multimap (sketch_database.h:1079-1097).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.functions.blocks import (
    doc_blocks,
    returned_refs,
    split_by_key,
    task_returns,
)
from metacache_mpi_ray.stages.banding import sign_split
from metacache_mpi_ray.stages.candidates import (
    bucket_histogram,
    distinct_pairs,
    merge_histograms,
    run_bounds,
    star_edges,
)
from metacache_mpi_ray.stages.cluster import components
from metacache_mpi_ray.stages.verify import _ids, pair_score, sig_payload, sig_scores

_PAIRS = pa.schema([("a", pa.int64()), ("b", pa.int64())])
_VERIFIED = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("est_sim", pa.float64())])


@dataclass
class DedupResult:
    verified_edges: "ray.data.Dataset"
    clusters: "ray.data.Dataset"


@ray.remote
def _bucket_task(cap: int, shards: int, *pieces):
    """Bucket task p: band pieces (bkey, doc_id) of shard p -> the
    distinct star pairs of its buckets, split by the shard of ``a``."""
    parts = [t for t in pieces if t.num_rows]
    if not parts:
        return task_returns([_PAIRS.empty_table()] * shards)
    t = pa.concat_tables(parts)
    keys = _ids(t, "bkey")
    order = np.argsort(keys, kind="stable")
    a, b = star_edges(_ids(t, "doc_id")[order], *run_bounds(keys[order]), cap)
    pairs = pa.table(distinct_pairs(a, b), schema=_PAIRS)
    return task_returns(split_by_key(pairs, ["a"], shards))


def _sign_pieces(blocks, cfg: DedupConfig, shards: int):
    """Step 1 of the graph, the sign step of every MinHash caller: docs
    block refs -> (band pieces, signature pieces), each a list per shard
    of one ref per block. A task is submitted as each ref comes, so a
    ``doc_blocks`` walk signs while its dataset executes."""
    sign = sign_split.options(num_returns=2 * shards)
    band_pieces = [[] for _ in range(shards)]
    sig_pieces = [[] for _ in range(shards)]
    for ref in blocks:
        out = sign.remote(ref, cfg, shards)
        for p in range(shards):
            band_pieces[p].append(out[p])
            sig_pieces[p].append(out[shards + p])
    return band_pieces, sig_pieces


@ray.remote
def _census_task(*pieces) -> pa.Table:
    """Census task p: the band pieces of shard p, where every bucket is
    whole -> the histogram of their bucket sizes."""
    return bucket_histogram([_ids(t, "bkey") for t in pieces])


def bucket_census(docs, cfg: DedupConfig, num_partitions: int | None = None) -> pa.Table:
    """The (bucket_size, n_buckets) histogram of the band buckets of a
    canonical ``docs`` dataset: step 1 of the graph, then one census
    task per band shard (the kernel ``info`` runs over band files)."""
    from metacache_mpi_ray.stages.joins import default_num_partitions

    shards = max(1, int(num_partitions or default_num_partitions()))
    band_pieces, _ = _sign_pieces((ref for ref, _ in doc_blocks(docs)), cfg, shards)
    return merge_histograms(ray.get([_census_task.remote(*ps) for ps in band_pieces]))


def _score_graph(band_pieces, sig_pieces, cfg: DedupConfig, shards: int):
    """Steps 2-4 of the graph over the pieces of every shard ->
    (verified refs, verified count refs)."""
    bucket = _bucket_task.options(num_returns=shards)
    buckets = [
        returned_refs(bucket.remote(cfg.bucket_cap, shards, *band_pieces[p]), shards)
        for p in range(shards)
    ]
    return pair_score(
        [[bk[q] for bk in buckets] for q in range(shards)],
        sig_pieces,
        id_col="doc_id",
        pack=sig_payload,
        score=partial(sig_scores, threshold=cfg.verify_threshold),
        value_col="est_sim",
        value_type=pa.float64(),
    )


def _substring_edges(blocks: list, cfg: DedupConfig, num_partitions: int):
    """Exact long-match substring edges (suffix/anchor stage, F6 analog)
    over the docs blocks the graph already holds, as (a, b, est_sim=1)
    rows: docs sharing an exact span >= ~min_match_len are duplicates
    even when whole-doc Jaccard is below threshold."""
    from metacache_mpi_ray.stages.substring import substring_dup_edges

    def strip(t: pa.Table) -> pa.Table:
        return pa.table(
            [t["a"], t["b"], pa.array(np.full(len(t), 1.0), type=pa.float64())],
            schema=_VERIFIED,
        )

    return (
        substring_dup_edges(rd.from_arrow_refs(blocks), cfg, num_partitions=num_partitions)
        .map_batches(strip, batch_format="pyarrow")
        .materialize()
    )


def near_dup_pipeline(
    docs: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
    *,
    num_partitions: int | None = None,
    include_substring: bool = False,
) -> DedupResult:
    """Run the full MinHash/LSH dedup over a canonical ``docs`` dataset
    as one graph of plain Ray tasks (module docstring).

    Every field of the result is a ref-backed dataset of
    ``num_partitions`` blocks (the verified edges also hold the
    substring stage's blocks with ``include_substring``). To keep the
    shards on disk, build an index (``pipelines/incremental.build_index``).
    """
    from metacache_mpi_ray.stages.joins import default_num_partitions

    cfg = cfg or DedupConfig()
    if num_partitions is None:
        num_partitions = default_num_partitions()
    shards = max(1, int(num_partitions))
    blocks = (ref for ref, _ in doc_blocks(docs))
    if include_substring:  # listed first: the substring stage reads them again
        blocks = list(blocks)
    band_pieces, sig_pieces = _sign_pieces(blocks, cfg, shards)
    verified_refs, counts = _score_graph(band_pieces, sig_pieces, cfg, shards)
    n_edges = 0
    if include_substring and blocks:
        sub = _substring_edges(blocks, cfg, shards)
        verified_refs += sub.to_arrow_refs()
        n_edges = sub.count()
    n_edges += sum(ray.get(counts))
    # submitted before the datasets below block on block metadata
    cluster_refs = components(sig_pieces, verified_refs, n_edges)
    return DedupResult(
        verified_edges=rd.from_arrow_refs(verified_refs),
        clusters=rd.from_arrow_refs(cluster_refs),
    )
