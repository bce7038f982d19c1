"""Per-kernel seconds of the sign path, in one process.

Usage: python tools/profile_sign.py [--runs N] [--seed S]

Builds the perfbench web_mix and dup_heavy corpora (8000 docs each),
cuts them into the 333-row blocks Ray Data hands the flagship's sign
tasks, and times each step of a block's way from pages to split band
and signature rows, the way ``banding.sign_split`` runs them:

  normalize   resolve_text_batch (HTML fill + norm-v1)
  text_hash   ingest's whole-text hash of norm_text
  shingle     shingle_hashes_from_buffer, per signing slice
  oph         oph_minhash_from_shingles, per signing slice
  band_split  band_key_rows + the bkey and doc_id splits (4 shards)

Prints seconds per 8000 docs for each step, the median of N runs.
"""
import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

BLOCK_ROWS = 333
SHARDS = 4
STEPS = ("normalize", "text_hash", "shingle", "oph", "band_split")


def profile(pages, cfg) -> dict:
    """Seconds of each step over every block of ``pages``."""
    import numpy as np
    import pyarrow as pa

    from metacache_mpi_ray.functions.blocks import split_by_key
    from metacache_mpi_ray.functions.hashing import (
        arrow_string_buffer,
        doc_hashes_from_buffer,
        shingle_hashes_from_buffer,
    )
    from metacache_mpi_ray.functions.text import resolve_text_batch
    from metacache_mpi_ray.stages.banding import band_key_rows
    from metacache_mpi_ray.stages.signatures import (
        oph_minhash_from_shingles,
        sig_to_arrow,
        sign_slices,
    )

    secs = dict.fromkeys(STEPS, 0.0)
    for lo in range(0, pages.num_rows, BLOCK_ROWS):
        block = pages.slice(lo, BLOCK_ROWS)
        t0 = time.perf_counter()
        docs = resolve_text_batch(block)
        t1 = time.perf_counter()
        data, starts, ends = arrow_string_buffer(docs["norm_text"])
        text_hash = doc_hashes_from_buffer(data, starts, ends, 22)
        t2 = time.perf_counter()
        sigs = []
        for i, j in sign_slices(starts, ends):
            t3 = time.perf_counter()
            hashes, offsets = shingle_hashes_from_buffer(
                data, starts[i:j], ends[i:j], cfg.shingle_k, cfg.seed
            )
            t4 = time.perf_counter()
            sigs.append(oph_minhash_from_shingles(hashes, offsets, cfg.n_perms))
            secs["shingle"] += t4 - t3
            secs["oph"] += time.perf_counter() - t4
        t5 = time.perf_counter()
        sig = pa.table(
            {
                "doc_id": pa.array(np.arange(lo, lo + len(starts), dtype=np.int64)),
                "text_hash": pa.array((text_hash >> np.uint64(1)).astype(np.int64)),
                "sig": sig_to_arrow(np.concatenate(sigs)),
            }
        )
        split_by_key(band_key_rows(sig, cfg), ["bkey"], SHARDS)
        split_by_key(sig, ["doc_id"], SHARDS)
        secs["normalize"] += t1 - t0
        secs["text_hash"] += t2 - t1
        secs["band_split"] += time.perf_counter() - t5
    return secs


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=7)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args()

    from metacache_mpi_ray.config import DedupConfig
    from perfbench import corpora

    cfg = DedupConfig()
    n_docs = 8000
    print(f"seconds per {n_docs} docs, {BLOCK_ROWS}-row blocks, median of {args.runs}")
    print(f"{'workload':<10}" + "".join(f"{s:>11}" for s in STEPS) + f"{'shingle+oph':>13}")
    for name, make in (("web_mix", corpora.web_mix_pages), ("dup_heavy", corpora.dup_heavy_pages)):
        pages, _truth = make(n_docs, args.seed)
        profile(pages, cfg)  # warm: pow caches, allocator
        runs = [profile(pages, cfg) for _ in range(args.runs)]
        med = {s: statistics.median(r[s] for r in runs) for s in STEPS}
        both = statistics.median(r["shingle"] + r["oph"] for r in runs)
        print(f"{name:<10}" + "".join(f"{med[s]:>11.3f}" for s in STEPS) + f"{both:>13.3f}")


if __name__ == "__main__":
    main()
