"""Per-kernel seconds of the ingest + sign path, in one process.

Usage: python tools/profile_sign.py [--runs N] [--seed S]

Builds the perfbench web_mix and dup_heavy corpora (8000 docs each),
cuts them into the 333-row blocks Ray Data hands the flagship's sign
tasks, and times the engine's own calls on each block's way from pages
to split band and signature rows:

  normalize   functions/text.resolve_text_batch (HTML fill + norm-v1)
  doc_hashes  ingest's _col_hash_i63 of url (doc_id) and norm_text
              (text_hash)
  sign        signatures.sign_rows over signatures.sign_slices
  band_split  banding.split_signed, the body of the sign_split task
              (band keys, then the bkey and doc_id splits; 4 shards)

Prints seconds per 8000 docs for each step, the median of N runs, and
the median of the per-run sums.
"""
import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

BLOCK_ROWS = 333
SHARDS = 4
STEPS = ("normalize", "doc_hashes", "sign", "band_split")


def profile(pages, cfg) -> dict:
    """Seconds of each step over every block of ``pages``."""
    import numpy as np
    import pyarrow as pa

    from metacache_mpi_ray.functions.hashing import arrow_string_buffer
    from metacache_mpi_ray.functions.text import resolve_text_batch
    from metacache_mpi_ray.stages.banding import split_signed
    from metacache_mpi_ray.stages.ingest import _col_hash_i63
    from metacache_mpi_ray.stages.signatures import (
        minhash_perm_constants,
        sig_to_arrow,
        sign_rows,
        sign_slices,
    )

    a, b = minhash_perm_constants(cfg.n_perms, cfg.seed)
    secs = dict.fromkeys(STEPS, 0.0)
    for lo in range(0, pages.num_rows, BLOCK_ROWS):
        t0 = time.perf_counter()
        docs = resolve_text_batch(pages.slice(lo, BLOCK_ROWS))
        t1 = time.perf_counter()
        doc_id = _col_hash_i63(docs["url"], seed=11)
        text_hash = _col_hash_i63(docs["norm_text"], seed=22)
        t2 = time.perf_counter()
        data, starts, ends = arrow_string_buffer(docs["norm_text"])
        sig = np.concatenate(
            [sign_rows(data, starts[i:j], ends[i:j], cfg, a, b) for i, j in sign_slices(starts, ends)]
        )
        t3 = time.perf_counter()
        table = pa.table(
            {"doc_id": doc_id, "text_hash": text_hash, "n_chars": ends - starts, "sig": sig_to_arrow(sig)}
        )
        split_signed(table, cfg, SHARDS)
        t4 = time.perf_counter()
        for step, dt in zip(STEPS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            secs[step] += dt
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
    print(f"{'workload':<10}" + "".join(f"{s:>11}" for s in STEPS) + f"{'sum':>9}")
    for name, make in (("web_mix", corpora.web_mix_pages), ("dup_heavy", corpora.dup_heavy_pages)):
        pages, _truth = make(n_docs, args.seed)
        profile(pages, cfg)  # warm: pow caches, allocator
        runs = [profile(pages, cfg) for _ in range(args.runs)]
        med = {s: statistics.median(r[s] for r in runs) for s in STEPS}
        total = statistics.median(sum(r.values()) for r in runs)
        print(f"{name:<10}" + "".join(f"{med[s]:>11.3f}" for s in STEPS) + f"{total:>9.3f}")


if __name__ == "__main__":
    main()
