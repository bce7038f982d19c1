"""metacache_mpi_ray — a Ray-Data-native near-duplicate detection engine.

A from-scratch re-expression of the query/data-processing capabilities of
the reference MetaCache-MPI engine (/root/reference), retargeted per
BASELINE.json at near-duplicate detection + clustering over
Common-Crawl-style web pages:

    pages (url, warc_ts, html, text, lang)
      -> HTML->text extraction + normalization      (map_batches, Arrow)
      -> w-shingling + 128-perm MinHash signatures  (one sign task per block)
      -> LSH band keys -> bucket star-edges         (one task per band-key shard)
      -> candidate pair verification                (pair + score tasks per doc shard)
      -> union-find connected components            (driver / label propagation)
      -> clusters (doc_id, cluster_id, is_dup)

The flagship runs as one graph of plain Ray tasks over the blocks of its
input (``pipelines/dedup.py``); every other batch stage is a plain
``map_batches`` task whose state is built on the driver and ships in the
pickled callable.

The reference's structural skeleton (documents -> sketches -> inverted
index -> candidate merge -> classification; see SURVEY.md) maps stage by
stage, but the execution engine is Ray Data streaming execution, not MPI.

IMPORTANT: library code never calls ray.init()/ray.shutdown(); the
driver / bench / test fixture own the Ray session.
"""

from metacache_mpi_ray.config import DedupConfig

__all__ = ["DedupConfig"]
__version__ = "0.1.0"
