"""Seeded inputs for the benchmark workloads.

Every generator here is a pure function of its arguments: the same seed
gives byte-identical tables. The engine only ever sees the tables (as
Parquet files or in-memory Arrow), never the seed.

* ``web_mix_pages``: the engine's own planted crawl corpus
  (``sources.pages.generate_pages``: 60% unique, 25% exact, 10% near,
  5% substring pages, groups of 5 or fewer, 10% null text).
* ``dup_heavy_pages``: a templated corpus generated here. Pages are short
  (30-80 words) and most are near-dup variants of shared templates, so
  ingest and signing cost little per doc and candidates, verify and
  cluster take the larger share; group sizes run from three pages to
  past ``bucket_cap``, and two exact-copy boilerplate groups
  sit above the cap on purpose (the hot-bucket drop then shows as lost
  ``pair_recall`` instead of being sized away).
* ``daily_batch``: one ``index_daily`` batch, half re-crawled pages
  (variant URLs of stored pages, same content) and half fresh pages.

Both corpus generators return ``(pages, truth)``; ``truth`` is the
sidecar (url, true_cluster, dup_kind) the recall/precision scores read.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.sources.pages import generate_pages

BUCKET_CAP = DedupConfig().bucket_cap  # the hot groups must exceed it

# dup_heavy layout. Only contents and order depend on the seed, so the
# share of pairs lost to the hot-bucket drop is the same on every seed.
HOT_EXACT_GROUPS = (300, 300)  # identical boilerplate pages, above the cap
NEAR_GROUP_SIZES = (300, 150, 100, 60, 40, 25)  # one above the cap
SMALL_NEAR_SIZES = (3, 4, 5, 6, 8, 10, 12)  # cycled until NEAR_SHARE is met
NEAR_SHARE = 0.85  # of all pages, in near-dup template groups
TEMPLATE_TOKENS = (30, 80)  # template length range, in words: short templated pages

_SYLLABLES = [
    "ka", "lo", "mi", "ne", "ru", "ta", "vo", "shi", "pe", "da", "gu", "zo",
    "bri", "sta", "mon", "tel", "rak", "vin", "por", "lex",
]


def _vocab(size: int = 3000) -> np.ndarray:
    """Fixed pseudo-word vocabulary; large enough that two unrelated
    pages share almost no 16-char shingles."""
    rng = np.random.default_rng(7)
    words: set[str] = set()
    while len(words) < size:
        n = int(rng.integers(2, 4))
        words.add("".join(_SYLLABLES[i] for i in rng.integers(0, len(_SYLLABLES), n)))
    return np.array(sorted(words))


_VOCAB = _vocab()


def _tokens(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, len(_VOCAB), size=n)


def _variant(rng: np.random.Generator, template: np.ndarray) -> np.ndarray:
    """A near copy of ``template``: 1-5% of tokens substituted or deleted."""
    rate = rng.uniform(0.01, 0.05)
    roll = rng.random(len(template))
    out = template.copy()
    sub = roll < rate * 0.6
    out[sub] = _tokens(rng, int(sub.sum()))
    return out[~((roll >= rate * 0.6) & (roll < rate))]


def _pages_table(
    rng: np.random.Generator, texts: list[str], urls: list[str], null_text_frac: float
) -> pa.Table:
    """pages(url, warc_ts, html, text, lang) in the engine's input schema;
    a ``null_text_frac`` share of rows carries its text only in the html."""
    n = len(texts)
    html = [
        f"<html><head><title>t</title></head><body><p>{t}</p></body></html>".encode()
        for t in texts
    ]
    null = rng.random(n) < null_text_frac
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(
                1_600_000_000_000_000 + np.arange(n, dtype=np.int64) * 1_000_000,
                type=pa.timestamp("us"),
            ),
            "html": pa.array(html, type=pa.binary()),
            "text": pa.array([None if null[i] else texts[i] for i in range(n)], type=pa.string()),
            "lang": pa.array(["en"] * n, type=pa.string()),
        }
    )


def web_mix_pages(n_docs: int, seed: int) -> tuple[pa.Table, pa.Table]:
    return generate_pages(n_docs, seed)


def dup_heavy_layout(n_docs: int) -> list[tuple[str, int]]:
    """(dup_kind, group size) for every group; a pure function of n_docs."""
    groups = [("exact_hot", g) for g in HOT_EXACT_GROUPS]
    groups += [("near_hot" if g > BUCKET_CAP else "near", g) for g in NEAR_GROUP_SIZES]
    near = sum(g for _, g in groups if _ != "exact_hot")
    i = 0
    while near < NEAR_SHARE * n_docs:
        g = SMALL_NEAR_SIZES[i % len(SMALL_NEAR_SIZES)]
        groups.append(("near", g))
        near += g
        i += 1
    used = sum(g for _, g in groups)
    if used > n_docs:
        raise ValueError(f"dup_heavy needs at least {used} docs, got {n_docs}")
    groups += [("unique", 1)] * (n_docs - used)
    return groups


def dup_heavy_pages(n_docs: int, seed: int) -> tuple[pa.Table, pa.Table]:
    """Templated corpus with planted groups (see ``dup_heavy_layout``)."""
    rng = np.random.default_rng([seed, 0xD0B])
    texts: list[str] = []
    kinds: list[str] = []
    clusters: list[int] = []
    for cluster, (kind, size) in enumerate(dup_heavy_layout(n_docs)):
        template = _tokens(rng, int(rng.integers(*TEMPLATE_TOKENS)))
        if kind == "exact_hot":
            page = " ".join(_VOCAB[template])
            texts += [page] * size
        else:
            texts.append(" ".join(_VOCAB[template]))
            texts += [" ".join(_VOCAB[_variant(rng, template)]) for _ in range(size - 1)]
        kinds += [kind] * size
        clusters += [cluster] * size
    order = rng.permutation(len(texts))
    texts = [texts[i] for i in order]
    urls = [f"https://tpl{i % 17}.example/s{seed}/p/{i}" for i in range(len(texts))]
    pages = _pages_table(rng, texts, urls, null_text_frac=0.1)
    truth = pa.table(
        {
            "url": pages["url"],
            "true_cluster": pa.array(np.asarray(clusters, dtype=np.int64)[order]),
            "dup_kind": pa.array([kinds[i] for i in order], type=pa.string()),
        }
    )
    return pages, truth


def daily_batch(
    stored: pa.Table, n_docs: int, seed: int, batch: int
) -> tuple[pa.Table, np.ndarray]:
    """One daily batch against an index built over ``stored`` pages.

    Returns (pages, recrawled): the first half of the rows are re-crawls
    of distinct stored pages (same html and text, URL with a
    ``?recrawl=<batch>`` suffix, so a new doc_id), the second half are
    fresh pages no stored page resembles. ``recrawled`` is the boolean
    row mask of the re-crawls."""
    rng = np.random.default_rng([seed, 0xDA1, batch])
    n_re = n_docs // 2
    pick = np.sort(rng.choice(stored.num_rows, size=n_re, replace=False))
    re = stored.take(pa.array(pick))
    re = re.set_column(
        0, "url", pa.array([f"{u}?recrawl={batch}" for u in re["url"].to_pylist()])
    )
    fresh = fresh_pages(n_docs - n_re, rng)
    pages = pa.concat_tables([re, fresh.cast(re.schema)])
    recrawled = np.arange(n_docs) < n_re
    return pages, recrawled


def fresh_pages(n_docs: int, rng: np.random.Generator) -> pa.Table:
    """``n_docs`` unrelated pages over the benchmark vocabulary."""
    texts = [" ".join(_VOCAB[_tokens(rng, int(rng.integers(120, 300)))]) for _ in range(n_docs)]
    tag = int(rng.integers(0, 2**62))
    urls = [f"https://fresh.example/{tag:x}/{i}" for i in range(n_docs)]
    return _pages_table(rng, texts, urls, null_text_frac=0.1)


def write_corpus(pages: pa.Table, truth: pa.Table, out_dir: str, n_files: int = 4) -> str:
    """pages/part-*.parquet + truth.parquet under ``out_dir``; returns the pages dir."""
    pages_dir = os.path.join(out_dir, "pages")
    os.makedirs(pages_dir, exist_ok=True)
    step = -(-pages.num_rows // n_files)
    for f in range(n_files):
        part = pages.slice(f * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(pages_dir, f"part-{f:05d}.parquet"))
    pq.write_table(truth, os.path.join(out_dir, "truth.parquet"))
    return pages_dir
