"""Corpus-level text-cleaning operators for LLM training-data pipelines.

Three operators a web-scale training corpus needs (RefinedWeb / CCNet /
Gopher style) that sit beside the dedup family:

* ``remove_boilerplate_lines`` — corpus-wide line-frequency dedup:
  lines appearing in >= ``min_docs`` distinct documents (cookie
  banners, nav bars, copyright footers) are removed from every
  document. Structurally this is the reference's overpopulated-feature
  removal (/root/reference/src/sketch_database.h:356-417 and the
  distributed census at mode_build.cpp:847-1074: census -> threshold ->
  broadcast removal set) with a literal text line as the feature, and
  it reuses the same shape as the band census: partial counts inside
  ``map_batches``, ONE keyed sum exchange, then the removal set is the
  key set of the shared key-set step (``stages/joins.probe_key_set``).
* ``redact_pii_batch`` — vectorized RE2 scrubbing of emails / phone
  numbers (Arrow ``replace_substring_regex``; DuckDB's regexp engine is
  RE2 too, so the oracle patterns are byte-identical).
* ``repetition_stats_batch`` — within-document duplicate-line signals
  (the Gopher repetition rules family): lines identical to an earlier
  line of the same document, counted and sized.

Scale notes: the census never materializes the exploded line table —
within-batch (row, line) dedup happens in numpy before the ONE
``hash_exchange`` on ``line_hash`` (functions/blocks.py; a map-side sum
per block, a sum per key in the reduce), so the exchanged table is one
row per distinct (block, line), not per line occurrence. Boilerplate
vocabularies are small by construction (a line must repeat across
``min_docs`` docs to qualify), so the removal set is normally
broadcast; past the key-set step's byte bound the same filter runs as
its two keyed exchanges.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from metacache_mpi_ray.functions.blocks import hash_exchange
from metacache_mpi_ray.functions.hashing import (
    arrow_string_buffer,
    doc_hashes_from_buffer,
)
from metacache_mpi_ray.stages.joins import default_num_partitions, probe_key_set

LINE_SEED = 41

# RE2 patterns, shared verbatim with the DuckDB oracles (both engines
# are RE2; keep these free of single quotes so they embed in SQL).
EMAIL_PATTERN = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PHONE_PATTERN = r"\+?[0-9][0-9() -]{6,}[0-9]"


def _to_i63(u64: np.ndarray) -> np.ndarray:
    return (u64 >> np.uint64(1)).astype(np.int64)


def _split_lines(col):
    """('\n'-split of a string column) -> (flat_lines, sizes_per_row).

    ``flat_lines`` is a plain (32-bit offset) string Array — cast down
    from large_string because ``binary_join`` has no large_list kernel;
    per-batch flat volume is far below the int32 offset bound.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # null text -> "" (one empty line), matching the repo-wide
    # null-hashes-as-empty convention; without this the null list's
    # NaN length wraps to INT64_MIN and np.repeat crashes
    col = pc.fill_null(col, "")
    lst = pc.split_pattern(col, "\n")
    flat = pc.list_flatten(lst)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    if pa.types.is_large_string(flat.type):
        flat = flat.cast(pa.string())
    sizes = pc.list_value_length(lst).to_numpy(zero_copy_only=False).astype(np.int64)
    return flat, sizes


def _line_hashes(flat, seed: int = LINE_SEED) -> np.ndarray:
    """63-bit content hash per line, zero-copy from the Arrow buffer."""
    if len(flat) == 0:
        return np.empty(0, dtype=np.int64)
    data, starts, ends = arrow_string_buffer(flat)
    return _to_i63(doc_hashes_from_buffer(data, starts, ends, seed))


def line_census(docs, *, text_col: str = "text", seed: int = LINE_SEED):
    """(line_hash, n_docs) over the corpus — distinct-document counts.

    Exact (not approximate): each batch emits one row per distinct
    (document, line) — a document is never split across batch rows —
    so summing per-batch partials counts each (doc, line) once. The
    merge is one ``hash_exchange`` on ``line_hash`` that sums per key
    on the map side and again in the reduce.
    """

    def partial(t: pa.Table) -> pa.Table:
        flat, sizes = _split_lines(t[text_col])
        h = _line_hashes(flat, seed)
        row = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        if len(h):
            order = np.lexsort((row, h))  # primary: hash, secondary: doc
            hs, rs = h[order], row[order]
            first = np.empty(len(hs), dtype=bool)
            first[0] = True
            first[1:] = (hs[1:] != hs[:-1]) | (rs[1:] != rs[:-1])
            hf = hs[first]  # still sorted by hash
            change = np.empty(len(hf), dtype=bool)
            if len(hf):
                change[0] = True
                change[1:] = hf[1:] != hf[:-1]
            starts = np.flatnonzero(change)
            uh = hf[starts]
            cnt = np.diff(np.concatenate([starts, [len(hf)]]))
        else:
            uh = np.empty(0, dtype=np.int64)
            cnt = np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "line_hash": pa.array(uh, type=pa.int64()),
                "n_docs": pa.array(cnt.astype(np.int64), type=pa.int64()),
            }
        )

    return hash_exchange(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["line_hash"],
        _sum_per_line,
        num_partitions=default_num_partitions(minimum=2),
        combine=_sum_per_line,
    )


_CENSUS = pa.schema([("line_hash", pa.int64()), ("n_docs", pa.int64())])


def _sum_per_line(t: pa.Table) -> pa.Table:
    if t.num_rows == 0:
        return _CENSUS.empty_table()
    g = t.group_by("line_hash").aggregate([("n_docs", "sum")])
    return pa.table([g["line_hash"], g["n_docs_sum"]], schema=_CENSUS)


def remove_boilerplate_lines(
    docs,
    *,
    min_docs: int = 30,
    text_col: str = "text",
    id_col: str = "doc_id",
    seed: int = LINE_SEED,
):
    """Remove lines occurring in >= ``min_docs`` distinct documents.

    Returns (doc_id, clean_text, n_kept, n_removed): the document with
    hot lines dropped (original line order preserved, '\n'-rejoined; ''
    when every line was removed, and for a null text, which is one
    empty line) plus kept/removed line counts.

    The hot line hashes are the key set of ``joins.probe_key_set``;
    each doc's keys are its line hashes.

    ``docs`` is consumed more than once (line census + rewrite) and is
    corpus-sized, so it is NOT materialized here; its lineage must be
    deterministic across executions (parquet reads + map_batches are;
    ``limit`` over a parallel read or an unseeded sample is not —
    materialize such inputs first, or the census and the rewrite see
    different rows).
    """
    hot = line_census(docs, text_col=text_col, seed=seed).map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_docs"], int(min_docs))).select(["line_hash"]),
        batch_format="pyarrow",
    ).materialize()

    def explode(t: pa.Table):
        flat, sizes = _split_lines(t[text_col])
        return _line_hashes(flat, seed), np.repeat(np.arange(len(sizes)), sizes)

    def finish(t: pa.Table, row: np.ndarray, hit: np.ndarray) -> pa.Table:
        flat, sizes = _split_lines(t[text_col])
        n_kept = np.bincount(row[~hit], minlength=len(sizes)).astype(np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return _cleaned(ids, flat.filter(pa.array(~hit)), n_kept, sizes)

    return probe_key_set(docs, hot, explode, finish, id_col=id_col)


def _cleaned(ids, kept_lines, n_kept: np.ndarray, n_lines: np.ndarray) -> pa.Table:
    """(doc_id, clean_text, n_kept, n_removed) from each doc's kept
    lines, laid out doc after doc in line order."""
    if isinstance(kept_lines, pa.ChunkedArray):
        kept_lines = kept_lines.combine_chunks()
    if pa.types.is_large_string(kept_lines.type):
        kept_lines = kept_lines.cast(pa.string())
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(n_kept)])
    lst = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), kept_lines)
    return pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "clean_text": pc.binary_join(lst, "\n"),
            "n_kept": pa.array(n_kept, type=pa.int64()),
            "n_removed": pa.array(n_lines - n_kept, type=pa.int64()),
        }
    )


def redact_pii_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Replace emails then phone numbers with <EMAIL>/<PHONE> tags;
    counts are over the RAW text (pre-replacement), matching the
    oracle's ``regexp_extract_all`` counts. All-RE2, fully vectorized.
    Returns the input columns with ``text_col`` replaced in place plus
    ``n_emails`` / ``n_phones`` appended."""
    txt = batch[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    n_em = pc.count_substring_regex(txt, EMAIL_PATTERN).cast(pa.int64())
    n_ph = pc.count_substring_regex(txt, PHONE_PATTERN).cast(pa.int64())
    red = pc.replace_substring_regex(
        pc.replace_substring_regex(txt, EMAIL_PATTERN, "<EMAIL>"),
        PHONE_PATTERN,
        "<PHONE>",
    )
    out = batch.set_column(
        batch.column_names.index(text_col), text_col, red
    )
    return out.append_column("n_emails", n_em).append_column("n_phones", n_ph)


def repetition_stats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Within-document duplicate-line signals (Gopher repetition rules):
    ``n_dup_lines`` = line occurrences identical to an earlier line of
    the same document; ``n_dup_chars`` = their total UTF-8 character
    count. Purely per-row — no shuffle."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    flat, sizes = _split_lines(batch[text_col])
    h = _line_hashes(flat)
    n = len(sizes)
    row = np.repeat(np.arange(n, dtype=np.int64), sizes)
    dup = np.zeros(len(h), dtype=bool)
    if len(h):
        order = np.lexsort((h, row))
        same = (h[order][1:] == h[order][:-1]) & (row[order][1:] == row[order][:-1])
        dup[order[1:]] = same
    lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    n_dup = np.bincount(row[dup], minlength=n).astype(np.int64)
    dup_chars = np.bincount(
        row[dup], weights=lens[dup].astype(np.float64), minlength=n
    ).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_lines": pa.array(sizes, type=pa.int64()),
            "n_dup_lines": pa.array(n_dup, type=pa.int64()),
            "n_dup_chars": pa.array(dup_chars, type=pa.int64()),
        }
    )


def clean_corpus(docs, **boilerplate_kwargs):
    """Composition: boilerplate-line removal then PII redaction —
    the minimal RefinedWeb-ish cleaning chain as one streamed pipeline."""
    cleaned = remove_boilerplate_lines(docs, **boilerplate_kwargs)
    return cleaned.map_batches(
        lambda t: redact_pii_batch(t, text_col="clean_text"),
        batch_format="pyarrow",
    )
