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
  ``map_batches``, ONE keyed sum exchange, then a broadcast-vs-join
  auto switch for the removal set.
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
row per distinct (block, line), not per line occurrence. The removal
set is broadcast when ``count * 8 bytes`` fits ``broadcast_limit``
(boilerplate vocabularies are small by construction — a line must
repeat across ``min_docs`` docs to qualify); otherwise the filter runs
as two exchanges: the exploded lines meet the hot set on
``line_hash``, and the kept lines meet the documents on ``doc_id``,
where each reduce reassembles its documents whole.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from metacache_mpi_ray.functions.blocks import assemble_sorted_i64, hash_exchange
from metacache_mpi_ray.functions.hashing import (
    arrow_string_buffer,
    doc_hashes_from_buffer,
)
from metacache_mpi_ray.stages.verify import lookup_sorted

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
    from metacache_mpi_ray.stages.joins import default_num_partitions

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


def _is_in_sorted(sorted_vals: np.ndarray, vals: np.ndarray) -> np.ndarray:
    if len(sorted_vals) == 0 or len(vals) == 0:
        return np.zeros(len(vals), dtype=bool)
    pos = np.searchsorted(sorted_vals, vals)
    pos_c = np.minimum(pos, len(sorted_vals) - 1)
    return (pos < len(sorted_vals)) & (sorted_vals[pos_c] == vals)


def remove_boilerplate_lines(
    docs,
    *,
    min_docs: int = 30,
    text_col: str = "text",
    id_col: str = "doc_id",
    strategy: str = "auto",
    broadcast_limit: int = 256 << 20,
    num_partitions: int | None = None,
    seed: int = LINE_SEED,
):
    """Remove lines occurring in >= ``min_docs`` distinct documents.

    Returns (doc_id, clean_text, n_kept, n_removed): the document with
    hot lines dropped (original line order preserved, '\n'-rejoined; ''
    when every line was removed) plus kept/removed line counts.

    ``strategy``: 'broadcast' ships the sorted hot-hash array via the
    object store (assembled in ONE off-driver task from the census
    block refs — the hashes never cross the driver heap); 'join' drops
    the hot lines in one exchange of the exploded lines against the hot
    table on ``line_hash`` and reassembles each document in one exchange
    on ``doc_id``; 'auto'
    picks by removal-set size (count x 8 bytes vs ``broadcast_limit``).

    ``docs`` is consumed TWICE (line census + rewrite) and is
    corpus-sized, so it is NOT materialized here; its lineage must be
    deterministic across executions (parquet reads + map_batches are;
    ``limit`` over a parallel read or an unseeded sample is not —
    materialize such inputs first, or the census and the rewrite see
    different rows).
    """
    if strategy not in ("auto", "broadcast", "join"):
        raise ValueError(
            f"strategy must be 'auto', 'broadcast' or 'join', got {strategy!r}"
        )
    hot = line_census(docs, text_col=text_col, seed=seed).filter(
        expr=f"n_docs >= {int(min_docs)}"
    ).materialize()
    n_hot = hot.count()

    if n_hot == 0:
        # nothing to remove: pass-through
        def passthrough(t: pa.Table) -> pa.Table:
            _, sizes = _split_lines(t[text_col])
            txt = t[text_col]
            if isinstance(txt, pa.ChunkedArray):
                txt = txt.combine_chunks()
            if pa.types.is_large_string(txt.type):
                txt = txt.cast(pa.string())
            return pa.table(
                {
                    "doc_id": t[id_col].cast(pa.int64()),
                    "clean_text": txt,
                    "n_kept": pa.array(sizes, type=pa.int64()),
                    "n_removed": pa.array(
                        np.zeros(len(sizes), dtype=np.int64), type=pa.int64()
                    ),
                }
            )

        return docs.map_batches(passthrough, batch_format="pyarrow")

    if strategy == "broadcast" or (
        strategy == "auto" and n_hot * 8 <= broadcast_limit
    ):
        hot_ref = assemble_sorted_i64(hot, "line_hash")

        def clean(t: pa.Table) -> pa.Table:
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            flat, sizes = _split_lines(t[text_col])
            h = _line_hashes(flat, seed)
            keep = ~_is_in_sorted(ray.get(hot_ref), h)  # zero-copy read
            row = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
            n_kept = np.bincount(row[keep], minlength=len(sizes)).astype(np.int64)
            return _cleaned(ids, flat.filter(pa.array(keep)), n_kept, sizes)

        return docs.map_batches(clean, batch_format="pyarrow")

    # ---- join path: exploded lines anti-join the hot table ----------
    from metacache_mpi_ray.stages.joins import default_num_partitions

    if num_partitions is None:
        num_partitions = default_num_partitions(minimum=2)

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        flat, sizes = _split_lines(t[text_col])
        row = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        seg0 = np.repeat(np.cumsum(sizes) - sizes, sizes)
        return pa.table(
            {
                "doc_id": pa.array(ids[row], type=pa.int64()),
                "ord": pa.array(np.arange(len(flat), dtype=np.int64) - seg0),
                "line": flat,
                "line_hash": pa.array(_line_hashes(flat, seed), type=pa.int64()),
            }
        )

    kept_schema = pa.schema(
        [("doc_id", pa.int64()), ("ord", pa.int64()), ("line", pa.string())]
    )

    def drop_hot(lines: pa.Table, hot_p: pa.Table) -> pa.Table:
        if lines.num_rows == 0:
            return kept_schema.empty_table()
        if hot_p.num_rows:
            hot_h = np.sort(hot_p["line_hash"].to_numpy(zero_copy_only=False))
            is_hot = _is_in_sorted(hot_h, lines["line_hash"].to_numpy(zero_copy_only=False))
            lines = lines.filter(pa.array(~is_hot))
        return lines.select(kept_schema.names)

    kept = hash_exchange(
        [docs.map_batches(explode, batch_format="pyarrow"), hot.select_columns(["line_hash"])],
        ["line_hash"],
        drop_hot,
        num_partitions=num_partitions,
    )

    # docs whose every line was hot have NO kept row: the reduce keys
    # on doc_id, so it sees every kept line of its docs and the docs
    # themselves, rebuilds each text in line order and fills ''/0
    def id_counts(t: pa.Table) -> pa.Table:
        _, sizes = _split_lines(t[text_col])
        return pa.table(
            {
                "doc_id": t[id_col].cast(pa.int64()),
                "n_lines": pa.array(sizes, type=pa.int64()),
            }
        )

    def reassemble(d: pa.Table, k: pa.Table) -> pa.Table:
        if d.num_rows == 0:
            none = np.empty(0, dtype=np.int64)
            return _cleaned(none, pa.array([], type=pa.string()), none, none)
        # docs and their kept lines both in doc_id order, lines in line
        # order within a doc: the kept lines lay out doc after doc
        d = d.sort_by("doc_id")
        ids = d["doc_id"].to_numpy(zero_copy_only=False)
        n_kept = np.zeros(len(ids), dtype=np.int64)
        lines = pa.array([], type=pa.string())
        if k.num_rows:
            kid = k["doc_id"].to_numpy(zero_copy_only=False)
            order = np.lexsort((k["ord"].to_numpy(zero_copy_only=False), kid))
            u, cnt = np.unique(kid, return_counts=True)
            pos, found = lookup_sorted(u, ids)
            n_kept[found] = cnt[pos[found]]
            lines = k["line"].take(pa.array(order))
        return _cleaned(ids, lines, n_kept, d["n_lines"].to_numpy(zero_copy_only=False))

    return hash_exchange(
        [docs.map_batches(id_counts, batch_format="pyarrow"), kept],
        ["doc_id"],
        reassemble,
        num_partitions=num_partitions,
    )


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
