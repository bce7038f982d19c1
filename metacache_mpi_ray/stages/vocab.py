"""Corpus-wide vocabulary census: exact term frequency + document
frequency over a document table.

The reference's feature-frequency census (`/root/reference/src/
sketch_database.h:1060-1075` + the ~230-line MPI tree-merge at
`mode_build.cpp:847-1022`) counts how many locations each index feature
accumulated; the training-data analog at token granularity is the
vocabulary census every corpus pipeline needs (heavy-hitter terms,
document frequency for IDF, stopword discovery). Same Ray Data shape as
the boilerplate line census (`stages/corpus_clean.py:line_census`):

* partial aggregation inside ``map_batches`` — each batch emits one row
  per distinct term with its within-batch occurrence count (tf) and
  distinct-document count (df); the exploded token table never reaches
  the exchange,
* ONE ``functions/blocks.hash_exchange`` on ``term``: a map-side combine
  sums each block's partial rows, and the reduce sums every term whole
  with one Arrow ``group_by`` — no range sort, no boundary stitch.

df summed over batches is exact because a document is exactly one row
of exactly one batch (the same invariant the line census relies on).

Tokenization is deliberately SQL-reproducible so the census is
oracle-checkable bit-for-bit in DuckDB (both engines are RE2):
lowercase, collapse ``[^a-z0-9]+`` runs to a single space, trim, split
on the single space. ``TOKEN_SQL_EXPR`` is the DuckDB expression that
produces the identical token list.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from metacache_mpi_ray.functions.blocks import hash_exchange

TOKEN_PATTERN = "[^a-z0-9]+"

# DuckDB expression producing the same token list as tokenize_column
# (both regex engines are RE2; corpus text is ASCII-safe either way
# because non-alnum chars are collapsed after Unicode-aware lowering).
TOKEN_SQL_EXPR = (
    "string_split(trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')), ' ')"
)

_CENSUS_SCHEMA = pa.schema(
    [
        pa.field("term", pa.string()),
        pa.field("tf", pa.int64()),
        pa.field("df", pa.int64()),
    ]
)


def tokenize_column(col):
    """string column -> (flat token Array, tokens-per-row int64 ndarray).

    Kernel chain is pure Arrow C++ (lower -> RE2 collapse -> trim ->
    split); empty rows produce zero tokens.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    norm = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(pc.utf8_lower(col), TOKEN_PATTERN, " ")
    )
    lst = pc.split_pattern(norm, " ")
    flat = pc.list_flatten(lst)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    sizes = pc.list_value_length(lst).to_numpy(zero_copy_only=False).astype(np.int64)
    # an all-empty row normalizes to "" whose split is [""] — drop the
    # empty token and fix that row's size so row-repeat stays aligned
    if len(flat):
        empty = pc.equal(flat, "").to_numpy(zero_copy_only=False)
        if empty.any():
            row = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
            np.subtract.at(sizes, row[empty], 1)
            flat = flat.filter(pa.array(~empty))
    return flat, sizes


def _census_partial(text_col: str):
    def partial(t: pa.Table) -> pa.Table:
        flat, sizes = tokenize_column(t[text_col])
        if len(flat) == 0:
            return _CENSUS_SCHEMA.empty_table()
        row = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        g = (
            pa.table({"term": flat, "row": pa.array(row, type=pa.int64())})
            .group_by("term")
            .aggregate([("row", "count"), ("row", "count_distinct")])
        )
        return pa.table(
            {
                "term": g["term"],
                "tf": g["row_count"].cast(pa.int64()),
                "df": g["row_count_distinct"].cast(pa.int64()),
            }
        )

    return partial


def _sum_census(t: pa.Table) -> pa.Table:
    """Partial census rows -> one (term, tf, df) row per distinct term."""
    if t.num_rows == 0:
        return _CENSUS_SCHEMA.empty_table()
    g = t.group_by("term").aggregate([("tf", "sum"), ("df", "sum")])
    return pa.Table.from_arrays(
        [g["term"], g["tf_sum"], g["df_sum"]], schema=_CENSUS_SCHEMA
    )


def _census_exchange(docs, text_col: str, reduce=_sum_census):
    """One exchange of the partial census rows on ``term``, summed per
    block on the map side; ``reduce`` sees each partition's terms whole."""
    from metacache_mpi_ray.stages.joins import default_num_partitions

    return hash_exchange(
        docs.map_batches(_census_partial(text_col), batch_format="pyarrow"),
        ["term"],
        reduce,
        num_partitions=default_num_partitions(minimum=2),
        combine=_sum_census,
    )


def vocab_census(docs, *, text_col: str = "text"):
    """Exact (term, tf, df) census over the corpus.

    tf = total occurrences, df = distinct documents containing the
    term. One keyed exchange; everything else is per-block.
    """
    return _census_exchange(docs, text_col)


def _top_by_tf(t: pa.Table, k: int) -> pa.Table:
    return t.sort_by([("tf", "descending"), ("term", "ascending")]).slice(0, k)


def top_terms(docs, k: int = 50, *, text_col: str = "text"):
    """Corpus heavy hitters: top-k terms by total occurrence count,
    ties broken by term (ascending) for determinism: each partition's
    top k, then one driver merge of those partitions x k rows."""
    tops = _census_exchange(docs, text_col, lambda t: _top_by_tf(_sum_census(t), k))
    merged = pa.concat_tables(ray.get(tops.to_arrow_refs()))
    return rd.from_arrow(_top_by_tf(merged, k).select(["term", "tf"]))
