"""NCBI-style taxonomy dimension-file readers — the analog of the
reference's taxonomy_io parsers (/root/reference/src/taxonomy_io.cpp:
56-185 make_taxonomic_hierarchy reading nodes.dmp / names.dmp /
merged.dmp, and :190-310 read_sequence_to_taxon_id_mapping for
accession2taxid tables).

Scale shape: nodes/names/merged are DIMENSION files (a few million
rows at most) — parsed vectorized via pyarrow.csv on the driver and
broadcast, the same pattern as every other small side in the engine.
accession2taxid mappings can be tens of GB, so that reader returns a
streaming ``ray.data.Dataset`` suitable for ``broadcast_join`` (small
slice) or ``large_join``, the keyed-exchange join (full file; string
keys hash by content).

Format notes (NCBI taxdump): fields are separated by ``\t|\t`` and
rows terminated by ``\t|``; parsing splits on ``|`` and strips tabs,
which also accepts the space-padded variants the reference's
token-stream parser tolerates.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.csv as pacsv


def _read_dmp(path: str, n_cols: int) -> list[pa.Array]:
    """First ``n_cols`` tab-stripped fields of a ``.dmp`` file, fully
    vectorized: one pyarrow.csv pass reading whole lines (a delimiter
    that cannot occur keeps each line one field — real .dmp files have
    a format-dependent column count, e.g. 13 in NCBI nodes.dmp, of
    which the reference reads a prefix), then one Arrow split on '|'
    and per-field trims."""
    tab = pacsv.read_csv(
        path,
        read_options=pacsv.ReadOptions(column_names=["line"]),
        parse_options=pacsv.ParseOptions(delimiter="\x01", quote_char=False),
        convert_options=pacsv.ConvertOptions(column_types={"line": pa.string()}),
    )
    parts = pc.split_pattern(tab["line"], "|")
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    # rows too short for the requested prefix (blank/garbage lines) drop
    parts = parts.filter(
        pc.greater_equal(pc.list_value_length(parts), n_cols)
    )
    return [
        pc.utf8_trim(pc.list_element(parts, i), characters=" \t")
        for i in range(n_cols)
    ]


def read_nodes_dmp(path: str) -> pa.Table:
    """nodes.dmp -> (node_id, parent_id, rank). Reference parse:
    taxonomy_io.cpp:138-147 (id | parent | rank, multi-word ranks
    joined)."""
    c = _read_dmp(path, 3)
    return pa.table(
        {
            "node_id": c[0].cast(pa.int64()),
            "parent_id": c[1].cast(pa.int64()),
            "rank": c[2],
        }
    )


def read_names_dmp(path: str, scientific_only: bool = True) -> pa.Table:
    """names.dmp -> (node_id, name). The reference keeps one name per
    taxon, the first whose class contains "scientific"
    (taxonomy_io.cpp:75-97); ``scientific_only=False`` returns all rows
    with their name_class column."""
    c = _read_dmp(path, 4)
    node_id = c[0].cast(pa.int64())
    if not scientific_only:
        return pa.table(
            {"node_id": node_id, "name": c[1], "name_class": c[3]}
        )
    keep = pc.match_substring(c[3], "scientific")
    t = pa.table({"node_id": node_id, "name": c[1]}).filter(keep)
    # one name per taxon (first scientific row wins, like the
    # reference's map.insert which keeps the first)
    ids = t["node_id"].to_numpy(zero_copy_only=False)
    first = np.concatenate([[True], ids[1:] != ids[:-1]]) if len(ids) else np.array([], bool)
    return t.filter(pa.array(first))


def read_merged_dmp(path: str) -> pa.Table:
    """merged.dmp -> (old_id, new_id) (taxonomy_io.cpp:111-130)."""
    c = _read_dmp(path, 2)
    return pa.table(
        {"old_id": c[0].cast(pa.int64()), "new_id": c[1].cast(pa.int64())}
    )


def _remap(ids: np.ndarray, old_sorted: np.ndarray, new_vals: np.ndarray) -> np.ndarray:
    if len(old_sorted) == 0:
        return ids
    pos = np.minimum(np.searchsorted(old_sorted, ids), len(old_sorted) - 1)
    hit = old_sorted[pos] == ids
    return np.where(hit, new_vals[pos], ids)


def load_ncbi_taxonomy(
    nodes_path: str,
    names_path: str | None = None,
    merged_path: str | None = None,
) -> pa.Table:
    """Assemble the taxonomy dimension table the way the reference's
    make_taxonomic_hierarchy does (taxonomy_io.cpp:56-185):

    - node and parent ids remapped through merged.dmp (:163-167);
    - scientific names joined; missing name -> "--", empty -> "<id>"
      (:153-159); names file itself is optional (:102-107);
    - the root node (id 1) gets rank "root" (:177 reset_rank).

    Returns (node_id, parent_id, rank, name) sorted by node_id —
    broadcast-ready for the engine's taxonomy joins."""
    nodes = read_nodes_dmp(nodes_path)
    node_id = nodes["node_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    orig_id = node_id
    parent_id = nodes["parent_id"].to_numpy(zero_copy_only=False).astype(np.int64)

    if merged_path is not None:
        m = read_merged_dmp(merged_path)
        old = m["old_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        new = m["new_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(old)
        old, new = old[order], new[order]
        node_id = _remap(orig_id, old, new)
        parent_id = _remap(parent_id, old, new)

    names = np.full(len(node_id), "--", dtype=object)
    if names_path is not None:
        nm = read_names_dmp(names_path)
        nm_ids = nm["node_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nm_names = np.asarray(nm["name"].to_pylist(), dtype=object)
        order = np.argsort(nm_ids, kind="stable")
        nm_ids, nm_names = nm_ids[order], nm_names[order]
        if len(nm_ids):
            pos = np.minimum(np.searchsorted(nm_ids, node_id), len(nm_ids) - 1)
            hit = nm_ids[pos] == node_id
            names[hit] = nm_names[pos[hit]]  # one vectorized gather
    lens = np.fromiter((len(n) for n in names), dtype=np.int64, count=len(names))
    empty = lens == 0
    if empty.any():
        names[empty] = np.asarray(
            [f"<{i}>" for i in node_id[empty]], dtype=object
        )

    rank = np.asarray(nodes["rank"].to_pylist(), dtype=object)
    rank[node_id == 1] = "root"
    # a stale node remapped onto a live one (node 12 with merged 12->9
    # while node 9 also exists) would leave duplicate node_id rows and
    # make every downstream join fan out; keep the REAL node's row
    # (original id == remapped id) and drop stale aliases — the
    # reference's first-insert-wins map semantics
    self_row = orig_id == node_id
    order = np.lexsort((~self_row, node_id))  # by id, self rows first
    nid_s = node_id[order]
    first = np.concatenate([[True], nid_s[1:] != nid_s[:-1]]) if len(nid_s) else np.array([], bool)
    keep = order[first]
    out = pa.table(
        {
            "node_id": pa.array(node_id[keep], type=pa.int64()),
            "parent_id": pa.array(parent_id[keep], type=pa.int64()),
            "rank": pa.array(list(rank[keep]), type=pa.string()),
            "name": pa.array(list(names[keep]), type=pa.string()),
        }
    )
    return out.sort_by("node_id")


def ncbi_rank_taxonomy(tax: pa.Table, rank_names):
    """Contract the NCBI rank lattice onto ``rank_names`` and build the
    engine's fixed-depth ``Taxonomy`` (stages/taxonomy.py): nodes whose
    rank is not listed are dropped and their children re-parented to
    the nearest listed ancestor — the ranked-lineage walk the reference
    performs per query (taxonomy.h ranked lineage cache). ``tax`` is
    ``load_ncbi_taxonomy`` output; ``rank_names[0]`` must be "root".

    Dimension-file scale: the contraction is a driver-side dict walk
    with path memoization (O(nodes) amortized), matching the broadcast
    pattern every taxonomy consumer already uses."""
    import pandas as pd

    from metacache_mpi_ray.stages.taxonomy import Taxonomy

    wanted = set(rank_names)
    ids = tax["node_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    parents = tax["parent_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ranks = tax["rank"].to_pylist()
    parent_of = dict(zip(ids.tolist(), parents.tolist()))
    rank_of = dict(zip(ids.tolist(), ranks))

    listed_anc: dict[int, int] = {}

    def nearest_listed(nid: int) -> int:
        path = []
        cur = nid
        while cur not in listed_anc:
            if rank_of.get(cur) in wanted:
                listed_anc[cur] = cur
                break
            p = parent_of.get(cur, cur)
            if p == cur:  # detached subtree root: contract to tree root
                listed_anc[cur] = 1
                break
            path.append(cur)
            cur = p
        res = listed_anc[cur]
        for n in path:
            listed_anc[n] = res
        return listed_anc[nid]

    keep = [i for i, r in zip(ids.tolist(), ranks) if r in wanted]
    rows = pd.DataFrame(
        {
            "node_id": keep,
            "parent_id": [
                i if i == 1 else nearest_listed(parent_of[i]) for i in keep
            ],
            "rank": [rank_of[i] for i in keep],
        }
    )
    return Taxonomy.from_edges(rows, rank_names)


def _sniff_mapping_header(path: str) -> tuple[int, int, bool, int, int]:
    """(key_col, tax_col, has_header, n_comments, n_data_cols) per the
    reference's sniff (taxonomy_io.cpp:204-246): skip '#' comment
    lines, find a header row naming 'taxid' and
    'accession.version'/'assembly_accession'; if no taxid column is
    named, fall back to col0=key, col1=taxid with no header row (the
    first non-comment line is data). Unlike the reference's taxcol<1
    quirk, a 'taxid' named in column 0 still counts as a header —
    re-ingesting such a header row as data would swap the columns.
    ``n_data_cols`` is the width of the first data line (headerless
    files may carry trailing extra columns)."""
    n_comments = 0
    with open(path, "rt") as f:
        line = ""
        for _ in range(10):
            line = f.readline()
            if not line or not line.startswith("#"):
                break
            n_comments += 1
        next_line = f.readline()
    cols = [h.strip() for h in line.lstrip("#").rstrip("\n").split("\t")]
    keycol = taxcol = None
    for i, h in enumerate(cols):
        if h == "taxid":
            taxcol = i
        elif h in ("accession.version", "assembly_accession"):
            keycol = i
    if taxcol is None:
        return 0, 1, False, n_comments, max(len(cols), 2)
    width = len((next_line or line).rstrip("\n").split("\t"))
    return keycol if keycol is not None else 0, taxcol, True, n_comments, width


def read_accession2taxid(path: str):
    """Tab-separated sequence-id -> taxon-id mapping as a streaming
    ``ray.data.Dataset(key string, taxon_id int64)`` — the big-file
    reader (taxonomy_io.cpp:190-310). Column positions come from the
    header sniff; a headerless two-column file works too. Feed the
    result (or a filtered slice) to ``stages/joins.broadcast_join`` or
    the keyed-exchange ``large_join`` depending on its size."""
    import ray.data as rd

    keycol, taxcol, has_header, n_comments, n_cols = _sniff_mapping_header(path)
    if has_header:  # skip comment lines; the next row is the header
        read_opts = pacsv.ReadOptions(skip_rows=n_comments)
    else:  # headerless fallback: name the observed width, skip comments
        read_opts = pacsv.ReadOptions(
            column_names=[f"c{i}" for i in range(n_cols)], skip_rows=n_comments
        )
    ds = rd.read_csv(
        path,
        read_options=read_opts,
        parse_options=pacsv.ParseOptions(delimiter="\t", quote_char=False),
    )

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t.column(keycol).cast(pa.string()),
                "taxon_id": t.column(taxcol).cast(pa.int64()),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")
