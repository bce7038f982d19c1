"""Cluster assignment — verified edges -> (doc_id, cluster_id, is_dup).

One components step, ``components``, for every caller: the flagship
graph and ``build_index`` (``pipelines/dedup.py``) run it over the
signature pieces of each shard, and ``assign_clusters`` over the blocks
of a docs dataset. It picks one of two interchangeable engines by the
verified-edge count:

* up to ``CLUSTER_DRIVER_EDGE_LIMIT`` edges, union-find in one task:
  each edge block is first contracted to its spanning forest in
  parallel (the serial merge's input shrinks by the block count x band
  multiplicity), one task merges the forests, and its labels go by ref
  to one assign task per shard (the broadcast-small-side join pattern,
  SURVEY.md §2.4 J2);
* past it, ``assign_clusters_distributed`` over
  ``propagate_min_labels`` — fully distributed iterative min-label
  propagation over the edge list (for edge lists too large for one
  process): each round is ONE ``hash_exchange`` on the node id whose
  reduce applies the incoming label messages (a segmented min) and
  sends each node's label to its neighbours and label pointers, until
  no label drops. The analog of the reference's tree-reduction
  candidate merge (querying.h:892-1071) without the
  rank-0 bottleneck; the rounds follow BTS (ICDE 2024), connected
  components as rounds of a keyed exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from metacache_mpi_ray.functions.blocks import _as_table, doc_blocks, hash_exchange
from metacache_mpi_ray.stages.verify import _ids, lookup_sorted

# verified-edge count past which ``components`` runs distributed
# min-label propagation instead of the union-find task
CLUSTER_DRIVER_EDGE_LIMIT = 50_000_000

_CLUSTERS = pa.schema(
    [("doc_id", pa.int64()), ("cluster_id", pa.int64()), ("is_dup", pa.bool_())]
)


@ray.remote(num_returns=2)
def _forest_task(tab):
    """One edge block -> its local spanning forest as (child, parent)
    arrays: contraction preserves connectivity exactly while shrinking
    the block's edge count to < its distinct-node count (cross-band
    duplicate pairs and within-block redundancy vanish here, in
    PARALLEL, before the single serial merge task)."""
    from metacache_mpi_ray.state.unionfind import connected_components_arrays

    tab = _as_table(tab)
    if len(tab) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    nodes, labels = connected_components_arrays(
        tab["a"].to_numpy(zero_copy_only=False),
        tab["b"].to_numpy(zero_copy_only=False),
    )
    m = labels != nodes
    return nodes[m], labels[m]


@ray.remote
def _uf_forest_task(*parts):
    """Final serial merge over the per-block forests (child, parent
    alternating): input is already contracted, so this touches ~#nodes
    edges instead of the raw candidate-edge count."""
    from metacache_mpi_ray.state.unionfind import connected_components_arrays

    a = [x for x in parts[0::2] if len(x)]
    b = [x for x in parts[1::2] if len(x)]
    if not a:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return connected_components_arrays(np.concatenate(a), np.concatenate(b))


@ray.remote
def _assign_task(id_col: str, labels, *pieces) -> pa.Table:
    """Assign task p: the id pieces of shard p, in order, and the
    components' (sorted nodes, labels) -> (doc_id, cluster_id, is_dup):
    an id that is a node of a verified edge is a dup labelled with its
    component's label, any other id is its own singleton."""
    parts = [_ids(t, id_col) for t in map(_as_table, pieces) if t.num_rows]
    ids = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    nodes_s, labs = labels
    pos, dup = lookup_sorted(nodes_s, ids)
    out = np.where(dup, labs[pos], ids) if len(nodes_s) else ids
    return pa.table([ids, out, dup], schema=_CLUSTERS)


def components(id_pieces, edge_refs, n_edges: int, *, id_col: str = "doc_id") -> list:
    """The components step over refs (module docstring):
    ``id_pieces[p]`` holds the refs of the blocks whose ``id_col`` rows
    make up shard p, ``edge_refs`` those of the (a, b, ...) edge blocks,
    ``n_edges`` rows in all -> one (doc_id, cluster_id, is_dup) ref per
    shard. Below the limit a shard's rows keep its pieces' order, and a
    shard with no pieces gives a typed empty block."""
    if n_edges <= CLUSTER_DRIVER_EDGE_LIMIT:
        forests = [_forest_task.remote(r) for r in edge_refs]
        labels = _uf_forest_task.remote(*[r for pair in forests for r in pair])
        return [_assign_task.remote(id_col, labels, *ps) for ps in id_pieces]
    # past this many edges even the union-find task outgrows one
    # process: components come from rounds of the keyed exchange, whose
    # partition p holds the ids of shard p when the shards are those of
    # ``split_by_key``
    return assign_clusters_distributed(
        rd.from_arrow_refs([r for ps in id_pieces for r in ps]),
        rd.from_arrow_refs(edge_refs),
        id_col=id_col,
        num_partitions=len(id_pieces),
    ).to_arrow_refs()


def assign_clusters(docs, edges, *, id_col: str = "doc_id"):
    """docs + verified edges -> clusters dataset (doc_id, cluster_id,
    is_dup): ``components`` with one shard per non-empty docs block, so
    below the edge limit output block i holds the rows of docs block i.
    An empty ``docs`` gives a typed empty dataset."""
    edge_blocks = list(doc_blocks(edges))
    id_pieces = [[ref] for ref, _ in doc_blocks(docs)]
    if not id_pieces:
        return rd.from_arrow(_CLUSTERS.empty_table())
    return rd.from_arrow_refs(
        components(
            id_pieces,
            [ref for ref, _ in edge_blocks],
            sum(rows for _, rows in edge_blocks),
            id_col=id_col,
        )
    )


def assign_clusters_distributed(
    docs, edges, *, id_col: str = "doc_id", num_partitions: int = 32
):
    """Fully distributed cluster assignment: connected components via
    min-label propagation, then one two-input exchange on the doc id
    that left-joins the labels onto docs. The scale path when the dup
    subset itself is too large for one driver-side DSU / one broadcast
    object."""
    labels = propagate_min_labels(edges, num_partitions=num_partitions)

    def ids(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t[id_col].cast(pa.int64())})

    def finish(d: pa.Table, lt: pa.Table) -> pa.Table:
        node = _np(d, "doc_id") if d.num_rows else np.empty(0, dtype=np.int64)
        lab, dup = node, np.zeros(len(node), dtype=bool)
        if lt.num_rows:
            lt = lt.sort_by("doc_id")
            pos, dup = lookup_sorted(_np(lt, "doc_id"), node)
            lab = np.where(dup, _np(lt, "cluster_id")[pos], node)
        return pa.table([node, lab, dup], schema=_CLUSTERS)

    return hash_exchange(
        [docs.map_batches(ids, batch_format="pyarrow"), labels],
        ["doc_id"],
        finish,
        num_partitions=num_partitions,
    )


# rows of the connected-components state, one tagged table keyed on
# ``node``: a node's current label, a label message sent to a node, and
# a send request (``node`` sends its label to ``lab``) — the pointer
# edge (lab(v), v) that makes the next round deliver lab(lab(v)) to v
_LABEL, _MSG, _SEND = 0, 1, 2
_STATE = pa.schema([("node", pa.int64()), ("lab", pa.int64()), ("kind", pa.int8())])


def _np(t: pa.Table, c: str) -> np.ndarray:
    return t[c].to_numpy(zero_copy_only=False)


def _state(node, lab, kind: int) -> pa.Table:
    return pa.table(
        {
            "node": pa.array(node, type=pa.int64()),
            "lab": pa.array(lab, type=pa.int64()),
            "kind": pa.array(np.full(len(node), kind, dtype=np.int8)),
        },
        schema=_STATE,
    )


def _seg_min(node: np.ndarray, lab: np.ndarray):
    """(distinct nodes sorted, min lab per node)."""
    order = np.lexsort((lab, node))
    node, lab = node[order], lab[order]
    first = np.ones(len(node), dtype=bool)
    first[1:] = node[1:] != node[:-1]
    return node[first], lab[first]


def _min_combine(t: pa.Table) -> pa.Table:
    """Map-side combine: a block's label messages shrink to one (the
    min) per target node; labels and send requests pass through."""
    kind = _np(t, "kind")
    m = kind == _MSG
    if m.sum() < 2:
        return t
    node, lab = _seg_min(_np(t, "node")[m], _np(t, "lab")[m])
    return pa.concat_tables([t.filter(pa.array(~m)), _state(node, lab, _MSG)])


@ray.remote
def _lowered(t: pa.Table) -> int:
    return int((t.schema.metadata or {}).get(b"lowered", 0))


def _cc_round(st: pa.Table, ed: pa.Table) -> pa.Table:
    """One round over a partition: ``st`` holds the state rows of its
    nodes, ``ed`` the symmetrized edges (node=src, dst) leaving them.
    New label = min(label, messages); then every node sends its new
    label along its edges and to each node that asked for it, and asks
    its own label for that label's label. The count of labels that dropped
    rides in the schema metadata (``lowered``)."""
    if st.num_rows == 0:
        return _STATE.empty_table().replace_schema_metadata({"lowered": "0"})
    node, lab, kind = _np(st, "node"), _np(st, "lab"), _np(st, "kind")
    cur = kind == _LABEL
    upd = kind <= _MSG
    nodes, new = _seg_min(node[upd], lab[upd])
    old = np.full(len(nodes), np.iinfo(np.int64).max, dtype=np.int64)
    pos, _ = lookup_sorted(nodes, node[cur])
    old[pos] = lab[cur]
    lowered = int((new < old).sum())
    send = kind == _SEND
    src = node[send]
    dst = lab[send]
    if ed.num_rows:
        src = np.concatenate([_np(ed, "node"), src])
        dst = np.concatenate([_np(ed, "dst"), dst])
    pos, found = lookup_sorted(nodes, src)
    ptr = new != nodes  # a root's label is itself: nothing to ask
    out = pa.concat_tables(
        [
            _state(nodes, new, _LABEL),
            _state(dst[found], new[pos[found]], _MSG),
            _state(new[ptr], nodes[ptr], _SEND),
        ]
    )
    return out.replace_schema_metadata({"lowered": str(lowered)})


def propagate_min_labels(edges, max_iters: int = 50, num_partitions: int = 32):
    """Distributed connected components over an edge list.

    Returns a Dataset (doc_id, cluster_id) covering every id that occurs
    in an edge. Each round is one ``hash_exchange`` on the node id over
    two inputs: the state rows (labels, label messages, send requests)
    and the symmetrized edges. Its reduce sets label(v) = min(label(v),
    messages to v), sends the new label along v's edges and to every
    node that asked for it, and asks label(v) for its own label: that
    pointer-jumping term delivers label(label(v)) a round later, which
    makes the round count O(log diameter) instead of O(diameter) —
    without it a chain longer than ``max_iters`` hops would mislabel.
    The split's map-side combine keeps one message (the min) per target
    node and block. Each reduce counts the labels it lowered; labels
    only drop, so a round whose total is 0 is the exact fixpoint.
    Raises if the fixpoint is not reached within ``max_iters`` rounds.
    """

    def seed(t: pa.Table) -> pa.Table:
        a, b = _np(t, "a"), _np(t, "b")
        m = np.minimum(a, b)
        return _state(np.concatenate([a, b]), np.concatenate([m, m]), _MSG)

    def sym(t: pa.Table) -> pa.Table:
        a, b = _np(t, "a"), _np(t, "b")
        return pa.table(
            {
                "node": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), type=pa.int64()),
            }
        )

    def labels(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["kind"], _LABEL))
        return pa.table({"doc_id": t["node"], "cluster_id": t["lab"]})

    sym_edges = edges.map_batches(sym, batch_format="pyarrow").materialize()
    state = edges.map_batches(seed, batch_format="pyarrow")
    for _ in range(max_iters):
        state = hash_exchange(
            [state, sym_edges],
            ["node"],
            _cc_round,
            num_partitions=num_partitions,
            combine=[_min_combine, None],
        )
        # labels only drop and the node set is fixed, so a round in
        # which no label dropped is the exact fixpoint
        if sum(ray.get([_lowered.remote(r) for r in state.to_arrow_refs()])) == 0:
            return state.map_batches(labels, batch_format="pyarrow")
    raise RuntimeError(
        f"propagate_min_labels: no fixpoint within {max_iters} rounds "
        "(the round count is logarithmic in the component diameter — "
        "check the edge list for non-integer or null ids)"
    )
