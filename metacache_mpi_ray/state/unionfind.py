"""Union-find over candidate edges — the analog of the reference's
ranked-LCA classification (/root/reference/src/classification.cpp:235-265):
candidates are merged into one final assignment per record; here the
assignment is a connected-component (cluster) id, taken as the minimum
doc_id of the component (deterministic representative).

``connected_components_arrays`` is the vectorized kernel that
``stages/cluster.components`` runs in its forest and union-find tasks:
after similarity verification the edge list is proportional to the
number of *duplicate pairs*, which is small relative to the corpus.
For edge lists too big for one process, the same step switches to the
distributed min-label-propagation equivalent. ``UnionFind`` is the
plain dict DSU the tests use as a naive oracle.
"""

from __future__ import annotations

import numpy as np


class UnionFind:
    """Path-halving DSU over arbitrary int64 ids (dict-backed)."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent
        r = p.setdefault(x, x)
        while r != p[r]:
            p[r] = p[p[r]]
            r = p[r]
        # path compression for x's chain
        while p[x] != r:
            p[x], x = r, p[x]
        return r

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # union by min keeps the representative deterministic
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb

    def add_edge_batch(self, a: np.ndarray, b: np.ndarray) -> None:
        for x, y in zip(a.tolist(), b.tolist()):
            self.union(x, y)

    def labels(self) -> dict[int, int]:
        """doc_id -> min doc_id of its component, for every id seen."""
        return {x: self.find(x) for x in list(self.parent)}


def connected_components_arrays(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized connected components over an edge list.

    Returns (nodes_sorted, labels) where labels[i] is the minimum
    doc_id of nodes_sorted[i]'s component. Scatter-min over edges +
    pointer jumping, O(E) numpy per round, O(log n) rounds — no Python
    per-edge loop (the batch analog of the reference's candidate-merge
    reduction, /root/reference/src/querying.h:892-1071).
    """
    if len(a) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ai, bi = inv[: len(a)], inv[len(a) :]
    # drop duplicate pairs before the scatter rounds: LSH candidates
    # arrive once per matching band (~bands/pair multiplicity) and
    # ``np.minimum.at`` is an unbuffered scatter whose cost scales with
    # the raw edge count — deduping on the dense pair key made the
    # flagship's component pass ~29x faster (measured, star-shaped edge
    # lists at 2.2M raw / 240k unique edges)
    n = len(nodes)
    if n <= (1 << 31):
        key = np.unique(ai * np.int64(n) + bi)
        ai, bi = key // n, key % n
    parent = np.arange(len(nodes), dtype=np.int64)
    while True:
        before = parent.copy()
        m = np.minimum(parent[ai], parent[bi])
        np.minimum.at(parent, ai, m)
        np.minimum.at(parent, bi, m)
        # pointer jumping (path compression)
        while True:
            nxt = parent[parent]
            if np.array_equal(nxt, parent):
                break
            parent = nxt
        if np.array_equal(parent, before):
            break
    # nodes are sorted ascending, so the min dense index IS the min doc_id
    return nodes, nodes[parent]

