"""Hierarchy (taxonomy) operators — the web analog of the reference's
rank tree + ranked-LCA classification + abundance estimation:

* ``Taxonomy`` — small immutable rank tree with cached ranked lineages
  (/root/reference/src/taxonomy.h:253-344, 702-805), built from parent
  edges and broadcast whole via ``ray.put`` (T2 broadcast-state shape).
* ``ranked_lca`` — vectorized pairwise lowest common ancestor over the
  cached lineage matrix (taxonomy.h:575-601).
* ``ranked_lca_classify`` — per-anchor LCA vote over a candidate set
  (classification.cpp:235-265: the best-hits ranked-LCA vote),
  expressed as ONE distributed groupby with Min/Max aggregates: within
  an anchor group, all candidates agree on a lineage prefix iff
  min(prefix) == max(prefix) — no per-group Python, no pair loops.
* ``redistribute_counts`` — abundance estimation with proportional
  redistribution of above-rank counts down to the target rank
  (classification.cpp:362-428: reads classified at coarse ranks are
  split across descendants proportional to their direct counts).
* ``pair_eval`` — pair-counting precision/recall/F1 of a predicted
  clustering vs ground truth (classification_statistics.h:40-241),
  computed from group-size sums (sum of C(m,2) per group) — three
  grouped aggregates, never materializing pairs.

The *big* inputs (per-doc assignments) stay distributed throughout; the
node tables these operators reduce to are small by construction (one
row per taxon / per group size), which is where driver-side final math
is allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd
from ray.data.aggregate import Count, Max, Min


# ---------------------------------------------------------------------------
# Taxonomy tree + vectorized LCA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Taxonomy:
    """Immutable rank tree. ``lineage[i, r]`` = ancestor of node i at
    rank r (or -1 above its depth); rank 0 is the root."""

    node_ids: np.ndarray      # sorted int64 node ids
    lineage: np.ndarray       # (n_nodes, n_ranks) int64, -1 = none
    rank_names: tuple

    @classmethod
    def from_edges(cls, nodes: pd.DataFrame, rank_names) -> "Taxonomy":
        """nodes: DataFrame(node_id, parent_id, rank) with rank a name
        from ``rank_names`` (depth == index in rank_names)."""
        rank_names = tuple(rank_names)
        depth = {r: i for i, r in enumerate(rank_names)}
        parent = dict(zip(nodes["node_id"], nodes["parent_id"]))
        ranks = dict(zip(nodes["node_id"], nodes["rank"]))
        ids = np.sort(nodes["node_id"].to_numpy(dtype=np.int64))
        lin = np.full((len(ids), len(rank_names)), -1, dtype=np.int64)
        for i, nid in enumerate(ids.tolist()):
            cur = nid
            while True:
                d = depth[ranks[cur]]
                lin[i, d] = cur
                if ranks[cur] == rank_names[0]:
                    break
                cur = parent[cur]
        return cls(node_ids=ids, lineage=lin, rank_names=rank_names)

    def _rows(self, nodes: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.node_ids, nodes)
        pos = np.minimum(pos, len(self.node_ids) - 1)
        if not (self.node_ids[pos] == nodes).all():
            raise KeyError("unknown taxon id(s)")
        return pos

    def ancestor(self, nodes: np.ndarray, rank: str) -> np.ndarray:
        """Vectorized ancestor-at-rank (candidates.h:273-276 analog):
        each node's ancestor at ``rank``, or the node itself when it has
        none there (the reference keeps cand.tax when db.ancestor
        returns null — nodes at or above the target rank)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        d = self.rank_names.index(rank)
        anc = self.lineage[self._rows(nodes), d]
        return np.where(anc >= 0, anc, nodes)

    def depth_of(self, nodes: np.ndarray) -> np.ndarray:
        """Deepest set rank index per node (its own rank depth)."""
        lin = self.lineage[self._rows(np.asarray(nodes, dtype=np.int64))]
        set_ = lin >= 0
        return set_.shape[1] - 1 - set_[:, ::-1].argmax(axis=1)

    def ranked_lca(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized pairwise LCA node ids (deepest rank where the two
        cached lineages agree and are set; root if none)."""
        la = self.lineage[self._rows(np.asarray(a, dtype=np.int64))]
        lb = self.lineage[self._rows(np.asarray(b, dtype=np.int64))]
        eq = (la == lb) & (la >= 0)
        # deepest agreeing rank per row
        depth_idx = np.where(eq.any(axis=1), eq.shape[1] - 1 - eq[:, ::-1].argmax(axis=1), 0)
        return la[np.arange(len(la)), depth_idx]


# ---------------------------------------------------------------------------
# distributed ranked-LCA classification over candidate sets
# ---------------------------------------------------------------------------

def ranked_lca_classify(cand, anchor_col: str, lineage_cols: list[str]):
    """Candidate rows (anchor, lineage path columns root-most first,
    plus optional ``is_self`` marker) -> per-anchor classification
    (anchor, lca_rank, lca_node).

    Within one anchor group the candidates agree on lineage prefix
    [c0..ck] iff min == max of the joined prefix string — so the whole
    vote is ONE hash-shuffle groupby with 2 aggregates per rank. Deepest
    agreeing rank wins; no agreement -> 'root'. Anchors without a
    self-marked row are dropped (they exist only as neighbors).
    """
    prefixes = [
        "/".join(lineage_cols[: i + 1]) for i in range(len(lineage_cols))
    ]

    def add_paths(t: pa.Table) -> pa.Table:
        cols = {anchor_col: t[anchor_col]}
        path = None
        for i, c in enumerate(lineage_cols):
            arr = t[c].to_numpy(zero_copy_only=False).astype(np.str_)
            path = arr if path is None else np.char.add(np.char.add(path, "/"), arr)
            cols[f"__p{i}"] = pa.array(path, type=pa.string())
        if "is_self" in t.column_names:
            cols["is_self"] = t["is_self"]
        else:
            cols["is_self"] = pa.array(np.ones(len(t), dtype=np.int64))
        return pa.table(cols)

    aggs = []
    for i in range(len(lineage_cols)):
        aggs.append(Min(f"__p{i}", alias_name=f"min{i}"))
        aggs.append(Max(f"__p{i}", alias_name=f"max{i}"))
    aggs.append(Max("is_self", alias_name="has_self"))

    agg = (
        cand.map_batches(add_paths, batch_format="pyarrow")
        .groupby(anchor_col)
        .aggregate(*aggs)
    )

    n_ranks = len(lineage_cols)
    rank_names = list(lineage_cols)

    def decide(t: pa.Table) -> pa.Table:
        """Arrow-kernel decide (round-3: was to_pylist + per-row rsplit —
        O(anchors) Python on a table with one row per anchor, which is
        NOT small when anchors ~ corpus size)."""
        import pyarrow.compute as pc

        t = t.filter(pc.greater(t["has_self"], 0))
        n = len(t)
        rank = pa.array(np.full(n, "root"), type=pa.string())
        node = pa.array(np.full(n, "root"), type=pa.string())
        decided = pa.array(np.zeros(n, dtype=bool))
        # deepest rank first; node label = last path component
        for i in range(n_ranks - 1, -1, -1):
            mn, mx = t[f"min{i}"], t[f"max{i}"]
            hit = pc.and_(pc.invert(decided), pc.equal(mn, mx))
            last = pc.struct_field(
                pc.extract_regex(mn, pattern=r"(?P<x>[^/]*)$"), "x"
            )
            rank = pc.if_else(hit, rank_names[i], rank)
            node = pc.if_else(hit, last, node)
            decided = pc.or_(decided, hit)
        return pa.table(
            {
                anchor_col: t[anchor_col],
                "lca_rank": rank,
                "lca_node": node,
            }
        )

    return agg.map_batches(decide, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# abundance with proportional redistribution
# ---------------------------------------------------------------------------

def redistribute_counts(
    assignments,
    leaf_cols: list[str],
    *,
    at_leaf_col: str = "at_leaf",
):
    """Per-leaf abundance with above-rank counts redistributed down
    proportional to direct leaf counts (classification.cpp:362-428).

    ``assignments``: Dataset with ``leaf_cols`` (root-most first; the
    coarse level is leaf_cols[:-1]) and a bool/int ``at_leaf_col`` —
    rows with 0 are classified only at the coarse level. Returns one
    row per leaf: (leaf_cols..., n_direct, est_num, denom) where the
    estimate = n_direct + est_num/denom extra reads, kept as exact
    integers (est_num = n_direct * (total_direct + coarse_count)).

    Both aggregations are distributed; the two grouped node tables then
    merge on the driver. They are bounded by the number of DISTINCT
    leaf paths (lang x source here — thousands), not by row count, as
    in the reference's rank-0 abundance pass.
    """
    coarse_cols = leaf_cols[:-1]

    def split(flag: int):
        def f(t: pa.Table) -> pa.Table:
            m = t[at_leaf_col].to_numpy(zero_copy_only=False).astype(bool)
            return t.filter(pa.array(m if flag else ~m))

        return f

    fine = (
        assignments.map_batches(split(1), batch_format="pyarrow")
        .groupby(leaf_cols)
        .aggregate(Count(alias_name="n_direct"))
        .to_pandas()
    )
    coarse = (
        assignments.map_batches(split(0), batch_format="pyarrow")
        .groupby(coarse_cols)
        .aggregate(Count(alias_name="cc"))
        .to_pandas()
    )
    # empty Ray groupby results lose their schema on to_pandas(); a side
    # with no rows (all-fine or all-coarse inputs are normal) must still
    # carry the merge columns
    if fine.empty:
        fine = pd.DataFrame(columns=leaf_cols + ["n_direct"])
    if coarse.empty:
        coarse = pd.DataFrame(columns=coarse_cols + ["cc"])
    tot = fine.groupby(coarse_cols, as_index=False)["n_direct"].sum().rename(
        columns={"n_direct": "t"}
    )
    out = fine.merge(tot, on=coarse_cols, how="left").merge(
        coarse, on=coarse_cols, how="left"
    )
    if fine.empty:
        # no directly-classified rows: nothing to redistribute onto;
        # empty result with an explicit Arrow schema (empty pandas
        # blocks lose their columns in Ray)
        schema = pa.schema(
            [(c, pa.string()) for c in leaf_cols]
            + [(c, pa.int64()) for c in ["n_direct", "est_num", "denom"]]
        )
        return rd.from_arrow(schema.empty_table())
    out["cc"] = pd.to_numeric(out["cc"], errors="coerce").fillna(0).astype("int64")
    out["est_num"] = out["n_direct"] * (out["t"] + out["cc"])
    out["denom"] = out["t"].astype("int64")
    cols = leaf_cols + ["n_direct", "est_num", "denom"]
    return rd.from_pandas(out[cols].astype({c: "int64" for c in ["n_direct", "est_num", "denom"]}))


# ---------------------------------------------------------------------------
# pair-counting clustering evaluation
# ---------------------------------------------------------------------------

def _pair_sum(ds, cols: list[str]) -> int:
    """Σ over groups of C(m, 2), never materializing pairs."""
    sizes = ds.groupby(cols).aggregate(Count(alias_name="m"))

    def pairs(t: pa.Table) -> pa.Table:
        m = t["m"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"p": pa.array(m * (m - 1) // 2, type=pa.int64())})

    out = sizes.map_batches(pairs, batch_format="pyarrow").sum("p")
    return int(out or 0)


def pair_eval(ds, pred_cols: list[str], true_cols: list[str]):
    """Pair-counting precision/recall/F1 of a predicted clustering
    against ground truth over one dataset carrying both label sets
    (classification_statistics.h:40-241 analog). Returns a one-row
    pyarrow table (tp, fp, fn int64; precision, recall, f1 float64)."""
    tp = _pair_sum(ds, pred_cols + true_cols)
    p_pairs = _pair_sum(ds, pred_cols)
    t_pairs = _pair_sum(ds, true_cols)
    fp = p_pairs - tp
    fn = t_pairs - tp
    precision = tp / p_pairs if p_pairs else 1.0
    recall = tp / t_pairs if t_pairs else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall)
        else 0.0
    )
    return pa.table(
        {
            "tp": pa.array([tp], type=pa.int64()),
            "fp": pa.array([fp], type=pa.int64()),
            "fn": pa.array([fn], type=pa.int64()),
            "precision": pa.array([precision], type=pa.float64()),
            "recall": pa.array([recall], type=pa.float64()),
            "f1": pa.array([f1], type=pa.float64()),
        }
    )
