"""extend_index — the reference's ``modify`` mode (add documents to an
existing database, /root/reference/src/mode_build.cpp:1114-1137).

The contract: build(A) then extend(B) produces the SAME cluster
partition as build(A ∪ B) on corpora where co-bucketing implies
near-identity (the planted token corpus — no verification-failing
candidate pairs, no over-cap buckets), including exact cluster_id
labels (min doc_id of the merged component) and is_dup flags.
"""

import glob
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.pipelines import incremental
from metacache_mpi_ray.pipelines.extend import extend_index
from metacache_mpi_ray.pipelines.incremental import (
    ReplIndex,
    build_index,
    query_against_index,
    read_clusters,
)
from metacache_mpi_ray.stages.ingest import ingest_documents
from metacache_mpi_ray.state import checkpoint
from metacache_mpi_ray.state.checkpoint import ConfigMismatch, resume_pending_commit

CFG = DedupConfig()


def _token_docs(ids: np.ndarray, src_ids: np.ndarray | None = None):
    """doc i carries text 'tok<s> ' * 40 where s = src_ids[i] (defaults
    to i): distinct tokens share no 16-char shingles, equal tokens are
    exact duplicates — the SQL-reproducible planted relation."""
    src = src_ids if src_ids is not None else ids
    txt = np.char.multiply(np.char.add(np.char.add("tok", src.astype("U")), " "), 40)
    return ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(ids, type=pa.int64()),
                    "text": pa.array(txt, type=pa.string()),
                }
            )
        )
    )


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("doc_id").reset_index(drop=True)[
        ["doc_id", "cluster_id", "is_dup"]
    ]


def _parquet_bytes(root: str) -> dict:
    """Every .parquet file under ``root``: relative path -> bytes."""
    out = {}
    for f in sorted(glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True)):
        with open(f, "rb") as fh:
            out[os.path.relpath(f, root)] = fh.read()
    return out


def _assert_same_files(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    assert [p for p in got if got[p] != want[p]] == []


def _extend_row(root: str) -> dict:
    """The last ``extend_index`` metrics.jsonl row of ``root``."""
    with open(os.path.join(root, "metrics.jsonl")) as f:
        rows = [json.loads(l) for l in f if l.strip()]
    ext = [r for r in rows if r["stage"] == "extend_index"]
    assert ext, "no extend_index telemetry row"
    return ext[-1]


@pytest.fixture()
def built_a(tmp_path):
    """Index over A = docs 0..99, where 3k and 3k+1 are duplicates
    (text of 3k), plus singletons."""
    ids = np.arange(100, dtype=np.int64)
    src = ids.copy()
    src[ids % 3 == 1] -= 1  # 3k+1 duplicates 3k
    root = str(tmp_path / "idx")
    docs = _token_docs(ids, src)
    build_index(docs, CFG, root, num_partitions=4)
    return root, ids, src


def _b_batch():
    """B: copies of stored docs 0, 3, 30 (merging into A clusters),
    one PAIR of new docs duplicating each other (both 'tokNN'), and
    fresh singletons."""
    b_ids = np.array([1000, 1003, 1030, 2000, 2001, 3000, 3001], dtype=np.int64)
    b_src = np.array([0, 3, 30, 777777, 777777, 888001, 999002], dtype=np.int64)
    return b_ids, b_src


def test_extend_matches_full_rebuild(built_a, tmp_path):
    root, a_ids, a_src = built_a
    b_ids, b_src = _b_batch()
    extended = extend_index(_token_docs(b_ids, b_src), root, CFG, num_partitions=4)
    got = _canon(extended.to_pandas())

    # the oracle: one build over A ∪ B
    u_ids = np.concatenate([a_ids, b_ids])
    u_src = np.concatenate([a_src, b_src])
    root2 = str(tmp_path / "rebuild")
    want = _canon(
        build_index(_token_docs(u_ids, u_src), CFG, root2, num_partitions=4)
        .to_pandas()
    )
    pd.testing.assert_frame_equal(got, want)
    # spot meaning: 1000 joined doc 0's cluster (min id 0); 2000/2001
    # cluster together at min 2000; 3000/3001 stay singletons
    by_id = got.set_index("doc_id")
    assert by_id.loc[1000, "cluster_id"] == 0
    assert by_id.loc[1003, "cluster_id"] == 3
    assert by_id.loc[2001, "cluster_id"] == 2000
    assert bool(by_id.loc[2000, "is_dup"]) and bool(by_id.loc[2001, "is_dup"])
    assert not by_id.loc[3000, "is_dup"] and by_id.loc[3000, "cluster_id"] == 3000
    # stored singleton 30 became a dup through the new copy
    assert bool(by_id.loc[30, "is_dup"]) and by_id.loc[30, "cluster_id"] == 30


def test_extend_chains_and_queries_see_new_docs(built_a):
    root, _, _ = built_a
    b_ids, b_src = _b_batch()
    extend_index(_token_docs(b_ids, b_src), root, CFG, num_partitions=4)
    # second batch: a copy of a FIRST-EXTEND doc (2000's text) must
    # resolve into the 2000-cluster — proves batch-1 artifacts are live
    c_ids = np.array([5000], dtype=np.int64)
    c_src = np.array([777777], dtype=np.int64)
    ext2 = extend_index(_token_docs(c_ids, c_src), root, CFG, num_partitions=4)
    by_id = _canon(ext2.to_pandas()).set_index("doc_id")
    assert by_id.loc[5000, "cluster_id"] == 2000
    assert len(by_id) == 100 + 7 + 1
    # lineage records both extensions
    with open(os.path.join(root, "extends.json")) as f:
        recs = json.load(f)
    assert [r["batch_id"] for r in recs] == ["b0001", "b0002"]
    assert recs[0]["n_new"] == 7 and recs[1]["n_new"] == 1
    # the incremental QUERY path probes the extended index too
    q = query_against_index(
        _token_docs(np.array([9000], dtype=np.int64),
                    np.array([777777], dtype=np.int64)),
        root,
        num_partitions=4,
    ).to_pandas()
    assert bool(q.loc[0, "matched"]) and q.loc[0, "matched_cluster_id"] == 2000


def test_extend_verified_edges_sit_in_their_shards(built_a, capsys):
    """An extend batch stages its verified edges like the build does: by
    the shard of ``b`` under ``verified/<p>/``, sorted by (a, b). After
    two batches every verified file sits in a shard directory and holds
    only that shard's rows, ``info`` counts the build's edges plus each
    batch's ``n_new_edges``, and re-clustering every stored edge gives
    the clusters ``read_clusters`` resolves."""
    import pyarrow.parquet as pq

    from metacache_mpi_ray.__main__ import main
    from metacache_mpi_ray.functions.blocks import split_by_key
    from metacache_mpi_ray.pipelines.merge import merge_cluster_runs

    root, a_ids, a_src = built_a
    assert main(["info", "--index", root]) == 0
    build_edges = json.loads(capsys.readouterr().out.strip())["rows_verified"]
    b_ids, b_src = _b_batch()
    c_ids = np.array([5000, 5003], dtype=np.int64)
    c_src = np.array([777777, 3], dtype=np.int64)  # joins 2000's and 3's clusters
    extend_index(_token_docs(b_ids, b_src), root, CFG, num_partitions=4)
    extend_index(_token_docs(c_ids, c_src), root, CFG, num_partitions=4)

    files = sorted(glob.glob(f"{root}/verified/**/*.parquet", recursive=True))
    shards = 4
    assert files
    for f in files:
        rel = os.path.relpath(f, f"{root}/verified").split(os.sep)
        assert len(rel) == 2 and rel[0] in {str(p) for p in range(shards)}, f
        t = pq.read_table(f, partitioning=None)
        assert t.column_names == ["a", "b", "est_sim"]
        assert t.equals(t.sort_by([("a", "ascending"), ("b", "ascending")])), f
        pieces = split_by_key(t, ["b"], shards)
        assert sum(x.num_rows for x in pieces) == pieces[int(rel[0])].num_rows, f
    assert any("extend-b0002" in f for f in files)

    with open(os.path.join(root, "extends.json")) as fh:
        new_edges = [r["n_new_edges"] for r in json.load(fh)]
    assert min(new_edges) > 0
    assert main(["info", "--index", root]) == 0
    info = json.loads(capsys.readouterr().out.strip())
    assert info["rows_verified"] == build_edges + sum(new_edges)
    assert info["files_per_shard"]["verified"] == [
        len(glob.glob(f"{root}/verified/{p}/*.parquet")) for p in range(shards)
    ]

    all_docs = _token_docs(
        np.concatenate([a_ids, b_ids, c_ids]), np.concatenate([a_src, b_src, c_src])
    )
    merged = merge_cluster_runs(all_docs, rd.read_parquet(f"{root}/verified"))
    cols = ["doc_id", "cluster_id"]
    pd.testing.assert_frame_equal(
        _canon(merged.to_pandas())[cols], _canon(read_clusters(root).to_pandas())[cols]
    )


def test_extend_config_guard_and_batch_id_guard(built_a):
    root, _, _ = built_a
    other = DedupConfig(n_perms=CFG.n_perms, n_bands=CFG.n_bands // 2)
    with pytest.raises(ConfigMismatch):
        extend_index(_token_docs(np.array([1, 2])), root, other)
    b_ids, b_src = _b_batch()
    extend_index(
        _token_docs(b_ids, b_src), root, CFG, num_partitions=4, batch_id="x1"
    )
    with pytest.raises(ConfigMismatch):
        extend_index(
            _token_docs(b_ids + 50_000, b_src), root, CFG,
            num_partitions=4, batch_id="x1",
        )


def test_interrupted_commit_rolls_forward(built_a, monkeypatch):
    """A crash between journal write and installation must be healed by
    the next call, producing the same final state."""
    root, a_ids, a_src = built_a
    b_ids, b_src = _b_batch()

    real_install = checkpoint._checkpoint_install_files
    calls = {"n": 0}

    def crash_once(r, j):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("simulated crash before install")
        return real_install(r, j)

    monkeypatch.setattr(checkpoint, "_checkpoint_install_files", crash_once)
    with pytest.raises(RuntimeError, match="simulated crash"):
        extend_index(_token_docs(b_ids, b_src), root, CFG, num_partitions=4)
    # journal exists, nothing installed into signatures/ yet
    assert os.path.exists(os.path.join(root, "extend.commit.json"))
    monkeypatch.setattr(checkpoint, "_checkpoint_install_files", real_install)
    assert resume_pending_commit(root)
    assert not os.path.exists(os.path.join(root, "extend.commit.json"))
    # rolled-forward state == a clean extend's state
    got = _canon(read_clusters(root).to_pandas())
    by_id = got.set_index("doc_id")
    assert by_id.loc[1000, "cluster_id"] == 0
    assert by_id.loc[2001, "cluster_id"] == 2000
    assert len(got) == 107
    with open(os.path.join(root, "extends.json")) as f:
        assert json.load(f)[0]["n_new"] == 7


def test_extend_merges_old_clusters(tmp_path):
    """A new doc similar to TWO dissimilar stored docs must merge their
    clusters transitively (the contracted union-find's merge case —
    unreachable with exact-copy fixtures, where a new doc has one text).

    Triangle: a and b share no tokens; n = first half of a + first half
    of b, so jaccard(n,a) ~ jaccard(n,b) ~ 1/3 while jaccard(a,b) = 0.
    Config: 128 single-row bands (catches 1/3-similarity pairs with
    probability ~1) and threshold 0.2 (3+ sigma below the 1/3 estimate,
    so verification decisions are stable); extend and rebuild share
    signatures bit-for-bit, so their decisions agree pair-by-pair."""
    cfg = DedupConfig(n_perms=128, n_bands=128, sim_threshold=0.2)
    ta = " ".join(f"alpha{i}token" for i in range(400))
    tb = " ".join(f"bravo{i}token" for i in range(400))
    tn = (
        " ".join(f"alpha{i}token" for i in range(200))
        + " "
        + " ".join(f"bravo{i}token" for i in range(200))
    )
    singles = [f"solo{i}word " * 60 for i in range(5)]

    def docs(ids, texts):
        return ingest_documents(
            rd.from_arrow(
                pa.table(
                    {
                        "doc_id": pa.array(ids, type=pa.int64()),
                        "text": pa.array(texts, type=pa.string()),
                    }
                )
            )
        )

    a_ids = [1, 2, 10, 11, 12, 13, 14]
    a_txt = [ta, tb] + singles
    root = str(tmp_path / "idx")
    base = build_index(docs(a_ids, a_txt), cfg, root, num_partitions=4).to_pandas()
    base = base.set_index("doc_id")
    assert not base["is_dup"].any()  # a and b are NOT similar to each other

    got = _canon(
        extend_index(docs([100], [tn]), root, cfg, num_partitions=4).to_pandas()
    )
    root2 = str(tmp_path / "rebuild")
    want = _canon(
        build_index(
            docs(a_ids + [100], a_txt + [tn]), cfg, root2, num_partitions=4
        ).to_pandas()
    )
    pd.testing.assert_frame_equal(got, want)
    by_id = got.set_index("doc_id")
    # the merge actually happened: a, b and n share one cluster (min id 1)
    assert by_id.loc[1, "cluster_id"] == 1
    assert by_id.loc[2, "cluster_id"] == 1
    assert by_id.loc[100, "cluster_id"] == 1
    assert bool(by_id.loc[2, "is_dup"])
    # doc 2's stored row still says cluster 2; the query must resolve it
    # through the remap log. Doc 2's own text also matches doc 100
    # (cluster 1 as written), so the second half of it — similar to doc
    # 2 only — is what proves the log is applied
    tb_half = " ".join(f"bravo{i}token" for i in range(200, 400))
    q = query_against_index(
        docs([500, 501], [tb, tb_half]), root, num_partitions=4
    ).to_pandas().set_index("doc_id")
    assert q["matched"].all()
    assert (q["matched_cluster_id"] == 1).all()


def test_extend_bandless_legacy_index(built_a):
    """A root without a format-2 index.json (an unsharded index from an
    older writer, e.g. one without a bands artifact) is refused by
    query, extend, the REPL and a resuming build_index — never misread
    and never silently extended."""
    root, a_ids, a_src = built_a
    os.remove(os.path.join(root, "index.json"))
    shutil.rmtree(os.path.join(root, "bands"))
    os.remove(os.path.join(root, "bands.done"))
    b_ids, b_src = _b_batch()
    with pytest.raises(ConfigMismatch, match="rebuild with build_index"):
        extend_index(_token_docs(b_ids, b_src), root, CFG, num_partitions=4)
    with pytest.raises(ConfigMismatch, match="rebuild with build_index"):
        query_against_index(_token_docs(b_ids, b_src), root, num_partitions=4)
    with pytest.raises(ConfigMismatch, match="rebuild with build_index"):
        ReplIndex(root)
    with pytest.raises(ConfigMismatch, match="rebuild with build_index"):
        build_index(_token_docs(a_ids, a_src), CFG, root, num_partitions=4)
    assert not os.path.exists(os.path.join(root, "extends.json"))


@pytest.mark.parametrize("seed", [11, 37])
def test_extend_parity_randomized(tmp_path, seed):
    """Randomized structures: dup groups of size 1-6 with members split
    arbitrarily between the base corpus and three chained extend batches
    (including batch-only groups -> pure new x new dups, groups spread
    over several batches, and base-only groups that the extensions must
    leave untouched). build(A)+extend(B1)+extend(B2)+extend(B3) must
    equal build(A∪B) exactly, at shard counts P = 1, 2, 5 and batch block
    counts k, and a query against the extended index must equal the
    same query against the rebuild."""
    rng = np.random.default_rng(seed)
    ids, srcs, side = [], [], []
    next_id = 1
    for g in range(40):
        size = int(rng.integers(1, 7))
        src = 10_000 + g
        members = []
        for _ in range(size):
            members.append(next_id)
            next_id += int(rng.integers(1, 9))
        split = rng.random(size) < 0.4  # ~40% of members arrive via extend
        if size == 1 and rng.random() < 0.5:
            split[:] = True  # some batch-only singletons too
        for m, in_b in zip(members, split):
            ids.append(m)
            srcs.append(src)
            side.append(bool(in_b))
    ids = np.array(ids, dtype=np.int64)
    srcs = np.array(srcs, dtype=np.int64)
    side = np.array(side)
    if not (~side).any():  # base must exist to build an index over
        side[0] = False
    which = rng.integers(0, 3, size=len(ids))  # the extend batch of a member
    q_ids = np.arange(900_000, 900_012, dtype=np.int64)
    q_src = np.concatenate([10_000 + rng.choice(40, 8, replace=False), 50_000 + np.arange(4)])

    def query(root, k):
        out = query_against_index(
            _token_docs(q_ids, q_src).repartition(k), root, num_partitions=4
        ).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    root2 = str(tmp_path / f"rebuild{seed}")
    want = _canon(
        build_index(_token_docs(ids, srcs), CFG, root2, num_partitions=4)
        .to_pandas()
    )
    want_q = query(root2, 1)
    assert want_q["matched"].sum() == 8
    blocks = (1, 3, 8) if seed == 11 else (8, 1, 3)
    for shards, k in zip((1, 2, 5), blocks):
        root = str(tmp_path / f"idx{seed}-{shards}")
        build_index(_token_docs(ids[~side], srcs[~side]), CFG, root, num_partitions=shards)
        for j in range(3):
            sel = side & (which == j)
            if sel.any():
                got = extend_index(
                    _token_docs(ids[sel], srcs[sel]).repartition(k), root, CFG,
                    num_partitions=4,
                )
        pd.testing.assert_frame_equal(_canon(got.to_pandas()), want)
        pd.testing.assert_frame_equal(query(root, k), want_q)


def test_extended_root_refuses_manifest_pinned_resume(built_a, tmp_path):
    """A one-shot checkpointed run (manifest-pinned inputs) must refuse
    to resume from a root that extend_index mutated afterwards."""
    from metacache_mpi_ray.state.checkpoint import init_checkpoint_root

    root, _, _ = built_a
    b_ids, b_src = _b_batch()
    extend_index(_token_docs(b_ids, b_src), root, CFG, num_partitions=4)
    some_file = str(tmp_path / "in.parquet")
    open(some_file, "w").close()
    with pytest.raises(ConfigMismatch, match="extended"):
        init_checkpoint_root(root, CFG, input_files=[some_file])
    # build_index-style use (no manifest) keeps working
    init_checkpoint_root(root, CFG)


def test_extend_empty_batch_is_noop(built_a):
    root, a_ids, _ = built_a
    before = _canon(read_clusters(root).to_pandas())
    out = extend_index(
        _token_docs(np.array([], dtype=np.int64)), root, CFG, num_partitions=4
    )
    pd.testing.assert_frame_equal(_canon(out.to_pandas()), before)
    assert not os.path.exists(os.path.join(root, "extends.json"))


def test_extend_records_phase_timings(built_a):
    """Each extend appends one metrics.jsonl row with per-phase wall
    times (r4 verdict item 6: the sorted-staging cost must be visible
    in telemetry, not re-derived from bench deltas). An extend that
    takes its query's batch graph says so (``batch_reused``), keeps the
    graph's phase keys at 0.0 and counts only its own reads."""
    root, _, _ = built_a
    graph = ("sign_sort_stage", "band_stage", "probe_verify")
    b_ids = np.arange(3000, 3020, dtype=np.int64)
    extend_index(_token_docs(b_ids), root, CFG, num_partitions=4,
                 batch_id="phase-timing")
    row = _extend_row(root)
    ph = row["phases"]
    assert {*graph, "contract", "rewrite_clusters", "commit"} <= set(ph)
    assert row["n_new"] == 20
    assert abs(sum(ph.values()) - row["seconds"]) < 1.5
    assert row["batch_reused"] is False
    assert row["stored_bytes_read"] > 0  # the probe consulted the band shards

    docs = _token_docs(np.arange(4000, 4020, dtype=np.int64)).materialize()
    query_against_index(docs, root, num_partitions=4)
    extend_index(docs, root, CFG, num_partitions=4, batch_id="after-query")
    row = _extend_row(root)
    assert row["batch_reused"] is True
    assert [row["phases"][k] for k in graph] == [0.0, 0.0, 0.0]
    assert {"contract", "rewrite_clusters", "commit"} <= set(row["phases"])
    assert row["n_new"] == 20
    # no compaction and no log fold: extend itself read no stored file
    assert (row["stored_bytes_read"], row["files_decoded"], row["bytes_decoded"]) == (0, 0, 0)


def test_query_and_extend_run_no_keyed_range_sort_or_groupby(built_a, monkeypatch):
    """The per-batch query and extend paths are plain Ray tasks over the
    index's shard files: no Ray Data sort, groupby, repartition or
    materialize runs inside either call (the batch itself is read once
    through its blocks). Extend's returned clusters dataset is consumed
    only after the guard is lifted."""
    root, _, _ = built_a
    b_ids, b_src = _b_batch()
    q_docs, e_docs = _token_docs(b_ids, b_src), _token_docs(b_ids, b_src)
    calls = []

    def refuse(name):
        def f(self, *args, **kwargs):
            calls.append(name)
            raise AssertionError(f"Dataset.{name} on the per-batch path")

        return f

    with monkeypatch.context() as m:
        for name in ("sort", "groupby", "repartition", "materialize"):
            m.setattr(rd.Dataset, name, refuse(name))
        res = query_against_index(q_docs, root, num_partitions=4)
        assert res.to_pandas()["matched"].sum() == 3  # copies of 0, 3, 30
        out = extend_index(e_docs, root, CFG, num_partitions=4)
    assert calls == []
    assert out.count() == 107


def test_extend_compaction_bounds_files_and_rolls_forward(tmp_path, monkeypatch):
    """Chaining more extends than MAX_SHARD_FILES keeps every shard at
    most MAX_SHARD_FILES + 1 files and the cluster log bounded (shard
    merges and the log fold run inside a batch's commit), the clusters
    equal a rebuild over the union after every batch, and a crash in
    the middle of a compacting install rolls forward to the same
    state."""
    import metacache_mpi_ray.pipelines.extend as ext_mod
    from metacache_mpi_ray.pipelines.incremental import (
        log_batches,
        log_files,
        shard_files,
    )

    bound = ext_mod.MAX_SHARD_FILES
    root = str(tmp_path / "idx")
    a_ids = np.arange(100, 120, dtype=np.int64)
    build_index(_token_docs(a_ids), CFG, root, num_partitions=2)
    real_install = checkpoint._checkpoint_install_files
    crashed = []

    def crash_midway(r, journal_path):
        # install half of the journal's moves and removals, then die
        with open(journal_path) as f:
            j = json.load(f)
        if not j["removes"] or crashed:
            return real_install(r, journal_path)
        crashed.append(json.loads(j["lineage"])["batch_id"])
        for src, dst in j["moves"][: len(j["moves"]) // 2]:
            os.replace(src, dst)
        for path in j["removes"][: len(j["removes"]) // 2]:
            os.remove(path)
        raise RuntimeError("simulated crash inside a compacting install")

    monkeypatch.setattr(checkpoint, "_checkpoint_install_files", crash_midway)
    u_ids, u_src = list(a_ids), list(a_ids)
    max_files, log_hist = 0, []

    def assert_equals_rebuild(tag):
        want = build_index(
            _token_docs(np.array(u_ids), np.array(u_src)), CFG,
            str(tmp_path / f"rebuild-{tag}"), num_partitions=2,
        )
        pd.testing.assert_frame_equal(
            _canon(read_clusters(root).to_pandas()), _canon(want.to_pandas())
        )

    for i in range(bound + 3):
        # each batch: a copy of a stored doc whose id undercuts its
        # cluster label (a remap and a dup mark), a copy of the previous
        # batch's fresh doc, and a fresh doc
        b_ids = np.array([i, 1000 + i, 2000 + i], dtype=np.int64)
        b_src = np.array([100 + i, 5000 + i - 1 if i else 107, 5000 + i], dtype=np.int64)
        try:
            extend_index(_token_docs(b_ids, b_src), root, CFG, num_partitions=2)
        except RuntimeError as e:
            assert "simulated crash" in str(e)
            assert resume_pending_commit(root)
            u_ids += list(b_ids)
            u_src += list(b_src)
            assert_equals_rebuild("crash")
        else:
            u_ids += list(b_ids)
            u_src += list(b_src)
        for stage in ("signatures", "bands", "verified", "clusters"):
            for p in range(2):
                max_files = max(max_files, len(shard_files(root, stage, p)))
        log_hist.append(log_batches(log_files(root)))
    assert_equals_rebuild("end")
    assert crashed, "no compacting install ran"
    assert max_files <= bound + 1
    assert max(log_hist) == bound
    assert any(b < a for a, b in zip(log_hist, log_hist[1:])), log_hist  # folded
    with open(os.path.join(root, "extends.json")) as f:
        assert len(json.load(f)) == bound + 3


def test_extend_files_do_not_depend_on_batch_block_order(built_a, tmp_path, monkeypatch):
    """The same batch rows given in opposite block orders extend two
    copies of one root to byte-identical files, for a batch's new files
    and for a batch that folds the cluster log into every clusters shard
    (a compaction) alike: extend writes every stage by the build's rule
    (sorted by the stage key, then every other column)."""
    import metacache_mpi_ray.pipelines.extend as ext_mod

    root, _, _ = built_a
    roots = [str(tmp_path / "fwd"), str(tmp_path / "rev")]
    for r in roots:
        shutil.copytree(root, r)

    # copies of stored singletons (2, 5, 8, 11) log dup marks; the fold
    # is decided in the driver: a log bound of 1 folds the log at n2
    for batch, bound, src in (
        ("n1", ext_mod.MAX_SHARD_FILES, [0, 2, 5, 777, 777, 888]),
        ("n2", 1, [8, 11, 30, 999, 999, 555]),
    ):
        monkeypatch.setattr(ext_mod, "MAX_SHARD_FILES", bound)
        src = np.array(src * 2)  # every doc has an exact twin
        txt = np.char.multiply(np.char.add(np.char.add("tok", src.astype("U")), " "), 40)
        ids = np.arange(len(src), dtype=np.int64) + (1000 if batch == "n1" else 2000)
        t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(txt, pa.string())})
        blocks = [t.slice(i, 4) for i in range(0, t.num_rows, 4)]
        for r, order in zip(roots, (blocks, blocks[::-1])):
            extend_index(ingest_documents(rd.from_arrow(order)), r, CFG, batch_id=batch)
        fwd, rev = _parquet_bytes(roots[0]), _parquet_bytes(roots[1])
        _assert_same_files(fwd, rev)
    assert not [p for p in fwd if p.startswith("cluster_log")]
    assert [p for p in fwd if p.startswith("clusters")] == [
        f"clusters/{p}/extend-n2.parquet" for p in range(4)
    ]


@pytest.mark.parametrize("shards", [1, 4])
def test_extend_reusing_its_querys_batch_writes_the_same_files(tmp_path, shards):
    """query(d) then extend(d) takes the query's batch graph; its files
    and returned clusters equal those of extend(d) alone on a copy of
    the same root, byte for byte, and the kept batch is gone after."""
    ids = np.arange(100, dtype=np.int64)
    src = ids.copy()
    src[ids % 3 == 1] -= 1
    base = str(tmp_path / "base")
    build_index(_token_docs(ids, src), CFG, base, num_partitions=shards)
    roots = [str(tmp_path / "reuse"), str(tmp_path / "alone")]
    for r in roots:
        shutil.copytree(base, r)
    docs = _token_docs(*_b_batch()).materialize()
    assert query_against_index(docs, roots[0]).to_pandas()["matched"].sum() == 3
    assert incremental._last_batch is not None
    got = [_canon(extend_index(docs, r, CFG, batch_id="d1").to_pandas()) for r in roots]
    assert incremental._last_batch is None
    assert [_extend_row(r)["batch_reused"] for r in roots] == [True, False]
    pd.testing.assert_frame_equal(got[0], got[1])
    _assert_same_files(_parquet_bytes(roots[0]), _parquet_bytes(roots[1]))


def test_extend_misses_a_batch_kept_for_another_state_or_dataset(built_a, tmp_path):
    """The kept query batch is taken only for the same blocks against the
    same index files. An extend in between, the root deleted and rebuilt
    at the same path, and an equal-content but separately built dataset
    each run a fresh graph (``batch_reused`` false) and equal an extend
    of the batch alone; no extend, not even a refused one, leaves the
    batch kept."""
    root, a_ids, a_src = built_a
    base = str(tmp_path / "base")
    shutil.copytree(root, base)
    docs = _token_docs(*_b_batch()).materialize()
    other = _token_docs(np.array([5000, 5001]), np.array([0, 777777])).materialize()

    def extend_alone(tag, before=None):
        r = str(tmp_path / f"alone-{tag}")
        shutil.copytree(base, r)
        if before is not None:
            extend_index(before, r, CFG, batch_id="other")
        out = extend_index(docs, r, CFG, batch_id="d")
        return _canon(out.to_pandas()), _parquet_bytes(r)

    def check(r, out, want):
        assert _extend_row(r)["batch_reused"] is False
        assert incremental._last_batch is None
        pd.testing.assert_frame_equal(_canon(out.to_pandas()), want[0])
        _assert_same_files(_parquet_bytes(r), want[1])

    alone = extend_alone("plain")

    r = str(tmp_path / "between")
    shutil.copytree(base, r)
    query_against_index(docs, r)
    extend_index(other, r, CFG, batch_id="other")
    check(r, extend_index(docs, r, CFG, batch_id="d"), extend_alone("other", other))
    query_against_index(docs, r)
    with pytest.raises(ConfigMismatch, match="already installed"):
        extend_index(docs, r, CFG, batch_id="d")
    assert incremental._last_batch is None

    r = str(tmp_path / "rebuilt")
    shutil.copytree(base, r)
    query_against_index(docs, r)
    shutil.rmtree(r)
    build_index(_token_docs(a_ids, a_src), CFG, r, num_partitions=4)
    check(r, extend_index(docs, r, CFG, batch_id="d"), alone)

    r = str(tmp_path / "equal-content")
    shutil.copytree(base, r)
    query_against_index(docs, r)
    same = _token_docs(*_b_batch()).materialize()
    check(r, extend_index(same, r, CFG, batch_id="d"), alone)
