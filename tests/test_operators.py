"""Unit/e2e tests for the secondary operators: simhash, substring
anchors + suffix-array LCS, ANN, embedding near-dup, text stats,
distributed label propagation."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from metacache_mpi_ray.config import DedupConfig

CFG = DedupConfig()


def _docs_ds(texts: list[str], start_id: int = 0):
    """Tiny canonical docs dataset from raw texts."""
    from metacache_mpi_ray.stages.ingest import ingest_documents

    tab = pa.table(
        {
            "doc_id": pa.array(range(start_id, start_id + len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    return ingest_documents(rd.from_arrow(tab))


# ---------------------------------------------------------------- simhash

def test_simhash_identical_and_near_docs():
    base = "the quick brown fox jumps over the lazy dog and runs far away " * 8
    near = base.replace("lazy", "sleepy")
    other = "completely different content about mountains rivers and lakes " * 8
    ds = _docs_ds([base, base, near, other])
    from metacache_mpi_ray.stages.simhash import simhash_dedup

    pairs = simhash_dedup(ds, CFG, num_partitions=4).to_pandas()
    got = {tuple(sorted(p)) for p in zip(pairs["a"], pairs["b"])}
    assert (0, 1) in got                       # identical -> hamming 0
    assert all(0 in p or 1 in p or 2 in p for p in got)
    assert not any(3 in p for p in got)        # unrelated doc stays out


def test_simhash_matrix_properties():
    from metacache_mpi_ray.stages.simhash import hamming_distance_u64, simhash_matrix

    t1 = b"some repeated body of text " * 20
    t2 = b"some repeated body of test " * 20   # small change
    t3 = b"entirely unrelated material here! " * 20
    m = simhash_matrix([t1, t1, t2, t3], CFG)
    assert m[0] == m[1]
    d12 = hamming_distance_u64(m[[0]], m[[2]])[0]
    d13 = hamming_distance_u64(m[[0]], m[[3]])[0]
    assert d12 < d13


# ------------------------------------------------------------- substring

def test_suffix_array_and_lcs():
    from metacache_mpi_ray.stages.substring import (
        longest_common_substring_len,
        suffix_array,
    )

    s = np.frombuffer(b"banana", dtype=np.uint8)
    sa = suffix_array(s)
    # suffixes of banana sorted: a, ana, anana, banana, na, nana
    assert sa.tolist() == [5, 3, 1, 0, 4, 2]

    assert longest_common_substring_len(b"hello world", b"world peace") == 5
    assert longest_common_substring_len(b"abc", b"xyz") == 0
    shared = b"0123456789" * 10
    a = b"AAA" + shared + b"BBB"
    b = b"CCC" + shared + b"DDD"
    assert longest_common_substring_len(a, b) == len(shared)


def test_anchor_candidates_find_shared_spans():
    from metacache_mpi_ray.stages.substring import anchor_candidates

    shared = "the shared span of text that is quite long and distinctive " * 6
    texts = [
        "prefix one " * 30 + shared + " suffix one " * 30,
        "totally different beginning " * 30 + shared + " other ending " * 30,
        "no overlap here at all just words " * 40,
    ]
    ds = _docs_ds(texts)
    edges = anchor_candidates(ds, CFG, num_partitions=4).to_pandas()
    got = {tuple(sorted(p)) for p in zip(edges["a"], edges["b"])}
    assert (0, 1) in got
    assert not any(2 in p for p in got)


# ------------------------------------------------------------------- ann

@pytest.fixture(scope="module")
def emb_ds():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(40, 16))
    # rows 0 and 1 nearly identical; row 2 = exact copy of 0
    base[1] = base[0] + rng.normal(scale=0.01, size=16)
    base[2] = base[0]
    tab = pa.table(
        {
            "vec_id": pa.array(range(40), type=pa.int64()),
            "embedding": pa.array(
                [row.astype(np.float32).tolist() for row in base],
                type=pa.list_(pa.float32()),
            ),
        }
    )
    return rd.from_arrow(tab)


def test_brute_force_topk(emb_ds):
    from metacache_mpi_ray.stages.ann import brute_force_topk

    out = brute_force_topk(emb_ds, query_ids=[0], k=3).to_pandas()
    assert len(out) == 3
    top2 = set(out[out["rank"] <= 2]["neighbor_id"])
    assert top2 == {1, 2}


def test_embedding_near_dup(emb_ds):
    from metacache_mpi_ray.stages.ann import embedding_near_dup

    pairs = embedding_near_dup(
        emb_ds, sim_threshold=0.98, num_partitions=4
    ).to_pandas()
    got = {tuple(sorted(p)) for p in zip(pairs["a"], pairs["b"])}
    assert {(0, 1), (0, 2)} <= got  # planted dups found (star edges from 0)
    assert all({p[0], p[1]} <= {0, 1, 2} for p in got)


# ------------------------------------------------------- label propagation

def test_propagate_min_labels_matches_union_find():
    from metacache_mpi_ray.stages.cluster import propagate_min_labels
    from metacache_mpi_ray.state.unionfind import connected_components_arrays

    edges = pd.DataFrame(
        {"a": [1, 2, 10, 11, 20, 3], "b": [2, 3, 11, 12, 21, 4]}
    )
    ds = rd.from_pandas(edges)
    dist = propagate_min_labels(ds, num_partitions=4).to_pandas()
    nodes, labels = connected_components_arrays(edges["a"].to_numpy(), edges["b"].to_numpy())
    uf = dict(zip(nodes.tolist(), labels.tolist()))
    dist_map = dict(zip(dist["doc_id"], dist["cluster_id"]))
    assert dist_map == uf


# ------------------------------------------------------------- text stats

def test_fingerprint_stable_and_distinct():
    from metacache_mpi_ray.stages.textstats import fingerprint_batch

    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": pa.array(["same text", "same text", "different"]),
        }
    )
    out = fingerprint_batch(batch)
    fp = out["fingerprint"].to_pylist()
    assert fp[0] == fp[1] != fp[2]


def test_fingerprint_mod_matches_naive_and_batch_invariant():
    from metacache_mpi_ray.stages.textstats import (
        _FP_B,
        _FP_P,
        fingerprint_mod_batch,
    )

    texts = ["hello world", "", "x", "hello world", "a" * 300, "zb" * 97]

    def naive(s: str) -> int:
        h = 0
        for ch in s.encode("utf-8"):
            h = (h * _FP_B + ch) % _FP_P
        return h

    batch = pa.table(
        {"doc_id": pa.array(range(len(texts)), type=pa.int64()),
         "text": pa.array(texts)}
    )
    fp = fingerprint_mod_batch(batch)["fingerprint"].to_pylist()
    assert fp == [naive(s) for s in texts]
    # per-row semantics: any batch split gives the same values
    parts = [fingerprint_mod_batch(batch.slice(i, 1)) for i in range(len(texts))]
    assert pa.concat_tables(parts)["fingerprint"].to_pylist() == fp


def test_simhash_kernel_parity_with_reference_impl():
    """The bit-matrix simhash kernel must produce bit-identical
    signatures to the round-1 per-bit reference kernel."""
    import numpy as np

    from metacache_mpi_ray.stages.simhash import (
        _simhash_from_shingles_ref,
        simhash_from_shingles,
    )

    rng = np.random.default_rng(12)
    for _ in range(5):
        n_docs = int(rng.integers(1, 40))
        counts = rng.integers(1, 400, size=n_docs)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        hashes = rng.integers(0, 2**63, size=offsets[-1]).astype(np.uint64)
        a = simhash_from_shingles(hashes, offsets)
        b = _simhash_from_shingles_ref(hashes, offsets)
        assert (a == b).all()
    # empty inputs
    e = simhash_from_shingles(np.empty(0, np.uint64), np.zeros(1, np.int64))
    assert len(e) == 0


def test_bucket_all_pairs_reassembles_split_buckets():
    """All-pairs enumeration must be exact even when one bucket spans
    many blocks, and the cap must apply to the REASSEMBLED bucket."""
    import pyarrow as pa
    import ray.data as rd

    from metacache_mpi_ray.stages.candidates import bucket_all_pairs, dedupe_edges

    n = 60
    tab = pa.table(
        {
            "k": pa.array([7] * n + [9, 9, 9], type=pa.int64()),
            "doc_id": pa.array(list(range(n)) + [100, 101, 102], type=pa.int64()),
        }
    )
    ds = rd.from_arrow(tab).repartition(11)
    pairs = dedupe_edges(
        bucket_all_pairs(ds, ["k"], cap=256), num_partitions=4
    ).to_pandas()
    # bucket 7: C(60,2) pairs; bucket 9: C(3,2)
    assert len(pairs) == n * (n - 1) // 2 + 3
    assert (pairs["a"] < pairs["b"]).all()
    # over-cap bucket drops entirely (no pairs from key 7 at cap 50)
    few = dedupe_edges(
        bucket_all_pairs(ds, ["k"], cap=50), num_partitions=4
    ).to_pandas()
    assert len(few) == 3


def test_auto_planes_scaling():
    """Plane auto-sizing: sf-scale corpora keep the 12-plane default
    (oracle stability); bucket count tracks corpus size at scale; the
    clamp bounds per-plane recall loss."""
    from metacache_mpi_ray.stages.ann import _auto_planes

    assert _auto_planes(500) == 12
    assert _auto_planes(30_000) == 12
    assert _auto_planes(1_000_000) == 17
    assert _auto_planes(10**9) == 24  # clamped
    # mean bucket size stays near target in the scaling regime
    for n in (10**5, 10**6, 10**7):
        p = _auto_planes(n)
        if 12 < p < 24:
            assert 4 <= n / 2**p <= 16


@pytest.mark.parametrize("n_blocks", [1, 3, 17])
def test_dedupe_edges_counts_match_pandas(n_blocks):
    """Band counting must equal the pandas groupby count at every block
    and partition count, including when one pair's rows are spread over
    many input blocks (heavy multiplicity, many small blocks, so the
    map-side partial counts must be summed)."""
    from metacache_mpi_ray.stages.candidates import dedupe_edges

    rng = np.random.default_rng(13)
    df = pd.DataFrame(
        {
            "a": rng.integers(0, 25, size=4000).astype(np.int64),
            "b": rng.integers(0, 25, size=4000).astype(np.int64),
        }
    )
    want = (
        df.groupby(["a", "b"], as_index=False)
        .size()
        .rename(columns={"size": "n_bands_hit"})
        .astype({"n_bands_hit": np.int64})
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    ds = rd.from_pandas(df).repartition(n_blocks)
    for num_partitions in (1, 2, 5):
        got = (
            dedupe_edges(ds, num_partitions=num_partitions)
            .to_pandas()
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("n_blocks", [1, 3, 17])
def test_unique_pairs_matches_pandas(n_blocks):
    """Pair dedup must equal pandas drop_duplicates at every block and
    partition count, including when one pair's rows are spread over
    many input blocks (heavy per-pair multiplicity + many small
    blocks)."""
    from metacache_mpi_ray.stages.candidates import unique_pairs

    rng = np.random.default_rng(7)
    a = rng.integers(0, 40, size=5000)
    b = rng.integers(0, 40, size=5000)
    df = pd.DataFrame({"a": a.astype(np.int64), "b": b.astype(np.int64)})
    want = (
        df.drop_duplicates(["a", "b"])
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    ds = rd.from_pandas(df).repartition(n_blocks)
    for num_partitions in (1, 2, 5):
        got = (
            unique_pairs(ds, num_partitions=num_partitions)
            .to_pandas()
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)


# ------------------------------------------------ the one verify step

def _brute_pairs(ids, score) -> set:
    """Every (a, b) with a < b that ``score(i, j) -> (value, keep)``
    keeps, as (a, b, value) rows: the candidate-free oracle."""
    out = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            v, keep = score(i, j)
            if keep:
                out.add((int(ids[i]), int(ids[j]), v))
    return out


def test_simhash_dedup_join_strategy_matches_broadcast():
    """simhash_dedup through the verify step equals a brute-force
    all-pairs Hamming check on in-process simhashes, at P = 1, 3, 8."""
    from metacache_mpi_ray.stages.simhash import SimHasher, simhash_dedup

    base = "the quick brown fox jumps over the lazy dog and runs far away " * 8
    near = base.replace("lazy", "sleepy")
    other = "completely different content about mountains rivers and lakes " * 8
    texts = [base, base, near, other]
    docs = _docs_ds(texts)
    sh = SimHasher(CFG)(docs.take_batch(10, batch_format="pyarrow"))
    vals = sh["simhash"].to_numpy().view(np.uint64)

    def score(i, j):
        h = bin(int(vals[i] ^ vals[j])).count("1")
        return h, h <= CFG.simhash_hamming

    want = _brute_pairs(sh["doc_id"].to_pylist(), score)
    assert any(h == 0 for _, _, h in want)  # identical pair
    for p in (1, 3, 8):
        pairs = simhash_dedup(docs, CFG, num_partitions=p).to_pandas()
        assert set(zip(pairs["a"], pairs["b"], pairs["hamming"])) == want, p


def test_embedding_near_dup_join_strategy_matches_broadcast(emb_ds):
    """embedding_near_dup through the verify step equals a brute-force
    all-pairs cosine check, at P = 1, 3, 8."""
    from metacache_mpi_ray.stages.ann import embedding_near_dup

    t = emb_ds.take_batch(100, batch_format="pyarrow")
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)

    def score(i, j):
        c = float(mat[i] @ mat[j])
        return round(c, 9), c >= 0.98

    want = _brute_pairs(t["vec_id"].to_pylist(), score)
    assert {(a, b) for a, b, _ in want} >= {(0, 1), (0, 2)}
    for p in (1, 3, 8):
        pairs = embedding_near_dup(emb_ds, sim_threshold=0.98, num_partitions=p).to_pandas()
        got = set(zip(pairs["a"], pairs["b"], pairs["cos_sim"].round(9)))
        assert got == want, p


def test_verify_pairs_payload_auto_spills_to_join():
    """The verify step scores pairs whose endpoints fall in different
    shards (the join on ``a`` then ``b``) at every partition count."""
    from metacache_mpi_ray.stages.verify import verify_pairs_payload

    vals = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "v": pa.array([10, 10, 99], type=pa.int64()),
        }
    )
    edges = rd.from_arrow(
        pa.table(
            {"a": pa.array([1, 1], type=pa.int64()),
             "b": pa.array([2, 3], type=pa.int64())}
        )
    )

    def extract(b):
        return (
            b["doc_id"].to_numpy(zero_copy_only=False),
            b["v"].to_numpy(zero_copy_only=False).reshape(-1, 1).astype(np.int64),
        )

    def score(x, y):
        d = np.abs(x[:, 0] - y[:, 0])
        return d, d == 0

    for p in (1, 2, 8):
        out = verify_pairs_payload(
            edges,
            rd.from_arrow(vals),
            id_col="doc_id",
            extract=extract,
            score=score,
            value_col="dist",
            value_type=pa.int64(),
            payload_dtype=np.int64,
            num_partitions=p,
        ).to_pandas()
        assert set(zip(out["a"], out["b"], out["dist"])) == {(1, 2, 0)}, p


def test_ivf_indexed_prunes_reads_and_keeps_recall(tmp_path):
    """Cell-partitioned IVF: the probe must READ only nprobe cell
    directories (byte-level pruning assertion) and still find the true
    neighbors of well-separated clusters."""
    from metacache_mpi_ray.stages.ann import (
        brute_force_topk,
        build_ivf_index,
        ivf_topk_indexed,
    )

    rng2 = np.random.default_rng(31)
    d, n_clusters, per = 16, 8, 30
    centers = rng2.normal(size=(n_clusters, d)) * 5
    vecs = np.concatenate(
        [centers[c] + rng2.normal(scale=0.05, size=(per, d)) for c in range(n_clusters)]
    )
    ids = np.arange(len(vecs), dtype=np.int64)
    tab = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.array(
                [v.astype(np.float32).tolist() for v in vecs],
                type=pa.list_(pa.float32()),
            ),
        }
    )
    emb = rd.from_arrow(tab)
    idx = str(tmp_path / "ivf")
    build_ivf_index(emb, idx, n_cells=n_clusters, seed=5, train_sample=512)

    qids = [0, 35, 70]
    qmat = vecs[qids]
    stats = {}
    got = ivf_topk_indexed(
        idx, qids, qmat, k=3, nprobe=2, stats_out=stats
    ).to_pandas()
    # read pruning really happened, at the byte level
    assert stats["probed_files"] < stats["total_files"]
    assert stats["probed_bytes"] < stats["total_bytes"]
    assert len(stats["probed_cells"]) <= 3 * 2
    # same answers as global brute force (clusters are well separated,
    # so every true neighbor lives in the query's own probed cell)
    want = brute_force_topk(emb, query_ids=qids, k=3).to_pandas()
    key = lambda df: set(zip(df["query_id"], df["neighbor_id"], df["rank"]))
    assert key(got) == key(want)


def test_trigram_langid_holdout_accuracy():
    """Trigram model (>=20 Latin langs + script detection): accuracy on
    held-out sentences must clear 0.9."""
    from metacache_mpi_ray.stages.langid import TrigramLangId

    holdout = {
        "en": "when the morning comes we will walk down to the river and watch the water move slowly under the old bridge",
        "de": "wenn der morgen kommt gehen wir hinunter zum fluss und schauen wie das wasser langsam unter der alten brücke fließt",
        "fr": "quand le matin arrive nous descendons vers la rivière et regardons l'eau couler lentement sous le vieux pont",
        "es": "cuando llega la mañana caminamos hacia el río y miramos como el agua se mueve lentamente bajo el viejo puente",
        "it": "quando arriva il mattino camminiamo verso il fiume e guardiamo l'acqua muoversi lentamente sotto il vecchio ponte",
        "pt": "quando chega a manhã caminhamos até o rio e observamos a água se mover lentamente sob a velha ponte",
        "nl": "als de ochtend komt lopen wij naar de rivier en kijken hoe het water langzaam onder de oude brug stroomt",
        "sv": "när morgonen kommer går vi ner till floden och ser vattnet röra sig långsamt under den gamla bron",
        "fi": "kun aamu koittaa kävelemme joelle ja katsomme kuinka vesi liikkuu hitaasti vanhan sillan alla",
        "pl": "kiedy nadchodzi poranek idziemy nad rzekę i patrzymy jak woda powoli płynie pod starym mostem",
        "cs": "když přijde ráno jdeme k řece a díváme se jak voda pomalu teče pod starým mostem",
        "ro": "când vine dimineața mergem spre râu și privim apa cum se mișcă încet pe sub podul vechi",
        "hu": "amikor eljön a reggel lesétálunk a folyóhoz és nézzük ahogy a víz lassan folyik a régi híd alatt",
        "tr": "sabah geldiğinde nehre doğru yürürüz ve suyun eski köprünün altından yavaşça akışını izleriz",
        "id": "ketika pagi tiba kami berjalan menuju sungai dan melihat air bergerak perlahan di bawah jembatan tua",
        "vi": "khi buổi sáng đến chúng tôi đi bộ xuống dòng sông và nhìn dòng nước chảy chậm dưới cây cầu cũ",
        "sw": "asubuhi inapofika tunatembea hadi mtoni na kutazama maji yakisonga polepole chini ya daraja la zamani",
        "tl": "kapag dumating ang umaga naglalakad kami papunta sa ilog at pinapanood ang tubig na dahan dahang umaagos sa ilalim ng lumang tulay",
        "ru": "когда наступает утро мы идем к реке и смотрим как вода медленно течет под старым мостом",
        "el": "όταν έρχεται το πρωί περπατάμε προς το ποτάμι και βλέπουμε το νερό να κυλάει αργά κάτω από την παλιά γέφυρα",
        "he": "כאשר הבוקר מגיע אנחנו הולכים אל הנהר ומסתכלים על המים זורמים לאט מתחת לגשר הישן",
        "ar": "عندما يأتي الصباح نمشي إلى النهر ونشاهد الماء يتحرك ببطء تحت الجسر القديم",
        "zh": "早晨来临的时候我们走到河边看着水在老桥下慢慢流动",
        "ko": "아침이 오면 우리는 강으로 걸어가 오래된 다리 아래로 물이 천천히 흐르는 것을 바라본다",
        "ja": "朝が来るとわたしたちは川へあるいていき、ふるい橋の下をゆっくり流れる水をながめます",
    }
    scorer = TrigramLangId()
    batch = pa.table(
        {
            "doc_id": pa.array(range(len(holdout)), type=pa.int64()),
            "text": pa.array(list(holdout.values()), type=pa.string()),
        }
    )
    out = scorer(batch)
    pred = out["pred_lang"].to_pylist()
    want = list(holdout.keys())
    acc = np.mean([p == w for p, w in zip(pred, want)])
    wrong = [(w, p) for p, w in zip(pred, want) if p != w]
    assert acc >= 0.9, wrong
    # degenerate inputs
    e = scorer(pa.table({"doc_id": pa.array([0, 1], type=pa.int64()),
                         "text": pa.array(["", "zq"])}))
    assert e["pred_lang"].to_pylist() == ["unknown", "unknown"]


def test_fingerprint_mod_trailing_empty_texts():
    """r3 review regression: a batch ENDING in empty texts must not
    truncate the last non-empty doc's polynomial (the old reduceat
    boundary clip folded its final term into the empty segment)."""
    from metacache_mpi_ray.stages.textstats import (
        _FP_B,
        _FP_P,
        fingerprint_mod_batch,
    )

    def naive(s: str) -> int:
        h = 0
        for ch in s.encode("utf-8"):
            h = (h * _FP_B + ch) % _FP_P
        return h

    for texts in (["ab", ""], ["ab", "", ""], ["", "ab", ""], [""], ["", ""]):
        batch = pa.table(
            {"doc_id": pa.array(range(len(texts)), type=pa.int64()),
             "text": pa.array(texts)}
        )
        got = fingerprint_mod_batch(batch)["fingerprint"].to_pylist()
        assert got == [naive(s) for s in texts], texts


def test_trigram_langid_batch_composition_invariant():
    """r3 review regression: a doc's (pred_lang, lang_score) must not
    depend on empty/short neighbors in the same batch."""
    from metacache_mpi_ray.stages.langid import TrigramLangId

    scorer = TrigramLangId()

    def run(texts):
        t = pa.table(
            {"doc_id": pa.array(range(len(texts)), type=pa.int64()),
             "text": pa.array(texts, type=pa.string())}
        )
        out = scorer(t)
        return list(zip(out["pred_lang"].to_pylist(), out["lang_score"].to_pylist()))

    doc = "the quick brown fox jumps over the lazy dog"
    alone = run([doc])[0]
    assert run([doc, ""])[0] == alone
    assert run(["", doc])[1] == alone
    assert run([doc, "ab"])[0] == alone
    assert run(["", doc, ""])[1] == alone


def test_verify_pairs_payload_join_empty_block():
    """r3 review regression: an empty block on the payload side (width-0
    extracted matrix) must not ZeroDivisionError in pack()."""
    from metacache_mpi_ray.stages.verify import verify_pairs_payload

    vals = pa.table(
        {"doc_id": pa.array([1, 2], type=pa.int64()),
         "v": pa.array([10, 10], type=pa.int64())}
    )
    empty = vals.slice(0, 0)
    table = rd.from_arrow(vals).union(rd.from_arrow(empty))
    edges = rd.from_arrow(
        pa.table({"a": pa.array([1], type=pa.int64()),
                  "b": pa.array([2], type=pa.int64())})
    )

    def extract(b):
        return (
            b["doc_id"].to_numpy(zero_copy_only=False),
            b["v"].to_numpy(zero_copy_only=False).reshape(-1, 1).astype(np.int64),
        )

    def score(x, y):
        d = np.abs(x[:, 0] - y[:, 0])
        return d, d == 0

    out = verify_pairs_payload(
        edges, table, id_col="doc_id", extract=extract, score=score,
        value_col="dist", value_type=pa.int64(), payload_dtype=np.int64,
        num_partitions=2,
    ).to_pandas()
    assert set(zip(out["a"], out["b"], out["dist"])) == {(1, 2, 0)}
def test_verify_join_paths_absent_endpoints():
    """Edges whose endpoints are all ABSENT from the payload table must
    yield zero verified pairs, not crash: no pair task finds a payload
    row to attach."""
    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.stages.ingest import ingest_documents
    from metacache_mpi_ray.stages.signatures import compute_signatures
    from metacache_mpi_ray.stages.verify import (
        verify_edges,
        verify_edges_exact_jaccard,
    )

    cfg = DedupConfig()
    docs = ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(4), type=pa.int64()),
                    "text": pa.array(
                        [" ".join(f"tok{i}z{j}" for j in range(40)) for i in range(4)]
                    ),
                }
            )
        )
    )
    sigs = compute_signatures(docs, cfg).materialize()
    ghost_edges = rd.from_arrow(
        pa.table({"a": pa.array([1000, 1001], type=pa.int64()),
                  "b": pa.array([2000, 2001], type=pa.int64())})
    )
    v = verify_edges(ghost_edges, sigs, cfg, num_partitions=2)
    assert v.count() == 0
    vj = verify_edges_exact_jaccard(ghost_edges, docs, cfg, num_partitions=2)
    assert vj.count() == 0


def test_verify_join_paths_zero_edges():
    """A globally-empty edge list must not crash the verify step, and
    its output keeps the (a, b, value) schema."""
    from metacache_mpi_ray.stages.verify import verify_edges, verify_pairs_payload
    from metacache_mpi_ray.stages.signatures import compute_signatures
    from metacache_mpi_ray.stages.ingest import ingest_documents
    from metacache_mpi_ray.config import DedupConfig

    cfg = DedupConfig()
    docs = ingest_documents(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(6), type=pa.int64()),
                    "text": pa.array(
                        [" ".join(f"tok{i}y{j}" for j in range(50)) for i in range(6)]
                    ),
                }
            )
        )
    )
    sigs = compute_signatures(docs, cfg).materialize()
    no_edges = rd.from_arrow(
        pa.table({"a": pa.array([], type=pa.int64()),
                  "b": pa.array([], type=pa.int64())})
    )
    out = verify_edges(no_edges, sigs, cfg, num_partitions=2)
    # NB: Ray 2.49 to_pandas() drops columns on empty datasets; assert
    # on the dataset schema instead
    assert out.count() == 0 and out.schema().names == ["a", "b", "est_sim"]

    vals = rd.from_arrow(
        pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                  "v": pa.array([10, 10], type=pa.int64())})
    )

    def extract(b):
        return (
            b["doc_id"].to_numpy(zero_copy_only=False),
            b["v"].to_numpy(zero_copy_only=False).reshape(-1, 1).astype(np.int64),
        )

    def score(x, y):
        d = np.abs(x[:, 0] - y[:, 0])
        return d, d == 0

    out2 = verify_pairs_payload(
        no_edges, vals, id_col="doc_id", extract=extract, score=score,
        value_col="dist", value_type=pa.int64(), payload_dtype=np.int64,
        num_partitions=2,
    )
    assert out2.count() == 0 and out2.schema().names == ["a", "b", "dist"]
def test_emb_matrix_null_and_ragged_rows():
    """Null embedding rows become zero vectors (cosine 0 — never match)
    instead of misaligning every later row; ragged rows raise."""
    import pytest as _pytest

    from metacache_mpi_ray.stages.ann import _emb_matrix, brute_force_topk

    rng = np.random.default_rng(0)
    vecs = [rng.normal(size=8).tolist() for _ in range(10)]
    vecs[2] = None
    arr = pa.array(vecs, type=pa.list_(pa.float64()))
    m = _emb_matrix(arr)
    assert m.shape == (10, 8)
    assert (m[2] == 0).all()
    assert np.allclose(m[3], vecs[3])

    emb = rd.from_arrow(
        pa.table({"vec_id": pa.array(range(10), type=pa.int64()), "embedding": arr})
    )
    top = brute_force_topk(emb, [0], k=3).to_pandas()
    assert 2 not in set(top["neighbor_id"])  # null row never matches

    with _pytest.raises(ValueError, match="ragged"):
        _emb_matrix(pa.array([[1.0, 2.0], [1.0, 2.0, 3.0]], type=pa.list_(pa.float64())))

    assert _emb_matrix(pa.array([None, None], type=pa.list_(pa.float64()))).shape == (2, 0)
    # null + zero-length valid rows: coherent (n, 0), not a reshape error
    assert _emb_matrix(pa.array([None, []], type=pa.list_(pa.float64()))).shape == (2, 0)


def test_ann_all_null_embedding_block():
    """A BLOCK whose embeddings are all null must not crash the scorer
    (a width-0 matrix would break the matmul against the query matrix);
    null rows simply drop."""
    from metacache_mpi_ray.stages.ann import brute_force_topk, embedding_near_dup

    rng = np.random.default_rng(1)
    good = pa.table(
        {
            "vec_id": pa.array(range(8), type=pa.int64()),
            "embedding": pa.array(
                [rng.normal(size=8).tolist() for _ in range(8)],
                type=pa.list_(pa.float64()),
            ),
        }
    )
    allnull = pa.table(
        {
            "vec_id": pa.array([100, 101], type=pa.int64()),
            "embedding": pa.array([None, None], type=pa.list_(pa.float64())),
        }
    )
    emb = rd.from_arrow(good).union(rd.from_arrow(allnull))
    top = brute_force_topk(emb, [0], k=3).to_pandas()
    assert len(top) == 3
    assert not {100, 101} & set(top["neighbor_id"])
    pairs = embedding_near_dup(emb, sim_threshold=0.99, num_partitions=2).to_pandas()
    if len(pairs):
        assert not {100, 101} & (set(pairs["a"]) | set(pairs["b"]))


def test_verify_join_paths_empty_signatures():
    """A globally-empty signatures/payload side of the verify step must
    return empty, not crash."""
    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.stages.verify import verify_edges

    cfg = DedupConfig()
    edges = rd.from_arrow(
        pa.table({"a": pa.array([1], type=pa.int64()),
                  "b": pa.array([2], type=pa.int64())})
    )
    no_sigs = rd.from_arrow(
        pa.table({"doc_id": pa.array([], type=pa.int64()),
                  "sig": pa.array([], type=pa.large_binary())})
    )
    out = verify_edges(edges, no_sigs, cfg, num_partitions=2)
    assert out.count() == 0 and out.schema().names == ["a", "b", "est_sim"]
def _overcap_layout_rows():
    """Filler bucket (7 rows), hot bucket H (20 rows) and filler bucket
    (9 rows), ids disjoint per bucket."""
    h_ids = list(range(100, 120))
    docs1 = list(range(10, 17))
    docs2 = list(range(300, 309))
    rows = pa.table(
        {
            "k": pa.array([1] * 7 + [2] * 20 + [3] * 9, type=pa.int64()),
            "doc_id": pa.array(docs1 + h_ids + docs2, type=pa.int64()),
        }
    )
    return rows, set(h_ids), set(docs1), set(docs2)


def _layouts():
    """Input block count x exchange partition count."""
    return [(k, p) for k in (1, 3, 8) for p in (1, 2, 5)]


def test_bucket_all_pairs_hidden_overcap_fragment(monkeypatch):
    """A bucket whose TOTAL size exceeds the cap emits no pairs at any
    block layout: every bucket reaches the reduce whole, so no fragment
    of the 20-row bucket can slip under cap=10. Filler buckets (7 and 9
    rows, under cap) emit their full pair sets."""
    from metacache_mpi_ray.stages import joins
    from metacache_mpi_ray.stages.candidates import bucket_all_pairs

    rows, hset, docs1, docs2 = _overcap_layout_rows()
    for k, parts in _layouts():
        monkeypatch.setattr(joins, "default_num_partitions", lambda: parts)
        pairs = bucket_all_pairs(
            rd.from_arrow(rows).repartition(k), key_cols=["k"], id_col="doc_id", cap=10
        ).to_pandas()
        assert not pairs.duplicated(["a", "b"]).any(), (k, parts)
        h_pairs = pairs[pairs["a"].isin(hset) | pairs["b"].isin(hset)]
        assert len(h_pairs) == 0, (k, parts, len(h_pairs))
        f1 = pairs[pairs["a"].isin(docs1)]
        f2 = pairs[pairs["a"].isin(docs2)]
        assert len(f1) == 21 and len(f2) == 36, (k, parts)


def test_bucket_edges_overcap_bucket_emits_nothing_at_any_layout():
    """Star edges obey the same whole-bucket cap: the 20-row bucket at
    cap=10 emits nothing at any block layout, and each filler bucket
    emits its exact star (min id -> every other member)."""
    from metacache_mpi_ray.stages.candidates import bucket_edges

    rows, hset, docs1, docs2 = _overcap_layout_rows()
    want = {(min(g), d) for g in (docs1, docs2) for d in g if d != min(g)}
    for k, parts in _layouts():
        edges = bucket_edges(
            rd.from_arrow(rows).repartition(k), ["k"], cap=10, num_partitions=parts
        ).to_pandas()
        got = set(zip(edges["a"].tolist(), edges["b"].tolist()))
        assert len(edges) == len(got), (k, parts)
        assert got == want, (k, parts)


def test_ann_layout_recall_at_threshold_two_sizes():
    """Analytic at-threshold (cos 0.95) candidate recall of the auto
    LSH layout, pinned at multiple corpus sizes (r4 advice asked for a
    published recall/cost curve; per-plane collision p = 1 -
    arccos(s)/pi ~= 0.899). The +1-table-per-2-planes rate keeps
    at-threshold recall from decaying below ~0.55 all the way to the
    24-plane clamp, vs ~0.59 at 1M rows for the old per-3-planes rate."""
    from metacache_mpi_ray.stages.ann import _resolve_lsh_layout

    p = 1.0 - np.arccos(0.95) / np.pi

    def recall(n_rows):
        planes, tables = _resolve_lsh_layout(n_rows)
        return 1.0 - (1.0 - p**planes) ** tables

    assert _resolve_lsh_layout(1_000_000) == (17, 6)
    assert recall(30_000) >= 0.70  # 12 planes / 4 tables (sf scale)
    assert recall(1_000_000) >= 0.60  # 17 planes / 6 tables
    assert recall(10**9) >= 0.50  # clamp: 24 planes / 10 tables


def test_ann_layout_explicit_values_respected():
    """An explicitly passed n_tables/n_planes is used verbatim, never
    bumped by the auto-sizer (r4 advice: max() silently overrode it)."""
    from metacache_mpi_ray.stages.ann import _resolve_lsh_layout

    assert _resolve_lsh_layout(10**9, n_tables=2) == (24, 2)
    assert _resolve_lsh_layout(1_000, n_planes=20) == (20, 4)
    assert _resolve_lsh_layout(1_000, n_planes=20, n_tables=7) == (20, 7)


def test_ann_candidate_recall_empirical_two_layouts():
    """Empirical at-threshold recall on a planted corpus for two layout
    points of the auto curve (the 12/4 floor and the 1M-row 17/6
    point, forced explicitly — the table-growth RATE is under test,
    small-corpus bucket sizes only make it easier)."""
    from metacache_mpi_ray.stages.ann import embedding_near_dup

    rng = np.random.default_rng(421)
    n, d, n_planted = 2000, 16, 80
    base = rng.normal(size=(n, d))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    s = 0.95
    planted = []
    for i in range(n_planted):
        a_i, b_i = 2 * i, 2 * i + 1  # overwrite b with an at-threshold twin
        perp = rng.normal(size=d)
        perp -= (perp @ base[a_i]) * base[a_i]
        perp /= np.linalg.norm(perp)
        base[b_i] = s * base[a_i] + np.sqrt(1 - s * s) * perp
        planted.append((a_i, b_i))
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.array(list(base.astype(np.float64))),
            }
        )
    ).repartition(2)
    for kwargs, floor in (
        ({}, 0.60),  # auto: 12 planes / 4 tables at this size
        ({"n_planes": 17, "n_tables": 6}, 0.50),  # forced 1M-row layout
    ):
        got = embedding_near_dup(
            ds, sim_threshold=0.949, seed=7, **kwargs
        ).to_pandas()
        found = set(zip(got["a"], got["b"]))
        rec = sum((a, b) in found for a, b in planted) / n_planted
        assert rec >= floor, (kwargs, rec)
