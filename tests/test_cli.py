"""CLI mode dispatch (main.cpp / mode_* analog): build -> info ->
query -> dedup -> merge driven through the argparse surface in-process
(Ray session shared with the pytest fixture; _ensure_ray is guarded)."""

import json

import pyarrow.parquet as pq


def test_cli_build_query_info_dedup_merge(tmp_path, corpus_dir, capsys):
    from metacache_mpi_ray.__main__ import main

    idx = str(tmp_path / "index")
    out_q = str(tmp_path / "qout")
    out_d = str(tmp_path / "dout")
    out_m = str(tmp_path / "mout")
    pages = f"{corpus_dir}/pages"

    assert main(["build", "--pages", pages, "--index", idx, "--num-partitions", "4"]) == 0
    built = json.loads(capsys.readouterr().out.strip())
    assert built["docs"] == 500

    assert main(["info", "--index", idx]) == 0
    info = json.loads(capsys.readouterr().out.strip())
    assert info["rows_signatures"] == 500
    assert info["rows_clusters"] == 500
    assert info["bucket_size_moments"]["n"] > 0
    assert info["config"]["n_perms"] == 128

    assert (
        main(
            ["query", "--pages", pages, "--index", idx, "--out", out_q,
             "--num-partitions", "4"]
        )
        == 0
    )
    q = pq.read_table(out_q)
    assert q.num_rows == 500
    # querying the index corpus against itself: every doc matches
    assert all(q["matched"].to_pylist())

    assert (
        main(["dedup", "--pages", pages, "--out", out_d, "--num-partitions", "4"]) == 0
    )
    d = pq.read_table(out_d)
    assert d.num_rows == 500
    assert {"doc_id", "cluster_id", "is_dup"} <= set(d.column_names)

    # merge the build's verified edges with themselves -> same clusters
    assert (
        main(
            ["merge", "--edges", f"{idx}/verified", "--edges", f"{idx}/verified",
             "--pages", pages, "--out", out_m, "--num-partitions", "4"]
        )
        == 0
    )
    m = pq.read_table(out_m).to_pandas().sort_values("doc_id")
    dd = d.to_pandas().sort_values("doc_id")
    assert (m["cluster_id"].values == dd["cluster_id"].values).all()


def test_cli_extend(tmp_path, corpus_dir, capsys):
    """Extend mode (the reference's 'modify' mode): add a disjoint page
    batch to an existing index; the clusters artifact then covers both."""
    from metacache_mpi_ray.__main__ import main
    from metacache_mpi_ray.sources.pages import write_pages_corpus

    idx = str(tmp_path / "index")
    pages = f"{corpus_dir}/pages"
    batch_dir = write_pages_corpus(str(tmp_path / "batch"), 100, seed=777)

    assert main(["build", "--pages", pages, "--index", idx, "--num-partitions", "4"]) == 0
    capsys.readouterr()
    assert (
        main(
            ["extend", "--pages", f"{batch_dir}/pages", "--index", idx,
             "--num-partitions", "4"]
        )
        == 0
    )
    ext = json.loads(capsys.readouterr().out.strip())
    assert ext["docs"] == 600

    assert main(["info", "--index", idx]) == 0
    info = json.loads(capsys.readouterr().out.strip())
    assert info["rows_clusters"] == 600
    assert info["rows_signatures"] == 600
    assert [r["batch_id"] for r in info["extends"]] == ["b0001"]
    assert info["extends"][0]["n_new"] == 100
    # the layout: the build's file plus the batch's in every shard
    assert info["format"] == 2 and info["shards"] == 4
    assert info["files_per_shard"] == {
        stage: [2, 2, 2, 2] for stage in ("signatures", "bands", "verified", "clusters")
    }
    assert info["cluster_log_batches"] in (0, 1)

    # a config override that disagrees with the stored index refuses
    import pytest

    from metacache_mpi_ray.state.checkpoint import ConfigMismatch

    with pytest.raises(ConfigMismatch):
        main(
            ["extend", "--pages", f"{batch_dir}/pages", "--index", idx,
             "--n-bands", "16"]
        )


def test_cli_info_reads_the_index_without_ray_data(tmp_path, corpus_dir, capsys, monkeypatch):
    """info takes its row counts from the Parquet footers and runs its
    bucket census as one task per band shard, so it works with
    ``ray.data.read_parquet`` broken, after a build and after an extend;
    its numbers equal a direct read of the files, and its bucket moments
    equal the census queries' over the same docs."""
    import glob

    import numpy as np
    import pytest
    import ray.data

    from metacache_mpi_ray.__main__ import _read_pages, main
    from metacache_mpi_ray.config import DedupConfig
    from metacache_mpi_ray.pipelines.dedup import bucket_census
    from metacache_mpi_ray.sources.pages import write_pages_corpus
    from metacache_mpi_ray.stages.stats import histogram_moments

    idx = str(tmp_path / "index")
    batch_dir = write_pages_corpus(str(tmp_path / "batch"), 60, seed=778)
    assert main(["build", "--pages", f"{corpus_dir}/pages", "--index", idx,
                 "--num-partitions", "4"]) == 0

    def refuse(*a, **k):
        raise AssertionError("info read the index through Ray Data")

    for step in ("build", "extend"):
        if step == "extend":
            assert main(["extend", "--pages", f"{batch_dir}/pages", "--index", idx]) == 0
        capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(ray.data, "read_parquet", refuse)
            assert main(["info", "--index", idx]) == 0
        info = json.loads(capsys.readouterr().out.strip())

        def files(stage):
            return sorted(glob.glob(f"{idx}/{stage}/*/*.parquet"))

        for stage in ("signatures", "verified", "bands", "clusters"):
            want = sum(pq.read_table(f, partitioning=None).num_rows for f in files(stage))
            assert info[f"rows_{stage}"] == want, (step, stage)
        bk = np.concatenate(
            [pq.read_table(f, partitioning=None)["bkey"].to_numpy() for f in files("bands")]
        )
        x = np.unique(bk, return_counts=True)[1].astype(float)
        mom = info["bucket_size_moments"]
        assert mom["n"] == len(x)
        assert mom["mean"] == pytest.approx(x.mean())
        assert mom["variance"] == pytest.approx(x.var())
        skew = ((x - x.mean()) ** 3).mean() / x.std() ** 3
        assert mom["skewness"] == pytest.approx(skew)
        docs = _read_pages(f"{corpus_dir}/pages", canonicalize_urls=False)
        if step == "extend":
            docs = docs.union(_read_pages(f"{batch_dir}/pages", canonicalize_urls=False))
        census = histogram_moments(bucket_census(docs, DedupConfig(), 4))
        assert mom["n"] == census["n"][0].as_py()
        for c in ("mean", "variance", "skewness"):  # one rule: the exact sums' floats
            assert mom[c] == census[c][0].as_py(), c
    assert info["rows_signatures"] == 560


def test_cli_annotate_and_pipeline(tmp_path, corpus_dir, capsys):
    """Annotate mode (M7 analog): mapping lookup + header rewrite, with
    unmapped keys kept as 'NA' like the reference's miss handling."""
    import pandas as pd
    import ray.data as rd

    from metacache_mpi_ray.__main__ import main
    from metacache_mpi_ray.pipelines.annotate import annotate_docs

    # library-level: missing keys annotate as NA, ints stay ints
    docs = rd.from_pandas(
        pd.DataFrame({"doc_id": [1, 2, 3], "lang": ["en", "de", "xx"]})
    )
    mapping = pd.DataFrame({"lang": ["en", "de"], "n": [7, 9]})
    out = annotate_docs(
        docs, mapping, on="lang", annotation_col="n", header_cols=["lang"]
    ).to_pandas()
    got = dict(zip(out["doc_id"], out["header"]))
    assert got == {1: "en|7", 2: "de|9", 3: "xx|NA"}

    # CLI surface over the corpus pages
    mp = str(tmp_path / "mapping.parquet")
    pd.DataFrame(
        {"lang": ["en", "de", "fr", "es", "zh"], "label": list("ABCDE")}
    ).to_parquet(mp)
    out_a = str(tmp_path / "aout")
    rc = main(
        ["annotate", "--pages", f"{corpus_dir}/pages", "--mapping", mp,
         "--key", "lang", "--annotation", "label",
         "--header-cols", "url,lang", "--out", out_a]
    )
    assert rc == 0
    res = json.loads(capsys.readouterr().out.strip())
    assert res["docs"] == 500
    written = pq.read_table(out_a).to_pandas()
    assert "header" in written.columns
    assert written["header"].str.count("\\|").min() >= 2


def test_cli_repl_mode(tmp_path, corpus_dir, capsys, monkeypatch):
    """repl mode: one JSON result per stdin line against a built index."""
    import io

    from metacache_mpi_ray.__main__ import main

    idx = str(tmp_path / "replidx")
    assert main(["build", "--pages", f"{corpus_dir}/pages", "--index", idx,
                 "--num-partitions", "4"]) == 0
    capsys.readouterr()

    pages = pq.read_table(f"{corpus_dir}/pages").to_pandas()
    known = pages["text"].iloc[0]
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(known + "\n" + "unseen text " * 30 + "\n")
    )
    assert main(["repl", "--index", idx]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines[0]["ready"] is True
    assert lines[1]["matched"] is True
    assert lines[2]["matched"] is False


def test_cli_repl_option_reparsing(tmp_path, corpus_dir, capsys, monkeypatch):
    """S13 parity (mode_query.cpp:269-315): the shell accepts new query
    OPTIONS per input line — :set re-parses them for subsequent
    queries, :options echoes them, bad input errors without exiting.
    A verify_threshold of 1.01... is impossible, so 1.0 with a known
    text still matches (exact copy) while a tightened top_k bounds the
    match list."""
    import io

    from metacache_mpi_ray.__main__ import main

    idx = str(tmp_path / "replopt")
    assert main(["build", "--pages", f"{corpus_dir}/pages", "--index", idx,
                 "--num-partitions", "4"]) == 0
    capsys.readouterr()

    pages = pq.read_table(f"{corpus_dir}/pages").to_pandas()
    known = pages["text"].iloc[0]
    script = "\n".join(
        [
            ":options",
            ":set top_k 1",
            ":set verify_threshold 1.0",
            known,                      # exact copy: est_sim 1.0 still clears
            ":set verify_threshold 0.2",
            ":set bogus 3",             # error, shell keeps going
            ":set top_k zero",          # bad value, shell keeps going
            known,
        ]
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(script + "\n"))
    assert main(["repl", "--index", idx]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines[0]["ready"] is True
    assert lines[1]["options"]["top_k"] == 5  # the CLI default echoed
    assert lines[2]["options"]["top_k"] == 1
    assert lines[3]["options"]["verify_threshold"] == 1.0
    assert lines[4]["matched"] is True and len(lines[4]["matches"]) == 1
    assert lines[4]["matches"][0]["est_sim"] == 1.0
    assert lines[5]["options"]["verify_threshold"] == 0.2
    assert "error" in lines[6] and "error" in lines[7]
    assert lines[8]["matched"] is True


def test_annotate_duplicate_mapping_keys_rejected():
    """r3 review regression: a duplicate-keyed mapping must fail with a
    clear error, not an opaque Arrow length mismatch mid-pipeline."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from metacache_mpi_ray.pipelines.annotate import annotate_docs

    docs = rd.from_pandas(pd.DataFrame({"doc_id": [1], "lang": ["en"]}))
    mapping = pd.DataFrame({"lang": ["en", "en"], "n": [7, 9]})
    with pytest.raises(ValueError, match="duplicate keys"):
        annotate_docs(
            docs, mapping, on="lang", annotation_col="n", header_cols=["lang"]
        )
