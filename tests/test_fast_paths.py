"""Byte identity of the ingest + sign fast paths against their general
paths: the ASCII lowercase and the whitespace-collapse skip of norm-v1,
the guarded passes of the HTML chain, the reduceat doc hash of
contiguous rows and the fused shingle -> OPH signer. Every stored
signature, ``text_hash`` and ``doc_id`` depends on these being exact."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from metacache_mpi_ray.config import DedupConfig
from metacache_mpi_ray.functions import text
from metacache_mpi_ray.functions.hashing import (
    _shingle_base,
    arrow_string_buffer,
    doc_hashes_from_buffer,
    murmur3_fmix64,
    shingle_hashes_from_buffer,
    splitmix64,
)
from metacache_mpi_ray.functions.text import extract_text_html_arrow, normalize_text_arrow
from metacache_mpi_ray.stages import signatures
from metacache_mpi_ray.stages.signatures import (
    MinHashSigner,
    oph_minhash_from_shingles,
    oph_sign_rows,
    sig_from_arrow,
)


def _chunks(col):
    return col.chunks if isinstance(col, pa.ChunkedArray) else [col]


def _norm_general(col):
    """norm-v1 by the RE2 chain: utf8_lower, \\s+ -> " ", trim."""
    low = pc.utf8_lower(col)
    return pc.utf8_trim_whitespace(pc.replace_substring_regex(low, pattern=r"\s+", replacement=" "))


def _assert_same(got, want):
    got = pa.chunked_array(_chunks(got), type=got.type).combine_chunks()
    want = pa.chunked_array(_chunks(want), type=want.type).combine_chunks()
    assert got.equals(want), (got.to_pylist(), want.to_pylist())


_ASCII = ["Hello World", "ALREADY lower", "", None, "tabs\tand\nnewlines", "x  y", " lead", "trail "]
_NON_ASCII = ["İstanbul", "ΣΟΦΟΣ", "café Été", "ẞ  Straße", "mixed İ\tΣ"]


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_normalize_fast_paths_match_the_regex_chain(typ):
    cases = [
        pa.array(_ASCII, typ),
        pa.array(_NON_ASCII, typ),
        pa.array(["single spaced ascii", "NO RUNS HERE"], typ),
        pa.array(["vertical\vtab stays", "\v"], typ),  # \v is not RE2 \s
        # a double space across a row end: no run in either row
        pa.array(["ends with a space ", " starts with one"], typ),
        # sliced out of parents with non-ASCII bytes or runs outside the slice
        pa.array(["É  before", "clean A", "clean B", "Σ  after"], typ).slice(1, 2),
        pa.array(["a  b", "Plain Text", "c\td"], typ).slice(1, 1),
        pa.array(["İ", "Upper ASCII", None], typ).slice(1),
        pa.chunked_array([pa.array(_ASCII, typ), pa.array(_NON_ASCII, typ)], typ),
        pa.chunked_array([pa.array(_NON_ASCII, typ).slice(2), pa.array(["ok  ok"], typ)], typ),
        pa.chunked_array([], typ),
    ]
    for col in cases:
        _assert_same(normalize_text_arrow(col), _norm_general(col))


def test_whitespace_collapse_skips_arrays_without_runs():
    """The skip returns the array itself; a double space across a row
    end only sends the array down the full pass, with the same output."""
    clean = pc.utf8_lower(pa.array(["no runs", "here either"]))
    assert text._collapse_ws_array(clean, text._WS_RE2) is clean
    across = pa.array(["row end ", " row start"])
    assert text._collapse_ws_array(across, text._WS_RE2).equals(across)
    # a sliced array only looks at its own bytes
    own = pa.array(["x  x", "y", "z\tz"]).slice(1, 1)
    assert text._collapse_ws_array(own, text._WS_RE2) is own
    for raw in (b"", b" ", b"  ", b"a  ", b"ab  ", b"a b c", b"  a", b"a b  "):
        assert text._has_double_space(raw) == (b"  " in raw)


def _html_general(col):
    """The HTML chain with every pass run: no literal guards."""
    s = col
    for pat in (
        r"(?is)<script\b[^>]*>.*?</script\s*>",
        r"(?is)<style\b[^>]*>.*?</style\s*>",
        r"(?s)<!--.*?-->",
        r"<[^>]+>",
    ):
        s = pc.replace_substring_regex(s, pattern=pat, replacement=" ")
    for ent, rep in text._ENTITIES.items():
        s = pc.replace_substring(s, pattern=ent.decode(), replacement=rep.decode())
    s = pc.replace_substring_regex(s, pattern=r"[ \t\r\n\f\v]+", replacement=" ")
    return pc.utf8_trim(s, characters=" \t\r\n\f\v")


_HTML = [
    "<p>plain</p>",
    "<ſcript>hidden()</ſcript>after",
    "<ſtyle>p{}</ſtyle>shown",
    "<SCRIPT type=x>a</Script >b",
    "<Style>x</STYLE>c",
    "<div>a &amp; b &lt;tag&gt; &quot;q&quot; &#39;s&#39; &apos;t&apos; n&nbsp;b</div>",
    "&amp;lt; decodes twice",
    "<!-- note -->kept\v\ttext\n\n",
    "no markup at all",
    "",
    None,
]


def test_html_chain_guards_match_the_full_chain():
    cases = [
        pa.array(_HTML),
        pa.array(["<p>only tags</p>", "<b>bold</b>  text"]),  # no script/style/comment/entity
        pa.array(["&amp;"]),
        pa.array(["<ſcript>x</ſcript>"]),
        pa.array(["<script>a</script>", "<p>b</p>", "&lt;"]).slice(1, 1),
        pa.chunked_array([pa.array(_HTML[:4]), pa.array(_HTML[4:])]),
    ]
    for col in cases:
        _assert_same(extract_text_html_arrow(col), _html_general(col))


def test_html_chain_strips_long_s_script_and_style():
    """RE2's (?i) folds U+017F to "s": the guards must let these through."""
    got = extract_text_html_arrow(pa.array(["a<ſcript>z</ſcript>b", "c<ſtyle>z</ſtyle>d"]))
    assert got.to_pylist() == ["a b", "c d"]


def _doc_hash_oracle(data: bytes, starts, ends, seed: int) -> np.ndarray:
    """Per row, in Python ints: sum (b+1) * B^j, the length folded in
    through splitmix64, fmix64 — the prefix formula's value."""
    base, _ = _shingle_base(seed)
    out = []
    for s, e in zip(starts, ends):
        acc, p = 0, 1
        for b in data[s:e]:
            acc = (acc + (b + 1) * p) & 0xFFFFFFFFFFFFFFFF
            p = (p * base) & 0xFFFFFFFFFFFFFFFF
        out.append(acc ^ int(splitmix64(np.uint64(e - s))))
    return murmur3_fmix64(np.array(out, dtype=np.uint64))


def test_doc_hashes_match_the_prefix_formula():
    rng = np.random.default_rng(11)
    data = bytes(rng.integers(0, 256, 400, dtype=np.uint8))
    buf = np.frombuffer(data, dtype=np.uint8)
    layouts = [
        ([0, 5, 5, 9], [5, 5, 9, 20]),     # an empty row inside
        ([0, 3, 8], [3, 8, 8]),            # a trailing empty row
        ([7], [7]),                        # only an empty row
        ([0, 0, 0], [0, 0, 0]),            # nothing but empty rows
        ([100, 140], [140, 400]),          # contiguous, not from 0
        ([10, 0, 30], [20, 5, 60]),        # not contiguous
        ([0, 0], [9, 9]),                  # one row twice
    ]
    for seed in (0, 22):
        for starts, ends in layouts:
            s, e = np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)
            got = doc_hashes_from_buffer(buf, s, e, seed)
            assert np.array_equal(got, _doc_hash_oracle(data, starts, ends, seed))
    # Arrow string columns: sliced, with null and empty rows
    col = pa.array(["alpha", "", None, "gamma delta", ""]).slice(1)
    d, s, e = arrow_string_buffer(col)
    want = _doc_hash_oracle(d.tobytes(), s, e, 5)
    assert np.array_equal(doc_hashes_from_buffer(d, s, e, 5), want)


def _two_step(data, starts, ends, k, seed, n_bins):
    hashes, offsets = shingle_hashes_from_buffer(data, starts, ends, k, seed)
    return oph_minhash_from_shingles(hashes, offsets, n_bins)


def test_fused_oph_signer_matches_the_shingle_stream():
    rng = np.random.default_rng(4)
    words = ["alpha", "beta", "gamma", "", "x"]
    batches = [
        ["ab", "", "c", "defg"] * 5,                       # every row shorter than k
        ["", ""],                                          # empty rows only
        ["x" * 700, "short", "y" * 30],                    # a row over a small slice budget
        [" ".join(rng.choice(words, int(rng.integers(0, 40)))) for _ in range(60)],
    ]
    for texts in batches:
        col = pa.array(texts, type=pa.string())
        data, starts, ends = arrow_string_buffer(col)
        for k, n_bins in ((16, 128), (3, 8), (1, 4)):
            for lo, hi in ((0, len(texts)), (1, len(texts)), (0, 1)):
                s, e = starts[lo:hi], ends[lo:hi]
                if len(s) == 0:
                    continue
                got = oph_sign_rows(data, s, e, k, 7, n_bins)
                assert np.array_equal(got, _two_step(data, s, e, k, 7, n_bins))


def test_fused_signer_slices_match_the_shingle_stream(monkeypatch):
    """The signer at a 40-byte slice budget (a row over the budget, rows
    all shorter than k) against the two-step path over the whole batch."""
    monkeypatch.setattr(signatures, "SIGN_SLICE_BYTES", 40)
    cfg = DedupConfig()
    rng = np.random.default_rng(9)
    words = ["alpha", "beta", "gamma", "delta", "eps", ""]
    rows = [" ".join(rng.choice(words, int(rng.integers(0, 30)))) for _ in range(40)]
    for texts in (rows + ["x" * 500] + rows[:5], ["ab", "", "c", "defg"] * 10):
        n = len(texts)
        col = pa.array(texts, type=pa.string())
        batch = pa.table(
            {
                "doc_id": pa.array(np.arange(n), type=pa.int64()),
                "text_hash": pa.array(np.zeros(n, dtype=np.int64)),
                "n_chars": pa.array(np.zeros(n, dtype=np.int64)),
                "norm_text": col,
            }
        )
        assert len(signatures.sign_slices(*arrow_string_buffer(col)[1:])) > 1
        got = sig_from_arrow(MinHashSigner(cfg)(batch)["sig"])
        want = _two_step(*arrow_string_buffer(col), cfg.shingle_k, cfg.seed, cfg.n_perms)
        assert np.array_equal(got, want)
