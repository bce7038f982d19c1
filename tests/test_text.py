"""Normalization / extraction invariants (BASELINE.json per-row invariant:
byte-identical extracted text per url)."""

import pyarrow as pa

from metacache_mpi_ray.functions.text import (
    extract_text_from_html,
    normalize_text_arrow,
    normalize_text_py,
    resolve_text_batch,
)


def test_extract_strips_tags_scripts_comments():
    html = (
        b"<html><head><script>var x = '<p>no</p>';</script>"
        b"<style>p{color:red}</style></head>"
        b"<body><p>Hello &amp; welcome</p><!-- hidden --><div>World</div></body></html>"
    )
    assert extract_text_from_html(html) == "Hello & welcome World"


def test_extract_is_pure_function():
    html = b"<p>Some  Content\n\twith   spacing</p>"
    assert extract_text_from_html(html) == extract_text_from_html(html)
    assert extract_text_from_html(html) == "Some Content with spacing"


def test_arrow_and_py_normalization_agree():
    samples = [
        "  Hello   WORLD  ",
        "MiXeD\tCase\nLines",
        "already clean",
        "",
        "Ünïcode ÅÄÖ  spaces",
    ]
    arrow = normalize_text_arrow(pa.array(samples)).to_pylist()
    assert arrow == [normalize_text_py(s) for s in samples]


def test_normalization_special_casing_follows_arrow():
    """norm-v1 is the Arrow kernel's per-code-point lowercase: U+0130
    becomes plain 'i' and capital sigma is always 'σ', never the
    word-final 'ς' of Python's str.lower."""
    samples = ["İ", "ΣΑΣ", "ΌΣ", "ẞ", "İstanbul ΣΟΦΟΣ"]
    want = ["i", "σασ", "όσ", "ß", "istanbul σοφοσ"]
    assert normalize_text_arrow(pa.array(samples)).to_pylist() == want
    assert [normalize_text_py(s) for s in samples] == want


def test_normalization_agrees_on_every_code_point():
    vals = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
    got = normalize_text_arrow(pa.array(vals, type=pa.string()))
    want = pa.array([normalize_text_py(v) for v in vals], type=pa.string())
    if not got.equals(want):
        bad = [hex(ord(v)) for v, g, w in zip(vals, got.to_pylist(), want.to_pylist()) if g != w]
        raise AssertionError(f"{len(bad)} code points differ: {bad[:20]}")


def test_resolve_text_fills_null_from_html():
    batch = pa.table(
        {
            "url": ["u1", "u2"],
            "html": [b"<p>From HTML body</p>", b"<p>unused</p>"],
            "text": [None, "Given text"],
        }
    )
    out = resolve_text_batch(batch)
    assert out["text"].to_pylist() == ["From HTML body", "Given text"]
    assert out["norm_text"].to_pylist() == ["from html body", "given text"]
