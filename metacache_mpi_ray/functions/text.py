"""Text extraction + normalization — the analog of the reference's
sequence decoding / canonicalization (/root/reference/src/dna_encoding.h).

All functions here are purely functional per row (no locale, no global
state, no arrival-order dependence) so the per-row invariant from
BASELINE.json holds: byte-identical extracted ``text`` per ``url``.
Version string: DedupConfig.normalization ("norm-v1").
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from metacache_mpi_ray.functions.hashing import arrow_string_buffer

# --- HTML -> text extraction (deterministic, dependency-free) -------------

_RE_SCRIPT = re.compile(rb"<(script|style)\b[^>]*>.*?</\1\s*>", re.S | re.I)
_RE_COMMENT = re.compile(rb"<!--.*?-->", re.S)
_RE_TAG = re.compile(rb"<[^>]+>")
_RE_WS = re.compile(rb"[ \t\r\n\f\v]+")

_ENTITIES = {
    b"&amp;": b"&", b"&lt;": b"<", b"&gt;": b">",
    b"&quot;": b'"', b"&#39;": b"'", b"&apos;": b"'", b"&nbsp;": b" ",
}


def extract_text_from_html(html: bytes) -> str:
    """Deterministic HTML -> text: strip script/style/comments/tags,
    decode the common entities, collapse whitespace. Pure function of
    the input bytes (the analog of the reference's fixed 2-bit decode,
    dna_encoding.h:303-348 — same input, same output, always)."""
    if html is None:
        return ""
    b = _RE_SCRIPT.sub(b" ", html)
    b = _RE_COMMENT.sub(b" ", b)
    b = _RE_TAG.sub(b" ", b)
    for ent, rep in _ENTITIES.items():
        b = b.replace(ent, rep)
    b = _RE_WS.sub(b" ", b).strip()
    return b.decode("utf-8", errors="replace")


def _value_bytes(arr: pa.Array | pa.ChunkedArray) -> bytes:
    """The value bytes of the array's own rows (a sliced array's buffer
    is its parent's: only ``[offsets[0], offsets[-1])`` is read)."""
    if isinstance(arr, pa.ChunkedArray):
        return b"".join(_value_bytes(c) for c in arr.chunks)
    data, starts, ends = arrow_string_buffer(arr)
    return data[starts[0] : ends[-1]].tobytes() if len(arr) else b""


# RE2's (?i) folds U+017F LATIN SMALL LETTER LONG S to "s" (and U+212A
# KELVIN SIGN to "k", in neither tag name), so "<\u017fcript" opens a
# script element too
_TAG_OPENERS = {
    "script": (b"<script", "<\u017fcript".encode()),
    "style": (b"<style", "<\u017ftyle".encode()),
}


def extract_text_html_arrow(col):
    """Vectorized HTML -> text over an Arrow STRING column: the same
    deterministic pipeline as extract_text_from_html (strip script/
    style/comments/tags, decode common entities, collapse whitespace)
    as a chain of RE2 kernels — zero Python per row. Inline (?is) flags
    keep the patterns host-independent, so the identical chain is
    DuckDB-expressible for oracles. RE2 has no backreferences, hence
    separate script/style passes instead of <(script|style)>...</\\1>.
    The whitespace step is ``_collapse_ws_array``, the byte-level form
    of RE2 ``[ \\t\\r\\n\\f\\v]+`` -> " ".

    A script, style, comment or entity pass runs only when its opening
    literal occurs in the value bytes it would see (case-folded for the
    tag names): a pass whose literal is absent replaces nothing.
    """
    s = col
    low = _value_bytes(s).lower()
    for tag, openers in _TAG_OPENERS.items():
        if any(o in low for o in openers):
            s = pc.replace_substring_regex(
                s, pattern=rf"(?is)<{tag}\b[^>]*>.*?</{tag}\s*>", replacement=" "
            )
            low = _value_bytes(s).lower()
    if b"<!--" in low:
        s = pc.replace_substring_regex(s, pattern=r"(?s)<!--.*?-->", replacement=" ")
    s = pc.replace_substring_regex(s, pattern=r"<[^>]+>", replacement=" ")
    raw = _value_bytes(s)
    for ent, rep in _ENTITIES.items():
        if ent in raw:
            s = pc.replace_substring(s, pattern=ent.decode(), replacement=rep.decode())
            raw = _value_bytes(s)
    s = _per_chunk(s, lambda c: _collapse_ws_array(c, _WS_HTML))
    return pc.utf8_trim(s, characters=" \t\r\n\f\v")


# whitespace besides the space: what RE2's \s matches (no \v), and the
# HTML chain's set
_WS_RE2 = b"\t\n\f\r"
_WS_HTML = b"\t\n\v\f\r"


def _has_double_space(raw: bytes) -> bool:
    """Whether ``raw`` holds ``"  "``: 2-byte words compared at both
    alignments, ~20x quicker than ``bytes.find`` on space-dense text."""
    if len(raw) < 3:
        return b"  " in raw
    even = np.frombuffer(raw, dtype=np.uint16, count=len(raw) // 2)
    odd = np.frombuffer(raw, dtype=np.uint16, count=(len(raw) - 1) // 2, offset=1)
    return bool((even == 0x2020).any() or (odd == 0x2020).any())


def _collapse_ws_array(arr: pa.Array, chars: bytes) -> pa.Array:
    """Each run of spaces and ``chars`` bytes in a row -> one space, in
    one pass over the array's value bytes (RE2
    ``replace_substring_regex("[ <chars>]+", " ")``); the validity bitmap
    is kept and a sliced array reads only its own rows. No byte of a
    multi-byte UTF-8 sequence is below 0x80, so a byte-level collapse is
    exact. An array whose bytes hold no ``"  "`` and no byte of
    ``chars`` is returned as it is (a double space across a row end only
    costs the full pass)."""
    n = len(arr)
    raw = _value_bytes(arr)
    if n == 0 or not (_has_double_space(raw) or any(c in raw for c in chars)):
        return arr
    off_dt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    _, starts, ends = arrow_string_buffer(arr)
    offs = np.append(starts, ends[-1]) - starts[0]
    data = np.frombuffer(raw, dtype=np.uint8)
    ws = data == 32
    for c in chars:
        ws |= data == c
    # a whitespace byte that follows another of its own row is dropped
    drop = np.zeros(len(data), dtype=bool)
    drop[1:] = ws[1:] & ws[:-1]
    drop[offs[:-1][offs[:-1] < len(data)]] = False
    out = np.where(ws, np.uint8(0x20), data)[~drop]
    row = np.searchsorted(offs, np.flatnonzero(drop), side="right") - 1
    offs[1:] -= np.cumsum(np.bincount(row, minlength=n))
    validity = arr.is_valid().buffers()[1] if arr.null_count else None
    return pa.Array.from_buffers(
        arr.type,
        n,
        [validity, pa.py_buffer(offs.astype(off_dt)), pa.py_buffer(out)],
        null_count=arr.null_count,
    )


def _per_chunk(col: pa.Array | pa.ChunkedArray, fn) -> pa.Array | pa.ChunkedArray:
    """``fn`` over an array, or over each chunk of a chunked array."""
    if isinstance(col, pa.ChunkedArray):
        return pa.chunked_array([fn(c) for c in col.chunks], type=col.type)
    return fn(col)


def _lower_array(arr: pa.Array) -> pa.Array:
    """``utf8_lower``; an array whose value bytes are all ASCII takes
    ``ascii_lower``, which gives the same bytes there."""
    return pc.ascii_lower(arr) if _value_bytes(arr).isascii() else pc.utf8_lower(arr)


def normalize_text_arrow(col: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    """norm-v1: utf8 lowercase + whitespace collapse + trim, vectorized
    (zero Python per row), one chunk at a time."""
    x = _per_chunk(col, lambda c: _collapse_ws_array(_lower_array(c), _WS_RE2))
    return pc.utf8_trim_whitespace(x)


_WS_ASCII = re.compile(r"[ \t\r\n\f]+")  # RE2 \s = [\t\n\f\r ], NO \v
# Arrow's utf8_lower maps code point by code point: U+0130 'İ' becomes
# plain 'i' (str.lower adds U+0307), and 'Σ' is always 'σ' (str.lower
# applies the word-final 'ς' rule)
_LOWER_AS_ARROW = str.maketrans({"\u0130": "i", "\u03a3": "\u03c3"})


def normalize_text_py(s: str) -> str:
    """Reference implementation of norm-v1 for oracles/tests (must agree
    byte-for-byte with normalize_text_arrow, which defines norm-v1 for
    every stored signature). The whitespace class is the ASCII set
    RE2's \\s matches — Python's Unicode \\s would additionally
    collapse U+0085/U+00A0 etc. and diverge from the Arrow kernel and
    the DuckDB oracles (found by hypothesis)."""
    return _WS_ASCII.sub(" ", s.translate(_LOWER_AS_ARROW).lower()).strip()


def resolve_text_batch(batch: pa.Table) -> pa.Table:
    """Fill null ``text`` from ``html`` via the vectorized Arrow HTML
    extractor (per-row Python only as a fallback for html bytes that are
    not valid UTF-8), then append norm-v1 ``norm_text``."""
    text = batch["text"]
    if text.null_count > 0 and "html" in batch.column_names:
        html = batch["html"]
        if isinstance(html, pa.ChunkedArray):
            html = html.combine_chunks()
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        try:
            # run the regex chain over ONLY the null-text rows (usually a
            # small fraction), then scatter the results back
            null_mask = pc.is_null(text)
            sub = extract_text_html_arrow(html.filter(null_mask).cast(pa.string()))
            text = pc.replace_with_mask(text, null_mask, sub)
        except pa.ArrowInvalid:
            # html not valid utf-8 -> per-row decode fallback
            tvals = text.to_pylist()
            hvals = html.to_pylist()
            text = pa.array(
                [
                    t if t is not None else extract_text_from_html(h)
                    for t, h in zip(tvals, hvals)
                ],
                type=pa.string(),
            )
        batch = batch.set_column(batch.schema.get_field_index("text"), "text", text)
    norm = normalize_text_arrow(batch["text"])
    if isinstance(norm, pa.ChunkedArray):
        norm = norm.combine_chunks()
    return batch.append_column("norm_text", norm)
