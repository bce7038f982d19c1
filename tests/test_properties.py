"""Property-based invariants (hypothesis): the byte-stability contracts
the whole engine rests on — Arrow kernels must agree with the Python
reference implementations on arbitrary unicode input, and the zero-copy
buffer views must reproduce exact row bytes."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

texts = st.lists(
    st.text(max_size=80), min_size=0, max_size=20
)


@settings(max_examples=60, deadline=None)
@given(texts)
def test_normalize_arrow_matches_python(vals):
    from metacache_mpi_ray.functions.text import (
        normalize_text_arrow,
        normalize_text_py,
    )

    col = pa.array(vals, type=pa.string())
    got = normalize_text_arrow(col).to_pylist()
    assert got == [normalize_text_py(v) for v in vals]
    # null rows keep their validity; a sliced array reads only its rows
    with_nulls = [None] + vals[:1] + [None] + vals[1:]
    col = pa.array(with_nulls, type=pa.string()).slice(1)
    want = [None if v is None else normalize_text_py(v) for v in with_nulls[1:]]
    assert normalize_text_arrow(col).to_pylist() == want
    sliced = pa.array(vals, type=pa.large_string()).slice(len(vals) // 2)
    got = normalize_text_arrow(sliced).to_pylist()
    assert got == [normalize_text_py(v) for v in vals[len(vals) // 2 :]]


def _oph_two_sweeps(hashes, offsets, n_bins):
    """The two-sweep reference of OPH rotation densification."""
    from metacache_mpi_ray.stages.signatures import U64

    n = len(offsets) - 1
    sent = np.iinfo(np.uint64).max
    sig = np.full((n, n_bins), sent, dtype=U64)
    if n == 0 or len(hashes) == 0:
        return sig
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    bins = (hashes >> U64(64 - int(n_bins).bit_length() + 1)).astype(np.int64)
    np.minimum.at(sig.reshape(-1), doc_idx * n_bins + bins, hashes)
    for _sweep in range(2):
        prev = sig[:, -1].copy()
        for j in range(n_bins):
            col = sig[:, j]
            empty = col == sent
            col[empty] = prev[empty]
            prev = col
    return sig


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.none(), st.text(max_size=40)), max_size=30),
    st.integers(0, 10),
    st.sampled_from([8, 128]),
    st.integers(1, 9),
)
def test_oph_densification_matches_two_sweeps(vals, cut, n_bins, k):
    """Arrow string arrays with nulls, slices and rows shorter than k,
    signed through the production shingle hasher: the vectorized
    densification equals the two-sweep reference bit for bit."""
    from metacache_mpi_ray.functions.hashing import (
        arrow_string_buffer,
        shingle_hashes_from_buffer,
    )
    from metacache_mpi_ray.stages.signatures import oph_minhash_from_shingles

    col = pa.array(vals, type=pa.string()).slice(min(cut, len(vals)))
    hashes, offsets = shingle_hashes_from_buffer(*arrow_string_buffer(col), k, 7)
    got = oph_minhash_from_shingles(hashes, offsets, n_bins)
    assert np.array_equal(got, _oph_two_sweeps(hashes, offsets, n_bins))


def test_oph_densification_keeps_empty_rows_and_fills_circularly():
    from metacache_mpi_ray.stages.signatures import oph_minhash_from_shingles

    rng = np.random.default_rng(3)
    for n_bins in (8, 128):
        for _ in range(200):
            counts = rng.integers(0, 12, rng.integers(1, 20))  # rows with 0 shingles
            offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            hashes = rng.integers(0, 2**63, offsets[-1], dtype=np.uint64) << np.uint64(1)
            got = oph_minhash_from_shingles(hashes, offsets, n_bins)
            assert np.array_equal(got, _oph_two_sweeps(hashes, offsets, n_bins))


@settings(max_examples=60, deadline=None)
@given(texts)
def test_arrow_string_buffer_roundtrip(vals):
    from metacache_mpi_ray.functions.hashing import arrow_string_buffer

    col = pa.array(vals, type=pa.string())
    data, starts, ends = arrow_string_buffer(col)
    for i, v in enumerate(vals):
        assert data[starts[i] : ends[i]].tobytes() == v.encode("utf-8")
    # large_string layout must agree byte-for-byte
    lcol = pa.array(vals, type=pa.large_string())
    ldata, ls, le = arrow_string_buffer(lcol)
    for i, v in enumerate(vals):
        assert ldata[ls[i] : le[i]].tobytes() == v.encode("utf-8")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.binary(min_size=0, max_size=200), min_size=1, max_size=12),
    st.integers(min_value=2, max_value=24),
)
def test_shingle_buffer_matches_per_doc_rolling(docs, k):
    """Batch shingle hashing over the shared buffer == per-doc rolling
    hashing (windows never leak across row boundaries)."""
    from metacache_mpi_ray.functions.hashing import (
        concat_shingle_hashes,
        doc_hashes_from_buffer,
        rolling_shingle_hashes,
    )

    hashes, offsets = concat_shingle_hashes(docs, k, seed=3)
    for i, d in enumerate(docs):
        got = hashes[offsets[i] : offsets[i + 1]]
        buf = np.frombuffer(d, dtype=np.uint8)
        if len(d) >= k:
            exp = rolling_shingle_hashes(buf, k, seed=3)
            assert (got == exp).all()
        else:
            # short docs fall back to one whole-doc hash
            assert len(got) == 1


rows = st.lists(st.one_of(st.none(), st.text(max_size=40)), max_size=30)


def _string_array(vals, large: bool, cut: int, length: int):
    """``vals`` as an Arrow (large_)string array, sliced at ``cut``."""
    col = pa.array(vals, type=pa.large_string() if large else pa.string())
    return col.slice(min(cut, len(vals)), length)


@settings(max_examples=300, deadline=None)
@given(rows, st.booleans(), st.integers(0, 10), st.integers(0, 30),
       st.sampled_from([1, 2, 16]), st.booleans())
def test_span_hasher_matches_per_row_rolling(vals, large, cut, length, k, finalize):
    """The span hasher over (large_)string arrays with nulls, slices,
    empty rows and rows shorter than k equals per-row rolling hashing,
    and a short row's one value is its whole-text hash."""
    from metacache_mpi_ray.functions.hashing import (
        U64,
        arrow_string_buffer,
        murmur3_fmix64,
        rolling_shingle_hashes,
        shingle_hashes_from_buffer,
        splitmix64,
    )

    col = _string_array(vals, large, cut, length)
    data, starts, ends = arrow_string_buffer(col)
    hashes, offsets = shingle_hashes_from_buffer(data, starts, ends, k, 5, finalize=finalize)
    assert len(offsets) == len(col) + 1 and offsets[-1] == len(hashes)
    for i in range(len(col)):
        row = data[starts[i] : ends[i]]
        if len(row) >= k:
            want = rolling_shingle_hashes(row, k, 5, finalize=finalize)
        else:  # the whole-row polynomial, its length folded in, fmix64
            whole = rolling_shingle_hashes(row, len(row), 5, finalize=False)
            want = murmur3_fmix64(whole ^ splitmix64(U64(len(row))))
        assert np.array_equal(hashes[offsets[i] : offsets[i + 1]], want)


@settings(max_examples=100, deadline=None)
@given(rows, st.booleans(), st.integers(0, 10), st.integers(0, 30))
def test_doc_hashes_of_a_slice_equal_a_copy(vals, large, cut, length):
    from metacache_mpi_ray.functions.hashing import (
        arrow_string_buffer,
        doc_hashes_from_buffer,
    )

    col = _string_array(vals, large, cut, length)
    copy = pa.array(col.to_pylist(), type=col.type)
    got = doc_hashes_from_buffer(*arrow_string_buffer(col), seed=9)
    assert np.array_equal(got, doc_hashes_from_buffer(*arrow_string_buffer(copy), seed=9))


def test_span_hasher_refuses_non_contiguous_rows():
    import pytest

    from metacache_mpi_ray.functions.hashing import shingle_hashes_from_buffer

    data = np.frombuffer(b"abcdefghijklmnop", dtype=np.uint8)
    for starts, ends in (([0, 5], [4, 10]), ([0, 3], [4, 10]), ([5, 0], [10, 5])):
        with pytest.raises(ValueError, match="contiguous"):
            shingle_hashes_from_buffer(data, np.array(starts), np.array(ends), 2)


@settings(max_examples=40, deadline=None)
@given(st.text(max_size=120), st.text(max_size=120))
def test_lcs_hashed_bounds(a, b):
    from metacache_mpi_ray.stages.substring import lcs_len_hashed

    ab, bb = a.encode(), b.encode()
    l = lcs_len_hashed(ab, bb)
    assert 0 <= l <= min(len(ab), len(bb))
    if ab and ab == bb:
        assert l == len(ab)
    # symmetry
    assert l == lcs_len_hashed(bb, ab)
