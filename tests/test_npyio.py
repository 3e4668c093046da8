import json
import re
import struct

import numpy as np
from numpy.lib import format as npy_format
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from latentaxes import npyio
from latentaxes.errors import BadNpyFile, DimensionMismatch, LatentAxesError


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 7))
    path = tmp_path / "m.npy"
    npyio.write_matrix(m, path)
    back = npyio.read_matrix(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, m)


def test_float64_read_holds_one_copy_of_the_payload(tmp_path, traced_peak):
    # the desk latents' size: a read through an intermediate bytes object
    # peaks at twice the payload, and a float32 read that widened to float64
    # would peak at three times
    for dtype in (np.float64, np.float32):
        m = np.random.default_rng(1).normal(size=(20000, 32)).astype(dtype)
        path = tmp_path / "m.npy"
        npyio.write_matrix(m, path)
        back, peak = traced_peak(npyio.read_matrix, path)
        assert peak <= 1.1 * m.nbytes
        assert back.dtype == dtype and back.tobytes() == m.tobytes()
        assert back.flags.writeable


def npy_bytes(header: bytes, payload: bytes) -> bytes:
    """A v1.0 file assembled byte by byte from the format definition."""
    pad = 64 - (10 + len(header) + 1) % 64
    header = header + b" " * pad + b"\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header + payload


def f8_header(shape: str, descr: str = "'<f8'") -> bytes:
    return f"{{'descr': {descr}, 'fortran_order': False, 'shape': {shape}, }}".encode()


def test_hand_encoded_file(tmp_path):
    blob = npy_bytes(f8_header("(2, 3)"), struct.pack("<6d", 1, 2, 3, 4, 5, 6))
    path = tmp_path / "hand.npy"
    path.write_bytes(blob)
    m = npyio.read_matrix(path)
    np.testing.assert_array_equal(m, [[1, 2, 3], [4, 5, 6]])


def test_numpy_can_read_our_files(tmp_path):
    m = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "m.npy"
    npyio.write_matrix(m, path)
    np.testing.assert_array_equal(np.load(path), m)


def test_we_can_read_numpy_files(tmp_path):
    for dtype in ("<f4", "<f8"):
        m = np.arange(6, dtype=dtype).reshape(2, 3)
        path = tmp_path / "np.npy"
        np.save(path, m)
        back = npyio.read_matrix(path)
        assert back.dtype == m.dtype and back.tobytes() == m.tobytes()
        np.testing.assert_array_equal(back, np.arange(6).reshape(2, 3))


def test_bad_magic(tmp_path):
    path = tmp_path / "zip.npy"
    path.write_bytes(b"PK\x03\x04" + b"\x00" * 100)
    with pytest.raises(BadNpyFile, match="zip.npy: not a .npy file$"):
        npyio.read_matrix(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "m.npy"
    npyio.write_matrix(np.ones((4, 4)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(BadNpyFile, match="m.npy: payload has 120 bytes, expected 128$"):
        npyio.read_matrix(path)


def test_unsupported_dtype(tmp_path):
    path = tmp_path / "i.npy"
    np.save(path, np.arange(6).reshape(2, 3))  # int64
    with pytest.raises(BadNpyFile, match="i.npy: dtype '<i8' not supported$"):
        npyio.read_matrix(path)


@pytest.mark.parametrize("version", [(2, 0), (3, 0)])
def test_unsupported_version(tmp_path, version):
    path = tmp_path / "ver.npy"
    with open(path, "wb") as fh:
        npy_format.write_array(fh, np.ones((2, 3)), version=version)
    message = f"{path}: unsupported .npy version {version[0]}.{version[1]}"
    with pytest.raises(BadNpyFile, match=f"^{re.escape(message)}$"):
        npyio.read_matrix(path)


def test_fortran_order_refused(tmp_path):
    path = tmp_path / "f.npy"
    np.save(path, np.asfortranarray(np.arange(6.0).reshape(2, 3)))
    message = f"{path}: fortran_order arrays not supported"
    with pytest.raises(BadNpyFile, match=f"^{re.escape(message)}$"):
        npyio.read_matrix(path)


def test_unsupported_rank(tmp_path):
    path = tmp_path / "v.npy"
    np.save(path, np.arange(6.0))
    with pytest.raises(BadNpyFile,
                       match=r"v.npy: expected 2-D array, got shape \(6,\)$"):
        npyio.read_matrix(path)


def test_write_rejects_nonfinite(tmp_path):
    matrix = np.ones((3, 2))
    matrix[1, 0] = np.nan
    message = f"{tmp_path / 'bad.npy'}: data row 1 is not finite"
    with pytest.raises(npyio.NonFinite, match=f"^{re.escape(message)}$"):
        npyio.write_matrix(matrix, tmp_path / "bad.npy")
    assert not (tmp_path / "bad.npy").exists()


@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_matrix_names_the_file_and_row_of_a_non_finite_value(tmp_path,
                                                                 dtype, bad):
    matrix = np.ones((6, 3), dtype=dtype)
    matrix[[2, 4], 1] = bad
    np.save(tmp_path / "m.npy", matrix)  # write_matrix would refuse it
    message = f"{tmp_path / 'm.npy'}: data row 2 is not finite"
    with pytest.raises(npyio.NonFinite, match=f"^{re.escape(message)}$"):
        npyio.read_matrix(tmp_path / "m.npy")


def test_check_finite_rows_on_a_finite_matrix_makes_no_temporary(traced_peak):
    # the desk latents' size; the elementwise test makes two n-by-m booleans
    matrix = np.random.default_rng(3).normal(size=(20000, 32))
    _, peak = traced_peak(npyio.check_finite_rows, "m", matrix)
    assert peak < 64 * 1024


@pytest.mark.parametrize("cells, row", [
    ([(7, 3, np.nan)], 7), ([(7, 3, np.inf)], 7),
    ([(9, 0, np.inf), (4, 31, -np.inf)], 4)],  # a NaN sum from two infinities
    ids=["nan", "inf", "inf-and-minus-inf"])
def test_check_finite_rows_names_the_first_bad_row(cells, row):
    matrix = np.random.default_rng(3).normal(size=(20000, 32))
    for i, j, value in cells:
        matrix[i, j] = value
    with pytest.raises(npyio.NonFinite, match=f"^m row {row} is not finite$"):
        npyio.check_finite_rows("m", matrix)


def test_check_finite_rows_passes_a_finite_matrix_whose_sum_overflows():
    matrix = np.zeros((4, 3))
    matrix[1, 0] = matrix[2, 2] = 1e308
    for arr in (matrix, np.array([1e308, 1e308])):
        with np.errstate(over="ignore"):
            assert np.isinf(arr.sum())
        npyio.check_finite_rows("m", arr)


def test_write_rejects_a_matrix_that_is_not_2d(tmp_path):
    with pytest.raises(DimensionMismatch, match="^expected 2-D matrix, got ndim=1$"):
        npyio.write_matrix(np.ones(3), tmp_path / "v.npy")
    assert not (tmp_path / "v.npy").exists()


def test_read_matrix_names_the_file_and_the_source(tmp_path):
    path = tmp_path / "a.npy"
    npyio.write_matrix(np.ones((3, 4)), path)
    for want in ((3, 4), (3, None), (None, None)):
        assert npyio.read_matrix(path, want, "b.json").shape == (3, 4)
    for want, shown in (((4, 3), "(4, 3)"), ((None, 3), "(any, 3)"),
                        ((3, 0), "(3, 0)")):
        message = f"{path}: shape (3, 4), but b.json gives {shown}"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            npyio.read_matrix(path, want, "b.json")


def test_meta_round_trip_keeps_the_indented_json(tmp_path):
    path = tmp_path / "m.json"
    obj = {"d": 4, "inner": {"rate": 1e-3, "kind": "linear"}}
    npyio.write_meta(path, obj)
    assert path.read_text() == json.dumps(obj, indent=2)
    schema = {"d": int, "inner": {"rate": float, "kind": str}}
    assert npyio.read_meta(path, schema) == obj


def test_write_unwritable_path():
    with pytest.raises(OSError):
        npyio.write_matrix(np.ones((1, 1)), "/nonexistent-dir/x.npy")


def test_1x1_zero_file_layout(tmp_path):
    path = tmp_path / "z.npy"
    npyio.write_matrix(np.zeros((1, 1)), path)
    blob = path.read_bytes()
    assert len(blob) % 64 == 8  # 64-byte header block + 8 payload bytes
    assert blob[-8:] == b"\x00" * 8


def test_load_dataset_pairs(tmp_path):
    lat = np.random.default_rng(1).normal(size=(10, 512))
    att = np.random.default_rng(2).uniform(size=(10, 40))
    npyio.write_matrix(lat, tmp_path / "lat.npy")
    npyio.write_matrix(att, tmp_path / "att.npy")
    latents, attrs = npyio.load_dataset(tmp_path / "lat.npy", tmp_path / "att.npy")
    assert latents.shape == (10, 512)
    assert attrs.shape == (10, 40)


def test_load_dataset_row_mismatch(tmp_path):
    npyio.write_matrix(np.ones((10, 8)), tmp_path / "lat.npy")
    npyio.write_matrix(np.ones((9, 3)), tmp_path / "att.npy")
    message = f"{tmp_path / 'att.npy'}: shape (9, 3), but lat.npy gives (10, any)"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        npyio.load_dataset(tmp_path / "lat.npy", tmp_path / "att.npy")


@pytest.mark.parametrize("name", ["lat.npy", "att.npy"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_dataset_names_the_file_and_row_of_a_non_finite_value(tmp_path,
                                                                  name, bad):
    for path, width in (("lat.npy", 8), ("att.npy", 3)):
        matrix = np.ones((10, width))
        if path == name:
            matrix[[4, 7], 1] = bad
        np.save(tmp_path / path, matrix)  # write_matrix would refuse it
    message = f"{tmp_path / name}: data row 4 is not finite"
    with pytest.raises(npyio.NonFinite, match=f"^{re.escape(message)}$"):
        npyio.load_dataset(tmp_path / "lat.npy", tmp_path / "att.npy")


@pytest.mark.parametrize("m, k, name, message", [
    (7, 3, "lat.npy", "shape (10, 8), but w.npy gives (any, 7)"),
    (8, 4, "att.npy", "shape (10, 3), but lat.npy with w.npy gives (10, 4)")],
    ids=["latents-width", "attrs-width"])
def test_load_dataset_checks_the_widths_the_source_gives(tmp_path, m, k, name,
                                                        message):
    npyio.write_matrix(np.ones((10, 8)), tmp_path / "lat.npy")
    npyio.write_matrix(np.ones((10, 3)), tmp_path / "att.npy")
    message = f"{tmp_path / name}: {message}"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        npyio.load_dataset(tmp_path / "lat.npy", tmp_path / "att.npy", m, k,
                           "w.npy")
    latents, attrs = npyio.load_dataset(tmp_path / "lat.npy",
                                        tmp_path / "att.npy", 8, 3, "w.npy")
    assert latents.shape == (10, 8) and attrs.shape == (10, 3)


@pytest.mark.parametrize("header", [
    f8_header("(-1, 3)"),                # a negative row count
    f8_header("(3, -1)"),
    f8_header("(2.0, 3)"),               # a float entry
    f8_header("(True, 3)"),              # a bool entry
    f8_header(f"({2**40}, {2**30})"),    # a payload far past the end of the file
    b"[1, 2]",                           # not a dict
    f8_header("(2, 3)", descr="()"),     # an empty dtype tuple
    f8_header("(2, 3)", descr="'<08'"),  # a dtype string numpy cannot parse
    f8_header("(2, 3)").replace(b"{", b"{[]: 1, "),  # an unhashable key
    b"{'descr': '<f8",                   # an unterminated string
], ids=["neg-rows", "neg-cols", "float", "bool", "huge", "list", "empty-descr",
        "bad-descr", "unhashable", "unterminated"])
def test_malformed_header_is_truncated_file(tmp_path, header):
    path = tmp_path / "bad.npy"
    path.write_bytes(npy_bytes(header, bytes(48)))
    # the reasons a header or payload is unusable, not its dtype or rank
    with pytest.raises(BadNpyFile, match="bad.npy: (malformed header|invalid "
                                         "shape|payload has)"):
        npyio.read_matrix(path)


@pytest.fixture(scope="module")
def scratch_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.npy"


def read_or_typed_error(path, blob):
    path.write_bytes(blob)
    try:
        m = npyio.read_matrix(path)
    except LatentAxesError:
        return
    # the width the header names, and the values numpy reads from the file
    want = np.load(path)
    assert m.ndim == 2 and m.dtype == want.dtype
    assert m.tobytes() == want.tobytes()


# tokens of a valid header, and tokens a mutation may put in their place
VALID_TOKENS = ["{", "'descr'", ":", "'<f8'", ",", "'fortran_order'", ":", "False",
                ",", "'shape'", ":", "(", "ROWS", ",", "COLS", ")", ",", "}"]
MUTANT_TOKENS = ["-1", "0", "3", "2.0", "True", "None", "()", "[]", "{}", "[1, 2]",
                 "(2, 3, 1)", "1099511627776", "'<f4'", "'<i8'", "'>f8'", "'<08'",
                 "b'<f8'", "('<f8', 2)", "'shape'", ",", ")", "'"]


@st.composite
def mutated_files(draw):
    """A valid file of a drawn shape whose header has a few tokens replaced,
    inserted or deleted."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    tokens = [{"ROWS": str(rows), "COLS": str(cols)}.get(t, t) for t in VALID_TOKENS]
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(tokens)))
        stop = start + draw(st.integers(0, 1))
        tokens[start:stop] = draw(st.lists(st.sampled_from(MUTANT_TOKENS), max_size=1))
    return npy_bytes(" ".join(tokens).encode(), bytes(8 * rows * cols))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(blob=st.one_of(st.binary(max_size=200),
                      st.binary(max_size=200).map(lambda b: b"\x93NUMPY\x01\x00" + b)))
def test_random_bytes_give_a_matrix_or_a_typed_error(scratch_path, blob):
    read_or_typed_error(scratch_path, blob)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(blob=mutated_files())
@example(blob=npy_bytes(f8_header("(2, 3)", descr="'<f4'"), bytes(48)))
def test_mutated_headers_give_a_matrix_or_a_typed_error(scratch_path, blob):
    read_or_typed_error(scratch_path, blob)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(m=st.sampled_from([np.float64, np.float32]).flatmap(lambda dtype: arrays(
    dtype, array_shapes(min_dims=2, max_dims=2, min_side=0),
    elements=st.floats(allow_nan=False, allow_infinity=False,
                       width=np.dtype(dtype).itemsize * 8))))
def test_round_trip_property(scratch_path, m):
    # each matrix comes back in the width it was written in, bit for bit
    npyio.write_matrix(m, scratch_path)
    back = npyio.read_matrix(scratch_path)
    assert back.shape == m.shape and back.dtype == m.dtype
    assert back.tobytes() == m.tobytes()
