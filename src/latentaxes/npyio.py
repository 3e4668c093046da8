"""`.npy` v1.0 reader/writer for dense 2-D float matrices, through
`numpy.lib.format`, with typed errors, and the checked reader of the JSON
metadata files that sit beside them in a workspace.

Only the subset needed for latent/attribute interchange is supported:
version 1.0, little-endian float32/float64, C-order, rank 2. Everything
else is rejected with a specific error so malformed dumps fail loudly.
"""

import json
import os
import tokenize
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from .errors import (
    BadMagic,
    ConfigInvalid,
    NonFinite,
    RowCountMismatch,
    TruncatedFile,
    UnsupportedDtype,
    UnsupportedRank,
)

MAGIC = b"\x93NUMPY"

# What numpy's header parser (literal_eval, its Python 2 header filter and
# the dtype constructor) raises on a malformed header.
_MALFORMED_HEADER = (ValueError, TypeError, IndexError, SyntaxError,
                     tokenize.TokenError)


def read_matrix(path) -> np.ndarray:
    """Read a 2-D float .npy file, promoting values to float64."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise BadMagic(f"{path}: not a .npy file")
        fh.seek(0)
        try:
            version = npy_format.read_magic(fh)
            if version != (1, 0):
                raise UnsupportedDtype(f"{path}: unsupported .npy version "
                                       f"{version[0]}.{version[1]}")
            shape, fortran_order, dtype = npy_format.read_array_header_1_0(fh)
        except _MALFORMED_HEADER as exc:
            raise TruncatedFile(f"{path}: malformed header: {exc}") from exc
        if dtype.str not in ("<f4", "<f8"):
            raise UnsupportedDtype(f"{path}: dtype {dtype.str!r} not supported")
        if len(shape) != 2:
            raise UnsupportedRank(f"{path}: expected 2-D array, got shape {shape}")
        if fortran_order:
            raise UnsupportedDtype(f"{path}: fortran_order arrays not supported")
        if not all(type(n) is int and n >= 0 for n in shape):
            raise TruncatedFile(f"{path}: invalid shape {shape}")
        expected = shape[0] * shape[1] * dtype.itemsize
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available < expected:
            raise TruncatedFile(
                f"{path}: payload has {available} bytes, expected {expected}")
        data = np.frombuffer(fh.read(expected), dtype=dtype).reshape(shape)
    return data.astype(np.float64, copy=True)


def write_matrix(matrix: np.ndarray, path) -> None:
    """Write a 2-D matrix as .npy v1.0, dtype <f8, C-order."""
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise UnsupportedRank(f"expected 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise NonFinite("matrix contains NaN or infinity")
    with open(path, "wb") as fh:
        npy_format.write_array(fh, m, version=(1, 0))


def load_dataset(latent_path, attr_path):
    """Load paired (latents, attributes) matrices, checking row alignment."""
    latents = read_matrix(latent_path)
    attrs = read_matrix(attr_path)
    if latents.shape[0] != attrs.shape[0]:
        raise RowCountMismatch(
            f"{latents.shape[0]} latents vs {attrs.shape[0]} attribute rows"
        )
    return latents, attrs


def check_finite_rows(name: str, arr: np.ndarray) -> None:
    """NonFinite naming ``name`` and the first row of ``arr`` (an element,
    if ``arr`` is 1-D) that holds a NaN or infinity."""
    bad = ~np.isfinite(arr)
    if bad.ndim > 1:
        bad = bad.any(axis=1)
    if bad.any():
        raise NonFinite(f"{name} row {np.argmax(bad)} is not finite")


def check_type(value, kind: type, where: str):
    """``value`` if it has the type ``kind``, an int taken as a float where a
    float is wanted (a bool is never a number); otherwise ConfigInvalid
    naming ``where``."""
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ConfigInvalid(f"{where}: {value!r} is not of type {kind.__name__}")
    return value


def check_keys(obj: dict, schema: dict, where) -> dict:
    """A copy of ``obj``, whose keys must be exactly those of ``schema``
    (key -> type), with each value passed through ``check_type``; an unknown
    or missing key is a ConfigInvalid naming ``where``."""
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise ConfigInvalid(f"{where}: unknown keys {unknown}")
    checked = {}
    for key, kind in schema.items():
        if key not in obj:
            raise ConfigInvalid(f"{where}: missing key {key!r}")
        checked[key] = check_type(obj[key], kind, f"{where}: {key}")
    return checked


def read_json_object(path) -> dict:
    """The JSON object in the file ``path``. A file that is not a JSON
    object is a ConfigInvalid naming it; one that cannot be read raises
    OSError."""
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigInvalid(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{path}: must hold a JSON object")
    return obj


def read_meta(path, schema: dict) -> dict:
    """A workspace metadata file's JSON object, checked against ``schema``
    by ``check_keys``."""
    return check_keys(read_json_object(path), schema, path)
