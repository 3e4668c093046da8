"""`.npy` v1.0 reader/writer for dense 2-D float matrices, through
`numpy.lib.format`, each read checked against the shape its caller expects
and for a NaN or infinity; and the one reader and writer of the JSON
metadata files that sit beside them in a workspace.

Only rank-2, C-order v1.0 files of little-endian float32 or float64 are
supported, each read in its stored width and written in the matrix's own.
Anything else is a BadNpyFile naming the file: malformed dumps fail loudly.
"""

import json
import os
import tokenize
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from .errors import BadNpyFile, ConfigInvalid, DimensionMismatch, NonFinite

MAGIC = b"\x93NUMPY"

# What numpy's header parser (literal_eval, its Python 2 header filter and
# the dtype constructor) raises on a malformed header.
_MALFORMED_HEADER = (ValueError, TypeError, IndexError, SyntaxError,
                     tokenize.TokenError)


def read_matrix(path, want=(None, None), source="") -> np.ndarray:
    """Read a 2-D float .npy file in its stored width, <f4 as float32 and
    <f8 as float64, straight into the result. A header shape other than
    ``want``, where None matches any length, is a DimensionMismatch naming
    the file and ``source``, what gives that shape; a NaN or infinity is a
    NonFinite naming the file and the row."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise BadNpyFile(f"{path}: not a .npy file")
        fh.seek(0)
        try:
            version = npy_format.read_magic(fh)
            if version != (1, 0):
                raise BadNpyFile(f"{path}: unsupported .npy version "
                                 f"{version[0]}.{version[1]}")
            shape, fortran_order, dtype = npy_format.read_array_header_1_0(fh)
        except _MALFORMED_HEADER as exc:
            raise BadNpyFile(f"{path}: malformed header: {exc}") from exc
        if dtype.str not in ("<f4", "<f8"):
            raise BadNpyFile(f"{path}: dtype {dtype.str!r} not supported")
        if len(shape) != 2:
            raise BadNpyFile(f"{path}: expected 2-D array, got shape {shape}")
        if fortran_order:
            raise BadNpyFile(f"{path}: fortran_order arrays not supported")
        if not all(type(n) is int and n >= 0 for n in shape):
            raise BadNpyFile(f"{path}: invalid shape {shape}")
        if any(n not in (None, have) for have, n in zip(shape, want)):
            wanted = ", ".join("any" if n is None else str(n) for n in want)
            raise DimensionMismatch(f"{path}: shape {shape}, but {source} "
                                    f"gives ({wanted})")
        expected = shape[0] * shape[1] * dtype.itemsize
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available != expected:
            raise BadNpyFile(
                f"{path}: payload has {available} bytes, expected {expected}")
        # read into the array itself, so no second copy of the payload is made
        data = np.empty(shape, dtype=dtype)
        if fh.readinto(data) != expected:
            raise BadNpyFile(f"{path}: payload shorter than {expected} bytes")
    check_finite_rows(f"{path}: data", data)
    return data


def write_matrix(matrix: np.ndarray, path) -> None:
    """Write a 2-D finite matrix as .npy v1.0, C-order: <f4 if it is
    float32, else <f8, so no value is narrowed."""
    m = np.asarray(matrix)
    m = np.ascontiguousarray(m, np.float32 if m.dtype == np.float32 else np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected 2-D matrix, got ndim={m.ndim}")
    check_finite_rows(f"{path}: data", m)
    with open(path, "wb") as fh:
        npy_format.write_array(fh, m, version=(1, 0))


def load_dataset(latent_path, attr_path, m=None, k=None, source=""):
    """Paired latents (n x m) and attributes (n x K): the latents fix n, and
    ``source`` fixes m and K where they are given."""
    latents = read_matrix(latent_path, (None, m), source)
    name = Path(latent_path).name
    return latents, read_matrix(attr_path, (latents.shape[0], k),
                                f"{name} with {source}" if source else name)


def check_finite_rows(name: str, arr: np.ndarray) -> None:
    """NonFinite naming ``name`` and the first row of ``arr`` (an element,
    if ``arr`` is 1-D) that holds a NaN or infinity."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(arr.sum()):  # finite only if every entry is
            return
    bad = ~np.isfinite(arr.reshape(len(arr), -1)).all(axis=1)
    if bad.any():
        raise NonFinite(f"{name} row {np.argmax(bad)} is not finite")


def read_meta(path, schema: dict) -> dict:
    """The JSON object in the workspace metadata file ``path``, checked
    against ``schema`` by ``_check_keys``. A file that is not a JSON object,
    or that repeats a key in any object, is a ConfigInvalid naming it; one
    that cannot be read raises OSError."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigInvalid(f"{path}: key {key!r} appears twice")
            obj[key] = value
        return obj

    try:
        obj = json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigInvalid(f"{path}: not valid JSON: {exc}") from exc
    return _check_keys(obj, schema, path)


def _check_keys(obj, schema: dict, where) -> dict:
    """A copy of the JSON object ``obj``, whose keys must be exactly those of
    ``schema``. A schema value is a type, which the key's value must have (an
    int is taken as a float where a float is wanted, and a bool is never a
    number), or a nested schema for a value that is itself an object. An
    ``obj`` that is not an object, or a key that is unknown, missing or of
    another type, is a ConfigInvalid naming ``where``."""
    if type(obj) is not dict:
        raise ConfigInvalid(f"{where}: must hold a JSON object")
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise ConfigInvalid(f"{where}: unknown keys {unknown}")
    checked = {}
    for key, kind in schema.items():
        if key not in obj:
            raise ConfigInvalid(f"{where}: missing key {key!r}")
        value, at = obj[key], f"{where}: {key}"
        if type(kind) is dict:
            value = _check_keys(value, kind, at)
        elif kind is float and type(value) is int:
            value = float(value)
        elif type(value) is not kind:
            raise ConfigInvalid(f"{at}: {value!r} is not of type {kind.__name__}")
        checked[key] = value
    return checked


def write_meta(path, obj: dict) -> None:
    """Write ``obj`` as the indented JSON that ``read_meta`` reads back."""
    Path(path).write_text(json.dumps(obj, indent=2))
