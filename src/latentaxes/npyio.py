"""`.npy` v1.0 reader/writer for dense 2-D float matrices, through
`numpy.lib.format`, with typed errors.

Only the subset needed for latent/attribute interchange is supported:
version 1.0, little-endian float32/float64, C-order, rank 2. Everything
else is rejected with a specific error so malformed dumps fail loudly.
"""

import os
import tokenize

import numpy as np
from numpy.lib import format as npy_format

from .errors import (
    BadMagic,
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
