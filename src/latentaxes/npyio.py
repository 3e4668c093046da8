"""Minimal `.npy` v1.0 reader/writer for dense 2-D float matrices.

Only the subset needed for latent/attribute interchange is supported:
version 1.0, little-endian float32/float64, C-order, rank 2. Everything
else is rejected with a specific error so malformed dumps fail loudly.
"""

import ast
import struct

import numpy as np

from .errors import (
    BadMagic,
    NonFinite,
    RowCountMismatch,
    TruncatedFile,
    UnsupportedDtype,
    UnsupportedRank,
)

MAGIC = b"\x93NUMPY"

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


def read_matrix(path) -> np.ndarray:
    """Read a 2-D float .npy file, promoting values to float64."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 6 or raw[:6] != MAGIC:
        raise BadMagic(f"{path}: not a .npy file")
    if len(raw) < 10:
        raise TruncatedFile(f"{path}: header incomplete")
    major, minor = raw[6], raw[7]
    if (major, minor) != (1, 0):
        raise UnsupportedDtype(f"{path}: unsupported .npy version {major}.{minor}")
    (hlen,) = struct.unpack("<H", raw[8:10])
    if len(raw) < 10 + hlen:
        raise TruncatedFile(f"{path}: header declares {hlen} bytes, file too short")
    try:
        header = ast.literal_eval(raw[10 : 10 + hlen].decode("latin1"))
    except (ValueError, SyntaxError) as exc:
        raise TruncatedFile(f"{path}: malformed header dict") from exc
    descr = header.get("descr")
    if descr not in _DTYPES:
        raise UnsupportedDtype(f"{path}: dtype {descr!r} not supported")
    shape = header.get("shape")
    if not (isinstance(shape, tuple) and len(shape) == 2):
        raise UnsupportedRank(f"{path}: expected 2-D array, got shape {shape}")
    if header.get("fortran_order"):
        raise UnsupportedDtype(f"{path}: fortran_order arrays not supported")
    rows, cols = shape
    dtype = _DTYPES[descr]
    expected = rows * cols * dtype.itemsize
    payload = raw[10 + hlen :]
    if len(payload) < expected:
        raise TruncatedFile(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload[:expected], dtype=dtype).reshape(rows, cols)
    return data.astype(np.float64, copy=True)


def write_matrix(matrix: np.ndarray, path) -> None:
    """Write a 2-D matrix as .npy v1.0, dtype <f8, C-order."""
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise UnsupportedRank(f"expected 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise NonFinite("matrix contains NaN or infinity")
    header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': {m.shape}, }}"
    # magic(6) + version(2) + hlen(2) + header must total a multiple of 64,
    # with the header space-padded and terminated by '\n'.
    total = 10 + len(header) + 1
    pad = (64 - total % 64) % 64
    header_bytes = (header + " " * pad + "\n").encode("latin1")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(b"\x01\x00")
        fh.write(struct.pack("<H", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(m.tobytes(order="C"))


def load_dataset(latent_path, attr_path):
    """Load paired (latents, attributes) matrices, checking row alignment."""
    latents = read_matrix(latent_path)
    attrs = read_matrix(attr_path)
    if latents.shape[0] != attrs.shape[0]:
        raise RowCountMismatch(
            f"{latents.shape[0]} latents vs {attrs.shape[0]} attribute rows"
        )
    return latents, attrs
