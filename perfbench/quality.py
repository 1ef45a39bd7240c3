"""Output checks the benchmark makes with its own code, not the package's."""

from __future__ import annotations

import struct

import numpy as np

_CUBE_HEADER = struct.Struct("<4sIII")


def psnr_db(ref: np.ndarray, est: np.ndarray) -> float:
    """Mean over bands of 10*log10(1 / MSE) for two (M, N, L) cubes of peak 1.

    Bands reconstructed exactly are left out of the mean; two identical
    cubes give +inf.
    """
    mse = np.mean((np.asarray(ref, np.float64) - np.asarray(est, np.float64)) ** 2, axis=(0, 1))
    finite = mse > 0.0
    if not finite.any():
        return float("inf")
    return float(np.mean(10.0 * np.log10(1.0 / mse[finite])))


def as_cube(flat: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """(M, N, L) view of a vectorized cube (row index fastest, then column, then band)."""
    return np.asarray(flat).reshape(dims, order="F")


def read_cube_file(path) -> tuple[tuple[int, int, int], np.ndarray]:
    """Dimensions and float64 payload of an ``HSC1`` cube file; raises ValueError when malformed."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _CUBE_HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, M, N, L = _CUBE_HEADER.unpack_from(data)
    if magic != b"HSC1" or len(data) != _CUBE_HEADER.size + 4 * M * N * L:
        raise ValueError(f"{path}: not an HSC1 cube of {M}x{N}x{L}")
    values = np.frombuffer(data, dtype="<f4", offset=_CUBE_HEADER.size).astype(np.float64)
    return (M, N, L), values
