"""Synthetic test cubes for desk-scale experiments.

Three kinds, all seeded, all normalized to [0, 1]:

* ``gaussian-blobs``: a few spatial Gaussians, each modulated by a smooth
  positive low-order spectral profile. Strongly compressible in the
  wavelet/DCT domain; the default phantom for solver experiments.
* ``piecewise-constant``: random axis-aligned rectangles whose constant
  value carries a small per-band offset.
* ``spectral-cosine``: a rank-1 cube, one spatial pattern times a single
  spectral DCT basis profile. Only the zero-frequency atom is nonnegative,
  so that is the one used; every transform coefficient then sits in a
  single spectral DCT band.
"""

from __future__ import annotations

import numpy as np

from .cubes import HyperCube
from .errors import DimensionError

PHANTOM_KINDS = ("gaussian-blobs", "piecewise-constant", "spectral-cosine")


def _spectral_profile(rng: np.random.Generator, L: int, max_order: int = 3) -> np.ndarray:
    """Smooth positive profile: 1 plus a few low-order DCT-II atoms."""
    prof = np.ones(L)
    orders = range(1, min(max_order, L - 1) + 1)
    if not orders:
        return prof
    amps = rng.uniform(-0.8, 0.8, size=len(list(orders)))
    if np.abs(amps).sum() > 0.9:
        amps *= 0.9 / np.abs(amps).sum()
    l = np.arange(L)
    for p, a in zip(range(1, len(amps) + 1), amps):
        prof += a * np.cos(np.pi * (2 * l + 1) * p / (2 * L))
    return prof


def _gaussian_blobs(rng: np.random.Generator, M: int, N: int, L: int) -> np.ndarray:
    n_blobs = int(rng.integers(3, 9))
    ii, jj = np.meshgrid(np.arange(M), np.arange(N), indexing="ij")
    arr = np.zeros((M, N, L))
    for _ in range(n_blobs):
        ci = rng.uniform(0.15 * M, 0.85 * M)
        cj = rng.uniform(0.15 * N, 0.85 * N)
        width = rng.uniform(0.06, 0.18) * min(M, N)
        amp = rng.uniform(0.4, 1.0)
        spatial = np.exp(-((ii - ci) ** 2 + (jj - cj) ** 2) / (2.0 * width**2))
        arr += amp * spatial[:, :, None] * _spectral_profile(rng, L)
    return arr


def _piecewise_constant(rng: np.random.Generator, M: int, N: int, L: int) -> np.ndarray:
    n_rects = int(rng.integers(3, 7))
    arr = np.zeros((M, N, L))
    for _ in range(n_rects):
        i0 = int(rng.integers(0, M))
        i1 = int(rng.integers(i0 + 1, M + 1))
        j0 = int(rng.integers(0, N))
        j1 = int(rng.integers(j0 + 1, N + 1))
        base = rng.uniform(0.3, 1.0)
        offsets = rng.uniform(-0.2, 0.2, size=L)
        arr[i0:i1, j0:j1, :] += np.maximum(base + offsets, 0.05)
    return arr


def _spectral_cosine(rng: np.random.Generator, M: int, N: int, L: int) -> np.ndarray:
    ii, jj = np.meshgrid(np.arange(M), np.arange(N), indexing="ij")
    spatial = np.zeros((M, N))
    for _ in range(2):
        ci = rng.uniform(0.2 * M, 0.8 * M)
        cj = rng.uniform(0.2 * N, 0.8 * N)
        width = rng.uniform(0.1, 0.25) * min(M, N)
        spatial += rng.uniform(0.5, 1.0) * np.exp(
            -((ii - ci) ** 2 + (jj - cj) ** 2) / (2.0 * width**2)
        )
    # Zero-frequency DCT atom: the only spectral basis profile that keeps a
    # nonnegative cube nonnegative, so the phantom stays in [0, 1] while
    # occupying exactly one spectral band of the transform.
    atom = np.full(L, np.sqrt(1.0 / L))
    return spatial[:, :, None] * atom


def phantom_cube(M: int, N: int, L: int, kind: str = "gaussian-blobs", seed: int = 0) -> HyperCube:
    """Seeded synthetic cube of the requested kind, normalized to [0, 1]."""
    if min(M, N, L) < 1:
        raise DimensionError(f"invalid dims {(M, N, L)}")
    rng = np.random.default_rng(seed)
    if kind == "gaussian-blobs":
        arr = _gaussian_blobs(rng, M, N, L)
    elif kind == "piecewise-constant":
        arr = _piecewise_constant(rng, M, N, L)
    elif kind == "spectral-cosine":
        arr = _spectral_cosine(rng, M, N, L)
    else:
        raise ValueError(f"unknown phantom kind {kind!r}; expected one of {PHANTOM_KINDS}")
    peak = arr.max()
    if peak <= 0.0:
        raise ValueError("degenerate phantom draw (all zero)")
    return HyperCube.from_array(arr / peak)
