"""Synthetic test cubes for desk-scale experiments.

One kind, seeded and normalized to [0, 1]: ``gaussian-blobs``, a few
spatial Gaussians, each modulated by a smooth positive low-order spectral
profile. It is strongly compressible in the wavelet/DCT domain.
"""

from __future__ import annotations

import numpy as np

from .cubes import HyperCube, check_dims

PHANTOM_KINDS = ("gaussian-blobs",)


def _spectral_profile(rng: np.random.Generator, L: int) -> np.ndarray:
    """Smooth positive profile: 1 plus the DCT-II atoms of orders 1 to 3 (fewer when L < 4)."""
    prof = np.ones(L)
    # L = 1 draws no amplitude: a size-0 draw leaves the generator alone
    amps = rng.uniform(-0.8, 0.8, size=min(3, L - 1))
    if np.abs(amps).sum() > 0.9:
        amps *= 0.9 / np.abs(amps).sum()
    l = np.arange(L)
    for p, a in enumerate(amps, start=1):
        prof += a * np.cos(np.pi * (2 * l + 1) * p / (2 * L))
    return prof


def _gaussian_blobs(rng: np.random.Generator, M: int, N: int, L: int) -> np.ndarray:
    """The unnormalized (M, N, L) cube, in Fortran order so each band is one contiguous plane.

    Each blob is added one band at a time through one reused plane, with
    the roundings of ``amp * spatial[:, :, None] * profile``: ``amp *
    spatial`` first, then the band's profile value.
    """
    n_blobs = int(rng.integers(3, 9))
    # planes in the cube's order, so no product or add strides across the other
    ii, jj = (np.asfortranarray(a) for a in np.meshgrid(np.arange(M), np.arange(N), indexing="ij"))
    arr = np.zeros((M, N, L), order="F")
    plane = np.empty((M, N), order="F")
    for _ in range(n_blobs):
        ci = rng.uniform(0.15 * M, 0.85 * M)
        cj = rng.uniform(0.15 * N, 0.85 * N)
        width = rng.uniform(0.06, 0.18) * min(M, N)
        amp = rng.uniform(0.4, 1.0)
        spatial = np.exp(-((ii - ci) ** 2 + (jj - cj) ** 2) / (2.0 * width**2))
        spatial *= amp
        for band, p in zip(np.moveaxis(arr, 2, 0), _spectral_profile(rng, L)):
            band += np.multiply(spatial, p, out=plane)
    return arr


def phantom_cube(M: int, N: int, L: int, kind: str = "gaussian-blobs", seed: int = 0) -> HyperCube:
    """Seeded synthetic cube of the requested kind, normalized to [0, 1]."""
    check_dims(M, N, L)
    if kind not in PHANTOM_KINDS:
        raise ValueError(f"unknown phantom kind {kind!r}; expected one of {PHANTOM_KINDS}")
    # every blob is positive everywhere, so the peak is too
    arr = _gaussian_blobs(np.random.default_rng(seed), M, N, L)
    arr /= arr.max()
    # Fortran order: from_array's flat view needs no copy, only the freeze copies
    return HyperCube.from_array(arr)
