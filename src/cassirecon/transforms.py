"""Orthonormal sparsifying transform and its subband bookkeeping.

The transform applies a J-level separable 2D orthonormal wavelet to every
spectral band and an orthonormal DCT-II along the spectral axis. The two
factors act on disjoint axes, so they commute and the composition is itself
orthonormal: the inverse is the transpose, which the solver relies on.

Wavelets are periodized filter banks; only orthonormal families are
offered, since a biorthogonal pair would break inverse == transpose.
Spatial dims must be divisible by 2**levels (non-dyadic inputs are
rejected, not padded - crop upstream).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .cubes import check_dims, cube_view
from .errors import DimensionError

_SQRT2 = np.sqrt(2.0)

# Analysis low-pass filters. db4 is the 8-tap Daubechies filter with 4
# vanishing moments.
WAVELET_FILTERS = {
    "haar": np.array([1.0, 1.0]) / _SQRT2,
    "db4": np.array(
        [
            -0.010597401785069032,
            0.0328830116668852,
            0.030841381835560764,
            -0.18703481171909309,
            -0.027983769416859854,
            0.6308807679298589,
            0.7148465705529157,
            0.23037781330889650,
        ]
    ),
}


def default_levels(M: int, N: int) -> int:
    """Decomposition depth used when none is requested.

    Two levels short of log2 of the smaller side (at least 1), clamped to
    the number of times both sides halve evenly.
    """
    halvings = min((M & -M).bit_length(), (N & -N).bit_length()) - 1
    if halvings < 1:
        raise DimensionError(
            f"spatial dims ({M}, {N}) must both be even: no wavelet depth "
            f"(--levels) fits an odd size; crop the cube"
        )
    return min(max(1, int(np.log2(min(M, N))) - 2), halvings)


def _filters(wavelet: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        h = WAVELET_FILTERS[wavelet]
    except KeyError:
        raise ValueError(
            f"unknown wavelet {wavelet!r}; available: {sorted(WAVELET_FILTERS)}"
        ) from None
    # Quadrature-mirror high-pass companion.
    g = ((-1.0) ** np.arange(h.size)) * h[::-1]
    return h, g


def _check_dyadic(M: int, N: int, levels: int) -> None:
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    div = 1 << levels
    if M % div != 0 or N % div != 0:
        raise DimensionError(
            f"spatial dims ({M}, {N}) must be divisible by 2^levels = {div}"
        )


def _split(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, h: np.ndarray, g: np.ndarray) -> None:
    """One periodized filter-bank split along axis 0, written into ``lo`` and ``hi``.

    Output i takes row (2i + t) mod n at tap t. Tap t reads the rows
    ``x[s::2]`` (s = t mod n) for the first outputs and the wrapped rows
    ``x[s % 2 : 2 * (s // 2) : 2]`` for the last ``s // 2``; s differs from t
    only when the block is shorter than the filter. Each output accumulates
    its taps in order from zero, as the gather form ``x[(2i + t) % n]`` does.
    """
    n = x.shape[0]
    half = n // 2
    np.multiply(x[0::2], h[0], out=lo)
    np.multiply(x[0::2], g[0], out=hi)
    for t in range(1, h.size):
        s = t % n
        k = s // 2
        head, wrap = x[s::2], x[s % 2 : 2 * k : 2]
        lo[: half - k] += h[t] * head
        hi[: half - k] += g[t] * head
        if k:
            lo[half - k :] += h[t] * wrap
            hi[half - k :] += g[t] * wrap


def _merge(lo: np.ndarray, hi: np.ndarray, out: np.ndarray, h: np.ndarray, g: np.ndarray) -> None:
    """Transpose of :func:`_split`: rebuild ``out`` (2x the rows) from ``lo`` and ``hi``.

    Taps 0 and 1 write every even and odd row once; later taps add in order.
    """
    half = lo.shape[0]
    n = 2 * half
    out[0::2] = h[0] * lo + g[0] * hi
    out[1::2] = h[1] * lo + g[1] * hi
    for t in range(2, h.size):
        s = t % n
        k = s // 2
        out[s::2] += h[t] * lo[: half - k] + g[t] * hi[: half - k]
        if k:
            out[s % 2 : 2 * k : 2] += h[t] * lo[half - k :] + g[t] * hi[half - k :]


def _cols(a: np.ndarray) -> np.ndarray:
    """View with the column axis first, so a split along axis 0 splits columns."""
    return np.swapaxes(a, 0, 1)


@lru_cache(maxsize=None)
def _dct_matrix(L: int) -> np.ndarray:
    """Orthonormal DCT-II matrix: row p is the p-th cosine over L samples."""
    l = np.arange(L)
    D = np.sqrt(2.0 / L) * np.cos(np.pi * (2 * l[None, :] + 1) * l[:, None] / (2 * L))
    D[0] = np.sqrt(1.0 / L)
    D.flags.writeable = False
    return D


def _spectral(cube: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Apply ``D`` along the last axis; the result is a fresh Fortran-ordered cube.

    On the Fortran-ordered (M*N, L) view X, ``(D @ X.T).T`` keeps that order,
    so the reshape back to (M, N, L) copies nothing.
    """
    cube = np.asarray(cube, dtype=np.float64)
    X = cube.reshape((-1, cube.shape[-1]), order="F")
    return (D @ X.T).T.reshape(cube.shape, order="F")


def dct_spectral_forward(cube: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the spectral (last) axis of an (M, N, L) cube."""
    return _spectral(cube, _dct_matrix(np.shape(cube)[-1]))


def dct_spectral_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse (transpose) of :func:`dct_spectral_forward`."""
    return _spectral(coeffs, _dct_matrix(np.shape(coeffs)[-1]).T)


@dataclass(frozen=True)
class SparsifyingTransform:
    """Per-band 2D wavelet combined with a spectral DCT, as flat-vector maps.

    ``forward`` maps a vectorized cube to its coefficient vector;
    ``inverse`` is the exact transpose. ``levels=None`` picks
    :func:`default_levels`. Each band's wavelet coefficients use the packed
    corner layout: the level-J approximation sits in the top-left
    (M/2^J, N/2^J) block, detail subbands in the other quadrants of each
    scale (see :func:`spatial_subband_labels`).
    """

    rows: int
    cols: int
    bands: int
    wavelet: str = "haar"
    levels: Optional[int] = None

    def __post_init__(self):
        check_dims(self.rows, self.cols, self.bands)
        levels = self.levels if self.levels is not None else default_levels(self.rows, self.cols)
        object.__setattr__(self, "levels", int(levels))
        _check_dyadic(self.rows, self.cols, self.levels)
        _filters(self.wavelet)  # fail fast on unknown family

    @property
    def n(self) -> int:
        return self.rows * self.cols * self.bands

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Coefficient vector of a vectorized cube."""
        h, g = _filters(self.wavelet)
        cube = cube_view(x, (self.rows, self.cols, self.bands), "cube values")
        out = dct_spectral_forward(cube)
        buf = np.empty_like(out)
        m, n = self.rows, self.cols
        for _ in range(self.levels):
            # rows of the block into buf, then the columns of buf back into out
            _split(out[:m, :n], buf[: m // 2, :n], buf[m // 2 : m, :n], h, g)
            _split(_cols(buf[:m, :n]), _cols(out[:m, : n // 2]), _cols(out[:m, n // 2 : n]), h, g)
            m //= 2
            n //= 2
        return out.reshape(-1, order="F")

    def inverse(self, theta: np.ndarray) -> np.ndarray:
        """Cube (flat) from a coefficient vector; exact inverse of ``forward``.

        The spectral inverse runs first: it commutes with the per-band
        wavelet and yields the fresh array the wavelet levels then rebuild.
        """
        h, g = _filters(self.wavelet)
        coeffs = cube_view(theta, (self.rows, self.cols, self.bands), "coefficients")
        out = dct_spectral_inverse(coeffs)
        buf = np.empty_like(out)
        for j in range(self.levels, 0, -1):
            m, n = self.rows >> (j - 1), self.cols >> (j - 1)
            # columns of the block into buf, then the rows of buf back into out
            _merge(_cols(out[:m, : n // 2]), _cols(out[:m, n // 2 : n]), _cols(buf[:m, :n]), h, g)
            _merge(buf[: m // 2, :n], buf[m // 2 : m, :n], out[:m, :n], h, g)
        return out.reshape(-1, order="F")


@dataclass(frozen=True)
class SubbandMap:
    """Partition of coefficient indices into (spectral band, wavelet subband) groups.

    ``labels`` assigns each flat coefficient index its group id
    ``l * (3J + 1) + s``; there are exactly ``L * (3J + 1)`` groups and the
    group sizes sum to M*N*L.
    """

    labels: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)

    @property
    def n_groups(self) -> int:
        return self.sizes.size


def spatial_subband_labels(M: int, N: int, levels: int) -> np.ndarray:
    """(M, N) int array tagging each coefficient with its wavelet subband index."""
    _check_dyadic(M, N, levels)
    lab = np.empty((M, N), dtype=np.int32)
    lab[: M >> levels, : N >> levels] = 0
    for j in range(1, levels + 1):
        mh, nh = M >> j, N >> j
        s = 3 * (j - 1)
        lab[:mh, nh : 2 * nh] = s + 1
        lab[mh : 2 * mh, :nh] = s + 2
        lab[mh : 2 * mh, nh : 2 * nh] = s + 3
    return lab


def subband_map(M: int, N: int, L: int, levels: int) -> SubbandMap:
    """Group id for every coefficient of an (M, N, L) transform output."""
    check_dims(M, N, L)
    spatial = spatial_subband_labels(M, N, levels)
    per_band = 3 * levels + 1
    labels3d = spatial[:, :, None] + per_band * np.arange(L, dtype=np.int32)[None, None, :]
    labels = np.asfortranarray(labels3d).reshape(-1, order="F").astype(np.int32)
    labels.flags.writeable = False
    sizes = np.bincount(labels, minlength=L * per_band)
    sizes.flags.writeable = False
    return SubbandMap(labels, sizes)
