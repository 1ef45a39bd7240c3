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
from typing import Optional

import numpy as np
from scipy.fft import dct, idct

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


def _analyze_axis0(x: np.ndarray, h: np.ndarray, g: np.ndarray):
    """One periodized filter-bank split along axis 0 (length must be even)."""
    n = x.shape[0]
    half = n // 2
    base = 2 * np.arange(half)
    lo = np.zeros((half,) + x.shape[1:])
    hi = np.zeros_like(lo)
    for t in range(h.size):
        xt = x[(base + t) % n]
        lo += h[t] * xt
        hi += g[t] * xt
    return lo, hi


def _synthesize_axis0(lo: np.ndarray, hi: np.ndarray, h: np.ndarray, g: np.ndarray):
    """Exact inverse of :func:`_analyze_axis0` (transpose of an orthogonal map)."""
    half = lo.shape[0]
    n = 2 * half
    base = 2 * np.arange(half)
    out = np.zeros((n,) + lo.shape[1:])
    for t in range(h.size):
        # target rows are distinct for fixed t, so fancy-index += is safe
        out[(base + t) % n] += h[t] * lo + g[t] * hi
    return out


def _dwt2_level(block: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    lo, hi = _analyze_axis0(block, h, g)
    stacked = np.concatenate([lo, hi], axis=0)
    lo2, hi2 = _analyze_axis0(np.swapaxes(stacked, 0, 1), h, g)
    return np.swapaxes(np.concatenate([lo2, hi2], axis=0), 0, 1)


def _idwt2_level(block: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    n = block.shape[1]
    t = np.swapaxes(block, 0, 1)
    cols = np.swapaxes(_synthesize_axis0(t[: n // 2], t[n // 2 :], h, g), 0, 1)
    m = cols.shape[0]
    return _synthesize_axis0(cols[: m // 2], cols[m // 2 :], h, g)


def dct_spectral_forward(cube: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the spectral (last) axis of an (M, N, L) cube."""
    return dct(np.asarray(cube, dtype=np.float64), type=2, norm="ortho", axis=-1)


def dct_spectral_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse (transpose) of :func:`dct_spectral_forward`."""
    return idct(np.asarray(coeffs, dtype=np.float64), type=2, norm="ortho", axis=-1)


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
        if min(self.rows, self.cols, self.bands) < 1:
            raise DimensionError(f"invalid dims {(self.rows, self.cols, self.bands)}")
        levels = self.levels if self.levels is not None else default_levels(self.rows, self.cols)
        object.__setattr__(self, "levels", int(levels))
        _check_dyadic(self.rows, self.cols, self.levels)
        _filters(self.wavelet)  # fail fast on unknown family

    @property
    def n(self) -> int:
        return self.rows * self.cols * self.bands

    def _as_cube(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 3:
            if x.shape != (self.rows, self.cols, self.bands):
                raise DimensionError(f"expected cube shape {(self.rows, self.cols, self.bands)}, got {x.shape}")
            return x
        x = x.reshape(-1)
        if x.size != self.n:
            raise DimensionError(f"expected length {self.n}, got {x.size}")
        return x.reshape((self.rows, self.cols, self.bands), order="F")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Coefficient vector of a cube (flat or (M, N, L)-shaped input)."""
        cube = self._as_cube(x)
        h, g = _filters(self.wavelet)
        out = dct_spectral_forward(cube)
        m, n = self.rows, self.cols
        for _ in range(self.levels):
            out[:m, :n, :] = _dwt2_level(out[:m, :n, :], h, g)
            m //= 2
            n //= 2
        return out.reshape(-1, order="F")

    def inverse(self, theta: np.ndarray) -> np.ndarray:
        """Cube (flat) from a coefficient vector; exact inverse of ``forward``."""
        theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        if theta.size != self.n:
            raise DimensionError(f"expected length {self.n}, got {theta.size}")
        h, g = _filters(self.wavelet)
        out = theta.reshape((self.rows, self.cols, self.bands), order="F").copy()
        for j in range(self.levels, 0, -1):
            m, n = self.rows >> (j - 1), self.cols >> (j - 1)
            out[:m, :n, :] = _idwt2_level(out[:m, :n, :], h, g)
        out = dct_spectral_inverse(out)
        return out.reshape(-1, order="F")


#: Wavelet subband names at depth J: index 0 is the level-J approximation,
#: then (lh, hl, hh) triples from the finest level (j=1) outward.
def subband_names(levels: int) -> list[str]:
    names = [f"ll{levels}"]
    for j in range(1, levels + 1):
        names += [f"lh{j}", f"hl{j}", f"hh{j}"]
    return names


@dataclass(frozen=True)
class SubbandMap:
    """Partition of coefficient indices into (spectral band, wavelet subband) groups.

    ``labels`` assigns each flat coefficient index its group id
    ``l * (3J + 1) + s``; there are exactly ``L * (3J + 1)`` groups and the
    group sizes sum to M*N*L.
    """

    rows: int
    cols: int
    bands: int
    levels: int
    labels: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)

    @property
    def n_groups(self) -> int:
        return self.bands * (3 * self.levels + 1)

    def describe(self, group_id: int) -> tuple[int, str]:
        """(spectral band, wavelet subband name) for a group id."""
        per_band = 3 * self.levels + 1
        return group_id // per_band, subband_names(self.levels)[group_id % per_band]


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
    if L < 1:
        raise DimensionError(f"bands must be >= 1, got {L}")
    spatial = spatial_subband_labels(M, N, levels)
    per_band = 3 * levels + 1
    labels3d = spatial[:, :, None] + per_band * np.arange(L, dtype=np.int32)[None, None, :]
    labels = np.asfortranarray(labels3d).reshape(-1, order="F").astype(np.int32)
    labels.flags.writeable = False
    sizes = np.bincount(labels, minlength=L * per_band)
    sizes.flags.writeable = False
    return SubbandMap(M, N, L, levels, labels, sizes)
