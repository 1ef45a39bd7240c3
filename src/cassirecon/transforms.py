"""Orthonormal sparsifying transform and its subband bookkeeping.

The transform applies a J-level separable 2D orthonormal wavelet to every
spectral band and an orthonormal DCT-II along the spectral axis. The two
factors act on disjoint axes, so they commute and the composition is itself
orthonormal: the inverse is the transpose, which the solver relies on.

Wavelets are periodized filter banks; only orthonormal families are
offered, since a biorthogonal pair would break inverse == transpose.
The transform picks its depth from its spatial dims (:func:`default_levels`);
both dims must be even (odd inputs are rejected, not padded - crop
upstream).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .cubes import band_chunks, check_dims, cube_view
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
    """Decomposition depth of an (M, N) transform.

    Two levels short of log2 of the smaller side (at least 1), clamped to
    the number of times both sides halve evenly.
    """
    halvings = min((M & -M).bit_length(), (N & -N).bit_length()) - 1
    if halvings < 1:
        raise DimensionError(
            f"spatial dims ({M}, {N}) must both be even: no wavelet level "
            f"fits an odd size; crop the cube"
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

    Haar (``h == (s, s)``, so ``g == (s, -s)``) shares its products: with
    ``p = s * x``, ``lo = p[0::2] + p[1::2]`` and ``hi = p[0::2] - p[1::2]``.
    Since ``round(-s * x) == -round(s * x)``, these are the tap loop's bits.
    """
    if h.size == 2 and h[0] == h[1]:
        p = h[0] * x
        np.add(p[0::2], p[1::2], out=lo)
        np.subtract(p[0::2], p[1::2], out=hi)
        return
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
    Haar shares its products as in :func:`_split`: with ``a = s * lo`` and
    ``b = s * hi``, the even rows are ``a + b`` and the odd rows ``a - b``.
    """
    if h.size == 2 and h[0] == h[1]:
        a = h[0] * lo
        b = h[0] * hi
        np.add(a, b, out=out[0::2])
        np.subtract(a, b, out=out[1::2])
        return
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


def _spectral(cube: np.ndarray, D: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply ``D`` along the last axis; the result is a Fortran-ordered cube.

    On the Fortran-ordered (M*N, L) view X, ``(D @ X.T).T`` keeps that order,
    so the reshape back to (M, N, L) copies nothing. The result is fresh,
    or written into ``out``, a Fortran-ordered cube of the same shape that
    shares no memory with ``cube`` (``np.matmul`` would silently work
    through a hidden copy).
    """
    cube = np.asarray(cube, dtype=np.float64)
    X = cube.reshape((-1, cube.shape[-1]), order="F")
    if out is None:
        return (D @ X.T).T.reshape(cube.shape, order="F")
    np.matmul(D, X.T, out=out.reshape(X.shape, order="F").T)
    return out


def dct_spectral_forward(cube: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the spectral (last) axis of an (M, N, L) cube."""
    return _spectral(cube, _dct_matrix(np.shape(cube)[-1]))


def _out_cube(out: Optional[np.ndarray], source: np.ndarray) -> Optional[np.ndarray]:
    """``out`` viewed as a cube of ``source``'s shape, once it is checked usable."""
    if out is None:
        return None
    if not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.ndim == 1
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValueError("out must be a writeable, contiguous, 1-D float64 array")
    if out.size != source.size:
        raise DimensionError(f"expected {source.size} output values, got {out.size}")
    if np.shares_memory(out, source):
        raise ValueError("out must not share memory with the coefficients")
    return out.reshape(source.shape, order="F")


@dataclass(frozen=True)
class SparsifyingTransform:
    """Per-band 2D wavelet combined with a spectral DCT, as flat-vector maps.

    ``forward`` maps a vectorized cube to its coefficient vector;
    ``inverse`` is the exact transpose. The depth ``levels`` is
    :func:`default_levels` of the spatial dims, and ``subbands`` is the
    :func:`subband_map` of the coefficients at that depth. Each band's
    wavelet coefficients use the packed corner layout: the level-J
    approximation sits in the top-left (M/2^J, N/2^J) block, detail
    subbands in the other quadrants of each scale (see :class:`SubbandMap`).
    """

    rows: int
    cols: int
    bands: int
    wavelet: str = "haar"
    levels: int = field(init=False)
    subbands: SubbandMap = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_dims(self.rows, self.cols, self.bands)
        levels = default_levels(self.rows, self.cols)
        _filters(self.wavelet)  # fail fast on unknown family
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "subbands", subband_map(self.rows, self.cols, self.bands, levels))

    @property
    def n(self) -> int:
        return self.rows * self.cols * self.bands

    def _chunks(self, out: np.ndarray):
        """Each band chunk of ``out`` with a same-shaped view of one reused buffer.

        The wavelet levels run chunk by chunk, so their ping-pong buffer
        and tap temporaries stay chunk-sized while the chunk is in cache.
        """
        chunks = band_chunks(self.rows, self.cols, self.bands)
        buf = np.empty((self.rows, self.cols, chunks[0][1]), order="F")
        for a, b in chunks:
            yield out[:, :, a:b], buf[:, :, : b - a]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Coefficient vector of a vectorized cube."""
        h, g = _filters(self.wavelet)
        cube = cube_view(x, (self.rows, self.cols, self.bands), "cube values")
        out = dct_spectral_forward(cube)
        for chunk, buf in self._chunks(out):
            m, n = self.rows, self.cols
            for _ in range(self.levels):
                # rows of the block into buf, then the columns of buf back into the chunk
                _split(chunk[:m, :n], buf[: m // 2, :n], buf[m // 2 : m, :n], h, g)
                _split(
                    _cols(buf[:m, :n]), _cols(chunk[:m, : n // 2]), _cols(chunk[:m, n // 2 : n]), h, g
                )
                m //= 2
                n //= 2
        return out.reshape(-1, order="F")

    def inverse(self, theta: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Cube (flat) from a coefficient vector; exact inverse of ``forward``.

        The spectral inverse runs first: it commutes with the per-band
        wavelet and yields the array the wavelet levels then rebuild. That
        array is fresh, or ``out`` when given: a writeable, contiguous
        float64 vector of ``n`` values that shares no memory with
        ``theta``. The result is the same bits either way.
        """
        h, g = _filters(self.wavelet)
        coeffs = cube_view(theta, (self.rows, self.cols, self.bands), "coefficients")
        cube = _spectral(coeffs, _dct_matrix(self.bands).T, _out_cube(out, coeffs))
        for chunk, buf in self._chunks(cube):
            for j in range(self.levels, 0, -1):
                m, n = self.rows >> (j - 1), self.cols >> (j - 1)
                # columns of the block into buf, then the rows of buf back into the chunk
                _merge(
                    _cols(chunk[:m, : n // 2]), _cols(chunk[:m, n // 2 : n]), _cols(buf[:m, :n]), h, g
                )
                _merge(buf[: m // 2, :n], buf[m // 2 : m, :n], chunk[:m, :n], h, g)
        return cube.reshape(-1, order="F") if out is None else out


@dataclass(frozen=True)
class SubbandMap:
    """Partition of the coefficients into (spectral band, wavelet subband) groups.

    ``blocks`` holds one ``(rows, cols)`` slice pair per spatial subband, in
    subband-index order: the level-J approximation, then the three detail
    quadrants of each scale from level 1 up. Group ``l * (3J + 1) + s`` is
    block ``s`` of band ``l`` of the (M, N, L) coefficient cube ``shape``.
    The ``L * (3J + 1)`` groups tile the cube, and a group's member count
    is the area of its block.
    """

    blocks: tuple[tuple[slice, slice], ...]
    shape: tuple[int, int, int]

    @property
    def n(self) -> int:
        return self.shape[0] * self.shape[1] * self.shape[2]

    @property
    def n_groups(self) -> int:
        return len(self.blocks) * self.shape[2]

    @cached_property
    def labels(self) -> np.ndarray:
        """Group id of every flat coefficient index, built on first read.

        The solvers work on ``blocks``; only scalar reference checks need
        one id per coefficient.
        """
        per_band = len(self.blocks)
        ids = np.empty(self.shape, dtype=np.int32, order="F")
        for s, (r, c) in enumerate(self.blocks):
            ids[r, c] = s + per_band * np.arange(self.shape[2], dtype=np.int32)
        labels = ids.reshape(-1, order="F")
        labels.flags.writeable = False
        return labels


def subband_map(M: int, N: int, L: int, levels: int) -> SubbandMap:
    """The coefficient groups of an (M, N, L) transform output at ``levels`` levels."""
    check_dims(M, N, L)
    _check_dyadic(M, N, levels)
    blocks = [(slice(0, M >> levels), slice(0, N >> levels))]
    for j in range(1, levels + 1):
        mh, nh = M >> j, N >> j
        lo_r, hi_r = slice(0, mh), slice(mh, 2 * mh)
        lo_c, hi_c = slice(0, nh), slice(nh, 2 * nh)
        blocks += [(lo_r, hi_c), (hi_r, lo_c), (hi_r, hi_c)]
    return SubbandMap(tuple(blocks), (M, N, L))
