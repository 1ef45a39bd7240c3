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

from .cubes import band_chunks, check_dims, cube_view, in_place
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
#: The family of AmpConfig, SparsifyingTransform and ``--wavelet`` when none is named.
DEFAULT_WAVELET = "haar"


def default_levels(M: int, N: int) -> int:
    """Decomposition depth of an (M, N) transform.

    Two levels short of log2 of the smaller side (at least 1), clamped to
    the number of times both sides halve evenly: 1 at 8x8, 3 at 32x32, 5 at
    128x128. The depth is not a quality lever. A sweep with AMP (alpha 0.5,
    150 iterations, seeds 0/1, Haar and db4) put this depth at the best or
    within 0.24 dB of it at 32x32x16 and within 0.05 dB at 128x128x8; at
    64x64x16 depths 3 to 5 lay within 0.35 dB of each other.
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


def _split(x: np.ndarray, scratch: np.ndarray, h: np.ndarray, g: np.ndarray) -> None:
    """One periodized filter-bank split along axis 0, low band over the first half of ``x``.

    Output i accumulates its taps in order from zero, as the gather form
    ``x[(2i + t) % n]`` does. Tap t is the one slice ``ext[t : t + n : 2]``
    of a periodic extension of ``x`` in ``scratch``, which has ``h.size - 2``
    more rows: row r >= n repeats row r - n, filled in increasing r, so a
    block shorter than the filter wraps as often as it needs.

    Haar (``h == (s, s)``, so ``g == (s, -s)``) shares its products: with
    ``p = s * x`` in ``scratch``, ``lo = p[0::2] + p[1::2]`` and ``hi = p[0::2] - p[1::2]``:
    4 half-block passes where the tap loop makes 6 (:func:`_merge`: 4 where
    it makes 8). Since ``round(-s * x) == -round(s * x)``, these are the
    tap loop's bits.
    """
    n = x.shape[0]
    half = n // 2
    lo, hi = x[:half], x[half:]
    if h.size == 2 and h[0] == h[1]:
        p = np.multiply(x, h[0], out=scratch)
        np.add(p[0::2], p[1::2], out=lo)
        np.subtract(p[0::2], p[1::2], out=hi)
        return
    ext = scratch
    np.copyto(ext[:n], x)
    for r in range(n, ext.shape[0]):
        ext[r] = ext[r - n]
    np.multiply(ext[0:n:2], h[0], out=lo)
    np.multiply(ext[0:n:2], g[0], out=hi)
    for t in range(1, h.size):
        tap = ext[t : t + n : 2]
        lo += h[t] * tap
        hi += g[t] * tap


def _merge(out: np.ndarray, scratch: np.ndarray, h: np.ndarray, g: np.ndarray) -> None:
    """Transpose of :func:`_split`: rebuild ``out`` from ``lo`` and ``hi``, its two halves.

    Tap t reads the one slice ``a[k - t // 2 :][:half]`` of ``a = scratch[..., 0]``,
    ``lo`` after ``k = h.size / 2 - 1`` wrap rows (row r < k repeats row r + half,
    filled from k - 1 down), and likewise ``b`` for ``hi``. Taps 0 and 1 write
    every even and odd row once; later taps add in order. Haar shares its
    products as in :func:`_split`: with ``a = s * lo`` and ``b = s * hi``,
    the even rows are ``a + b`` and the odd rows ``a - b``.
    """
    half = out.shape[0] // 2
    a, b = scratch[..., 0], scratch[..., 1]
    if h.size == 2 and h[0] == h[1]:
        np.multiply(out[:half], h[0], out=a)
        np.multiply(out[half:], h[0], out=b)
        np.add(a, b, out=out[0::2])
        np.subtract(a, b, out=out[1::2])
        return
    k = h.size // 2 - 1
    np.copyto(a[k:], out[:half])
    np.copyto(b[k:], out[half:])
    for r in range(k - 1, -1, -1):
        a[r] = a[r + half]
        b[r] = b[r + half]
    for t in range(h.size):
        rows = out[t % 2 :: 2]
        tap = h[t] * a[k - t // 2 :][:half] + g[t] * b[k - t // 2 :][:half]
        if t < 2:
            rows[...] = tap
        else:
            rows += tap
        del tap  # freed before the next tap's products


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
    """Apply ``D`` along the last axis of a Fortran-ordered float64 ``cube``, over it.

    The (M*N, L) view X of ``cube`` is worked a pixel block at a time: the
    block's columns of ``X.T`` are copied into one reused (L, width)
    buffer, so the block is read whole before its pixels are written, and
    one GEMM, ``D @ buffer``, writes them back through ``X.T``; no reshape
    copies (``X @ D.T`` returns C order, and that copy costs what the
    product saves). Returns ``cube``.

    A block is a multiple of 64 pixels wide, at most 2^18 / L^2 and at least
    64 (448 at 24 bands), so for L <= 64 no GEMM exceeds 2^18 multiply-adds,
    which OpenBLAS runs on one thread. On its default, Nehalem, Sandybridge
    and Zen kernels the bits then follow neither the thread count nor the
    block width (NumPy 2.4, OpenBLAS 0.3.31); another BLAS may thread, and
    round, at other sizes. Wider blocks (5,440 pixels at 24 bands) are
    threaded, and under Nehalem their last bits follow the thread count.
    """
    X = cube.reshape((-1, cube.shape[-1]), order="F")
    pixels, bands = X.shape
    width = max(64, (1 << 18) // (bands * bands) // 64 * 64)
    buf = np.empty((bands, min(width, pixels)))
    for a in range(0, pixels, width):
        block = buf[:, : min(width, pixels - a)]
        np.copyto(block, X[a : a + width].T)
        np.matmul(D, block, out=X[a : a + width].T)
    return cube


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
    wavelet: str = DEFAULT_WAVELET
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

    def _blocks(self, out: np.ndarray, levels: range, pad: int):
        """Each band chunk's ``(M >> j, N >> j)`` block for j in ``levels``, with one flat buffer.

        The levels run chunk by chunk, each split or merge over its own
        block, and the buffer, a chunk with ``pad`` more rows or columns,
        holds the periodic extension the taps read. No Haar split or merge
        allocates, so in-place Psi or Psi^T makes about 1.2 MiB of scratch at
        128x128x24; db4's per-tap products bring it to about 1.7 (Psi) and
        2.1 (Psi^T) :data:`.cubes.CHUNK_BYTES`.
        """
        chunks = band_chunks(self.rows, self.cols, self.bands)
        buf = np.empty((self.rows * self.cols + pad * max(self.rows, self.cols)) * chunks[0][1])
        for a, b in chunks:
            for j in levels:
                yield out[: self.rows >> j, : self.cols >> j, a:b], buf

    def forward(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Coefficient vector of a vectorized cube.

        The coefficients are written over ``x`` when ``out`` is ``x``
        itself, a writeable, contiguous, 1-D float64 vector, and over a
        fresh copy of ``x`` without ``out``. The result is the same bits
        either way.
        """
        h, g = _filters(self.wavelet)
        cube = cube_view(x, (self.rows, self.cols, self.bands), "cube values")
        if not in_place(out, x):
            cube = cube.copy(order="F")
        coeffs = _spectral(cube, _dct_matrix(self.bands))
        p = h.size - 2
        for block, buf in self._blocks(coeffs, range(self.levels), p):
            # the rows of the block, then its columns, each split over the block
            m, n, c = block.shape
            _split(block, np.ndarray((m + p, n, c), buffer=buf, order="F"), h, g)
            _split(_cols(block), _cols(np.ndarray((m, n + p, c), buffer=buf, order="F")), h, g)
        return coeffs.reshape(-1, order="F") if out is None else out

    def inverse(self, theta: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Cube (flat) from a coefficient vector; exact inverse of ``forward``.

        The spectral inverse runs first: it commutes with the per-band
        wavelet and writes the array the wavelet levels then rebuild over
        ``theta`` or a copy of it, on the terms of ``forward``. The result
        is the same bits either way.
        """
        h, g = _filters(self.wavelet)
        coeffs = cube_view(theta, (self.rows, self.cols, self.bands), "coefficients")
        if not in_place(out, theta):
            coeffs = coeffs.copy(order="F")
        cube = _spectral(coeffs, _dct_matrix(self.bands).T)
        k = h.size // 2 - 1
        for block, buf in self._blocks(cube, range(self.levels - 1, -1, -1), 2 * k):
            # the columns of the block, then its rows, each merged over the
            # block from its two halves, one after the other in buf
            m, n, c = block.shape
            cols = np.ndarray((m, n // 2 + k, c, 2), buffer=buf, order="F")
            _merge(_cols(block), _cols(cols), h, g)
            _merge(block, np.ndarray((m // 2 + k, n, c, 2), buffer=buf, order="F"), h, g)
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
