"""Adaptive Wiener shrinkage in the sparsifying-transform domain.

Each coefficient group (one spectral DCT band crossed with one wavelet
subband) gets empirical statistics (mu, nu^2) estimated from the current
noisy coefficients; every member is then shrunk toward its group mean with
gain max(0, nu^2 - sigma^2) / nu^2. The mean gain over all coefficients is
the denoiser derivative the AMP residual correction needs, so it is
returned alongside.

Statistics are recomputed from scratch on every call: the solver's noisy
coefficients change each iteration and the shrinkage must track them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cubes import band_chunks, cube_view, flat_vector
from .errors import DimensionError
from .transforms import SparsifyingTransform, SubbandMap


@dataclass(frozen=True)
class SubbandStats:
    """Per-group empirical mean and population variance."""

    mean: np.ndarray
    var: np.ndarray


def _column_totals(cols: np.ndarray) -> np.ndarray:
    """Sum of each column of ``cols``, added top to bottom.

    ``np.add.accumulate`` fixes that order, so the sums equal a scalar
    loop's bit for bit. ``np.add.reduce`` does not: NumPy picks pairwise or
    sequential summation from the array layout, and a single band turns it
    pairwise. Adding +0.0 starts each sum from +0.0, as ``np.bincount`` and
    the scalar loop do.
    """
    return np.add.accumulate(cols, axis=0)[-1] + 0.0


def estimate_stats(theta: np.ndarray, smap: SubbandMap) -> SubbandStats:
    """Empirical mean and population variance of each coefficient group.

    Population (1/|g|) normalization keeps the variance defined for
    singleton groups, which occur at the coarsest wavelet scale. Each block
    is copied a band chunk at a time, a column per group with its members
    in flat coefficient order. Each group lies in one band, so chunking
    leaves every sum's order alone. The copy is needed for every block: for
    a single-row block a reshape alone returns a view of ``theta``, which
    the in-place arithmetic would then overwrite.
    """
    cube = cube_view(theta, smap.shape, "coefficients")
    L = smap.shape[2]
    # row s, column l holds group l * (3J + 1) + s
    mean = np.empty((len(smap.blocks), L))
    var = np.empty_like(mean)
    for s, (r, c) in enumerate(smap.blocks):
        m, n = r.stop - r.start, c.stop - c.start
        for a, b in band_chunks(m, n, L):
            cols = cube[r, c, a:b].flatten(order="F").reshape(m * n, b - a, order="F")
            mean[s, a:b] = _column_totals(cols) / (m * n)
            cols -= mean[s, a:b]
            cols *= cols
            var[s, a:b] = _column_totals(cols) / (m * n)
    return SubbandStats(mean=mean.ravel(order="F"), var=var.ravel(order="F"))


def _group_gains(stats: SubbandStats, sigma2: float) -> np.ndarray:
    """Shrinkage gain per group: max(0, nu^2 - sigma^2) / nu^2, 0 when nu^2 = 0."""
    if not (sigma2 >= 0.0):
        raise ValueError(f"noise variance must be nonnegative, got {sigma2}")
    gains = np.zeros_like(stats.var)
    pos = stats.var > 0.0
    gains[pos] = np.maximum(0.0, stats.var[pos] - sigma2) / stats.var[pos]
    return gains


def _shrink(stats: SubbandStats, sigma2: float, smap: SubbandMap, theta: np.ndarray) -> float:
    """Shrink ``theta`` in place; returns the mean per-coefficient gain.

    The cube is walked a band chunk at a time. Each group's gain and mean
    are filled into its block of two reused chunk-sized buffers, and the
    chunk of ``theta`` is shrunk in place (``-= mean; *= gain; += mean``).
    Slot 0 of the gain buffer carries the running sum from chunk to chunk,
    so the in-place ``np.add.accumulate`` adds left to right over the whole
    flat vector, as one accumulate from +0.0 would. The denoiser and the two
    public functions below run this same arithmetic, and the same check that
    ``stats`` holds one mean and one variance per group of ``smap``.
    """
    if not (stats.mean.size == stats.var.size == smap.n_groups):
        raise DimensionError(
            f"statistics of {stats.mean.size} means and {stats.var.size} variances "
            f"do not fit a map of {smap.n_groups} groups"
        )
    M, N, L = smap.shape
    gains = _group_gains(stats, sigma2).reshape(-1, L, order="F")
    means = stats.mean.reshape(-1, L, order="F")
    cube = cube_view(theta, smap.shape, "coefficients")
    chunks = band_chunks(M, N, L)
    width = chunks[0][1]
    total = np.empty(1 + M * N * width)
    total[0] = 0.0
    mu_buf = np.empty((M, N, width), order="F")
    for a, b in chunks:
        size = M * N * (b - a)
        gain = total[1 : 1 + size].reshape((M, N, b - a), order="F")
        mu = mu_buf[:, :, : b - a]
        for s, rc in enumerate(smap.blocks):
            gain[rc] = gains[s, a:b]
            mu[rc] = means[s, a:b]
        chunk = cube[:, :, a:b]
        chunk -= mu
        chunk *= gain
        chunk += mu
        np.add.accumulate(total[: 1 + size], out=total[: 1 + size])
        total[0] = total[size]
    return float(total[0]) / smap.n


def wiener_shrink(
    theta: np.ndarray, stats: SubbandStats, sigma2: float, smap: SubbandMap
) -> np.ndarray:
    """Shrink each coefficient toward its group mean by the group's gain.

    A group whose variance does not exceed the noise variance collapses to
    its mean (gain 0); with sigma2 = 0 every gain is 1.
    """
    out = flat_vector(theta, smap.n, "coefficients").copy()
    _shrink(stats, sigma2, smap, out)
    return out


def shrink_derivative_mean(stats: SubbandStats, sigma2: float, smap: SubbandMap) -> float:
    """Average shrinkage gain over all coefficients; always in [0, 1].

    This equals the mean derivative of the shrinkage map and feeds the AMP
    residual correction term; the shrink runs on a zero cube to compute it.
    """
    return _shrink(stats, sigma2, smap, np.zeros(smap.n))


def denoise_cube(
    q: np.ndarray,
    sigma2: float,
    transform: SparsifyingTransform,
    out: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, float]:
    """Denoise a vectorized cube; returns (estimate, mean shrinkage gain).

    Psi, the shrink and Psi^T all run in one buffer: ``transform.forward``
    writes the coefficients into a fresh array, or over ``q`` when ``out``
    is ``q`` itself (AMP's call, which saves a cube), the shrink works on
    them in place and ``transform.inverse`` writes the estimate back over
    them. ``out`` follows the terms of ``SparsifyingTransform.forward``;
    without it ``q`` is left alone.
    """
    smap = transform.subbands
    theta = transform.forward(q, out=out)
    stats = estimate_stats(theta, smap)
    deriv = _shrink(stats, sigma2, smap, theta)
    return transform.inverse(theta, out=theta), deriv
