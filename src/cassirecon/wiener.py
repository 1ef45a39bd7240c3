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

from .cubes import cube_view, flat_vector
from .transforms import SparsifyingTransform, SubbandMap


@dataclass(frozen=True)
class SubbandStats:
    """Per-group empirical mean, population variance and member count."""

    mean: np.ndarray
    var: np.ndarray
    count: np.ndarray


def _same_shape_blocks(smap: SubbandMap) -> dict[tuple[int, int], list[int]]:
    """Indices of ``smap.blocks`` keyed by block shape, in first-seen order.

    The blocks of one shape (the three details of a scale, plus the
    approximation at the coarsest) share one buffer, so the statistics'
    arithmetic runs once per scale rather than once per block.
    """
    classes: dict = {}
    for s, (r, c) in enumerate(smap.blocks):
        classes.setdefault((r.stop - r.start, c.stop - c.start), []).append(s)
    return classes


def _column_totals(cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum of each column of ``cols``, added top to bottom; ``out`` is scratch.

    ``np.add.accumulate`` fixes that order, so the sums equal a scalar
    loop's bit for bit. ``np.add.reduce`` does not: NumPy picks pairwise or
    sequential summation from the array layout, and a single band turns it
    pairwise. Adding +0.0 starts each sum from +0.0, as ``np.bincount`` and
    the scalar loop do.
    """
    np.add.accumulate(cols, axis=0, out=out)
    return out[-1] + 0.0


def estimate_stats(theta: np.ndarray, smap: SubbandMap) -> SubbandStats:
    """Empirical mean and population variance of each coefficient group.

    Population (1/|g|) normalization keeps the variance defined for
    singleton groups, which occur at the coarsest wavelet scale. The blocks
    of one shape are copied into one buffer, a column per group with its
    members in flat coefficient order.
    """
    cube = cube_view(theta, smap.shape, "coefficients")
    L = smap.shape[2]
    # row s, column l holds group l * (3J + 1) + s
    mean = np.empty((len(smap.blocks), L))
    var = np.empty_like(mean)
    for (m, n), ids in _same_shape_blocks(smap).items():
        k = len(ids)
        work = np.empty((m, n, k, L), order="F")
        for q, s in enumerate(ids):
            work[:, :, q] = cube[smap.blocks[s]]
        cols = work.reshape(m * n, k * L, order="F")  # a view of work
        scratch = np.empty_like(cols)
        block_mean = (_column_totals(cols, scratch) / (m * n)).reshape(k, L, order="F")
        work -= block_mean
        work *= work
        var[ids] = (_column_totals(cols, scratch) / (m * n)).reshape(k, L, order="F")
        mean[ids] = block_mean
    return SubbandStats(mean=mean.ravel(order="F"), var=var.ravel(order="F"), count=smap.sizes)


def _group_gains(stats: SubbandStats, sigma2: float) -> np.ndarray:
    """Shrinkage gain per group: max(0, nu^2 - sigma^2) / nu^2, 0 when nu^2 = 0."""
    if sigma2 < 0.0:
        raise ValueError(f"noise variance must be nonnegative, got {sigma2}")
    gains = np.zeros_like(stats.var)
    pos = stats.var > 0.0
    gains[pos] = np.maximum(0.0, stats.var[pos] - sigma2) / stats.var[pos]
    return gains


def _fill(values: np.ndarray, smap: SubbandMap) -> np.ndarray:
    """Flat coefficient vector holding each group's entry of ``values`` in its block."""
    per_block = values.reshape(-1, smap.shape[2], order="F")
    cube = np.empty(smap.shape, order="F")
    for s, rc in enumerate(smap.blocks):
        cube[rc] = per_block[s]
    return cube.reshape(-1, order="F")


def _shrink(
    stats: SubbandStats, sigma2: float, smap: SubbandMap, theta: Optional[np.ndarray] = None
) -> float:
    """Mean per-coefficient gain; also shrinks ``theta`` in place when given.

    The group gains are filled into their blocks once and serve both the
    shrinkage and its derivative, so the denoiser and the two public
    functions below run the same arithmetic.
    """
    gains = _fill(_group_gains(stats, sigma2), smap)
    if theta is not None:
        mu = _fill(stats.mean, smap)
        theta -= mu
        theta *= gains
        theta += mu
    # accumulate fixes a left-to-right order, identical to a scalar loop
    np.add.accumulate(gains, out=gains)
    return float(gains[-1]) / gains.size


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
    residual correction term.
    """
    return _shrink(stats, sigma2, smap)


def denoise_cube(
    q: np.ndarray,
    sigma2: float,
    transform: SparsifyingTransform,
    smap: SubbandMap,
) -> tuple[np.ndarray, float]:
    """Denoise a vectorized cube; returns (estimate, mean shrinkage gain).

    The coefficients are shrunk in place: ``transform.forward`` returns a
    fresh array.
    """
    theta = transform.forward(q)
    stats = estimate_stats(theta, smap)
    deriv = _shrink(stats, sigma2, smap, theta)
    return transform.inverse(theta), deriv
