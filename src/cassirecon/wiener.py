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

from .cubes import flat_vector
from .transforms import SparsifyingTransform, SubbandMap


@dataclass(frozen=True)
class SubbandStats:
    """Per-group empirical mean, population variance and member count."""

    mean: np.ndarray
    var: np.ndarray
    count: np.ndarray


def estimate_stats(theta: np.ndarray, smap: SubbandMap) -> SubbandStats:
    """Empirical mean and population variance of each coefficient group.

    Population (1/|g|) normalization keeps the variance defined for
    singleton groups, which occur at the coarsest wavelet scale.
    """
    theta = flat_vector(theta, smap.labels.size, "coefficients")
    counts = smap.sizes
    sums = np.bincount(smap.labels, weights=theta, minlength=smap.n_groups)
    mean = sums / counts
    dev = theta - mean[smap.labels]
    var = np.bincount(smap.labels, weights=dev * dev, minlength=smap.n_groups) / counts
    return SubbandStats(mean=mean, var=var, count=counts)


def _group_gains(stats: SubbandStats, sigma2: float) -> np.ndarray:
    """Shrinkage gain per group: max(0, nu^2 - sigma^2) / nu^2, 0 when nu^2 = 0."""
    if sigma2 < 0.0:
        raise ValueError(f"noise variance must be nonnegative, got {sigma2}")
    gains = np.zeros_like(stats.var)
    pos = stats.var > 0.0
    gains[pos] = np.maximum(0.0, stats.var[pos] - sigma2) / stats.var[pos]
    return gains


def _shrink(
    stats: SubbandStats, sigma2: float, smap: SubbandMap, theta: Optional[np.ndarray] = None
) -> float:
    """Mean per-coefficient gain; also shrinks ``theta`` in place when given.

    The group gains are gathered through ``labels`` once and serve both the
    shrinkage and its derivative, so the denoiser and the two public
    functions below run the same arithmetic.
    """
    gains = _group_gains(stats, sigma2)[smap.labels]
    if theta is not None:
        mu = stats.mean[smap.labels]
        theta -= mu
        theta *= gains
        theta += mu
    # cumsum fixes a left-to-right accumulation order, reproducible across
    # backends and identical to a scalar reference loop
    return float(np.cumsum(gains)[-1]) / gains.size


def wiener_shrink(
    theta: np.ndarray, stats: SubbandStats, sigma2: float, smap: SubbandMap
) -> np.ndarray:
    """Shrink each coefficient toward its group mean by the group's gain.

    A group whose variance does not exceed the noise variance collapses to
    its mean (gain 0); with sigma2 = 0 every gain is 1.
    """
    out = flat_vector(theta, smap.labels.size, "coefficients").copy()
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
