"""Proximal-gradient baseline: min over f of 0.5*||g - H f||^2 + lam*||Psi f||_1.

An accelerated (FISTA-style) solver with a monotone safeguard: whenever the
accelerated candidate would increase the objective, the previous iterate is
kept and the momentum sequence continues from it, so the recorded objective
is nonincreasing. Because Psi is orthonormal, the prox of lam*||Psi . ||_1
is exactly Psi^T o soft_threshold o Psi.

The loop builds few cube-sized temporaries. The gradient step
y - step*grad is formed in place in the adjoint's output, and the momentum
point follows the safeguard's branch: z + b*(z - x) when the candidate is
accepted, x + a*(z - x) when it is rejected, the term of the general
formula that is exactly zero left out. The trace's residual norm is the
square root of the objective's own sum of squares, as NumPy's ``norm`` is.

At most three cubes are live: the kept iterate x and two buffers. The
momentum point y and its H y are dropped once the gradient step v has
read them, and Psi writes its output c over v, which it alone reads.
Psi^T writes the candidate z over the thresholded coefficients s, and
the next momentum point z - x goes into c, once |s| has been summed
there. Each iteration allocates two cubes (v, s), and a rejected
candidate and its residual are freed before the next adjoint allocates.
A warm ``fista_run`` at 64x512x22, K=2 peaks at 3.47 cubes above its
start under ``tracemalloc``.

The regularization weight is a user decision; ``sweep_lambda`` runs a
caller-supplied grid. This is a generic l1 solver for benchmarking, not a
reimplementation of any specific packaged algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .amp import DEFAULT_MAX_ITER
from .cubes import check_float32_range, check_max_iter, flat_vector
from .errors import DimensionError
# avg_psnr stays importable here: perfbench/tracer.py wraps it by this name
from .metrics import Trace, avg_psnr  # noqa: F401
from .operator import CassiModel, adjoint_apply, forward_apply, operator_norm_squared
from .transforms import SparsifyingTransform


@dataclass(frozen=True)
class L1Config:
    """Baseline settings; ``step=None`` selects 1/||H||^2.

    The default step comes from :func:`.operator.operator_norm_squared`, a
    per-row power iteration on the row blocks of H H^T.
    """

    lam: float
    max_iter: int = DEFAULT_MAX_ITER
    step: Optional[float] = None

    def __post_init__(self):
        # lam = 0 degenerates to plain least squares, occasionally useful
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(
                f"regularization weight must be finite and nonnegative, got {self.lam}"
            )
        check_max_iter(self.max_iter)
        if self.step is not None and not (np.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step size must be finite and positive, got {self.step}")


def soft_threshold(theta: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise sign(x) * max(|x| - tau, 0); ``theta`` is not modified.

    Built in one temporary: the magnitude is shrunk in place and takes the
    sign of ``theta`` back with ``copysign``, so ``-0.0`` maps to ``-0.0``.
    """
    if tau < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    theta = np.asarray(theta, dtype=np.float64)
    out = np.abs(theta)
    out -= tau
    np.maximum(out, 0.0, out=out)
    return np.copysign(out, theta, out=out)


def _lipschitz_step(model: CassiModel) -> float:
    """The gradient step 1/||H||^2 that keeps the iteration stable."""
    lip = operator_norm_squared(model)
    if lip <= 0.0:
        raise ValueError("operator norm estimate is zero; cannot pick a step size")
    return 1.0 / lip


def fista_run(
    g: np.ndarray,
    model: CassiModel,
    transform: SparsifyingTransform,
    config: L1Config,
    truth: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, Trace]:
    """Solve the l1-regularized least-squares problem; returns (estimate, trace).

    Each trace row holds ``objective``, ``residual_norm``, then ``psnr``
    when ``truth`` (a vectorized reference cube) is given, and ``wall_ms``.
    """
    g = flat_vector(g, model.m, "measurements")
    shape = (model.rows, model.cols, model.bands)
    trace = Trace.for_solver(truth, shape, "objective", "residual_norm")
    t_shape = (transform.rows, transform.cols, transform.bands)
    if t_shape != shape:
        raise DimensionError(f"transform shape {t_shape} differs from the model's {shape}")
    step = config.step if config.step is not None else _lipschitz_step(model)

    # H x and H y are carried by linearity, so each iteration applies H,
    # H^T, Psi and Psi^T once; x = 0 gives H x = 0, so ||g - H x||^2 = g.g
    x = np.zeros(model.n)
    y = x
    hx = np.zeros(model.m)
    hy = hx
    rx2 = float(g @ g)
    fx = 0.5 * rx2
    t_mom = 1.0
    for it in range(1, config.max_iter + 1):
        start = time.perf_counter()
        # may overflow to inf near divergence; the monotone safeguard copes
        with np.errstate(over="ignore", invalid="ignore"):
            # y - step * grad, formed in the adjoint's fresh output
            v = adjoint_apply(model, hy - g)
            v *= -step
            v += y
            # y and H y are dead once the gradient step has read them
            del y, hy
            # Psi writes c over v, which it alone reads
            c = transform.forward(v, out=v)
            del v
            s = soft_threshold(c, step * config.lam)
            # c is dead: |s| goes into it for the l1 term, then the next
            # momentum point; Psi^T writes z over s
            l1 = float(np.abs(s, out=c).sum())
            z = transform.inverse(s, out=s)
            check_float32_range(z, "iterate", it, trace)
            hz = forward_apply(model, z)
            resid_z = g - hz
            rz2 = float(resid_z @ resid_z)
            # Psi is orthonormal, so ||Psi z||_1 = ||s||_1 up to rounding
            fz = 0.5 * rz2 + config.lam * l1
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            a, b = t_mom / t_next, (t_mom - 1.0) / t_next
            # monotone safeguard: never accept an objective increase. The
            # momentum point x' + a*(z - x') + b*(x' - x), with x' the kept
            # iterate, then loses its zero term: z + b*(z - x), or x + a*(z - x)
            y = np.subtract(z, x, out=c)
            hy = hz - hx
            if fz <= fx:
                x, hx, rx2, fx = z, hz, rz2, fz
                y *= b
                hy *= b
            else:
                y *= a
                hy *= a
            y += x
            hy += hx
            # a rejected candidate and the residual are freed before the next
            # adjoint allocates
            del c, s, z, hz, resid_z
        t_mom = t_next
        trace.append_iteration(start, x, objective=fx, residual_norm=float(np.sqrt(rx2)))
    return x, trace


def sweep_lambda(
    g: np.ndarray,
    model: CassiModel,
    transform: SparsifyingTransform,
    lambdas: list[float],
    max_iter: int = DEFAULT_MAX_ITER,
    truth: Optional[np.ndarray] = None,
) -> list[tuple[float, np.ndarray, Trace]]:
    """Run the baseline once per regularization weight in ``lambdas``.

    Every weight is checked before any work starts; the step size is then
    estimated once and shared across the sweep.
    """
    configs = [L1Config(lam=lam, max_iter=max_iter) for lam in lambdas]
    step = _lipschitz_step(model)
    results = []
    for config in configs:
        f_hat, trace = fista_run(g, model, transform, replace(config, step=step), truth=truth)
        results.append((config.lam, f_hat, trace))
    return results
