"""Proximal-gradient baseline: min over f of 0.5*||g - H f||^2 + lam*||Psi f||_1.

An accelerated (FISTA-style) solver with a monotone safeguard: whenever the
accelerated candidate would increase the objective, the previous iterate is
kept and the momentum sequence continues from it, so the recorded objective
is nonincreasing. Because Psi is orthonormal, the prox of lam*||Psi . ||_1
is exactly Psi^T o soft_threshold o Psi.

The regularization weight is a user decision; ``sweep_lambda`` runs a
caller-supplied grid. This is a generic l1 solver for benchmarking, not a
reimplementation of any specific packaged algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cubes import flat_vector
from .errors import check_finite
# avg_psnr stays importable here: perfbench/tracer.py wraps it by this name
from .metrics import Trace, avg_psnr, reference_cube  # noqa: F401
from .operator import CassiModel, adjoint_apply, forward_apply
from .transforms import SparsifyingTransform


@dataclass(frozen=True)
class L1Config:
    """Baseline settings; ``step=None`` selects 1/||H||^2 via the power method."""

    lam: float
    max_iter: int = 400
    step: Optional[float] = None

    def __post_init__(self):
        # lam = 0 degenerates to plain least squares, occasionally useful
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(
                f"regularization weight must be finite and nonnegative, got {self.lam}"
            )
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
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


def operator_norm_squared(model: CassiModel, iters: int = 50, seed: int = 0) -> float:
    """||H||^2, the largest eigenvalue of H^T H, by power iteration.

    The returned Rayleigh quotient is nondecreasing in ``iters`` because
    H^T H is positive semidefinite.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(model.n)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = adjoint_apply(model, forward_apply(model, v))
        est = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
    return est


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
    step = config.step if config.step is not None else _lipschitz_step(model)
    ref = reference_cube(truth, (model.rows, model.cols, model.bands))

    # H x and H y are carried by linearity, so each iteration applies H,
    # H^T, Psi and Psi^T once; x = 0 gives H x = 0 and the objective 0.5*g.g
    x = np.zeros(model.n)
    y = x
    hx = np.zeros(model.m)
    hy = hx
    resid_x = g
    fx = 0.5 * float(g @ g)
    t_mom = 1.0
    trace = Trace.for_solver(ref, "objective", "residual_norm")
    for it in range(1, config.max_iter + 1):
        start = time.perf_counter()
        # may overflow to inf near divergence; the monotone safeguard copes
        with np.errstate(over="ignore", invalid="ignore"):
            grad = adjoint_apply(model, hy - g)
            s = soft_threshold(transform.forward(y - step * grad), step * config.lam)
            z = transform.inverse(s)
            check_finite(z, "iterate", it, trace)
            hz = forward_apply(model, z)
            resid_z = g - hz
            # Psi is orthonormal, so ||Psi z||_1 = ||s||_1 up to rounding
            fz = 0.5 * float(resid_z @ resid_z) + config.lam * float(np.abs(s).sum())
            # monotone safeguard: never accept an objective increase
            if fz <= fx:
                x_new, hx_new, resid_new, fx_new = z, hz, resid_z, fz
            else:
                x_new, hx_new, resid_new, fx_new = x, hx, resid_x, fx
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            a, b = t_mom / t_next, (t_mom - 1.0) / t_next
            y = x_new + a * (z - x_new) + b * (x_new - x)
            hy = hx_new + a * (hz - hx_new) + b * (hx_new - hx)
        x, hx, resid_x, fx, t_mom = x_new, hx_new, resid_new, fx_new, t_next
        trace.append_iteration(
            start, x, ref, objective=fx, residual_norm=float(np.linalg.norm(resid_x))
        )
    return x, trace


def sweep_lambda(
    g: np.ndarray,
    model: CassiModel,
    transform: SparsifyingTransform,
    lambdas: list[float],
    max_iter: int = 400,
    truth: Optional[np.ndarray] = None,
) -> list[tuple[float, np.ndarray, Trace]]:
    """Run the baseline once per regularization weight in ``lambdas``.

    The step size is estimated once and shared across the sweep.
    """
    step = _lipschitz_step(model)
    results = []
    for lam in lambdas:
        config = L1Config(lam=lam, max_iter=max_iter, step=step)
        f_hat, trace = fista_run(g, model, transform, config, truth=truth)
        results.append((lam, f_hat, trace))
    return results
