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
from typing import Callable, Optional

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
    """Elementwise sign(x) * max(|x| - tau, 0)."""
    if tau < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    theta = np.asarray(theta, dtype=np.float64)
    return np.sign(theta) * np.maximum(np.abs(theta) - tau, 0.0)


def power_method(
    forward: Callable[[np.ndarray], np.ndarray],
    adjoint: Callable[[np.ndarray], np.ndarray],
    n: int,
    iters: int = 50,
    seed: int = 0,
) -> float:
    """Largest eigenvalue of A^T A (= ||A||^2) by power iteration.

    The returned Rayleigh quotient is nondecreasing in ``iters`` because
    A^T A is positive semidefinite.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = adjoint(forward(v))
        est = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
    return est


def operator_norm_squared(model: CassiModel, iters: int = 50, seed: int = 0) -> float:
    """||H||^2 for a measurement model, via :func:`power_method`."""
    return power_method(
        lambda x: forward_apply(model, x),
        lambda y: adjoint_apply(model, y),
        model.n,
        iters=iters,
        seed=seed,
    )


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

    def objective(f: np.ndarray) -> float:
        # may overflow to inf near divergence; the monotone safeguard copes
        with np.errstate(over="ignore", invalid="ignore"):
            resid = g - forward_apply(model, f)
            return 0.5 * float(resid @ resid) + config.lam * float(
                np.abs(transform.forward(f)).sum()
            )

    def prox(v: np.ndarray, tau: float) -> np.ndarray:
        return transform.inverse(soft_threshold(transform.forward(v), tau))

    x = np.zeros(model.n)
    y = x.copy()
    t_mom = 1.0
    fx = objective(x)
    trace = Trace.for_solver(ref, "objective", "residual_norm")
    for it in range(1, config.max_iter + 1):
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            grad = adjoint_apply(model, forward_apply(model, y) - g)
            z = prox(y - step * grad, step * config.lam)
        check_finite(z, "iterate", it, trace)
        fz = objective(z)
        # monotone safeguard: never accept an objective increase
        if fz <= fx:
            x_new, fx_new = z, fz
        else:
            x_new, fx_new = x, fx
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y = x_new + (t_mom / t_next) * (z - x_new) + ((t_mom - 1.0) / t_next) * (
            x_new - x
        )
        x, fx, t_mom = x_new, fx_new, t_next
        resid = g - forward_apply(model, x)
        trace.append_iteration(
            start, x, ref, objective=fx, residual_norm=float(np.linalg.norm(resid))
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
