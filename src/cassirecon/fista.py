"""Proximal-gradient baseline: min over f of 0.5*||g - H f||^2 + lam*||Psi f||_1.

An accelerated (FISTA-style) solver with a monotone safeguard: whenever the
accelerated candidate would increase the objective, the previous iterate is
kept and the momentum sequence continues from it, so the recorded objective
is nonincreasing. Because Psi is orthonormal, the prox of lam*||Psi . ||_1
is exactly Psi^T o soft_threshold o Psi.

The loop holds two cubes between iterations, the kept iterate x and the
momentum point y, and every step writes over one of them. The adjoint
adds the gradient step -step * H^T(H y - g) into y, which becomes v; Psi
writes its coefficients c over v, the soft threshold writes s over c,
and Psi^T writes the candidate z over s. The momentum point then goes
over the dead cube: z + b*(z - x) over the old x when the candidate is
accepted, x + a*(z - x) over z when it is rejected, the term of the
general formula that is exactly zero left out: that saves cube passes and
temporaries, not arithmetic. The l1 term adds the sums of |s| over
:func:`.cubes.row_chunks` in order, so no cube-sized |s| is made; up to
one row chunk (131,072 values) that is the one sum of |s|, and above it
the last bits can differ. The objective's sum of squares, carried with the
kept iterate, is AMP's pairwise :func:`.cubes.sum_of_squares`, not a BLAS
dot, whose bits follow the thread count; its square root is the trace's
residual norm, so no pass over the residual is added. Each layer keeps at
most one chunk of scratch, so a warm ``fista_run`` at 128x128x24, K=2
peaks at 2.50 cubes above its start under ``tracemalloc``.

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
from .cubes import (
    check_float32_range, check_max_iter, flat_vector, in_place, row_chunks, sum_of_squares,
)
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


def soft_threshold(theta: np.ndarray, tau: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise sign(x) * max(|x| - tau, 0), fresh or written over ``theta``.

    The result is a fresh copy of ``theta``, or ``theta`` itself when
    ``out`` is ``theta``, a writeable, contiguous, 1-D float64 vector; any
    other ``out`` raises ``ValueError``. It is shrunk a
    :func:`.cubes.row_chunks` chunk at a time: the magnitude in one
    chunk-sized temporary, which takes the sign back with ``copysign``, so
    ``-0.0`` maps to ``-0.0``. Both forms give the same bits.
    """
    if not (tau >= 0.0):
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    if not in_place(out, theta):
        theta = np.array(theta, dtype=np.float64)
    for chunk in row_chunks(theta):
        shrunk = np.abs(chunk)
        shrunk -= tau
        np.maximum(shrunk, 0.0, out=shrunk)
        np.copysign(shrunk, chunk, out=chunk)
        del shrunk  # freed before the next chunk's magnitude is made
    return theta


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
    # H^T, Psi and Psi^T once; x = 0 gives H x = 0, so ||g - H x||^2 = ||g||^2
    x = np.zeros(model.n)
    y = np.zeros(model.n)
    hx = np.zeros(model.m)
    hy = np.zeros(model.m)
    rx2 = sum_of_squares(g)
    fx = 0.5 * rx2
    t_mom = 1.0
    for it in range(1, config.max_iter + 1):
        start = time.perf_counter()
        # may overflow to inf near divergence; the monotone safeguard copes
        with np.errstate(over="ignore", invalid="ignore"):
            # y - step * grad, added by the adjoint into y; H y - g is formed
            # over H y, which is then dead. Each later step writes over the
            # cube it reads
            v = adjoint_apply(model, np.subtract(hy, g, out=hy), out=y, scale=-step)
            del hy
            c = transform.forward(v, out=v)
            s = soft_threshold(c, step * config.lam, out=c)
            l1 = 0.0
            for chunk in row_chunks(s):
                l1 += float(np.abs(chunk).sum())
            z = transform.inverse(s, out=s)
            check_float32_range(z, "iterate", it, trace)
            hz = forward_apply(model, z)
            resid_z = g - hz
            rz2 = sum_of_squares(resid_z)
            del resid_z
            # Psi is orthonormal, so ||Psi z||_1 = ||s||_1 up to rounding
            fz = 0.5 * rz2 + config.lam * l1
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            a, b = t_mom / t_next, (t_mom - 1.0) / t_next
            # monotone safeguard: never accept an objective increase. The
            # momentum point x' + a*(z - x') + b*(x' - x), with x' the kept
            # iterate, then loses its zero term: z + b*(z - x) over the old
            # x, or x + a*(z - x) over the rejected z
            accept = fz <= fx
            y = np.subtract(z, x, out=x if accept else z)
            hy = hz - hx
            if accept:
                x, hx, rx2, fx = z, hz, rz2, fz
            coef = b if accept else a
            y *= coef
            hy *= coef
            y += x
            hy += hx
            # a rejected candidate's H z is freed before the next adjoint
            del hz
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
