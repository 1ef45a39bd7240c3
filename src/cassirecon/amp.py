"""Damped approximate message passing with the adaptive Wiener denoiser.

One iteration:

1. corrected residual  r = g - H f + (1/R) * d_prev * r_prev
2. damp the residual   r <- alpha r + (1 - alpha) r_prev
3. pseudo data         q = H^T r + f
4. noise estimate      sigma2 = mean(r^2)
5-6. denoise           f_half, d = wiener(q, sigma2)   (in the Psi domain)
7. damp the iterate    f <- alpha f_half + (1 - alpha) f

The correction in step 1 uses the previous iteration's mean shrinkage gain
d_prev. The pseudo data is not signal x plus white noise: with Haar, alpha
0.2 at 64x64x16, K=2, var(q - x) / sigma2 ran 1.3-3.7 and q - x is strongly
colored in the Psi domain. Damping (alpha < 1) stabilizes the recursion on this
highly structured operator, where the undamped iteration can blow up; a
value beyond the float32 range aborts with a structured error instead of
being clamped, so divergence stays visible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cubes import check_float32_range, check_max_iter, flat_vector, row_chunks, sum_of_squares
from .errors import DimensionError
# avg_psnr stays importable here: perfbench/tracer.py wraps it by this name
from .metrics import Trace, avg_psnr  # noqa: F401
from .operator import CassiModel, adjoint_apply, forward_apply
from .transforms import DEFAULT_WAVELET, SparsifyingTransform
from .wiener import denoise_cube

DEFAULT_ALPHA = 0.2
DEFAULT_MAX_ITER = 400

#: Public name of the trace ``run_amp`` returns; the same class as ``Trace``.
AmpTrace = Trace


@dataclass(frozen=True)
class AmpConfig:
    """Solver settings: damping factor, iteration budget, transform choice."""

    alpha: float = DEFAULT_ALPHA
    max_iter: int = DEFAULT_MAX_ITER
    wavelet: str = DEFAULT_WAVELET

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"damping factor must be in (0, 1], got {self.alpha}")
        check_max_iter(self.max_iter)


@dataclass(frozen=True)
class AmpState:
    """Solver state entering iteration t.

    ``f`` is the current iterate, ``r`` the previous damped residual,
    ``sigma2`` and ``deriv_mean`` the noise estimate and mean shrinkage
    gain computed in the previous iteration (zero before the first).
    """

    f: np.ndarray
    r: np.ndarray
    sigma2: float = 0.0
    deriv_mean: float = 0.0
    t: int = 1

    def __post_init__(self):
        if not (0.0 <= self.deriv_mean <= 1.0):
            raise ValueError(f"derivative mean must be in [0, 1], got {self.deriv_mean}")
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise ValueError(f"noise estimate must be finite and >= 0, got {self.sigma2}")


def noise_estimate(r: np.ndarray) -> float:
    """Mean squared residual entry: the scalar-channel noise variance estimate.

    :func:`.cubes.sum_of_squares` over the entry count, the bits of
    ``np.mean(r * r)``; overflow to inf is left to the caller's
    divergence check.
    """
    r = np.asarray(r, dtype=np.float64).reshape(-1)
    if r.size < 1:
        raise DimensionError("residual must be non-empty")
    return sum_of_squares(r) / r.size


def damp(new: np.ndarray, old: np.ndarray, alpha: float) -> np.ndarray:
    """Convex combination alpha*new + (1-alpha)*old, written over ``new``.

    ``new`` is taken as float64: a list or another dtype becomes a copy,
    which is written and returned. The arrays are walked a row chunk at a
    time (:func:`.cubes.row_chunks`): ``(1-alpha)*old`` of the chunk goes
    into a chunk-sized temporary, the chunk of ``new`` is scaled by alpha in
    place and the temporary is added. These are the expression's three
    roundings, with no cube-sized temporary. ``old`` may be ``new`` itself,
    since each chunk's tail is taken before the chunk is written; alpha=1
    returns ``new`` untouched.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"damping factor must be in (0, 1], got {alpha}")
    new = np.asarray(new, dtype=np.float64)
    old = np.asarray(old, dtype=np.float64)
    if new.shape != old.shape:
        raise DimensionError(f"shape mismatch {new.shape} vs {old.shape}")
    if alpha < 1.0:
        for chunk, old_chunk in zip(row_chunks(new), row_chunks(old)):
            tail = (1.0 - alpha) * old_chunk
            chunk *= alpha
            chunk += tail
            del tail  # freed before the next chunk's tail is made
    return new


def residual_step(
    f: np.ndarray, r_prev: np.ndarray, deriv_mean: float, g: np.ndarray, model: CassiModel
) -> np.ndarray:
    """Residual with the reaction-term correction (step 1), a fresh array.

    With r_prev = 0 (first iteration) this reduces to the plain residual
    g - H f.
    """
    g = flat_vector(g, model.m, "measurements")
    r_prev = flat_vector(r_prev, model.m, "residual values")
    return g - forward_apply(model, f) + (deriv_mean / model.rate) * r_prev


def pseudo_data(f: np.ndarray, r: np.ndarray, model: CassiModel) -> np.ndarray:
    """Scalar-channel observation q = H^T r + f (step 3), a fresh array.

    The adjoint adds H^T r into a copy of ``f``; ``f + v`` and ``v + f``
    are the same IEEE sum.
    """
    return adjoint_apply(model, r, out=flat_vector(f, model.n, "cube values").copy())


def amp_iteration(
    state: AmpState,
    g: np.ndarray,
    model: CassiModel,
    transform: SparsifyingTransform,
    alpha: float,
    trace: Optional[Trace] = None,
) -> AmpState:
    """Run one full solver iteration and append a trace row.

    The row holds ``sigma2``, ``residual_norm``, ``derivative_mean``, then
    ``psnr`` when the trace holds a truth cube, and ``wall_ms``.
    """
    start = time.perf_counter()
    t = state.t
    with np.errstate(over="ignore", invalid="ignore"):
        # the residual and q are this iteration's own fresh arrays: each damp
        # writes over its first argument, and the denoiser runs Psi, the
        # shrink and Psi^T in q's buffer, so f_half is q and at most two
        # cubes are live, state.f and q; nothing writes over state.f or state.r
        r = damp(residual_step(state.f, state.r, state.deriv_mean, g, model), state.r, alpha)
        # damping keeps NaN and inf, but may pull a raw residual beyond the
        # range back into it; the noise estimate, mean(r^2), usually catches that
        check_float32_range(r, "residual", t, trace)
        q = pseudo_data(state.f, r, model)
        sigma2 = noise_estimate(r)
        check_float32_range(sigma2, "noise estimate", t, trace)
        f_half, deriv = denoise_cube(q, sigma2, transform, out=q)
    # With sigma2 in range, a group gain (nu^2 - sigma2) / nu^2 is NaN exactly
    # when its variance nu^2 overflowed to inf, and the mean gain with it.
    check_float32_range(deriv, "group variances", t, trace)
    f_next = damp(f_half, state.f, alpha)
    check_float32_range(f_next, "iterate", t, trace)
    if trace is not None:
        trace.append_iteration(
            start, f_next, sigma2=sigma2,
            residual_norm=float(np.sqrt(sum_of_squares(r))), derivative_mean=deriv,
        )
    return AmpState(f=f_next, r=r, sigma2=sigma2, deriv_mean=deriv, t=t + 1)


def run_amp(
    g: np.ndarray,
    model: CassiModel,
    config: AmpConfig = AmpConfig(),
    truth: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, Trace]:
    """Reconstruct a cube from measurements; returns (estimate, trace).

    Starts from f = 0, r = 0 and runs exactly ``config.max_iter``
    iterations. When ``truth`` (a vectorized reference cube) is supplied,
    the trace records the average per-band PSNR after every iteration.
    On divergence the raised error carries the partial trace.
    """
    g = flat_vector(g, model.m, "measurements")
    shape = (model.rows, model.cols, model.bands)
    transform = SparsifyingTransform(*shape, wavelet=config.wavelet)
    trace = Trace.for_solver(truth, shape, "sigma2", "residual_norm", "derivative_mean")
    state = AmpState(f=np.zeros(model.n), r=np.zeros(model.m))
    for _ in range(config.max_iter):
        state = amp_iteration(state, g, model, transform, config.alpha, trace)
    return state.f, trace
