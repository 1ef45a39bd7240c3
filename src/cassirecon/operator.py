"""The CASSI measurement operator as a matrix-free forward/adjoint pair.

One shot codes the scene with a binary aperture, then a dispersive element
spreads every voxel's energy over three neighboring detector columns
(fractions ``w0, w1, w2``), shifted by one column per spectral band. K shots
stack into a measurement vector of length ``K*M*(N+L+1)``.

Per shot the forward map factors into a shear and a filter: band l of the
coded cube is added into an ``M x (N+L-1)`` accumulator at column offset
l, then one 3-tap column filter ``(w0, w1, w2)`` spreads the accumulator
over the ``N+L+1`` detector columns. The adjoint runs the same steps
transposed: a 3-tap correlation of the frame, then one masked slice per
band.

The dense matrix is never formed in normal operation; ``materialize`` exists
for small-instance verification only and enforces a size cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

WEIGHT_SUM_TOL = 1e-12

#: Default split of a voxel's energy over the 3 detector columns it reaches.
#: Symmetric and unit-sum; configurable per model.
DEFAULT_WEIGHTS = (0.25, 0.5, 0.25)

MATERIALIZE_CAP = 40_000_000


def measurement_count(M: int, N: int, L: int, K: int) -> int:
    """Number of detector samples collected in K shots: K*M*(N+L+1)."""
    if min(M, N, L, K) < 1:
        raise DimensionError(f"all dimensions must be >= 1, got {(M, N, L, K)}")
    return K * M * (N + L + 1)


@dataclass(frozen=True)
class DispersionWeights:
    """Energy fractions (w0, w1, w2) landing on the 3 dispersed columns.

    Must be finite, nonnegative and sum to 1 (total energy is preserved). Setting
    (0, 1, 0) collapses the model to a single-diagonal, first-order system
    while keeping the same detector width.
    """

    w0: float
    w1: float
    w2: float

    def __post_init__(self):
        w = (float(self.w0), float(self.w1), float(self.w2))
        if not all(np.isfinite(x) and x >= 0.0 for x in w):
            raise ValueError(f"dispersion weights must be finite and nonnegative, got {w}")
        if abs(sum(w) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"dispersion weights must sum to 1, got sum={sum(w)!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w0, self.w1, self.w2)


@dataclass(frozen=True)
class CodedApertureSet:
    """K binary aperture masks, one M x N pattern per shot."""

    masks: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masks)
        if m.ndim != 3:
            raise DimensionError(f"expected masks of shape (K, M, N), got {m.shape}")
        if not np.all((m == 0) | (m == 1)):
            raise ValueError("aperture masks must be binary (0/1)")
        m = m.astype(np.uint8)
        m.flags.writeable = False
        object.__setattr__(self, "masks", m)

    @property
    def shots(self) -> int:
        return self.masks.shape[0]

    @property
    def rows(self) -> int:
        return self.masks.shape[1]

    @property
    def cols(self) -> int:
        return self.masks.shape[2]


def generate_apertures(
    M: int, N: int, K: int, scheme: str = "complementary", seed: int = 0
) -> CodedApertureSet:
    """Draw K seeded Bernoulli(0.5) aperture patterns.

    ``random`` draws every shot independently. ``complementary`` draws the
    even-indexed shots and sets each odd-indexed shot to the bitwise
    complement of its predecessor (requires even K); the pairing balances
    how often each scene pixel is observed.
    """
    if min(M, N, K) < 1:
        raise DimensionError(f"invalid aperture dims {(M, N, K)}")
    rng = np.random.default_rng(seed)
    if scheme == "random":
        masks = rng.integers(0, 2, size=(K, M, N), dtype=np.uint8)
    elif scheme == "complementary":
        if K % 2 != 0:
            raise ValueError(f"complementary apertures require an even shot count, got K={K}")
        base = rng.integers(0, 2, size=(K // 2, M, N), dtype=np.uint8)
        masks = np.empty((K, M, N), dtype=np.uint8)
        masks[0::2] = base
        masks[1::2] = 1 - base
    else:
        raise ValueError(f"unknown aperture scheme {scheme!r}")
    return CodedApertureSet(masks)


@dataclass(frozen=True)
class CassiModel:
    """Apertures + dispersion weights + cube dims: the full measurement model."""

    apertures: CodedApertureSet
    weights: DispersionWeights
    bands: int
    _masks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bands < 1:
            raise DimensionError(f"bands must be >= 1, got {self.bands}")
        # (M, N, K) float64 in Fortran order: each shot's mask is one
        # contiguous block laid out like a band of the cube view.
        masks = np.asfortranarray(
            np.moveaxis(self.apertures.masks, 0, 2).astype(np.float64)
        )
        masks.flags.writeable = False
        object.__setattr__(self, "_masks", masks)

    @property
    def rows(self) -> int:
        return self.apertures.rows

    @property
    def cols(self) -> int:
        return self.apertures.cols

    @property
    def shots(self) -> int:
        return self.apertures.shots

    @property
    def fpa_width(self) -> int:
        return self.cols + self.bands + 1

    @property
    def n(self) -> int:
        return self.rows * self.cols * self.bands

    @property
    def m(self) -> int:
        return measurement_count(self.rows, self.cols, self.bands, self.shots)

    @property
    def rate(self) -> float:
        """Measurement rate m/n."""
        return self.m / self.n


def _as_cube_view(model: CassiModel, f: np.ndarray) -> np.ndarray:
    v = np.ascontiguousarray(f, dtype=np.float64).reshape(-1)
    if v.size != model.n:
        raise DimensionError(f"expected signal length {model.n}, got {v.size}")
    return v.reshape((model.rows, model.cols, model.bands), order="F")


def _as_frame_view(model: CassiModel, g: np.ndarray) -> np.ndarray:
    v = np.ascontiguousarray(g, dtype=np.float64).reshape(-1)
    if v.size != model.m:
        raise DimensionError(f"expected measurement length {model.m}, got {v.size}")
    return v.reshape((model.rows, model.fpa_width, model.shots), order="F")


def _forward(model: CassiModel, cube: np.ndarray) -> np.ndarray:
    """(M, N, L) cube -> (M, N+L+1, K) frames: per shot, shear then filter."""
    masks = model._masks
    M, N, L, K = model.rows, model.cols, model.bands, model.shots
    width = N + L - 1
    w0, w1, w2 = model.weights.as_tuple()
    out = np.zeros((M, width + 2, K), order="F")
    for k in range(K):
        mask = masks[:, :, k]
        sheared = np.zeros((M, width), order="F")
        for l in range(L):
            sheared[:, l : l + N] += mask * cube[:, :, l]
        frame = out[:, :, k]
        frame[:, :width] += w0 * sheared
        frame[:, 1 : width + 1] += w1 * sheared
        frame[:, 2:] += w2 * sheared
    return out


def _adjoint(model: CassiModel, frames: np.ndarray) -> np.ndarray:
    """Exact transpose of :func:`_forward`: per shot, correlate then unshear."""
    masks = model._masks
    N, L, K = model.cols, model.bands, model.shots
    width = N + L - 1
    w0, w1, w2 = model.weights.as_tuple()
    out = np.zeros((model.rows, N, L), order="F")
    for k in range(K):
        frame = frames[:, :, k]
        corr = w0 * frame[:, :width] + w1 * frame[:, 1 : width + 1] + w2 * frame[:, 2:]
        mask = masks[:, :, k]
        for l in range(L):
            out[:, :, l] += mask * corr[:, l : l + N]
    return out


def forward_apply(model: CassiModel, f: np.ndarray) -> np.ndarray:
    """Apply the measurement operator to a vectorized cube."""
    return _forward(model, _as_cube_view(model, f)).reshape(-1, order="F")


def adjoint_apply(model: CassiModel, g: np.ndarray) -> np.ndarray:
    """Apply the exact transpose of the operator to a measurement vector."""
    return _adjoint(model, _as_frame_view(model, g)).reshape(-1, order="F")


def materialize(model: CassiModel, cap: int = MATERIALIZE_CAP) -> np.ndarray:
    """Dense (m, n) operator matrix, built column-by-column from basis vectors.

    Intended for small verification instances; refuses anything above
    ``cap`` entries so production-sized systems cannot be materialized by
    accident.
    """
    m, n = model.m, model.n
    if m * n > cap:
        raise ValueError(
            f"refusing to materialize a {m}x{n} matrix ({m * n} entries > cap {cap})"
        )
    H = np.empty((m, n), dtype=np.float64)
    e = np.zeros(n, dtype=np.float64)
    for col in range(n):
        e[col] = 1.0
        H[:, col] = forward_apply(model, e)
        e[col] = 0.0
    return H


def column_norm_squares(model: CassiModel) -> np.ndarray:
    """Squared column norms of the operator, in closed form.

    Each voxel (i, j, l) contributes weights (w0, w1, w2) to three distinct
    detector samples in every shot whose aperture is open at (i, j), so the
    squared column norm is (open-shot count) * sum(w_d^2), independent of l.
    """
    w = np.asarray(model.weights.as_tuple())
    open_counts = model._masks.sum(axis=2)  # (M, N)
    per_band = open_counts * float(np.sum(w * w))
    full = np.broadcast_to(per_band[:, :, None], (model.rows, model.cols, model.bands))
    return np.asfortranarray(full).reshape(-1, order="F")


def normalized_backprojection(model: CassiModel, g: np.ndarray) -> np.ndarray:
    """Adjoint image rescaled per voxel by its squared column norm.

    A crude single-pass reconstruction (matched filter with diagonal
    normalization); useful as an initializer and as a quality baseline.
    Voxels never observed by any aperture are left at zero.
    """
    bp = adjoint_apply(model, g)
    s = column_norm_squares(model)
    return np.divide(bp, s, out=np.zeros_like(bp), where=s > 0)
