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

from .cubes import DispersionWeights, check_dims, cube_view, measurement_count, measurement_shape
from .errors import DimensionError

MATERIALIZE_CAP = 40_000_000


@dataclass(frozen=True)
class CodedApertureSet:
    """K binary aperture masks, one M x N pattern per shot."""

    masks: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masks)
        if m.ndim != 3:
            raise DimensionError(f"expected masks of shape (K, M, N), got {m.shape}")
        check_dims(*m.shape)
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
    check_dims(M, N, K)
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
        check_dims(self.bands)
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
    def n(self) -> int:
        return self.rows * self.cols * self.bands

    @property
    def m(self) -> int:
        return measurement_count(self.rows, self.cols, self.bands, self.shots)

    @property
    def rate(self) -> float:
        """Measurement rate m/n."""
        return self.m / self.n


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
    cube = cube_view(f, (model.rows, model.cols, model.bands), "cube values")
    return _forward(model, cube).reshape(-1, order="F")


def adjoint_apply(model: CassiModel, g: np.ndarray) -> np.ndarray:
    """Apply the exact transpose of the operator to a measurement vector."""
    shape = measurement_shape(model.rows, model.cols, model.bands, model.shots)
    return _adjoint(model, cube_view(g, shape, "measurements")).reshape(-1, order="F")


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
