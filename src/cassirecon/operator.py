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

Row i of every shot reads only row i of the cube, so H H^T is block
diagonal over detector rows. Within row i, with W the ``(N+L+1) x (N+L-1)``
filter, ``H_i H_i^T = (I_K kron W) A_i (I_K kron W^T)``, and block (k, k') of
``A_i`` is diagonal: entry c counts the bands l whose voxel (i, c-l) is open
in both shots k and k' (:func:`_overlap_counts`). The two shots of a
complementary pair never share an open voxel, so their cross counts vanish;
only then (K = 2, complementary) does a row block split further by shot.
:func:`operator_norm_squared`, which sets FISTA's step, works on these row
blocks alone.

The dense matrix is never formed in normal operation; ``materialize`` exists
for small-instance verification only and enforces a size cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cubes import (
    DispersionWeights,
    check_dims,
    cube_view,
    is_out_vector,
    measurement_count,
    measurement_shape,
)
from .errors import DimensionError

MATERIALIZE_CAP = 40_000_000
POWER_ITERS = 50


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


def _disperse(weights: DispersionWeights, sheared: np.ndarray, out: np.ndarray) -> None:
    """Add the 3-tap filter W of ``sheared`` (last axis N+L-1) into ``out`` (N+L+1)."""
    w0, w1, w2 = weights.as_tuple()
    width = sheared.shape[-1]
    out[..., :width] += w0 * sheared
    out[..., 1 : width + 1] += w1 * sheared
    out[..., 2:] += w2 * sheared


def _correlate(weights: DispersionWeights, frames: np.ndarray, out: np.ndarray) -> None:
    """W^T along the last axis into ``out``: N+L+1 detector columns -> N+L-1 sheared columns."""
    w0, w1, w2 = weights.as_tuple()
    width = frames.shape[-1] - 2
    np.multiply(frames[..., :width], w0, out=out)
    out += w1 * frames[..., 1 : width + 1]
    out += w2 * frames[..., 2:]


def _forward(model: CassiModel, cube: np.ndarray) -> np.ndarray:
    """(M, N, L) cube -> (M, N+L+1, K) frames: per shot, shear then filter."""
    masks = model._masks
    M, N, L, K = model.rows, model.cols, model.bands, model.shots
    width = N + L - 1
    out = np.zeros((M, width + 2, K), order="F")
    for k in range(K):
        mask = masks[:, :, k]
        sheared = np.zeros((M, width), order="F")
        for l in range(L):
            sheared[:, l : l + N] += mask * cube[:, :, l]
        _disperse(model.weights, sheared, out[:, :, k])
    return out


def _adjoint(model: CassiModel, frames: np.ndarray, out: np.ndarray, scale: float) -> None:
    """Add ``scale`` times the exact transpose of :func:`_forward` into ``out``.

    Each shot's frame is correlated once. The bands are then worked one at
    a time: one ``einsum`` sums the band's K shots in order from +0.0 into
    one reused band plane, with no product temporary, and the plane is
    scaled and added into ``out``'s band: ``out + scale * H^T g`` in two
    roundings. ``out`` is an (M, N, L) cube.
    """
    masks = model._masks
    M, N, L, K = model.rows, model.cols, model.bands, model.shots
    # one spare column keeps a 1x1x1 cube's shots apart in memory, so that
    # einsum never takes its unrolled dot, which adds them out of order
    corr = np.empty((M, N + L, K), order="F")[:, 1:]
    for k in range(K):
        _correlate(model.weights, frames[:, :, k], out=corr[:, :, k])
    plane = np.empty((M, N), order="F")
    for l in range(L):
        np.einsum("ijk,ijk->ij", masks, corr[:, l : l + N], out=plane)
        if scale != 1.0:
            plane *= scale
        out[:, :, l] += plane


def _overlap_counts(model: CassiModel) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals of every row's shot-pair Gram blocks, as band counts.

    Returns ``(counts, pair)``: ``counts[i, c, pair[k, k2]]`` is the number
    of bands l with ``0 <= c-l < N`` and both apertures k and k2 open at
    (i, c-l). Only the pairs k <= k2 are stored, in the smallest unsigned
    dtype that holds L, as (M, N+L-1) planes laid out like the frames of
    :func:`_forward`; ``pair`` maps both orders of a pair to its plane. One
    column-wise ``cumsum`` of each pair's mask product gives its counts as
    differences of prefix sums over the band window.
    """
    masks = model.apertures.masks
    K, M, N = masks.shape
    L = model.bands
    cols = np.arange(N + L - 1)
    hi, lo = np.minimum(cols + 1, N), np.maximum(cols - L + 1, 0)
    first, second = np.triu_indices(K)
    pair = np.empty((K, K), dtype=np.intp)
    pair[first, second] = pair[second, first] = np.arange(first.size)
    counts = np.empty((M, N + L - 1, first.size), dtype=np.min_scalar_type(L), order="F")
    prefix = np.zeros((M, N + 1), dtype=np.intp)
    for p, (k, k2) in enumerate(zip(first, second)):
        np.cumsum(masks[k] & masks[k2], axis=1, dtype=np.intp, out=prefix[:, 1:])
        np.subtract(prefix[:, hi], prefix[:, lo], out=counts[:, :, p], casting="unsafe")
    return counts, pair


def operator_norm_squared(model: CassiModel) -> float:
    """||H||^2, the largest eigenvalue of H H^T, by per-row power iteration.

    H H^T is block diagonal over detector rows (module docstring), so
    every row block runs its own power iteration on the (M, N+L+1, K)
    frames. A step correlates the frames with the 3-tap filter, mixes the
    shots by the row's overlap counts and filters back; it makes no
    cube-sized array and calls neither H nor H^T. Each row starts from all
    ones, which is not orthogonal to the nonnegative Perron vector of its
    entrywise nonnegative block, and is normalised on its own; a row closed
    in every shot stays zero. Returns the largest per-row Rayleigh quotient
    after ``POWER_ITERS`` steps, a lower bound on ||H||^2.
    """
    counts, pair = _overlap_counts(model)
    M, width, K = counts.shape[0], counts.shape[1], model.shots
    frames = np.ones((M, width + 2, K), order="F")
    corr = np.empty((M, width, K), order="F")
    mixed = np.empty((M, width), order="F")
    product = np.empty_like(mixed)
    for _ in range(POWER_ITERS):
        # 3-tap correlation of the frames, each row scaled to unit norm
        norms = np.sqrt(np.einsum("ick,ick->i", frames, frames))
        scale = np.divide(1.0, norms, out=np.zeros(M), where=norms > 0.0)[:, None]
        for k in range(K):
            _correlate(model.weights, frames[:, :, k], out=corr[:, :, k])
            corr[:, :, k] *= scale
        # the overlap mix, the quotient <v, H H^T v> = <corr, mixed> per row,
        # then the 3-tap filter back into the frames
        quotients = np.zeros(M)
        for k in range(K):
            np.multiply(counts[:, :, pair[k, 0]], corr[:, :, 0], out=mixed)
            for k2 in range(1, K):
                mixed += np.multiply(counts[:, :, pair[k, k2]], corr[:, :, k2], out=product)
            quotients += np.einsum("ic,ic->i", corr[:, :, k], mixed)
            frames[:, :, k] = 0.0
            _disperse(model.weights, mixed, frames[:, :, k])
    return float(quotients.max())


def forward_apply(model: CassiModel, f: np.ndarray) -> np.ndarray:
    """Apply the measurement operator to a vectorized cube."""
    cube = cube_view(f, (model.rows, model.cols, model.bands), "cube values")
    return _forward(model, cube).reshape(-1, order="F")


def adjoint_apply(
    model: CassiModel, g: np.ndarray, out: np.ndarray | None = None, scale: float = 1.0
) -> np.ndarray:
    """``scale`` times the exact transpose of the operator applied to ``g``.

    The result is added into ``out`` and ``out`` returned, as BLAS's
    ``y <- alpha A^T x + y``: the bits of ``v = adjoint_apply(model, g);
    v *= scale; v += out``. Without ``out`` it is added into a fresh zero
    vector, which gives the bits of ``H^T g`` itself, since ``0.0 + x`` is
    ``x``. ``out`` must be a writeable, contiguous, 1-D float64 vector of
    ``model.n`` values; anything else raises ``ValueError``. ``g`` is not
    modified.
    """
    shape = measurement_shape(model.rows, model.cols, model.bands, model.shots)
    frames = cube_view(g, shape, "measurements")
    if out is None:
        out = np.zeros(model.n)
    elif not (is_out_vector(out) and out.size == model.n):
        raise ValueError(
            f"out must be a writeable, contiguous, 1-D float64 vector of {model.n} values"
        )
    _adjoint(model, frames, cube_view(out, (model.rows, model.cols, model.bands), "out"), scale)
    return out


def materialize(model: CassiModel) -> np.ndarray:
    """Dense (m, n) operator matrix, built column-by-column from basis vectors.

    Intended for small verification instances; refuses anything above
    ``MATERIALIZE_CAP`` entries, before allocating, so production-sized
    systems cannot be materialized by accident.
    """
    m, n = model.m, model.n
    if m * n > MATERIALIZE_CAP:
        raise ValueError(
            f"refusing to materialize a {m}x{n} matrix ({m * n} entries > cap {MATERIALIZE_CAP})"
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
