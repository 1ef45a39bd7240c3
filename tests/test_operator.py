import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cassirecon.cubes import band_chunks
from cassirecon.errors import DimensionError
from cassirecon.operator import (
    CassiModel,
    CodedApertureSet,
    DispersionWeights,
    adjoint_apply,
    column_norm_squares,
    forward_apply,
    generate_apertures,
    materialize,
    measurement_count,
    normalized_backprojection,
)

W = DispersionWeights(0.25, 0.5, 0.25)


def _voxel(i, j, l, M, N):
    """Flat position of voxel (i, j, l): Fortran order of the (M, N, L) cube."""
    return i + M * j + M * N * l


def _sample(i, jp, k, M, N, L):
    """Flat position of detector sample (i, j', k): Fortran order of (M, N+L+1, K)."""
    return i + M * jp + M * (N + L + 1) * k


def make_model(M, N, L, K, scheme="complementary", seed=1, weights=W):
    return CassiModel(generate_apertures(M, N, K, scheme, seed), weights, bands=L)


def all_ones_model(M, N, L, K=1, weights=W):
    return CassiModel(CodedApertureSet(np.ones((K, M, N), dtype=np.uint8)), weights, bands=L)


def test_measurement_count_rejects_bad_dims():
    with pytest.raises(DimensionError):
        measurement_count(0, 8, 4, 1)


def test_forward_unit_voxel_spreads_three_ways():
    M, N, L = 5, 6, 3
    model = all_ones_model(M, N, L)
    i0, j0, l0 = 2, 1, 2
    f = np.zeros(model.n)
    f[_voxel(i0, j0, l0, M, N)] = 1.0
    g = forward_apply(model, f)
    nz = np.nonzero(g)[0]
    expected = [_sample(i0, j0 + l0 + d, 0, M, N, L) for d in range(3)]
    assert list(nz) == expected
    assert list(g[nz]) == [0.25, 0.5, 0.25]


def test_forward_zero_aperture_annihilates():
    model = CassiModel(CodedApertureSet(np.zeros((2, 4, 4), dtype=np.uint8)), W, bands=3)
    rng = np.random.default_rng(0)
    g = forward_apply(model, rng.standard_normal(model.n))
    assert np.all(g == 0.0)


def test_materialize_matches_definition_with_asymmetric_weights():
    # H entry by entry: voxel (i, j, l) in shot k puts w_d * mask[k, i, j]
    # on detector (i, j+l+d, k); unequal w0 and w2 catch a reversed filter
    M, N, L, K = 5, 6, 4, 3
    weights = DispersionWeights(0.2, 0.5, 0.3)
    model = make_model(M, N, L, K, scheme="random", seed=4, weights=weights)
    masks = model.apertures.masks
    H = np.zeros((model.m, model.n))
    for k in range(K):
        for i in range(M):
            for j in range(N):
                for l in range(L):
                    col = _voxel(i, j, l, M, N)
                    for d, w in enumerate(weights.as_tuple()):
                        row = _sample(i, j + l + d, k, M, N, L)
                        H[row, col] += w * masks[k, i, j]
    assert np.abs(materialize(model) - H).max() <= 1e-15


def test_adjoint_unit_measurement():
    M, N, L = 4, 5, 3
    model = all_ones_model(M, N, L)
    i0, jp0 = 1, 4
    g = np.zeros(model.m)
    g[_sample(i0, jp0, 0, M, N, L)] = 1.0
    f = adjoint_apply(model, g)
    expected = {}
    for l in range(L):
        for d, w in enumerate(W.as_tuple()):
            j = jp0 - l - d
            if 0 <= j < N:
                expected[_voxel(i0, j, l, M, N)] = (
                    expected.get(_voxel(i0, j, l, M, N), 0.0) + w
                )
    nz = np.nonzero(f)[0]
    assert set(nz) == set(expected)
    for idx in nz:
        assert f[idx] == pytest.approx(expected[idx], abs=1e-15)


def test_adjoint_of_zero():
    model = make_model(4, 4, 2, 2)
    assert np.all(adjoint_apply(model, np.zeros(model.m)) == 0.0)


@st.composite
def operator_instances(draw):
    M, N, L, K = (draw(st.integers(1, 32)) for _ in range(4))
    w = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    total = sum(w)
    assume(total > 0.0)
    seed = draw(st.integers(0, 2**32 - 1))
    masks = np.random.default_rng(seed).integers(0, 2, size=(K, M, N), dtype=np.uint8)
    weights = DispersionWeights(*(x / total for x in w))
    return CassiModel(CodedApertureSet(masks), weights, bands=L), seed


@settings(max_examples=50, deadline=None)
@given(operator_instances())
def test_adjoint_identity_property(instance):
    model, seed = instance
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(model.n)
    g = rng.standard_normal(model.m)
    lhs = forward_apply(model, f) @ g
    rhs = f @ adjoint_apply(model, g)
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(f) * np.linalg.norm(g)


def loop_adjoint(model, g):
    """H^T g as one plain loop: per shot, correlate the frame, then add one masked slice per band."""
    M, N, L, K = model.rows, model.cols, model.bands, model.shots
    w0, w1, w2 = model.weights.as_tuple()
    frames = g.reshape((M, N + L + 1, K), order="F")
    out = np.zeros((M, N, L), order="F")
    for k in range(K):
        frame = frames[:, :, k]
        corr = w0 * frame[:, : N + L - 1]
        corr += w1 * frame[:, 1 : N + L]
        corr += w2 * frame[:, 2:]
        mask = model.apertures.masks[k].astype(np.float64)
        for l in range(L):
            out[:, :, l] += mask * corr[:, l : l + N]
    return out.reshape(-1, order="F")


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def sparse_measurements(model, seed):
    """Measurements over twelve orders of magnitude, so the order of every sum
    shows in its bits, with a third of the samples exactly zero, so H^T g has zeros."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(model.m) * 10.0 ** rng.uniform(-6.0, 6.0, model.m)
    g[rng.random(model.m) < 1 / 3] = 0.0
    return g


# 64x512 float64 planes are a quarter of a chunk, so 22 bands span six chunks
ACCUMULATE_MODELS = [
    pytest.param((64, 512, 22, 2, "complementary"), id="six-chunks"),
    pytest.param((12, 10, 5, 3, "random"), id="random-K3"),
    # one pixel: the shot sum is einsum's inner loop itself
    pytest.param((1, 1, 4, 16, "random"), id="one-pixel-K16"),
    pytest.param((1, 1, 1, 64, "random"), id="one-voxel-K64"),
]


@pytest.mark.parametrize("dims", ACCUMULATE_MODELS)
def test_adjoint_matches_plain_loop(dims):
    M, N, L, K, scheme = dims
    model = make_model(M, N, L, K, scheme, seed=4)
    assert len(band_chunks(M, N, L)) == (6 if M == 64 else 1)
    g = sparse_measurements(model, 4)
    assert_same_bits(adjoint_apply(model, g), loop_adjoint(model, g))


@pytest.mark.parametrize("dims", ACCUMULATE_MODELS)
def test_adjoint_accumulates_into_out(dims):
    # out + scale * H^T g, with the bits of the fresh form scaled and added;
    # zeros of either sign in out and in H^T g check the signed zeros
    M, N, L, K, scheme = dims
    model = make_model(M, N, L, K, scheme, seed=5)
    rng = np.random.default_rng(5)
    g = sparse_measurements(model, 5)
    g_before = g.copy()
    y0 = rng.standard_normal(model.n)
    y0[rng.random(model.n) < 0.2] = 0.0
    y0[rng.random(model.n) < 0.2] = -0.0
    for scale in (-0.37, 1.0):
        ref = adjoint_apply(model, g)
        ref *= scale
        ref += y0
        y = y0.copy()
        assert adjoint_apply(model, g, out=y, scale=scale) is y
        assert_same_bits(y, ref)
        assert_same_bits(g, g_before)


def test_adjoint_accumulates_in_one_band_plane(traced_peak):
    # the correlated frames with their spare column, then one tap product of
    # the correlation (M x (N+L-1), 1.18 planes at 128x128x24) and, after it,
    # the band plane each voxel's shots add into, with no mask product; a
    # band-chunk buffer would make 1.44 MiB. The allowance of a page covers
    # the array objects
    M, N, L, K = 128, 128, 24, 2
    model = make_model(M, N, L, K)
    g = np.random.default_rng(6).standard_normal(model.m)
    y = np.zeros(model.n)
    adjoint_apply(model, g, out=y, scale=-0.5)  # first-use caches
    corr, plane = 8 * M * (N + L) * K, 8 * M * N
    assert traced_peak(lambda: adjoint_apply(model, g, out=y, scale=-0.5)) <= corr + 1.5 * plane + 4096


def read_only_zeros(n):
    out = np.zeros(n)
    out.flags.writeable = False
    return out


@pytest.mark.parametrize(
    "make_out",
    [
        read_only_zeros,
        lambda n: np.zeros(2 * n)[::2],
        lambda n: np.zeros(n, dtype=np.float32),
        lambda n: np.zeros(n + 1),
    ],
    ids=["read-only", "strided", "float32", "wrong-length"],
)
def test_adjoint_rejects_out_it_cannot_write_through(make_out):
    model = make_model(6, 8, 3, 2)
    with pytest.raises(ValueError, match="out must be a writeable, contiguous, 1-D float64"):
        adjoint_apply(model, np.ones(model.m), out=make_out(model.n))


def test_linearity():
    model = make_model(8, 8, 4, 2, seed=5)
    rng = np.random.default_rng(5)
    f1, f2 = rng.standard_normal((2, model.n))
    a, b = 1.7, -0.3
    combo = forward_apply(model, a * f1 + b * f2)
    parts = a * forward_apply(model, f1) + b * forward_apply(model, f2)
    scale = max(np.abs(combo).max(), 1.0)
    assert np.abs(combo - parts).max() <= 1e-12 * scale


def test_measurement_length_matches_count():
    for dims in [(3, 4, 2, 1), (8, 8, 4, 2), (6, 5, 7, 4)]:
        M, N, L, K = dims
        model = make_model(M, N, L, K, scheme="random")
        g = forward_apply(model, np.ones(model.n))
        assert g.size == measurement_count(M, N, L, K)


def test_materialize_column_values_and_sums():
    model = make_model(8, 8, 4, 2)
    H = materialize(model)
    allowed = {0.0, 0.25, 0.5}
    for col in range(H.shape[1]):
        vals = set(np.round(H[:, col], 12))
        assert vals <= allowed
        assert H[:, col].sum() <= 1.0 + 1e-12


def test_complementary_single_diagonal_columns():
    # first-order weights: each voxel is seen in exactly one shot of a pair
    model = make_model(8, 8, 4, 2, weights=DispersionWeights(0.0, 1.0, 0.0))
    H = materialize(model)
    l0 = (H != 0).sum(axis=0)
    assert np.all(l0 == 1)
    assert np.allclose(H.sum(axis=0), 1.0)


def test_column_norms_few_distinct_values():
    # complementary pairs: every column norm identical; random K=2: at most 3
    model = make_model(8, 8, 4, 2)
    norms = np.linalg.norm(materialize(model), axis=0)
    assert len(np.unique(np.round(norms, 12))) == 1

    model = make_model(8, 8, 4, 2, scheme="random", seed=9)
    norms = np.linalg.norm(materialize(model), axis=0)
    assert len(np.unique(np.round(norms, 12))) <= 3


def test_column_norm_squares_closed_form():
    model = make_model(8, 8, 4, 2, scheme="random", seed=2)
    H = materialize(model)
    assert np.abs(column_norm_squares(model) - (H * H).sum(axis=0)).max() <= 1e-12


def test_normalized_backprojection_unbiased_for_embedding():
    # w=(0,1,0), all-ones aperture: H is an exact embedding, so the
    # diagonal-normalized adjoint reproduces the input
    model = all_ones_model(4, 4, 1, weights=DispersionWeights(0.0, 1.0, 0.0))
    rng = np.random.default_rng(1)
    f = rng.standard_normal(model.n)
    bp = normalized_backprojection(model, forward_apply(model, f))
    assert np.abs(bp - f).max() <= 1e-12


def test_materialize_cap():
    # about 1.1e9 entries: refused before the matrix is allocated
    model = make_model(64, 64, 24, 2)
    with pytest.raises(ValueError, match="refusing to materialize"):
        materialize(model)


def test_generate_apertures_complementary_pairs():
    ap = generate_apertures(8, 8, 4, "complementary", seed=3)
    masks = ap.masks
    assert np.all(masks[0] + masks[1] == 1)
    assert np.all(masks[2] + masks[3] == 1)


def test_generate_apertures_deterministic():
    a = generate_apertures(8, 8, 2, "complementary", seed=77)
    b = generate_apertures(8, 8, 2, "complementary", seed=77)
    assert np.array_equal(a.masks, b.masks)
    c = generate_apertures(8, 8, 2, "complementary", seed=78)
    assert not np.array_equal(a.masks, c.masks)


def test_generate_apertures_odd_complementary_rejected():
    with pytest.raises(ValueError):
        generate_apertures(8, 8, 3, "complementary", seed=0)


def test_dimension_mismatch_errors():
    model = make_model(4, 4, 2, 2)
    with pytest.raises(DimensionError):
        forward_apply(model, np.zeros(model.n + 1))
    with pytest.raises(DimensionError):
        adjoint_apply(model, np.zeros(model.m - 1))


def test_weights_validation():
    with pytest.raises(ValueError):
        DispersionWeights(0.3, 0.5, 0.3)
    with pytest.raises(ValueError):
        DispersionWeights(-0.1, 1.0, 0.1)
    DispersionWeights(0.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "weights", [(float("nan"), 0.5, 0.5), (0.25, float("nan"), 0.25), (float("inf"), 0.0, 0.0)]
)
def test_weights_reject_non_finite(weights):
    # NaN slips past both "x < 0" and the sum tolerance unless checked
    with pytest.raises(ValueError, match="finite"):
        DispersionWeights(*weights)


def test_aperture_set_validation():
    with pytest.raises(ValueError):
        CodedApertureSet(np.full((1, 2, 2), 2, dtype=np.uint8))
