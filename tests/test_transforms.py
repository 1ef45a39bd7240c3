import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cassirecon.errors import DimensionError
from cassirecon.transforms import (
    WAVELET_FILTERS,
    SparsifyingTransform,
    _dct_matrix,
    _spectral,
    dct_spectral_forward,
    default_levels,
    subband_map,
)


def dct_spectral_inverse(coeffs):
    """Transpose of :func:`dct_spectral_forward` through the GEMM that
    ``SparsifyingTransform.inverse`` runs, so the oracles below match it bit for bit."""
    return _spectral(coeffs, _dct_matrix(np.shape(coeffs)[-1]).T)


def dct2_reference(x):
    """Direct cosine-sum transcription of the orthonormal DCT-II."""
    L = x.shape[-1]
    out = np.zeros_like(np.asarray(x, dtype=np.float64))
    l = np.arange(L)
    for p in range(L):
        c = np.sqrt(1.0 / L) if p == 0 else np.sqrt(2.0 / L)
        out[..., p] = c * (x * np.cos(np.pi * (2 * l + 1) * p / (2 * L))).sum(axis=-1)
    return out


def one_band(shape, wavelet):
    """Psi on a single band: its length-1 spectral DCT is the identity."""
    return SparsifyingTransform(shape[0], shape[1], 1, wavelet)


def dwt2_forward(a, wavelet="haar"):
    theta = one_band(a.shape, wavelet).forward(a.reshape(-1, order="F"))
    return theta.reshape(a.shape, order="F")


def dwt2_inverse(c, wavelet="haar"):
    x = one_band(c.shape, wavelet).inverse(c.reshape(-1, order="F"))
    return x.reshape(c.shape, order="F")


def test_dwt2_constant_2x2_haar():
    c = dwt2_forward(np.full((2, 2), 3.0), "haar")
    assert c[0, 0] == pytest.approx(6.0, abs=1e-15)
    assert np.abs(np.delete(c.ravel(), 0)).max() == 0.0


@pytest.mark.parametrize("wavelet", ["haar", "db4"])
def test_dwt2_energy_preserved(wavelet):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 16))
    c = dwt2_forward(x, wavelet)
    assert abs(np.linalg.norm(c) - np.linalg.norm(x)) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("wavelet", ["haar", "db4"])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_dwt2_round_trip(wavelet, levels):
    # 8x8, 16x16 and 32x32 take depths 1, 2 and 3
    size = 4 << levels
    assert one_band((size, size), wavelet).levels == levels
    rng = np.random.default_rng(levels)
    x = rng.standard_normal((size, size))
    back = dwt2_inverse(dwt2_forward(x, wavelet), wavelet)
    assert np.abs(back - x).max() <= 1e-12


def test_dwt2_rejects_non_dyadic():
    # an odd side halves no times, so no depth fits it
    with pytest.raises(DimensionError, match="must both be even"):
        dwt2_forward(np.zeros((9, 8)))
    with pytest.raises(DimensionError, match="must both be even"):
        dwt2_inverse(np.zeros((8, 7)))


def test_dct_spectral_constant_series():
    L = 8
    cube = np.full((2, 3, L), 1.5)
    out = dct_spectral_forward(cube)
    assert np.allclose(out[:, :, 0], 1.5 * np.sqrt(L), atol=1e-12)
    assert np.abs(out[:, :, 1:]).max() <= 1e-12


def test_dct_spectral_single_band_is_identity():
    rng = np.random.default_rng(1)
    cube = rng.standard_normal((4, 4, 1))
    assert np.abs(dct_spectral_forward(cube) - cube).max() <= 1e-15


def test_dct_spectral_round_trip():
    rng = np.random.default_rng(2)
    cube = rng.standard_normal((4, 4, 8))
    # the spectral step of SparsifyingTransform.inverse undoes the forward DCT
    back = _spectral(dct_spectral_forward(cube), _dct_matrix(8).T)
    assert np.abs(back - cube).max() <= 1e-12


def test_dct_matches_cosine_sum_reference():
    rng = np.random.default_rng(3)
    cube = rng.standard_normal((3, 2, 7))
    assert np.abs(dct_spectral_forward(cube) - dct2_reference(cube)).max() <= 1e-12


@pytest.mark.parametrize("M", [8, 16, 32])
@pytest.mark.parametrize("N", [8, 16, 32])
@pytest.mark.parametrize("L", [1, 4, 8])
def test_psi_parseval_grid(M, N, L):
    t = SparsifyingTransform(M, N, L)
    rng = np.random.default_rng(M * 100 + N * 10 + L)
    x = rng.standard_normal(t.n)
    theta = t.forward(x)
    assert abs(np.linalg.norm(theta) / np.linalg.norm(x) - 1.0) <= 1e-10


@pytest.mark.parametrize("wavelet", ["haar", "db4"])
def test_psi_round_trip(wavelet):
    t = SparsifyingTransform(16, 16, 4, wavelet=wavelet)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(t.n)
    assert np.abs(t.inverse(t.forward(x)) - x).max() <= 1e-12


def test_psi_inverse_is_adjoint():
    t = SparsifyingTransform(16, 8, 4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(t.n)
    y = rng.standard_normal(t.n)
    lhs = t.forward(x) @ y
    rhs = x @ t.inverse(y)
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)


def test_psi_constant_cube_single_coefficient():
    # full decimation: at depth 1 the approximation block of a 2x2 band is a single value
    t = SparsifyingTransform(2, 2, 4)
    assert t.levels == 1
    theta = t.forward(np.full(t.n, 2.0))
    nz = np.nonzero(np.abs(theta) > 1e-10)[0]
    assert nz.size == 1
    # spectral DC x deepest approximation lands at flat index 0
    assert nz[0] == 0
    assert theta[0] == pytest.approx(2.0 * np.sqrt(t.n), rel=1e-12)


def test_psi_pure_cosine_profile_single_spectral_group():
    M, N, L = 8, 8, 8
    t = SparsifyingTransform(M, N, L)
    smap = subband_map(M, N, L, t.levels)
    per_band = 3 * t.levels + 1
    for p in (0, 1, 3, 5):
        profile = np.cos(np.pi * (2 * np.arange(L) + 1) * p / (2 * L))
        cube = np.broadcast_to(profile, (M, N, L))
        theta = t.forward(np.asfortranarray(cube).reshape(-1, order="F"))
        groups = np.unique(smap.labels[np.abs(theta) > 1e-10])
        bands = {g // per_band for g in groups}
        assert bands == {p}


def test_psi_length_mismatch():
    t = SparsifyingTransform(8, 8, 2)
    with pytest.raises(DimensionError):
        t.forward(np.zeros(t.n + 1))
    with pytest.raises(DimensionError):
        t.inverse(np.zeros(t.n - 1))


def test_non_dyadic_rejected():
    # 6 halves once: a map two levels deep does not fit it
    with pytest.raises(DimensionError, match="divisible by 2\\^levels = 4"):
        subband_map(6, 8, 1, 2)
    with pytest.raises(DimensionError):
        SparsifyingTransform(12, 9, 2)


def test_default_levels():
    assert default_levels(32, 32) == 3
    assert default_levels(8, 8) == 1
    assert default_levels(2, 2) == 1
    assert default_levels(100, 100) == 2
    with pytest.raises(DimensionError, match="must both be even"):
        default_levels(9, 8)
    assert SparsifyingTransform(32, 32, 4).levels == 3


@pytest.mark.parametrize("M", [2, 6, 16, 64, 100])
@pytest.mark.parametrize("N", [8, 24, 128])
@pytest.mark.parametrize("L", [1, 5])
def test_transform_subbands_are_its_own_map(M, N, L):
    t = SparsifyingTransform(M, N, L)
    assert t.levels == default_levels(M, N)
    assert t.subbands == subband_map(M, N, L, t.levels)


def test_subband_map_2x2_singletons():
    smap = subband_map(2, 2, 1, 1)
    assert smap.n_groups == 4
    assert list(np.bincount(smap.labels)) == [1, 1, 1, 1]


def test_subband_map_4x4_two_bands():
    smap = subband_map(4, 4, 2, 1)
    assert smap.n_groups == 8
    assert np.all(np.bincount(smap.labels) == 4)
    # group l * (3J + 1) + s: the first coefficient is band 0's ll1, the last band 1's hh1
    assert smap.labels[0] == 0
    assert smap.labels[-1] == 7


def test_subband_map_is_partition():
    rng = np.random.default_rng(6)
    for _ in range(5):
        levels = int(rng.integers(1, 3))
        M, N = 8 * int(rng.integers(1, 4)), 8 * int(rng.integers(1, 4))
        L = int(rng.integers(1, 6))
        smap = subband_map(M, N, L, levels)
        assert smap.labels.size == M * N * L
        areas = np.tile([(r.stop - r.start) * (c.stop - c.start) for r, c in smap.blocks], L)
        assert areas.sum() == M * N * L
        assert np.all(np.bincount(smap.labels, minlength=smap.n_groups) == areas)
        assert smap.labels.min() == 0
        assert smap.labels.max() == smap.n_groups - 1



def _filter_pair(wavelet):
    h = WAVELET_FILTERS[wavelet]
    return h, ((-1.0) ** np.arange(h.size)) * h[::-1]


def _analyze_axis0_oracle(x, h, g):
    """Gather-form periodized split along axis 0: row 2i + t (mod n) feeds output i."""
    n = x.shape[0]
    base = 2 * np.arange(n // 2)
    lo = np.zeros((n // 2,) + x.shape[1:])
    hi = np.zeros_like(lo)
    for t in range(h.size):
        xt = x[(base + t) % n]
        lo += h[t] * xt
        hi += g[t] * xt
    return lo, hi


def _synthesize_axis0_oracle(lo, hi, h, g):
    """Gather-form transpose of :func:`_analyze_axis0_oracle`."""
    n = 2 * lo.shape[0]
    base = 2 * np.arange(n // 2)
    out = np.zeros((n,) + lo.shape[1:])
    for t in range(h.size):
        out[(base + t) % n] += h[t] * lo + g[t] * hi
    return out


def psi_oracle(cube, wavelet, levels):
    """Spectral DCT, then the packed J-level wavelet of each band (rows split, then columns)."""
    h, g = _filter_pair(wavelet)
    out = dct_spectral_forward(cube)
    m, n = cube.shape[:2]
    for _ in range(levels):
        rows = np.concatenate(_analyze_axis0_oracle(out[:m, :n], h, g), axis=0)
        cols = np.concatenate(_analyze_axis0_oracle(np.swapaxes(rows, 0, 1), h, g), axis=0)
        out[:m, :n] = np.swapaxes(cols, 0, 1)
        m //= 2
        n //= 2
    return out.reshape(-1, order="F")


def psi_t_oracle(theta, shape, wavelet, levels):
    """Transpose of :func:`psi_oracle`: the inverse DCT first (the factors commute),
    then columns merged, then rows, coarsest level first."""
    h, g = _filter_pair(wavelet)
    out = dct_spectral_inverse(theta.reshape(shape, order="F"))
    for j in range(levels, 0, -1):
        m, n = shape[0] >> (j - 1), shape[1] >> (j - 1)
        t = np.swapaxes(out[:m, :n], 0, 1)
        cols = np.swapaxes(_synthesize_axis0_oracle(t[: n // 2], t[n // 2 :], h, g), 0, 1)
        out[:m, :n] = _synthesize_axis0_oracle(cols[: m // 2], cols[m // 2 :], h, g)
    return out.reshape(-1, order="F")


# levels is the depth the size takes. db4 blocks of 2 and 4 rows (the 2x2, 4x4
# and 4x8 cubes) are shorter than the filter and wrap more than once; the
# multi-chunk case (multi_chunk_shape) crosses band-chunk boundaries
@pytest.mark.parametrize("wavelet", ["haar", "db4"])
@pytest.mark.parametrize(
    "M, N, L, levels",
    [(2, 2, 1, 1), (4, 4, 1, 1), (4, 8, 3, 1), (8, 8, 1, 1), (16, 8, 1, 1), (16, 16, 1, 2),
     (32, 16, 1, 2), (8, 8, 4, 1), (16, 8, 5, 1), (32, 32, 8, 3), (64, 64, 2, 4),
     pytest.param(None, None, None, 4, id="multi-chunk")],
)
def test_psi_matches_gather_form_oracle(multi_chunk_shape, wavelet, M, N, L, levels):
    if M is None:
        M, N, L = multi_chunk_shape
    rng = np.random.default_rng(M + N + L + levels)
    t = SparsifyingTransform(M, N, L, wavelet)
    assert t.levels == levels
    x = rng.standard_normal(t.n)
    y = rng.standard_normal(t.n)
    got, want = t.forward(x), psi_oracle(x.reshape((M, N, L), order="F"), wavelet, levels)
    got_t, want_t = t.inverse(y), psi_t_oracle(y, (M, N, L), wavelet, levels)
    assert np.array_equal(got, want)
    assert np.array_equal(got_t, want_t)


def test_psi_inverse_matches_dense_transpose_db4():
    t = SparsifyingTransform(16, 16, 2, "db4")
    assert t.levels == 2
    dense = np.stack([t.forward(e) for e in np.eye(t.n)], axis=1)
    rng = np.random.default_rng(7)
    y = rng.standard_normal(t.n)
    assert np.abs(t.inverse(y) - dense.T @ y).max() <= 1e-13


@st.composite
def psi_instances(draw):
    M = 1 << draw(st.integers(1, 6))
    N = 1 << draw(st.integers(1, 6))
    L = draw(st.integers(1, 8))
    wavelet = draw(st.sampled_from(["haar", "db4"]))
    return SparsifyingTransform(M, N, L, wavelet), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(psi_instances())
def test_psi_round_trip_and_energy_property(instance):
    t, seed = instance
    x = np.random.default_rng(seed).standard_normal(t.n)
    theta = t.forward(x)
    assert abs(np.linalg.norm(theta) / np.linalg.norm(x) - 1.0) <= 1e-12
    assert np.abs(t.inverse(theta) - x).max() <= 1e-12


@pytest.mark.parametrize("wavelet", ["haar", "db4"])
def test_psi_across_band_chunks_matches_band_by_band(multi_chunk_shape, wavelet):
    # the spectral DCT, then a 1-band transform per band (its DCT is [[1.0]]):
    # the chunked wavelet levels must give the same bits in every chunk
    M, N, L = multi_chunk_shape
    t = SparsifyingTransform(M, N, L, wavelet)
    band = SparsifyingTransform(M, N, 1, wavelet)
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal(t.n), rng.standard_normal(t.n)

    def per_band(op, cube):
        planes = [op(cube[:, :, l].reshape(-1, order="F")) for l in range(L)]
        return np.column_stack(planes).reshape(-1, order="F")

    want = per_band(band.forward, dct_spectral_forward(x.reshape((M, N, L), order="F")))
    want_t = per_band(band.inverse, dct_spectral_inverse(y.reshape((M, N, L), order="F")))
    assert np.array_equal(t.forward(x), want)
    assert np.array_equal(t.inverse(y), want_t)


@pytest.mark.parametrize("wavelet", ["haar", "db4"])
@pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "multi-chunk"])
def test_psi_t_into_given_buffer_matches_fresh(multi_chunk_shape, wavelet, chunked):
    M, N, L = multi_chunk_shape if chunked else (16, 8, 3)
    t = SparsifyingTransform(M, N, L, wavelet)
    theta = np.random.default_rng(14).standard_normal(t.n)
    buf = np.full(t.n, np.nan)
    assert t.inverse(theta, out=buf) is buf
    assert np.array_equal(buf, t.inverse(theta))


def _read_only(n):
    a = np.zeros(n)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize(
    "make_out, error, message",
    [
        (lambda theta: theta, ValueError, "share memory"),
        (lambda theta: theta.base[3 : 3 + theta.size], ValueError, "share memory"),
        (lambda theta: np.zeros(theta.size + 1), DimensionError, "output values"),
        (lambda theta: _read_only(theta.size), ValueError, "writeable"),
        (lambda theta: np.zeros(theta.size, dtype=np.float32), ValueError, "float64"),
        (lambda theta: np.zeros(2 * theta.size)[::2], ValueError, "contiguous"),
    ],
    ids=["theta", "overlap", "length", "read-only", "float32", "strided"],
)
def test_psi_t_rejects_unusable_buffer(make_out, error, message):
    t = SparsifyingTransform(8, 8, 2)
    theta = np.random.default_rng(15).standard_normal(t.n + 8)[:t.n]
    with pytest.raises(error, match=message):
        t.inverse(theta, out=make_out(theta))
