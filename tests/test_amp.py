import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cassirecon.amp import (
    AmpConfig,
    AmpState,
    AmpTrace,
    amp_iteration,
    damp,
    noise_estimate,
    pseudo_data,
    residual_step,
    run_amp,
)
from cassirecon.errors import DimensionError, DivergenceError
from cassirecon.metrics import add_noise
from cassirecon.operator import (
    CassiModel,
    CodedApertureSet,
    DispersionWeights,
    forward_apply,
    generate_apertures,
    materialize,
)
from cassirecon.phantoms import phantom_cube
from cassirecon.transforms import SparsifyingTransform, subband_map
from cassirecon.wiener import denoise_cube, estimate_stats, shrink_derivative_mean

W = DispersionWeights(0.25, 0.5, 0.25)


def small_model(seed=1):
    return CassiModel(generate_apertures(8, 8, 2, "complementary", seed), W, bands=4)


def setup_solver(model):
    return SparsifyingTransform(model.rows, model.cols, model.bands)


def test_residual_onsager_vanishes_with_zero_previous_residual():
    # r_prev = 0 kills the correction regardless of the stored gain
    model = small_model()
    rng = np.random.default_rng(1)
    f = rng.standard_normal(model.n)
    g = rng.standard_normal(model.m)
    for d in (0.0, 0.37, 1.0):
        r = residual_step(f, np.zeros(model.m), d, g, model)
        assert np.array_equal(r, g - forward_apply(model, f))


def test_residual_zero_gain_is_plain_residual():
    model = small_model()
    rng = np.random.default_rng(2)
    f = rng.standard_normal(model.n)
    g = rng.standard_normal(model.m)
    r_prev = rng.standard_normal(model.m)
    r = residual_step(f, r_prev, 0.0, g, model)
    assert np.array_equal(r, g - forward_apply(model, f))


def test_damp_alpha_one_returns_new_exactly():
    rng = np.random.default_rng(3)
    new, old = rng.standard_normal((2, 50))
    assert np.array_equal(damp(new, old, 1.0), new)


def test_damp_scalar_example():
    assert damp(np.array(1.0), np.array(0.0), 0.2) == pytest.approx(0.2, abs=1e-16)


def test_damp_fixed_point():
    v = np.array([0.5, -1.25, 3.0])
    for alpha in (0.1, 0.5, 1.0):
        assert np.allclose(damp(v, v, alpha), v, atol=1e-16)


def test_damp_validation():
    with pytest.raises(ValueError):
        damp(np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(DimensionError):
        damp(np.zeros(3), np.zeros(4), 0.5)


@settings(max_examples=25, deadline=None)
@given(
    shape=st.one_of(st.just(()), st.integers(262_145, 393_215).map(lambda n: (n,))),
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_damp_matches_the_expression(shape, alpha, seed):
    rng = np.random.default_rng(seed)
    new, old = rng.standard_normal(shape), 1e3 * rng.standard_normal(shape)
    kept = old.copy()
    want = alpha * new + (1.0 - alpha) * old
    assert damp(new, old, alpha) is new
    assert np.array_equal(new, want)
    assert np.array_equal(old, kept)
    # old may be new itself
    v = old.copy()
    assert np.array_equal(damp(v, v, alpha), alpha * old + (1.0 - alpha) * old)
    # a list is converted, and the float64 copy is written and returned
    listed = damp(new.tolist(), old, alpha)
    assert isinstance(listed, np.ndarray) and listed.dtype == np.float64


def test_damp_writes_through_a_strided_view_across_chunks():
    # rows of a 2-D view that is not contiguous, in several row chunks
    rng = np.random.default_rng(5)
    base = rng.standard_normal((200_000, 6))
    new, old = base[:, ::2], rng.standard_normal((200_000, 3))
    want = 0.3 * new + 0.7 * old
    assert damp(new, old, 0.3) is new
    assert np.array_equal(base[:, ::2], want)


def test_pseudo_data_zero_residual():
    model = small_model()
    rng = np.random.default_rng(4)
    f = rng.standard_normal(model.n)
    assert np.array_equal(pseudo_data(f, np.zeros(model.m), model), f)


def test_pseudo_data_matched_filter():
    model = small_model()
    rng = np.random.default_rng(5)
    g = rng.standard_normal(model.m)
    H = materialize(model)
    q = pseudo_data(np.zeros(model.n), g, model)
    assert np.abs(q - H.T @ g).max() <= 1e-12


def test_noise_estimate_examples():
    assert noise_estimate(np.zeros(10)) == 0.0
    assert noise_estimate(np.array([3.0, 4.0])) == 12.5
    rng = np.random.default_rng(6)
    r = rng.standard_normal(64)
    assert noise_estimate(2.0 * r) == pytest.approx(4.0 * noise_estimate(r), rel=1e-14)


def reference_iteration(H, R, f, r_prev, d_prev, g, alpha, transform, smap):
    """Straight-line dense-matrix transcription of one iteration."""
    r = g - H @ f + (1.0 / R) * r_prev * d_prev
    r = alpha * r + (1.0 - alpha) * r_prev
    q = H.T @ r + f
    sigma2 = (1.0 / r.size) * np.sum(r**2)
    theta = transform.forward(q)
    n_groups = smap.n_groups
    means = np.zeros(n_groups)
    variances = np.zeros(n_groups)
    for gid in range(n_groups):
        members = theta[smap.labels == gid]
        means[gid] = members.mean()
        variances[gid] = ((members - members.mean()) ** 2).mean()
    gains = np.where(variances > 0, np.maximum(0.0, variances - sigma2) / np.where(variances > 0, variances, 1.0), 0.0)
    theta_hat = gains[smap.labels] * (theta - means[smap.labels]) + means[smap.labels]
    deriv = gains[smap.labels].mean()
    f_next = alpha * transform.inverse(theta_hat) + (1.0 - alpha) * f
    return f_next, r, sigma2, deriv


def test_iteration_matches_dense_reference():
    model = small_model(seed=7)
    H = materialize(model)
    t = setup_solver(model)
    smap = subband_map(model.rows, model.cols, model.bands, t.levels)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(model.n)
    r_prev = rng.standard_normal(model.m)
    g = rng.standard_normal(model.m)
    d_prev = 0.42
    alpha = 0.2
    state = AmpState(f=f, r=r_prev, sigma2=0.3, deriv_mean=d_prev, t=2)
    trace = AmpTrace("sigma2", "residual_norm", "derivative_mean", "wall_ms")
    new = amp_iteration(state, g, model, t, alpha, trace)
    ref_f, ref_r, ref_s2, ref_d = reference_iteration(
        H, model.rate, f, r_prev, d_prev, g, alpha, t, smap
    )
    assert np.abs(new.f - ref_f).max() <= 1e-12
    assert np.abs(new.r - ref_r).max() <= 1e-12
    assert abs(new.sigma2 - ref_s2) <= 1e-12
    assert abs(new.deriv_mean - ref_d) <= 1e-12


def test_alpha_one_equals_undamped_composition():
    model = small_model(seed=8)
    t = setup_solver(model)
    rng = np.random.default_rng(8)
    f = rng.standard_normal(model.n)
    r_prev = 0.1 * rng.standard_normal(model.m)
    g = rng.standard_normal(model.m)
    state = AmpState(f=f, r=r_prev, sigma2=0.1, deriv_mean=0.5, t=3)
    new = amp_iteration(state, g, model, t, 1.0)

    r = residual_step(f, r_prev, 0.5, g, model)
    q = pseudo_data(f, r, model)
    sigma2 = noise_estimate(r)
    f_half, deriv = denoise_cube(q, sigma2, t)
    assert np.array_equal(new.r, r)
    assert np.array_equal(new.f, f_half)
    assert new.sigma2 == sigma2 and new.deriv_mean == deriv


def test_identity_like_operator_recovers_signal_in_one_step():
    # all-ones aperture, single diagonal, K=L=1: H embeds the image in the
    # detector, so the first pseudo-data vector is exactly the ground truth
    model = CassiModel(
        CodedApertureSet(np.ones((1, 8, 8), dtype=np.uint8)),
        DispersionWeights(0.0, 1.0, 0.0),
        bands=1,
    )
    rng = np.random.default_rng(9)
    f0 = rng.standard_normal(model.n)
    g = forward_apply(model, f0)
    r1 = residual_step(np.zeros(model.n), np.zeros(model.m), 0.0, g, model)
    assert np.array_equal(r1, g)
    q1 = pseudo_data(np.zeros(model.n), r1, model)
    assert np.abs(q1 - f0).max() <= 1e-12
    # noiseless shrinkage is the identity, so one denoise recovers f0
    t = setup_solver(model)
    f2, _ = denoise_cube(q1, 0.0, t)
    assert np.abs(f2 - f0).max() <= 1e-12


def test_iteration_leaves_the_old_state_alone():
    # criterion 05 and callers reuse the state they pass in
    model = small_model(seed=8)
    t = setup_solver(model)
    rng = np.random.default_rng(21)
    state = AmpState(
        f=rng.standard_normal(model.n), r=rng.standard_normal(model.m), sigma2=0.3, deriv_mean=0.4, t=2
    )
    f_bytes, r_bytes = state.f.tobytes(), state.r.tobytes()
    g = rng.standard_normal(model.m)
    nxt = amp_iteration(state, g, model, t, 0.5)
    assert state.f.tobytes() == f_bytes and state.r.tobytes() == r_bytes
    for a in (nxt.f, nxt.r):
        for b in (state.f, state.r, g):
            assert not np.shares_memory(a, b)


def test_iteration_holds_three_cubes(traced_peak):
    # with the old iterate as input, q (which becomes f_half) is the only
    # other cube-sized array; the residual, the chunk scratch and the
    # operator's temporaries are small. A fresh Psi output makes a second
    # cube, and a fresh Psi^T output on top a third (3.47 here).
    M, N, L = 64, 512, 22
    model = CassiModel(generate_apertures(M, N, 2, "complementary", 3), W, bands=L)
    t = setup_solver(model)
    rng = np.random.default_rng(22)
    state = AmpState(
        f=rng.random(model.n), r=0.01 * rng.standard_normal(model.m), sigma2=0.1, deriv_mean=0.3, t=2
    )
    g = rng.standard_normal(model.m)
    amp_iteration(state, g, model, t, 0.2)  # first-use caches
    peak = traced_peak(lambda: amp_iteration(state, g, model, t, 0.2))
    assert peak / state.f.nbytes < 3.0


def test_run_amp_holds_two_cubes(traced_peak):
    # the old iterate and one working cube: q takes the adjoint's output,
    # Psi, the shrink and Psi^T all run in its buffer, and the iterate's damp
    # and float32 check work a row chunk at a time (3.36 cubes with Psi's
    # fresh output and a cube-sized damp tail)
    M, N, L = 256, 256, 24
    model = CassiModel(generate_apertures(M, N, 2, "complementary", 3), W, bands=L)
    g = np.random.default_rng(23).standard_normal(model.m)
    config = AmpConfig(max_iter=2)
    run_amp(g, model, config)  # first-use caches
    assert traced_peak(lambda: run_amp(g, model, config)) / (8 * model.n) < 2.5


def test_run_single_iteration_matches_manual():
    model = small_model(seed=10)
    t = setup_solver(model)
    rng = np.random.default_rng(10)
    g = rng.standard_normal(model.m)
    config = AmpConfig(alpha=0.3, max_iter=1)
    f_hat, trace = run_amp(g, model, config)
    state = AmpState(f=np.zeros(model.n), r=np.zeros(model.m))
    manual = amp_iteration(state, g, model, t, 0.3)
    assert np.array_equal(f_hat, manual.f)
    assert len(trace) == 1


def test_default_config():
    config = AmpConfig()
    assert config.alpha == 0.2
    assert config.max_iter == 400


def test_config_validation():
    with pytest.raises(ValueError):
        AmpConfig(alpha=0.0)
    with pytest.raises(ValueError):
        AmpConfig(alpha=1.2)
    with pytest.raises(ValueError):
        AmpConfig(max_iter=0)
    with pytest.raises(ValueError):
        AmpConfig(max_iter=2.5)


def test_trace_records_every_iteration():
    model = small_model(seed=11)
    rng = np.random.default_rng(11)
    cube = phantom_cube(8, 8, 4, "gaussian-blobs", seed=11)
    g, _ = add_noise(forward_apply(model, cube.values), 20.0, seed=11)
    f_hat, trace = run_amp(g, model, AmpConfig(alpha=0.2, max_iter=25), truth=cube.values)
    assert len(trace) == 25
    assert len(trace.psnr) == 25
    assert all(np.isfinite(s) and s >= 0.0 for s in trace.sigma2)
    csv = trace.to_csv()
    header = csv.splitlines()[0]
    assert header == "iter,sigma2,residual_norm,derivative_mean,psnr,wall_ms"
    assert len(csv.splitlines()) == 26


def test_trace_derivative_matches_recomputation():
    model = small_model(seed=12)
    t = setup_solver(model)
    smap = subband_map(model.rows, model.cols, model.bands, t.levels)
    rng = np.random.default_rng(12)
    g = rng.standard_normal(model.m)
    state = AmpState(f=np.zeros(model.n), r=np.zeros(model.m))
    trace = AmpTrace("sigma2", "residual_norm", "derivative_mean", "wall_ms")
    new = amp_iteration(state, g, model, t, 0.2, trace)
    # recompute the shrinkage statistics this iteration actually used
    q = pseudo_data(state.f, new.r, model)
    stats = estimate_stats(t.forward(q), smap)
    assert abs(trace.derivative_mean[0] - shrink_derivative_mean(stats, new.sigma2, smap)) <= 1e-15


def test_run_is_deterministic():
    model = small_model(seed=13)
    cube = phantom_cube(8, 8, 4, "gaussian-blobs", seed=13)
    g, _ = add_noise(forward_apply(model, cube.values), 20.0, seed=13)
    config = AmpConfig(alpha=0.2, max_iter=20)
    f1, t1 = run_amp(g, model, config, truth=cube.values)
    f2, t2 = run_amp(g, model, config, truth=cube.values)
    assert np.array_equal(f1, f2)
    assert t1.sigma2 == t2.sigma2
    assert t1.residual_norm == t2.residual_norm
    assert t1.derivative_mean == t2.derivative_mean
    assert t1.psnr == t2.psnr


def test_divergence_raises_structured_error():
    model = small_model(seed=14)
    g = np.full(model.m, 1e160)
    with pytest.raises(DivergenceError) as exc:
        run_amp(g, model, AmpConfig(alpha=0.2, max_iter=10))
    assert exc.value.iteration == 1
    assert exc.value.trace is not None


def test_residual_overflow_raises_at_its_iteration():
    # g - H f overflows to -inf: the residual check fires before the noise estimate's
    model = small_model()
    state = AmpState(f=np.full(model.n, 1e308), r=np.zeros(model.m), t=3)
    trace = AmpTrace("sigma2", "residual_norm", "derivative_mean", "wall_ms")
    t = setup_solver(model)
    with pytest.raises(DivergenceError, match="residual") as exc:
        amp_iteration(state, np.zeros(model.m), model, t, 0.2, trace)
    assert exc.value.iteration == 3
    assert exc.value.trace is trace


def test_finite_runaway_raises_with_partial_trace():
    # at alpha 0.5 this instance runs away while float64 stays finite; the
    # noise estimate is the first stage to leave the float32 range
    cube = phantom_cube(32, 32, 16, "gaussian-blobs", seed=0)
    model = CassiModel(generate_apertures(32, 32, 8, "complementary", seed=1), W, bands=16)
    g, _ = add_noise(forward_apply(model, cube.values), 20.0, seed=2)
    with pytest.raises(DivergenceError, match="in noise estimate at iteration 25$") as exc:
        run_amp(g, model, AmpConfig(alpha=0.5, max_iter=100), truth=cube.values)
    assert exc.value.iteration == 25
    assert len(exc.value.trace) == 24 and len(exc.value.trace.psnr) == 24


@pytest.mark.parametrize(
    "stage, denoised",
    [
        # a NaN mean gain, as an overflowed group variance gives
        ("group variances", lambda q: (q, float("nan"))),
        # a finite denoised cube beyond the float32 range
        ("iterate", lambda q: (np.full_like(q, 1e39), 0.5)),
    ],
    ids=["group-variances", "iterate"],
)
def test_denoiser_stages_raise_at_their_iteration(monkeypatch, stage, denoised):
    monkeypatch.setattr("cassirecon.amp.denoise_cube", lambda q, *args, **kwargs: denoised(q))
    model = small_model()
    t = setup_solver(model)
    state = AmpState(f=np.zeros(model.n), r=np.zeros(model.m), t=4)
    trace = AmpTrace("sigma2", "residual_norm", "derivative_mean", "wall_ms")
    with pytest.raises(DivergenceError, match=f"in {stage} at iteration 4$") as exc:
        amp_iteration(state, np.ones(model.m), model, t, 1.0, trace)
    assert exc.value.iteration == 4
    assert exc.value.trace is trace


def test_run_rejects_wrong_lengths():
    model = small_model()
    with pytest.raises(DimensionError):
        run_amp(np.zeros(model.m + 3), model, AmpConfig(max_iter=1))
    with pytest.raises(DimensionError):
        run_amp(np.zeros(model.m), model, AmpConfig(max_iter=1), truth=np.zeros(5))


AMP_RUN = ("run_amp(g, model, AmpConfig(max_iter=5))", "iter,sigma2,residual_norm,derivative_mean")
FISTA_RUN = (
    "fista_run(g, model, SparsifyingTransform(M, N, L), L1Config(lam=0.01, max_iter=5))",
    "iter,objective,residual_norm",
)


@pytest.mark.parametrize(
    "run, header, dims",
    [
        (*AMP_RUN, (32, 32, 16, 8)),
        (*FISTA_RUN, (32, 32, 16, 8)),
        (*AMP_RUN, (64, 64, 24, 2)),
        (*FISTA_RUN, (64, 64, 24, 2)),
    ],
    ids=["amp", "fista", "amp-64x64x24", "fista-64x64x24"],
)
def test_trace_bits_do_not_follow_the_blas_thread_count(run, header, dims):
    # at 32x32x16, K=8, m = 12,544 measurements: above 10,000 entries a BLAS
    # dot is threaded, and its last bits change with the thread count. At
    # 64x64x24 the spectral DCT's GEMMs are the ones a wider pixel block
    # would hand to more than one thread.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"""
import hashlib
from cassirecon import AmpConfig, CassiModel, DispersionWeights, L1Config, SparsifyingTransform
from cassirecon import add_noise, fista_run, forward_apply, generate_apertures, phantom_cube, run_amp
M, N, L, K = {dims}
cube = phantom_cube(M, N, L, seed=0)
model = CassiModel(generate_apertures(M, N, K, 'complementary', 0), DispersionWeights(0.25, 0.5, 0.25), bands=L)
g, _ = add_noise(forward_apply(model, cube.values), 20.0, seed=0)
f, trace = {run}
print(hashlib.sha256(f.tobytes()).hexdigest())
print(trace.to_csv(), end='')
"""

    def digest_and_rows(threads):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digest, *rows = done.stdout.splitlines()
        return digest, [row.rsplit(",", 1)[0] for row in rows]  # without wall_ms

    one = digest_and_rows("1")
    assert one[1][0] == header and len(one[1]) == 6
    assert digest_and_rows("2") == one
