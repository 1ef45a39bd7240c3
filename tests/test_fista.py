import numpy as np
import pytest

from cassirecon.cubes import row_chunks
from cassirecon.errors import DimensionError, DivergenceError
from cassirecon.fista import L1Config, fista_run, soft_threshold, sweep_lambda
from cassirecon.metrics import Trace, add_noise
from cassirecon.operator import (
    CassiModel,
    CodedApertureSet,
    DispersionWeights,
    adjoint_apply,
    forward_apply,
    generate_apertures,
    materialize,
    operator_norm_squared,
)
from cassirecon.phantoms import phantom_cube
from cassirecon.transforms import SparsifyingTransform

W = DispersionWeights(0.25, 0.5, 0.25)


def small_model(seed=1):
    return CassiModel(generate_apertures(8, 8, 2, "complementary", seed), W, bands=4)


def test_soft_threshold_examples():
    theta = np.array([2.0, -0.3, 0.0, 1.2])
    assert np.array_equal(soft_threshold(theta, 0.0), theta)
    out = soft_threshold(theta, 0.5)
    assert out[0] == 1.5
    assert out[1] == 0.0
    assert np.count_nonzero(out) <= np.count_nonzero(theta)
    for tau in (-0.1, np.nan):
        with pytest.raises(ValueError):
            soft_threshold(theta, tau)


def test_soft_threshold_never_grows_support():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(100)
    theta[rng.random(100) < 0.5] = 0.0
    for tau in (0.0, 0.1, 1.0):
        assert np.count_nonzero(soft_threshold(theta, tau)) <= np.count_nonzero(theta)


def test_soft_threshold_matches_sign_formula_and_keeps_input():
    rng = np.random.default_rng(12)
    tau = 0.7
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
    near_tau = [np.nextafter(v, d) for v in (tau, -tau) for d in (-np.inf, np.inf)]
    theta = np.concatenate([rng.standard_normal(500) * 2, special, near_tau, [tau, -tau]])
    before = theta.copy()
    for thr in (0.0, tau):
        want = np.sign(theta) * np.maximum(np.abs(theta) - thr, 0.0)
        assert np.array_equal(soft_threshold(theta, thr), want, equal_nan=True)
    assert np.array_equal(theta, before, equal_nan=True)


def test_soft_threshold_in_place_matches_fresh_across_row_chunks():
    # 1-D row chunks hold 131,072 values, so this vector spans three
    rng = np.random.default_rng(13)
    tau = 0.7
    theta = rng.standard_normal(2 * 131_072 + 1_000)
    theta[rng.random(theta.size) < 0.1] = 0.0
    theta[rng.random(theta.size) < 0.1] = -0.0
    theta[[5, 200_000, -3]] = [np.inf, -np.inf, np.nan]
    want = soft_threshold(theta, tau)
    assert soft_threshold(theta, tau, out=theta) is theta
    assert np.array_equal(theta, want, equal_nan=True)
    assert np.array_equal(np.signbit(theta), np.signbit(want))
    assert np.signbit(theta[theta == 0.0]).any()


def _itself(x):
    return x, x


def _read_only(x):
    x.flags.writeable = False
    return x


@pytest.mark.parametrize(
    "make_args",
    [
        lambda x: (x, x.copy()),
        lambda x: _itself(_read_only(x)),
        lambda x: _itself(np.repeat(x, 2)[::2]),
        lambda x: _itself(x.astype(np.float32)),
    ],
    ids=["other-array", "read-only", "strided", "float32"],
)
def test_soft_threshold_accepts_out_only_as_its_input(make_args):
    theta, out = make_args(np.random.default_rng(14).standard_normal(50))
    with pytest.raises(ValueError, match="out must be None or the input itself"):
        soft_threshold(theta, 0.1, out=out)


def counting(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def test_one_operator_and_transform_call_each_per_iteration(monkeypatch):
    model = small_model(seed=12)
    t = SparsifyingTransform(8, 8, 4)
    g = np.random.default_rng(12).standard_normal(model.m)
    calls = {}
    monkeypatch.setattr("cassirecon.fista.forward_apply", counting(calls, "H", forward_apply))
    monkeypatch.setattr("cassirecon.fista.adjoint_apply", counting(calls, "H^T", adjoint_apply))
    monkeypatch.setattr(
        SparsifyingTransform, "forward", counting(calls, "Psi", SparsifyingTransform.forward)
    )
    monkeypatch.setattr(
        SparsifyingTransform, "inverse", counting(calls, "Psi^T", SparsifyingTransform.inverse)
    )
    fista_run(g, model, t, L1Config(lam=0.05, max_iter=5, step=0.5))
    assert calls == {"H": 5, "H^T": 5, "Psi": 5, "Psi^T": 5}


def test_fista_run_holds_two_cubes(traced_peak):
    # x and y: the adjoint adds the gradient step into y, and Psi, the soft
    # threshold and Psi^T write over it; the next momentum point goes over
    # the old x or the rejected z. At 128x128x24 a chunk is a third of a
    # cube, so each layer's scratch shows: 2.81 cubes with a ping-pong buffer
    # and product temporaries in Psi and Psi^T, a band-chunk buffer in the
    # adjoint and two chunk temporaries in the soft threshold
    for (M, N, L), bound in [((64, 512, 22), 2.75), ((128, 128, 24), 2.6)]:
        model = CassiModel(generate_apertures(M, N, 2, "complementary", 3), W, bands=L)
        t = SparsifyingTransform(M, N, L)
        g = np.random.default_rng(22).standard_normal(model.m)
        config = L1Config(lam=0.01, max_iter=3, step=0.1)
        fista_run(g, model, t, config)  # first-use caches
        assert traced_peak(lambda: fista_run(g, model, t, config)) / (8 * model.n) < bound


@pytest.mark.parametrize(
    "transform_dims, truth, message",
    [
        ((16, 16, 4), np.zeros(5), r"expected 1024 truth values, got 5"),
        ((8, 8, 4), None, r"transform shape \(8, 8, 4\) differs from the model's \(16, 16, 4\)"),
    ],
    ids=["truth", "transform"],
)
def test_fista_run_checks_inputs_before_the_power_method(monkeypatch, transform_dims, truth, message):
    calls = {}
    monkeypatch.setattr(
        "cassirecon.fista.operator_norm_squared",
        counting(calls, "power method", operator_norm_squared),
    )
    model = CassiModel(generate_apertures(16, 16, 2, "complementary", 1), W, bands=4)
    g = np.random.default_rng(1).standard_normal(model.m)
    t = SparsifyingTransform(*transform_dims)
    with pytest.raises(DimensionError, match=message):
        fista_run(g, model, t, L1Config(lam=0.1, max_iter=2), truth=truth)
    assert calls == {}


def dense_fista(g, H, P, lam, step, iters):
    """Straight-line FISTA with the monotone safeguard on a dense H and Psi.

    Returns the estimate, the objective and residual-norm columns, and the
    number of rejected candidates.
    """

    def objective(f):
        r = g - H @ f
        return 0.5 * (r @ r) + lam * np.abs(P @ f).sum()

    x = np.zeros(H.shape[1])
    y = x.copy()
    t_mom = 1.0
    fx = objective(x)
    objectives, residual_norms, rejected = [], [], 0
    for _ in range(iters):
        v = y - step * (H.T @ (H @ y - g))
        c = P @ v
        z = P.T @ (np.sign(c) * np.maximum(np.abs(c) - step * lam, 0.0))
        fz = objective(z)
        if fz <= fx:
            x_new, fx_new = z, fz
        else:
            x_new, fx_new = x, fx
            rejected += 1
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y = x_new + (t_mom / t_next) * (z - x_new) + ((t_mom - 1.0) / t_next) * (x_new - x)
        x, fx, t_mom = x_new, fx_new, t_next
        objectives.append(fx)
        residual_norms.append(np.linalg.norm(g - H @ x))
    return x, np.array(objectives), np.array(residual_norms), rejected


@pytest.mark.parametrize("step_scale, rejects", [(1.0, False), (1.9, True)], ids=["1/L", "1.9/L"])
def test_fista_matches_dense_transcription(step_scale, rejects):
    # 1.9/||H||^2 is past the stable step, so the safeguard keeps x for some
    # candidates: the branch that reuses H x and the residual of x
    model = small_model(seed=12)
    H = materialize(model)
    t = SparsifyingTransform(8, 8, 4)
    P = np.column_stack([t.forward(e) for e in np.eye(model.n)])
    g = np.random.default_rng(12).standard_normal(model.m)
    lam, iters = 0.05, 20
    step = step_scale / np.linalg.norm(H, 2) ** 2
    x_ref, obj_ref, res_ref, rejected = dense_fista(g, H, P, lam, step, iters)
    assert (rejected > 0) == rejects and rejected < iters
    f_hat, trace = fista_run(g, model, t, L1Config(lam=lam, max_iter=iters, step=step))
    assert np.abs(f_hat - x_ref).max() <= 1e-12
    np.testing.assert_allclose(trace.objective, obj_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.residual_norm, res_ref, rtol=1e-12, atol=0)


def straight_line_fista(g, model, t, lam, step, iters):
    """FISTA on the package's operator and transform, in the general form.

    The momentum point is ``x_new + a*(z - x_new) + b*(x_new - x)`` on both
    branches of the safeguard, and each step is written out as one
    expression; only the l1 term adds ``|s|`` a row chunk at a time, in
    order, and each sum of squares is NumPy's pairwise sum. Returns the
    estimate, the objective and residual-norm columns, and the number of
    rejected candidates.
    """
    x = np.zeros(model.n)
    y = x
    hx = np.zeros(model.m)
    hy = hx
    resid_x = g
    fx = 0.5 * float(np.add.reduce(g * g))
    t_mom = 1.0
    objectives, residual_norms, rejected = [], [], 0
    for _ in range(iters):
        grad = adjoint_apply(model, hy - g)
        s = soft_threshold(t.forward(y - step * grad), step * lam)
        z = t.inverse(s)
        hz = forward_apply(model, z)
        resid_z = g - hz
        l1 = 0.0
        for chunk in row_chunks(s):
            l1 += float(np.abs(chunk).sum())
        fz = 0.5 * float(np.add.reduce(resid_z * resid_z)) + lam * l1
        if fz <= fx:
            x_new, hx_new, resid_new, fx_new = z, hz, resid_z, fz
        else:
            x_new, hx_new, resid_new, fx_new = x, hx, resid_x, fx
            rejected += 1
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        a, b = t_mom / t_next, (t_mom - 1.0) / t_next
        y = x_new + a * (z - x_new) + b * (x_new - x)
        hy = hx_new + a * (hz - hx_new) + b * (hx_new - hx)
        x, hx, resid_x, fx, t_mom = x_new, hx_new, resid_new, fx_new, t_next
        objectives.append(fx)
        residual_norms.append(float(np.sqrt(np.add.reduce(resid_x * resid_x))))
    return x, objectives, residual_norms, rejected


@pytest.mark.parametrize(
    "dims, step_scale, rejects",
    [
        pytest.param((8, 8, 4), 1.0, False, id="1/L"),
        pytest.param((8, 8, 4), 1.9, True, id="1.9/L"),
        pytest.param((8, 8, 4), 4.5, True, id="4.5/L"),
        # 147,456 coefficients: the l1 term adds two row chunks
        pytest.param((64, 64, 36), 1.0, False, id="1/L-two-row-chunks"),
    ],
)
def test_fista_matches_straight_line_loop_exactly(dims, step_scale, rejects):
    # the solver forms the gradient step in place, drops the momentum
    # formula's zero term and carries ||g - H x||^2 instead of the residual;
    # that changes no value, only the sign of an exact zero in y, which
    # np.array_equal does not tell apart
    M, N, L = dims
    model = CassiModel(generate_apertures(M, N, 2, "complementary", 12), W, bands=L)
    t = SparsifyingTransform(M, N, L)
    g = np.random.default_rng(12).standard_normal(model.m)
    lam, iters = 0.05, 20
    step = step_scale / operator_norm_squared(model)
    x_ref, obj_ref, res_ref, rejected = straight_line_fista(g, model, t, lam, step, iters)
    assert (rejected > 0) == rejects and rejected < iters
    f_hat, trace = fista_run(g, model, t, L1Config(lam=lam, max_iter=iters, step=step))
    assert np.array_equal(f_hat, x_ref)
    assert trace.objective == obj_ref
    assert trace.residual_norm == res_ref
    if step_scale == 4.5:
        # the first candidate is rejected, so row 1 reports x = 0 from the carried start
        assert trace.objective[0] == 0.5 * float(np.add.reduce(g * g))
        assert trace.residual_norm[0] == float(np.sqrt(np.add.reduce(g * g)))


def test_power_method_permutation_embedding():
    model = CassiModel(
        CodedApertureSet(np.ones((1, 8, 8), dtype=np.uint8)),
        DispersionWeights(0.0, 1.0, 0.0),
        bands=1,
    )
    assert operator_norm_squared(model) == pytest.approx(1.0, rel=1e-10)


def assert_matches_dense_norm(model):
    # a power method's quotient is a lower bound: above the dense norm only by rounding
    dense = np.linalg.norm(materialize(model), 2) ** 2
    est = operator_norm_squared(model)
    assert np.isfinite(est)
    assert abs(est - dense) <= 1e-9 * dense
    assert est <= dense * (1.0 + 1e-12)


def test_power_method_close_to_dense_norm():
    assert_matches_dense_norm(small_model())


def random_model_with_closed_row():
    masks = generate_apertures(8, 8, 3, "random", seed=3).masks.copy()
    masks[:, 5] = 0
    return CassiModel(CodedApertureSet(masks), W, bands=4)


@pytest.mark.parametrize(
    "model",
    [CassiModel(generate_apertures(8, 8, 3, "random", seed=2), W, bands=4),
     random_model_with_closed_row()],
    ids=["random-K3", "closed-row"],
)
def test_power_method_matches_dense_norm_beyond_complementary_pairs(model):
    # random shots overlap, so the cross-shot counts are nonzero; a row
    # closed in every shot has a zero block and must not divide by zero
    assert_matches_dense_norm(model)


def test_power_method_memory_below_three_cubes_and_frames(traced_peak):
    # K(K+1)/2 overlap-count planes: at K = L = 16 the table alone is about
    # 1.3 cubes, next to the frames and their correlation
    model = CassiModel(generate_apertures(64, 64, 16, "random", seed=3), W, bands=16)
    cube, frames = 8 * model.n, 8 * model.m
    assert traced_peak(lambda: operator_norm_squared(model)) < 3 * cube + frames


def test_large_lambda_drives_estimate_to_zero():
    model = small_model(seed=4)
    t = SparsifyingTransform(8, 8, 4)
    rng = np.random.default_rng(4)
    g = rng.standard_normal(model.m)
    f_hat, _ = fista_run(g, model, t, L1Config(lam=1e6, max_iter=20))
    assert np.all(f_hat == 0.0)


def test_objective_monotone_under_restart():
    model = small_model(seed=5)
    t = SparsifyingTransform(8, 8, 4)
    cube = phantom_cube(8, 8, 4, "gaussian-blobs", seed=5)
    g, _ = add_noise(forward_apply(model, cube.values), 20.0, seed=5)
    _, trace = fista_run(g, model, t, L1Config(lam=0.01, max_iter=150))
    obj = np.array(trace.objective)
    assert np.all(np.diff(obj) <= 1e-9)


def test_zero_lambda_least_squares_residual_nonincreasing():
    model = small_model(seed=6)
    t = SparsifyingTransform(8, 8, 4)
    rng = np.random.default_rng(6)
    g = rng.standard_normal(model.m)
    _, trace = fista_run(g, model, t, L1Config(lam=0.0, max_iter=80))
    res = np.array(trace.residual_norm)
    assert np.all(np.diff(res) <= 1e-9)


def scalar_prox_1d(v, tau, grid=None):
    """Brute-force minimizer of 0.5*(u - v)^2 + tau*|u| on a fine grid."""
    if grid is None:
        grid = np.linspace(v - 2 * tau - 1, v + 2 * tau + 1, 40001)
    vals = 0.5 * (grid - v) ** 2 + tau * np.abs(grid)
    return grid[np.argmin(vals)]


def test_prox_matches_scalar_grid_search():
    rng = np.random.default_rng(7)
    for v in rng.standard_normal(20) * 2:
        for tau in (0.0, 0.25, 1.0):
            got = soft_threshold(np.array([v]), tau)[0]
            want = scalar_prox_1d(v, tau)
            assert abs(got - want) <= 2e-4  # grid resolution


def test_prox_minimizes_transform_domain_objective():
    # psi^T(soft(psi f, tau)) minimizes 0.5||x-f||^2 + tau*||psi x||_1;
    # verify no random perturbation does better on a tiny instance
    t = SparsifyingTransform(2, 2, 2)
    rng = np.random.default_rng(8)
    f = rng.standard_normal(t.n)
    tau = 0.3

    def objective(x):
        return 0.5 * np.sum((x - f) ** 2) + tau * np.abs(t.forward(x)).sum()

    prox = t.inverse(soft_threshold(t.forward(f), tau))
    base = objective(prox)
    for _ in range(300):
        delta = rng.standard_normal(t.n) * rng.choice([1e-3, 1e-2, 1e-1])
        assert objective(prox + delta) >= base - 1e-12


def test_sweep_lambda_reports_every_value():
    model = small_model(seed=9)
    t = SparsifyingTransform(8, 8, 4)
    cube = phantom_cube(8, 8, 4, "gaussian-blobs", seed=9)
    g, _ = add_noise(forward_apply(model, cube.values), 20.0, seed=9)
    lambdas = [1e-3, 1e-2, 1e-1]
    results = sweep_lambda(g, model, t, lambdas, max_iter=15)
    assert [lam for lam, _, _ in results] == lambdas
    for _, f_hat, trace in results:
        assert f_hat.shape == (model.n,)
        assert len(trace) == 15


@pytest.mark.parametrize(
    "lambdas, max_iter",
    [([0.1, 0.01, float("nan")], 200), ([0.1, -1.0], 200), ([0.1], 0), ([0.1], 2.5)],
    ids=["nan-last", "negative", "max_iter-0", "max_iter-2.5"],
)
def test_sweep_lambda_checks_every_config_before_any_work(monkeypatch, lambdas, max_iter):
    calls = {}
    monkeypatch.setattr("cassirecon.fista.fista_run", counting(calls, "solve", fista_run))
    monkeypatch.setattr(
        "cassirecon.fista.operator_norm_squared",
        counting(calls, "power method", operator_norm_squared),
    )
    model = small_model(seed=9)
    t = SparsifyingTransform(8, 8, 4)
    g = np.random.default_rng(9).standard_normal(model.m)
    with pytest.raises(ValueError):
        sweep_lambda(g, model, t, lambdas, max_iter=max_iter)
    assert calls == {}


def test_all_closed_apertures_reject_the_default_step():
    # H = 0, so no step 1/||H||^2 exists; both entry points say so
    model = CassiModel(CodedApertureSet(np.zeros((2, 8, 8), dtype=np.uint8)), W, bands=4)
    t = SparsifyingTransform(8, 8, 4)
    g = np.zeros(model.m)
    with pytest.raises(ValueError, match="operator norm estimate is zero"):
        fista_run(g, model, t, L1Config(lam=0.1, max_iter=1))
    with pytest.raises(ValueError, match="operator norm estimate is zero"):
        sweep_lambda(g, model, t, [0.1], max_iter=1)


def test_config_validation():
    with pytest.raises(ValueError):
        L1Config(lam=-0.5)
    with pytest.raises(ValueError):
        L1Config(lam=1.0, max_iter=0)
    with pytest.raises(ValueError):
        L1Config(lam=1.0, step=0.0)


@pytest.mark.parametrize(
    "lam, step",
    [(float("nan"), None), (float("inf"), None), (0.1, float("nan")), (0.1, float("inf"))],
    ids=["nan", "inf", "step-nan", "step-inf"],
)
def test_config_rejects_non_finite_lambda(lam, step):
    with pytest.raises(ValueError, match="finite"):
        L1Config(lam=lam, step=step)


def test_divergence_detected():
    model = small_model(seed=10)
    t = SparsifyingTransform(8, 8, 4)
    rng = np.random.default_rng(10)
    g = rng.standard_normal(model.m)
    with pytest.raises(DivergenceError):
        fista_run(g, model, t, L1Config(lam=1e-6, max_iter=50, step=1e300))


def test_trace_csv_shape():
    model = small_model(seed=11)
    t = SparsifyingTransform(8, 8, 4)
    rng = np.random.default_rng(11)
    g = rng.standard_normal(model.m)
    _, trace = fista_run(g, model, t, L1Config(lam=0.05, max_iter=7))
    lines = trace.to_csv().splitlines()
    assert lines[0] == "iter,objective,residual_norm,wall_ms"
    assert len(lines) == 8


def test_divergence_error_carries_partial_trace():
    model = small_model(seed=10)
    t = SparsifyingTransform(8, 8, 4)
    g = np.random.default_rng(10).standard_normal(model.m)
    with pytest.raises(DivergenceError) as exc:
        fista_run(g, model, t, L1Config(lam=1e-6, max_iter=50, step=1e30))
    trace = exc.value.trace
    assert isinstance(trace, Trace)
    # the first iteration completed, the second blew up
    assert exc.value.iteration == 2
    assert len(trace) == 1 and len(trace.objective) == 1 and len(trace.wall_ms) == 1
    assert trace.to_csv().splitlines()[0] == "iter,objective,residual_norm,wall_ms"
