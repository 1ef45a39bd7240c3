import numpy as np
import pytest

from cassirecon.errors import DivergenceError
from cassirecon.fista import (
    L1Config,
    fista_run,
    operator_norm_squared,
    soft_threshold,
    sweep_lambda,
)
from cassirecon.metrics import Trace, add_noise
from cassirecon.operator import (
    CassiModel,
    CodedApertureSet,
    DispersionWeights,
    adjoint_apply,
    forward_apply,
    generate_apertures,
    materialize,
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
    with pytest.raises(ValueError):
        soft_threshold(theta, -0.1)


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


def test_one_operator_and_transform_call_each_per_iteration(monkeypatch):
    model = small_model(seed=12)
    t = SparsifyingTransform(8, 8, 4)
    g = np.random.default_rng(12).standard_normal(model.m)
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr("cassirecon.fista.forward_apply", counting("H", forward_apply))
    monkeypatch.setattr("cassirecon.fista.adjoint_apply", counting("H^T", adjoint_apply))
    monkeypatch.setattr(
        SparsifyingTransform, "forward", counting("Psi", SparsifyingTransform.forward)
    )
    monkeypatch.setattr(
        SparsifyingTransform, "inverse", counting("Psi^T", SparsifyingTransform.inverse)
    )
    fista_run(g, model, t, L1Config(lam=0.05, max_iter=5, step=0.5))
    assert calls == {"H": 5, "H^T": 5, "Psi": 5, "Psi^T": 5}


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


def test_power_method_permutation_embedding():
    model = CassiModel(
        CodedApertureSet(np.ones((1, 8, 8), dtype=np.uint8)),
        DispersionWeights(0.0, 1.0, 0.0),
        bands=1,
    )
    assert operator_norm_squared(model) == pytest.approx(1.0, rel=1e-10)


def test_power_method_close_to_dense_norm():
    model = small_model()
    H = materialize(model)
    dense = np.linalg.norm(H, 2) ** 2
    est = operator_norm_squared(model)
    assert abs(est - dense) <= 0.01 * dense


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
        fista_run(g, model, t, L1Config(lam=1e-6, max_iter=50, step=1e300))
    trace = exc.value.trace
    assert isinstance(trace, Trace)
    # the first iteration completed, the second blew up
    assert exc.value.iteration == 2
    assert len(trace) == 1 and len(trace.objective) == 1 and len(trace.wall_ms) == 1
    assert trace.to_csv().splitlines()[0] == "iter,objective,residual_norm,wall_ms"
