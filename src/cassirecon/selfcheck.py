"""Built-in verification suite for the CLI ``selfcheck`` command.

Runs the core numerical invariants on one fixed 8x8x4, K=2 instance:
measurement-count arithmetic, the operator adjoint identity, equivalence of
the matrix-free operator with its materialized matrix, transform round
trips and energy preservation, and a bit-for-bit check of the Wiener
statistics and shrinkage against :func:`scalar_wiener_reference`, the
scalar oracle the tests share. All checks must pass for a healthy build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transforms as tf
from .operator import (
    CassiModel,
    DispersionWeights,
    forward_apply,
    adjoint_apply,
    generate_apertures,
    materialize,
    measurement_count,
)
from .wiener import estimate_stats, shrink_derivative_mean, wiener_shrink


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def scalar_wiener_reference(theta, labels, n_groups, sigma2):
    """Group means, variances, shrunk vector and mean gain, one coefficient at a time."""
    sums = [0.0] * n_groups
    counts = [0] * n_groups
    for i in range(len(theta)):
        sums[labels[i]] += theta[i]
        counts[labels[i]] += 1
    means = [sums[g] / counts[g] for g in range(n_groups)]
    sq = [0.0] * n_groups
    for i in range(len(theta)):
        d = theta[i] - means[labels[i]]
        sq[labels[i]] += d * d
    variances = [sq[g] / counts[g] for g in range(n_groups)]
    gains = [max(0.0, v - sigma2) / v if v > 0.0 else 0.0 for v in variances]
    out = np.empty(len(theta))
    acc = 0.0
    for i in range(len(theta)):
        g = labels[i]
        out[i] = gains[g] * (theta[i] - means[g]) + means[g]
        acc += gains[g]
    return np.array(means), np.array(variances), out, acc / len(theta)


def run_selfcheck() -> list[CheckResult]:
    M, N, L, K = 8, 8, 4, 2
    results: list[CheckResult] = []
    rng = np.random.default_rng(1234)

    apertures = generate_apertures(M, N, K, "complementary", seed=7)
    model = CassiModel(apertures, DispersionWeights(0.25, 0.5, 0.25), bands=L)

    # the count formula against the length of what the operator produces
    m_produced = forward_apply(model, np.zeros(model.n)).size
    results.append(
        CheckResult(
            f"measurement count ({M},{N},{L},{K})",
            measurement_count(M, N, L, K) == m_produced,
            f"m={measurement_count(M, N, L, K)}",
        )
    )

    err = 0.0
    for _ in range(20):
        f = rng.standard_normal(model.n)
        g = rng.standard_normal(model.m)
        lhs = forward_apply(model, f) @ g
        rhs = f @ adjoint_apply(model, g)
        err = max(err, abs(lhs - rhs) / (np.linalg.norm(f) * np.linalg.norm(g)))
    results.append(CheckResult("adjoint identity (20 pairs)", err <= 1e-10, f"max rel err={err:.3e}"))

    f = rng.standard_normal(model.n)
    dense_err = float(np.abs(materialize(model) @ f - forward_apply(model, f)).max())
    results.append(
        CheckResult("matrix-free forward matches dense", dense_err <= 1e-12, f"max abs err={dense_err:.3e}")
    )

    transform = tf.SparsifyingTransform(M, N, L)
    x = rng.standard_normal(transform.n)
    theta = transform.forward(x)
    rt = float(np.abs(transform.inverse(theta) - x).max())
    parseval = abs(np.linalg.norm(theta) / np.linalg.norm(x) - 1.0)
    results.append(CheckResult("transform round trip", rt <= 1e-12, f"max abs err={rt:.3e}"))
    results.append(CheckResult("transform energy preservation", parseval <= 1e-10, f"rel err={parseval:.3e}"))

    smap = transform.subbands
    sigma2 = 0.5 * float(np.var(theta))
    stats = estimate_stats(theta, smap)
    got = wiener_shrink(theta, stats, sigma2, smap)
    got_d = shrink_derivative_mean(stats, sigma2, smap)
    means, variances, want, want_d = scalar_wiener_reference(
        theta, smap.labels, smap.n_groups, sigma2
    )
    wiener_ok = (
        np.array_equal(stats.mean, means) and np.array_equal(stats.var, variances)
        and np.array_equal(got, want) and got_d == want_d
    )
    results.append(CheckResult("wiener shrinkage matches scalar reference", wiener_ok, "bit-for-bit"))

    return results


def format_results(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{r.name.ljust(width)}  {status}  {r.detail}")
    passed = sum(r.ok for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
