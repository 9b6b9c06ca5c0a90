"""Tests for the majorize-minimization fitter."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cqrkit import Dataset, PenaltySpec, QuantileLevels, SolverOptions
from cqrkit.core import fidelity, penalty_terms, stacked_fit
from cqrkit.mm import FREEZE_THRESHOLD, fit_mm

from oracles import (
    majorizer_value,
    penalized_qr_1d_exact,
    qr_exact,
    smoothed_check_loss,
)


def test_smoothed_loss_known_values():
    eps = 0.1
    assert smoothed_check_loss(0.0, 0.3, eps) == pytest.approx(-0.05 * np.log(0.1))
    assert smoothed_check_loss(1.0, 0.5, eps) == pytest.approx(0.5 - 0.05 * np.log(1.1))
    assert smoothed_check_loss(1.0, 0.5, eps) == pytest.approx(0.495234, abs=1e-6)


def test_smoothed_loss_approximation_gap():
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = rng.standard_normal() * 4
        tau = rng.uniform(0.05, 0.95)
        eps = 10 ** rng.uniform(-6, -1)
        plain = t * (tau - (t < 0))
        gap = smoothed_check_loss(t, tau, eps) - plain
        assert gap == pytest.approx(-0.5 * eps * np.log(eps + abs(t)), rel=1e-12)
        assert abs(gap) <= 0.5 * eps * abs(np.log(eps + abs(t))) + 1e-15


def test_smoothed_loss_rejects_bad_eps():
    with pytest.raises(ValueError):
        smoothed_check_loss(1.0, 0.5, 0.0)


def test_majorizer_tangency():
    rng = np.random.default_rng(3)
    for _ in range(200):
        r0 = rng.standard_normal() * 3
        tau = rng.uniform(0.05, 0.95)
        eps = 10 ** rng.uniform(-5, -1)
        assert majorizer_value(r0, r0, tau, eps) == pytest.approx(
            smoothed_check_loss(r0, tau, eps), abs=1e-12)


def test_majorizer_dominates_smoothed_loss():
    rng = np.random.default_rng(4)
    for _ in range(100):
        r0 = rng.standard_normal() * 2
        tau = rng.uniform(0.05, 0.95)
        eps = 10 ** rng.uniform(-4, -1)
        r = np.linspace(r0 - 5, r0 + 5, 401)
        assert np.all(majorizer_value(r, r0, tau, eps)
                      >= smoothed_check_loss(r, tau, eps) - 1e-12)


def test_majorizer_symmetric_at_median():
    # 4 tau - 2 = 0 kills the linear term, so xi is even in r
    r = np.linspace(-3, 3, 101)
    vals = majorizer_value(r, 1.3, 0.5, 0.01)
    assert_allclose(vals, vals[::-1], atol=1e-12)


def test_intercept_only_median():
    res = fit_mm(Dataset(np.zeros((3, 0)), np.array([1.0, 2.0, 3.0])),
                 QuantileLevels.single(0.5))
    assert res.converged
    assert res.intercepts[0] == pytest.approx(2.0, abs=10 * res.diagnostics["eps"])


def test_exact_line():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(20)
    res = fit_mm(Dataset(x[:, None], 2.0 * x), QuantileLevels.single(0.5))
    assert res.converged
    assert res.coefficients[0] == pytest.approx(2.0, abs=1e-3)


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 2))
    Y = 1.0 + X @ np.array([0.5, -1.0]) + rng.standard_normal(30)
    data = Dataset(X, Y)
    levels = QuantileLevels.single(0.3)
    _, best = qr_exact(data, levels)
    res = fit_mm(data, levels)
    assert res.converged
    assert res.objective == pytest.approx(best, abs=1e-2)
    assert res.diagnostics["max_descent_violation"] <= 1e-10


def test_composite_matches_enumeration_oracle():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(12)
    y = 0.5 + 1.5 * x + rng.standard_normal(12)
    data = Dataset(x[:, None], y)
    levels = QuantileLevels(np.array([0.2, 0.5, 0.8]))
    _, best = qr_exact(data, levels)
    res = fit_mm(data, levels)
    assert res.objective == pytest.approx(best, abs=1e-2)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_penalized_matches_1d_oracle(lam):
    rng = np.random.default_rng(9)
    x = rng.standard_normal(25)
    y = 0.3 + 0.9 * x + 0.5 * rng.standard_normal(25)
    data = Dataset(x[:, None], y)
    levels = QuantileLevels.single(0.3)
    pen = PenaltySpec.adaptive_lasso(lam, np.array([1.0]))
    _, beta_star, best = penalized_qr_1d_exact(data, levels, lam, 1.0)
    res = fit_mm(data, levels, pen)
    assert res.objective == pytest.approx(best, abs=5e-3)
    assert res.coefficients[0] == pytest.approx(beta_star, abs=5e-3)
    assert res.diagnostics["max_descent_violation"] <= 1e-10


def test_penalized_freezes_null_coordinate():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((60, 2))
    Y = 1.0 + X @ np.array([1.0, 0.0]) + 0.5 * rng.standard_normal(60)
    pen = PenaltySpec.adaptive_lasso(1.0, np.array([1.05, 0.08]))
    res = fit_mm(Dataset(X, Y), QuantileLevels.single(0.3), pen)
    assert res.coefficients[1] == 0.0
    assert res.diagnostics["frozen"][1]
    assert abs(res.coefficients[0]) > 0.5


def _surrogate(data, levels, pen, eps, theta, frozen):
    """Smoothed fidelity plus the perturbed penalty over unfrozen coordinates,
    on residuals formed as the loop forms them."""
    K = levels.K
    R = data.Y[None, :] - stacked_fit(data.X, theta)
    val = fidelity(R, levels.taus)
    val -= 0.5 * eps * np.sum(np.log(eps + np.abs(R)))
    weights, active = penalty_terms(pen, data.p)
    live = active & ~frozen
    a = np.abs(theta[K:][live])
    val += pen.lam * np.sum(weights[live] * (a - eps * np.log1p(a / eps)))
    return float(val)


@pytest.mark.parametrize("K", [1, 3])
def test_descent_audit_recomputes_base_after_a_freeze(K):
    # the loop carries the surrogate value from one iteration to the next;
    # a freeze changes the iterate and the surrogate, so the reference
    # rebuilds iteration t's base from the fit stopped after t - 1 iterations
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 4))
    Y = 1.0 + X @ np.array([1.0, -0.8, 0.0, 0.0]) + 0.5 * rng.standard_normal(40)
    data = Dataset(X, Y)
    levels = QuantileLevels.single(0.3) if K == 1 else QuantileLevels.grid(K)
    pen = PenaltySpec.adaptive_lasso(1.0 * K, np.array([1.0, -0.8, 0.02, 0.05]))
    eps = SolverOptions().eps_mm
    _, active = penalty_terms(pen, 4)
    theta = np.zeros(K + 4)
    theta[K:][active] = pen.pilot[active]
    frozen = ~active
    gains, late_freezes = [], 0
    for t in range(1, fit_mm(data, levels, pen).iterations + 1):
        small = active & ~frozen & (np.abs(theta[K:]) < FREEZE_THRESHOLD)
        frozen = frozen | small
        theta[K:][small] = 0.0
        late_freezes += int(small.sum()) if t > 1 else 0
        base = _surrogate(data, levels, pen, eps, theta, frozen)
        res = fit_mm(data, levels, pen, SolverOptions(max_iter=t))
        assert np.array_equal(res.diagnostics["frozen"], frozen)
        theta = np.concatenate([res.intercepts, res.coefficients])
        gains.append(_surrogate(data, levels, pen, eps, theta, frozen) - base)
        assert res.diagnostics["max_descent_violation"] == max(gains)
    assert late_freezes > 0


def test_descent_monotone_across_random_instances():
    rng = np.random.default_rng(13)
    for trial in range(10):
        n = int(rng.integers(15, 40))
        p = int(rng.integers(1, 4))
        X = rng.standard_normal((n, p))
        Y = X @ rng.uniform(-1, 1, p) + rng.standard_normal(n)
        data = Dataset(X, Y)
        levels = (QuantileLevels.single(rng.uniform(0.1, 0.9)) if trial % 2
                  else QuantileLevels(np.array([0.25, 0.5, 0.75])))
        if trial % 3 == 0:
            pen = PenaltySpec.adaptive_lasso(0.5, rng.uniform(0.5, 1.5, p))
        else:
            pen = None
        res = fit_mm(data, levels, pen)
        assert res.diagnostics["max_descent_violation"] <= 1e-10


def test_one_step_minimizes_majorizer():
    # after one iteration, the iterate is a stationary point of the
    # quadratic surrogate built at the starting point (finite differences)
    rng = np.random.default_rng(15)
    X = rng.standard_normal((12, 2))
    Y = rng.standard_normal(12)
    data = Dataset(X, Y)
    levels = QuantileLevels.single(0.3)
    opts = SolverOptions(max_iter=1)
    res = fit_mm(data, levels, options=opts)
    eps = res.diagnostics["eps"]
    theta1 = np.concatenate([res.intercepts, res.coefficients])
    B = np.column_stack([np.ones(12), X])
    r0 = Y.copy()                       # starting residuals (theta0 = 0)

    def Q(theta):
        r = Y - B @ theta
        return float(np.sum(majorizer_value(r, r0, 0.3, eps)))

    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        grad = (Q(theta1 + e) - Q(theta1 - e)) / (2 * h)
        assert abs(grad) <= 1e-4 * max(1.0, abs(Q(theta1)))


def test_rank_deficient_design_uses_ridge():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((30, 60))
    Y = X[:, :4] @ np.array([1.0, -1.0, 0.8, -0.6]) + rng.standard_normal(30)
    res = fit_mm(Dataset(X, Y), QuantileLevels.single(0.3))
    assert res.converged
    assert res.diagnostics["ridge"]


def _one_hot_fit(n, p):
    """MM at tau 0.3 on an n x p design whose columns 0-2 are a one-hot
    block, with every warning raised as an error."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, p))
    X[:, :3] = np.eye(3)[rng.integers(0, 3, n)]
    Y = 1.0 + X[:, :4] @ rng.uniform(-1, 1, 4) + rng.standard_normal(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fit_mm(Dataset(X, Y), QuantileLevels.single(0.3))


def test_one_hot_block_takes_the_ridge_without_warnings():
    # at p >= n a one-hot block beside the intercept keeps the majorizer
    # Hessian singular; the ridge factorization solves it without warnings
    res = _one_hot_fit(30, 40)
    assert res.converged
    assert res.diagnostics["ridge"]
    assert res.iterations == 10


def test_one_hot_block_below_n_is_cut_without_the_ridge():
    # below n columns ``core.prepare`` cuts the block's last column, so the
    # Hessian is not singular and MM puts exactly 0 there
    res = _one_hot_fit(200, 6)
    assert res.converged
    assert not res.diagnostics["ridge"]
    assert res.coefficients[2] == 0.0
    assert res.iterations == 166
