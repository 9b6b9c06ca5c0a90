"""Interior-point fitter tests.

The fits are compared against the subset-enumeration oracle, the exact
one-covariate penalized path and HiGHS; the dual vector in the diagnostics
is checked for feasibility and strong duality.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from cqrkit import Dataset, PenaltySpec, QuantileLevels, objective
from cqrkit.cd import fit_cd
from cqrkit.ip import fit_ip

from oracles import penalized_qr_1d_exact, qr_exact


# ------------------------------------------------------------------ fitting

def test_intercept_only_median():
    rng = np.random.default_rng(7)
    Y = rng.normal(size=31)
    fit = fit_ip(Dataset(np.zeros((31, 0)), Y), QuantileLevels.single(0.5))
    assert fit.converged
    assert fit.algorithm == "ip"
    assert abs(fit.intercepts[0] - np.median(Y)) <= 1e-6


def test_exact_line_is_interpolated():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(12, 1))
    fit = fit_ip(Dataset(X, 2.0 * X[:, 0]), QuantileLevels.single(0.3))
    assert fit.converged
    assert fit.objective <= 1e-8
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-6)


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(9)
    for _ in range(6):
        n, p = 25, int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        Y = X @ rng.uniform(-1, 1, size=p) + rng.normal(size=n)
        data = Dataset(X, Y)
        levels = QuantileLevels.single(float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])))
        fit = fit_ip(data, levels)
        _, best = qr_exact(data, levels)
        assert fit.converged
        assert fit.objective <= best + 1e-6


def test_composite_matches_enumeration_oracle():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(18, 2))
    Y = X @ np.array([0.8, -0.4]) + rng.normal(size=18)
    data = Dataset(X, Y)
    levels = QuantileLevels.grid(3)
    fit = fit_ip(data, levels)
    _, best = qr_exact(data, levels)
    assert fit.converged
    assert fit.objective <= best + 1e-6


def test_penalized_matches_exact_path():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(20, 45))
        X = rng.normal(size=(n, 1))
        Y = X[:, 0] * rng.uniform(-1, 1) + rng.normal(size=n)
        data = Dataset(X, Y)
        levels = QuantileLevels.single(0.5)
        lam = float(rng.uniform(0.1, 3.0))
        pilot = np.array([rng.uniform(0.3, 1.5)])
        fit = fit_ip(data, levels, PenaltySpec.adaptive_lasso(lam, pilot))
        _, _, best = penalized_qr_1d_exact(data, levels, lam, 1.0 / pilot[0] ** 2)
        assert fit.converged
        assert fit.objective == pytest.approx(best, abs=1e-6)


def test_inactive_pilot_coordinates_stay_zero():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(40, 3))
    Y = X @ np.array([1.0, 0.0, -0.5]) + rng.normal(size=40)
    pilot = np.array([1.1, 0.0, -0.6])  # middle coordinate inactive
    fit = fit_ip(Dataset(X, Y), QuantileLevels.single(0.5),
                 PenaltySpec.adaptive_lasso(0.5, pilot))
    assert fit.converged
    assert fit.coefficients[1] == 0.0


def test_objective_recomputed_from_parameters():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 2))
    Y = X @ np.array([0.5, -1.0]) + rng.normal(size=30)
    data = Dataset(X, Y)
    levels = QuantileLevels.single(0.7)
    fit = fit_ip(data, levels)
    direct = objective(data, fit.intercepts, fit.coefficients, levels,
                       PenaltySpec.none())
    assert fit.objective == pytest.approx(direct, rel=1e-12)


# --------------------------------------------------------------- invariants

def test_optimal_implies_certified_residuals():
    rng = np.random.default_rng(32)
    for _ in range(10):
        n, p = int(rng.integers(15, 40)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        Y = X @ rng.uniform(-1, 1, size=p) + rng.normal(size=n)
        fit = fit_ip(Dataset(X, Y), QuantileLevels.single(0.5))
        assert fit.converged
        # the dual vector is feasible: 0 <= a <= 1 and X*'a = X*'(1 - tau)
        a = fit.diagnostics["dual"]
        assert np.all(a >= 0.0) and np.all(a <= 1.0)
        Xs = np.column_stack([np.ones(n), X])
        b = Xs.T @ np.full(n, 0.5)
        assert np.max(np.abs(Xs.T @ a - b)) <= 1e-8 * (1.0 + np.max(np.abs(b)))
        assert fit.diagnostics["gap"] <= 1e-8 * (1.0 + abs(fit.objective))


def test_strong_duality_at_optimum():
    rng = np.random.default_rng(14)
    for _ in range(6):
        n, p = int(rng.integers(20, 50)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        Y = X @ rng.uniform(-1, 1, size=p) + rng.normal(size=n)
        fit = fit_ip(Dataset(X, Y), QuantileLevels.single(0.3))
        assert fit.converged
        # the dual objective of the bounded program is y'(a - (1 - tau))
        dual_obj = float(Y @ (fit.diagnostics["dual"] - 0.7))
        primal_obj = fit.objective
        assert abs(primal_obj - dual_obj) <= 1e-8 * (1.0 + abs(primal_obj))


def test_solution_sits_on_a_vertex():
    rng = np.random.default_rng(15)
    for _ in range(5):
        n, p = 40, 3
        X = rng.normal(size=(n, p))
        Y = X @ rng.uniform(-1, 1, size=p) + rng.normal(size=n)
        data = Dataset(X, Y)
        fit = fit_ip(data, QuantileLevels.single(0.5))
        resid = data.Y - fit.intercepts[0] - data.X @ fit.coefficients
        # a basic optimal solution interpolates p + 1 observations
        assert int(np.sum(np.abs(resid) <= 1e-6)) >= p + 1


def test_lp_optimum_lower_bounds_other_solvers():
    from cqrkit.admm import fit_admm
    from cqrkit.mm import fit_mm

    rng = np.random.default_rng(16)
    for _ in range(4):
        n, p = int(rng.integers(25, 60)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        Y = X @ rng.uniform(-1, 1, size=p) + rng.normal(size=n)
        data = Dataset(X, Y)
        levels = QuantileLevels.single(float(rng.choice([0.3, 0.5, 0.7])))
        bound = fit_ip(data, levels).objective
        slack = 1e-8 * (1.0 + abs(bound))  # matches the solver's relative gap
        for fitter in (fit_admm, fit_mm, fit_cd):
            assert fitter(data, levels).objective >= bound - slack


@pytest.mark.parametrize("n, p, K", [(60, 3, 1), (200, 5, 3), (100, 10, 9)])
@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_response_scaling_is_exact(n, p, K, scale):
    # beta(a y) = a beta(y): the stopping rule must not depend on y's units
    rng = np.random.default_rng(n + p + K)
    X = rng.normal(size=(n, p))
    Y = 1.0 + X @ rng.uniform(-1, 1, size=p) + rng.normal(size=n)
    levels = QuantileLevels.single(0.3) if K == 1 else QuantileLevels.grid(K)
    base = fit_ip(Dataset(X, Y), levels)
    scaled = fit_ip(Dataset(X, scale * Y), levels)
    assert base.converged and scaled.converged
    assert scaled.iterations == base.iterations
    theta = np.concatenate([base.intercepts, base.coefficients])
    back = np.concatenate([scaled.intercepts, scaled.coefficients]) / scale
    assert np.max(np.abs(back - theta)) <= 1e-12 * (1.0 + np.max(np.abs(theta)))


# ----------------------------------------------------------- degenerate designs

def _highs_optimum(data, levels, penalty=None):
    """Optimum of the check-loss LP by HiGHS, independent of the fitters.

    An adaptive-lasso penalty adds one row ``beta_j = u_j - v_j`` per active
    column with cost ``lam / pilot_j^2`` on ``u_j + v_j``; inactive columns
    are fixed at zero.

    HiGHS's feasibility tolerances are absolute, so the program is solved
    in the units of the residuals and its optimum multiplied back: ``y`` is
    divided by its largest least-squares residual, or by ``max|y|`` where
    least squares interpolates.  (``max|y|`` alone fails when one column is
    in large units: ``y`` is then large and the residuals are not.)  With
    the pilot fixed the objective has degree 1 in ``(y, b, beta)``, so the
    rescaling is exact.
    """
    n, p, K = data.n, data.p, levels.K
    Xs = np.hstack([np.kron(np.eye(K), np.ones((n, 1))), np.tile(data.X, (K, 1))])
    taus = np.repeat(levels.taus, n)
    N = n * K
    c = np.concatenate([np.zeros(K + p), taus, 1.0 - taus])
    A = np.hstack([Xs, np.eye(N), -np.eye(N)])
    D = np.column_stack([np.ones(n), data.X])
    ls = data.Y - D @ np.linalg.lstsq(D, data.Y, rcond=None)[0]
    unit = float(np.max(np.abs(ls)))
    if unit <= 1e-10 * np.max(np.abs(data.Y)):
        unit = float(np.max(np.abs(data.Y))) or 1.0
    b = np.tile(data.Y / unit, K)
    bounds = [(None, None)] * (K + p) + [(0, None)] * (2 * N)
    if penalty is not None and penalty.regularized:
        active = np.abs(penalty.pilot) >= 1e-6
        cost = penalty.lam / penalty.pilot[active] ** 2
        P = int(active.sum())
        rows = np.hstack([np.zeros((P, K)), np.eye(p)[active], np.zeros((P, 2 * N))])
        A = np.block([[A, np.zeros((N, 2 * P))], [rows, np.eye(P), -np.eye(P)]])
        b = np.concatenate([b, np.zeros(P)])
        c = np.concatenate([c, cost, cost])
        bounds += [(0, None)] * (2 * P)
        for j in np.flatnonzero(~active):
            bounds[K + j] = (0, 0)
    res = linprog(c, A_eq=A, b_eq=b, bounds=bounds, method="highs")
    assert res.status == 0
    return res.fun * unit


def _degenerate_case(name):
    rng = np.random.default_rng(40)
    n = 40
    x = rng.normal(size=(n, 2))
    levels = QuantileLevels.single(0.5)
    penalty = None
    if name == "duplicated-column":
        X = np.column_stack([x[:, 0], x[:, 0], x[:, 1]])
    elif name == "column-in-large-units":
        X = x * np.array([1e8, 1.0])
    elif name == "intercept-column":
        X = np.column_stack([np.ones(n), x])
    elif name == "intercept-column-lam0":
        rng = np.random.default_rng(40)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        levels = QuantileLevels.single(0.3)
        penalty = PenaltySpec.adaptive_lasso(0.0, np.ones(4))
    elif name == "one-hot-block":
        X = np.column_stack([np.eye(3)[rng.integers(0, 3, size=n)], x[:, 0]])
    elif name == "p-above-n":
        n = 30
        X = rng.normal(size=(n, 70))
    elif name == "intercept-only":
        X = np.zeros((n, 0))
    elif name == "integer-y-nine-levels-lam50":
        rng = np.random.default_rng(53)
        n = 150
        X = rng.normal(size=(n, 11))
        levels = QuantileLevels.grid(9)
        penalty = PenaltySpec.adaptive_lasso(50.0, rng.normal(size=11))
    elif name == "small-units-nine-levels":
        rng = np.random.default_rng(0)
        n = 52
        X = rng.normal(size=(n, 23))
        levels = QuantileLevels.grid(9)
    elif name.startswith("wide-"):
        # (n, p, K) of a p > n or nearly square design
        n, p, K = (int(part) for part in name[5:].split("x"))
        X = rng.normal(size=(n, p))
        levels = QuantileLevels.single(0.3) if K == 1 else QuantileLevels.grid(K)
    else:  # extreme levels
        X = x
        levels = QuantileLevels.single(float(name.split("=")[1]))
    beta = rng.uniform(-1, 1, size=X.shape[1])
    Y = X @ beta + rng.standard_t(3, size=n)
    if name.startswith("integer-y"):
        Y = np.round(Y)
    elif name.startswith("small-units"):
        Y *= 7.5e-6 / np.max(np.abs(Y))
    return Dataset(X, Y), levels, penalty


DEGENERATE = ["duplicated-column", "column-in-large-units", "intercept-column",
              "one-hot-block", "p-above-n", "intercept-only", "tau=0.01",
              "tau=0.99", "small-units-nine-levels"]
# penalized fits and the sizes of a wide and a nearly square design, on
# which coordinate descent once claimed points short of the optimum
CD_DEGENERATE = DEGENERATE + ["integer-y-nine-levels-lam50",
                              "intercept-column-lam0", "wide-30x70x1",
                              "wide-200x66x3"]


@pytest.mark.parametrize("fitter, name", (
    [pytest.param(fit_ip, name, id=name) for name in DEGENERATE]
    + [pytest.param(fit_cd, name, id=f"cd-{name}") for name in CD_DEGENERATE]))
def test_degenerate_designs_reach_the_lp_optimum(fitter, name):
    data, levels, penalty = _degenerate_case(name)
    fit = fitter(data, levels, penalty)
    best = _highs_optimum(data, levels, penalty)
    assert fit.converged
    assert np.all(np.isfinite(fit.intercepts))
    assert np.all(np.isfinite(fit.coefficients))
    assert abs(fit.objective - best) <= 1e-8 * (1.0 + abs(best))


def test_wide_design_with_a_large_unit_column_reaches_zero():
    # p > n with one column in units 1e8: an interpolant attains 0.  On the
    # raw columns the least-squares steps lose the other columns to the
    # large one, and the fit stops far above 0 claiming convergence.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 70))
    Y = 1.0 + X[:, 0] + rng.standard_t(3, 30)
    X[:, 0] *= 1e8
    fit = fit_ip(Dataset(X, Y), QuantileLevels.single(0.3))
    assert fit.converged
    assert fit.objective <= 1e-8
    # the dual is feasible in the columns' own units
    Xs = np.column_stack([np.ones(30), X])
    b = Xs.T @ np.full(30, 0.7)
    residual = np.max(np.abs(Xs.T @ fit.diagnostics["dual"] - b))
    assert residual <= 1e-8 * np.max(np.abs(b))
