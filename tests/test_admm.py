"""Tests for the ADMM fitter and its helpers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cqrkit import (
    Dataset,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    fit_ip,
    objective,
    sample_quantile,
)
from cqrkit.admm import fit_admm
from cqrkit.core import stacked_gram
from cqrkit.simlab import default_lambda

from oracles import (
    admm_display,
    admm_reference,
    check_loss_scalar,
    penalized_qr_1d_exact,
    qr_exact,
    stack_composite,
)

# tight enough that fits land essentially on the exact optimum
TIGHT = SolverOptions(eps_abs=1e-8, eps_rel=1e-10, max_iter=200000)


def test_intercept_only_median():
    data = Dataset(np.zeros((3, 0)), np.array([1.0, 2.0, 3.0]))
    res = fit_admm(data, QuantileLevels.single(0.5), options=TIGHT)
    assert res.converged
    assert res.intercepts[0] == pytest.approx(2.0, abs=1e-4)
    assert res.coefficients.size == 0


def test_exact_line():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(20)
    res = fit_admm(Dataset(x[:, None], 2.0 * x), QuantileLevels.single(0.5),
                   options=TIGHT)
    assert res.converged
    assert res.coefficients[0] == pytest.approx(2.0, abs=1e-4)
    assert res.intercepts[0] == pytest.approx(0.0, abs=1e-4)
    assert res.objective <= 1e-6


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 2))
    Y = 1.0 + X @ np.array([0.5, -1.0]) + rng.standard_normal(30)
    data = Dataset(X, Y)
    levels = QuantileLevels.single(0.3)
    _, best = qr_exact(data, levels)
    res = fit_admm(data, levels, options=TIGHT)
    assert res.converged
    assert res.objective == pytest.approx(best, abs=1e-3)


def test_composite_matches_enumeration_oracle():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(12)
    y = 0.5 + 1.5 * x + rng.standard_normal(12)
    data = Dataset(x[:, None], y)
    levels = QuantileLevels(np.array([0.2, 0.5, 0.8]))
    _, best = qr_exact(data, levels)
    res = fit_admm(data, levels, options=TIGHT)
    assert res.objective == pytest.approx(best, abs=1e-3)
    assert res.intercepts.shape == (3,)


@pytest.mark.parametrize("lam", [0.5, 2.0, 8.0])
def test_penalized_matches_1d_oracle(lam):
    rng = np.random.default_rng(9)
    x = rng.standard_normal(25)
    y = 0.3 + 0.9 * x + 0.5 * rng.standard_normal(25)
    data = Dataset(x[:, None], y)
    levels = QuantileLevels.single(0.3)
    pen = PenaltySpec.adaptive_lasso(lam, np.array([1.0]))
    _, beta_star, best = penalized_qr_1d_exact(data, levels, lam, 1.0)
    res = fit_admm(data, levels, pen, TIGHT)
    assert res.objective == pytest.approx(best, abs=1e-4)
    assert res.coefficients[0] == pytest.approx(beta_star, abs=1e-3)


def test_penalized_composite_matches_1d_oracle():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(12)
    y = 0.5 + 1.5 * x + rng.standard_normal(12)
    data = Dataset(x[:, None], y)
    levels = QuantileLevels(np.array([0.2, 0.5, 0.8]))
    pilot = np.array([1.1])
    pen = PenaltySpec.adaptive_lasso(1.5, pilot)
    _, beta_star, best = penalized_qr_1d_exact(data, levels, 1.5, 1.0 / 1.1 ** 2)
    res = fit_admm(data, levels, pen, TIGHT)
    assert res.objective == pytest.approx(best, abs=1e-4)
    assert res.coefficients[0] == pytest.approx(beta_star, abs=1e-3)


def test_zero_lambda_equals_unpenalized():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((40, 3))
    Y = X @ np.array([1.0, 0.0, -0.5]) + rng.standard_normal(40)
    data = Dataset(X, Y)
    levels = QuantileLevels.single(0.7)
    pen = PenaltySpec.adaptive_lasso(0.0, np.ones(3))
    plain = fit_admm(data, levels, options=TIGHT)
    zero = fit_admm(data, levels, pen, TIGHT)
    assert zero.objective == pytest.approx(plain.objective, abs=1e-5)


def test_huge_lambda_reduces_to_intercept_quantiles():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((30, 2))
    Y = 1.0 + X @ np.array([0.5, -1.0]) + rng.standard_normal(30)
    data = Dataset(X, Y)
    levels = QuantileLevels(np.array([0.25, 0.75]))
    pen = PenaltySpec.adaptive_lasso(500.0, np.array([1.0, 1.0]))
    res = fit_admm(data, levels, pen, TIGHT)
    assert_allclose(res.coefficients, 0.0, atol=1e-8)
    # with beta pinned at zero the best intercepts are per-level quantiles;
    # compare objectives (the minimizing intercept can be a whole interval)
    b = np.array([sample_quantile(Y, t) for t in levels.taus])
    best = objective(data, b, np.zeros(2), levels, PenaltySpec.none())
    assert res.objective == pytest.approx(best, abs=1e-4)


def test_penalized_fit_with_no_live_column():
    # every pilot coordinate inactive: no penalty rows, and the solve is
    # restricted to the intercepts
    rng = np.random.default_rng(14)
    X = rng.standard_normal((30, 3))
    Y = 1.0 + X @ np.array([0.5, -1.0, 0.0]) + rng.standard_normal(30)
    data = Dataset(X, Y)
    levels = QuantileLevels(np.array([0.25, 0.75]))
    res = fit_admm(data, levels, PenaltySpec.adaptive_lasso(1.0, np.zeros(3)), TIGHT)
    assert res.converged
    assert np.array_equal(res.coefficients, np.zeros(3))
    assert res.diagnostics["state"].gamma.size == 0
    b = np.array([sample_quantile(Y, t) for t in levels.taus])
    best = objective(data, b, np.zeros(3), levels, PenaltySpec.none())
    assert res.objective == pytest.approx(best, abs=1e-4)


def test_r_update_is_proximal_map():
    # the residual update of the first iteration minimizes
    # rho_tau(r) + (rho/2)(c - r)^2 elementwise (grid-checked)
    rng = np.random.default_rng(17)
    for tau in (0.1, 0.5, 0.9):
        X = rng.standard_normal((6, 2))
        Y = rng.standard_normal(6) * 2
        opts = SolverOptions(rho=1.2, max_iter=1)
        res = fit_admm(Dataset(X, Y), QuantileLevels.single(tau), options=opts)
        state = res.diagnostics["state"]
        c = Y.copy()      # first iteration: theta = 0, u = 0
        for i in range(6):
            grid = np.linspace(c[i] - 3.0, c[i] + 3.0, 120001)
            vals = [check_loss_scalar(g, tau) + 0.6 * (c[i] - g) ** 2 for g in grid]
            r_grid = grid[int(np.argmin(vals))]
            assert state.r[i] == pytest.approx(r_grid, abs=1e-4)


def test_first_iteration_matches_stacked_formulas():
    # one blockwise iteration equals the plain stacked-design computation
    rng = np.random.default_rng(19)
    X = rng.standard_normal((7, 2))
    Y = rng.standard_normal(7)
    data = Dataset(X, Y)
    levels = QuantileLevels(np.array([0.3, 0.6]))
    opts = SolverOptions(rho=1.7, max_iter=1)
    res = fit_admm(data, levels, options=opts)
    state = res.diagnostics["state"]

    Xs, Ys, taus = stack_composite(admm_display(data, levels)[1], levels)
    rho = opts.rho
    c = Ys.copy()
    shifted = c - (2.0 * taus - 1.0) / (2.0 * rho)
    r1 = np.sign(shifted) * np.maximum(np.abs(shifted) - 0.5 / rho, 0.0)
    theta1 = np.linalg.solve(Xs.T @ Xs, Xs.T @ (Ys - r1))
    u1 = rho * (Ys - r1 - Xs @ theta1)
    assert_allclose(state.r, r1, atol=1e-10)
    assert_allclose(state.beta, theta1, atol=1e-10)
    assert_allclose(state.u, u1, atol=1e-10)


def _penalty_rows(data, levels, penalty):
    """The penalty rows ``-s_j e_j'`` of the stacked design, one per column
    of ``core.prepare`` under a penalty, ``s_j`` its scale.  Returns an
    (m, K + p) array."""
    K, p = levels.K, data.p
    if penalty is None or not penalty.regularized:
        return np.zeros((0, K + p))
    prob = admm_display(data, levels, penalty)[0]
    rows = np.zeros((prob.cols.size, K + p))
    rows[np.arange(prob.cols.size), K + prob.cols] = -prob.scale
    return rows


def _direct_stopping(state, data, levels, opts, penalty=None):
    """Independent transcription of the stopping display, over the data
    rows and the penalty rows of the materialized stacked design."""
    Xs, Ys, _ = stack_composite(admm_display(data, levels, penalty)[1], levels)
    P = _penalty_rows(data, levels, penalty)
    A = np.vstack([Xs, P])
    b = np.concatenate([Ys, np.zeros(len(P))])
    r = np.concatenate([state.r, state.gamma])
    r_prev = np.concatenate([state.r_prev, state.gamma_prev])
    u = np.concatenate([state.u, state.v])
    fit = A @ state.beta
    r_primal = b - fit - r
    r_dual = opts.rho * (A.T @ (r - r_prev))
    scale = max(np.linalg.norm(fit) ** 2,
                np.linalg.norm(r) ** 2,
                np.linalg.norm(b) ** 2)
    ep = np.sqrt(r_primal.size) * opts.eps_abs + opts.eps_rel * scale
    ed = (np.sqrt(r_dual.size) * opts.eps_abs
          + opts.eps_rel * np.linalg.norm(A.T @ u) ** 2)
    stop = np.linalg.norm(r_primal) <= ep and np.linalg.norm(r_dual) <= ed
    return stop, ep, ed


@pytest.mark.parametrize("penalized", [False, True])
def test_admm_stopping_matches_direct_recomputation(penalized):
    # the loop's blockwise rule, read back from fits stopped early and late,
    # also on a design whose constant column 1 has no penalty row
    rng = np.random.default_rng(23)
    data = Dataset(rng.standard_normal((9, 3)), rng.standard_normal(9))
    levels = QuantileLevels(np.array([0.2, 0.8]))
    pen = PenaltySpec.adaptive_lasso(0.5, rng.standard_normal(3) + 1.5) if penalized else None
    rng = np.random.default_rng(23)
    X = rng.standard_normal((40, 3))
    X[:, 1] = 3.0
    constant = Dataset(X, rng.standard_normal(40))
    constant_pen = (PenaltySpec.adaptive_lasso(0.5, np.array([1.2, 0.8, 1.5]))
                    if penalized else None)
    for data, pen in ((data, pen), (constant, constant_pen)):
        for max_iter in (1, 5, 50, 5000):
            opts = SolverOptions(max_iter=max_iter)
            res = fit_admm(data, levels, pen, opts)
            stop, ep, ed = _direct_stopping(res.diagnostics["state"], data,
                                            levels, opts, pen)
            assert stop == res.converged
            assert ep == pytest.approx(res.diagnostics["eps_primal"], rel=1e-12)
            assert ed == pytest.approx(res.diagnostics["eps_dual"], rel=1e-12)
        assert res.converged


def test_converged_fit_passes_its_own_stopping_rule():
    rng = np.random.default_rng(29)
    X = rng.standard_normal((25, 2))
    Y = X @ np.array([1.0, -0.5]) + rng.standard_normal(25)
    data = Dataset(X, Y)
    levels = QuantileLevels(np.array([0.3, 0.7]))
    for pen in (None, PenaltySpec.adaptive_lasso(1.0, np.array([1.0, 0.8]))):
        res = fit_admm(data, levels, pen, SolverOptions())
        assert res.converged
        state = res.diagnostics["state"]
        stop, ep, ed = _direct_stopping(state, data, levels, SolverOptions(), pen)
        assert stop
        assert ep == pytest.approx(res.diagnostics["eps_primal"], rel=1e-9)
        assert ed == pytest.approx(res.diagnostics["eps_dual"], rel=1e-9)


def test_default_options_converge_on_moderate_problem():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((300, 10))
    Y = X @ rng.uniform(-1, 1, 10) + rng.standard_normal(300)
    res = fit_admm(Dataset(X, Y), QuantileLevels.single(0.3))
    assert res.converged
    assert res.iterations < 5000


def _bytes_case(shape, penalized):
    """A small problem of the named shape: K1, K9, wide (p > n), dup."""
    rng = np.random.default_rng(0)
    n, p, K = {"K1": (40, 3, 1), "K9": (30, 2, 9), "wide": (15, 25, 1),
               "dup": (30, 3, 1)}[shape]
    X = rng.standard_normal((n, p))
    if shape == "dup":
        X[:, 2] = X[:, 0]
    Y = 1.0 + X @ rng.uniform(-1, 1, p) + rng.standard_normal(n)
    levels = QuantileLevels.single(0.3) if K == 1 else QuantileLevels.grid(K)
    pen = PenaltySpec.none()
    if penalized:
        pilot = rng.uniform(0.2, 1.5, p)
        pilot[1] = 0.0                    # one inactive coordinate
        pen = PenaltySpec.adaptive_lasso(0.4 * K, pilot)
    return Dataset(X, Y), levels, pen


def _close(a, b, rel):
    """Largest entry of ``|a - b|`` within ``rel`` times the largest of ``|b|``."""
    return a.size == 0 or np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


@pytest.mark.parametrize("max_iter", [1, 7, 5000])
@pytest.mark.parametrize("penalized", [False, True])
@pytest.mark.parametrize("shape", ["K1", "K9", "wide", "dup"])
def test_fit_matches_reference_loop_byte_for_byte(shape, penalized, max_iter):
    # the clipped loop against the loop that forms every stopping quantity
    # from full arrays on every iteration: the counts and flags match
    # exactly (the test id keeps its older name), the iterate, the penalty
    # rows and the four stopping figures to roundoff.  The ridged
    # unpenalized shape (wide) gets 1e-6: the 1e-8 ridge magnifies roundoff
    # in the Gram's near-null directions (measured 4.6e-8 and 9.0e-9).  The
    # unpenalized dup shape moves columns 0 and 1 only: column 2 repeats 0
    data, levels, pen = _bytes_case(shape, penalized)
    opts = SolverOptions(max_iter=max_iter)
    res = fit_admm(data, levels, pen, opts)
    ref = admm_reference(data, levels, pen, opts)
    K = levels.K
    state = res.diagnostics["state"]
    assert res.iterations == ref["iterations"] == state.iteration
    assert res.converged == ref["converged"]
    assert res.diagnostics["ridge"] == ref["ridge"]
    tol = 1e-6 if ref["ridge"] else 1e-12
    assert _close(state.beta, ref["theta"], tol)
    prob = admm_display(data, levels, pen)[0]
    assert np.array_equal(res.intercepts, state.beta[:K]
                          - prob.shift @ res.coefficients[prob.cols])
    assert _close(res.intercepts, ref["intercepts"], tol)
    for name in ("r", "u", "r_prev", "gamma", "v", "gamma_prev"):
        assert getattr(state, name).shape == ref[name].shape
        assert _close(getattr(state, name), ref[name], tol)
    assert _close(res.coefficients, ref["coefficients"], tol)
    if not penalized:
        assert np.array_equal(res.coefficients, state.beta[K:])
    for norm, eps in (("primal_norm", "eps_primal"), ("dual_norm", "eps_dual")):
        assert res.diagnostics[eps] == pytest.approx(ref[eps], rel=1e-12)
        assert abs(res.diagnostics[norm] - ref[norm]) <= 1e-9 * ref[eps]
    if shape == "wide" and not penalized:
        assert res.diagnostics["ridge"]
    if shape == "dup" and not penalized:
        assert not res.diagnostics["ridge"] and res.coefficients[2] == 0.0


@pytest.mark.parametrize("levels", [QuantileLevels.single(0.3),
                                    QuantileLevels.grid(9)])
def test_live_column_gram_and_zero_coordinates(levels):
    # a penalized fit builds G[:, live] only; an all-zero column and an
    # inactive coordinate stay exact zeros, and the stopping rule the loop
    # applied is the full K + p display
    rng = np.random.default_rng(43)
    n, p, K = 40, 6, levels.K
    X = rng.standard_normal((n, p))
    X[:, 2] = 0.0
    Y = 1.0 + X @ np.array([1.0, 0.5, 0.0, -0.8, 0.0, 0.3]) + rng.standard_normal(n)
    pilot = np.array([1.0, 0.6, 0.7, 0.0, 0.2, 0.4])   # coordinate 3 inactive
    cols = np.array([0, 1, 4, 5])
    live = np.concatenate([np.arange(K), K + cols])
    full = stacked_gram(X, np.ones((K, n)))
    assert_allclose(stacked_gram(X, np.ones((K, n)), cols), full[:, live],
                    rtol=1e-14, atol=1e-12)
    data = Dataset(X, Y)
    for max_iter in (3, 5000):
        opts = SolverOptions(max_iter=max_iter)
        pen = PenaltySpec.adaptive_lasso(0.3 * K, pilot)
        res = fit_admm(data, levels, pen, opts)
        assert res.coefficients[2] == 0.0 and res.coefficients[3] == 0.0
        state = res.diagnostics["state"]
        stop, ep, ed = _direct_stopping(state, data, levels, opts, pen)
        assert stop == res.converged
        assert ep == pytest.approx(res.diagnostics["eps_primal"], rel=1e-12)
        assert ed == pytest.approx(res.diagnostics["eps_dual"], rel=1e-12)
    assert res.converged


def _guard_case(n, p, K, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    Y = 1.0 + X @ rng.uniform(-1, 1, p) + rng.standard_normal(n)
    return Dataset(X, Y), QuantileLevels.single(0.3) if K == 1 else QuantileLevels.grid(K)


@pytest.mark.parametrize("case", ["200x5 K1", "200x5 K9", "200x400 penalized"])
def test_fit_matches_reference_loop_at_benchmark_sizes(case):
    # the clipped loop keeps the reference loop's iteration count, and its
    # objective to 1e-12, at the Baseline sizes and on a sim-select-like
    # penalized fit (p = 400, five live columns)
    if case == "200x400 penalized":
        data, levels = _guard_case(200, 400, 1, 7)
        pilot = np.zeros(400)
        pilot[[0, 1, 2, 3]] = [1.0, -0.8, 0.6, 0.9]
        pen = PenaltySpec.adaptive_lasso(2.0, pilot)
    else:
        data, levels = _guard_case(200, 5, 1 if case.endswith("K1") else 9, 1)
        pen = PenaltySpec.none()
    opts = SolverOptions()
    res = fit_admm(data, levels, pen, opts)
    ref = admm_reference(data, levels, pen, opts)
    assert res.converged and ref["converged"]
    assert res.iterations == ref["iterations"]
    K = levels.K
    ref_obj = objective(data, ref["intercepts"], ref["coefficients"], levels, pen)
    assert res.objective == pytest.approx(ref_obj, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_penalized_fit_with_an_offset_column(seed):
    # a column offset by 100 leaves the stacked Gram ill-conditioned against
    # the intercepts; the penalty rows keep each iteration one Cholesky solve,
    # and the fit converges next to the interior point's optimum
    rng = np.random.default_rng(seed)
    n, p = 200, 8
    X = rng.standard_normal((n, p))
    X[:, 2] += 100.0
    Y = 1.0 + X @ np.array([1.0, -0.8, 0.6, 0.9, 0, 0, 0, 0]) + rng.standard_normal(n)
    data = Dataset(X, Y)
    levels = QuantileLevels.single(0.3)
    pilot = fit_ip(data, levels).coefficients
    pen = PenaltySpec.adaptive_lasso(default_lambda(n, p), pilot)
    res = fit_admm(data, levels, pen)
    best = fit_ip(data, levels, pen).objective
    assert res.converged
    assert res.objective - best <= 1e-3 * best
