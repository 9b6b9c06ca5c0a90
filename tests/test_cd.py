"""Coordinate-descent solver tests.

The enumeration oracle (``qr_exact``) and the single-covariate penalized
oracle are independent of the solver code; hand-built breakpoint/weight
sets double-check the update formula itself.
"""

import numpy as np
import pytest

from cqrkit import (
    Dataset,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    objective,
    penalty_value,
    weighted_median,
)
from cqrkit import cd
from cqrkit.cd import (
    _coordinate_step,
    _identifiable,
    _independent,
    _intercept_step,
    _simplex_finish,
    fit_cd,
)
from cqrkit.ip import fit_ip
from cqrkit.pipeline import FitRequest, fit

from oracles import penalized_qr_1d_exact, qr_exact

NONE = PenaltySpec.none()


def _total(data, levels, beta, intercepts, penalty=NONE):
    return objective(data, intercepts, beta, levels, penalty)


def _residuals(data, beta, intercepts):
    """(K, n) residuals ``y_i - b_k - x_i' beta``, the sweep's layout."""
    return data.Y[None, :] - intercepts[:, None] - (data.X @ beta)[None, :]


def _intercept(data, levels, beta, intercepts, k):
    """The sweep's intercept step for level ``k`` at ``(intercepts, beta)``."""
    return _intercept_step(_residuals(data, beta, intercepts), intercepts, k,
                           levels.taus)


def _coordinate(data, levels, beta, intercepts, m, penalty=NONE):
    """The sweep's safeguarded step for coefficient ``m``; returns its value."""
    pseudo = penalty.lam / penalty.pilot[m] ** 2 if penalty.regularized else 0.0
    fid = _total(data, levels, beta, intercepts)
    return _coordinate_step(_residuals(data, beta, intercepts), data.X[:, m],
                            levels.taus, beta[m], pseudo, fid,
                            penalty_value(beta, penalty))[0]


# ---------------------------------------------------------------- intercepts

def test_intercept_update_is_median():
    data = Dataset(np.zeros((3, 1)) + [[1.0], [1.0], [1.0]],
                   np.array([1.0, 2.0, 3.0]))
    assert _intercept(data, QuantileLevels.single(0.5),
                      np.zeros(1), np.zeros(1), 0) == 2.0


def test_intercept_update_idempotent_on_perfect_fit():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 2))
    beta = np.array([0.5, -1.0])
    data = Dataset(X, X @ beta + 0.7)
    levels = QuantileLevels.single(0.3)
    assert _intercept(data, levels, beta, np.array([0.7]), 0) == pytest.approx(0.7)


def test_intercept_update_never_increases_objective():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(5, 30))
        X = rng.normal(size=(n, 2))
        data = Dataset(X, rng.normal(size=n))
        levels = QuantileLevels.grid(int(rng.integers(1, 4)))
        beta = rng.normal(size=2)
        b = rng.normal(size=levels.K)
        k = int(rng.integers(levels.K))
        before = _total(data, levels, beta, b)
        b2 = b.copy()
        b2[k] = _intercept(data, levels, beta, b, k)
        assert _total(data, levels, beta, b2) <= before + 1e-12


def test_intercept_update_perturbation_optimality():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(6, 40))
        X = rng.normal(size=(n, 1))
        data = Dataset(X, rng.normal(size=n))
        tau = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        levels = QuantileLevels.single(tau)
        beta = rng.normal(size=1)
        b_new = np.array([_intercept(data, levels, beta, rng.normal(size=1), 0)])
        base = _total(data, levels, beta, b_new)
        for delta in (1e-3, -1e-3):
            assert _total(data, levels, beta, b_new + delta) >= base - 1e-12


# --------------------------------------------------------------- coordinates

def test_coordinate_update_hand_example():
    # x = (1,1,1): breakpoints are y themselves with equal weights
    data = Dataset(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]))
    levels = QuantileLevels.single(0.5)
    assert _coordinate(data, levels, np.zeros(1), np.zeros(1), 0) == 2.0


def test_coordinate_update_huge_penalty_returns_zero():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 2))
    data = Dataset(X, X @ np.array([2.0, -1.0]) + rng.normal(size=20))
    levels = QuantileLevels.single(0.5)
    pen = PenaltySpec.adaptive_lasso(1e8, np.ones(2))
    assert _coordinate(data, levels, np.array([2.0, -1.0]), np.zeros(1), 0,
                       pen) == 0.0


def test_coordinate_update_matches_hand_built_median():
    # rebuild breakpoints and weights from their definition; whenever the
    # weighted median is accepted the update must return exactly it
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(5, 25))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        data = Dataset(X, rng.normal(size=n))
        levels = QuantileLevels.grid(int(rng.integers(1, 3)))
        beta = rng.normal(size=p)
        b = rng.normal(size=levels.K)
        m = int(rng.integers(p))
        z, w = [], []
        for k, tau in enumerate(levels.taus):
            for i in range(n):
                if X[i, m] == 0.0:
                    continue
                partial = data.Y[i] - b[k] - X[i] @ beta + X[i, m] * beta[m]
                z.append(partial / X[i, m])
                r_ik = data.Y[i] - b[k] - X[i] @ beta
                theta = tau if r_ik >= 0 else 1.0 - tau
                w.append(abs(X[i, m]) * theta)
        med = weighted_median(np.array(z), np.array(w))
        got = _coordinate(data, levels, beta, b, m)
        beta_med = beta.copy()
        beta_med[m] = med
        margin = _total(data, levels, beta_med, b) - _total(data, levels, beta, b)
        if margin < -1e-9:
            assert got == pytest.approx(med, rel=1e-9, abs=1e-12)
            checked += 1
        elif margin > 1e-9:
            assert got == beta[m]
    assert checked > 10


def test_coordinate_update_safeguard_rejects_increase():
    # hunt for a state where the raw weighted-median candidate would raise
    # the objective; the update must then leave the coefficient alone
    rng = np.random.default_rng(5)
    found = False
    for _ in range(200):
        n = int(rng.integers(5, 20))
        X = rng.normal(size=(n, 2))
        data = Dataset(X, rng.normal(size=n))
        tau = float(rng.choice([0.1, 0.9]))
        levels = QuantileLevels.single(tau)
        beta = rng.normal(size=2)
        b = rng.normal(size=1)
        m = int(rng.integers(2))
        xm = X[:, m]
        r = data.Y - b[0] - X @ beta
        z = (r / xm) + beta[m]
        theta = np.where(r >= 0, tau, 1 - tau)
        med = weighted_median(z, np.abs(xm) * theta)
        beta_med = beta.copy()
        beta_med[m] = med
        if _total(data, levels, beta_med, b) > _total(data, levels, beta, b) + 1e-9:
            got = _coordinate(data, levels, beta, b, m)
            assert got == beta[m]
            found = True
            break
    assert found


def test_coordinate_update_never_increases_objective():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(5, 30))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        data = Dataset(X, rng.normal(size=n))
        levels = QuantileLevels.grid(int(rng.integers(1, 3)))
        beta = rng.normal(size=p)
        b = rng.normal(size=levels.K)
        m = int(rng.integers(p))
        new = _coordinate(data, levels, beta, b, m)
        beta2 = beta.copy()
        beta2[m] = new
        assert _total(data, levels, beta2, b) <= _total(data, levels, beta, b) + 1e-12


def test_coordinate_update_lambda_zero_matches_unregularized():
    rng = np.random.default_rng(7)
    for _ in range(15):
        X = rng.normal(size=(15, 2))
        data = Dataset(X, rng.normal(size=15))
        levels = QuantileLevels.single(0.3)
        beta = rng.normal(size=2)
        b = rng.normal(size=1)
        pen0 = PenaltySpec.adaptive_lasso(0.0, rng.normal(size=2) + 2.0)
        m = int(rng.integers(2))
        assert (_coordinate(data, levels, beta, b, m)
                == _coordinate(data, levels, beta, b, m, pen0))


# ----------------------------------------------------------------- full fits

def test_fit_intercept_only():
    data = Dataset(np.ones((5, 1)) * 1e-300, np.array([3.0, 1.0, 4.0, 1.0, 5.0]))
    # make the covariate irrelevant instead: plain column of ones and a flat Y
    data = Dataset(np.ones((5, 1)), np.array([3.0, 1.0, 4.0, 1.0, 5.0]))
    res = fit_cd(data, QuantileLevels.single(0.5))
    fitted = res.intercepts[0] + res.coefficients[0]
    assert fitted == pytest.approx(3.0)  # median of Y
    assert res.converged


def test_fit_exact_line():
    x = np.linspace(-2.0, 3.0, 11)
    data = Dataset(x[:, None], 2.0 * x)
    res = fit_cd(data, QuantileLevels.single(0.5),
                 options=SolverOptions(tol=1e-8))
    assert res.coefficients[0] == pytest.approx(2.0, abs=1e-6)
    assert res.intercepts[0] == pytest.approx(0.0, abs=1e-6)
    assert res.objective < 1e-8


def test_fit_matches_enumeration_oracle():
    rng = np.random.default_rng(8)
    for _ in range(8):
        n = int(rng.integers(15, 30))
        p = int(rng.choice([1, 2]))
        X = rng.normal(size=(n, p))
        data = Dataset(X, X @ rng.normal(size=p) + rng.normal(size=n))
        tau = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        levels = QuantileLevels.single(tau)
        res = fit_cd(data, levels, options=SolverOptions(tol=1e-7))
        _, best = qr_exact(data, levels)
        assert res.objective <= best + 1e-6


def test_fit_composite_matches_enumeration_oracle():
    rng = np.random.default_rng(9)
    for _ in range(3):
        n = int(rng.integers(12, 16))
        X = rng.normal(size=(n, 1))
        data = Dataset(X, 0.8 * X[:, 0] + rng.normal(size=n))
        levels = QuantileLevels.grid(3)
        res = fit_cd(data, levels, options=SolverOptions(tol=1e-7))
        _, best = qr_exact(data, levels)
        assert res.objective <= best + 1e-6


def test_fit_penalized_single_covariate_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = 25
        X = rng.normal(size=(n, 1))
        data = Dataset(X, 1.5 * X[:, 0] + rng.normal(size=n))
        pilot = np.array([1.5 + 0.2 * rng.normal()])
        lam = float(rng.uniform(0.05, 4.0))
        pen = PenaltySpec.adaptive_lasso(lam, pilot)
        levels = QuantileLevels.single(float(rng.choice([0.3, 0.5, 0.7])))
        res = fit_cd(data, levels, pen, SolverOptions(tol=1e-8))
        _, _, best = penalized_qr_1d_exact(data, levels, lam,
                                           1.0 / pilot[0] ** 2)
        assert res.objective <= best + 1e-6


def test_fit_monotone_and_consistent():
    rng = np.random.default_rng(11)
    for _ in range(6):
        n = int(rng.integers(20, 50))
        p = int(rng.integers(1, 5))
        X = rng.normal(size=(n, p))
        data = Dataset(X, X @ rng.normal(size=p) + rng.normal(size=n))
        levels = QuantileLevels.grid(int(rng.integers(1, 4)))
        pen = NONE
        if rng.random() < 0.5:
            pen = PenaltySpec.adaptive_lasso(0.5, rng.normal(size=p) + 1.5)
        res = fit_cd(data, levels, pen, SolverOptions(tol=1e-6))
        assert res.diagnostics["max_objective_increase"] <= 1e-10
        recomputed = _total(data, levels, res.coefficients, res.intercepts, pen)
        assert res.objective == pytest.approx(recomputed, abs=1e-9)
        R = _residuals(data, res.coefficients, res.intercepts)
        np.testing.assert_allclose(res.diagnostics["residuals"], R, atol=1e-9)


def test_fit_fixed_point_no_single_update_improves():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 3))
    data = Dataset(X, X @ np.array([1.0, 0.0, -0.5]) + rng.normal(size=30))
    levels = QuantileLevels.grid(2)
    opts = SolverOptions(tol=1e-8)
    res = fit_cd(data, levels, options=opts)
    base = _total(data, levels, res.coefficients, res.intercepts)
    for k in range(levels.K):
        b2 = res.intercepts.copy()
        b2[k] = _intercept(data, levels, res.coefficients, res.intercepts, k)
        assert base - _total(data, levels, res.coefficients, b2) <= opts.tol
    for m in range(data.p):
        cand = _coordinate(data, levels, res.coefficients, res.intercepts, m)
        beta2 = res.coefficients.copy()
        beta2[m] = cand
        assert base - _total(data, levels, beta2, res.intercepts) <= opts.tol


def test_fit_zero_column_skipped_and_flagged():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(25, 3))
    X[:, 1] = 0.0
    data = Dataset(X, X @ np.array([1.0, 0.0, -1.0]) + rng.normal(size=25))
    res = fit_cd(data, QuantileLevels.single(0.5))
    assert res.coefficients[1] == 0.0
    assert list(res.diagnostics["skipped_columns"]) == [1]


def test_fit_inactive_coordinates_pinned():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(40, 4))
    data = Dataset(X, X @ np.array([2.0, 0.0, 1.0, 0.0]) + rng.normal(size=40))
    pilot = np.array([2.0, 0.0, 1.0, 1e-9])  # coords 1 and 3 inactive
    pen = PenaltySpec.adaptive_lasso(0.3, pilot)
    res = fit_cd(data, QuantileLevels.single(0.5), pen)
    assert res.coefficients[1] == 0.0
    assert res.coefficients[3] == 0.0


def test_fit_selects_support_with_good_pilot():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(60, 10))
    beta_true = np.zeros(10)
    beta_true[:3] = [1.0, -1.2, 0.9]
    data = Dataset(X, X @ beta_true + rng.normal(size=60))
    pilot = beta_true + 0.05 * rng.normal(size=10)
    pen = PenaltySpec.adaptive_lasso(1.0, pilot)
    res = fit_cd(data, QuantileLevels.single(0.5), pen,
                 SolverOptions(tol=1e-6))
    picked = np.abs(res.coefficients) > 1e-3
    assert picked[:3].all()
    assert not picked[3:].any()


def test_fit_polish_reports_vertex_status():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(40, 2))
    data = Dataset(X, X @ np.array([1.0, -1.0]) + rng.normal(size=40))
    res = fit_cd(data, QuantileLevels.single(0.3))
    info = res.diagnostics["polish"]
    assert info["status"] == "optimal"
    assert info["improvement"] >= -1e-12


def test_fit_reports_a_finish_that_stops_short(monkeypatch):
    # the finish's roundoff exits do not occur on test data, so one is forced
    sweep = {}

    def stopped(X, Y, taus, pseudo, R, beta):
        sweep.update(R=R.copy(), beta=beta.copy())
        return None, 1000, "maxpivots"

    monkeypatch.setattr(cd, "_simplex_finish", stopped)
    rng = np.random.default_rng(16)
    X = rng.normal(size=(40, 2))
    data = Dataset(X, X @ np.array([1.0, -1.0]) + rng.normal(size=40))
    res = fit_cd(data, QuantileLevels.grid(3))
    assert not res.converged
    assert res.diagnostics["reason"] == (
        "the simplex finish ended 'maxpivots' after 1000 pivots")
    assert res.diagnostics["polish"]["status"] == "maxpivots"
    # the sweep's point: its coefficients, and intercepts that match its
    # residuals
    np.testing.assert_array_equal(res.coefficients, sweep["beta"])
    np.testing.assert_allclose(
        data.Y - res.intercepts[:, None] - data.X @ res.coefficients,
        sweep["R"], atol=1e-12)


def _wide_problem(n, p, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    return Dataset(X, X[:, :3] @ [1.0, -0.8, 0.6] + rng.normal(size=n))


@pytest.mark.parametrize("n", [30, 100])
def test_unpenalized_above_polish_limit_never_claims_a_non_minimizer(n):
    # 71 free parameters (the name recalls an earlier finish capped at 64).
    # At n = 30 every interpolant attains objective 0; the sweeps alone stop
    # above the optimum in both regimes, and the finish must reach it.
    data = _wide_problem(n, 70, 17)
    levels = QuantileLevels.single(0.3)
    res = fit_cd(data, levels)
    best = fit_ip(data, levels).objective
    assert res.converged
    assert res.objective <= best + 1e-6 * (1.0 + abs(best))


@pytest.mark.parametrize("extra", ["dup", "intercept"])
def test_rank_deficient_design_never_claims_a_non_minimizer(extra):
    # A duplicated column, or one equal to the intercept: the finish cuts
    # the columns to an identifiable set and reaches the optimum.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 4))
    Y = X @ np.ones(4) + rng.normal(size=100)
    column = X[:, 0] if extra == "dup" else np.ones(100)
    data = Dataset(np.column_stack([X, column]), Y)
    levels = QuantileLevels.single(0.3)
    res = fit_cd(data, levels)
    best = fit_ip(data, levels).objective
    reached = abs(res.objective - best) <= 1e-6 * (1.0 + abs(best))
    assert res.converged
    assert reached


def _dependent_design(kind):
    rng = np.random.default_rng(29)
    X = rng.normal(size=(50, 5))
    if kind == "duplicated":
        X[:, 3] = X[:, 1]
    elif kind == "constant":
        X[:, 2] = 7.0
    elif kind == "one-hot":           # the block sums to the intercept
        X[:, :3] = np.eye(3)[rng.integers(0, 3, size=50)]
    elif kind == "scaled":
        X[:, 4] *= 1e8
    elif kind == "offset":
        X[:, 2] += 1e6
    return X


@pytest.mark.parametrize("kind, cut", [("duplicated", [3]), ("constant", [2]),
                                       ("one-hot", [2]), ("scaled", []),
                                       ("offset", [])])
def test_identifiable_keeps_a_unit_free_spanning_full_rank_set(kind, cut):
    X = _dependent_design(kind)
    keep = _identifiable(X)
    assert np.flatnonzero(~keep).tolist() == cut
    # beside the intercepts the kept columns have full rank, and the cut
    # columns add none: each lies in their span
    kept = np.column_stack([np.ones(50), X[:, keep]])
    rank = kept.shape[1]
    assert np.linalg.matrix_rank(kept) == rank
    assert np.linalg.matrix_rank(np.column_stack([kept, X[:, ~keep]])) == rank
    rescaled = X * np.logspace(-6, 8, 5)
    np.testing.assert_array_equal(_identifiable(rescaled), keep)


def test_identifiable_shortcut_keeps_what_gram_schmidt_keeps():
    # ``_identifiable`` skips its Gram-Schmidt pass when the Cholesky factor
    # of the Gram finds full rank; on centered columns with scaled copies,
    # near-duplicates (residual 1e-7 of the norm), one-hot blocks, offsets
    # and linear combinations it must keep exactly what the pass keeps.
    # The last kind is a combination that lies mostly along a nearly
    # dependent column's residual: its pivot is roundoff above the flag, so
    # an unflagged factor alone would keep it
    rng = np.random.default_rng(2024)
    outcomes = set()
    for _ in range(120):
        n, p = int(rng.integers(8, 120)), int(rng.integers(3, 8))
        X = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-3, 3, p)
        j, k, l = rng.choice(p, 3, replace=False)
        kind = rng.integers(0, 7)
        if kind == 0:
            X[:, j] = X[:, k] * rng.uniform(-3, 3)
        elif kind == 1:
            e = rng.standard_normal(n)
            X[:, j] = X[:, k] + 1e-7 * np.linalg.norm(X[:, k]) * e / np.linalg.norm(e)
        elif kind == 2:
            X[:, :3] = np.eye(3)[rng.integers(0, 3, n)]
        elif kind == 3:
            X[:, j] += 10.0 ** rng.uniform(2, 8)
        elif kind == 4:
            X[:, j] = X[:, k] - 2.0 * X[:, l]
        elif kind == 5:
            X[:, j] = X[:, k] + 5e-4 * X[:, k].std() * rng.standard_normal(n)
            X[:, l] = 2.0 * X[:, j] - 1.98 * X[:, k]
        Xc = X - X.mean(axis=0)
        A = np.vstack([np.full(n, n ** -0.5), Xc.T])
        expected = np.isin(np.arange(1, p + 1), _independent(A, 1e-9))
        np.testing.assert_array_equal(_identifiable(Xc), expected)
        outcomes.add(bool(expected.all()))
    assert outcomes == {False, True}


def test_simplex_finish_on_a_dependent_design_is_degenerate():
    # a duplicated column leaves no d independent rows for a first basis
    X = _dependent_design("duplicated")
    Y = X[:, :3] @ [1.0, -0.8, 0.6]
    _, pivots, status = _simplex_finish(X, Y, np.array([0.5]), np.zeros(5),
                                        Y[None, :], np.zeros(5))
    assert (pivots, status) == (0, "degenerate")


def test_cd_pilot_at_70_columns_is_certified():
    # At p < n the pilot is the full unregularized fit; CD's finish
    # certifies it at (100, 70), so a CD pilot serves the final stage.
    data = _wide_problem(100, 70, 17)
    res = fit(FitRequest(data, QuantileLevels.single(0.3), algorithm="admm",
                         regularized=True, lam=0.8, pilot_algorithm="cd"))
    pilot = fit_cd(data, QuantileLevels.single(0.3))
    assert pilot.converged
    np.testing.assert_array_equal(res.diagnostics["pilot"], pilot.coefficients)
