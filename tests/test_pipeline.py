"""Two-stage fitting pipeline tests.

Request validation, pilot wiring (weights from the unpenalized first
stage), and agreement of the four backends routed through the same
request.
"""

import numpy as np
import pytest

from cqrkit import (
    ConvergenceError,
    Dataset,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    objective,
)
from cqrkit.pipeline import SOLVERS, FitRequest, fit, pilot

ALGOS = ("admm", "mm", "cd", "ip")


def _gaussian(n, p, seed, beta=None, intercept=0.4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    if beta is None:
        beta = rng.normal(size=p)
    return Dataset(X, intercept + X @ beta + 0.3 * rng.normal(size=n))


# ---------------------------------------------------------------- validation

def test_registry_covers_all_four_backends():
    assert set(SOLVERS) == set(ALGOS)


def test_unknown_algorithm_rejected():
    data = _gaussian(10, 2, 0)
    with pytest.raises(ValueError, match="newton"):
        FitRequest(data, QuantileLevels.single(0.5), algorithm="newton")


def test_unknown_pilot_algorithm_rejected():
    data = _gaussian(10, 2, 0)
    with pytest.raises(ValueError):
        FitRequest(data, QuantileLevels.single(0.5), regularized=True,
                   lam=1.0, pilot_algorithm="simplex")


def test_regularized_requires_lambda():
    data = _gaussian(10, 2, 0)
    with pytest.raises(ValueError, match="lam"):
        FitRequest(data, QuantileLevels.single(0.5), regularized=True)


def test_lambda_without_regularized_rejected():
    data = _gaussian(10, 2, 0)
    with pytest.raises(ValueError, match="lam"):
        FitRequest(data, QuantileLevels.single(0.5), lam=0.5)


def test_nonpositive_or_nonfinite_lambda_rejected():
    data = _gaussian(10, 2, 0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            FitRequest(data, QuantileLevels.single(0.5), regularized=True,
                       lam=bad)


@pytest.mark.parametrize("algorithm", ALGOS)
def test_pilot_length_mismatch(algorithm):
    data = Dataset(np.zeros((4, 2)), np.zeros(4))
    pen = PenaltySpec.adaptive_lasso(1.0, np.array([1.0]))
    with pytest.raises(ValueError, match="pilot length 1 does not match p=2"):
        SOLVERS[algorithm](data, QuantileLevels.single(0.5), pen)


def test_pilot_algorithm_defaults_to_main_algorithm():
    data = _gaussian(10, 2, 0)
    req = FitRequest(data, QuantileLevels.single(0.5), algorithm="cd",
                     regularized=True, lam=0.1)
    assert req.pilot_algorithm == "cd"


# ------------------------------------------------------------- unregularized

@pytest.mark.parametrize("algorithm", ALGOS)
def test_unregularized_matches_direct_solver_call(algorithm):
    data = _gaussian(30, 3, 7)
    levels = QuantileLevels.grid(3)
    via_pipeline = fit(FitRequest(data, levels, algorithm=algorithm))
    direct = SOLVERS[algorithm](data, levels, None, SolverOptions())
    assert via_pipeline.algorithm == algorithm
    np.testing.assert_array_equal(via_pipeline.coefficients,
                                  direct.coefficients)
    np.testing.assert_array_equal(via_pipeline.intercepts, direct.intercepts)


# ------------------------------------------------------------- pilot wiring

def test_vanishing_lambda_recovers_pilot():
    data = _gaussian(40, 3, 11)
    levels = QuantileLevels.single(0.3)
    pilot = fit(FitRequest(data, levels, algorithm="ip"))
    reg = fit(FitRequest(data, levels, algorithm="ip", regularized=True,
                         lam=1e-10))
    assert np.max(np.abs(reg.coefficients - pilot.coefficients)) <= 1e-3


def test_pilot_coefficients_recorded_in_diagnostics():
    data = _gaussian(40, 3, 11)
    levels = QuantileLevels.single(0.3)
    pilot = fit(FitRequest(data, levels, algorithm="ip"))
    reg = fit(FitRequest(data, levels, algorithm="ip", regularized=True,
                         lam=0.5))
    np.testing.assert_allclose(reg.diagnostics["pilot"], pilot.coefficients,
                               rtol=0, atol=1e-12)


def test_zero_pilot_coordinate_pins_final_coefficient():
    # Column 2 is pure noise orthogonal to Y at the pilot optimum often
    # enough; force the issue with a literally irrelevant constant-zero
    # column so every solver's pilot gives exactly 0 there.
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 3))
    X[:, 2] = 0.0
    data = Dataset(X, 1.0 + X[:, 0] - 0.5 * X[:, 1] + 0.2 * rng.normal(size=30))
    levels = QuantileLevels.single(0.5)
    for algorithm in ALGOS:
        reg = fit(FitRequest(data, levels, algorithm=algorithm,
                             regularized=True, lam=0.3))
        assert reg.diagnostics["pilot"][2] == 0.0
        assert reg.coefficients[2] == 0.0


def test_dependent_column_is_cut_from_every_two_stage_fit():
    # at p < n the pilot is the unpenalized fit, from which ``core.prepare``
    # cuts column 3, a copy of column 0: its pilot is exactly 0, and no
    # final fit brings it back, whichever solver fits the two stages
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 4))
    X[:, 3] = X[:, 0]
    data = Dataset(X, 1.0 + X[:, 0] - 0.5 * X[:, 1] + 0.3 * rng.normal(size=60))
    levels = QuantileLevels.single(0.5)
    for algorithm in ALGOS:
        reg = fit(FitRequest(data, levels, algorithm=algorithm,
                             regularized=True, lam=0.3))
        assert reg.converged, algorithm
        assert reg.diagnostics["pilot"][3] == 0.0, algorithm
        assert reg.coefficients[3] == 0.0, algorithm


def test_separate_pilot_algorithm_used():
    data = _gaussian(40, 3, 19)
    levels = QuantileLevels.single(0.3)
    via_cd_pilot = fit(FitRequest(data, levels, algorithm="ip",
                                  regularized=True, lam=0.4,
                                  pilot_algorithm="cd"))
    cd_pilot = fit(FitRequest(data, levels, algorithm="cd"))
    np.testing.assert_allclose(via_cd_pilot.diagnostics["pilot"],
                               cd_pilot.coefficients, rtol=0, atol=1e-12)


def test_pilot_failure_names_the_stage():
    data = _gaussian(25, 2, 5)
    # One iteration at an absurd tolerance cannot converge.
    opts = SolverOptions(max_iter=1, tol=1e-300, eps_abs=1e-300,
                         eps_rel=1e-300)
    with pytest.raises(ConvergenceError, match="pilot"):
        fit(FitRequest(data, QuantileLevels.single(0.5), algorithm="admm",
                       regularized=True, lam=0.5, options=opts))


def test_admm_pilot_failure_says_why():
    # the forward pilot's first refit stops after 3 iterations; the error
    # names the residual that failed and its tolerance
    data = _gaussian(30, 45, 7, beta=np.r_[2.0, -2.0, np.zeros(43)])
    request = FitRequest(data, QuantileLevels.single(0.5), algorithm="admm",
                         regularized=True, lam=0.5,
                         options=SolverOptions(max_iter=3))
    with pytest.raises(ConvergenceError,
                       match=r"pilot stage \(admm\) did not converge after 3 "
                             r"iterations: .*the dual residual \S+ is above "
                             r"its tolerance \S+$"):
        pilot(request)


@pytest.mark.parametrize("n, p", [(40, 3), (30, 45)])
def test_given_pilot_reproduces_the_two_stage_fit(n, p):
    # the pilot stage alone, then the final stage on its result, is the
    # same fit bit for bit, at p < n and at p >= n (forward selection)
    data = _gaussian(n, p, 41)
    levels = QuantileLevels.grid(3)
    for algorithm in ALGOS:
        request = FitRequest(data, levels, algorithm=algorithm,
                             regularized=True, lam=0.5, pilot_algorithm="ip")
        whole = fit(request)
        coefficients = pilot(request)
        staged = fit(request, pilot=coefficients)
        assert coefficients.tobytes() == whole.diagnostics["pilot"].tobytes()
        assert staged.diagnostics["pilot"].tobytes() == coefficients.tobytes()
        assert staged.diagnostics["pilot"] is not coefficients
        assert staged.coefficients.tobytes() == whole.coefficients.tobytes()
        assert staged.intercepts.tobytes() == whole.intercepts.tobytes()
        assert staged.objective == whole.objective


def test_given_pilot_is_validated():
    data = _gaussian(20, 3, 43)
    levels = QuantileLevels.single(0.5)
    plain = FitRequest(data, levels, algorithm="ip")
    with pytest.raises(ValueError, match="not regularized"):
        fit(plain, pilot=np.ones(3))
    request = FitRequest(data, levels, algorithm="ip", regularized=True,
                         lam=0.5)
    with pytest.raises(ValueError, match="pilot length 2 does not match p=3"):
        fit(request, pilot=np.ones(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            fit(request, pilot=np.array([1.0, bad, 1.0]))


@pytest.mark.parametrize("algorithm", ALGOS)
@pytest.mark.parametrize("K", [1, 3])
def test_wide_pilot_is_forward_selected_refit(algorithm, K):
    # p >= n: the unregularized minimizer is any interpolant, so the pilot is
    # the refit on the forward-selected columns, exactly zero elsewhere.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 120))
    X[:, 0] = 0.0                       # an all-zero column never enters
    support = [4, 17, 90]
    data = Dataset(X, 0.5 + X[:, support] @ [2.0, -2.0, 1.5]
                   + 0.5 * rng.normal(size=60))
    levels = QuantileLevels.single(0.5) if K == 1 else QuantileLevels.grid(K)
    reg = fit(FitRequest(data, levels, algorithm=algorithm, regularized=True,
                         lam=0.5))
    pilot = reg.diagnostics["pilot"]
    assert list(np.flatnonzero(pilot)) == support
    refit = fit(FitRequest(Dataset(X[:, support], data.Y), levels,
                           algorithm="ip"))
    np.testing.assert_allclose(pilot[support], refit.coefficients, atol=0.05)
    assert list(np.flatnonzero(np.abs(reg.coefficients) > 1e-3)) == support


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_pilot_selects_a_column_with_a_large_mean(seed):
    # shifting x_0 and y by the same amount leaves the model as it is; the
    # score statistic centers its columns, so the selection stays too
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(100, 200))
    y = 1 + X[:, 0] + X[:, 1] + rng.normal(size=100)
    shifted = X.copy()
    shifted[:, 0] += 100.0
    selected = []
    for data in (Dataset(X, y), Dataset(shifted, y + 100.0)):
        request = FitRequest(data, QuantileLevels.single(0.5), algorithm="ip",
                             regularized=True, lam=1.0)
        selected.append(list(np.flatnonzero(pilot(request))))
    assert selected[0] == selected[1] == [0, 1]


@pytest.mark.parametrize("K", [1, 3])
def test_wide_pilot_never_refits_a_constant_column(K, monkeypatch):
    # the candidates are the columns of ``core.prepare``: a constant column,
    # an intercept column of ones included, is never selected
    refits = []
    fit_ip = SOLVERS["ip"]

    def recorded(data, *args):
        refits.append(data.X)
        return fit_ip(data, *args)

    monkeypatch.setitem(SOLVERS, "ip", recorded)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 120))
    X[:, 0], X[:, 1] = 1.0, 3.0
    support = [4, 17, 90]
    data = Dataset(X, 0.5 + X[:, support] @ [2.0, -2.0, 1.5]
                   + 0.5 * rng.normal(size=60))
    levels = QuantileLevels.single(0.5) if K == 1 else QuantileLevels.grid(K)
    coefficients = pilot(FitRequest(data, levels, algorithm="ip",
                                    regularized=True, lam=0.5))
    assert list(np.flatnonzero(coefficients)) == support
    assert len(refits) == len(support)
    assert all(np.all(np.ptp(Xs, axis=0) > 0.0) for Xs in refits)


@pytest.mark.parametrize("algorithm, tol", [("ip", 1e-8), ("admm", 1e-6),
                                            ("mm", 1e-3)])
@pytest.mark.parametrize("K", [1, 3])
def test_wide_unregularized_fit_is_least_l2_interpolant(algorithm, tol, K):
    # the module docstring's reason for not using this fit as the pilot;
    # MM's tolerance is its smoothing constant eps_mm = 1e-4, with margin.
    # IP fits on unit-norm columns, so its interpolant is least-L2 in that
    # metric, and it moves exactly with a rescaling of the columns.
    rng = np.random.default_rng(5)
    n, p = 30, 70
    X = rng.normal(size=(n, p))
    data = Dataset(X, X[:, :3] @ [1.0, -1.0, 0.5] + rng.normal(size=n))
    levels = QuantileLevels.single(0.3) if K == 1 else QuantileLevels.grid(K)
    stacked = np.hstack([np.kron(np.eye(K), np.ones((n, 1))),
                         np.tile(X, (K, 1))])
    metric = np.ones(K + p)
    if algorithm == "ip":
        metric[K:] = np.linalg.norm(X, axis=0)
    least_l2 = np.linalg.pinv(stacked / metric) @ np.tile(data.Y, K) / metric
    res = SOLVERS[algorithm](data, levels)
    assert res.converged
    theta = np.concatenate([res.intercepts, res.coefficients])
    assert np.max(np.abs(theta - least_l2)) <= tol * (1.0 + np.max(np.abs(least_l2)))
    if algorithm == "ip":
        units = np.exp(rng.uniform(-8.0, 8.0, size=p))
        rescaled = SOLVERS[algorithm](Dataset(X * units, data.Y), levels)
        back = rescaled.coefficients * units
        assert np.max(np.abs(back - res.coefficients)) <= tol * (
            1.0 + np.max(np.abs(res.coefficients)))


# ---------------------------------------------------------- solver agreement

def test_four_backends_agree_on_shared_request():
    data = _gaussian(40, 3, 23)
    levels = QuantileLevels.grid(5)
    results = {a: fit(FitRequest(data, levels, algorithm=a,
                                 regularized=True, lam=0.8))
               for a in ALGOS}
    tags = list(results)
    for i in range(len(tags)):
        for j in range(i + 1, len(tags)):
            a, b = results[tags[i]], results[tags[j]]
            assert np.max(np.abs(a.coefficients - b.coefficients)) <= 5e-2, \
                (tags[i], tags[j])
            assert abs(a.objective - b.objective) <= 1e-2, (tags[i], tags[j])


def test_no_penalized_coefficient_is_a_negative_zero():
    # a coefficient the penalty sets to zero is +0.0 in every solver, so
    # documents print 0.0; ADMM's soft threshold once left -0.0 there
    data = _gaussian(200, 12, 12, beta=np.r_[1.0, -0.8, 0.6, np.zeros(9)])
    levels = QuantileLevels.single(0.3)
    pilot = SOLVERS["ip"](data, levels).coefficients
    penalty = PenaltySpec.adaptive_lasso(4.0, pilot)
    for tag, fitter in SOLVERS.items():
        coefficients = fitter(data, levels, penalty).coefficients
        zeros = coefficients == 0.0
        assert not np.any(np.signbit(coefficients[zeros])), tag
        assert tag == "ip" or zeros.sum() >= 5, tag


# ------------------------------------------------------------------ invariants

@pytest.mark.parametrize("algorithm", ALGOS)
def test_identical_requests_are_bit_identical(algorithm):
    levels = QuantileLevels.grid(3)
    runs = []
    for _ in range(2):
        data = _gaussian(35, 4, 29)
        res = fit(FitRequest(data, levels, algorithm=algorithm,
                             regularized=True, lam=0.6))
        runs.append(res)
    a, b = runs
    assert a.coefficients.tobytes() == b.coefficients.tobytes()
    assert a.intercepts.tobytes() == b.intercepts.tobytes()
    assert a.objective == b.objective
    assert a.iterations == b.iterations


@pytest.mark.parametrize("algorithm", ALGOS)
def test_reported_objective_matches_recomputation(algorithm):
    data = _gaussian(30, 3, 31)
    levels = QuantileLevels.grid(3)
    res = fit(FitRequest(data, levels, algorithm=algorithm))
    recomputed = objective(data, res.intercepts, res.coefficients, levels,
                           PenaltySpec.none())
    assert abs(res.objective - recomputed) <= 1e-10


def test_column_permutation_permutes_coefficients():
    rng = np.random.default_rng(37)
    X = rng.normal(size=(40, 4))
    Y = 0.5 + X @ np.array([1.0, -0.7, 0.0, 0.4]) + 0.3 * rng.normal(size=40)
    perm = np.array([2, 0, 3, 1])
    levels = QuantileLevels.single(0.3)
    for algorithm in ALGOS:
        base = fit(FitRequest(Dataset(X, Y), levels, algorithm=algorithm,
                              regularized=True, lam=0.5))
        permuted = fit(FitRequest(Dataset(X[:, perm], Y), levels,
                                  algorithm=algorithm, regularized=True,
                                  lam=0.5))
        # identical up to solver tolerance: permutation reorders float
        # summation inside the iterative backends
        np.testing.assert_allclose(permuted.coefficients,
                                   base.coefficients[perm],
                                   rtol=0, atol=1e-5)
