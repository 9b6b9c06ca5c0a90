"""Degenerate designs across all four solvers.

Each design's stacked Gram matrix is exactly singular.  A solver may report
that it did not converge, but a fit that reports convergence must be finite
and land on the interior point's objective to criterion 1's tolerance.
All-zero and constant columns never reach a solver: ``core.prepare``
leaves them out, and every solver must then converge with 0 on them.
Below n columns it also cuts an unpenalized fit's dependent columns, so
every solver converges there with 0 on the same cut column.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cqrkit import Dataset, PenaltySpec, QuantileLevels
from cqrkit.pipeline import SOLVERS

#: criterion 1's relative tolerance against the interior point
GAP_TOL = 1e-2


def _singular_design(name):
    if name == "linear-combination":
        # ADMM once reported converged here, at 5e17 coefficients and an
        # objective 500x the optimum: Cholesky succeeded on a roundoff pivot
        rng = np.random.default_rng(17)
        X = rng.standard_normal((100, 4))
        X[:, 3] = X[:, 0] + X[:, 1]
        y = 1 + X[:, :3] @ np.array([1.0, -1.0, 0.5]) + rng.standard_normal(100)
        return Dataset(X, y)
    rng = np.random.default_rng(23)
    n, p = (30, 40) if name == "p-above-n" else (80, 4)
    X = rng.standard_normal((n, p))
    if name == "duplicated-column":
        X[:, 3] = X[:, 0]
    elif name == "one-hot-block":     # its columns sum to the intercept's
        X[:, :3] = np.eye(3)[rng.integers(0, 3, size=n)]
    elif name == "zero-column":
        X[:, 2] = 0.0
    y = 1 + X @ rng.uniform(-1, 1, size=p) + rng.standard_normal(n)
    return Dataset(X, y)


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("name", ["duplicated-column", "linear-combination",
                                  "one-hot-block", "zero-column", "p-above-n"])
def test_converged_fits_on_singular_designs_reach_the_optimum(name, K):
    data = _singular_design(name)
    levels = QuantileLevels.single(0.5) if K == 1 else QuantileLevels.grid(K)
    best = SOLVERS["ip"](data, levels)
    assert best.converged
    # at p > n the optimum is 0: the floor keeps the tolerance in y's units
    tol = GAP_TOL * max(best.objective, 1.0)
    for tag, fitter in SOLVERS.items():
        fit = fitter(data, levels)
        if not fit.converged:
            continue
        assert np.all(np.isfinite(fit.intercepts)), tag
        assert np.all(np.isfinite(fit.coefficients)), tag
        assert abs(fit.objective - best.objective) <= tol, (
            tag, fit.objective, best.objective)


#: the column ``core.prepare`` cuts from each dependent design, the last of
#: its dependent set
CUT = {"duplicated-column": 3, "linear-combination": 3, "one-hot-block": 2}


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("name", sorted(CUT))
def test_dependent_columns_are_cut_alike_in_every_fit(name, K):
    # below n columns no solver meets the singular Gram: none ridges, and
    # all four put exactly 0 on the same cut column and nowhere else
    data = _singular_design(name)
    levels = QuantileLevels.single(0.5) if K == 1 else QuantileLevels.grid(K)
    fits = {tag: fitter(data, levels) for tag, fitter in SOLVERS.items()}
    cd, ip = fits["cd"], fits["ip"]
    for tag, fit in fits.items():
        assert fit.converged, tag
        assert not fit.diagnostics.get("ridge", False), tag
        assert list(np.flatnonzero(fit.coefficients == 0.0)) == [CUT[name]], tag
        assert abs(fit.objective - ip.objective) <= GAP_TOL * ip.objective, (
            tag, fit.objective, ip.objective)
    # the two exact solvers reach one optimum with one set of coefficients.
    # At these levels each one-hot group's quantile is not unique, so there
    # the block's coefficients, like the intercepts, may differ: CD ends on
    # a vertex of the optimal face, IP inside it
    assert cd.objective == pytest.approx(ip.objective, rel=1e-8)
    block = [0, 1, 2] if name == "one-hot-block" else []
    unique = np.setdiff1d(np.arange(data.p), block)
    assert_allclose(cd.coefficients[unique], ip.coefficients[unique],
                    rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("penalized", [False, True])
def test_all_zero_column_is_left_out_of_every_fit(penalized, K):
    # every solver moves only the columns of ``core.prepare``: an all-zero
    # column, even one whose pilot is nonzero, stays exactly at zero and
    # leaves no singular Gram behind it, so neither ADMM nor MM ridges
    data = _singular_design("zero-column")
    levels = QuantileLevels.single(0.5) if K == 1 else QuantileLevels.grid(K)
    penalty = (PenaltySpec.adaptive_lasso(1.0, np.full(data.p, 0.5))
               if penalized else None)
    best = SOLVERS["ip"](data, levels, penalty)
    for tag, fitter in SOLVERS.items():
        fit = fitter(data, levels, penalty)
        assert fit.converged, tag
        assert fit.coefficients[2] == 0.0, tag
        assert not fit.diagnostics.get("ridge", False), tag
        assert abs(fit.objective - best.objective) <= GAP_TOL * best.objective, (
            tag, fit.objective, best.objective)


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("penalized", [False, True])
@pytest.mark.parametrize("value", [3.0, 1.0])    # 1.0: an intercept column
def test_constant_column_is_left_out_of_every_fit(value, penalized, K):
    # the intercepts absorb a constant column at every level, so
    # ``core.prepare`` leaves it out: every solver puts exactly 0 on it,
    # even under a nonzero pilot, and no Gram is singular because of it
    rng = np.random.default_rng(3)
    X = rng.standard_normal((200, 4))
    X[:, 2] = value
    data = Dataset(X, 1 + X[:, [0, 1, 3]] @ np.array([1.0, -0.5, 0.8])
                   + rng.standard_normal(200))
    levels = QuantileLevels.single(0.3) if K == 1 else QuantileLevels.grid(K)
    penalty = (PenaltySpec.adaptive_lasso(1.0, np.full(data.p, 0.5))
               if penalized else None)
    best = SOLVERS["ip"](data, levels, penalty)
    for tag, fitter in SOLVERS.items():
        fit = fitter(data, levels, penalty)
        assert fit.converged, tag
        assert fit.coefficients[2] == 0.0, tag
        assert not fit.diagnostics.get("ridge", False), tag
        assert abs(fit.objective - best.objective) <= GAP_TOL * best.objective, (
            tag, fit.objective, best.objective)
