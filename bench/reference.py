"""Reference answers computed apart from cqrkit.

The (composite, adaptive-lasso penalized) check-loss problem

    min  sum_k sum_i rho_{tau_k}(y_i - b_k - x_i' beta)
         + lam * sum_j |beta_j| / pilot_j**2

with ``beta_j = 0`` wherever ``|pilot_j| < PILOT_FLOOR``, is solved as a
linear program by SciPy's HiGHS interior point method, whose crossover
ends on a vertex (``lp_optimum``); it takes half the time of dual simplex
on a 2000x20 table.  The LP is itself checked against exhaustive vertex
enumeration on small instances (``enumerated_optimum``), in the manner of
``tests/oracles.py``.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# pilots smaller than this exclude their column (cqrkit's documented rule)
PILOT_FLOOR = 1e-6


def penalty_weights(pilot):
    """``(weights, active)``: ``1 / pilot**2`` on columns in the model."""
    pilot = np.asarray(pilot, dtype=float)
    active = np.abs(pilot) >= PILOT_FLOOR
    weights = np.zeros(pilot.shape)
    weights[active] = 1.0 / pilot[active] ** 2
    return weights, active


def objective(X, y, taus, intercepts, beta, lam=0.0, pilot=None):
    """Check loss at ``(intercepts, beta)``, plus the penalty when a pilot
    is given; +inf if a column outside the model is nonzero."""
    R = y[None, :] - np.asarray(intercepts)[:, None] - (X @ beta)[None, :]
    value = float(np.sum(R * (taus[:, None] - (R < 0.0))))
    if pilot is None:
        return value
    weights, active = penalty_weights(pilot)
    if np.any(beta[~active] != 0.0):
        return float("inf")
    return value + lam * float(np.sum(weights * np.abs(beta)))


def lower_quantile(values, tau):
    """The ``ceil(n tau)``-th order statistic, a minimizer of the check loss."""
    m = min(max(int(np.ceil(values.size * tau - 1e-9)), 1), values.size)
    return float(np.partition(values, m - 1)[m - 1])


def _model_columns(p, pilot):
    """``(weights, cols)``: penalty weights and the columns in the model."""
    if pilot is None:
        return np.zeros(p), np.arange(p)
    weights, active = penalty_weights(pilot)
    return weights, np.nonzero(active)[0]


def lp_optimum(X, y, taus, lam=0.0, pilot=None):
    """Optimum value of the program above: ``objective`` recomputed at
    HiGHS's vertex, so it is the exact value of a feasible point."""
    n, p = X.shape
    K = len(taus)
    weights, cols = _model_columns(p, pilot)
    q = cols.size
    # variables: b (K, free), beta+ and beta- (q each), u and v (nK each)
    levels = sparse.kron(sparse.identity(K), np.ones((n, 1)))
    design = sparse.csr_matrix(np.tile(X[:, cols], (K, 1)))
    eye = sparse.identity(n * K)
    A = sparse.hstack([levels, design, -design, eye, -eye], format="csc")
    c = np.concatenate([np.zeros(K), lam * weights[cols], lam * weights[cols],
                        np.repeat(taus, n), np.repeat(1.0 - taus, n)])
    bounds = [(None, None)] * K + [(0.0, None)] * (2 * q + 2 * n * K)
    res = linprog(c, A_eq=A, b_eq=np.tile(y, K), bounds=bounds,
                  method="highs-ipm")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    beta = np.zeros(p)
    beta[cols] = res.x[K:K + q] - res.x[K + q:K + 2 * q]
    return objective(X, y, taus, res.x[:K], beta, lam, pilot)


def enumerated_optimum(X, y, taus, lam=0.0, pilot=None):
    """Best vertex of the same program by exhaustive enumeration.

    Rows are the ``nK`` observations at their levels plus, for each column
    in the model, one pseudo-row ``lam * w_j * e_j`` with response 0 and
    unit weight on both signs, whose loss is the penalty term.  An optimum
    interpolates ``K + q`` rows; every such subset is solved.  Exponential
    in ``K + q``: small inputs only.
    """
    n, p = X.shape
    K = len(taus)
    weights, cols = _model_columns(p, pilot)
    q = cols.size
    rows = [np.concatenate([np.eye(K)[k], X[i, cols]])
            for k in range(K) for i in range(n)]
    rhs = list(np.tile(y, K))
    up = list(np.repeat(taus, n))
    if pilot is not None:
        for j, col in enumerate(cols):
            row = np.zeros(K + q)
            row[K + j] = lam * weights[col]
            rows.append(row)
            rhs.append(0.0)
            up.append(0.5)
    A, b, up = np.array(rows), np.array(rhs), np.array(up)
    # pseudo-rows sit at level 1/2 and count twice: their loss is |r|
    scale = np.where(np.arange(len(b)) < n * K, 1.0, 2.0)
    best = float("inf")
    for subset in combinations(range(len(b)), K + q):
        M = A[list(subset)]
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        theta = np.linalg.solve(M, b[list(subset)])
        r = b - A @ theta
        best = min(best, float(np.sum(scale * r * (up - (r < 0.0)))))
    return best


# ------------------------------------------------------------------ checks

# Stated relative tolerance of a fit's objective above the HiGHS optimum,
# by role and algorithm, a few times the largest gap measured on the
# workloads (README.md).  Default-option ADMM stops on residual norms
# (eps_abs = 1e-2): its unpenalized fits land within 1.6e-5, its penalized
# ones on sim-select up to 4.3e-3 above, and its pilots within 2.8e-4 of
# the optimum on their support.  MM stops on a parameter change: up to
# 1.4e-5 unpenalized, 9.4e-5 penalized.  CD ends on a polished vertex and
# IP at a small duality gap: under 2e-9.  Only ADMM pilots are measured
# (the presets pin ADMM); the other pilot entries are those of the same
# solver's penalized fits.
GAP_TOL = {
    "plain": {"admm": 1e-4, "mm": 1e-4, "cd": 1e-6, "ip": 1e-6},
    "penalized": {"admm": 1e-2, "mm": 1e-3, "cd": 1e-6, "ip": 1e-6},
    "pilot": {"admm": 1e-3, "mm": 1e-3, "cd": 1e-6, "ip": 1e-6},
}
# how far a fit may undercut the reference vertex: roundoff only
BELOW_TOL = 1e-9
# how far a reported objective may stray from the recomputation
RECOMPUTE_TOL = 1e-10


def _gap_errors(where, value, best, tolerance, gaps, key):
    gap = (value - best) / abs(best)
    gaps.setdefault(key, []).append(gap)
    if gap < -BELOW_TOL:
        return [f"{where}: objective {value!r} below the LP optimum {best!r}"]
    if gap > tolerance:
        return [f"{where}: objective {value!r} is {gap:.3g} above the LP "
                f"optimum {best!r} (tolerance {tolerance:g})"]
    return []


def check_fits(problem, fits, gaps):
    """Check every fit against the references; returns the failures.

    ``problem(round)`` gives ``(X, y, taus)``.  ``gaps`` collects each
    fit's relative gap to the LP optimum under ``"<algorithm>/<role>"``,
    the role being one of ``GAP_TOL``'s keys.
    """
    errors, problems, optima = [], {}, {}

    def optimum(r, X, y, taus, lam=0.0, pilot=None, tag=""):
        key = (r, tag, lam, None if pilot is None else pilot.tobytes())
        if key not in optima:
            optima[key] = lp_optimum(X, y, taus, lam, pilot)
        return optima[key]

    for fit in fits:
        if fit.round not in problems:
            problems[fit.round] = problem(fit.round)
        X, y, taus = problems[fit.round]
        where = f"round {fit.round} {fit.algorithm}"
        if not fit.converged:
            errors.append(f"{where}: reported converged=false")
        if not (np.all(np.isfinite(fit.coefficients))
                and np.all(np.isfinite(fit.intercepts))):
            errors.append(f"{where}: non-finite estimate")
            continue
        value = objective(X, y, taus, fit.intercepts, fit.coefficients,
                          fit.lam, fit.pilot)
        if not abs(fit.objective - value) <= RECOMPUTE_TOL * (1 + abs(value)):
            errors.append(f"{where}: reported objective {fit.objective!r} "
                          f"!= recomputed {value!r}")
        best = optimum(fit.round, X, y, taus, fit.lam, fit.pilot)
        role = "plain" if fit.pilot is None else "penalized"
        errors += _gap_errors(where, value, best,
                              GAP_TOL[role][fit.algorithm], gaps,
                              f"{fit.algorithm}/{role}")
        if fit.pilot is None:
            continue
        # the final fit is zero wherever the pilot is, and the pilot attains
        # the unregularized optimum on its own support
        if np.any(fit.coefficients[fit.pilot == 0.0] != 0.0):
            errors.append(f"{where}: nonzero coefficient where the pilot is 0")
        support = np.nonzero(fit.pilot)[0]
        Xs, beta = X[:, support], fit.pilot[support]
        intercepts = [lower_quantile(y - Xs @ beta, t) for t in taus]
        value = objective(Xs, y, taus, np.array(intercepts), beta)
        best = optimum(fit.round, Xs, y, taus, tag=support.tobytes())
        errors += _gap_errors(f"{where} pilot", value, best,
                              GAP_TOL["pilot"][fit.pilot_algorithm], gaps,
                              f"{fit.pilot_algorithm}/pilot")
    return errors


def check_reference(seed):
    """The reference LP against vertex enumeration on small instances."""
    rng = np.random.default_rng([seed, 7])
    cases = [(7, 1, np.array([1 / 3, 2 / 3]), None),
             (8, 2, np.array([0.3]), None),
             (7, 3, np.array([0.5]), np.array([0.8, -0.5, 0.0])),
             (6, 1, np.array([0.25, 0.5, 0.75]), np.array([1.5]))]
    errors = []
    for n, p, taus, pilot in cases:
        X = rng.standard_normal((n, p))
        y = X @ rng.uniform(-1.0, 1.0, p) + rng.standard_normal(n)
        lam = 0.0 if pilot is None else float(rng.uniform(0.2, 2.0))
        lp = lp_optimum(X, y, taus, lam, pilot)
        exact = enumerated_optimum(X, y, taus, lam, pilot)
        if not abs(lp - exact) <= 1e-9 * (1 + abs(exact)):
            errors.append(f"reference LP {lp!r} != enumeration {exact!r} "
                          f"at n={n} p={p} K={taus.size}")
    return errors
