"""ADMM fitter for (composite) quantile regression.

The problem

    min_{b, beta}  sum_k sum_i rho_{tau_k}(y_i - b_k - x_i' beta)  [+ penalty]

is rewritten with stacked residuals ``r = Y* - X* theta`` (``theta`` =
intercepts then coefficients) and solved by alternating closed-form updates
with multiplier ``u`` and step ``rho``:

    r-update      r_i <- prox of rho_tau/rho at c_i = (Y* - X* theta + u/rho)_i,
                  the shifted soft threshold S_{1/(2 rho)}(c_i - (2 tau_i - 1)/(2 rho))
    theta-update  least squares against Y* - r + u/rho
                  (weighted-L1 on the coefficients when penalized)
    u-update      u <- u + rho (Y* - r - X* theta)

The loop stops when the primal residual ``Y* - X* theta - r`` and the dual
residual ``rho X'(r - r_prev)`` both fall under tolerances built from
``eps_abs``/``eps_rel`` (Boyd et al. 2011, section 3.3):

    eps_primal = sqrt(nK) eps_abs + eps_rel * max(||X* theta||^2, ||r||^2, ||Y*||^2)
    eps_dual   = sqrt(len dual) eps_abs + eps_rel * ||X*' u||^2

When penalized, the dual residual drops the intercept columns, and the
primal scale is ``max(||X beta||^2 over the K blocks, ||r||^2,
||Y* - intercepts||^2)``.  The dual test, which fails first, runs every
iteration; the primal side only when it passes, or on the last iteration.

The loop never materializes the stacked design: every ``X*`` product goes
through ``core.stacked_fit`` and ``core.stacked_tdot`` on (K, n) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, LinAlgError
from scipy.linalg.lapack import dpotrs

from .core import (
    Dataset,
    FitResult,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    _soft_threshold,
    objective,
    penalty_terms,
    stacked_fit,
    stacked_gram,
    stacked_tdot,
)

__all__ = ["AdmmState", "fit_admm"]


@dataclass
class AdmmState:
    """Internal iterate of the ADMM loop, in stacked (level-major) layout.

    ``beta`` holds the K intercepts followed by the p coefficients; ``r`` and
    ``u`` are the stacked residual and multiplier vectors; ``r_prev`` the
    previous residual iterate (needed for the dual residual); ``penalized``
    selects which stopping display applies.
    """

    beta: np.ndarray
    r: np.ndarray
    u: np.ndarray
    iteration: int
    r_prev: np.ndarray
    penalized: bool


def _cd_quadratic(G, h, thresh, diag, order, x, tol, max_sweeps):
    """Cyclic coordinate descent on 1/2 x'Gx - h'x + sum_j thresh_j |x_j|.

    ``x`` is updated in place (warm start); only the coordinates in
    ``order``, each with ``diag[j] = G[j, j] > 0``, move.  Returns the sweeps.
    """
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        biggest = 0.0
        g = G @ x
        for j in order:
            s = h[j] - g[j] + diag[j] * x[j]
            t = thresh[j]
            if s > t:
                new = (s - t) / diag[j]
            elif s < -t:
                new = (s + t) / diag[j]
            else:   # as sign(s) max(|s| - t, 0), which is -0.0 for s < 0
                new = (0.0 * s if s else 0.0) / diag[j]
            step = new - x[j]
            if step != 0.0:
                x[j] = new
                g += G[:, j] * step
                if abs(step) > biggest:
                    biggest = abs(step)
        if biggest < tol:
            break
    return sweeps


def fit_admm(data: Dataset, levels: QuantileLevels,
             penalty: PenaltySpec | None = None,
             options: SolverOptions | None = None) -> FitResult:
    """Fit (composite) quantile regression by ADMM.

    With an adaptive-lasso penalty the coefficient update is an inner
    weighted-lasso least-squares solve (warm-started coordinate descent at
    tolerance ``tol/10``); without one it is a cached Cholesky solve of the
    normal equations, with a tiny ridge added only if the stacked design is
    rank-deficient.  The primal side of the stopping rule is formed only
    when the dual test passes, or on the last iteration.
    """
    penalty = PenaltySpec.none() if penalty is None else penalty
    opts = SolverOptions() if options is None else options
    X, Y = data.X, data.Y
    n, p, K = data.n, data.p, levels.K
    taus = levels.taus
    rho = opts.rho
    d = K + p

    penalized = penalty.regularized
    weights, active = penalty_terms(penalty, p)
    G = stacked_gram(X, np.ones((K, n)))     # Gram matrix of the stacked design
    if penalized:
        thresh = np.zeros(d)
        thresh[K:] = penalty.lam * weights / rho
        diag = np.diag(G)
        order = [j for j in range(d)
                 if (j < K or active[j - K]) and diag[j] > 0.0]

    ridge = False
    factor = None
    if not penalized:
        try:
            factor = cho_factor(G)
        except LinAlgError:
            ridge = True
            bump = 1e-8 * np.trace(G) / d
            factor = cho_factor(G + bump * np.eye(d))

    theta = np.zeros(d)
    fit_mat = np.zeros((K, n))            # cache of X* theta
    r = np.tile(Y, (K, 1))                # (K, n): level-major residual blocks
    u = np.zeros((K, n))
    # exact proximal map of rho_tau(.)/rho: threshold 1/(2 rho), shift
    # (2 tau - 1)/(2 rho); its three branches are c - tau/rho, 0, c - (tau-1)/rho
    shift = ((2.0 * taus - 1.0) / (2.0 * rho))[:, None]
    inner_sweeps = 0
    converged = False
    iterations = 0
    primal_norm = dual_norm = np.inf
    eps_primal = eps_dual = np.nan
    primal_abs = np.sqrt(n * K) * opts.eps_abs
    dual_abs = np.sqrt(p if penalized else d) * opts.eps_abs
    y_scale = K * np.sum(Y ** 2)

    for iterations in range(1, opts.max_iter + 1):
        u_scaled = u / rho
        c = Y[None, :] - fit_mat + u_scaled
        r_new = _soft_threshold(c - shift, 0.5 / rho)

        h = stacked_tdot(X, Y[None, :] - r_new + u_scaled)
        if penalized:
            inner_sweeps += _cd_quadratic(G, h, thresh, diag, order, theta,
                                          tol=opts.tol * 0.1, max_sweeps=200)
        else:
            theta, _ = dpotrs(factor[0], h, lower=factor[1])
        fit_mat = stacked_fit(X, theta)
        u = u + rho * (Y[None, :] - r_new - fit_mat)

        # stopping rule, as in the module docstring
        dual = rho * stacked_tdot(X, r_new - r)
        if penalized:
            dual = dual[K:]
        eps_dual = dual_abs + opts.eps_rel * np.sum(stacked_tdot(X, u) ** 2)
        dual_norm = np.sqrt(dual.dot(dual))
        r_prev, r = r, r_new
        if dual_norm > eps_dual and iterations < opts.max_iter:
            continue
        primal = (Y[None, :] - fit_mat - r_new).ravel()
        if penalized:
            scale = max(np.sum((fit_mat - theta[:K, None]) ** 2),
                        np.sum(r_new ** 2),
                        np.sum((theta[:K][:, None] - Y[None, :]) ** 2))
        else:
            scale = max(np.sum(fit_mat ** 2), np.sum(r_new ** 2), y_scale)
        eps_primal = primal_abs + opts.eps_rel * scale
        primal_norm = np.sqrt(primal.dot(primal))
        if primal_norm <= eps_primal and dual_norm <= eps_dual:
            converged = True
            break

    state = AdmmState(beta=theta.copy(), r=r.ravel().copy(), u=u.ravel().copy(),
                      iteration=iterations, r_prev=r_prev.ravel().copy(),
                      penalized=penalized)
    intercepts = theta[:K].copy()
    coefficients = theta[K:].copy()
    obj = objective(data, intercepts, coefficients, levels, penalty)
    diagnostics = {
        "state": state,
        "primal_norm": float(primal_norm),
        "dual_norm": float(dual_norm),
        "eps_primal": float(eps_primal),
        "eps_dual": float(eps_dual),
        "ridge": ridge,
    }
    if penalized:
        diagnostics["inner_sweeps"] = inner_sweeps
    return FitResult(intercepts=intercepts, coefficients=coefficients,
                     iterations=iterations, converged=converged,
                     objective=obj, algorithm="admm", diagnostics=diagnostics)
