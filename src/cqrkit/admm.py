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
residual ``rho X*'(r - r_prev)`` both fall under tolerances built from
``eps_abs``/``eps_rel`` (Boyd et al. 2011, section 3.3):

    eps_primal = sqrt(nK) eps_abs + eps_rel * max(||X* theta||^2, ||r||^2, ||Y*||^2)
    eps_dual   = sqrt(K + p) eps_abs + eps_rel * ||X*' u||^2

This one display serves penalized and unpenalized fits alike: the
theta-update moves the intercepts in both, so the dual residual keeps all
K + p coordinates.  The dual test, which fails first, runs every
iteration; the primal side only when it passes, or on the last iteration.

The loop never materializes the stacked design: every ``X*`` product goes
through ``core.stacked_fit`` and ``core.stacked_tdot`` on (K, n) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from .core import (
    Dataset,
    FitResult,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    _soft_threshold,
    cholesky,
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
    previous residual iterate (needed for the dual residual).
    """

    beta: np.ndarray
    r: np.ndarray
    u: np.ndarray
    iteration: int
    r_prev: np.ndarray


def _cd_quadratic(G, h, thresh, diag, order, x, tol, max_sweeps):
    """Cyclic coordinate descent on 1/2 x'Gx - h'x + sum_j thresh_j |x_j|.

    ``x`` is updated in place (warm start); only the coordinates in
    ``order``, each with ``diag[j] = G[j, j] > 0``, move.  Returns the sweeps.
    """
    sweeps = 0
    g = G @ x                   # kept current by the coordinate steps
    for sweeps in range(1, max_sweeps + 1):
        biggest = 0.0
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
    normal equations (``core.cholesky``, ridged if the stacked design is
    rank-deficient).
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
    ridge = False
    if penalized:
        thresh = np.zeros(d)
        thresh[K:] = penalty.lam * weights / rho
        diag = np.diag(G)
        order = [j for j in range(d)
                 if (j < K or active[j - K]) and diag[j] > 0.0]
    else:
        factor, ridge = cholesky(G)

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
    dual_abs = np.sqrt(d) * opts.eps_abs
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
            theta, _ = dpotrs(factor, h)
        fit_mat = stacked_fit(X, theta)
        u = u + rho * (Y[None, :] - r_new - fit_mat)

        # stopping rule, as in the module docstring
        dual = rho * stacked_tdot(X, r_new - r)
        eps_dual = dual_abs + opts.eps_rel * np.sum(stacked_tdot(X, u) ** 2)
        dual_norm = np.sqrt(dual.dot(dual))
        r_prev, r = r, r_new
        if dual_norm > eps_dual and iterations < opts.max_iter:
            continue
        primal = (Y[None, :] - fit_mat - r_new).ravel()
        scale = max(np.sum(fit_mat ** 2), np.sum(r_new ** 2), y_scale)
        eps_primal = primal_abs + opts.eps_rel * scale
        primal_norm = np.sqrt(primal.dot(primal))
        if primal_norm <= eps_primal and dual_norm <= eps_dual:
            converged = True
            break

    state = AdmmState(beta=theta.copy(), r=r.ravel().copy(), u=u.ravel().copy(),
                      iteration=iterations, r_prev=r_prev.ravel().copy())
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
