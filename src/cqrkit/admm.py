"""ADMM fitter for (composite) quantile regression.

The problem

    min_{b, beta}  sum_k sum_i rho_{tau_k}(y_i - b_k - x_i' beta)  [+ penalty]

is rewritten with stacked residuals ``r = Y* - X* theta`` (``theta`` =
intercepts then coefficients) and solved by alternating closed-form updates
with multiplier ``u`` and step ``rho`` (Boyd et al. 2011, scaled form):

    r-update      r <- prox of rho_tau/rho at c = Y* - X* theta + u/rho
    theta-update  least squares against Y* - r + u/rho
                  (weighted-L1 on the coefficients when penalized)
    u-update      u <- u + rho (Y* - r - X* theta)

The prox is ``r = c - z`` with ``z = clip(c, (tau - 1)/rho, tau/rho)``, so
the loop carries ``z`` instead of ``r``.  With ``G = X*' X*`` (unridged) and
``theta_old`` the iterate ``c`` was formed at, the updates become

    h             = G theta_old + X*' z        (right-hand side of the solve)
    X*' r_new     = X*' Y* - G theta_old + X*' u/rho - X*' z
    u_new/rho     = z + X* theta_old - X* theta_new
    X*' u_new/rho = h - G theta_new

so ``G theta``, ``X*' r`` and ``X*' u/rho`` are kept as (K + p)-vectors and
each iteration makes one ``X*' z`` product and one ``X* theta`` product.

The loop stops when the primal residual ``Y* - X* theta - r`` (which is
``(u_new - u)/rho``) and the dual residual ``rho X*'(r - r_prev)`` (a
difference of kept ``X*' r`` vectors) both fall under tolerances built from
``eps_abs``/``eps_rel`` (Boyd et al. 2011, section 3.3):

    eps_primal = sqrt(nK) eps_abs + eps_rel * max(||X* theta||^2, ||r||^2, ||Y*||^2)
    eps_dual   = sqrt(K + p) eps_abs + eps_rel * ||X*' u||^2

This one display serves penalized and unpenalized fits alike: the
theta-update moves the intercepts in both, so the dual residual keeps all
K + p coordinates.  The dual test, which fails first, runs every
iteration; the primal side only when it passes, or on the last iteration.

A penalized fit moves only its live coordinates: the intercepts and the
active, nonzero columns.  The rest of ``theta`` stays at its zero start, so
the loop builds only the columns ``G[:, live]`` (``core.stacked_gram`` with
``cols``) and runs its inner weighted-lasso sweeps on ``G[live, live]``.  The loop never materializes
the stacked design: ``X*`` products go through ``core.stacked_fit`` and
``core.stacked_tdot`` on (K, n) arrays.
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


def _cd_quadratic(G, h, thresh, diag, x, tol, max_sweeps):
    """Cyclic coordinate descent on 1/2 x'Gx - h'x + sum_j thresh_j |x_j|.

    ``x`` is updated in place (warm start); every coordinate moves, so each
    needs ``diag[j] = G[j, j] > 0``.  Returns the sweeps.
    """
    sweeps = 0
    g = G @ x                   # kept current by the coordinate steps
    for sweeps in range(1, max_sweeps + 1):
        biggest = 0.0
        for j in range(x.size):
            s = h[j] - g[j] + diag[j] * x[j]
            t = thresh[j]
            if s > t:
                new = (s - t) / diag[j]
            elif s < -t:
                new = (s + t) / diag[j]
            else:
                new = 0.0
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
    """Fit (composite) quantile regression by ADMM, in the clipped form of
    the module docstring.

    With an adaptive-lasso penalty the coefficient update is an inner
    weighted-lasso least-squares solve on the live coordinates
    (warm-started coordinate descent on ``G[live, live]`` at tolerance
    ``tol/10``); without one it is a cached Cholesky solve of the normal
    equations (``core.cholesky``, ridged if the stacked design is
    rank-deficient).  When the loop stops short, ``diagnostics["reason"]``
    names each failing residual against its tolerance.
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
    # live coordinates: the intercepts and the active, nonzero columns (every
    # column when unpenalized); the rest of theta stays at its zero start
    cols = np.flatnonzero(active & X.any(axis=0)) if penalized else np.arange(p)
    live = np.concatenate([np.arange(K), K + cols])
    X_live = X[:, cols]
    G_live = stacked_gram(X, np.ones((K, n)), cols)      # G[:, live]
    ridge = False
    if penalized:
        G_inner = G_live[live]                           # G[live, live]
        diag = np.diag(G_inner)
        thresh = np.concatenate([np.zeros(K), penalty.lam * weights[cols] / rho])
    else:
        factor, ridge = cholesky(G_live)

    theta = np.zeros(live.size)           # the live coordinates of theta
    Y_row = Y[None, :]
    fit_mat = np.zeros((K, n))            # X* theta
    w = np.zeros((K, n))                  # u / rho
    c, z = np.tile(Y, (K, 1)), np.zeros((K, n))   # r = c - z = Y*
    g = np.zeros(d)                       # G theta
    xr = xty = stacked_tdot(X, c)         # X*' r, X*' Y*
    xw = np.zeros(d)                      # X*' u / rho
    lo = ((taus - 1.0) / rho)[:, None]
    hi = (taus / rho)[:, None]
    inner_sweeps = 0
    converged = False
    iterations = 0
    primal_norm = dual_norm = np.inf
    eps_primal = eps_dual = np.nan
    primal_abs = np.sqrt(n * K) * opts.eps_abs
    dual_abs = np.sqrt(d) * opts.eps_abs
    dual_rel = opts.eps_rel * rho ** 2
    y_scale = K * np.sum(Y ** 2)

    for iterations in range(1, opts.max_iter + 1):
        c_prev, z_prev = c, z
        c = Y_row - fit_mat + w
        z = c.clip(lo, hi)                # r_new = c - z, the prox at c
        h = g + stacked_tdot(X, z)
        xr_prev, xr = xr, xty + xw - h
        if penalized:
            inner_sweeps += _cd_quadratic(G_inner, h[live], thresh, diag, theta,
                                          tol=opts.tol * 0.1, max_sweeps=200)
        else:
            theta, _ = dpotrs(factor, h)
        g = G_live @ theta
        xw = h - g
        fit_old, fit_mat = fit_mat, stacked_fit(X_live, theta)
        w_prev, w = w, z + fit_old - fit_mat

        # stopping rule, as in the module docstring
        dual = xr - xr_prev
        dual_norm = rho * np.sqrt(dual.dot(dual))
        eps_dual = dual_abs + dual_rel * xw.dot(xw)
        if dual_norm > eps_dual and iterations < opts.max_iter:
            continue
        primal = (w - w_prev).ravel()
        scale = max(np.sum(fit_mat ** 2), np.sum((c - z) ** 2), y_scale)
        eps_primal = primal_abs + opts.eps_rel * scale
        primal_norm = np.sqrt(primal.dot(primal))
        if primal_norm <= eps_primal and dual_norm <= eps_dual:
            converged = True
            break

    beta = np.zeros(d)
    beta[live] = theta
    state = AdmmState(beta=beta, r=(c - z).ravel(), u=(rho * w).ravel(),
                      iteration=iterations, r_prev=(c_prev - z_prev).ravel())
    intercepts = beta[:K].copy()
    coefficients = beta[K:].copy()
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
    if not converged:
        diagnostics["reason"] = "; ".join(
            f"the {side} residual {norm:.3g} is above its tolerance {eps:.3g}"
            for side, norm, eps in (("primal", primal_norm, eps_primal),
                                    ("dual", dual_norm, eps_dual))
            if norm > eps)
    return FitResult(intercepts=intercepts, coefficients=coefficients,
                     iterations=iterations, converged=converged,
                     objective=obj, algorithm="admm", diagnostics=diagnostics)
