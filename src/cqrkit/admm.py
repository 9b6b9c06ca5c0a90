"""ADMM fitter for (composite) quantile regression.

The problem

    min_{b, beta}  sum_k sum_i rho_{tau_k}(y_i - b_k - x_i' beta)
                   [+ lam sum_j w_j |beta_j|]

is solved by ADMM in the scaled form of Boyd et al. (2011) on the stacked
design ``A`` with response ``b`` and residuals ``r = b - A theta`` (``theta``
= intercepts then coefficients).  ``A`` is ``X*`` on the columns of
``core.prepare`` (centered; the rest raw) with ``Y*``, plus one row ``-s_j
e_j'`` with response 0 per live penalized column j, ``s_j`` its ``scale``:
the residual ``gamma_j = s_j theta_j`` carries ``lam w_j |gamma_j| / s_j``.
So every fit is an unpenalized one over ``nK + m`` rows:

    r-update      r <- prox at c = b - A theta + u/rho: r = c - z with
                  z = clip(c, (tau - 1)/rho, tau/rho) on the data rows and
                  z = clip(c, -t_j, t_j), t_j = lam w_j / (rho s_j), on the
                  penalty rows (the soft threshold, core._soft_threshold)
    theta-update  H theta = A'(b - r + u/rho), H = A'A = G + diag(0_K, s^2),
                  one cached solve (core.cholesky, core.cho_solver), G = X*' X*
    u-update      u <- u + rho (b - r - A theta)

With ``theta_old`` the iterate ``c`` was formed at, the loop carries ``z``
and the (K + p)-vectors ``H theta``, ``A' r`` and ``A' u/rho``:

    h             = H theta_old + A' z         (right-hand side of the solve)
    A' r_new      = A' b + A' u/rho - h
    u_new/rho     = z + A theta_old - A theta_new
    A' u_new/rho  = h - H theta_new

so each iteration makes one ``X*' z`` product and one ``X* theta`` product.
It stops when the primal residual ``b - A theta - r`` (which is
``(u_new - u)/rho``) and the dual residual ``rho A'(r - r_prev)`` (over all
K + p coordinates: the intercepts move too) fall under (Boyd et al. 2011,
section 3.3)

    eps_primal = sqrt(nK + m) eps_abs + eps_rel * max(||A theta||^2, ||r||^2, ||Y*||^2)
    eps_dual   = sqrt(K + p) eps_abs + eps_rel * ||A' u||^2

The dual test, which fails first, runs every iteration; the primal side
only when it passes, or on the last iteration.

A fit moves only its live coordinates, the intercepts and the columns of
``core.prepare``: it builds only ``G[:, live]`` (``core.stacked_gram`` with
``cols``).  A penalized fit reports ``gamma_j / s_j`` as coefficient j, so
every thresholded column is an exact zero.  ``X*`` products go through
``core.stacked_fit`` and ``core.stacked_tdot`` on (K, n) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    FitResult,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    _soft_threshold,
    cho_solver,
    cholesky,
    prepare,
    stacked_fit,
    stacked_gram,
    stacked_tdot,
)

__all__ = ["AdmmState", "fit_admm"]


@dataclass
class AdmmState:
    """Internal iterate of the ADMM loop, in stacked (level-major) layout
    and in the columns of ``core.prepare`` (the live ones centered).

    ``beta`` holds the K intercepts followed by the p coefficients of the
    iterate ``theta``; ``r`` and ``u`` are the stacked residual and
    multiplier vectors; ``r_prev`` the previous residual iterate (needed for
    the dual residual).  ``gamma``, ``v`` and ``gamma_prev`` are the same
    three for the penalty rows, one entry per live penalized column in
    column order (empty when unpenalized).
    """

    beta: np.ndarray
    r: np.ndarray
    u: np.ndarray
    iteration: int
    r_prev: np.ndarray
    gamma: np.ndarray
    v: np.ndarray
    gamma_prev: np.ndarray


def fit_admm(data: Dataset, levels: QuantileLevels,
             penalty: PenaltySpec | None = None,
             options: SolverOptions | None = None) -> FitResult:
    """Fit (composite) quantile regression by ADMM, in the clipped form of
    the module docstring.

    Penalized or not, the theta-update is one cached Cholesky solve
    (``core.cholesky``, ridged if it judges ``H`` singular, once per fit);
    an adaptive-lasso penalty adds its rows' ``s_j^2`` to the diagonal and
    soft-thresholds their residuals.  ``SolverOptions.tol`` is not used.
    When the loop stops short, ``diagnostics["reason"]`` names each failing
    residual against its tolerance.
    """
    prob = prepare(data, levels, penalty, options)
    opts, cols, X_live, s = prob.options, prob.cols, prob.X, prob.scale
    Y, taus, rho = data.Y, levels.taus, opts.rho
    n, K, d = data.n, levels.K, levels.K + data.p
    X = data.X.copy()                     # the live columns prepared, the
    X[:, cols] = X_live                   # rest raw (the stopping display)

    # live coordinates: the intercepts and the columns of ``prepare``; the
    # rest of theta stays at its zero start
    live = np.concatenate([np.arange(K), K + cols])
    G_live = stacked_gram(X, np.ones((K, n)), cols)      # G[:, live]
    H = G_live[live]                                     # G[live, live]
    m = cols.size if prob.penalty.regularized else 0     # penalty rows
    if m:
        H[K:, K:][np.diag_indices(m)] += s * s
        pen = K + cols                                   # their coordinates
        thresh = prob.penalty.lam * prob.weights / (rho * s)
    U, ridge = cholesky(H)
    solve = cho_solver(U)

    theta = np.zeros(live.size)           # the live coordinates of theta
    Y_row = Y[None, :]
    fit_mat = np.zeros((K, n))            # X* theta
    w = np.zeros((K, n))                  # u / rho
    c, z = np.tile(Y, (K, 1)), np.zeros((K, n))   # r = c - z = Y*
    g = np.zeros(d)                       # H theta
    xr = xty = stacked_tdot(X, c)         # A' r, A' b
    xw = np.zeros(d)                      # A' u / rho
    gamma = gamma_prev = st = wg = np.zeros(m)   # penalty rows: gamma, s theta, v/rho
    lo = ((taus - 1.0) / rho)[:, None]
    hi = (taus / rho)[:, None]
    converged = False
    primal_norm = dual_norm = np.inf
    eps_primal = eps_dual = np.nan
    primal_abs = np.sqrt(n * K + m) * opts.eps_abs
    dual_abs = np.sqrt(d) * opts.eps_abs
    dual_rel = opts.eps_rel * rho ** 2
    y_scale = K * np.sum(Y ** 2)

    for iterations in range(1, opts.max_iter + 1):
        c_prev, z_prev = c, z
        c = Y_row - fit_mat + w
        z = c.clip(lo, hi)                # r_new = c - z, the prox at c
        h = g + stacked_tdot(X, z)
        if m:
            gamma_prev, cg = gamma, st + wg
            gamma = _soft_threshold(cg, thresh)
            zg = cg - gamma
            h[pen] -= s * zg
        xr_prev, xr = xr, xty + xw - h
        theta = solve(h[live])
        g = G_live @ theta
        if m:
            st_old, st = st, s * theta[K:]
            g[pen] += s * st
            wg_prev, wg = wg, zg + st - st_old
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
        primal_sq = primal.dot(primal)
        fit_sq, r_sq = np.sum(fit_mat ** 2), np.sum((c - z) ** 2)
        if m:
            dg = wg - wg_prev
            primal_sq += dg.dot(dg)
            fit_sq += st.dot(st)
            r_sq += gamma.dot(gamma)
        eps_primal = primal_abs + opts.eps_rel * max(fit_sq, r_sq, y_scale)
        primal_norm = np.sqrt(primal_sq)
        if primal_norm <= eps_primal and dual_norm <= eps_dual:
            converged = True
            break

    beta = np.zeros(d)
    beta[live] = theta
    state = AdmmState(beta=beta, r=(c - z).ravel(), u=(rho * w).ravel(),
                      iteration=iterations, r_prev=(c_prev - z_prev).ravel(),
                      gamma=gamma, v=rho * wg, gamma_prev=gamma_prev)
    diagnostics = {
        "state": state,
        "primal_norm": float(primal_norm),
        "dual_norm": float(dual_norm),
        "eps_primal": float(eps_primal),
        "eps_dual": float(eps_dual),
        "ridge": ridge,
    }
    if not converged:
        diagnostics["reason"] = "; ".join(
            f"the {side} residual {norm:.3g} is above its tolerance {eps:.3g}"
            for side, norm, eps in (("primal", primal_norm, eps_primal),
                                    ("dual", dual_norm, eps_dual))
            if norm > eps)
    return prob.result("admm", theta[:K], gamma / s if m else theta[K:],
                       iterations, converged, diagnostics)
