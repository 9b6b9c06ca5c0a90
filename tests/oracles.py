"""Brute-force reference implementations used to cross-check the solvers.

Everything here favors transparency over speed: exhaustive enumeration of
candidate solutions, plain Python loops for objectives, candidate scans for
one-dimensional subproblems.  Tests treat these as ground truth.
"""

from itertools import combinations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from cqrkit import Dataset, QuantileLevels, check_loss, sample_quantile
from cqrkit.core import (
    _soft_threshold,
    penalty_terms,
    stacked_fit,
    stacked_gram,
    stacked_tdot,
)


def stack_composite(data: Dataset, levels: QuantileLevels):
    """Materialized stacked design of the composite problem.

    Returns ``(Xs, Ys, taus)``.  ``Xs`` has shape ``(n*K, K + p)``: the first
    ``K`` columns are level-intercept indicators, the remaining ``p`` repeat
    ``X`` within each level block.  ``Ys`` tiles ``Y`` once per level and
    ``taus`` repeats each level ``n`` times, so row ``k*n + i`` carries
    observation ``i`` at level ``tau_k`` (the level-major layout).
    """
    n, p, K = data.n, data.p, levels.K
    Xs = np.zeros((n * K, K + p))
    for k in range(K):
        Xs[k * n:(k + 1) * n, k] = 1.0
        Xs[k * n:(k + 1) * n, K:] = data.X
    return Xs, np.tile(data.Y, K), np.repeat(levels.taus, n)


def stacked_objective_loop(A, b, taus, theta):
    """Check-loss objective of a stacked problem, computed with a plain loop."""
    total = 0.0
    for i in range(len(b)):
        r = b[i] - float(A[i] @ theta)
        if r >= 0.0:
            total += taus[i] * r
        else:
            total += (taus[i] - 1.0) * r
    return total


def check_loss_scalar(t, tau):
    """Direct two-branch check loss for a scalar."""
    return tau * t if t >= 0.0 else (tau - 1.0) * t


def qr_exact(data: Dataset, levels: QuantileLevels, batch: int = 40000):
    """Exact minimizer of the (composite) quantile objective by enumeration.

    The optimum of the equivalent linear program sits at a vertex, i.e. at a
    parameter vector that interpolates ``K + p`` rows of the stacked problem.
    Enumerate every such subset, solve for the interpolating parameters, and
    keep the best objective.  Exponential in ``K + p`` -- only for small
    problems.

    Returns ``(theta, objective)`` with ``theta = (intercepts..., beta...)``.
    """
    A, b, taus = stack_composite(data, levels)
    N, d = A.shape
    if N < d:
        raise ValueError("underdetermined stacked problem; enumeration needs nK >= K + p")

    best_obj = np.inf
    best_theta = None
    pending = []

    def flush(chunk):
        nonlocal best_obj, best_theta
        idx = np.array(chunk)                      # (B, d)
        mats = A[idx]                              # (B, d, d)
        rhs = b[idx]                               # (B, d)
        dets = np.linalg.det(mats)
        scale = np.maximum(np.abs(mats).max(axis=(1, 2)) ** d, 1e-300)
        keep = np.abs(dets) > 1e-10 * scale
        if not np.any(keep):
            return
        thetas = np.linalg.solve(mats[keep], rhs[keep][:, :, None])[:, :, 0]
        R = b[:, None] - A @ thetas.T                       # (N, B')
        losses = np.sum(R * (taus[:, None] - (R < 0.0)), axis=0)
        j = int(np.argmin(losses))
        if losses[j] < best_obj:
            best_obj = float(losses[j])
            best_theta = thetas[j].copy()

    for subset in combinations(range(N), d):
        pending.append(subset)
        if len(pending) >= batch:
            flush(pending)
            pending = []
    if pending:
        flush(pending)
    if best_theta is None:
        raise RuntimeError("every candidate subset was singular")
    return best_theta, best_obj


def penalized_qr_1d_exact(data: Dataset, levels: QuantileLevels, lam: float,
                          weight: float):
    """Exact adaptive-lasso solution for a single-covariate (composite) model.

    Minimizes ``sum_k sum_i rho_{tau_k}(y_i - b_k - x_i beta) + lam * weight *
    |beta|``.  A minimizer exists with ``beta`` equal to 0 or to a pairwise
    slope ``(y_i - y_j)/(x_i - x_j)`` (a vertex of the equivalent LP); for
    each candidate slope the optimal intercepts are per-level sample
    quantiles.  Returns ``(intercepts, beta, objective)``.
    """
    if data.p != 1:
        raise ValueError("this oracle handles exactly one covariate")
    x = data.X[:, 0]
    y = data.Y
    candidates = {0.0}
    for i in range(data.n):
        for j in range(i + 1, data.n):
            if abs(x[i] - x[j]) > 1e-12:
                candidates.add((y[i] - y[j]) / (x[i] - x[j]))

    best = (None, None, np.inf)
    for beta in sorted(candidates):
        resid = y - x * beta
        intercepts = np.array([sample_quantile(resid, t) for t in levels.taus])
        obj = lam * weight * abs(beta)
        for k, tau in enumerate(levels.taus):
            for r in resid - intercepts[k]:
                obj += check_loss_scalar(r, tau)
        if obj < best[2] - 1e-12:
            best = (intercepts, beta, obj)
    return best


def weighted_median_conditions(z, w, result):
    """Verify the defining cumulative-weight conditions of the weighted median."""
    z = np.asarray(z, float)
    w = np.asarray(w, float)
    order = np.argsort(z, kind="stable")
    zs, ws = z[order], w[order]
    cum = np.cumsum(ws)
    half = 0.5 * np.sum(ws)
    hits = np.nonzero(cum >= half)[0]
    if hits.size == 0:       # roundoff: last entry is the crossing by definition
        i_star = len(zs) - 1
    else:
        i_star = int(hits[0])
    before = cum[i_star - 1] if i_star > 0 else 0.0
    return zs[i_star] == result and before < half and cum[i_star] >= half


def quantile_objective_scan(values, tau):
    """Return (argmin over the data points, min) of q -> sum_i rho_tau(v_i - q)."""
    values = np.asarray(values, float)
    best_q, best_obj = None, np.inf
    for q in np.sort(values):
        obj = sum(check_loss_scalar(v - q, tau) for v in values)
        if obj < best_obj - 1e-12:
            best_q, best_obj = q, obj
    return best_q, best_obj


def smoothed_check_loss(t, tau, eps):
    """MM's perturbed check loss ``rho_tau(t) - (eps/2) ln(eps + |t|)``."""
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    t_arr = np.asarray(t, dtype=float)
    out = check_loss(t_arr, tau) - 0.5 * eps * np.log(eps + np.abs(t_arr))
    return float(out) if np.ndim(out) == 0 else out


def majorizer_value(r, r_prev, tau, eps):
    """MM's quadratic majorizer of the smoothed check loss, tangent at ``r_prev``.

    ``1/4 [r^2/(eps+|r_prev|) + (4 tau - 2) r + c]`` with the constant solved
    from the tangency requirement at ``r_prev``.
    """
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    r = np.asarray(r, dtype=float)
    r_prev = np.asarray(r_prev, dtype=float)
    denom = eps + np.abs(r_prev)
    c = (4.0 * smoothed_check_loss(r_prev, tau, eps)
         - r_prev ** 2 / denom - (4.0 * tau - 2.0) * r_prev)
    out = 0.25 * (r ** 2 / denom + (4.0 * tau - 2.0) * r + c)
    return float(out) if np.ndim(out) == 0 else out


def admm_reference(data: Dataset, levels: QuantileLevels, penalty, options,
                   cols=None):
    """``fit_admm``'s iteration in its unclipped form, every quantity every time.

    A plain transcription of the ADMM loop over the data rows and the
    penalty rows (one row ``-s_j e_j'`` with response 0 per live penalized
    column, ``s_j`` its centered norm or 1).  It takes the data rows' prox as
    a shifted soft threshold and the penalty rows' as the soft threshold at
    ``lam w_j / (rho s_j)``, and forms the right-hand side, the primal and
    dual residuals, ``A' u``, both tolerances and both norms
    (``np.linalg.norm``) from full arrays on every iteration.  It solves
    with ``cho_solve`` on ``G + diag(0_K, s^2)``, the Gram of the live
    columns (all of them when unpenalized, or those of ``cols``).  Returns a
    dict of the final iterate (``theta`` over all K + p coordinates, 0 on
    the columns ``cols`` leaves out), the reported
    ``coefficients`` (``gamma_j / s_j`` on the penalty rows), the penalty
    rows' ``gamma``, ``v`` and ``gamma_prev``, the four stopping figures,
    ``iterations``, ``converged`` and ``ridge``.
    """
    X, Y = data.X, data.Y
    n, p, K = data.n, data.p, levels.K
    rho, d = options.rho, K + p
    weights, active = penalty_terms(penalty, p)
    cols = np.arange(p) if cols is None else np.asarray(cols)
    s = np.zeros(0)
    if penalty.regularized:
        cols = np.flatnonzero(active & (np.abs(X).sum(axis=0) > 0.0))
        s = np.linalg.norm(X[:, cols] - X[:, cols].mean(axis=0), axis=0)
        s[s == 0.0] = 1.0
    # the penalized coordinates: live positions K..K+m-1, all of the live
    # columns when penalized and none otherwise
    m = s.size
    pen = K + cols[:m]
    thresh = penalty.lam * weights[cols[:m]] / (rho * s)
    X_live = X[:, cols]
    G = stacked_gram(X_live, np.ones((K, n)))
    G[K:K + m, K:K + m] += np.diag(s ** 2)
    ridge = False
    try:
        factor = cho_factor(G)
    except LinAlgError:
        ridge = True
        factor = cho_factor(G + 1e-8 * np.trace(G) / G.shape[0] * np.eye(G.shape[0]))

    theta = np.zeros(K + cols.size)
    fit_mat = np.zeros((K, n))
    r = np.tile(Y, (K, 1))
    u = np.zeros((K, n))
    gamma, v = np.zeros(m), np.zeros(m)
    shift = ((2.0 * levels.taus - 1.0) / (2.0 * rho))[:, None]
    converged = False
    for iterations in range(1, options.max_iter + 1):
        r_new = _soft_threshold(Y[None, :] - fit_mat + u / rho - shift, 0.5 / rho)
        gamma_new = _soft_threshold(s * theta[K:K + m] + v / rho, thresh)
        h = stacked_tdot(X_live, Y[None, :] - r_new + u / rho)
        h[K:K + m] += s * (gamma_new - v / rho)
        theta = cho_solve(factor, h)
        fit_mat = stacked_fit(X_live, theta)
        s_theta = s * theta[K:K + m]
        u = u + rho * (Y[None, :] - r_new - fit_mat)
        v = v + rho * (s_theta - gamma_new)
        primal = np.concatenate([(Y[None, :] - fit_mat - r_new).ravel(),
                                 s_theta - gamma_new])
        dual = rho * stacked_tdot(X, r_new - r)
        dual[pen] -= rho * s * (gamma_new - gamma)
        atu = stacked_tdot(X, u)
        atu[pen] -= s * v
        scale = max(np.sum(fit_mat ** 2) + np.sum(s_theta ** 2),
                    np.sum(r_new ** 2) + np.sum(gamma_new ** 2),
                    K * np.sum(Y ** 2))
        eps_primal = np.sqrt(primal.size) * options.eps_abs + options.eps_rel * scale
        eps_dual = (np.sqrt(d) * options.eps_abs
                    + options.eps_rel * np.sum(atu ** 2))
        primal_norm = np.linalg.norm(primal)
        dual_norm = np.linalg.norm(dual)
        r_prev, r = r, r_new
        gamma_prev, gamma = gamma, gamma_new
        if primal_norm <= eps_primal and dual_norm <= eps_dual:
            converged = True
            break
    full = np.zeros(d)
    full[np.concatenate([np.arange(K), K + cols])] = theta
    coefficients = full[K:].copy()
    coefficients[cols[:m]] = gamma / s
    return {"theta": full, "coefficients": coefficients,
            "r": r.ravel(), "u": u.ravel(),
            "r_prev": r_prev.ravel(), "gamma": gamma, "v": v,
            "gamma_prev": gamma_prev, "iterations": iterations,
            "converged": converged, "ridge": ridge,
            "primal_norm": float(primal_norm), "dual_norm": float(dual_norm),
            "eps_primal": float(eps_primal), "eps_dual": float(eps_dual)}
