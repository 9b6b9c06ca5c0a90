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
``eps_abs``/``eps_rel``.  The regularized and unregularized paths use
slightly different tolerance expressions (the dual residual drops the
intercept columns when penalized); ``admm_stopping`` spells both out.

Internally the loop never materializes the stacked design: with the
level-major layout every ``X*`` product reduces to block sums plus a single
``n x p`` product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .core import (
    CompositeDesign,
    Dataset,
    FitResult,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    objective,
    penalty_terms,
    soft_threshold,
    stacked_gram,
)

__all__ = ["AdmmState", "fit_admm", "penalized_ls", "admm_stopping"]


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


def _soft(v, a):
    return np.sign(v) * np.maximum(np.abs(v) - a, 0.0)


def _cd_quadratic(G, h, thresh, active, x, tol, max_sweeps):
    """Cyclic coordinate descent on 1/2 x'Gx - h'x + sum_j thresh_j |x_j|.

    ``x`` is updated in place (warm start); coordinates with ``active`` false
    or zero curvature are skipped.  Returns the sweep count.
    """
    diag = np.diag(G)
    order = [j for j in range(len(h)) if active[j] and diag[j] > 0.0]
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        biggest = 0.0
        g = G @ x
        for j in order:
            s = h[j] - g[j] + diag[j] * x[j]
            new = _soft(s, thresh[j]) / diag[j]
            step = new - x[j]
            if step != 0.0:
                x[j] = new
                g += G[:, j] * step
                if abs(step) > biggest:
                    biggest = abs(step)
        if biggest < tol:
            break
    return sweeps


def penalized_ls(A, b, lam, weights, active=None, unpenalized_count=0,
                 rho=1.0, tol=1e-8, max_sweeps=1000, x0=None, gram=None):
    """Weighted-lasso least squares by cyclic soft-threshold coordinate descent.

    Minimizes ``(rho/2) ||b - A x||^2 + lam * sum_j weights_j |x_j|`` where
    the first ``unpenalized_count`` coordinates (intercepts) carry no penalty
    and coordinates with ``active[j] = False`` are pinned at zero.  ``weights``
    has one entry per column of ``A``; entries before ``unpenalized_count``
    are ignored.  Deterministic: coordinates are visited in index order.

    ``gram``/``x0`` let a caller reuse ``A'A`` and warm-start the iterate.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
        raise ValueError("A must be (m, d) with b of length m")
    d = A.shape[1]
    lam = float(lam)
    rho = float(rho)
    if lam < 0.0 or rho <= 0.0:
        raise ValueError("lam must be nonnegative and rho positive")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (d,):
        raise ValueError(f"weights must have length {d}")
    if active is None:
        active = np.ones(d, dtype=bool)
    else:
        active = np.asarray(active, dtype=bool).copy()
        if active.shape != (d,):
            raise ValueError(f"active must have length {d}")
    active[:unpenalized_count] = True    # intercepts are always solved

    G = A.T @ A if gram is None else gram
    thresh = np.zeros(d)
    thresh[unpenalized_count:] = lam * weights[unpenalized_count:] / rho

    dead = active & (np.diag(G) <= 0.0)
    if np.any(dead):
        warnings.warn(f"{int(dead.sum())} active coordinate(s) have zero column "
                      "norm; fixed at zero", RuntimeWarning)

    x = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float).copy()
    x[~active] = 0.0
    x[dead] = 0.0
    _cd_quadratic(G, A.T @ b, thresh, active & ~dead, x, tol, max_sweeps)
    return x


def admm_stopping(state: AdmmState, design: CompositeDesign, opts: SolverOptions):
    """Evaluate the stopping rule at a state; returns (stop, eps_primal, eps_dual).

    Primal residual: ``Y* - X* theta - r``.  Dual residual:
    ``rho X'(r - r_prev)`` where ``X`` drops the intercept columns on the
    penalized path and is the full stacked design otherwise.  The tolerance
    expressions use squared norms inside the max / scale terms:

        eps_primal = sqrt(len primal) eps_abs + eps_rel * max(...)
        eps_dual   = sqrt(len dual) eps_abs + eps_rel * ||X*' u||^2
    """
    K = design.K
    rho = opts.rho
    theta, r, u, r_prev = state.beta, state.r, state.u, state.r_prev
    fit = design.Xs @ theta
    r_primal = design.Ys - fit - r
    dr = r - r_prev
    if state.penalized:
        covariate_cols = design.Xs[:, K:]
        r_dual = rho * (covariate_cols.T @ dr)
        cov_fit = covariate_cols @ theta[K:]
        intercept_fit = design.Xs[:, :K] @ theta[:K]
        scale = max(np.sum(cov_fit ** 2), np.sum(r ** 2),
                    np.sum((intercept_fit - design.Ys) ** 2))
    else:
        r_dual = rho * (design.Xs.T @ dr)
        scale = max(np.sum(fit ** 2), np.sum(r ** 2), np.sum(design.Ys ** 2))
    eps_primal = np.sqrt(r_primal.size) * opts.eps_abs + opts.eps_rel * scale
    eps_dual = (np.sqrt(r_dual.size) * opts.eps_abs
                + opts.eps_rel * np.sum((design.Xs.T @ u) ** 2))
    stop = (np.linalg.norm(r_primal) <= eps_primal
            and np.linalg.norm(r_dual) <= eps_dual)
    return stop, float(eps_primal), float(eps_dual)


def fit_admm(data: Dataset, levels: QuantileLevels,
             penalty: PenaltySpec | None = None,
             options: SolverOptions | None = None) -> FitResult:
    """Fit (composite) quantile regression by ADMM.

    With an adaptive-lasso penalty the coefficient update is an inner
    weighted-lasso least-squares solve (warm-started coordinate descent at
    tolerance ``tol/10``); without one it is a cached Cholesky solve of the
    normal equations, with a tiny ridge added only if the stacked design is
    rank-deficient.
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
    if penalized:
        full_active = np.concatenate([np.ones(K, dtype=bool), active])
        thresh = np.zeros(d)
        thresh[K:] = penalty.lam * weights / rho

    G = stacked_gram(X, np.ones((K, n)))     # Gram matrix of the stacked design

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
    Xb = np.zeros(n)                      # cache of X @ coefficients
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

    for iterations in range(1, opts.max_iter + 1):
        fit_mat = Xb[None, :] + theta[:K][:, None]
        c = Y[None, :] - fit_mat + u / rho
        r_new = _soft(c - shift, 0.5 / rho)

        target = Y[None, :] - r_new + u / rho
        block_total = target.sum(axis=0)
        h = np.concatenate([target.sum(axis=1), X.T @ block_total])
        if penalized:
            inner_sweeps += _cd_quadratic(G, h, thresh, full_active, theta,
                                          tol=opts.tol * 0.1, max_sweeps=200)
        else:
            theta = cho_solve(factor, h)
        Xb = X @ theta[K:]
        fit_mat = Xb[None, :] + theta[:K][:, None]
        u = u + rho * (Y[None, :] - r_new - fit_mat)

        # stopping rule, computed blockwise (admm_stopping is the stacked twin)
        primal = Y[None, :] - fit_mat - r_new
        dr = r_new - r
        if penalized:
            dual = rho * (X.T @ dr.sum(axis=0))
            scale = max(K * np.sum(Xb ** 2), np.sum(r_new ** 2),
                        np.sum((theta[:K][:, None] - Y[None, :]) ** 2))
        else:
            dual = rho * np.concatenate([dr.sum(axis=1), X.T @ dr.sum(axis=0)])
            scale = max(np.sum(fit_mat ** 2), np.sum(r_new ** 2),
                        K * np.sum(Y ** 2))
        eps_primal = np.sqrt(n * K) * opts.eps_abs + opts.eps_rel * scale
        Xtu = np.concatenate([u.sum(axis=1), X.T @ u.sum(axis=0)])
        eps_dual = (np.sqrt(dual.size) * opts.eps_abs
                    + opts.eps_rel * np.sum(Xtu ** 2))
        primal_norm = np.linalg.norm(primal)
        dual_norm = np.linalg.norm(dual)
        r_prev, r = r, r_new
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
