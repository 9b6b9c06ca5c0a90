"""Majorize-minimization fitter built on a smoothed check loss.

The check loss is replaced by the perturbed version

    rho_tau_eps(r) = rho_tau(r) - (eps/2) ln(eps + |r|),

which every iteration majorizes by the quadratic

    xi(r | r0) = 1/4 [ r^2/(eps + |r0|) + (4 tau - 2) r + c ],

with ``c`` fixed so the quadratic touches the smoothed loss at ``r0``.  The
penalized path adds the local quadratic approximation of the adaptive-lasso
term, giving per-coordinate curvature ``lam w_j / (2 (|beta_j| + eps))``.
Each iteration therefore reduces to one symmetric linear solve; iterate until
the parameter change falls under ``tol``.

Descent bookkeeping: the quadratic surrogate exactly majorizes the smoothed
fidelity plus the perturbed penalty ``lam w (|b| - eps ln(1 + |b|/eps))``, so
that combined quantity cannot increase across a solve.  Each fit records its
worst observed increase in ``diagnostics["max_descent_violation"]`` (roundoff
aside this is <= 0).

Only the columns of ``core.prepare`` enter the system.  Penalized
coordinates whose magnitude falls below 1e-6 are frozen at zero at the start
of the next iteration, which keeps the ``1/(|beta_j| + eps)`` curvature
bounded.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Dataset,
    FitResult,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    cho_solver,
    cholesky,
    fidelity,
    prepare,
    stacked_fit,
    stacked_gram,
    stacked_tdot,
)

__all__ = ["fit_mm"]

#: magnitude below which a penalized coordinate is frozen at zero
FREEZE_THRESHOLD = 1e-6


def _perturbed_l1(beta, eps):
    """Elementwise |b| - eps ln(1 + |b|/eps): the penalty the LQA majorizes."""
    a = np.abs(beta)
    return a - eps * np.log1p(a / eps)


def fit_mm(data: Dataset, levels: QuantileLevels,
           penalty: PenaltySpec | None = None,
           options: SolverOptions | None = None) -> FitResult:
    """Fit (composite) quantile regression by majorize-minimization.

    One exact quadratic minimization (a single Cholesky solve) per
    iteration.  From the first Hessian that ``core.cholesky`` judges
    singular (e.g. p >= n) on, a flagged ridge of 1e-8 * trace/dim is added.
    """
    prob = prepare(data, levels, penalty, options)
    opts, X, Y, K = prob.options, prob.X, data.Y, levels.K
    taus, eps, d = levels.taus, opts.eps_mm, K + prob.cols.size
    penalized, lam, weights = (prob.penalty.regularized, prob.penalty.lam,
                               prob.weights)
    frozen = np.zeros(prob.cols.size, dtype=bool)
    linear = 0.5 * (taus - 0.5)[:, None]  # the majorizers' linear term per level

    theta = np.zeros(d)
    if penalized:
        # start from the pilot: a zero start would sit at the penalty's
        # curvature singularity and freeze every coordinate immediately
        theta[K:] = prob.penalty.pilot[prob.cols]
    R = Y[None, :] - stacked_fit(X, theta)   # residuals r_ik, (K, n)

    def surrogate_objective(th, residuals):
        val = fidelity(residuals, taus)
        val -= 0.5 * eps * np.sum(np.log(eps + np.abs(residuals)))
        if penalized:
            live = ~frozen
            val += lam * np.sum(weights[live] * _perturbed_l1(th[K:][live], eps))
        return float(val)

    ridge = False
    max_violation = -np.inf
    converged = False
    base = None                           # surrogate at (theta, R), carried

    for iterations in range(1, opts.max_iter + 1):
        if penalized:
            # freeze coordinates the penalty has crushed; from here on they
            # are exact zeros and leave the linear system
            small = ~frozen & (np.abs(theta[K:]) < FREEZE_THRESHOLD)
            if np.any(small):
                frozen |= small
                theta[K:][small] = 0.0
                R = Y[None, :] - stacked_fit(X, theta)
                base = None

        if base is None:
            base = surrogate_objective(theta, R)

        free = ~frozen                    # covariates still in the system
        Xf = X[:, free]
        D = 1.0 / (4.0 * (eps + np.abs(R)))          # (K, n)
        nf = int(free.sum())
        H = stacked_gram(Xf, D)
        rhs = stacked_tdot(Xf, D * Y + linear)
        if penalized and nf:
            curv = lam * weights[free] / (2.0 * (np.abs(theta[K:][free]) + eps))
            H[K:, K:][np.diag_indices(nf)] += curv

        U, ridge = cholesky(H, ridge)
        sol = cho_solver(U)(rhs)

        theta_new = np.zeros(d)
        theta_new[:K] = sol[:K]
        theta_new[K:][free] = sol[K:]
        R_new = Y[None, :] - stacked_fit(X, theta_new)

        value = surrogate_objective(theta_new, R_new)
        max_violation = max(max_violation, value - base)

        delta = np.max(np.abs(theta_new - theta))
        theta, R, base = theta_new, R_new, value
        if delta < opts.tol:
            converged = True
            break

    diagnostics = {
        "max_descent_violation": float(max_violation),
        "ridge": ridge,
        "eps": eps,
        "frozen": (~np.isin(np.arange(data.p), prob.cols[~frozen])
                   if penalized else None),
    }
    if not converged:
        diagnostics["reason"] = (f"the parameter change {delta:.3g} is not "
                                 f"below its tolerance {opts.tol:.3g}")
    return prob.result("mm", theta[:K], theta[K:], iterations, converged,
                       diagnostics)
