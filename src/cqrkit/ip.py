"""Interior-point fitter: Frisch-Newton on the bounded dual of the
(composite) quantile-regression linear program.

With the stacked design ``X*`` (level-major rows, see ``core``), stacked
response ``y*``, levels ``tau*`` and row weights ``u``, the fit minimizes
``sum_i u_i rho_{tau_i}(y*_i - x*_i' theta)``.  Its dual is the bounded
program

    max  y*' a   s.t.  X*' a = X*' (u o (1 - tau*)),   0 <= a <= u,

whose equality multipliers, negated, are the coefficients ``theta``.  This
is quantreg's ``rq.fit.fnb`` (Portnoy & Koenker 1997, "The Gaussian hare
and the Laplacian tortoise", Statistical Science 12(4)): a Mehrotra
predictor-corrector started from ``a = u o (1 - tau*)`` and the
least-squares coefficients.  The multipliers ``z`` of ``a >= 0`` and ``w``
of ``a <= u`` split the residual, ``y* - X* theta = w - z``.

The program is solved on the columns of ``core.prepare`` over their
``scale``: unit-norm, and centered (raw at p >= n unpenalized).  Each
iteration factors one (K + p)-square Newton matrix ``X*' diag(q) X*``
(``core.stacked_gram``) by ``core.cholesky``, for the predictor and the
corrector.  From the first one it judges singular (p >= n), each step is
the minimum-norm least-squares solution of the same system, which its
right-hand side, in the matrix's range, solves exactly.  So at p >= n the
fit is the least-L2-norm interpolant on the unit-norm columns, as the
least-squares start is, and moves exactly with a rescaling of them.

The adaptive lasso enters as rows (quantreg's ``rq.fit.lasso``): each
active coefficient ``j`` adds the row ``e_j`` with response 0, level 1/2
and weight ``2 lam w_j``, whose check loss is ``lam w_j |beta_j|`` (on
the unit-norm columns the row is ``e_j / scale_j``).  Only the columns of
``core.prepare`` enter the design; the rest are pinned at zero.

The fit converges when the duality gap ``a'z + (u - a)'w`` is at most
``GAP_TOL (unit + |primal|)``, the primal value being the dual's plus the
gap.  ``unit`` is the largest least-squares residual of a data row at the
start, or ``max|y|`` when that fit is exact to roundoff; the starting
multipliers are floored at ``START_FLOOR unit``.  All of these carry the
response's units, so scaling ``y`` scales the iterates and leaves the
iteration count unchanged.
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
    prepare,
    stacked_fit,
    stacked_gram,
    stacked_tdot,
)

__all__ = ["fit_ip"]

GAP_TOL = 1e-8
#: iterations at most, whatever ``SolverOptions.max_iter`` allows
MAX_ITER = 200
#: fraction of the distance to the boundary an iterate may move (quantreg's beta)
STEP = 0.99995
#: floor, in the stopping rule's unit, on both multipliers of a row whose
#: starting residual is this small
START_FLOOR = 1e-6


def _step(v, dv):
    """Step length in (0, 1] that keeps ``v + step * dv`` positive."""
    neg = dv < 0.0
    return min(1.0, STEP * float(np.min(-v[neg] / dv[neg], initial=np.inf)))


def fit_ip(data: Dataset, levels: QuantileLevels,
           penalty: PenaltySpec | None = None,
           options: SolverOptions | None = None) -> FitResult:
    """Fit by the Frisch-Newton interior point on the bounded dual.

    ``diagnostics["dual"]`` is the dual vector ``a``: the level-major data
    rows, then one row per penalized coefficient.  ``diagnostics["gap"]`` is
    the final duality gap.
    """
    prob = prepare(data, levels, penalty, options)
    n, K = data.n, levels.K
    nK = n * K
    # unit-norm columns: column j of X carries scale_j beta_j, and its
    # penalty row e_j / scale_j reads beta_j, as in the unscaled program
    scale, X = prob.scale, prob.X / prob.scale
    pen = 2.0 * prob.penalty.lam * prob.weights
    rows = np.nonzero(pen > 0.0)[0]       # active columns with a penalty row
    inv = 1.0 / scale[rows]

    def design(theta):                    # X* theta
        return np.concatenate([stacked_fit(X, theta).ravel(),
                               theta[K:][rows] * inv])

    def design_t(v):                      # X*' v
        out = stacked_tdot(X, v[:nK].reshape(K, n))
        out[K + rows] += v[nK:] * inv
        return out

    def gram(q):                          # X*' diag(q) X*
        G = stacked_gram(X, q[:nK].reshape(K, n))
        G[K + rows, K + rows] += q[nK:] * inv ** 2
        return G

    ys = np.concatenate([np.tile(data.Y, K), np.zeros(rows.size)])
    tau = np.concatenate([np.repeat(levels.taus, n), np.full(rows.size, 0.5)])
    u = np.concatenate([np.ones(nK), pen[rows]])
    a = u * (1.0 - tau)
    s = u * tau                           # slack u - a of the upper bound
    b = design_t(a)
    singular = False                      # decided once, by core.cholesky

    def newton_solver(G):                 # rhs -> G^+ rhs
        nonlocal singular
        if not singular:
            U, singular = cholesky(G)
            if not singular:
                return cho_solver(U)
        return lambda rhs: np.linalg.lstsq(G, rhs, rcond=None)[0]

    theta = newton_solver(gram(np.ones(u.size)))(design_t(ys))  # least squares
    r = ys - design(theta)
    # units of the stopping rule and the floor: the largest least-squares
    # residual, which y + X gamma leaves alone, or max|y| where that fit is
    # exact to roundoff (an interpolant at p >= n)
    unit = float(np.max(np.abs(r[:nK])))
    ymax = float(np.max(np.abs(data.Y)))
    if unit <= 1e-10 * ymax:
        unit = ymax or 1.0
    floor = np.where(np.abs(r) < START_FLOOR * unit, START_FLOOR * unit, 0.0)
    z = np.maximum(-r, 0.0) + floor
    w = np.maximum(r, 0.0) + floor

    cap = min(prob.options.max_iter, MAX_ITER)
    iterations = 0
    while True:
        gap = float(a @ z + s @ w)
        dual_value = float(ys @ (a - u * (1.0 - tau)))
        tol = GAP_TOL * (unit + abs(dual_value + gap))
        converged = gap <= tol
        if converged or iterations == cap:
            break
        iterations += 1

        q = 1.0 / (z / a + w / s)
        solve = newton_solver(gram(q))
        rb = b - design_t(a)              # primal residual
        rc = ys - design(theta) - w + z   # dual residual

        def direction(rxz, rsw):
            # complementarity rows a dz + z da = rxz and s dw - w da = rsw
            g = rc + rxz / a - rsw / s
            dtheta = solve(design_t(q * g) - rb)
            da = q * (g - design(dtheta))
            return da, dtheta, (rxz - z * da) / a, (rsw + w * da) / s

        da, dtheta, dz, dw = direction(-a * z, -s * w)
        ap = min(_step(a, da), _step(s, -da))
        ad = min(_step(z, dz), _step(w, dw))
        if min(ap, ad) < 1.0:
            # Mehrotra corrector, centred at (affine gap / gap)^3 of the mean
            affine = float((a + ap * da) @ (z + ad * dz)
                           + (s - ap * da) @ (w + ad * dw))
            mu = (affine / gap) ** 3 * gap / (2 * a.size)
            da, dtheta, dz, dw = direction(mu - a * z - da * dz,
                                           mu - s * w + da * dw)
            ap = min(_step(a, da), _step(s, -da))
            ad = min(_step(z, dz), _step(w, dw))
        a = a + ap * da
        s = s - ap * da
        theta = theta + ad * dtheta
        z = z + ad * dz
        w = w + ad * dw

    diagnostics = {"dual": a, "gap": gap}
    if not converged:
        diagnostics["reason"] = (
            f"the duality gap {gap:.3g} is above its tolerance {tol:.3g}"
            + (f" at IP's cap of {MAX_ITER} iterations"
               if cap < prob.options.max_iter else ""))
    return prob.result("ip", theta[:K], theta[K:] / scale, iterations,
                       converged, diagnostics)
