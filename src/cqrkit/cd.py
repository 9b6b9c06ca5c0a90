"""Coordinate-descent fitter: weighted-median coordinate updates plus
sample-quantile intercept updates.

Fixing everything but one coefficient ``beta_m`` turns the (composite) check
objective into a weighted L1 problem along that coordinate,

    sum_{i,k} |x_im| Theta_ik |z_ik - beta_m|  (+ penalty),

where ``z_ik`` is the residual breakpoint ``(y_i - b_k - sum_{j != m} x_ij
beta_j) / x_im`` and ``Theta_ik`` is the check-loss slope magnitude at the
current residual sign (``tau_k`` for nonnegative residuals, ``1 - tau_k``
otherwise).  Its minimizer is a weighted median of the breakpoints; an
adaptive-lasso term joins as one extra breakpoint at zero carrying weight
``lam / pilot_m^2``.  Because residual signs move with ``beta_m``, the median
candidate is not always an exact coordinate minimizer, so each candidate is
accepted only if the full objective does not increase (the safeguard); that
makes every sweep provably monotone.

Intercepts are exact one-dimensional minimizers: ``b_k`` is the level-
``tau_k`` sample quantile of ``y_i - x_i' beta``.

A sweep updates all intercepts, then the coefficients of the columns of
``core.prepare`` in ascending order (the rest stay at zero); sweeps repeat
until the largest parameter change drops under ``tol``.  The sweep keeps
the (K, n) residuals ``r_ik = y_i - b_k - x_i' beta`` in the level-major
layout of ``core`` and returns them in ``diagnostics["residuals"]``.

Cyclic sweeps alone routinely terminate at coordinatewise-minimal points
that are not global minima (the objective is piecewise linear, so descent
can require moving two or more parameters at once; empirically this bites
on most small Gaussian instances, not just adversarial ones).  After the
sweeps settle, ``fit_cd`` therefore finishes with a reduced-cost simplex
(Barrodale & Roberts 1973; Koenker & d'Orey 1987) on the equivalent
polyhedral program, at every problem size.  Its rows are the (K, n) data
rows plus one row ``e_j`` for each column with a positive penalty weight
``pseudo_j``; the stacked design is never formed.  At a vertex with basis
rows ``B`` the multipliers are ``u = -B'^{-1} A_N' psi_N``, where ``psi``
is the check-loss slope of each nonbasic row (``core.stacked_tdot``); a
multiplier outside its box names a descending edge, and the step along it
is a weighted-median search over the breakpoints of ``A v``
(``core.stacked_fit``).  The basis is inverted afresh at every pivot, and
the pivot's four solves are products with that inverse; a basis is
``degenerate`` when it is singular or its condition number
``||B||_inf ||B^{-1}||_inf`` reaches 1e13.

The finish starts from the sweep's point: the rows nearest zero that are
linearly independent form the first basis.  Columns with zero penalty
weight (all of them when the fit is unpenalized) are first cut to an
identifiable set (``core._identifiable``), as ``core.prepare`` has done
below n columns; so at ``p >= n``, where it keeps them all, an unpenalized
fit ends on an interpolating vertex.  Both choices are one Gram-Schmidt
pass (``core._independent``) in a fixed order.
Degenerate vertices, with more zero residuals than parameters, would let
pivots cycle.  A residual within roundoff of zero (``1e-11 max|y|``)
therefore takes its side from a fixed-seed random perturbation of the
targets, treated as infinitely small: the lexicographic rule of the
perturbation method, under which no vertex is degenerate and every pivot
descends, while the vertex itself is solved on the true targets.

The certificate is the finish's own exit: ``optimal`` means every
multiplier lies in its box, ``[tau_k - 1, tau_k]`` for a data row and
``[-pseudo_j, pseudo_j]`` for a penalty row, given the side of every
nonbasic residual.  The fit reports ``converged`` exactly then;
otherwise it keeps the sweep's point and ``diagnostics["reason"]`` says how
the finish ended.  ``diagnostics["polish"]`` records the finish's pivots,
status and objective improvement over the sweeps.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Dataset,
    FitResult,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    _identifiable,
    _independent,
    _sample_quantile,
    _weighted_median,
    fidelity,
    prepare,
    stacked_fit,
    stacked_tdot,
)

__all__ = ["fit_cd"]


def _intercept_step(R, b, k, taus):
    """Exact minimizer over ``b_k`` with the coefficients held.

    The level-``tau_k`` sample quantile of ``y_i - x_i' beta``, read off the
    (K, n) residuals ``R`` at intercepts ``b``.
    """
    return _sample_quantile(R[k] + b[k], taus[k])


def _coordinate_step(R, x_m, taus, beta_m, pseudo, fid, pen):
    """Safeguarded weighted-median step for one coefficient.

    ``R`` holds the (K, n) residuals at the current point, ``fid`` and
    ``pen`` its fidelity and penalty, and ``pseudo`` the coefficient's
    penalty weight ``lam w_m``.  Returns ``(beta_m, R, fid, pen)`` after the
    step: at the weighted median of the breakpoints, with a pseudo-point at
    zero of weight ``pseudo``, when that does not increase the full
    objective, else unchanged.
    """
    rows = x_m != 0.0
    Rm, xm = R[:, rows], x_m[rows]
    z = (Rm / xm[None, :] + beta_m).ravel()              # breakpoints z_ik
    w = (np.abs(xm)[None, :]
         * np.where(Rm >= 0.0, taus[:, None], 1.0 - taus[:, None])).ravel()
    if pseudo > 0.0:
        z, w = np.append(z, 0.0), np.append(w, pseudo)
    cand = _weighted_median(z, w)
    if cand != beta_m:
        new_R = R - (cand - beta_m) * x_m[None, :]
        new_fid = fidelity(new_R, taus)
        new_pen = pen + pseudo * (abs(cand) - abs(beta_m))
        if new_fid + new_pen <= fid + pen:
            return cand, new_R, new_fid, new_pen
    return beta_m, R, fid, pen


def _simplex_finish(X, Y, taus, pseudo, R, beta):
    """Reduced-cost simplex on the stacked program, from the sweep's point.

    Minimizes ``sum_i wpos_i max(r_i, 0) + wneg_i max(-r_i, 0)`` over
    ``theta`` (the K intercepts, then the columns of ``X``) with
    ``r = T - A theta``.  The rows of ``A`` are the (K, n) data rows,
    level-major, with weights ``tau_k`` and ``1 - tau_k``, then one row
    ``e_j`` with target 0 and weight ``pseudo_j`` on both sides for each
    column with ``pseudo_j > 0``; ``A`` itself is never formed.  ``R`` and
    ``beta`` are the sweep's residuals and coefficients, which pick the
    starting vertex.  Returns ``(theta, pivots, status)``; status is
    ``optimal`` (every basic multiplier in its box, the dual certificate),
    ``maxpivots`` (1000 pivots), ``degenerate`` (no well-conditioned basis) or
    ``unbounded`` (roundoff: no breakpoint ends a descending edge).
    """
    K, n = R.shape
    d = K + X.shape[1]
    # unit-free columns: theta[K + j] is in the units of y
    scale = np.abs(X).max(axis=0)
    X, pseudo, beta = X / scale, pseudo / scale, beta * scale
    pen = np.flatnonzero(pseudo > 0.0)
    N = K * n
    wpos = np.concatenate([np.repeat(taus, n), pseudo[pen]])
    wneg = np.concatenate([np.repeat(1.0 - taus, n), pseudo[pen]])
    target = np.concatenate([np.tile(Y, K), np.zeros(pen.size)])

    def rows(idx):
        out = np.zeros((idx.size, d))
        data = idx < N
        out[np.flatnonzero(data), idx[data] // n] = 1.0
        out[data, K:] = X[idx[data] % n]
        out[np.flatnonzero(~data), K + pen[idx[~data] - N]] = 1.0
        return out

    def times(v):
        return np.concatenate([stacked_fit(X, v).ravel(), v[K + pen]])

    # start: the d rows nearest zero at the sweep point that are independent
    r = np.concatenate([R.ravel(), -beta[pen]])
    order = np.argsort(np.abs(r) * (wpos + wneg), kind="stable")
    basis = order[_independent(rows(order), 1e-8)]
    if basis.size < d:
        return np.zeros(d), 0, "degenerate"

    # A residual within roundoff of zero takes its side from a fixed random
    # perturbation of the targets, as if that perturbation were infinitely
    # small (the lexicographic rule): no vertex is then degenerate, so pivots
    # cannot cycle, and the answer is that of the true targets.
    jitter = np.random.default_rng(0).random(target.size)
    tiny = 1e-11 * float(np.max(np.abs(Y)))
    pivots = 0
    while True:
        B = rows(basis)
        try:
            inv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return np.zeros(d), pivots, "degenerate"
        if np.abs(B).sum(axis=1).max() * np.abs(inv).sum(axis=1).max() >= 1e13:
            return np.zeros(d), pivots, "degenerate"
        theta = inv @ target[basis]
        r = target - times(theta)
        r[np.abs(r) <= tiny] = 0.0
        tie = jitter - times(inv @ jitter[basis])
        side = np.where(r != 0.0, np.sign(r), np.sign(tie))
        side[basis] = 0.0
        psi = np.where(side > 0.0, wpos, -wneg)
        psi[basis] = 0.0
        g = stacked_tdot(X, psi[:N].reshape(K, n))
        g[K + pen] += psi[N:]
        u = -g @ inv
        # slope per unit of leaving row j's residual, by box width: to the
        # negative side wneg_j + u_j, to the positive side wpos_j - u_j
        width = wpos[basis] + wneg[basis]
        slopes = np.concatenate([wneg[basis] + u, wpos[basis] - u]) / np.tile(width, 2)
        e = int(np.argmin(slopes))
        if slopes[e] >= -1e-9:
            status = "optimal"
            break
        if pivots == 1000:
            status = "maxpivots"
            break
        j, s = e % d, (1.0 if e < d else -1.0)
        delta = times(s * inv[:, j])
        move = np.flatnonzero(side * delta > 0.0)
        t = r[move] / delta[move]
        ranked = np.lexsort((tie[move] / delta[move], t))
        jump = (wpos[move] + wneg[move]) * np.abs(delta[move])
        cum = slopes[e] * width[j] + np.cumsum(jump[ranked])
        stop = int(np.searchsorted(cum, 0.0, side="left"))
        if stop == t.size:
            status = "unbounded"
            break
        basis[j] = move[ranked[stop]]
        pivots += 1
    theta[K:] /= scale
    return theta, pivots, status


def fit_cd(data: Dataset, levels: QuantileLevels,
           penalty: PenaltySpec | None = None,
           options: SolverOptions | None = None) -> FitResult:
    """Fit (composite) quantile regression by safeguarded coordinate descent.

    The sweeps end in the simplex finish, and ``converged`` is true exactly
    when the finish ends ``optimal``.  ``max_iter`` counts full sweeps.
    ``diagnostics["max_objective_increase"]`` reports the largest observed
    objective change over all accepted updates (monotonicity audit; at most
    roundoff), and ``diagnostics["skipped_columns"]`` the columns left out.
    """
    prob = prepare(data, levels, penalty, options)
    opts, X, Y, K = prob.options, prob.X, data.Y, levels.K
    p, taus = prob.cols.size, levels.taus
    pseudo = prob.penalty.lam * prob.weights

    beta, b = np.zeros(p), np.zeros(K)
    R = np.tile(Y, (K, 1))                # (K, n) residuals at the zero start
    fid = fidelity(R, taus)
    pen = 0.0
    max_increase = -np.inf

    for sweeps in range(1, opts.max_iter + 1):
        biggest = 0.0
        for k in range(K):
            new_b = _intercept_step(R, b, k, taus)
            if new_b != b[k]:
                new_R = R.copy()
                new_R[k] = R[k] + b[k] - new_b
                new_fid = fidelity(new_R, taus)
                max_increase = max(max_increase, new_fid - fid)
                biggest = max(biggest, abs(new_b - b[k]))
                b[k], R, fid = new_b, new_R, new_fid
        for m in range(p):
            value, new_R, new_fid, new_pen = _coordinate_step(
                R, X[:, m], taus, beta[m], pseudo[m], fid, pen)
            if value != beta[m]:
                max_increase = max(max_increase, (new_fid + new_pen) - (fid + pen))
                biggest = max(biggest, abs(value - beta[m]))
                beta[m], R, fid, pen = value, new_R, new_fid, new_pen
        if biggest < opts.tol:
            break

    # zero-weight columns (all of them when unpenalized) are cut to a set
    # the data identify; a positive weight's row e_j identifies its column
    keep = pseudo > 0.0
    keep[~keep] = _identifiable(X[:, ~keep])
    theta, pivots, status = _simplex_finish(X[:, keep], Y, taus, pseudo[keep],
                                            R, beta[keep])
    polish_info = {"pivots": pivots, "status": status, "improvement": 0.0}
    converged = status == "optimal"
    if converged:
        cand_beta = np.zeros(p)
        cand_beta[keep] = theta[K:]
        cand_b = theta[:K]
        cand_R = Y[None, :] - stacked_fit(X, np.concatenate([cand_b, cand_beta]))
        cand_fid = fidelity(cand_R, taus)
        cand_pen = float(np.sum(pseudo * np.abs(cand_beta)))
        polish_info["improvement"] = float((fid + pen) - (cand_fid + cand_pen))
        # an optimal vertex can sit a roundoff above an optimal sweep point
        if cand_fid + cand_pen <= fid + pen:
            b, beta, R = cand_b, cand_beta, cand_R

    diagnostics = {
        "residuals": R.copy(),
        "max_objective_increase": float(max_increase),
        "skipped_columns": np.setdiff1d(np.arange(data.p), prob.cols),
        "polish": polish_info,
    }
    if not converged:
        diagnostics["reason"] = (f"the simplex finish ended {status!r} after "
                                 f"{pivots} pivots")
    return prob.result("cd", b, beta, sweeps, converged, diagnostics)
