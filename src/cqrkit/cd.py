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

A sweep updates all intercepts then all coordinates in ascending order;
sweeps repeat until the largest parameter change drops under ``tol``.  The
sweep keeps the residuals ``r_ik = y_i - b_k - x_i' beta`` as a (K, n)
array in the level-major layout of ``core`` and returns them in
``diagnostics["residuals"]``.

Cyclic sweeps alone routinely terminate at coordinatewise-minimal points
that are not global minima (the objective is piecewise linear, so descent
can require moving two or more parameters at once; empirically this bites
on most small Gaussian instances, not just adversarial ones).  After the
sweeps settle, ``fit_cd`` therefore runs a finite vertex-descent
refinement on the equivalent polyhedral program: starting from the sweep
solution it walks vertex to vertex, at each step scanning the 2(K+p) edge
directions of the current basis and taking a weighted-median line search
along the steepest descending edge.  The walk is monotone, terminates at
an exact minimizer when no edge descends, and is skipped above
``POLISH_MAX_DIM`` free parameters where penalized sweep output is already
adequate for selection-style use.

An unpenalized fit needs a second line of defence where the polish does
not end ``optimal``: above ``POLISH_MAX_DIM`` (at ``p >= n`` every
interpolant attains objective 0 while the sweeps can stop well above it),
and on rank-deficient designs (a duplicated column, a column equal to the
intercept), where the walk can run out of pivots.  There the accepted
point reports ``converged`` only when it carries a subgradient certificate
of optimality: multipliers ``g_ik`` in ``[tau_k - 1, tau_k]`` on the zero
residuals (``|r_ik| <= 1e-9 (1 + max|y|)``) that cancel the gradient
``sum tau_k - 1{r_ik < 0}`` of the nonzero ones in every intercept and
coefficient direction.  Finding them is a bounded least-squares problem
with ``K + p`` equations; when its residual is not roundoff, the fit
returns ``converged=False`` and ``diagnostics["reason"]`` says why.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.optimize import lsq_linear

from .core import (
    Dataset,
    FitResult,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    fidelity,
    penalty_terms,
    penalty_value,
    sample_quantile,
    stacked_fit,
    stacked_tdot,
    weighted_median,
)

__all__ = ["fit_cd", "POLISH_MAX_DIM"]

# vertex refinement is cubic-ish in the parameter count; above this many
# free parameters it is skipped
POLISH_MAX_DIM = 64


def _intercept_step(R, b, k, taus):
    """Exact minimizer over ``b_k`` with the coefficients held.

    The level-``tau_k`` sample quantile of ``y_i - x_i' beta``, read off the
    (K, n) residuals ``R`` at intercepts ``b``.
    """
    return sample_quantile(R[k] + b[k], taus[k])


def _coordinate_step(R, x_m, taus, beta_m, pseudo, fid, pen):
    """Safeguarded weighted-median step for one coefficient.

    ``R`` holds the (K, n) residuals at the current point, ``fid`` and
    ``pen`` its fidelity and penalty, and ``pseudo`` the coefficient's
    penalty weight ``lam w_m``.  Returns ``(beta_m, R, fid, pen)`` after the
    step: at the weighted median of the breakpoints when that does not
    increase the full objective, else unchanged.
    """
    cand = _coordinate_candidate(R, x_m, taus, beta_m, pseudo)
    if cand != beta_m:
        new_R = R - (cand - beta_m) * x_m[None, :]
        new_fid = fidelity(new_R, taus)
        new_pen = pen + pseudo * (abs(cand) - abs(beta_m))
        if new_fid + new_pen <= fid + pen:
            return cand, new_R, new_fid, new_pen
    return beta_m, R, fid, pen


def _coordinate_candidate(R, x_m, taus, beta_m, pseudo_weight):
    """Weighted median of the coordinate-m breakpoints (plus pseudo-point)."""
    rows = x_m != 0.0
    Rm = R[:, rows]
    xm = x_m[rows]
    z = Rm / xm[None, :] + beta_m                        # breakpoints z_ik
    theta = np.where(Rm >= 0.0, taus[:, None], 1.0 - taus[:, None])
    w = np.abs(xm)[None, :] * theta
    z = z.ravel()
    w = w.ravel()
    if pseudo_weight > 0.0:
        z = np.append(z, 0.0)
        w = np.append(w, pseudo_weight)
    return weighted_median(z, w)


def _edge_slopes(delta, r, wpos, wneg, tight_tol):
    """Directional derivatives along the columns of ``delta`` (= A @ V).

    ``r`` is the current residual vector; rows within ``tight_tol`` of zero
    contribute their worst-case (one-sided) slope.
    """
    pos = (r > tight_tol)[:, None]
    neg = (r < -tight_tol)[:, None]
    wp = wpos[:, None]
    wn = wneg[:, None]
    contrib = np.where(pos, -wp * delta,
                       np.where(neg, wn * delta,
                                np.where(delta > 0, wn * delta, -wp * delta)))
    return contrib.sum(axis=0)


def _edge_line_search(delta, r, slope0, wpos, wneg, tight_tol):
    """Largest monotone step along a descending edge.

    Each row strictly on one side of zero and moving toward it contributes
    a breakpoint ``t_i = r_i / delta_i``; crossing it raises the slope by
    ``(wpos_i + wneg_i)|delta_i|``.  Returns the first breakpoint at which
    the cumulative slope becomes nonnegative, or None when the objective is
    unbounded along the ray.
    """
    move = ((r > tight_tol) & (delta > 0)) | ((r < -tight_tol) & (delta < 0))
    if not np.any(move):
        return None
    t = r[move] / delta[move]
    jump = (wpos[move] + wneg[move]) * np.abs(delta[move])
    order = np.argsort(t, kind="stable")
    cum = slope0 + np.cumsum(jump[order])
    idx = np.searchsorted(cum, 0.0, side="left")
    if idx >= t.size:
        return None
    return float(t[order][idx])


def _vertex_polish(A, y, wpos, wneg, theta, max_pivots=1000, tight_tol=1e-9):
    """Finite descent to a vertex minimizer of an asymmetric L1 objective.

    Minimizes ``sum_i wpos_i max(r_i, 0) + wneg_i max(-r_i, 0)`` with
    ``r = y - A theta``.  Returns ``(theta, pivots, status)`` where status is
    one of ``optimal`` (no descending edge), ``maxpivots``, ``degenerate``
    (could not build or leave a rank-deficient vertex), ``unbounded``, or
    ``stalled`` (roundoff: accepted step failed to decrease the objective).
    """
    M, d = A.shape
    theta = theta.astype(float).copy()
    scale = max(1.0, float(np.max(np.abs(y))) if y.size else 1.0)
    tt = tight_tol * scale
    slope_tol = 1e-10 * scale

    def obj(th):
        r = y - A @ th
        return float(np.sum(np.where(r >= 0, wpos * r, -wneg * r)))

    f_cur = obj(theta)
    pivots = 0
    stale = 0
    while pivots < max_pivots:
        r = y - A @ theta
        ti = np.nonzero(np.abs(r) <= tt)[0]
        basis = np.array([], dtype=int)
        if ti.size:
            q, rq, piv = scipy.linalg.qr(A[ti].T, pivoting=True)
            diag = np.abs(np.diag(rq))
            lead = diag[0] if diag.size else 0.0
            rank = int(np.sum(diag > 1e-10 * max(1.0, lead)))
            basis = ti[piv[:rank]]
        if basis.size < d:
            # not at a full vertex: slide along a null direction of the
            # tight rows until one more row becomes tight
            if basis.size:
                null = scipy.linalg.null_space(A[basis])
            else:
                null = np.eye(d)
            moved = False
            for idx in range(null.shape[1]):
                v = null[:, idx]
                for sgn in (1.0, -1.0):
                    delta = A @ (sgn * v)
                    s0 = float(_edge_slopes(delta[:, None], r, wpos, wneg, tt)[0])
                    if s0 > slope_tol:
                        continue
                    tstar = _edge_line_search(delta, r, s0, wpos, wneg, tt)
                    if tstar is None:
                        continue
                    theta = theta + tstar * sgn * v
                    moved = True
                    break
                if moved:
                    break
            if not moved:
                return theta, pivots, "degenerate"
            pivots += 1
            continue
        B = A[basis]
        try:
            directions = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return theta, pivots, "degenerate"
        delta = A @ directions
        slopes_plus = _edge_slopes(delta, r, wpos, wneg, tt)
        slopes_minus = _edge_slopes(-delta, r, wpos, wneg, tt)
        j_plus = int(np.argmin(slopes_plus))
        j_minus = int(np.argmin(slopes_minus))
        if slopes_plus[j_plus] <= slopes_minus[j_minus]:
            best_slope, v, dvec = slopes_plus[j_plus], directions[:, j_plus], delta[:, j_plus]
        else:
            best_slope, v, dvec = slopes_minus[j_minus], -directions[:, j_minus], -delta[:, j_minus]
        if best_slope >= -slope_tol:
            return theta, pivots, "optimal"
        tstar = _edge_line_search(dvec, r, best_slope, wpos, wneg, tt)
        if tstar is None:
            return theta, pivots, "unbounded"
        cand = theta + tstar * v
        f_new = obj(cand)
        if f_new > f_cur:
            return theta, pivots, "stalled"
        if tstar <= tt:
            stale += 1
            if stale > 2 * d:
                return theta, pivots, "degenerate"
        else:
            stale = 0
        theta, f_cur = cand, f_new
        pivots += 1
    return theta, pivots, "maxpivots"


def _polish_rows(data, levels, pseudo, active, penalized):
    """Stacked rows, targets, and side weights of the polyhedral program.

    Level-major data rows over the intercepts and the ``active`` columns,
    then, when ``penalized``, one row ``e_j`` per active column with target
    0 and weight ``pseudo_j`` on both sides.
    """
    n, K = data.n, levels.K
    A = np.hstack([np.kron(np.eye(K), np.ones((n, 1))),
                   np.tile(data.X[:, active], (K, 1))])
    y = np.tile(data.Y, K)
    wpos = np.repeat(levels.taus, n)
    wneg = 1.0 - wpos
    if penalized:
        n_active = int(np.count_nonzero(active))
        A = np.vstack([A, np.eye(K + n_active)[K:]])
        y = np.concatenate([y, np.zeros(n_active)])
        wpos = np.concatenate([wpos, pseudo[active]])
        wneg = np.concatenate([wneg, pseudo[active]])
    return A, y, wpos, wneg


def _certificate_gap(X, Y, R, taus):
    """Distance from zero of the best unpenalized subgradient at ``R``.

    ``X`` holds the free coefficient columns and ``R`` the (K, n) residuals.
    Rows with ``|r_ik|`` under the zero tolerance take multipliers in
    ``[tau_k - 1, tau_k]``; the others contribute ``tau_k - 1{r_ik < 0}``.
    Returns ``(gap, tol)``: the max-norm of the best stacked gradient over
    the box, found by bounded least squares, and the roundoff threshold under
    which it certifies a minimizer.
    """
    K, n = R.shape
    zero = np.abs(R) <= 1e-9 * (1.0 + float(np.max(np.abs(Y))))
    psi = np.where(zero, 0.0, taus[:, None] - (R < 0.0))
    fixed = stacked_tdot(X, psi)
    levels_of, rows = np.nonzero(zero)
    if rows.size:
        # one column per zero residual: its intercept indicator over its row
        M = np.zeros((K + X.shape[1], rows.size))
        M[levels_of, np.arange(rows.size)] = 1.0
        M[K:] = X[rows].T
        sol = lsq_linear(M, -fixed, bounds=(taus[levels_of] - 1.0,
                                            taus[levels_of]), method="bvls")
        grad = M @ sol.x + fixed
    else:
        grad = fixed
    # scale of the gradient: each column's total absolute contribution
    tol = 1e-8 * max(n, K * float(np.max(np.abs(X).sum(axis=0), initial=0.0)))
    return float(np.max(np.abs(grad))), tol


def fit_cd(data: Dataset, levels: QuantileLevels,
           penalty: PenaltySpec | None = None,
           options: SolverOptions | None = None) -> FitResult:
    """Fit (composite) quantile regression by safeguarded coordinate descent.

    ``max_iter`` counts full sweeps.  ``diagnostics["max_objective_increase"]``
    reports the largest observed objective change over all accepted updates
    (monotonicity audit; at most roundoff).
    """
    penalty = PenaltySpec.none() if penalty is None else penalty
    opts = SolverOptions() if options is None else options
    X, Y = data.X, data.Y
    n, p, K = data.n, data.p, levels.K
    taus = levels.taus

    penalized = penalty.regularized
    weights, active = penalty_terms(penalty, p)
    pseudo = penalty.lam * weights

    zero_cols = ~np.any(X != 0.0, axis=0)
    usable = active & ~zero_cols

    beta = np.zeros(p)
    b = np.zeros(K)
    R = np.tile(Y, (K, 1))                # (K, n) residuals at the zero start
    fid = fidelity(R, taus)
    pen = penalty_value(beta, penalty)
    max_increase = -np.inf
    converged = False
    sweeps = 0

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
                b[k] = new_b
                R = new_R
                fid = new_fid
        for m in range(p):
            if not usable[m]:
                continue
            value, new_R, new_fid, new_pen = _coordinate_step(
                R, X[:, m], taus, beta[m], pseudo[m], fid, pen)
            if value != beta[m]:
                max_increase = max(max_increase, (new_fid + new_pen) - (fid + pen))
                biggest = max(biggest, abs(value - beta[m]))
                beta[m], R, fid, pen = value, new_R, new_fid, new_pen
        if biggest < opts.tol:
            converged = True
            break

    polish_info = {"pivots": 0, "status": "skipped", "improvement": 0.0}
    reason = None
    free_dim = K + int(np.count_nonzero(usable))
    if free_dim <= POLISH_MAX_DIM:
        A, ys, wpos, wneg = _polish_rows(data, levels, pseudo, usable, penalized)
        theta0 = np.concatenate([b, beta[usable]])
        theta, pivots, status = _vertex_polish(A, ys, wpos, wneg, theta0)
        cand_beta = np.zeros(p)
        cand_beta[usable] = theta[K:]
        cand_b = theta[:K]
        cand_R = Y[None, :] - stacked_fit(X, np.concatenate([cand_b, cand_beta]))
        cand_fid = fidelity(cand_R, taus)
        cand_pen = penalty_value(cand_beta, penalty)
        polish_info = {"pivots": pivots, "status": status,
                       "improvement": (fid + pen) - (cand_fid + cand_pen)}
        # refinement is accepted only if it did not lose ground (roundoff)
        if cand_fid + cand_pen <= fid + pen:
            b, beta, R = cand_b, cand_beta, cand_R
            fid, pen = cand_fid, cand_pen
    status = polish_info["status"]
    if not penalized and status != "optimal":
        gap, gap_tol = _certificate_gap(X[:, usable], Y, R, taus)
        polish_info["certificate_gap"] = gap
        if gap > gap_tol:
            converged = False
            where = (f"{free_dim} free parameters, above the polish limit "
                     f"{POLISH_MAX_DIM}" if status == "skipped"
                     else f"the vertex polish ended {status!r}")
            reason = (f"accepted point is not a minimizer: best subgradient "
                      f"{gap:.3g} exceeds {gap_tol:.3g} ({where})")

    diagnostics = {
        "residuals": R.copy(),
        "max_objective_increase": float(max_increase),
        "skipped_columns": np.nonzero(zero_cols)[0],
        "polish": polish_info,
    }
    if reason is not None:
        diagnostics["reason"] = reason
    return FitResult(intercepts=b.copy(), coefficients=beta.copy(),
                     iterations=sweeps, converged=converged,
                     objective=fid + pen, algorithm="cd",
                     diagnostics=diagnostics)
