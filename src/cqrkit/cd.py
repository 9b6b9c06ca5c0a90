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
sweeps repeat until the largest parameter change drops under ``tol``.

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

An unpenalized fit above ``POLISH_MAX_DIM`` is where that shortcut fails
worst: at ``p >= n`` every interpolant attains objective 0 while the sweeps
can stop well above it.  So there the sweep point reports ``converged`` only
when it carries a subgradient certificate of optimality: multipliers
``g_ik`` in ``[tau_k - 1, tau_k]`` on the zero residuals
(``|r_ik| <= 1e-9 (1 + max|y|)``) that cancel the gradient
``sum tau_k - 1{r_ik < 0}`` of the nonzero ones in every intercept and
coefficient direction.  Finding them is a bounded least-squares problem
with ``K + p`` equations; when its residual is not roundoff, the fit
returns ``converged=False`` and ``diagnostics["reason"]`` says why.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import lsq_linear

from .core import (
    Dataset,
    FitResult,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    adaptive_weights,
    penalty_terms,
    penalty_value,
    sample_quantile,
    stack_composite,
    weighted_median,
)

__all__ = ["CdState", "make_cd_state", "cd_intercept_update",
           "cd_coordinate_update", "fit_cd", "POLISH_MAX_DIM"]

# vertex refinement is cubic-ish in the parameter count; above this many
# free parameters it is skipped
POLISH_MAX_DIM = 64


@dataclass
class CdState:
    """Snapshot of a coordinate-descent iterate.

    ``residuals[i, k] = y_i - b_k - x_i' beta``; ``objective`` includes the
    penalty term.
    """

    beta: np.ndarray
    intercepts: np.ndarray
    residuals: np.ndarray
    objective: float


def _fidelity(R, taus):
    """Check-loss sum over an (n, K) residual matrix."""
    return float(np.sum(R * (taus[None, :] - (R < 0.0))))


def make_cd_state(data: Dataset, levels: QuantileLevels, beta, intercepts,
                  penalty: PenaltySpec | None = None) -> CdState:
    """Build a consistent CdState from parameters."""
    penalty = PenaltySpec.none() if penalty is None else penalty
    beta = np.asarray(beta, dtype=float).copy()
    intercepts = np.asarray(intercepts, dtype=float).copy()
    R = data.Y[:, None] - intercepts[None, :] - (data.X @ beta)[:, None]
    obj = _fidelity(R, levels.taus) + penalty_value(beta, penalty)
    return CdState(beta=beta, intercepts=intercepts, residuals=R, objective=obj)


def cd_intercept_update(state: CdState, data: Dataset, levels: QuantileLevels,
                        k: int) -> float:
    """Optimal intercept for level ``k`` given the current coefficients.

    The sample quantile of ``y_i - x_i' beta`` at ``tau_k``; replacing
    ``b_k`` with it cannot increase the objective.
    """
    if not 0 <= k < levels.K:
        raise ValueError(f"level index {k} out of range")
    values = state.residuals[:, k] + state.intercepts[k]
    return sample_quantile(values, levels.taus[k])


def cd_coordinate_update(state: CdState, data: Dataset, levels: QuantileLevels,
                         penalty: PenaltySpec, m: int) -> float:
    """Safeguarded weighted-median update for coefficient ``m``.

    Returns the accepted value: the weighted median of the breakpoints if it
    does not increase the full objective, the current ``beta_m`` otherwise.
    """
    if not 0 <= m < data.p:
        raise ValueError(f"coordinate index {m} out of range")
    x_m = data.X[:, m]
    if not np.any(x_m != 0.0):
        raise ValueError(f"column {m} is identically zero")
    if penalty.regularized:
        weights, active = adaptive_weights(penalty.pilot)
        pseudo = penalty.lam * weights[m]
        if not active[m]:
            return 0.0
    else:
        pseudo = 0.0
    cand = _coordinate_candidate(state.residuals, x_m, levels.taus,
                                 state.beta[m], pseudo)
    new_R = state.residuals - (cand - state.beta[m]) * x_m[:, None]
    new_beta = state.beta.copy()
    new_beta[m] = cand
    new_obj = _fidelity(new_R, levels.taus) + penalty_value(new_beta, penalty)
    return cand if new_obj <= state.objective else state.beta[m]


def _coordinate_candidate(R, x_m, taus, beta_m, pseudo_weight):
    """Weighted median of the coordinate-m breakpoints (plus pseudo-point)."""
    rows = x_m != 0.0
    Rm = R[rows]
    xm = x_m[rows]
    z = Rm / xm[:, None] + beta_m                        # breakpoints z_ik
    theta = np.where(Rm >= 0.0, taus[None, :], 1.0 - taus[None, :])
    w = np.abs(xm)[:, None] * theta
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


def _polish_rows(data, levels, penalty, active):
    """Stacked rows, targets, and side weights of the polyhedral program."""
    design = stack_composite(data, levels)
    cols = np.concatenate([np.ones(levels.K, dtype=bool), active])
    A = design.Xs[:, cols]
    y = design.Ys.copy()
    wpos = np.repeat(levels.taus, data.n)
    wneg = 1.0 - wpos
    if penalty.regularized:
        weights, _ = adaptive_weights(penalty.pilot)
        n_active = int(np.count_nonzero(active))
        pen_rows = np.zeros((n_active, A.shape[1]))
        pen_rows[np.arange(n_active), levels.K + np.arange(n_active)] = 1.0
        A = np.vstack([A, pen_rows])
        y = np.concatenate([y, np.zeros(n_active)])
        pen_w = penalty.lam * weights[active]
        wpos = np.concatenate([wpos, pen_w])
        wneg = np.concatenate([wneg, pen_w])
    return A, y, wpos, wneg


def _certificate_gap(X, Y, R, taus):
    """Distance from zero of the best unpenalized subgradient at ``R``.

    ``X`` holds the free coefficient columns and ``R`` the (n, K) residuals.
    Rows with ``|r_ik|`` under the zero tolerance take multipliers in
    ``[tau_k - 1, tau_k]``; the others contribute ``tau_k - 1{r_ik < 0}``.
    Returns ``(gap, tol)``: the max-norm of the best stacked gradient over
    the box, found by bounded least squares, and the roundoff threshold under
    which it certifies a minimizer.
    """
    n, K = R.shape
    zero = np.abs(R) <= 1e-9 * (1.0 + float(np.max(np.abs(Y))))
    psi = np.where(zero, 0.0, taus[None, :] - (R < 0.0))
    fixed = np.concatenate([psi.sum(axis=0), X.T @ psi.sum(axis=1)])
    rows, levels_of = np.nonzero(zero)
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
    R = Y[:, None] - b[None, :] - (X @ beta)[:, None]
    fid = _fidelity(R, taus)
    pen = penalty_value(beta, penalty)
    max_increase = -np.inf
    converged = False
    sweeps = 0

    for sweeps in range(1, opts.max_iter + 1):
        biggest = 0.0
        for k in range(K):
            values = R[:, k] + b[k]
            new_b = sample_quantile(values, taus[k])
            if new_b != b[k]:
                new_R = R.copy()
                new_R[:, k] = values - new_b
                new_fid = _fidelity(new_R, taus)
                max_increase = max(max_increase, new_fid - fid)
                biggest = max(biggest, abs(new_b - b[k]))
                b[k] = new_b
                R = new_R
                fid = new_fid
        for m in range(p):
            if not usable[m]:
                continue
            x_m = X[:, m]
            cand = _coordinate_candidate(R, x_m, taus, beta[m], pseudo[m])
            if cand == beta[m]:
                continue
            new_R = R - (cand - beta[m]) * x_m[:, None]
            new_fid = _fidelity(new_R, taus)
            new_pen = pen + pseudo[m] * (abs(cand) - abs(beta[m]))
            # safeguard: keep the move only if the full objective does not rise
            if new_fid + new_pen <= fid + pen:
                max_increase = max(max_increase, (new_fid + new_pen) - (fid + pen))
                biggest = max(biggest, abs(cand - beta[m]))
                beta[m] = cand
                R = new_R
                fid = new_fid
                pen = new_pen
        if biggest < opts.tol:
            converged = True
            break

    polish_info = {"pivots": 0, "status": "skipped", "improvement": 0.0}
    reason = None
    free_dim = K + int(np.count_nonzero(usable))
    if free_dim <= POLISH_MAX_DIM:
        A, ys, wpos, wneg = _polish_rows(data, levels, penalty, usable)
        theta0 = np.concatenate([b, beta[usable]])
        theta, pivots, status = _vertex_polish(A, ys, wpos, wneg, theta0)
        cand_beta = np.zeros(p)
        cand_beta[usable] = theta[K:]
        cand_b = theta[:K]
        cand_R = Y[:, None] - cand_b[None, :] - (X @ cand_beta)[:, None]
        cand_fid = _fidelity(cand_R, taus)
        cand_pen = penalty_value(cand_beta, penalty)
        polish_info = {"pivots": pivots, "status": status,
                       "improvement": (fid + pen) - (cand_fid + cand_pen)}
        # refinement is accepted only if it did not lose ground (roundoff)
        if cand_fid + cand_pen <= fid + pen:
            b, beta, R = cand_b, cand_beta, cand_R
            fid, pen = cand_fid, cand_pen
    elif not penalized:
        gap, gap_tol = _certificate_gap(X[:, usable], Y, R, taus)
        polish_info["certificate_gap"] = gap
        if gap > gap_tol:
            converged = False
            reason = (f"sweep point is not a minimizer: best subgradient "
                      f"{gap:.3g} exceeds {gap_tol:.3g} with {free_dim} free "
                      f"parameters, above the polish limit {POLISH_MAX_DIM}")

    state = CdState(beta=beta.copy(), intercepts=b.copy(), residuals=R.copy(),
                    objective=fid + pen)
    diagnostics = {
        "state": state,
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
