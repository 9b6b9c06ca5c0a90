"""Shared types and primitives for quantile regression solvers.

Everything downstream (the ADMM / MM / coordinate-descent / interior-point
fitters, the two-stage adaptive pipeline, the simulation harness) speaks the
small vocabulary defined here: a dataset, a grid of quantile levels, a penalty
description, solver options, and a handful of numerical primitives (check
loss, soft threshold, weighted median, adaptive weights and the penalty terms
of a fit).

It also holds the composite problem in the level-major layout that all four
fitters share, without ever forming the stacked design ``X*``:
``fidelity`` is the check-loss sum over (K, n) residuals, ``stacked_fit``
the product ``X* theta``, ``stacked_tdot`` the product ``X*' V``, and
``stacked_gram`` the matrix ``X*' diag(D) X*`` that the MM, ADMM and
interior-point fitters factor through ``cholesky`` and solve with
``cho_solver``, in numpy alone.

Every fitter starts from ``prepare``, which picks the columns the fit moves,
and ends with ``Problem.result``, which reports the answer over all p.

Conventions
-----------
* A quantile regression model at level ``tau`` is ``y ~ b + x' beta``.  The
  composite model shares ``beta`` across levels and gives each level its own
  intercept ``b_k``.
* Residuals are always ``y - b - x' beta`` (data minus fit).
* The stacked composite design is level-major: block ``k`` holds the ``n``
  observations at level ``tau_k``, so rows ``k*n`` through ``(k+1)*n - 1``
  belong to level ``k``.  Residuals and row weights are (K, n) arrays, row
  ``k`` for level ``k``; ``theta`` is the K intercepts, then the p
  coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "QuantileLevels",
    "PenaltySpec",
    "SolverOptions",
    "FitResult",
    "Problem",
    "ConvergenceError",
    "check_loss",
    "soft_threshold",
    "weighted_median",
    "sample_quantile",
    "adaptive_weights",
    "penalty_terms",
    "penalty_value",
    "fidelity",
    "stacked_fit",
    "stacked_tdot",
    "stacked_gram",
    "cholesky",
    "cho_solver",
    "objective",
    "prepare",
]

#: cutoff below which a pilot coefficient is treated as exactly zero
PILOT_FLOOR = 1e-6


class ConvergenceError(RuntimeError):
    """A solver stage failed to converge within its iteration budget."""


def _validate_tau(tau):
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"quantile level must lie strictly in (0, 1), got {tau}")
    return tau


# ---------------------------------------------------------------------------
# problem description types
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    """Design matrix and response vector.

    Parameters
    ----------
    X : ndarray of shape (n, p)
        Covariates, one row per observation.  ``p`` may be zero for an
        intercept-only model.
    Y : ndarray of shape (n,)
        Response.

    Both are stored as C-contiguous float arrays, copied only when the
    input is not one already (``read_csv`` passes a strided column view).
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=float)
        Y = np.ascontiguousarray(self.Y, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional (n, p), got ndim={X.ndim}")
        if Y.ndim != 1:
            raise ValueError(f"Y must be 1-dimensional (n,), got ndim={Y.ndim}")
        if X.shape[0] != Y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]} entries")
        if X.shape[0] == 0:
            raise ValueError("need at least one observation")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("X and Y must contain only finite values")
        self.X = X
        self.Y = Y

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass
class QuantileLevels:
    """A strictly increasing grid of finite quantile levels in (0, 1)."""

    taus: np.ndarray

    def __post_init__(self):
        taus = np.atleast_1d(np.asarray(self.taus, dtype=float))
        if taus.ndim != 1 or taus.size == 0:
            raise ValueError("need at least one quantile level")
        if not np.all((taus > 0.0) & (taus < 1.0)):
            raise ValueError("quantile levels must lie strictly in (0, 1)")
        if np.any(np.diff(taus) <= 0.0):
            raise ValueError("quantile levels must be distinct and increasing")
        self.taus = taus

    @property
    def K(self) -> int:
        return self.taus.size

    @classmethod
    def single(cls, tau) -> "QuantileLevels":
        return cls(np.array([_validate_tau(tau)]))

    @classmethod
    def grid(cls, K: int) -> "QuantileLevels":
        """Equally spaced levels k/(K+1), k = 1..K (e.g. K=9 gives 0.1..0.9)."""
        if K < 1:
            raise ValueError("K must be at least 1")
        return cls(np.arange(1, K + 1) / (K + 1.0))


@dataclass
class PenaltySpec:
    """Penalty attached to the coefficient vector.

    ``kind`` is either ``"none"`` or ``"adaptive_lasso"``.  The adaptive-lasso
    penalty is ``lam * sum_j |beta_j| / pilot_j**2`` where ``pilot`` is a
    first-stage coefficient estimate; coordinates whose pilot is below
    ``PILOT_FLOOR`` in magnitude are excluded from the model entirely
    (constrained to zero) rather than given an infinite weight.
    """

    kind: str
    lam: float = 0.0
    pilot: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("none", "adaptive_lasso"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.kind == "adaptive_lasso":
            lam = float(self.lam)
            if not np.isfinite(lam) or lam < 0.0:
                raise ValueError("lam must be finite and nonnegative")
            if self.pilot is None:
                raise ValueError("adaptive_lasso penalty requires a pilot estimate")
            pilot = np.asarray(self.pilot, dtype=float)
            if pilot.ndim != 1 or not np.all(np.isfinite(pilot)):
                raise ValueError("pilot must be a finite 1-D vector")
            self.lam = lam
            self.pilot = pilot

    @classmethod
    def none(cls) -> "PenaltySpec":
        return cls(kind="none")

    @classmethod
    def adaptive_lasso(cls, lam, pilot) -> "PenaltySpec":
        return cls(kind="adaptive_lasso", lam=lam, pilot=pilot)

    @property
    def regularized(self) -> bool:
        return self.kind == "adaptive_lasso"


@dataclass
class SolverOptions:
    """Knobs shared by the four fitters.

    ``tol`` is the parameter-change threshold of MM and CD; ``rho`` is the
    ADMM step parameter; ``eps_mm`` the MM smoothing constant;
    ``eps_abs``/``eps_rel`` the ADMM stopping tolerances.
    """

    max_iter: int = 5000
    tol: float = 1e-4
    rho: float = 1.2
    eps_mm: float = 1e-4
    eps_abs: float = 1e-2
    eps_rel: float = 1e-4

    def __post_init__(self):
        if int(self.max_iter) < 1:
            raise ValueError("max_iter must be at least 1")
        self.max_iter = int(self.max_iter)
        for name in ("tol", "rho", "eps_mm"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive")
            setattr(self, name, value)
        for name in ("eps_abs", "eps_rel"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative")
            setattr(self, name, value)


@dataclass
class FitResult:
    """Outcome of a single fit.

    ``intercepts`` has one entry per quantile level; ``coefficients`` the
    shared slope vector.  ``diagnostics`` is solver-specific (final internal
    state, residual norms, descent audits, pilot coefficients, ...).
    """

    intercepts: np.ndarray
    coefficients: np.ndarray
    iterations: int
    converged: bool
    objective: float
    algorithm: str
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def check_loss(t, tau):
    """Check (pinball) loss ``rho_tau(t) = t * (tau - 1{t < 0})``.

    Equals ``tau * max(t, 0) + (1 - tau) * max(-t, 0)``; nonnegative, zero
    only at ``t = 0``.  Accepts scalars or arrays and returns the same shape.
    """
    tau = _validate_tau(tau)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("check_loss argument must be finite")
    out = t * (tau - (t < 0.0))
    return float(out) if out.ndim == 0 else out


def soft_threshold(v, a):
    """Soft-thresholding ``S_a(v) = sign(v) * max(|v| - a, 0)``, elementwise."""
    a = float(a)
    if not np.isfinite(a) or a < 0.0:
        raise ValueError("threshold must be finite and nonnegative")
    out = _soft_threshold(np.asarray(v, dtype=float), a)
    return float(out) if out.ndim == 0 else out


def _soft_threshold(v, a):
    """``soft_threshold`` without validation; a thresholded value is +0.0."""
    return v - np.clip(v, -a, a)


def weighted_median(z, w):
    """Weighted median: smallest ``z``-value whose cumulative weight reaches half.

    Sorts ``z`` ascending (ties kept in original order) and returns the first
    element at which the running weight sum reaches ``sum(w) / 2``.  This is a
    minimizer of ``sum_i w_i |z - z_i|``; when the half-weight point falls
    exactly between two elements the left one is returned.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if z.ndim != 1 or w.ndim != 1 or z.size != w.size:
        raise ValueError("z and w must be 1-D vectors of equal length")
    if z.size == 0:
        raise ValueError("need at least one point")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(w))):
        raise ValueError("z and w must be finite")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if float(np.sum(w)) <= 0.0:
        raise ValueError("total weight must be positive")
    return _weighted_median(z, w)


def _weighted_median(z, w):
    """``weighted_median`` of float vectors, without validation."""
    order = np.argsort(z, kind="stable")
    cum = np.cumsum(w[order])
    idx = int(np.searchsorted(cum, 0.5 * float(np.sum(w)), side="left"))
    idx = min(idx, z.size - 1)  # cumsum vs. sum can differ in the last ulp
    return float(z[order[idx]])


def sample_quantile(values, tau):
    """Lower empirical ``tau``-quantile: the ``ceil(n * tau)``-th order statistic.

    This order statistic minimizes ``sum_i rho_tau(v_i - q)`` over ``q``.
    """
    tau = _validate_tau(tau)
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    return _sample_quantile(v, tau)


def _sample_quantile(v, tau):
    """``sample_quantile`` of a float vector, without validation."""
    n = v.size
    # nudge before ceil: n * tau can land an ulp above an integer (10 * 0.3)
    m = int(np.ceil(n * tau - 1e-9))
    m = min(max(m, 1), n)
    return float(np.partition(v, m - 1)[m - 1])


def adaptive_weights(pilot):
    """Adaptive-lasso weights ``1 / pilot**2`` with tiny pilots marked inactive.

    Returns ``(weights, active)``.  Coordinates with ``|pilot| < PILOT_FLOOR`` get
    ``active = False`` and weight 0: downstream solvers pin them at zero
    instead of working with a near-infinite weight.
    """
    pilot = np.asarray(pilot, dtype=float)
    if pilot.ndim != 1:
        raise ValueError("pilot must be a 1-D vector")
    if not np.all(np.isfinite(pilot)):
        raise ValueError("pilot must be finite")
    active = np.abs(pilot) >= PILOT_FLOOR
    weights = np.zeros(pilot.shape)
    weights[active] = 1.0 / pilot[active] ** 2
    return weights, active


def penalty_terms(penalty: PenaltySpec, p: int):
    """Adaptive weights and active mask of a fit with ``p`` coefficients.

    Returns ``(weights, active)`` as ``adaptive_weights`` does; an
    unpenalized fit gets zero weights with every coefficient active.  Raises
    ``ValueError`` when the pilot does not have ``p`` entries.
    """
    if not penalty.regularized:
        return np.zeros(p), np.ones(p, dtype=bool)
    weights, active = adaptive_weights(penalty.pilot)
    if weights.size != p:
        raise ValueError(f"pilot length {weights.size} does not match p={p}")
    return weights, active


def fidelity(R, taus) -> float:
    """Check-loss sum ``sum_k sum_i rho_{tau_k}(R[k, i])`` of (K, n) residuals."""
    return float(np.sum(R * (taus[:, None] - (R < 0.0))))


def stacked_fit(X, theta):
    """``X* theta`` as a (K, n) array: ``theta[k] + X theta[K:]`` in row ``k``.

    ``K`` is the length of ``theta`` beyond the ``p`` columns of ``X``.
    """
    K = theta.size - X.shape[1]
    return theta[:K, None] + (X @ theta[K:])[None, :]


def stacked_tdot(X, V):
    """``X*' V`` for a (K, n) array ``V``: ``[V 1, X' (1' V)]``, length K + p."""
    return np.concatenate([V.sum(axis=1), X.T @ V.sum(axis=0)])


def stacked_gram(X, D, cols=None):
    """``X*' diag(D) X*`` for the stacked composite design, built blockwise.

    ``D`` is a (K, n) array of row weights in the level-major layout of
    ``X*``; the stacked design itself is never formed.  The result is the
    (K + p) x (K + p) matrix ``[[diag(D 1), D X], [X' D', X' diag(1' D) X]]``.
    Given ``cols`` (indices into the columns of ``X``), only the intercept
    columns and those of ``cols`` are built: the (K + p) x (K + len(cols))
    block ``G[:, live]``, ``live = [0..K-1, K + cols]``.
    """
    K, p = D.shape[0], X.shape[1]
    Xc = X if cols is None else X[:, cols]
    G = np.empty((K + p, K + Xc.shape[1]))
    G[:K, :K] = np.diag(D.sum(axis=1))
    DX = D @ X
    G[:K, K:] = DX if cols is None else DX[:, cols]
    G[K:, :K] = DX.T
    G[K:, K:] = X.T @ (D.sum(axis=0)[:, None] * Xc)
    return G


def cholesky(G, ridge=False):
    """Upper Cholesky factor ``U`` of ``G``, ``U'U = G``, and the ridge flag.

    The factor is of ``G + 1e-8 trace(G)/d I``, and the flag true, when
    ``ridge`` (a fit's earlier verdict) is set or ``G`` is singular (after
    ``prepare``, at p >= n): its factorization fails or a pivot is roundoff,
    ``U_jj^2 < 1e-12 G_jj``."""
    if not ridge:
        try:
            U = np.linalg.cholesky(G).T
            d = U.diagonal()
            if (d * d >= 1e-12 * G.diagonal()).all():
                return U, False
        except np.linalg.LinAlgError:
            pass
    bump = 1e-8 * np.trace(G) / G.shape[0]
    return np.linalg.cholesky(G + bump * np.eye(G.shape[0])).T, True


def cho_solver(U):
    """The solve ``rhs -> (U'U)^{-1} rhs`` of an upper factor from ``cholesky``.

    ``U^{-1}`` is formed once, and each solve is the two products
    ``U^{-1} (U^{-T} rhs)``; ``(U'U)^{-1}`` itself is never formed.
    """
    inv = np.linalg.inv(U)
    # ``dot`` costs about half of ``@`` on these small operands
    return lambda rhs: inv.dot(inv.T.dot(rhs))


def penalty_value(beta, penalty: PenaltySpec) -> float:
    """Penalty term at ``beta``; +inf if an inactive coordinate is nonzero."""
    if not penalty.regularized:
        return 0.0
    beta = np.asarray(beta, dtype=float)
    weights, active = penalty_terms(penalty, beta.size)
    if np.any(beta[~active] != 0.0):
        return float("inf")
    return float(penalty.lam * np.sum(weights[active] * np.abs(beta[active])))


def objective(data: Dataset, intercepts, beta, levels: QuantileLevels,
              penalty: PenaltySpec) -> float:
    """Composite check-loss objective at ``(intercepts, beta)``, penalty included.

    ``sum_k sum_i rho_{tau_k}(y_i - b_k - x_i' beta)`` plus the penalty term.
    """
    intercepts = np.atleast_1d(np.asarray(intercepts, dtype=float))
    beta = np.asarray(beta, dtype=float)
    if intercepts.shape != (levels.K,):
        raise ValueError(f"expected {levels.K} intercepts, got {intercepts.shape}")
    if beta.shape != (data.p,):
        raise ValueError(f"expected beta of length {data.p}, got {beta.shape}")
    if not (np.all(np.isfinite(intercepts)) and np.all(np.isfinite(beta))):
        raise ValueError("parameters must be finite")
    R = data.Y[None, :] - stacked_fit(data.X, np.concatenate([intercepts, beta]))
    return fidelity(R, levels.taus) + penalty_value(beta, penalty)


def _independent(A, tol):
    """Indices of the rows of ``A``, in order, that are independent of the
    rows kept before them.

    Gram-Schmidt, projecting twice: a row is kept when what is left of it
    exceeds ``tol`` times its norm.  The basis has ``min(A.shape)`` vectors,
    and the pass stops once it is full.
    """
    Q = np.zeros((A.shape[1], min(A.shape)))
    kept = []
    for i, a in enumerate(A):
        w = a - Q @ (Q.T @ a)
        w -= Q @ (Q.T @ w)
        size = np.linalg.norm(w)
        if size > tol * np.linalg.norm(a):
            Q[:, len(kept)] = w / size
            kept.append(i)
            if len(kept) == Q.shape[1]:
                break
    return np.array(kept, dtype=int)


def _identifiable(X):
    """Columns of ``X`` that, beside the intercepts, have full column rank.

    ``_independent`` on the centered, unit-norm columns, in column order,
    whatever their units: a column that centers to roundoff is cut, and of
    duplicates or a block summing to a constant, the last column is cut."""
    keep = np.zeros(X.shape[1], dtype=bool)
    Xc = X - X.mean(axis=0)
    norms = np.linalg.norm(Xc, axis=0)
    live = np.flatnonzero(norms > 1e-12 * np.linalg.norm(X, axis=0))
    keep[live[_independent((Xc[:, live] / norms[live]).T, 1e-9)]] = True
    return keep


@dataclass
class Problem:
    """A fit's problem on the columns it moves, as ``prepare`` builds it.

    ``cols`` are the columns active under the penalty, not constant, and
    identifiable (``prepare``), ``X`` is ``data.X[:, cols]``, ``weights``
    their adaptive weights, and ``options`` has its defaults filled in.
    """

    data: Dataset
    levels: QuantileLevels
    penalty: PenaltySpec
    options: SolverOptions
    cols: np.ndarray
    X: np.ndarray
    weights: np.ndarray

    def result(self, algorithm, intercepts, beta, iterations, converged,
               diagnostics) -> FitResult:
        """The ``FitResult`` at ``intercepts`` and ``beta`` on ``cols``, every
        other coefficient zero, with its ``objective``."""
        intercepts = np.array(intercepts, dtype=float)
        coefficients = np.zeros(self.data.p)
        coefficients[self.cols] = beta
        obj = objective(self.data, intercepts, coefficients, self.levels,
                        self.penalty)
        return FitResult(intercepts, coefficients, iterations, converged, obj,
                         algorithm, diagnostics)


def prepare(data: Dataset, levels: QuantileLevels,
            penalty: PenaltySpec | None = None,
            options: SolverOptions | None = None) -> Problem:
    """The ``Problem`` of a fit, unpenalized and with default options when
    those are not given; ``ValueError`` if the pilot's length is not p.  A
    constant column (all zero, or an intercept column of ones) is left out:
    the intercepts absorb it, so 0 on it is optimal at any penalty.  Below n
    columns, the zero-weight ones (all, unpenalized) are cut to their
    ``_identifiable`` set, which spans the rest: 0 on those is optimal too."""
    penalty = PenaltySpec.none() if penalty is None else penalty
    options = SolverOptions() if options is None else options
    weights, active = penalty_terms(penalty, data.p)
    cols = np.flatnonzero(active & (np.ptp(data.X, axis=0) > 0.0))
    free = cols[penalty.lam * weights[cols] == 0.0]
    if free.size and cols.size < data.n:
        cols = np.setdiff1d(cols, free[~_identifiable(data.X[:, free])])
    return Problem(data, levels, penalty, options, cols, data.X[:, cols],
                   weights[cols])
