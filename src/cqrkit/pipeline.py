"""User-facing fitting API: request validation, solver dispatch, and the
two-stage adaptive-lasso pipeline (pilot fit -> weights -> penalized fit).

At ``p < n`` the pilot estimate is the unregularized solution produced by
``pilot_algorithm`` (by default the same solver as the final stage); its
coefficients become the adaptive weights ``1 / pilot_j**2`` and are kept in
the final result's diagnostics under ``"pilot"``.  A column that
``core.prepare`` cuts as dependent has pilot 0, so no final fit moves it.

At ``p >= n`` the unregularized minimizer is not unique: every interpolant
attains objective 0, so it says nothing about which coefficients matter
(ADMM and MM would return the least-L2-norm interpolant on the columns of
``core.prepare``, which shrinks the truth by about ``n / p``, IP the same
on unit-norm columns, and CD an interpolating vertex).  The pilot is then
a forward stepwise selection (forward regression, Wang 2009) stopped by a
max-score test: starting from the intercepts alone, each step refits the
unregularized model on the selected columns with ``pilot_algorithm`` and
adds the column of ``core.prepare`` (never a constant one) with the
largest rank-score statistic on its centered values ``c_j = x_j - mean(x_j)``

    |c_j' psi| / sqrt(V * c_j' c_j),   psi_i = sum_k (tau_k - 1{r_ik < 0}),

while that statistic exceeds ``Phi^-1(1 - 0.1 / (2p))``.  With the
intercepts fitted ``psi`` sums to about zero, so a column's mean would only
add to its norm.  ``V`` is the variance of ``psi_i`` at the true
coefficients, so the threshold is the familywise 0.1-level Bonferroni
bound on the largest null statistic, the pivotal level of Belloni &
Chernozhukov (2011).  The pilot is the final refit, exactly zero off the
selected columns.  ``pilot`` runs this stage alone, so that several
final-stage fits can share one pilot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .admm import fit_admm
from .cd import fit_cd
from .core import (
    ConvergenceError,
    Dataset,
    FitResult,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    prepare,
    sample_quantile,
)
from .ip import fit_ip
from .mm import fit_mm

__all__ = ["SOLVERS", "FitRequest", "fit", "pilot"]

SOLVERS = {
    "admm": fit_admm,
    "mm": fit_mm,
    "cd": fit_cd,
    "ip": fit_ip,
}


def _solver(tag: str):
    try:
        return SOLVERS[tag]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {tag!r}; expected one of {sorted(SOLVERS)}"
        ) from None


@dataclass
class FitRequest:
    """Everything needed to produce one fit.

    ``lam`` must be given exactly when ``regularized`` is true;
    ``pilot_algorithm`` defaults to ``algorithm``.
    """

    data: Dataset
    levels: QuantileLevels
    algorithm: str = "admm"
    regularized: bool = False
    lam: float | None = None
    options: SolverOptions = field(default_factory=SolverOptions)
    pilot_algorithm: str | None = None

    def __post_init__(self):
        _solver(self.algorithm)
        if self.pilot_algorithm is None:
            self.pilot_algorithm = self.algorithm
        else:
            _solver(self.pilot_algorithm)
        if self.regularized:
            if self.lam is None:
                raise ValueError("regularized request requires lam")
            lam = float(self.lam)
            if not np.isfinite(lam) or lam <= 0.0:
                raise ValueError("lam must be finite and positive")
            self.lam = lam
        elif self.lam is not None:
            raise ValueError("lam given but regularized is False")


def _pilot_fit(request: FitRequest, data: Dataset) -> FitResult:
    """Unregularized fit by the pilot solver; raises if it did not converge."""
    pilot = _solver(request.pilot_algorithm)(data, request.levels, None,
                                             request.options)
    if not pilot.converged:
        reason = pilot.diagnostics.get("reason")
        raise ConvergenceError(
            f"pilot stage ({request.pilot_algorithm}) did not converge "
            f"after {pilot.iterations} iterations"
            + (f": {reason}" if reason else "")
        )
    return pilot


def _forward_pilot(request: FitRequest) -> np.ndarray:
    """Forward-selected pilot coefficients for ``p >= n`` (module docstring)."""
    X, Y = request.data.X, request.data.Y
    n, p = X.shape
    taus = request.levels.taus
    V = float(np.sum(np.minimum.outer(taus, taus) - np.outer(taus, taus)))
    prob = prepare(request.data, request.levels)      # the candidates
    Xc = prob.X - prob.X.mean(axis=0)
    scale = np.sqrt(V * np.einsum("ij,ij->j", Xc, Xc))
    threshold = -NormalDist().inv_cdf(0.05 / p)
    selected, coefficients, stat = [], np.zeros(0), np.zeros(p)
    intercepts = np.array([sample_quantile(Y, tau) for tau in taus])
    # the cap keeps every refit well overdetermined
    while len(selected) < n // 2:
        R = (Y - X[:, selected] @ coefficients)[:, None] - intercepts[None, :]
        psi = np.sum(taus[None, :] - (R < 0.0), axis=1)
        stat[prob.cols] = np.abs(Xc.T @ psi) / scale
        stat[selected] = 0.0
        j = int(np.argmax(stat))
        if stat[j] <= threshold:
            break
        selected.append(j)
        refit = _pilot_fit(request, Dataset(X[:, selected], Y))
        intercepts, coefficients = refit.intercepts, refit.coefficients
    pilot = np.zeros(p)
    pilot[selected] = coefficients
    return pilot


def pilot(request: FitRequest) -> np.ndarray:
    """Pilot coefficients of a request: the forward selection at ``p >= n``,
    else the unregularized ``pilot_algorithm`` fit.

    Raises ``ConvergenceError`` naming the pilot stage when a pilot fit does
    not converge.
    """
    if request.data.p >= request.data.n:
        return _forward_pilot(request)
    return _pilot_fit(request, request.data).coefficients


_pilot_stage = pilot            # ``fit``'s keyword shadows the name


def fit(request: FitRequest, pilot: np.ndarray | None = None) -> FitResult:
    """Run a fit request, including the pilot stage when regularized.

    A regularized request takes ``pilot`` as its pilot coefficients when it
    is given, instead of fitting them; an unregularized one rejects it.
    """
    fitter = _solver(request.algorithm)
    if not request.regularized:
        if pilot is not None:
            raise ValueError("pilot given but the request is not regularized")
        return fitter(request.data, request.levels, None, request.options)

    if pilot is None:
        pilot = _pilot_stage(request)
    penalty = PenaltySpec.adaptive_lasso(request.lam, pilot)
    result = fitter(request.data, request.levels, penalty, request.options)
    result.diagnostics["pilot"] = penalty.pilot.copy()
    return result
