"""Synthetic-data experiments: truth/data generation, error and selection
metrics, and a deterministic replication runner.

Each replication draws a fresh truth vector and dataset from seeds derived
only from ``(base_seed, rep index)``, fits every requested algorithm on the
same data, and the report rows carry per-algorithm means.  When the config
is regularized and no ``lam`` is given, the operating point
``K * sqrt(n * log p) / 32`` (``K`` quantile levels) is filled in and
recorded in the report metadata.

A regularized config with ``pilot_algorithm`` pinned fits the pilot once
per replicate and passes it to every algorithm's fit; a row's
``mean_seconds`` is still the cost of one whole two-stage fit, the pilot's
seconds plus the final stage's.  With ``pilot_algorithm=None`` each
algorithm fits its own pilot.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import ConvergenceError, Dataset, QuantileLevels
from .pipeline import FitRequest, _solver, fit, pilot

__all__ = [
    "SimConfig",
    "SimRow",
    "SimReport",
    "default_lambda",
    "generate_truth",
    "generate_data",
    "coefficient_error",
    "selection_counts",
    "run_experiment",
]


def default_lambda(n: int, p: int, n_levels: int = 1) -> float:
    """Penalty level used by regularized experiments when none is given.

    The rate follows the usual sqrt(n log p) scaling; the constant and the
    linear growth in the number of levels (the fidelity term is a sum over
    levels) were calibrated on sparse-recovery runs at (n, p) = (100, 200)
    and (200, 400) with 4 true predictors.  At ``p < 2`` the rate is not
    positive, so ``ValueError`` asks for an explicit ``lam``.
    """
    if p < 2:
        raise ValueError(f"no default lambda at p={p}: give lam explicitly")
    return n_levels * math.sqrt(n * math.log(p)) / 32.0


@dataclass
class SimConfig:
    n: int
    p: int
    levels: QuantileLevels
    algorithms: tuple
    reps: int = 50
    base_seed: int = 0
    true_support_size: int | None = None  # None = dense truth (all p)
    regularized: bool = False
    lam: float | None = None
    selection_threshold: float = 1e-3
    intercept: float = 1.0
    pilot_algorithm: str | None = None  # None = same solver as the final stage

    def __post_init__(self):
        if self.n < 1 or self.p < 0:
            raise ValueError("n must be positive and p nonnegative")
        if self.reps < 1:
            raise ValueError("reps must be positive")
        self.algorithms = tuple(self.algorithms)
        if not self.algorithms:
            raise ValueError("at least one algorithm required")
        for tag in self.algorithms:
            _solver(tag)
        if self.true_support_size is None:
            self.true_support_size = self.p
        if not 0 <= self.true_support_size <= self.p:
            raise ValueError("true_support_size must lie in [0, p]")
        if not self.selection_threshold >= 0:
            raise ValueError("selection_threshold must be nonnegative")
        if self.pilot_algorithm is not None:
            _solver(self.pilot_algorithm)
        if self.lam is not None and not self.regularized:
            raise ValueError("lam given but regularized is False")
        if self.regularized and self.lam is None:
            self.lam = default_lambda(self.n, self.p, self.levels.K)
        if self.lam is not None and not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be finite and positive")


@dataclass
class SimRow:
    n: int
    p: int
    algorithm: str
    mean_error: float
    mean_N_T: float
    mean_N_F: float
    mean_seconds: float
    reps: int
    failures: int = 0
    flagged: bool = False


@dataclass
class SimReport:
    rows: list
    metadata: dict = field(default_factory=dict)


def generate_truth(p: int, support_size: int, seed) -> np.ndarray:
    """Draw a coefficient vector.

    Dense mode (``support_size == p``): every entry Uniform[-1, 1].  Sparse
    mode: ``support_size`` positions chosen uniformly, magnitudes in
    [0.5, 1] with random sign (signals bounded away from zero), the rest
    exactly zero.
    """
    if not 0 <= support_size <= p:
        raise ValueError("support_size must lie in [0, p]")
    rng = np.random.default_rng(seed)
    if support_size == p:
        return rng.uniform(-1.0, 1.0, size=p)
    beta = np.zeros(p)
    if support_size > 0:
        positions = rng.choice(p, size=support_size, replace=False)
        magnitudes = rng.uniform(0.5, 1.0, size=support_size)
        signs = rng.choice([-1.0, 1.0], size=support_size)
        beta[positions] = signs * magnitudes
    return beta


def generate_data(n: int, p: int, true_beta, intercept: float, seed) -> Dataset:
    """Gaussian design, Gaussian noise: Y = intercept + X beta + eps."""
    true_beta = np.asarray(true_beta, dtype=float)
    if true_beta.shape != (p,):
        raise ValueError(f"true_beta has length {true_beta.size}, expected {p}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    eps = rng.standard_normal(n)
    return Dataset(X, intercept + X @ true_beta + eps)


def coefficient_error(estimate, truth) -> float:
    """Mean absolute coefficient deviation, (1/p) sum |est_j - true_j|."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth have different lengths")
    return float(np.mean(np.abs(estimate - truth)))


def selection_counts(estimate, truth, threshold) -> tuple:
    """(N_T, N_F): counts of true and spurious predictors selected."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth have different lengths")
    selected = np.abs(estimate) > threshold
    n_true = int(np.count_nonzero(selected & (truth != 0.0)))
    n_false = int(np.count_nonzero(selected & (truth == 0.0)))
    return n_true, n_false


def _rep_seeds(base_seed: int, rep: int):
    # nonnegative entropy words; truth and data get disjoint streams
    ent = (base_seed + rep) % (2 ** 63)
    return np.random.SeedSequence([ent, 0]), np.random.SeedSequence([ent, 1])


def run_experiment(config: SimConfig, on_fit=None) -> SimReport:
    """Run every (rep, algorithm) cell and aggregate per-algorithm means.

    ``on_fit(algorithm, rep, request, result)`` is called after each
    successful fit; audits and instrumentation hang off this hook.  A fit
    that raises ``ConvergenceError`` or comes back non-converged counts as
    a failure for its row; rows failing more than 20% of reps are flagged.
    A shared pilot (module docstring) that raises ``ConvergenceError``
    counts one failure for every algorithm of the replicate.
    """
    acc = {tag: {"error": [], "nt": [], "nf": [], "seconds": [], "failures": 0}
           for tag in config.algorithms}
    share = config.regularized and config.pilot_algorithm is not None
    for rep in range(config.reps):
        truth_seed, data_seed = _rep_seeds(config.base_seed, rep)
        truth = generate_truth(config.p, config.true_support_size, truth_seed)
        data = generate_data(config.n, config.p, truth, config.intercept,
                             data_seed)
        requests = [FitRequest(data, config.levels, tag, config.regularized,
                               config.lam,
                               pilot_algorithm=config.pilot_algorithm)
                    for tag in config.algorithms]
        shared, pilot_seconds = None, 0.0
        if share:
            start = time.perf_counter()
            try:
                shared = pilot(requests[0])
            except ConvergenceError:
                for tag in config.algorithms:
                    acc[tag]["failures"] += 1
                continue
            pilot_seconds = time.perf_counter() - start
        for tag, request in zip(config.algorithms, requests):
            start = time.perf_counter()
            try:
                result = (fit(request) if shared is None
                          else fit(request, pilot=shared))
            except ConvergenceError:
                acc[tag]["failures"] += 1
                continue
            elapsed = pilot_seconds + (time.perf_counter() - start)
            if not result.converged:
                acc[tag]["failures"] += 1
                continue
            if on_fit is not None:
                on_fit(tag, rep, request, result)
            n_true, n_false = selection_counts(
                result.coefficients, truth, config.selection_threshold)
            acc[tag]["error"].append(coefficient_error(result.coefficients,
                                                       truth))
            acc[tag]["nt"].append(n_true)
            acc[tag]["nf"].append(n_false)
            acc[tag]["seconds"].append(elapsed)

    rows = []
    for tag in config.algorithms:
        cell = acc[tag]
        ok = len(cell["error"])
        rows.append(SimRow(
            n=config.n,
            p=config.p,
            algorithm=tag,
            mean_error=float(np.mean(cell["error"])) if ok else float("nan"),
            mean_N_T=float(np.mean(cell["nt"])) if ok else float("nan"),
            mean_N_F=float(np.mean(cell["nf"])) if ok else float("nan"),
            mean_seconds=float(np.mean(cell["seconds"])) if ok else float("nan"),
            reps=config.reps,
            failures=cell["failures"],
            flagged=cell["failures"] > 0.2 * config.reps,
        ))
    metadata = {
        "lambda": config.lam,
        "pilot_algorithm": config.pilot_algorithm,
        "regularized": config.regularized,
        "selection_threshold": config.selection_threshold,
        "base_seed": config.base_seed,
        "intercept": config.intercept,
        "taus": [float(t) for t in config.levels.taus],
        "true_support_size": config.true_support_size,
    }
    return SimReport(rows=rows, metadata=metadata)
