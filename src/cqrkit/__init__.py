"""Quantile and composite quantile regression via four interchangeable solvers."""

from .admm import fit_admm
from .cd import fit_cd
from .core import (
    ConvergenceError,
    Dataset,
    FitResult,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    adaptive_weights,
    check_loss,
    objective,
    penalty_value,
    sample_quantile,
    soft_threshold,
    weighted_median,
)
from .io import ResultDocument, read_csv
from .ip import fit_ip
from .mm import fit_mm
from .pipeline import FitRequest, fit
from .simlab import (
    SimConfig,
    SimReport,
    SimRow,
    coefficient_error,
    generate_data,
    generate_truth,
    run_experiment,
    selection_counts,
)

__version__ = "0.1.0"
