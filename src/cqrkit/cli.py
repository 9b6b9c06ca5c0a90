"""Command-line surface.

Two subcommands: ``fit`` runs one of the four solvers on a CSV table and
emits a result document; ``simulate`` runs a preset synthetic experiment
and writes a report file.  Exit codes: 0 success, 1 input error, 2
non-convergence (fit documents are still emitted with converged=false),
64 usage error.  stdout carries only the document; diagnostics go to
stderr.  The ``CQR_SEED`` environment variable overrides ``--seed``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import ConvergenceError, QuantileLevels, SolverOptions
from .io import (
    OPTION_NAMES,
    CsvParseError,
    ResultDocument,
    read_csv,
    report_to_csv,
    report_to_json,
)
from .pipeline import SOLVERS, FitRequest, _solver, fit
from .simlab import SimConfig, run_experiment

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_USAGE = 64

# preset -> (levels factory, default reps, default support, regularized,
# pilot algorithm).  Regularized presets pin the pilot solver to ADMM, the
# solver behind the acceptance criteria's selection counts.  At p >= n the
# pilot is a forward-selected refit (see pipeline); at p < n it is the full
# unregularized fit.
PRESETS = {
    "qr-noreg": (lambda: QuantileLevels.single(0.3), 50, None, False, None),
    "cqr-noreg": (lambda: QuantileLevels.grid(9), 50, None, False, None),
    "qr-reg": (lambda: QuantileLevels.single(0.3), 25, 4, True, "admm"),
    "cqr-reg": (lambda: QuantileLevels.grid(9), 25, 4, True, "admm"),
}


def _log(message: str) -> None:
    print(message, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 64, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tau_list(text: str):
    try:
        return QuantileLevels(sorted(float(part) for part in text.split(",")
                                     if part.strip()))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _algorithm_list(text: str):
    tags = tuple(part.strip() for part in text.split(",") if part.strip())
    try:
        for tag in tags:
            _solver(tag)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not tags:
        raise argparse.ArgumentTypeError("at least one algorithm required")
    return tags


def _positive(text: str):
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a positive real: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cqrkit",
                     description="Quantile and composite quantile regression.")
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    fit_cmd = commands.add_parser(
        "fit", help="fit a model to a CSV table")
    fit_cmd.add_argument("--input", required=True, help="CSV file, one header row")
    fit_cmd.add_argument("--response", required=True,
                         help="response column name (or 0-based index)")
    fit_cmd.add_argument("--tau", required=True, type=_tau_list,
                         help="comma-separated quantile levels in (0, 1)")
    fit_cmd.add_argument("--algorithm", required=True,
                         choices=sorted(SOLVERS))
    fit_cmd.add_argument("--lambda", dest="lam", type=_positive, default=None,
                         help="adaptive-lasso penalty level (two-stage fit)")
    fit_cmd.add_argument("--max-iter", type=int, default=None)
    fit_cmd.add_argument("--tol", type=_positive, default=None)
    fit_cmd.add_argument("--rho", type=_positive, default=None,
                         help="ADMM step parameter")
    fit_cmd.add_argument("--eps-mm", type=_positive, default=None,
                         help="MM smoothing parameter")
    fit_cmd.add_argument("--output", default=None,
                         help="write the document here instead of stdout")
    fit_cmd.add_argument("--format", choices=("json", "csv"), default="json")

    sim_cmd = commands.add_parser(
        "simulate", help="run a synthetic replication experiment")
    sim_cmd.add_argument("--preset", required=True, choices=sorted(PRESETS))
    sim_cmd.add_argument("--n", required=True, type=int)
    sim_cmd.add_argument("--p", required=True, type=int)
    sim_cmd.add_argument("--support", type=int, default=None,
                         help="number of truly nonzero coefficients")
    sim_cmd.add_argument("--reps", type=int, default=None)
    sim_cmd.add_argument("--seed", type=int, default=None)
    sim_cmd.add_argument("--lambda", dest="lam", type=_positive, default=None)
    sim_cmd.add_argument("--algorithms", required=True, type=_algorithm_list,
                         help="comma-separated subset of admm,cd,ip,mm")
    sim_cmd.add_argument("--output", required=True)
    sim_cmd.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _emit(payload: str, output) -> None:
    if output is None:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w") as handle:
            handle.write(payload)


def cmd_fit(args) -> int:
    try:
        data = read_csv(args.input, args.response)
    except (OSError, CsvParseError, UnicodeDecodeError) as exc:
        _log(f"cqrkit fit: {exc}")
        return EXIT_INPUT

    overrides = {name: getattr(args, name) for name in OPTION_NAMES
                 if getattr(args, name) is not None}
    try:
        request = FitRequest(
            data=data,
            levels=args.tau,
            algorithm=args.algorithm,
            regularized=args.lam is not None,
            lam=args.lam,
            options=SolverOptions(**overrides),
        )
    except ValueError as exc:
        _log(f"cqrkit fit: {exc}")
        return EXIT_USAGE
    _log(f"cqrkit fit: n={data.n} p={data.p} levels={args.tau.K} "
         f"algorithm={args.algorithm}"
         + (f" lambda={args.lam}" if args.lam is not None else ""))
    try:
        result = fit(request)
    except ConvergenceError as exc:
        _log(f"cqrkit fit: {exc}")
        return EXIT_NOT_CONVERGED

    document = ResultDocument.from_fit(request, result)
    payload = document.to_json() if args.format == "json" else document.to_csv()
    try:
        _emit(payload, args.output)
    except OSError as exc:
        _log(f"cqrkit fit: {exc}")
        return EXIT_INPUT
    if not result.converged:
        reason = result.diagnostics.get("reason")
        _log(f"cqrkit fit: did not converge within {result.iterations} "
             f"iterations" + (f": {reason}" if reason else ""))
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_simulate(args) -> int:
    levels_factory, default_reps, default_support, regularized, pilot = \
        PRESETS[args.preset]
    seed = args.seed if args.seed is not None else 0
    env_seed = os.environ.get("CQR_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            _log(f"cqrkit simulate: CQR_SEED must be an integer, "
                 f"got {env_seed!r}")
            return EXIT_USAGE

    try:
        config = SimConfig(
            n=args.n,
            p=args.p,
            levels=levels_factory(),
            algorithms=args.algorithms,
            reps=args.reps if args.reps is not None else default_reps,
            base_seed=seed,
            true_support_size=(args.support if args.support is not None
                               else default_support),
            regularized=regularized,
            lam=args.lam,
            pilot_algorithm=pilot,
        )
    except ValueError as exc:
        _log(f"cqrkit simulate: {exc}")
        return EXIT_USAGE

    _log(f"cqrkit simulate: preset={args.preset} n={config.n} p={config.p} "
         f"reps={config.reps} seed={seed} "
         f"algorithms={','.join(config.algorithms)}"
         + (f" lambda={config.lam}" if config.regularized else ""))
    report = run_experiment(config)
    for row in report.rows:
        _log(f"cqrkit simulate: {row.algorithm}: mean_error={row.mean_error:.4g} "
             f"N_T={row.mean_N_T:.2f} N_F={row.mean_N_F:.2f} "
             f"failures={row.failures}")
    payload = (report_to_json(report) if args.format == "json"
               else report_to_csv(report))
    try:
        _emit(payload, args.output)
    except OSError as exc:
        _log(f"cqrkit simulate: {exc}")
        return EXIT_INPUT
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "fit":
        return cmd_fit(args)
    return cmd_simulate(args)


if __name__ == "__main__":
    sys.exit(main())
