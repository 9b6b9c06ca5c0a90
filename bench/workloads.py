"""The two workloads and the timed loop that drives them.

A round is one dataset through all four solvers: four ``cqrkit fit``
commands on ``cli-csv``, one single-replicate ``run_experiment`` call on
``sim-select``.  Inputs are a function of the workload seed and the round
index only.  ``prepare`` makes a round's inputs and ``finish``
removes them; both are outside the measured time.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stderr

import numpy as np

from cqrkit import cli, simlab
from tracing import ALGORITHMS, Tracer, installed


class Fit:
    """What the checks need from one fit, copied out of the result."""

    def __init__(self, algorithm, round_, intercepts, coefficients,
                 objective, converged, pilot=None, lam=0.0,
                 pilot_algorithm=None):
        self.algorithm = algorithm
        self.round = round_
        self.intercepts = np.asarray(intercepts, dtype=float)
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.objective = float(objective)
        self.converged = bool(converged)
        self.pilot = None if pilot is None else np.asarray(pilot, dtype=float)
        self.lam = lam
        self.pilot_algorithm = pilot_algorithm


class Round:
    """One round's measurements: ``wall`` seconds of measured work,
    per-algorithm request latencies in seconds, and the fits made."""

    def __init__(self, wall, latencies, failed, fits):
        self.wall = wall
        self.latencies = latencies
        self.attempted = len(ALGORITHMS)
        self.failed = failed
        self.fits = fits


class CliCsv:
    """``cqrkit fit --tau 0.5`` with each algorithm on a fresh 2000x20 CSV."""

    n, p, tau = 2000, 20, 0.5

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.taus = np.array([self.tau])
        self.errors = []

    def problem(self, r):
        """``(X, y, taus)`` of round ``r``: Gaussian design and noise,
        uniform[-1, 1] slopes, intercept 1."""
        rng = np.random.default_rng([self.seed, r])
        beta = rng.uniform(-1.0, 1.0, self.p)
        X = rng.standard_normal((self.n, self.p))
        y = 1.0 + X @ beta + rng.standard_normal(self.n)
        return X, y, self.taus

    def _table(self, r):
        return self.workdir / f"table-{r}.csv"

    def prepare(self, r):
        X, y, _ = self.problem(r)
        lines = [",".join(["y"] + [f"x{j + 1}" for j in range(self.p)])]
        # repr round-trips every double, so the checks see the same data
        lines += [",".join(map(repr, row))
                  for row in np.column_stack([y, X]).tolist()]
        self._table(r).write_text("\n".join(lines) + "\n")

    def finish(self, r):
        self._table(r).unlink()

    def run(self, r, tracer=None):
        latencies, failed, wall, outputs = {}, 0, 0.0, []
        for tag in ALGORITHMS:
            output = self.workdir / f"fit-{r}-{tag}.json"
            argv = ["fit", "--input", str(self._table(r)), "--response", "y",
                    "--tau", repr(self.tau), "--algorithm", tag,
                    "--output", str(output)]
            log = io.StringIO()
            with redirect_stderr(log):
                start = time.perf_counter()
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call("cli.main", cli.main, argv)[1]
                elapsed = time.perf_counter() - start
            wall += elapsed
            if code != 0:
                failed += 1
                self.errors.append(f"round {r} {tag}: exit {code}: "
                                   f"{log.getvalue().strip()}")
                continue
            latencies[tag] = elapsed
            outputs.append((tag, output))
        return Round(wall, latencies, failed, self._read(r, outputs))

    def _read(self, r, outputs):
        fits = []
        for tag, path in outputs:
            try:
                doc = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                self.errors.append(f"round {r} {tag}: no readable "
                                   f"document: {exc}")
                continue
            finally:
                path.unlink(missing_ok=True)
            if doc.get("algorithm") != tag:
                self.errors.append(f"round {r} {tag}: document names "
                                   f"{doc.get('algorithm')!r}")
            fits.append(Fit(tag, r, doc["intercepts"], doc["coefficients"],
                            doc["objective"], doc["converged"]))
        return fits


class Simulation:
    """``run_experiment`` on a ``cqrkit simulate`` preset, one replicate
    per round, all four algorithms."""

    def __init__(self, seed, preset, n, p):
        levels_factory, _, support, regularized, pilot = cli.PRESETS[preset]
        self.seed = seed
        self.levels = levels_factory()
        self.n, self.p = n, p
        self.support = support
        self.regularized = regularized
        self.pilot_algorithm = pilot
        self.errors = []
        self._responses = {}    # round -> Y as fitted, to verify regeneration

    def _config(self, r):
        return simlab.SimConfig(
            n=self.n, p=self.p, levels=self.levels, algorithms=ALGORITHMS,
            reps=1, base_seed=self.seed * 1_000_000 + r,
            true_support_size=self.support, regularized=self.regularized,
            pilot_algorithm=self.pilot_algorithm)

    def prepare(self, r):
        self.config = self._config(r)

    def finish(self, r):
        pass

    def run(self, r, tracer=None):
        stamps, seen = [], []

        def on_fit(tag, rep, request, result):
            stamps.append(time.perf_counter())
            seen.append((tag, request, result))

        start = time.perf_counter()
        if tracer is None:
            report = simlab.run_experiment(self.config, on_fit=on_fit)
        else:
            report = tracer.call("run_experiment", simlab.run_experiment,
                                 self.config, on_fit=on_fit)[1]
        wall = time.perf_counter() - start
        failed = sum(row.failures for row in report.rows)
        latencies = {}
        if failed:
            self.errors.append(f"round {r}: {failed} fits failed")
        else:   # the interval that ends in an on_fit call is one request
            edges = [start] + stamps
            latencies = {tag: edges[i + 1] - edges[i]
                         for i, (tag, _, _) in enumerate(seen)}
        fits = [Fit(tag, r, result.intercepts, result.coefficients,
                    result.objective, result.converged,
                    result.diagnostics.get("pilot"), request.lam or 0.0,
                    request.pilot_algorithm)
                for tag, request, result in seen]
        if seen:
            self._responses[r] = seen[0][1].data.Y.copy()
        return Round(wall, latencies, failed, fits)

    def problem(self, r):
        """``(X, y, taus)`` of round ``r``, regenerated from the replicate's
        seeds rather than kept, so that memory does not grow with the
        number of rounds."""
        config = self._config(r)
        truth_seed, data_seed = simlab._rep_seeds(config.base_seed, 0)
        truth = simlab.generate_truth(config.p, config.true_support_size,
                                      truth_seed)
        data = simlab.generate_data(config.n, config.p, truth,
                                    config.intercept, data_seed)
        if not np.array_equal(data.Y, self._responses[r]):
            raise RuntimeError(f"round {r}: regenerated data differ from "
                               f"the data run_experiment fitted")
        return data.X, data.Y, self.levels.taus


def make_workload(name, seed, workdir):
    if name == "cli-csv":
        return CliCsv(seed, workdir)
    if name == "sim-select":
        return Simulation(seed, "qr-reg", 200, 400)
    raise ValueError(f"unknown workload {name!r}")


def timed_phase(workload, seconds, traced):
    """Whole rounds until ``seconds`` of them are measured.

    Returns ``(rounds, traced_rounds, tracer)``.  With ``traced`` every
    round runs twice on the same inputs, untraced first on even rounds and
    traced first on odd ones; ``rounds`` holds the untraced copies.
    """
    rounds, traced_rounds, spent, r = [], [], 0.0, 0
    tracer = Tracer() if traced else None
    while spent < seconds:
        workload.prepare(r)
        plain_first = not traced or r % 2 == 0
        if plain_first:
            rounds.append(workload.run(r))
        if traced:
            with installed(tracer):
                traced_rounds.append(workload.run(r, tracer))
        if not plain_first:
            rounds.append(workload.run(r))
        workload.finish(r)
        spent += rounds[-1].wall + (traced_rounds[-1].wall if traced else 0)
        r += 1
    return rounds, traced_rounds, tracer
