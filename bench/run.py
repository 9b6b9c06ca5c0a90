"""cqrkit benchmark: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (README.md): ``cli-csv`` and
``sim-select``.  A run repeats whole rounds, one
dataset through all four solvers, until ``--seconds`` of rounds are
measured, then checks every fit against references computed apart from
cqrkit (``reference.py``).  The last line of stdout is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the environment, sample counts and check figures.

``--trace 0`` reports the end-to-end metrics, timed with no tracing.
``--trace 1`` runs every round twice on the same inputs, traced and not,
in alternating order, and reports the per-layer metrics of the traced
copies and the tracing overhead.
"""

import os

# BLAS threads are pinned before anything imports numpy, here and in the
# set-up children, which inherit the environment.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli-csv", "sim-select")
SETUP_SAMPLES = 5
END_TO_END_UNITS = {"setup_s": "s", "admm_ms": "ms", "mm_ms": "ms",
                    "cd_ms": "ms", "ip_ms": "ms", "reps_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def measure_setup():
    """Seconds for a fresh interpreter to ``import cqrkit.cli``: the median
    of ``SETUP_SAMPLES`` imports (the first run in a checkout also writes
    bytecode caches in its first sample)."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    command = [sys.executable, "-c", "import cqrkit.cli"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), samples


def quartiles(values):
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cqrkit" / "__init__.py").is_file():
        print(f"bench: no cqrkit sources under {SRC}", file=sys.stderr)
        return 2

    # timed before this process imports numpy or scipy
    setup_s, setup_samples = (0.0, []) if args.trace else measure_setup()

    sys.path[:0] = [str(SRC), str(HERE)]
    from reference import check_fits, check_reference
    from tracing import LAYER_UNITS, layer_metrics
    from workloads import ALGORITHMS, make_workload, timed_phase

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        rounds, traced_rounds, tracer = timed_phase(workload, args.seconds,
                                                    bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # ru_maxrss is in KiB on Linux; read before any check allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fits = [fit for x in rounds + traced_rounds for fit in x.fits]
    check_start = time.perf_counter()
    gaps = {}
    errors = workload.errors + check_reference(args.seed)
    errors += check_fits(workload.problem, fits, gaps)
    for plain, traced in zip(rounds, traced_rounds):
        if [f.objective for f in plain.fits] != \
                [f.objective for f in traced.fits]:
            errors.append(f"round {plain.fits[0].round}: tracing changed "
                          f"a result")

    check_s = time.perf_counter() - check_start
    samples = {tag: [x.latencies[tag] * 1e3 for x in rounds
                     if tag in x.latencies] for tag in ALGORITHMS}
    wall = sum(x.wall for x in rounds)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "rounds": len(rounds), "measured_s": wall,
        "samples_per_solver": {t: len(v) for t, v in samples.items()},
        "latency_ms_quartiles": {t: quartiles(v) for t, v in samples.items()},
        "setup_samples_s": setup_samples,
        "max_relative_gap": {k: max(v) for k, v in gaps.items()},
        "check_s": check_s,
        "errors": errors[:20],
    }
    if args.trace:
        values = layer_metrics(tracer.spans)
        traced_wall = sum(x.wall for x in traced_rounds)
        values["trace.overhead_pct"] = 100.0 * (traced_wall - wall) / wall
        units = LAYER_UNITS
    else:
        values = {f"{t}_ms": statistics.median(v) if v else float("nan")
                  for t, v in samples.items()}
        values.update(setup_s=setup_s, reps_per_s=len(rounds) / wall,
                      peak_rss_mb=peak_rss_mb)
        units = END_TO_END_UNITS
    attempted = sum(x.attempted for x in rounds + traced_rounds)
    failed = sum(x.failed for x in rounds + traced_rounds)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
