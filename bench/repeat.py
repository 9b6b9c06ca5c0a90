"""Repeat one workload over consecutive seeds and summarise each metric.

    python3 bench/repeat.py --workload NAME [--first-seed 1] [--trace 0|1]

Runs ``bench/run.py`` for ``RUNS`` consecutive seeds, each for
``BENCHMARK.json``'s ``run_seconds``, one process at a time, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread ``(q3 - q1) / median`` beside the metric's bound from
``BENCHMARK.json``; ``ok`` marks a spread under a third of the bound.  The
raw results go to ``.bench_out/repeat-<workload>-trace<t>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results, infos = [], []
    for seed in range(args.first_seed, args.first_seed + RUNS):
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, check=True)
        *_, info, last = done.stdout.strip().splitlines()
        result = json.loads(last)
        results.append(result)
        infos.append(json.loads(info)["info"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"repeat-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"results": results, "info": infos}, indent=1))

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"\n{args.workload}, {RUNS} runs of {spec['run_seconds']} s, "
          f"trace {args.trace}")
    print(f"{'metric':24}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median) if median else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            "  ok" if spread < bound / 3 else "  WIDE")
        print(f"{name:24}{median:12.5g}{q1:12.5g}{q3:12.5g}{spread:9.3f}"
              f"{'' if bound is None else bound:>8}{verdict}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}; "
          f"all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
