"""Spans recorded around the public functions each cqrkit layer exposes.

Nothing inside ``src/`` is instrumented.  ``installed`` swaps the names a
calling layer looks up at call time for wrappers that record a span, and
puts the originals back on exit:

* the four entries of ``pipeline.SOLVERS`` (``pipeline.fit`` looks its
  solver up there on every call, pilot refits included);
* ``simlab.fit`` and ``cli.fit``, the names through which
  ``run_experiment`` and ``cli.main`` reach ``pipeline.fit``;
* ``cli.read_csv`` and ``cli.ResultDocument`` (``from_fit`` and
  ``to_json``), the io functions ``cli.main`` calls;
* ``simlab.generate_truth`` and ``simlab.generate_data``.

``cli.main`` and ``run_experiment`` themselves are spanned by the caller,
through ``Tracer.call``.  A span records its name, start, end and the
span that caused it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

ALGORITHMS = ("admm", "mm", "cd", "ip")

# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "io.read_csv_ms": "ms",
    "io.document_ms": "ms",
    "cli.self_ms": "ms",
    "pipeline.pilot_ms": "ms",
    "pipeline.pilot_solves": "count",
    "pipeline.select_ms": "ms",
    "pipeline.final_ms": "ms",
    "admm.solve_ms": "ms",
    "admm.iters": "count",
    "admm.ms_per_iter": "ms",
    "admm.inner_sweeps": "count",
    "ip.solve_ms": "ms",
    "ip.iters": "count",
    "ip.ms_per_iter": "ms",
    "cd.solve_ms": "ms",
    "cd.iters": "count",
    "cd.polish_pivots": "count",
    "mm.solve_ms": "ms",
    "mm.iters": "count",
    "simlab.generate_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; returns ``(span, result)``."""
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1]["id"] if self._open else None}
        self.spans.append(span)
        self._open.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        return span, result

    def wrap(self, name, fn, annotate=None):
        """``fn`` recording a span per call; ``annotate(args, kwargs,
        result)`` returns counts to store on the span."""
        def traced(*args, **kwargs):
            span, result = self.call(name, fn, *args, **kwargs)
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            return result
        return traced


def _solver_counts(args, kwargs, result):
    penalty = args[2] if len(args) > 2 else kwargs.get("penalty")
    diagnostics = result.diagnostics
    return {
        "iters": int(result.iterations),
        "penalized": bool(penalty is not None and penalty.regularized),
        "inner_sweeps": int(diagnostics.get("inner_sweeps", 0)),
        "polish_pivots": int(diagnostics.get("polish", {}).get("pivots", 0)),
    }


def _fit_counts(args, kwargs, result):
    request = args[0] if args else kwargs["request"]
    return {"regularized": bool(request.regularized)}


@contextmanager
def installed(tracer):
    """Route cqrkit's layer boundaries through ``tracer`` for the block."""
    from cqrkit import cli, pipeline, simlab

    class TracedDocument(cli.ResultDocument):
        @classmethod
        def from_fit(cls, request, result):
            return tracer.call("io.document", super().from_fit,
                               request, result)[1]

        def to_json(self):
            return tracer.call("io.document", super().to_json)[1]

    solvers = dict(pipeline.SOLVERS)
    names = [
        (simlab, "fit", tracer.wrap("pipeline.fit", simlab.fit, _fit_counts)),
        (cli, "fit", tracer.wrap("pipeline.fit", cli.fit, _fit_counts)),
        (cli, "read_csv", tracer.wrap("io.read_csv", cli.read_csv)),
        (cli, "ResultDocument", TracedDocument),
        (simlab, "generate_truth",
         tracer.wrap("simlab.generate", simlab.generate_truth)),
        (simlab, "generate_data",
         tracer.wrap("simlab.generate", simlab.generate_data)),
    ]
    originals = [(module, name, getattr(module, name))
                 for module, name, _ in names]
    try:
        for tag, solver in solvers.items():
            pipeline.SOLVERS[tag] = tracer.wrap(f"{tag}.solve", solver,
                                                _solver_counts)
        for module, name, wrapper in names:
            setattr(module, name, wrapper)
        yield tracer
    finally:
        pipeline.SOLVERS.update(solvers)
        for module, name, original in originals:
            setattr(module, name, original)


def _ms(span):
    return (span["end"] - span["start"]) * 1e3


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans):
    """Per-layer metrics (``LAYER_UNITS`` minus the overhead) from spans.

    Times are medians per call, per request or per replicate as named in
    the README; a layer the workload never enters reads 0.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def child_ms(span, name):
        return sum(_ms(c) for c in children[span["id"]] if c["name"] == name)

    m = {}
    mains = by_name["cli.main"]
    m["io.read_csv_ms"] = _median([_ms(s) for s in by_name["io.read_csv"]])
    m["io.document_ms"] = _median([child_ms(s, "io.document") for s in mains])
    m["cli.self_ms"] = _median(
        [_ms(s) - sum(_ms(c) for c in children[s["id"]]) for s in mains])

    pilot, solves, select, final = [], [], [], []
    for fit in by_name["pipeline.fit"]:
        if not fit["regularized"]:
            continue
        calls = [c for c in children[fit["id"]] if c["name"].endswith(".solve")]
        finals = [c for c in calls if c["penalized"]]
        pilots = [c for c in calls if not c["penalized"]]
        stage = ((finals[0]["start"] - fit["start"]) * 1e3 if finals
                 else _ms(fit))
        pilot.append(stage)
        solves.append(len(pilots))
        select.append(stage - sum(_ms(c) for c in pilots))
        final.append(sum(_ms(c) for c in finals))
    m["pipeline.pilot_ms"] = _median(pilot)
    m["pipeline.pilot_solves"] = _median(solves)
    m["pipeline.select_ms"] = _median(select)
    m["pipeline.final_ms"] = _median(final)

    for tag in ALGORITHMS:
        calls = by_name[f"{tag}.solve"]
        m[f"{tag}.solve_ms"] = _median([_ms(c) for c in calls])
        m[f"{tag}.iters"] = _median([c["iters"] for c in calls])
        if tag in ("admm", "ip"):
            iters = sum(c["iters"] for c in calls)
            m[f"{tag}.ms_per_iter"] = (sum(_ms(c) for c in calls) / iters
                                       if iters else 0.0)
    m["admm.inner_sweeps"] = _median(
        [c["inner_sweeps"] for c in by_name["admm.solve"] if c["penalized"]])
    m["cd.polish_pivots"] = _median(
        [c["polish_pivots"] for c in by_name["cd.solve"]])
    m["simlab.generate_ms"] = _median(
        [child_ms(s, "simlab.generate") for s in by_name["run_experiment"]])
    return m
