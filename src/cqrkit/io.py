"""File formats: CSV ingestion, fit result documents, simulation report
serialization.

Documents serialize to JSON losslessly (floats go through ``repr``-exact
round-trips) and reports additionally render as CSV with the fixed column
order ``n,p,algorithm,mean_error,mean_N_T,mean_N_F,mean_seconds,reps``
(plus bookkeeping columns), with metadata carried on ``#``-prefixed
comment lines so a report file parses back to the structure that wrote it.
"""

from __future__ import annotations

import csv
import io as _stringio
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import Dataset
from .simlab import SimReport, SimRow

__all__ = [
    "SCHEMA_VERSION",
    "OPTION_NAMES",
    "CsvParseError",
    "read_csv",
    "ResultDocument",
    "report_to_json",
    "report_from_json",
    "report_to_csv",
    "report_from_csv",
]

SCHEMA_VERSION = "1"
#: the ``SolverOptions`` a fit document records, each a ``cqrkit fit`` flag
OPTION_NAMES = ("max_iter", "tol", "rho", "eps_mm")


class CsvParseError(ValueError):
    """Malformed input table; the message names the offending row/column."""


def _parse_cell(cell: str, row: int, column: str) -> float:
    text = cell.strip()
    if not text:
        raise CsvParseError(f"row {row}, column {column!r}: blank cell")
    try:
        value = float(text)  # period decimals only; float() is locale-free
    except ValueError:
        raise CsvParseError(
            f"row {row}, column {column!r}: not numeric: {cell!r}") from None
    if not math.isfinite(value):
        raise CsvParseError(f"row {row}, column {column!r}: not finite: {cell!r}")
    return value


def read_csv(path, response_column) -> Dataset:
    """Load a rectangular numeric table with one header row.

    ``response_column`` selects Y by header name, or by 0-based position
    when it is an integer (or a string of digits that matches no header).
    Every remaining column becomes a covariate, in header order.  A UTF-8
    byte-order mark, as spreadsheets write one, is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError("empty file: no header row") from None
        header = [name.strip() for name in header]
        if response_column in header:
            index = header.index(response_column)
        elif str(response_column).lstrip("-").isdigit():
            index = int(response_column)
            if not 0 <= index < len(header):
                raise CsvParseError(
                    f"response column index {index} out of range; "
                    f"file has {len(header)} columns")
        else:
            raise CsvParseError(
                f"response column {response_column!r} not found; "
                f"columns: {', '.join(header)}")

        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue  # tolerate a trailing blank line
            if len(row) != len(header):
                raise CsvParseError(
                    f"row {lineno}: expected {len(header)} cells, "
                    f"found {len(row)}")
            rows.append([_parse_cell(cell, lineno, header[j])
                         for j, cell in enumerate(row)])

    if not rows:
        raise CsvParseError("no data rows after the header")
    table = np.asarray(rows, dtype=float)
    Y = table[:, index]
    X = np.delete(table, index, axis=1)
    return Dataset(X, Y)


# ------------------------------------------------------------- fit documents

#: document fields whose JSON key differs from the field name
_JSON_KEYS = {"lam": "lambda"}


@dataclass
class ResultDocument:
    """Machine-readable record of one fit: the request echoed back plus
    the estimate.  ``pilot`` is present exactly when the fit was
    regularized."""

    algorithm: str
    taus: list
    lam: float | None
    options: dict
    intercepts: list
    coefficients: list
    iterations: int
    converged: bool
    objective: float
    pilot: list | None = None
    schema_version: str = SCHEMA_VERSION

    @classmethod
    def from_fit(cls, request, result) -> "ResultDocument":
        pilot = result.diagnostics.get("pilot")
        return cls(
            algorithm=request.algorithm,
            taus=[float(t) for t in request.levels.taus],
            lam=request.lam,
            options={name: getattr(request.options, name)
                     for name in OPTION_NAMES},
            intercepts=[float(b) for b in result.intercepts],
            coefficients=[float(b) for b in result.coefficients],
            iterations=int(result.iterations),
            converged=bool(result.converged),
            objective=float(result.objective),
            pilot=None if pilot is None else [float(b) for b in pilot],
        )

    def to_json(self) -> str:
        payload = {"schema_version": self.schema_version}
        payload.update((_JSON_KEYS.get(f.name, f.name), getattr(self, f.name))
                       for f in fields(self) if f.name != "schema_version")
        if self.pilot is None:
            del payload["pilot"]
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ResultDocument":
        payload = json.loads(text)
        return cls(pilot=payload.get("pilot"),
                   **{f.name: payload[_JSON_KEYS.get(f.name, f.name)]
                      for f in fields(cls) if f.name != "pilot"})

    def to_csv(self) -> str:
        """Flat ``field,index,value`` rendering (write-only convenience)."""
        out = _stringio.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["field", "index", "value"])
        writer.writerow(["schema_version", "", self.schema_version])
        writer.writerow(["algorithm", "", self.algorithm])
        for k, tau in enumerate(self.taus):
            writer.writerow(["tau", k, repr(tau)])
        writer.writerow(["lambda", "", "" if self.lam is None else repr(self.lam)])
        for name, value in self.options.items():
            writer.writerow(["option_" + name, "", repr(value)])
        for k, b in enumerate(self.intercepts):
            writer.writerow(["intercept", k, repr(b)])
        for j, b in enumerate(self.coefficients):
            writer.writerow(["coefficient", j, repr(b)])
        if self.pilot is not None:
            for j, b in enumerate(self.pilot):
                writer.writerow(["pilot", j, repr(b)])
        writer.writerow(["iterations", "", self.iterations])
        writer.writerow(["converged", "", str(self.converged).lower()])
        writer.writerow(["objective", "", repr(self.objective)])
        return out.getvalue()


# ---------------------------------------------------------------- sim reports

REPORT_COLUMNS = [f.name for f in fields(SimRow)]
# ``SimRow``'s annotations are strings (``from __future__ import annotations``)
_PARSE = {"int": int, "float": float, "str": str,
          "bool": lambda text: text == "true"}


def _report_cell(value):
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else value


def report_to_json(report: SimReport) -> str:
    return json.dumps({
        "schema_version": SCHEMA_VERSION,
        "metadata": report.metadata,
        "rows": [asdict(row) for row in report.rows],
    }, indent=2)


def report_from_json(text: str) -> SimReport:
    payload = json.loads(text)
    rows = [SimRow(**row) for row in payload["rows"]]
    return SimReport(rows=rows, metadata=payload["metadata"])


def report_to_csv(report: SimReport) -> str:
    out = _stringio.StringIO()
    for key, value in sorted(report.metadata.items()):
        out.write(f"# {key}={json.dumps(value)}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in report.rows:
        writer.writerow([_report_cell(getattr(row, name))
                         for name in REPORT_COLUMNS])
    return out.getvalue()


def report_from_csv(text: str) -> SimReport:
    metadata = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, raw = line[1:].strip().partition("=")
            metadata[key.strip()] = json.loads(raw)
        elif line.strip():
            lines.append(line)
    reader = csv.reader(lines)
    header = next(reader)
    if header != REPORT_COLUMNS:
        raise CsvParseError(
            f"unexpected report header: {','.join(header)}")
    rows = [SimRow(**{f.name: _PARSE[f.type](value)
                      for f, value in zip(fields(SimRow), record)})
            for record in reader]
    return SimReport(rows=rows, metadata=metadata)
