"""CSV ingestion and document/report serialization tests."""

import numpy as np
import pytest

from cqrkit import Dataset, QuantileLevels, SolverOptions
from cqrkit.io import (
    CsvParseError,
    ResultDocument,
    read_csv,
    report_from_csv,
    report_from_json,
    report_to_csv,
    report_to_json,
)
from cqrkit.pipeline import FitRequest, fit
from cqrkit.simlab import SimReport, SimRow


def _write(tmp_path, text, name="table.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ----------------------------------------------------------------- read_csv

def test_response_by_name(tmp_path):
    path = _write(tmp_path, "a,y,b\n1,10,2\n3,20,4\n5,30,6\n")
    data = read_csv(path, "y")
    assert (data.n, data.p) == (3, 2)
    assert data.Y.flags.c_contiguous and data.X.flags.c_contiguous
    np.testing.assert_array_equal(data.Y, [10.0, 20.0, 30.0])
    np.testing.assert_array_equal(data.X, [[1, 2], [3, 4], [5, 6]])


def test_response_by_index_zero(tmp_path):
    path = _write(tmp_path, "y,a\n1,2\n3,4\n")
    data = read_csv(path, 0)
    np.testing.assert_array_equal(data.Y, [1.0, 3.0])
    np.testing.assert_array_equal(data.X, [[2.0], [4.0]])


def test_numeric_string_falls_back_to_index(tmp_path):
    # no header is named "0", so the string selects by position
    path = _write(tmp_path, "y,a\n1,2\n")
    data = read_csv(path, "0")
    np.testing.assert_array_equal(data.Y, [1.0])


def test_covariates_keep_header_order(tmp_path):
    path = _write(tmp_path, "c,y,a\n7,1,9\n")
    data = read_csv(path, "y")
    np.testing.assert_array_equal(data.X[0], [7.0, 9.0])


def test_utf8_byte_order_mark_is_skipped(tmp_path):
    # spreadsheets export "CSV UTF-8" with a byte-order mark
    path = tmp_path / "table.csv"
    path.write_text("y,x1\n1,2\n3,4\n", encoding="utf-8-sig")
    data = read_csv(path, "y")
    np.testing.assert_array_equal(data.Y, [1.0, 3.0])
    np.testing.assert_array_equal(data.X, [[2.0], [4.0]])


def test_blank_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path, "a,y\n1,2\n,3\n")
    with pytest.raises(CsvParseError, match=r"row 3, column 'a'"):
        read_csv(path, "y")


def test_non_numeric_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path, "a,y\n1,2\n3,oops\n")
    with pytest.raises(CsvParseError, match=r"row 3, column 'y'.*oops"):
        read_csv(path, "y")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_cell_names_row_and_column(tmp_path, cell):
    path = _write(tmp_path, f"a,y\n1,2\n{cell},3\n")
    with pytest.raises(CsvParseError, match=r"row 3, column 'a'.*not finite"):
        read_csv(path, "y")


def test_ragged_row_names_row(tmp_path):
    path = _write(tmp_path, "a,y\n1,2\n3\n")
    with pytest.raises(CsvParseError, match="row 3"):
        read_csv(path, "y")


def test_missing_response_column_lists_choices(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(CsvParseError, match="'z' not found.*a, b"):
        read_csv(path, "z")


def test_response_index_out_of_range(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(CsvParseError, match="out of range"):
        read_csv(path, 5)


def test_comma_decimal_rejected(tmp_path):
    path = _write(tmp_path, "a,y\n\"1,5\",2\n")
    with pytest.raises(CsvParseError, match="not numeric"):
        read_csv(path, "y")


def test_empty_and_headerless_files_rejected(tmp_path):
    with pytest.raises(CsvParseError, match="empty"):
        read_csv(_write(tmp_path, ""), "y")
    with pytest.raises(CsvParseError, match="no data rows"):
        read_csv(_write(tmp_path, "a,y\n"), "y")


def test_trailing_newline_tolerated(tmp_path):
    path = _write(tmp_path, "a,y\n1,2\n\n")
    assert read_csv(path, "y").n == 1


# ------------------------------------------------------------ fit documents

def _document(regularized=False):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 2))
    data = Dataset(X, 1.0 + X @ np.array([0.8, -0.3]) + 0.2 * rng.normal(size=30))
    request = FitRequest(data, QuantileLevels.grid(3), algorithm="cd",
                         regularized=regularized,
                         lam=0.4 if regularized else None)
    return ResultDocument.from_fit(request, fit(request))


def test_document_echoes_request():
    doc = _document(regularized=True)
    assert doc.algorithm == "cd"
    assert doc.taus == [0.25, 0.5, 0.75]
    assert doc.lam == 0.4
    assert doc.options["max_iter"] == SolverOptions().max_iter
    assert len(doc.intercepts) == 3
    assert len(doc.coefficients) == 2
    assert doc.pilot is not None and len(doc.pilot) == 2


def test_unregularized_document_has_no_pilot():
    doc = _document(regularized=False)
    assert doc.pilot is None
    assert doc.lam is None


def test_document_json_roundtrip_lossless():
    for regularized in (False, True):
        doc = _document(regularized)
        again = ResultDocument.from_json(doc.to_json())
        assert again == doc  # exact: repr-based float serialization


def test_document_csv_rendering_has_all_fields():
    text = _document(regularized=True).to_csv()
    lines = text.splitlines()
    assert lines[0] == "field,index,value"
    fields = {line.split(",")[0] for line in lines[1:]}
    assert {"schema_version", "algorithm", "tau", "lambda", "intercept",
            "coefficient", "pilot", "iterations", "converged",
            "objective"} <= fields


# -------------------------------------------------------------- sim reports

def _report():
    rows = [
        SimRow(n=200, p=5, algorithm="cd", mean_error=0.0361234567891234,
               mean_N_T=5.0, mean_N_F=0.0, mean_seconds=0.0123, reps=50),
        SimRow(n=200, p=5, algorithm="ip", mean_error=1 / 3, mean_N_T=4.96,
               mean_N_F=0.04, mean_seconds=0.2, reps=50, failures=1,
               flagged=False),
    ]
    return SimReport(rows=rows, metadata={"lambda": None, "base_seed": 7,
                                          "taus": [0.3],
                                          "regularized": False})


def test_report_json_roundtrip():
    report = _report()
    again = report_from_json(report_to_json(report))
    assert again.rows == report.rows
    assert again.metadata == report.metadata


def test_report_csv_column_order():
    text = report_to_csv(_report())
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header.startswith("n,p,algorithm,mean_error,mean_N_T,mean_N_F,"
                             "mean_seconds,reps")


def test_report_csv_roundtrip_to_1e12():
    report = _report()
    again = report_from_csv(report_to_csv(report))
    assert again.metadata == report.metadata
    for a, b in zip(again.rows, report.rows):
        assert (a.n, a.p, a.algorithm, a.reps, a.failures, a.flagged) == \
            (b.n, b.p, b.algorithm, b.reps, b.failures, b.flagged)
        assert a.mean_error == pytest.approx(b.mean_error, abs=1e-12)
        assert a.mean_N_T == pytest.approx(b.mean_N_T, abs=1e-12)
        assert a.mean_N_F == pytest.approx(b.mean_N_F, abs=1e-12)
        assert a.mean_seconds == pytest.approx(b.mean_seconds, abs=1e-12)


def test_report_csv_bad_header_rejected():
    with pytest.raises(CsvParseError, match="header"):
        report_from_csv("wrong,header\n1,2\n")
