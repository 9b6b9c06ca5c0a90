"""Command-line surface tests: flags, exit codes, output discipline.

Commands run in-process through ``main(argv)``; one subprocess smoke test
covers the installed entry point.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cqrkit
from cqrkit.cli import EXIT_INPUT, EXIT_NOT_CONVERGED, EXIT_OK, EXIT_USAGE, main
from cqrkit.io import ResultDocument, report_from_csv, report_from_json
from cqrkit.simlab import default_lambda


@pytest.fixture
def table(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 2))
    y = 1.0 + 0.8 * X[:, 0] - 0.5 * X[:, 1] + 0.3 * rng.normal(size=40)
    lines = ["x1,x2,y"] + [f"{float(a)!r},{float(b)!r},{float(c)!r}"
                           for a, b, c in zip(X[:, 0], X[:, 1], y)]
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _child_env():
    """Environment in which a child interpreter imports this cqrkit."""
    path = [str(Path(cqrkit.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _usage_exit(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code


# ------------------------------------------------------------------- cmd_fit

def test_fit_single_level_document_on_stdout(table, capsys):
    rc = main(["fit", "--input", str(table), "--response", "y",
               "--tau", "0.3", "--algorithm", "cd"])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    doc = ResultDocument.from_json(captured.out)
    assert doc.algorithm == "cd"
    assert doc.taus == [0.3]
    assert len(doc.intercepts) == 1
    assert len(doc.coefficients) == 2
    assert doc.converged
    assert "cqrkit fit" in captured.err  # logs on stderr only


def test_fit_multiple_levels_share_coefficients(table, capsys):
    rc = main(["fit", "--input", str(table), "--response", "y",
               "--tau", "0.1,0.2,0.3", "--algorithm", "cd"])
    doc = ResultDocument.from_json(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert len(doc.intercepts) == 3
    assert len(doc.coefficients) == 2  # one slope vector across levels


def test_fit_stdout_is_pure_json(table, capsys):
    main(["fit", "--input", str(table), "--response", "y",
          "--tau", "0.5", "--algorithm", "ip"])
    out = capsys.readouterr().out
    json.loads(out)  # nothing but the document


def test_fit_output_file(table, tmp_path, capsys):
    out_path = tmp_path / "fit.json"
    rc = main(["fit", "--input", str(table), "--response", "y",
               "--tau", "0.3", "--algorithm", "admm",
               "--output", str(out_path)])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == ""
    ResultDocument.from_json(out_path.read_text())


def test_fit_unwritable_output_is_input_error(table, tmp_path, capsys):
    rc = main(["fit", "--input", str(table), "--response", "y",
               "--tau", "0.3", "--algorithm", "cd",
               "--output", str(tmp_path / "no" / "dir" / "fit.json")])
    assert rc == EXIT_INPUT
    assert "cqrkit fit:" in capsys.readouterr().err


def test_fit_csv_format(table, capsys):
    rc = main(["fit", "--input", str(table), "--response", "y",
               "--tau", "0.3", "--algorithm", "cd", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert out.splitlines()[0] == "field,index,value"


def test_fit_regularized_document_carries_pilot(table, capsys):
    rc = main(["fit", "--input", str(table), "--response", "y",
               "--tau", "0.3", "--algorithm", "cd", "--lambda", "0.5"])
    doc = ResultDocument.from_json(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert doc.lam == 0.5
    assert doc.pilot is not None


def test_fit_response_by_index(table, capsys):
    rc = main(["fit", "--input", str(table), "--response", "2",
               "--tau", "0.3", "--algorithm", "cd"])
    assert rc == EXIT_OK


def test_fit_missing_file_is_input_error(tmp_path, capsys):
    rc = main(["fit", "--input", str(tmp_path / "nope.csv"),
               "--response", "y", "--tau", "0.3", "--algorithm", "cd"])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().out == ""


def test_fit_malformed_csv_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,y\n1,frog\n")
    rc = main(["fit", "--input", str(path), "--response", "y",
               "--tau", "0.3", "--algorithm", "cd"])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert "row 2" in err and "'y'" in err


def test_fit_csv_that_is_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y,x\xe9\n1,2\n3,4\n")
    rc = main(["fit", "--input", str(path), "--response", "y",
               "--tau", "0.3", "--algorithm", "cd"])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("cqrkit fit: ") and "utf-8" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_fit_non_finite_csv_is_input_error(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("a,y\n1,2\nnan,3\n")
    rc = main(["fit", "--input", str(path), "--response", "y",
               "--tau", "0.3", "--algorithm", "cd"])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert captured.out == ""
    assert "row 3" in captured.err and "'a'" in captured.err


def test_fit_rejected_solver_option_exits_64(table, capsys):
    rc = main(["fit", "--input", str(table), "--response", "y",
               "--tau", "0.3", "--algorithm", "cd", "--max-iter", "0"])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("cqrkit fit: ") and "max_iter" in captured.err


def test_fit_usage_errors_exit_64(table):
    base = ["fit", "--input", str(table), "--response", "y"]
    assert _usage_exit(base) == EXIT_USAGE  # --tau/--algorithm missing
    assert _usage_exit(base + ["--tau", "1.5", "--algorithm", "cd"]) == EXIT_USAGE
    assert _usage_exit(base + ["--tau", "abc", "--algorithm", "cd"]) == EXIT_USAGE
    assert _usage_exit(base + ["--tau", ",", "--algorithm", "cd"]) == EXIT_USAGE
    assert _usage_exit(base + ["--tau", "0.3,0.3", "--algorithm", "cd"]) == EXIT_USAGE
    assert _usage_exit(base + ["--tau", "0.3", "--algorithm", "simplex"]) == EXIT_USAGE
    assert _usage_exit(base + ["--tau", "0.3", "--algorithm", "cd",
                               "--lambda", "-1"]) == EXIT_USAGE
    assert _usage_exit([]) == EXIT_USAGE


def test_fit_pilot_failure_exits_2_and_names_stage(table, capsys):
    rc = main(["fit", "--input", str(table), "--response", "y",
               "--tau", "0.3", "--algorithm", "mm", "--lambda", "0.5",
               "--max-iter", "1", "--tol", "1e-300"])
    captured = capsys.readouterr()
    assert rc == EXIT_NOT_CONVERGED
    assert "pilot" in captured.err


def test_fit_nonconvergence_still_emits_document(table, capsys):
    rc = main(["fit", "--input", str(table), "--response", "y",
               "--tau", "0.3", "--algorithm", "mm",
               "--max-iter", "1", "--tol", "1e-300"])
    captured = capsys.readouterr()
    assert rc == EXIT_NOT_CONVERGED
    doc = ResultDocument.from_json(captured.out)
    assert doc.converged is False
    assert re.search(r"within 1 iterations: the parameter change \S+ is not "
                     r"below its tolerance 1e-300", captured.err)
    # every iterative solver logs why it stopped short
    for algorithm, reason in (("admm", r"the (primal|dual) residual \S+ is "
                                       r"above its tolerance"),
                              ("ip", r"the duality gap \S+ is above its "
                                     r"tolerance")):
        rc = main(["fit", "--input", str(table), "--response", "y",
                   "--tau", "0.3", "--algorithm", algorithm, "--max-iter", "1"])
        captured = capsys.readouterr()
        assert rc == EXIT_NOT_CONVERGED
        assert ResultDocument.from_json(captured.out).converged is False
        assert re.search(r"within 1 iterations: " + reason, captured.err)


def test_fit_cd_finish_stopping_short_exits_2(table, capsys, monkeypatch):
    monkeypatch.setattr(cqrkit.cd, "_simplex_finish",
                        lambda *args: (None, 1000, "maxpivots"))
    rc = main(["fit", "--input", str(table), "--response", "y",
               "--tau", "0.3", "--algorithm", "cd"])
    captured = capsys.readouterr()
    assert rc == EXIT_NOT_CONVERGED
    assert ResultDocument.from_json(captured.out).converged is False
    assert re.search(r"iterations: the simplex finish ended 'maxpivots' "
                     r"after 1000 pivots", captured.err)


# -------------------------------------------------------------- cmd_simulate

def _simulate(tmp_path, *extra, fmt="json", preset="qr-noreg", n="40", p="2",
              reps="2", algorithms="cd"):
    out_path = tmp_path / f"report.{fmt}"
    argv = ["simulate", "--preset", preset, "--n", n, "--p", p,
            "--reps", reps, "--algorithms", algorithms,
            "--output", str(out_path), "--format", fmt, *extra]
    return main(argv), out_path


def test_simulate_row_per_algorithm(tmp_path, capsys):
    rc, path = _simulate(tmp_path, algorithms="cd,ip")
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    report = report_from_json(path.read_text())
    assert [row.algorithm for row in report.rows] == ["cd", "ip"]
    assert captured.out == ""  # report goes to the file, logs to stderr
    assert "mean_error" in captured.err


def test_simulate_csv_output_parses_back(tmp_path):
    rc, path = _simulate(tmp_path, fmt="csv")
    assert rc == EXIT_OK
    text = path.read_text()
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header.startswith("n,p,algorithm,mean_error,mean_N_T,mean_N_F,"
                             "mean_seconds,reps")
    report = report_from_csv(text)
    assert report.rows[0].reps == 2
    assert report.metadata["base_seed"] == 0


def test_simulate_same_seed_identical_modulo_seconds(tmp_path):
    _, path_a = _simulate(tmp_path, "--seed", "9")
    report_a = report_from_json(path_a.read_text())
    _, path_b = _simulate(tmp_path, "--seed", "9")
    report_b = report_from_json(path_b.read_text())
    assert report_a.metadata == report_b.metadata
    for a, b in zip(report_a.rows, report_b.rows):
        a.mean_seconds = b.mean_seconds = 0.0
    assert report_a.rows == report_b.rows


def test_simulate_env_seed_overrides_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("CQR_SEED", "123")
    _, path_env = _simulate(tmp_path, "--seed", "9")
    monkeypatch.delenv("CQR_SEED")
    _, path_flag = _simulate(tmp_path, "--seed", "123")
    env_report = report_from_json(path_env.read_text())
    flag_report = report_from_json(path_flag.read_text())
    assert env_report.metadata["base_seed"] == 123
    assert env_report.rows[0].mean_error == flag_report.rows[0].mean_error


def test_simulate_bad_env_seed_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CQR_SEED", "many")
    rc, _ = _simulate(tmp_path)
    assert rc == EXIT_USAGE
    assert "CQR_SEED" in capsys.readouterr().err


def test_simulate_regularized_preset_records_default_lambda(tmp_path):
    rc, path = _simulate(tmp_path, preset="qr-reg", n="30", p="5", reps="1")
    assert rc == EXIT_OK
    report = report_from_json(path.read_text())
    assert report.metadata["regularized"] is True
    assert report.metadata["lambda"] == pytest.approx(default_lambda(30, 5))
    assert report.metadata["true_support_size"] == 4


def test_simulate_explicit_lambda_recorded(tmp_path):
    rc, path = _simulate(tmp_path, "--lambda", "2.5", preset="qr-reg",
                         n="30", p="5", reps="1")
    assert rc == EXIT_OK
    assert report_from_json(path.read_text()).metadata["lambda"] == 2.5


def test_simulate_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    argv = ["simulate", "--preset", "qr-maybe", "--n", "40", "--p", "2",
            "--algorithms", "cd", "--output", out]
    assert _usage_exit(argv) == EXIT_USAGE  # unknown preset
    argv = ["simulate", "--preset", "qr-noreg", "--n", "40", "--p", "2",
            "--algorithms", "sgd", "--output", out]
    assert _usage_exit(argv) == EXIT_USAGE  # unknown algorithm
    assert _usage_exit(argv[:-3] + [",", *argv[-2:]]) == EXIT_USAGE  # no algorithm
    # lambda makes no sense without a regularized preset
    rc, _ = _simulate(tmp_path, "--lambda", "1.0")
    assert rc == EXIT_USAGE
    # support larger than p
    rc, _ = _simulate(tmp_path, "--support", "5")
    assert rc == EXIT_USAGE
    # no default lambda at p = 1: the message asks for --lambda's value
    rc, _ = _simulate(tmp_path, "--support", "1", preset="qr-reg", p="1")
    assert rc == EXIT_USAGE and "lam explicitly" in capsys.readouterr().err
    capsys.readouterr()


def test_simulate_unwritable_output_is_input_error(tmp_path, capsys):
    rc = main(["simulate", "--preset", "qr-noreg", "--n", "40", "--p", "2",
               "--reps", "1", "--algorithms", "cd",
               "--output", str(tmp_path / "no" / "dir" / "r.json")])
    assert rc == EXIT_INPUT
    capsys.readouterr()


# ------------------------------------------------------------- entry point

@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize",
                                    "scipy.special", "scipy"])
def test_cli_import_leaves_scipy_stats_unloaded(module):
    # each costs a large share of every command's start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, cqrkit.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, check=True, env=_child_env())
    assert proc.stdout.strip() == "False"


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None           # any scipy import now fails
import numpy as np
from cqrkit import Dataset, PenaltySpec, QuantileLevels
from cqrkit.cli import main
from cqrkit.pipeline import SOLVERS

rng = np.random.default_rng(3)
for n, p in ((60, 4), (30, 40)):
    X = rng.standard_normal((n, p))
    X[:, 3] = X[:, 0]                 # a duplicated column
    y = 1 + X[:, :3] @ [1.0, -0.5, 0.8] + rng.standard_normal(n)
    penalty = PenaltySpec.adaptive_lasso(0.5, np.full(p, 0.5))
    for tag, fitter in SOLVERS.items():
        fit = fitter(Dataset(X, y), QuantileLevels.grid(3), penalty)
        assert np.isfinite(fit.objective), tag
sys.exit(main(["fit", "--input", sys.argv[1], "--response", "y",
               "--tau", "0.3", "--algorithm", "ip"]))
"""


def test_every_solver_and_fit_run_without_scipy(table):
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(table)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == EXIT_OK, proc.stderr
    assert ResultDocument.from_json(proc.stdout).converged


def test_module_entry_point_smoke(table):
    proc = subprocess.run(
        [sys.executable, "-m", "cqrkit", "fit", "--input", str(table),
         "--response", "y", "--tau", "0.3", "--algorithm", "cd"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == EXIT_OK
    doc = ResultDocument.from_json(proc.stdout)
    assert doc.converged
