"""Simulation harness tests: generators, metrics, and the replication
runner's accounting (seeding, failures, means)."""

import time

import numpy as np
import pytest

import cqrkit.pipeline as pipeline
import cqrkit.simlab as simlab
from cqrkit import ConvergenceError, QuantileLevels
from cqrkit.cli import PRESETS
from cqrkit.simlab import (
    SimConfig,
    SimReport,
    coefficient_error,
    default_lambda,
    generate_data,
    generate_truth,
    run_experiment,
    selection_counts,
)


# ------------------------------------------------------------------ truth

def test_dense_truth_fills_every_coordinate():
    beta = generate_truth(20, 20, seed=0)
    assert beta.shape == (20,)
    assert np.all(np.abs(beta) <= 1.0)
    assert np.all(beta != 0.0)  # U[-1,1] draws, a.s. nonzero


def test_sparse_truth_support_and_magnitudes():
    beta = generate_truth(50, 4, seed=1)
    nonzero = beta[beta != 0.0]
    assert nonzero.size == 4
    assert np.all((np.abs(nonzero) >= 0.5) & (np.abs(nonzero) <= 1.0))
    # the remaining coordinates are exactly zero, not merely tiny
    assert np.count_nonzero(beta) == 4


def test_zero_support_truth_is_all_zero():
    assert np.all(generate_truth(7, 0, seed=2) == 0.0)


def test_truth_reproducible():
    np.testing.assert_array_equal(generate_truth(30, 5, seed=9),
                                  generate_truth(30, 5, seed=9))


def test_truth_support_bounds_checked():
    with pytest.raises(ValueError):
        generate_truth(3, 4, seed=0)
    with pytest.raises(ValueError):
        generate_truth(3, -1, seed=0)


# ------------------------------------------------------------------- data

def test_data_shapes_and_model():
    beta = np.array([1.0, 0.0, -2.0])
    data = generate_data(40, 3, beta, intercept=1.5, seed=3)
    assert data.X.shape == (40, 3)
    assert data.Y.shape == (40,)
    # noise is standard normal: residuals about the true line are O(1)
    resid = data.Y - 1.5 - data.X @ beta
    assert np.abs(resid).max() < 6.0
    assert np.std(resid) == pytest.approx(1.0, abs=0.35)


def test_data_reproducible_and_seed_sensitive():
    beta = np.ones(2)
    a = generate_data(10, 2, beta, 1.0, seed=4)
    b = generate_data(10, 2, beta, 1.0, seed=4)
    c = generate_data(10, 2, beta, 1.0, seed=5)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.Y, b.Y)
    assert not np.array_equal(a.X, c.X)


def test_data_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length"):
        generate_data(10, 3, np.ones(2), 1.0, seed=0)


# ---------------------------------------------------------------- metrics

def test_coefficient_error_hand_value():
    est = np.array([1.0, 0.0, -1.0, 2.0])
    tru = np.array([1.5, 0.0, -2.0, 2.0])
    assert coefficient_error(est, tru) == pytest.approx((0.5 + 1.0) / 4)


def test_coefficient_error_zero_on_exact():
    v = np.array([0.3, -0.4])
    assert coefficient_error(v, v) == 0.0


def test_selection_counts_hand_value():
    tru = np.array([1.0, 0.0, -0.8, 0.0, 0.0])
    est = np.array([0.9, 0.0005, -0.7, 0.01, 0.0])
    n_true, n_false = selection_counts(est, tru, threshold=1e-3)
    assert n_true == 2   # coords 0 and 2
    assert n_false == 1  # coord 3 above threshold, coord 1 below


def test_selection_threshold_is_strict():
    tru = np.array([1.0, 0.0])
    est = np.array([1e-3, 1e-3])
    assert selection_counts(est, tru, threshold=1e-3) == (0, 0)


def test_metric_length_mismatch_rejected():
    with pytest.raises(ValueError):
        coefficient_error(np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        selection_counts(np.ones(3), np.ones(2), 1e-3)


# ----------------------------------------------------------------- config

def test_config_validates_support_and_algorithms():
    levels = QuantileLevels.single(0.5)
    with pytest.raises(ValueError):
        SimConfig(n=10, p=2, levels=levels, algorithms=("cd",),
                  true_support_size=3)
    with pytest.raises(ValueError):
        SimConfig(n=10, p=2, levels=levels, algorithms=())
    with pytest.raises(ValueError):
        SimConfig(n=10, p=2, levels=levels, algorithms=("simplex",))
    pytest.raises(ValueError, SimConfig, n=0, p=2, levels=levels,
                  algorithms=("cd",))
    pytest.raises(ValueError, SimConfig, n=10, p=2, levels=levels,
                  algorithms=("cd",), reps=0)
    pytest.raises(ValueError, SimConfig, n=10, p=2, levels=levels,
                  algorithms=("cd",), selection_threshold=-1.0)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(n=10, p=2, levels=levels, algorithms=("cd",),
                      regularized=True, lam=lam)


def test_config_rejects_nan_selection_threshold():
    # a NaN threshold would read every N_T and N_F as 0
    with pytest.raises(ValueError, match="selection_threshold"):
        SimConfig(n=10, p=2, levels=QuantileLevels.single(0.5),
                  algorithms=("cd",), selection_threshold=np.nan)


def test_config_defaults_dense_support_and_lambda():
    levels = QuantileLevels.single(0.5)
    cfg = SimConfig(n=100, p=20, levels=levels, algorithms=("cd",))
    assert cfg.true_support_size == 20
    assert cfg.lam is None
    reg = SimConfig(n=100, p=20, levels=levels, algorithms=("cd",),
                    regularized=True, true_support_size=4)
    assert reg.lam == pytest.approx(default_lambda(100, 20))


def test_default_lambda_scales_with_levels():
    levels = QuantileLevels.grid(9)
    reg = SimConfig(n=100, p=20, levels=levels, algorithms=("cd",),
                    regularized=True, true_support_size=4)
    assert reg.lam == pytest.approx(default_lambda(100, 20, 9))
    assert default_lambda(100, 20, 9) == pytest.approx(9 * default_lambda(100, 20))


def test_default_lambda_formula():
    assert default_lambda(100, 200) == pytest.approx(
        np.sqrt(100 * np.log(200)) / 32)
    for p in (0, 1):    # sqrt(n log p) is undefined or 0: ask for a lam
        with pytest.raises(ValueError, match="lam explicitly"):
            default_lambda(30, p)


# ----------------------------------------------------------------- runner

def _small_config(**kw):
    base = dict(n=40, p=3, levels=QuantileLevels.single(0.3),
                algorithms=("cd",), reps=3, base_seed=42)
    base.update(kw)
    return SimConfig(**base)


def test_report_row_per_algorithm_in_order():
    report = run_experiment(_small_config(algorithms=("cd", "ip")))
    assert isinstance(report, SimReport)
    assert [r.algorithm for r in report.rows] == ["cd", "ip"]
    for row in report.rows:
        assert (row.n, row.p, row.reps) == (40, 3, 3)
        assert row.failures == 0 and not row.flagged
        assert row.mean_seconds > 0.0


def test_unregularized_dense_recovery_is_close():
    report = run_experiment(_small_config(n=120, reps=4))
    row = report.rows[0]
    assert row.mean_error < 0.15
    assert 0.0 <= row.mean_N_F <= 0.0  # dense truth: nothing is spurious
    assert row.mean_N_T <= 3.0


def test_selection_count_invariants_sparse():
    cfg = _small_config(n=80, p=10, true_support_size=3, reps=3,
                        regularized=True, lam=1.0)
    report = run_experiment(cfg)
    row = report.rows[0]
    assert row.mean_N_T <= 3.0
    assert row.mean_N_F <= 7.0


def test_report_deterministic_across_runs_and_order():
    cfg_a = _small_config(algorithms=("cd", "ip"), reps=3)
    cfg_b = _small_config(algorithms=("ip", "cd"), reps=3)
    rep_a = run_experiment(cfg_a)
    rep_a2 = run_experiment(cfg_a)
    rep_b = run_experiment(cfg_b)
    by_tag = lambda rep: {r.algorithm: r for r in rep.rows}
    a, a2, b = by_tag(rep_a), by_tag(rep_a2), by_tag(rep_b)
    for tag in ("cd", "ip"):
        for other in (a2, b):  # rerun and reordered run
            assert a[tag].mean_error == other[tag].mean_error
            assert a[tag].mean_N_T == other[tag].mean_N_T
            assert a[tag].mean_N_F == other[tag].mean_N_F


def test_distinct_reps_see_distinct_data():
    seen = []
    run_experiment(_small_config(reps=3),
                   on_fit=lambda tag, rep, req, res: seen.append(req.data.Y))
    assert len(seen) == 3
    assert not np.array_equal(seen[0], seen[1])
    assert not np.array_equal(seen[1], seen[2])


def test_base_seed_changes_data():
    ys = {}
    for seed in (1, 2):
        run_experiment(
            _small_config(reps=1, base_seed=seed),
            on_fit=lambda tag, rep, req, res: ys.setdefault(seed, req.data.Y))
    assert not np.array_equal(ys[1], ys[2])


def test_on_fit_sees_every_cell():
    calls = []
    run_experiment(_small_config(algorithms=("cd", "ip"), reps=2),
                   on_fit=lambda tag, rep, req, res: calls.append((tag, rep)))
    assert sorted(calls) == [("cd", 0), ("cd", 1), ("ip", 0), ("ip", 1)]


def test_pilot_algorithm_reaches_requests():
    seen = []
    cfg = _small_config(reps=1, regularized=True, lam=0.5,
                        pilot_algorithm="admm")
    run_experiment(cfg, on_fit=lambda tag, rep, req, res:
                   seen.append(req.pilot_algorithm))
    assert seen == ["admm"]
    with pytest.raises(ValueError):
        _small_config(pilot_algorithm="simplex")


def test_failures_counted_and_flagged(monkeypatch):
    real_fit = simlab.fit
    calls = {"k": 0}

    def flaky(request):
        calls["k"] += 1
        if calls["k"] % 2 == 0:
            raise ConvergenceError("synthetic failure")
        return real_fit(request)

    monkeypatch.setattr(simlab, "fit", flaky)
    report = run_experiment(_small_config(reps=4))
    row = report.rows[0]
    assert row.failures == 2
    assert row.flagged  # 2/4 > 20%
    assert np.isfinite(row.mean_error)  # means over the surviving reps


def test_all_failures_yield_nan_row(monkeypatch):
    def hopeless(request):
        raise ConvergenceError("synthetic failure")

    monkeypatch.setattr(simlab, "fit", hopeless)
    report = run_experiment(_small_config(reps=2))
    row = report.rows[0]
    assert row.failures == 2 and row.flagged
    assert np.isnan(row.mean_error)


def test_nonconverged_fits_count_as_failures(monkeypatch):
    real_fit = simlab.fit

    def stalled(request):
        result = real_fit(request)
        result.converged = False
        return result

    monkeypatch.setattr(simlab, "fit", stalled)
    seen = []
    report = run_experiment(_small_config(reps=2),
                            on_fit=lambda *cell: seen.append(cell))
    row = report.rows[0]
    assert row.failures == 2 and row.flagged
    assert np.isnan(row.mean_error)
    assert seen == []                 # on_fit sees successful fits only


def test_metadata_records_operating_point():
    cfg = _small_config(n=100, p=10, true_support_size=2, regularized=True,
                        reps=1)
    report = run_experiment(cfg)
    md = report.metadata
    assert md["lambda"] == pytest.approx(default_lambda(100, 10))
    assert md["regularized"] is True
    assert md["selection_threshold"] == 1e-3
    assert md["base_seed"] == 42
    assert md["taus"] == [0.3]
    assert md["true_support_size"] == 2


# ------------------------------------------------------------ shared pilot

ALGOS = ("admm", "mm", "cd", "ip")


def _preset_config(preset, n, p, reps=2):
    levels, _, support, regularized, pilot = PRESETS[preset]
    return SimConfig(n=n, p=p, levels=levels(), algorithms=ALGOS, reps=reps,
                     base_seed=11, true_support_size=support,
                     regularized=regularized, pilot_algorithm=pilot)


def _count_unpenalized(monkeypatch, tag):
    """Wrap ``pipeline.SOLVERS[tag]``; the list grows by one per pilot call
    (the pilot stage is the only caller without a penalty)."""
    calls = []
    solver = pipeline.SOLVERS[tag]

    def counted(data, levels, penalty=None, options=None):
        if penalty is None:
            calls.append(data.p)
        return solver(data, levels, penalty, options)

    monkeypatch.setitem(pipeline.SOLVERS, tag, counted)
    return calls


def _replicate(config, rep):
    truth_seed, data_seed = simlab._rep_seeds(config.base_seed, rep)
    truth = generate_truth(config.p, config.true_support_size, truth_seed)
    return truth, generate_data(config.n, config.p, truth, config.intercept,
                                data_seed)


@pytest.mark.parametrize("preset, n, p", [("qr-reg", 80, 100),
                                          ("cqr-reg", 60, 8)])
def test_pinned_pilot_is_fitted_once_per_replicate(monkeypatch, preset, n, p):
    # at p >= n one pilot is a forward selection of several refits; the
    # run must make exactly the calls of one pilot per replicate
    config = _preset_config(preset, n, p)
    assert config.pilot_algorithm == "admm"
    calls = _count_unpenalized(monkeypatch, "admm")
    per_rep = []
    for rep in range(config.reps):
        request = pipeline.FitRequest(
            _replicate(config, rep)[1], config.levels, regularized=True,
            lam=config.lam, pilot_algorithm="admm")
        before = len(calls)
        pipeline.pilot(request)
        per_rep.append(len(calls) - before)
    calls.clear()
    report = run_experiment(config)
    assert all(row.failures == 0 for row in report.rows)
    assert len(calls) == sum(per_rep)
    if p < n:
        assert per_rep == [1] * config.reps
    else:
        assert min(per_rep) >= 2    # several forward steps per pilot


@pytest.mark.parametrize("preset, n, p", [("qr-reg", 80, 100),
                                          ("cqr-reg", 60, 8)])
def test_shared_pilot_matches_separate_fits_bit_for_bit(preset, n, p):
    config = _preset_config(preset, n, p)
    seen = {}
    report = run_experiment(config, on_fit=lambda tag, rep, req, res:
                            seen.__setitem__((tag, rep), res))
    rows = {row.algorithm: row for row in report.rows}
    for tag in ALGOS:
        errors, nts, nfs = [], [], []
        for rep in range(config.reps):
            truth, data = _replicate(config, rep)
            alone = pipeline.fit(pipeline.FitRequest(
                data, config.levels, algorithm=tag, regularized=True,
                lam=config.lam, pilot_algorithm=config.pilot_algorithm))
            shared = seen[(tag, rep)]
            for name in ("intercepts", "coefficients"):
                assert getattr(shared, name).tobytes() == \
                    getattr(alone, name).tobytes(), (tag, rep, name)
            assert shared.diagnostics["pilot"].tobytes() == \
                alone.diagnostics["pilot"].tobytes()
            assert shared.objective == alone.objective
            errors.append(coefficient_error(alone.coefficients, truth))
            nt, nf = selection_counts(alone.coefficients, truth,
                                      config.selection_threshold)
            nts.append(nt)
            nfs.append(nf)
        row = rows[tag]
        assert row.mean_error == float(np.mean(errors))
        assert (row.mean_N_T, row.mean_N_F) == (float(np.mean(nts)),
                                                float(np.mean(nfs)))
        assert (row.failures, row.flagged) == (0, False)


def test_failed_shared_pilot_fails_every_algorithm(monkeypatch):
    config = _preset_config("cqr-reg", 60, 8, reps=3)
    solver = pipeline.SOLVERS["admm"]
    pilots = []

    def stuck(data, levels, penalty=None, options=None):
        result = solver(data, levels, penalty, options)
        if penalty is None:
            pilots.append(data.p)
            result.converged = False
        return result

    monkeypatch.setitem(pipeline.SOLVERS, "admm", stuck)
    fits = []
    report = run_experiment(config, on_fit=lambda *args: fits.append(args))
    assert pilots == [8] * config.reps           # one pilot per replicate
    assert fits == []
    for row in report.rows:
        assert (row.failures, row.flagged) == (config.reps, True)
        assert np.isnan(row.mean_error) and np.isnan(row.mean_seconds)


def test_mean_seconds_includes_the_shared_pilot(monkeypatch):
    config = _preset_config("cqr-reg", 60, 8, reps=2)
    real_pilot = simlab.pilot

    def slow_pilot(request):
        time.sleep(0.05)
        return real_pilot(request)

    monkeypatch.setattr(simlab, "pilot", slow_pilot)
    report = run_experiment(config)
    for row in report.rows:
        assert row.failures == 0
        assert row.mean_seconds >= 0.05


def test_unpinned_pilot_is_not_shared(monkeypatch):
    def refuse(request):
        raise AssertionError("an unpinned pilot was shared")

    monkeypatch.setattr(simlab, "pilot", refuse)
    config = _small_config(algorithms=("cd", "ip"), reps=1, regularized=True,
                           lam=0.5)
    pilots = {}
    run_experiment(config, on_fit=lambda tag, rep, req, res: pilots.
                   __setitem__(req.pilot_algorithm, res.diagnostics["pilot"]))
    assert sorted(pilots) == ["cd", "ip"]
