"""End-to-end acceptance gate.

One test per criterion, run in file order.  Each test prints a single
uncaptured ``[acceptance] ...: PASS/FAIL`` line carrying the measured numbers,
then asserts, so the verdicts survive pytest's output capture and the pytest
``-v`` listing doubles as the scoreboard.

The audit criteria at the bottom (6-8) sweep every fit recorded by criteria
1-5 through module-level collectors, so this file is meant to run top to
bottom in one process.  Two-stage fits expose only the pilot's coefficients,
not its internals, so the audits cover every fit the library returns to the
caller.

Benchmarks 2-5 use fixed reference bands for the mean absolute coefficient
error and the selection counts; the operating points (lambda, pilot solver,
selection threshold, seeds) are pinned in-line.  Criterion 9 covers
wall-clock and external-package comparisons, which are excluded as
hardware/environment-dependent.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from cqrkit import (
    Dataset,
    PenaltySpec,
    QuantileLevels,
    SimConfig,
    SolverOptions,
    fit_admm,
    fit_cd,
    fit_ip,
    fit_mm,
    objective,
    run_experiment,
)
from oracles import admm_display, qr_exact

# ---------------------------------------------------------------------------
# collectors feeding the audit criteria (6-8)

MM_AUDIT = []    # (context, max surrogate-descent violation)
CD_AUDIT = []    # (context, max objective increase over accepted updates)
ADMM_AUDIT = []  # (context, data, levels, options, penalty, AdmmState) for converged fits


def _record(context, data, levels, options, result, lam=None):
    diag = result.diagnostics
    if result.algorithm == "mm":
        MM_AUDIT.append((context, float(diag["max_descent_violation"])))
    elif result.algorithm == "cd":
        CD_AUDIT.append((context, float(diag["max_objective_increase"])))
    elif result.algorithm == "admm" and result.converged:
        penalty = (None if lam is None
                   else PenaltySpec.adaptive_lasso(lam, diag["pilot"]))
        ADMM_AUDIT.append((context, data, levels, options or SolverOptions(),
                           penalty, diag["state"]))


def _hook(prefix):
    def on_fit(tag, rep, request, result):
        _record(f"{prefix}/{tag}/rep{rep}", request.data, request.levels,
                request.options, result, request.lam)
    return on_fit


@pytest.fixture
def verdict(capsys):
    def _verdict(label, ok, detail):
        with capsys.disabled():
            print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"{label}: {detail}"
    return _verdict


# ---------------------------------------------------------------------------
# 1. cross-solver agreement against the enumeration optimum


def test_01_solvers_agree_with_exact_optimum(verdict):
    rng = np.random.default_rng(1031)
    fitters = [("admm", fit_admm), ("mm", fit_mm), ("cd", fit_cd),
               ("ip", fit_ip)]
    # The comparison tolerance is on the objectives, so run the iterative
    # solvers well past the default stopping looseness (eps_abs = 1e-2 alone
    # can leave ADMM a few 1e-2 above the optimum).
    opts = SolverOptions(max_iter=20000, tol=1e-6, eps_abs=1e-5, eps_rel=1e-7)
    worst_gap = 0.0      # ADMM/MM/CD objective vs the interior-point optimum
    worst_oracle = 0.0   # interior-point objective vs subset enumeration
    start = time.perf_counter()
    for case in range(50):
        n = int(rng.integers(20, 61))
        p = int(rng.integers(1, 4))
        tau = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        X = rng.standard_normal((n, p))
        beta = rng.standard_normal(p)
        data = Dataset(X, X @ beta + rng.standard_normal(n))
        levels = QuantileLevels.single(tau)

        _, exact_obj = qr_exact(data, levels)
        objs = {}
        for tag, fitter in fitters:
            res = fitter(data, levels, options=opts)
            _record(f"agree/case{case}/{tag}", data, levels, opts, res)
            objs[tag] = res.objective
        worst_oracle = max(worst_oracle, abs(objs["ip"] - exact_obj))
        for tag in ("admm", "mm", "cd"):
            worst_gap = max(worst_gap, abs(objs[tag] - objs["ip"]))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-2 and worst_oracle <= 1e-6
    verdict(
        "1 solver agreement on 50 random instances",
        ok,
        f"max |obj - IP| {worst_gap:.2e} (tol 1e-2), "
        f"max |IP - enumeration| {worst_oracle:.2e} (tol 1e-6), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. single-level error benchmark at (200, 5) and (1000, 5)

# Reference mean-absolute-error bands ([0.5x, 2x] of the reference values
# 0.036-0.08 at n=200 and 0.026-0.034 at n=1000, tau = 0.3, standard normal
# noise, dense uniform truth).
BAND_200 = (0.018, 0.16)
BAND_1000 = (0.013, 0.068)


def test_02_single_level_error_benchmark(verdict):
    algorithms = ("admm", "mm", "cd", "ip")
    start = time.perf_counter()
    errors = {}
    for n, band in ((200, BAND_200), (1000, BAND_1000)):
        config = SimConfig(n=n, p=5, levels=QuantileLevels.single(0.3),
                           algorithms=algorithms, reps=50, base_seed=0)
        report = run_experiment(config, on_fit=_hook(f"qr{n}"))
        errors[n] = {row.algorithm: row.mean_error for row in report.rows}
    elapsed = time.perf_counter() - start

    in_band = all(BAND_200[0] <= errors[200][a] <= BAND_200[1]
                  and BAND_1000[0] <= errors[1000][a] <= BAND_1000[1]
                  for a in algorithms)
    shrinks = all(errors[1000][a] < errors[200][a] for a in algorithms)
    ok = in_band and shrinks and elapsed < 120.0
    fmt = ", ".join(f"{a} {errors[200][a]:.3f}/{errors[1000][a]:.3f}"
                    for a in algorithms)
    verdict(
        "2 single-level mean error at (200,5) and (1000,5)",
        ok,
        f"err(200)/err(1000): {fmt}; bands {BAND_200} / {BAND_1000}; "
        f"shrinks with n: {shrinks}; {elapsed:.0f}s (limit 120)",
    )


# ---------------------------------------------------------------------------
# 3. composite error benchmark at (200, 5) with nine levels

CQR_BAND = (0.0285, 0.114)   # [0.5x, 2x] of the 0.057 reference


def test_03_composite_error_benchmark(verdict):
    algorithms = ("admm", "mm", "cd")
    start = time.perf_counter()
    config = SimConfig(n=200, p=5, levels=QuantileLevels.grid(9),
                       algorithms=algorithms, reps=50, base_seed=0)
    report = run_experiment(config, on_fit=_hook("cqr200"))
    elapsed = time.perf_counter() - start
    errors = {row.algorithm: row.mean_error for row in report.rows}

    in_band = all(CQR_BAND[0] <= errors[a] <= CQR_BAND[1] for a in algorithms)
    worst_rel = max(abs(errors[a] - errors[b]) / min(errors[a], errors[b])
                    for a, b in combinations(algorithms, 2))
    ok = in_band and worst_rel <= 0.25 and elapsed < 300.0
    fmt = ", ".join(f"{a} {errors[a]:.3f}" for a in algorithms)
    verdict(
        "3 composite (9-level) mean error at (200,5)",
        ok,
        f"{fmt}; band {CQR_BAND}; max pairwise rel diff {worst_rel:.1%} "
        f"(tol 25%); {elapsed:.0f}s (limit 300)",
    )


# ---------------------------------------------------------------------------
# 4. adaptive-lasso selection, single level, (100, 200) and (200, 400)
#
# Operating point: tau = 0.3, 4-strong support, threshold 1e-3, pilot solved
# by ADMM for every final-stage solver, lambda hand-tuned per cell on the
# N_T/N_F frontier.  At p >= n the pilot is the forward-selected refit
# described in pipeline.py.  The (100,200) cell is a known red (N_T 2.48 /
# N_F 0.12); the bars are asserted as stated rather than widened.  At one
# level and n = 100 a coefficient of 0.5 has a rank-score statistic of about
# 3.8 even with every other coefficient known, against a largest-null level
# near 3.5, so weak coefficients are often left out of the pilot, and a zero
# pilot keeps them out of the final fit.  CHANGES.md records the earlier
# pilot (least-L2-norm interpolant, N_T 3.72 here) and its lambda frontier.

SELECTION_CELLS = (
    # (n, p, lambda)
    (100, 200, 0.8),
    (200, 400, 0.9),
)


def test_04_sparse_selection_single_level(verdict):
    start = time.perf_counter()
    counts = {}
    for n, p, lam in SELECTION_CELLS:
        config = SimConfig(n=n, p=p, levels=QuantileLevels.single(0.3),
                           algorithms=("admm", "cd"), reps=25, base_seed=0,
                           true_support_size=4, regularized=True, lam=lam,
                           pilot_algorithm="admm")
        report = run_experiment(config, on_fit=_hook(f"sel{n}x{p}"))
        for row in report.rows:
            counts[(n, row.algorithm)] = (row.mean_N_T, row.mean_N_F)
    elapsed = time.perf_counter() - start

    p_of = {n: p for n, p, _ in SELECTION_CELLS}
    ok = all(nt >= 3.8 and nf <= 0.3 for nt, nf in counts.values())
    fmt = "; ".join(f"({n},{p_of[n]}) {a}: N_T {nt:.2f}, N_F {nf:.2f}"
                    for (n, a), (nt, nf) in sorted(counts.items()))
    verdict(
        "4 adaptive-lasso selection, single level",
        ok,
        f"{fmt}; bars N_T >= 3.8, N_F <= 0.3; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. adaptive-lasso selection, nine levels, (100, 200)
#
# Same operating point logic as criterion 4; lambda rescales with the number
# of levels.  Nine levels make the rank-score statistic of a 0.5 coefficient
# about 4.8, and the forward-selected pilot passes (N_T 3.88 / N_F 0.12).


def test_05_sparse_selection_composite(verdict):
    start = time.perf_counter()
    config = SimConfig(n=100, p=200, levels=QuantileLevels.grid(9),
                       algorithms=("admm", "cd", "mm"), reps=25, base_seed=0,
                       true_support_size=4, regularized=True, lam=6.5,
                       pilot_algorithm="admm")
    report = run_experiment(config, on_fit=_hook("sel9"))
    elapsed = time.perf_counter() - start
    counts = {row.algorithm: (row.mean_N_T, row.mean_N_F)
              for row in report.rows}

    nf_bar = {"admm": 0.3, "cd": 0.3, "mm": 1.0}
    ok = all(counts[a][0] >= 3.8 and counts[a][1] <= nf_bar[a]
             for a in counts)
    fmt = "; ".join(f"{a}: N_T {nt:.2f}, N_F {nf:.2f} (bar {nf_bar[a]})"
                    for a, (nt, nf) in sorted(counts.items()))
    verdict(
        "5 adaptive-lasso selection, nine levels at (100,200)",
        ok,
        f"{fmt}; N_T bar 3.8; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6-8. audits over every fit recorded above


def test_06_mm_descent_audit(verdict):
    violations = [(ctx, v) for ctx, v in MM_AUDIT if v > 1e-10]
    ok = bool(MM_AUDIT) and not violations
    worst = max((v for _, v in MM_AUDIT), default=float("nan"))
    verdict(
        "6 MM surrogate descent across all recorded fits",
        ok,
        f"{len(MM_AUDIT)} fits, worst increase {worst:.2e} (tol 1e-10), "
        f"{len(violations)} violations",
    )


def test_07_cd_monotonicity_audit(verdict):
    violations = [(ctx, v) for ctx, v in CD_AUDIT if v > 1e-10]
    ok = bool(CD_AUDIT) and not violations
    worst = max((v for _, v in CD_AUDIT), default=float("nan"))
    verdict(
        "7 CD objective monotonicity across all recorded fits",
        ok,
        f"{len(CD_AUDIT)} fits, worst increase {worst:.2e} "
        f"(roundoff slack 1e-10), {len(violations)} violations",
    )


def _admm_stopping_holds(data, levels, opts, penalty, state):
    """Recompute the primal/dual residual test from the returned state.

    The state is in the columns of ``core.prepare``: the stacked design has
    the prepared columns where the fit moves them and the raw ones
    elsewhere, and a penalized fit (``penalty`` given) has one penalty row
    ``-s_j e_j'`` per prepared column, ``s_j`` its scale.
    """
    prob, display = admm_display(data, levels, penalty)
    X, Y = display.X, data.Y
    K = levels.K
    n = data.n
    theta = state.beta
    r_new = state.r.reshape(K, n)
    r_prev = state.r_prev.reshape(K, n)
    u = state.u.reshape(K, n)
    rho = opts.rho
    cols, s = prob.cols, prob.scale
    if penalty is None:
        cols, s = cols[:0], s[:0]
    s_theta = s * theta[K + cols]

    Xb = X @ theta[K:]
    fit_mat = Xb[None, :] + theta[:K][:, None]
    primal = np.concatenate([(Y[None, :] - fit_mat - r_new).ravel(),
                             s_theta - state.gamma])
    dr = r_new - r_prev
    dual = rho * np.concatenate([dr.sum(axis=1), X.T @ dr.sum(axis=0)])
    dual[K + cols] -= rho * s * (state.gamma - state.gamma_prev)
    scale = max(np.sum(fit_mat ** 2) + np.sum(s_theta ** 2),
                np.sum(r_new ** 2) + np.sum(state.gamma ** 2),
                K * np.sum(Y ** 2))
    eps_primal = np.sqrt(primal.size) * opts.eps_abs + opts.eps_rel * scale
    Xtu = np.concatenate([u.sum(axis=1), X.T @ u.sum(axis=0)])
    Xtu[K + cols] -= s * state.v
    eps_dual = (np.sqrt(dual.size) * opts.eps_abs
                + opts.eps_rel * np.sum(Xtu ** 2))
    return (np.linalg.norm(primal) <= eps_primal
            and np.linalg.norm(dual) <= eps_dual)


def test_08_admm_stopping_audit(verdict):
    unsound = [ctx for ctx, data, levels, opts, penalty, state in ADMM_AUDIT
               if not _admm_stopping_holds(data, levels, opts, penalty, state)]
    ok = bool(ADMM_AUDIT) and not unsound
    verdict(
        "8 ADMM stopping soundness on every converged fit",
        ok,
        f"{len(ADMM_AUDIT)} converged fits recomputed, "
        f"{len(unsound)} threshold failures",
    )


def test_09_wall_clock_and_external_baselines_excluded(capsys):
    with capsys.disabled():
        print("[acceptance] 9 wall-clock tables and external-package "
              "baselines: EXCLUDED (hardware/environment dependent)")
    pytest.skip("timing columns and external-package baselines are "
                "environment-dependent and not reproduced here")
