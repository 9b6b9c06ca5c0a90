"""Tests for the shared types and primitive operations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cqrkit import (
    Dataset,
    PenaltySpec,
    QuantileLevels,
    SolverOptions,
    adaptive_weights,
    check_loss,
    objective,
    penalty_value,
    sample_quantile,
    soft_threshold,
    weighted_median,
)
from cqrkit.core import (
    cholesky,
    fidelity,
    stacked_fit,
    stacked_gram,
    stacked_tdot,
)

from oracles import (
    check_loss_scalar,
    quantile_objective_scan,
    stack_composite,
    stacked_objective_loop,
    weighted_median_conditions,
)


# ---------------------------------------------------------------------------
# check_loss
# ---------------------------------------------------------------------------

def test_check_loss_known_values():
    assert check_loss(2.0, 0.3) == pytest.approx(0.6)
    assert check_loss(-2.0, 0.3) == pytest.approx(1.4)
    assert check_loss(2.0, 0.5) == pytest.approx(1.0)
    assert check_loss(-2.0, 0.5) == pytest.approx(1.0)
    assert check_loss(0.0, 0.7) == 0.0


def test_check_loss_vectorized():
    t = np.array([-1.0, 0.0, 2.0])
    out = check_loss(t, 0.25)
    assert out.shape == (3,)
    assert_allclose(out, [0.75, 0.0, 0.5])


def test_check_loss_properties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        tau = rng.uniform(0.01, 0.99)
        t = rng.standard_normal() * 10
        v = check_loss(t, tau)
        assert v >= 0.0
        assert v == pytest.approx(check_loss_scalar(t, tau))
        # reflection: rho_tau(t) = rho_{1-tau}(-t)
        assert v == pytest.approx(check_loss(-t, 1.0 - tau))
        # positive homogeneity
        c = rng.uniform(0.1, 5.0)
        assert check_loss(c * t, tau) == pytest.approx(c * v)
        # convexity along a random chord
        s = rng.standard_normal() * 10
        mid = check_loss(0.5 * (t + s), tau)
        assert mid <= 0.5 * (v + check_loss(s, tau)) + 1e-12


def test_check_loss_zero_only_at_zero():
    assert check_loss(1e-12, 0.4) > 0.0
    assert check_loss(-1e-12, 0.4) > 0.0


@pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.3])
def test_check_loss_rejects_bad_tau(tau):
    with pytest.raises(ValueError):
        check_loss(1.0, tau)


def test_check_loss_rejects_nonfinite():
    with pytest.raises(ValueError):
        check_loss(np.nan, 0.5)


# ---------------------------------------------------------------------------
# soft_threshold
# ---------------------------------------------------------------------------

def test_soft_threshold_known_values():
    assert soft_threshold(5.0, 2.0) == pytest.approx(3.0)
    assert soft_threshold(-5.0, 2.0) == pytest.approx(-3.0)
    assert soft_threshold(1.0, 2.0) == 0.0
    assert soft_threshold(-1.5, 2.0) == 0.0
    assert soft_threshold(0.7, 0.0) == pytest.approx(0.7)


def test_soft_threshold_elementwise():
    v = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    assert_allclose(soft_threshold(v, 1.0), [-2.0, 0.0, 0.0, 0.0, 2.0])


def test_soft_threshold_is_prox_of_abs():
    # S_a(v) minimizes a|u| + (u - v)^2 / 2 over u
    rng = np.random.default_rng(11)
    grid = np.linspace(-20, 20, 40001)
    for _ in range(50):
        v = rng.uniform(-10, 10)
        a = rng.uniform(0, 5)
        s = soft_threshold(v, a)
        f = lambda u: a * np.abs(u) + 0.5 * (u - v) ** 2
        assert f(s) <= np.min(f(grid)) + 1e-6


def test_soft_threshold_nonexpansive():
    rng = np.random.default_rng(12)
    for _ in range(100):
        u, v = rng.uniform(-5, 5, size=2)
        a = rng.uniform(0, 3)
        assert abs(soft_threshold(u, a) - soft_threshold(v, a)) <= abs(u - v) + 1e-12


def test_soft_threshold_rejects_negative_threshold():
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.1)


# ---------------------------------------------------------------------------
# weighted_median
# ---------------------------------------------------------------------------

def test_weighted_median_known_values():
    assert weighted_median([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]) == 2.0
    # even split: the left end of the optimal interval
    assert weighted_median([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0]) == 2.0
    # input order does not matter
    assert weighted_median([2.0, 1.0], [1.0, 1.0]) == 1.0
    # a dominating weight decides
    assert weighted_median([1.0, 2.0, 3.0], [0.1, 0.1, 5.0]) == 3.0
    # zero-weight points never win
    assert weighted_median([0.0, 5.0], [0.0, 3.0]) == 5.0
    assert weighted_median([4.2], [0.5]) == 4.2


def test_weighted_median_tied_values():
    # duplicates are fine; the crossing lands on the duplicated value
    assert weighted_median([2.0, 2.0, 1.0], [1.0, 1.0, 1.0]) == 2.0
    assert weighted_median([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]) == 3.0


def test_weighted_median_minimizes_weighted_l1(  ):
    rng = np.random.default_rng(21)
    for trial in range(300):
        m = rng.integers(1, 30)
        if trial % 3 == 0:
            z = rng.integers(-4, 5, size=m).astype(float)   # force ties
        else:
            z = rng.standard_normal(m) * 5
        w = rng.uniform(0, 2, size=m)
        w[rng.random(m) < 0.2] = 0.0
        if w.sum() <= 0:
            w[0] = 1.0
        med = weighted_median(z, w)
        assert med in z
        assert weighted_median_conditions(z, w, med)
        # minimizer of sum_i w_i |c - z_i| over candidates c in z
        objs = np.array([np.sum(w * np.abs(c - z)) for c in z])
        assert np.sum(w * np.abs(med - z)) <= objs.min() + 1e-9


def test_weighted_median_errors():
    with pytest.raises(ValueError):
        weighted_median([], [])
    with pytest.raises(ValueError):
        weighted_median([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        weighted_median([1.0, 2.0], [1.0, -0.5])
    with pytest.raises(ValueError):
        weighted_median([1.0, 2.0], [0.0, 0.0])
    pytest.raises(ValueError, weighted_median, [1.0, np.nan], [1.0, 1.0])


# ---------------------------------------------------------------------------
# sample_quantile
# ---------------------------------------------------------------------------

def test_sample_quantile_known_values():
    v = np.arange(1.0, 11.0)          # 1..10
    # 10 * 0.3 = 3 exactly: the 3rd order statistic, not the 4th
    assert sample_quantile(v, 0.3) == 3.0
    assert sample_quantile(v, 0.5) == 5.0
    assert sample_quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert sample_quantile([3.0, 1.0, 2.0], 0.01) == 1.0
    assert sample_quantile([3.0, 1.0, 2.0], 0.99) == 3.0


def test_sample_quantile_order_statistic_index():
    rng = np.random.default_rng(33)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        v = rng.standard_normal(n)
        tau = rng.uniform(0.01, 0.99)
        q = sample_quantile(v, tau)
        m = int(np.ceil(n * tau - 1e-9))
        assert q == np.sort(v)[min(max(m, 1), n) - 1]


def test_sample_quantile_minimizes_check_loss():
    rng = np.random.default_rng(34)
    for _ in range(150):
        n = int(rng.integers(1, 25))
        v = np.round(rng.standard_normal(n) * 3, 1)   # ties likely
        tau = rng.uniform(0.05, 0.95)
        q = sample_quantile(v, tau)
        _, best = quantile_objective_scan(v, tau)
        got = sum(check_loss_scalar(x - q, tau) for x in v)
        assert got <= best + 1e-9


def test_sample_quantile_errors():
    with pytest.raises(ValueError):
        sample_quantile([], 0.5)
    with pytest.raises(ValueError):
        sample_quantile([1.0, np.inf], 0.5)
    with pytest.raises(ValueError):
        sample_quantile([1.0], 0.0)


# ---------------------------------------------------------------------------
# stack_composite: the stacked design the test oracles build for themselves
# ---------------------------------------------------------------------------

def test_stack_composite_small_example():
    data = Dataset(X=np.array([[5.0], [7.0]]), Y=np.array([1.0, 2.0]))
    levels = QuantileLevels(np.array([0.1, 0.9]))
    Xs, Ys, taus = stack_composite(data, levels)
    assert_allclose(Xs, [[1.0, 0.0, 5.0],
                         [1.0, 0.0, 7.0],
                         [0.0, 1.0, 5.0],
                         [0.0, 1.0, 7.0]])
    assert_allclose(Ys, [1.0, 2.0, 1.0, 2.0])
    assert_allclose(taus, [0.1, 0.1, 0.9, 0.9])
    assert Xs.shape == (2 * 2, 2 + 1)     # (n K, K + p) at n = 2, p = 1, K = 2


def test_stack_composite_single_level_is_plain_design():
    rng = np.random.default_rng(40)
    X = rng.standard_normal((6, 3))
    Y = rng.standard_normal(6)
    Xs, _, taus = stack_composite(Dataset(X, Y), QuantileLevels.single(0.25))
    assert Xs.shape == (6, 4)
    assert_allclose(Xs[:, 0], 1.0)
    assert_allclose(Xs[:, 1:], X)
    assert_allclose(taus, 0.25)


def test_stack_composite_rank_identity():
    # rank of the stacked design is K - 1 + rank([1 X]); for generic X with
    # n > p this equals K + rank(X), and the design goes rank-deficient
    # exactly when p >= n (the intercept enters the column space of X)
    rng = np.random.default_rng(41)
    for n, p, K in [(8, 3, 1), (8, 3, 4), (4, 7, 3), (6, 6, 2)]:
        X = rng.standard_normal((n, p))
        data = Dataset(X, rng.standard_normal(n))
        Xs, _, _ = stack_composite(data, QuantileLevels.grid(K))
        augmented = np.column_stack([np.ones(n), X])
        assert np.linalg.matrix_rank(Xs) == K - 1 + np.linalg.matrix_rank(augmented)
        if n > p:
            assert np.linalg.matrix_rank(Xs) == K + np.linalg.matrix_rank(X)


def test_stack_composite_intercept_only():
    data = Dataset(np.zeros((3, 0)), np.array([1.0, 2.0, 3.0]))
    Xs, _, _ = stack_composite(data, QuantileLevels(np.array([0.2, 0.8])))
    assert Xs.shape == (6, 2)


# ---------------------------------------------------------------------------
# adaptive_weights
# ---------------------------------------------------------------------------

def test_adaptive_weights_values():
    w, active = adaptive_weights(np.array([2.0, 0.5, -0.1]))
    assert_allclose(w, [0.25, 4.0, 100.0])
    assert active.all()


def test_adaptive_weights_floor():
    w, active = adaptive_weights(np.array([1e-7, 1.0, -1e-9, 0.0]))
    assert list(active) == [False, True, False, False]
    assert_allclose(w, [0.0, 1.0, 0.0, 0.0])
    # the floor itself is active
    _, active = adaptive_weights(np.array([1e-6]))
    assert active[0]


def test_adaptive_weights_errors():
    with pytest.raises(ValueError):
        adaptive_weights(np.array([[1.0]]))
    with pytest.raises(ValueError):
        adaptive_weights(np.array([np.nan]))


# ---------------------------------------------------------------------------
# objective / penalty_value
# ---------------------------------------------------------------------------

def test_objective_hand_computed():
    data = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 3.0]))
    levels = QuantileLevels.single(0.5)
    # residuals at b=0, beta=1: (0, 1) -> 0.5 * 1
    assert objective(data, [0.0], [1.0], levels, PenaltySpec.none()) == pytest.approx(0.5)
    # tau = 0.3, residuals (-1, +1) at b=2, beta=0: 0.7 + 0.3
    assert objective(data, [2.0], [0.0], levels=QuantileLevels.single(0.3),
                     penalty=PenaltySpec.none()) == pytest.approx(1.0)


def test_objective_composite_hand_computed():
    data = Dataset(np.array([[1.0]]), np.array([2.0]))
    levels = QuantileLevels(np.array([0.25, 0.75]))
    # level 1: r = 2 - 1 - 1 = 0; level 2: r = 2 - 0 - 1 = 1 -> 0.75
    val = objective(data, [1.0, 0.0], [1.0], levels, PenaltySpec.none())
    assert val == pytest.approx(0.75)


def test_objective_matches_stacked_loop():
    rng = np.random.default_rng(50)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        p = int(rng.integers(0, 4))
        K = int(rng.integers(1, 4))
        data = Dataset(rng.standard_normal((n, p)), rng.standard_normal(n))
        levels = QuantileLevels(np.sort(rng.uniform(0.05, 0.95, K)) if K > 1
                                else np.array([rng.uniform(0.05, 0.95)]))
        if np.any(np.diff(levels.taus) <= 0):
            continue
        Xs, Ys, taus = stack_composite(data, levels)
        b = rng.standard_normal(K)
        beta = rng.standard_normal(p)
        theta = np.concatenate([b, beta])
        want = stacked_objective_loop(Xs, Ys, taus, theta)
        got = objective(data, b, beta, levels, PenaltySpec.none())
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_stacked_products_match_the_materialized_design():
    # the blockwise products against the oracle's explicit stacked design
    rng = np.random.default_rng(51)
    for n, p, K in [(7, 3, 1), (5, 2, 4), (4, 0, 2), (3, 6, 3)]:
        data = Dataset(rng.standard_normal((n, p)), rng.standard_normal(n))
        levels = QuantileLevels.grid(K)
        Xs, Ys, taus = stack_composite(data, levels)
        theta = rng.standard_normal(K + p)
        V = rng.standard_normal((K, n))
        D = rng.uniform(0.1, 2.0, (K, n))
        assert_allclose(stacked_fit(data.X, theta).ravel(), Xs @ theta,
                        rtol=1e-13, atol=1e-13)
        assert_allclose(stacked_tdot(data.X, V), Xs.T @ V.ravel(),
                        rtol=1e-13, atol=1e-13)
        assert_allclose(stacked_gram(data.X, D), Xs.T @ (D.ravel()[:, None] * Xs),
                        rtol=1e-13, atol=1e-13)
        R = (Ys - Xs @ theta).reshape(K, n)
        want = stacked_objective_loop(Xs, Ys, taus, theta)
        assert fidelity(R, levels.taus) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_cholesky_judges_a_roundoff_pivot_singular():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((100, 4))
    X[:, 3] = X[:, 0] + X[:, 1]
    G = stacked_gram(X, np.ones((1, 100)))
    np.linalg.cholesky(G)     # succeeds, on a pivot of relative size 1e-16
    U, ridge = cholesky(G)
    assert ridge
    ridged = G + 1e-8 * np.trace(G) / 5 * np.eye(5)
    assert_allclose(np.triu(U).T @ np.triu(U), ridged, rtol=1e-10, atol=1e-12)
    # full rank, with columns in very different units and very uneven row
    # weights: factored as it is, unless a fit's earlier verdict says ridge
    X[:, 3] = rng.standard_normal(100)
    X *= [1e8, 1e-6, 1.0, 1.0]
    X[:, 3] += 100.0
    G = stacked_gram(X, np.exp(rng.uniform(-8.0, 8.0, (1, 100))))
    assert not cholesky(G)[1]
    assert cholesky(G, ridge=True)[1]


def test_penalty_value_adaptive():
    pen = PenaltySpec.adaptive_lasso(lam=2.0, pilot=np.array([1.0, 0.5, 1e-9]))
    # weights (1, 4, inactive); beta = (0.3, -0.2, 0)
    val = penalty_value(np.array([0.3, -0.2, 0.0]), pen)
    assert val == pytest.approx(2.0 * (1.0 * 0.3 + 4.0 * 0.2))
    # nonzero coordinate that the pilot excluded: infeasible
    assert penalty_value(np.array([0.0, 0.0, 0.1]), pen) == np.inf
    assert penalty_value(np.array([0.0, 0.0, 0.0]), pen) == 0.0


def test_objective_includes_penalty():
    data = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 3.0]))
    levels = QuantileLevels.single(0.5)
    pen = PenaltySpec.adaptive_lasso(lam=1.0, pilot=np.array([2.0]))
    base = objective(data, [0.0], [1.0], levels, PenaltySpec.none())
    got = objective(data, [0.0], [1.0], levels, pen)
    assert got == pytest.approx(base + 0.25)


def test_objective_shape_errors():
    data = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 3.0]))
    levels = QuantileLevels(np.array([0.2, 0.8]))
    with pytest.raises(ValueError):
        objective(data, [0.0], [1.0], levels, PenaltySpec.none())   # K mismatch
    with pytest.raises(ValueError):
        objective(data, [0.0, 0.0], [1.0, 2.0], levels, PenaltySpec.none())
    pytest.raises(ValueError, objective, data, [0.0, np.inf], [1.0], levels,
                  PenaltySpec.none())                        # not finite


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), np.zeros(3))           # X not 2-D
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros((3, 1)))  # Y not 1-D
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4))       # length mismatch
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0))       # empty
    with pytest.raises(ValueError):
        Dataset(np.full((2, 2), np.nan), np.zeros(2))


def test_quantile_levels_validation():
    with pytest.raises(ValueError):
        QuantileLevels(np.array([]))
    with pytest.raises(ValueError):
        QuantileLevels(np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        QuantileLevels(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        QuantileLevels(np.array([0.7, 0.3]))
    pytest.raises(ValueError, QuantileLevels.grid, 0)
    levels = QuantileLevels.grid(9)
    assert_allclose(levels.taus, np.arange(1, 10) / 10.0)
    assert levels.K == 9


def test_quantile_levels_must_be_finite():
    # a NaN level fails every comparison, so each bound must hold, not
    # merely not be broken
    for taus in ([np.nan], [0.3, np.nan], [0.3, np.inf], [-np.inf, 0.5]):
        with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
            QuantileLevels(np.array(taus))
    with pytest.raises(ValueError, match="distinct and increasing"):
        QuantileLevels(np.array([0.5, 0.5]))


def test_penalty_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec(kind="ridge")
    with pytest.raises(ValueError):
        PenaltySpec.adaptive_lasso(lam=-1.0, pilot=np.array([1.0]))
    with pytest.raises(ValueError):
        PenaltySpec.adaptive_lasso(lam=1.0, pilot=None)
    assert not PenaltySpec.none().regularized
    assert PenaltySpec.adaptive_lasso(0.5, np.array([1.0])).regularized


def test_solver_options_defaults_and_validation():
    opts = SolverOptions()
    assert opts.max_iter == 5000
    assert opts.tol == 1e-4
    assert opts.rho == 1.2
    assert opts.eps_mm == 1e-4
    assert opts.eps_abs == 1e-2
    assert opts.eps_rel == 1e-4
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    with pytest.raises(ValueError):
        SolverOptions(tol=-1e-5)
    with pytest.raises(ValueError):
        SolverOptions(rho=0.0)
    pytest.raises(ValueError, SolverOptions, eps_rel=-1e-4)
