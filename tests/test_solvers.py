import numpy as np
import pytest
from conftest import gd_minimize

from csl.errors import DataError, NonConvergenceError
from csl.losses import DataShard, LossModel, ShardLoss
from csl.solvers import SolverSettings, minimize_shard_loss, newton_minimize


def quadratic_objective(target):
    target = np.asarray(target, dtype=np.float64)

    def objective(theta, order):
        diff = theta - target
        return (0.5 * float(diff @ diff), diff, np.eye(target.size))[:order + 1]

    return objective


def test_quadratic_converges_in_one_step():
    target = np.array([3.0, -1.5, 0.25])
    calls = {"count": 0}
    base = quadratic_objective(target)

    def counting(theta, order):
        calls["count"] += 1
        return base(theta, order)

    result = newton_minimize(counting, np.zeros(3))
    np.testing.assert_allclose(result, target, rtol=0, atol=1e-12)
    # one model evaluation at the start, one line-search probe, one final check
    assert calls["count"] <= 3


def test_already_optimal_start_returns_immediately():
    target = np.array([1.0, 2.0])
    result = newton_minimize(quadratic_objective(target), target.copy())
    np.testing.assert_array_equal(result, target)


def test_logistic_fit_matches_first_order_oracle():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((200, 3))
    truth = np.array([0.5, -0.25, 1.0])
    y = (rng.uniform(size=200) < 1.0 / (1.0 + np.exp(-x @ truth))).astype(float)
    shard = DataShard(x=x, y=y)
    model = LossModel.logistic()
    fit = minimize_shard_loss(model, shard)
    oracle = gd_minimize(lambda t: ShardLoss(model, shard).eval(t, 1), np.zeros(3))
    np.testing.assert_allclose(fit, oracle, rtol=0, atol=1e-7)


def test_start_point_does_not_change_answer():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((150, 4))
    y = (rng.uniform(size=150) < 0.5).astype(float)
    shard = DataShard(x=x, y=y)
    model = LossModel.logistic()
    loss = ShardLoss(model, shard)
    a = newton_minimize(loss.eval, np.zeros(4))
    b = newton_minimize(loss.eval, np.full(4, 2.0))
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-7)


def test_separable_logistic_raises_nonconvergence_with_payload():
    # Perfectly separated labels: the minimizer sits at infinity. With a small
    # iteration budget the solver must fail loudly and hand back its state.
    x = np.concatenate([np.ones((20, 1)), -np.ones((20, 1))])
    y = np.concatenate([np.ones(20), np.zeros(20)])
    shard = DataShard(x=x, y=y)
    settings = SolverSettings(max_iters=8)
    with pytest.raises(NonConvergenceError) as info:
        minimize_shard_loss(LossModel.logistic(), shard, settings)
    err = info.value
    assert err.last_iterate is not None and np.all(np.isfinite(err.last_iterate))
    assert err.gradient_norm is not None and err.gradient_norm > 0.0
    assert err.iterations == 8


def test_nonfinite_candidate_is_backtracked_not_fatal():
    # Poisson loss overflows for big steps; the line search has to shrink past
    # the overflow instead of crashing.
    rng = np.random.default_rng(23)
    x = rng.standard_normal((50, 2))
    y = rng.poisson(1.5, size=50).astype(float)
    shard = DataShard(x=x, y=y)
    fit = minimize_shard_loss(LossModel.glm("log"), shard)
    value, grad = ShardLoss(LossModel.glm("log"), shard).eval(fit, 1)
    assert np.isfinite(value)
    assert np.max(np.abs(grad)) <= 1e-8


def counting_shard_objective(shard):
    """ShardLoss.eval on a logistic shard, logging (order, theta) per call."""
    loss = ShardLoss(LossModel.logistic(), shard)
    calls = []

    def objective(theta, order):
        calls.append((order, np.array(theta)))
        return loss.eval(theta, order)

    return objective, calls


class TestObjectiveOrders:
    def test_line_search_asks_for_values_only(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((120, 3))
        y = (rng.uniform(size=120) < 1.0 / (1.0 + np.exp(-x @ np.array([2.0, -1.0, 0.5])))
             ).astype(float)
        objective, calls = counting_shard_objective(DataShard(x=x, y=y))
        # start far out so that some steps backtrack
        newton_minimize(objective, np.full(3, 6.0))
        orders = [order for order, _ in calls]
        assert set(orders) == {0, 2}
        steps = orders.count(2) - 1
        assert orders[0] == 2
        assert orders.count(0) > steps  # some probe was rejected
        # every Hessian after the first is taken at the accepted probe
        for i, (order, theta) in enumerate(calls[1:], start=1):
            if order == 2:
                assert calls[i - 1][0] == 0
                np.testing.assert_array_equal(theta, calls[i - 1][1])

    def test_hessians_are_iterations_plus_one(self):
        # separable labels exhaust the budget, so the reported iteration
        # count is the number of Newton steps taken
        x = np.concatenate([np.ones((20, 1)), -np.ones((20, 1))])
        y = np.concatenate([np.ones(20), np.zeros(20)])
        objective, calls = counting_shard_objective(DataShard(x=x, y=y))
        with pytest.raises(NonConvergenceError) as info:
            newton_minimize(objective, np.zeros(1), SolverSettings(max_iters=8))
        orders = [order for order, _ in calls]
        assert orders.count(2) == info.value.iterations + 1 == 9
        assert orders.count(0) == len(orders) - 9


class TestSettingsValidation:
    def test_rejects_bad_tolerance(self):
        with pytest.raises(DataError):
            SolverSettings(grad_tol=0.0)

    def test_max_iters_bounded_by_the_wire_field(self):
        with pytest.raises(DataError):
            SolverSettings(max_iters=0)
        with pytest.raises(DataError):
            SolverSettings(max_iters=2 ** 32)
        assert SolverSettings(max_iters=2 ** 32 - 1).max_iters == 2 ** 32 - 1

    def test_rejects_nonvector_start(self):
        with pytest.raises(DataError):
            newton_minimize(quadratic_objective(np.ones(2)), np.zeros((2, 2)))


class TestErrorPaths:
    def test_singular_hessian_is_damped_and_the_fit_converges(self):
        # An all-zero column leaves a zero row and column in the Hessian, so
        # the undamped Cholesky factorization fails at the start.
        rng = np.random.default_rng(25)
        x = np.column_stack([rng.standard_normal((100, 2)), np.zeros(100)])
        y = (rng.uniform(size=100) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(float)
        loss = ShardLoss(LossModel.logistic(), DataShard(x=x, y=y))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(loss.eval(np.zeros(3), 2)[2])
        fit = newton_minimize(loss.eval, np.zeros(3))
        assert fit[2] == 0.0
        assert np.max(np.abs(loss.eval(fit, 1)[1])) <= 1e-8

    def test_line_search_stall_raises_with_the_start(self):
        def objective(theta, order):  # finite only at zero
            value = 0.0 if not np.any(theta) else np.inf
            return (value, np.ones(2), np.eye(2))[:order + 1]

        with pytest.raises(NonConvergenceError,
                           match="line search stalled at iteration 0") as info:
            newton_minimize(objective, np.zeros(2))
        np.testing.assert_array_equal(info.value.last_iterate, np.zeros(2))
        assert info.value.iterations == 0

    def test_nonfinite_gradient_raises_at_iteration_zero(self):
        def objective(theta, order):
            return (0.0, np.array([np.nan, 1.0]), np.eye(2))[:order + 1]

        with pytest.raises(NonConvergenceError,
                           match="non-finite gradient at iteration 0") as info:
            newton_minimize(objective, np.zeros(2))
        assert info.value.iterations == 0

    def test_damping_gives_up_on_a_hugely_negative_hessian(self):
        def objective(theta, order):
            return (0.0, np.ones(2), -1e12 * np.eye(2))[:order + 1]

        with pytest.raises(NonConvergenceError, match="heavy damping") as info:
            newton_minimize(objective, np.zeros(2))
        assert info.value.gradient_norm == 1.0
