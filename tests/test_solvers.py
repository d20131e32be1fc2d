import re

import numpy as np
import pytest
from conftest import gd_minimize

import csl.solvers
from csl.cluster import Cluster
from csl.datagen import gen_logistic
from csl.errors import DataError, NonConvergenceError
from csl.experiments import ExperimentConfig, _mest_trial
from csl.losses import DataShard, LossModel, ShardLoss
from csl.solvers import SolverSettings, local_fit, newton_minimize, run_fit


def quadratic_objective(target):
    target = np.asarray(target, dtype=np.float64)

    def objective(theta, order):
        diff = theta - target
        return (0.5 * float(diff @ diff), diff, np.eye(target.size))[:order + 1]

    return objective


def test_quadratic_converges_in_one_step():
    target = np.array([3.0, -1.5, 0.25])
    orders = []
    base = quadratic_objective(target)

    def counting(theta, order):
        orders.append(order)
        return base(theta, order)

    result = newton_minimize(counting, np.zeros(3))
    np.testing.assert_allclose(result, target, rtol=0, atol=1e-12)
    # the start's gradient, its Hessian, one line-search probe, the final check
    assert orders == [1, 2, 0, 1]


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
    fit = local_fit(ShardLoss(model, shard))
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
        local_fit(ShardLoss(LossModel.logistic(), shard), settings)
    err = info.value
    assert err.last_iterate is not None and np.all(np.isfinite(err.last_iterate))
    assert err.gradient_norm is not None and err.gradient_norm > 0.0
    assert err.iterations == 8


def poisson_objective(x, y):
    """The Poisson negative log-likelihood mean(exp(u) - y*u), u = x @ theta,
    as plain numpy, with the values of the order-0 calls logged. exp
    overflows to inf silently."""
    n, candidates = len(y), []

    def objective(theta, order):
        u = x @ theta
        with np.errstate(over="ignore"):
            mu = np.exp(u)
        value = float(np.mean(mu - y * u))
        if order == 0:
            candidates.append(value)
        derivatives = (x.T @ (mu - y) / n, (x * mu[:, None]).T @ x / n) if order else ()
        return (value, *derivatives[:order])

    return objective, candidates


def test_nonfinite_candidate_is_backtracked_not_fatal():
    # Counts near 1000 with an intercept: the first full Newton step from zero
    # puts u near 1000, where exp overflows. The line search has to shrink
    # past the overflow instead of crashing.
    rng = np.random.default_rng(23)
    x = np.column_stack([np.ones(50), rng.standard_normal(50)])
    y = rng.poisson(1000.0, size=50).astype(float)
    objective, candidates = poisson_objective(x, y)
    fit = newton_minimize(objective, np.zeros(2))
    assert candidates[0] == np.inf
    value, grad = objective(fit, 1)
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
        shard = DataShard(x=x, y=y)
        objective, calls = counting_shard_objective(shard)
        # start far out so that some steps backtrack
        newton_minimize(objective, np.full(3, 6.0))
        orders = "".join(str(order) for order, _ in calls)
        # a gradient, then per step a Hessian, value-only probes and a gradient
        assert re.fullmatch(r"1(20+1)*", orders)
        steps = orders.count("1") - 1
        assert orders.count("2") == steps > 0
        assert orders.count("0") > steps  # some probe was rejected
        fresh = ShardLoss(LossModel.logistic(), shard)
        for (_, at), (order, theta) in zip(calls, calls[1:]):
            if order:  # a Hessian at the gradient's point, a gradient at the accepted probe
                assert theta.tobytes() == at.tobytes()
            if order == 2:
                assert np.max(np.abs(fresh.gradient(theta))) > SolverSettings().grad_tol

    def test_hessians_are_iterations(self):
        # separable labels exhaust the budget, so the reported iteration
        # count is the number of Newton steps taken
        x = np.concatenate([np.ones((20, 1)), -np.ones((20, 1))])
        y = np.concatenate([np.ones(20), np.zeros(20)])
        objective, calls = counting_shard_objective(DataShard(x=x, y=y))
        with pytest.raises(NonConvergenceError) as info:
            newton_minimize(objective, np.zeros(1), SolverSettings(max_iters=8))
        orders = [order for order, _ in calls]
        assert orders.count(2) == info.value.iterations == 8
        assert orders.count(1) == 9
        assert orders.count(0) == len(orders) - 17


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


def counting_newton(monkeypatch):
    """Count the Newton fits run through :mod:`csl.solvers` from here on."""
    real, fits = csl.solvers.newton_minimize, []

    def counted(objective, theta0, settings=SolverSettings()):
        fits.append(settings)
        return real(objective, theta0, settings)

    monkeypatch.setattr(csl.solvers, "newton_minimize", counted)
    return fits


class TestFitMemory:
    def test_a_repeated_request_is_fitted_once_and_copied(self, monkeypatch):
        data, _ = gen_logistic(3, 200, 71)
        model = LossModel.logistic()
        fits = counting_newton(monkeypatch)
        first = run_fit(SolverSettings(), ShardLoss(model, data))
        kept = first.copy()
        first[:] = np.nan
        # a new evaluator on the same shard reads the shard's fit
        again = run_fit(SolverSettings(), ShardLoss(model, data))
        assert len(fits) == 1
        assert again.tobytes() == kept.tobytes() == local_fit(ShardLoss(model, data)).tobytes()
        tighter = SolverSettings(grad_tol=1e-12)
        run_fit(tighter, ShardLoss(model, data))
        assert fits[1:] == [SolverSettings(), tighter]  # local_fit, then the new request

    def test_a_fit_that_raises_is_not_remembered(self, monkeypatch):
        # separable labels: every Newton fit exhausts its budget
        x = np.concatenate([np.ones((20, 1)), -np.ones((20, 1))])
        loss = ShardLoss(LossModel.logistic(),
                         DataShard(x=x, y=np.repeat([1.0, 0.0], 20)))
        fits = counting_newton(monkeypatch)
        for _ in range(2):
            with pytest.raises(NonConvergenceError):
                run_fit(SolverSettings(max_iters=3), loss)
        assert len(fits) == 2

    def test_an_mest_trial_runs_one_newton_fit_fewer(self, monkeypatch):
        n, k = 200, 3
        data, theta_star = gen_logistic(3, n * k, 73)
        cluster = Cluster.from_pooled(LossModel.logistic(), data.x, data.y, k)
        config = ExperimentConfig(experiment="MestSweepK", d=3, n=(n,),
                                  k=(k,), trials=1)
        fits = counting_newton(monkeypatch)
        _mest_trial(config, cluster, theta_star, 1, lambda *row: None)
        # the pooled fit and the k local fits; the subsample fit is the
        # coordinator's fit of the averaging round
        assert len(fits) == k + 1
