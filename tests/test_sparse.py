import re
from types import SimpleNamespace

import numpy as np
import pytest

import csl.solvers
import csl.sparse
from csl.cluster import Cluster, CommLedger
from csl.datagen import derive_rng, gen_sparse_linear
from csl.errors import DataError, NonConvergenceError
from csl.experiments import ExperimentConfig, _lasso_trial
from csl.losses import DataShard, LossModel, ShardLoss
from csl.solvers import (L1Settings, LassoFit, _stationarity_ok, _working_set_lasso, fista_l1,
                         lambda_heuristic, soft_threshold)
from csl.sparse import averaging_lasso, csl_lasso, local_lasso
from csl.surrogate import build_surrogate

from conftest import enumerate_lasso_d3


def shard_objective(model, shard):
    return ShardLoss(model, shard).eval


def small_design(seed=3, n=30, d=3):
    rng = derive_rng(seed, "lasso-small")
    x = rng.normal(size=(n, d))
    theta_star = np.array([1.5, 0.0, -0.8])
    y = x @ theta_star + 0.3 * rng.normal(size=n)
    return DataShard(x=x, y=y), theta_star


class TestSoftThreshold:
    def test_componentwise_shrinkage(self):
        v = np.array([3.0, -3.0, 0.5, -0.5, 0.0])
        np.testing.assert_array_equal(soft_threshold(v, 1.0),
                                      [2.0, -2.0, 0.0, 0.0, 0.0])

    def test_zero_threshold_is_identity(self):
        v = np.array([1.2, -0.7])
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)


class TestFista:
    def test_unpenalized_limit_is_least_squares(self):
        shard, _ = small_design()
        fit = fista_l1(shard_objective(LossModel.linear(), shard), 0.0,
                       np.zeros(3), L1Settings(tol=1e-12))
        want, *_ = np.linalg.lstsq(shard.x, shard.y, rcond=None)
        np.testing.assert_allclose(fit.theta, want, atol=1e-6)

    def test_matches_sign_pattern_enumeration(self):
        shard, _ = small_design()
        for lam in (0.05, 0.3, 1.0, 3.0):
            fit = fista_l1(shard_objective(LossModel.linear(), shard), lam,
                           np.zeros(3), L1Settings(tol=1e-12))
            theta_exact, obj_exact = enumerate_lasso_d3(shard.x, shard.y, lam)
            np.testing.assert_allclose(fit.theta, theta_exact, atol=1e-6)
            assert fit.objective_value == pytest.approx(obj_exact, abs=1e-9)

    def test_certificate_holds_at_the_solution(self):
        shard, _ = small_design(seed=5)
        lam = 0.4
        fit = fista_l1(shard_objective(LossModel.linear(), shard), lam,
                       np.zeros(3), L1Settings(tol=1e-10))
        _, grad = ShardLoss(LossModel.linear(), shard).eval(fit.theta, 1)
        slack = 1e-6
        for j in range(3):
            if fit.theta[j] != 0.0:
                assert abs(grad[j] + lam * np.sign(fit.theta[j])) < slack
            else:
                assert abs(grad[j]) <= lam + slack

    def test_accepted_objectives_never_increase(self):
        shard, _ = small_design(seed=7)
        seen = []
        base = shard_objective(LossModel.linear(), shard)

        def spying(theta, order):
            out = base(theta, order)
            seen.append((theta.copy(), out[0]))
            return out

        lam = 0.2
        fit = fista_l1(spying, lam, np.zeros(3), L1Settings(tol=1e-10))
        composite = [v + lam * np.abs(t).sum() for t, v in seen
                     if np.array_equal(t, t)]  # keep order
        # the accepted sequence is a subsequence of evaluations; check the
        # final value is the running minimum of everything evaluated
        assert fit.objective_value <= min(composite) + 1e-12

    def test_huge_penalty_returns_exact_zero(self):
        shard, _ = small_design(seed=9)
        fit = fista_l1(shard_objective(LossModel.linear(), shard), 1e6,
                       np.full(3, 0.5), L1Settings())
        np.testing.assert_array_equal(fit.theta, np.zeros(3))
        assert fit.support.size == 0

    def test_near_zero_coordinates_are_snapped(self):
        shard, _ = small_design(seed=11)
        fit = fista_l1(shard_objective(LossModel.linear(), shard), 0.9,
                       np.zeros(3), L1Settings(tol=1e-12))
        on = fit.theta != 0.0
        assert np.all(np.abs(fit.theta[on]) > 1e-12)
        assert sorted(fit.support.tolist()) == np.nonzero(on)[0].tolist()

    def test_tight_tolerance_fits_end_at_their_fixed_point(self):
        # At tol=1e-12 the composite gap falls below one ulp of the objective
        # and every step from the iterate is rejected by rounding; the fit
        # must end there instead of retaking that step to the budget.
        shard, _ = small_design()
        settings = L1Settings(tol=1e-12)
        for lam in (0.0, 0.05, 0.3, 1.0, 3.0):
            fit = fista_l1(shard_objective(LossModel.linear(), shard), lam,
                           np.zeros(3), settings)
            assert fit.iterations < 100, lam
            passes = local_lasso(LossModel.linear(), shard, lam=lam, settings=settings)
            assert passes.iterations < 100, lam

    def test_probes_ask_for_values_and_iterations_for_one_gradient(self):
        shard, _ = small_design(seed=7)
        base = shard_objective(LossModel.linear(), shard)
        calls = []

        def counting(theta, order):
            calls.append(order)
            return base(theta, order)

        # start far out so that some steps backtrack
        fit = fista_l1(counting, 0.2, np.full(3, 8.0), L1Settings(tol=1e-10))
        assert set(calls) == {0, 1}
        # start value, then per iteration one gradient at the extrapolated
        # point, one or more value-only probes and an optional stationarity
        # check, then the final value
        orders = "".join(str(order) for order in calls)
        assert re.fullmatch(r"0(?:10+1?)*0", orders)
        middle = orders[1:-1]
        assert middle.count("10") == fit.iterations
        # a check is a gradient not followed by a probe; the last one passed
        assert fit.converged and middle.endswith("1")
        checks = middle.count("11") + 1
        assert calls.count(1) == fit.iterations + checks
        assert calls.count(0) > fit.iterations + 2  # some probe was rejected

    def test_backtracking_exhaustion_raises_with_the_start(self):
        def objective(theta, order):
            return (0.0 if not np.any(theta) else np.inf, np.ones(2))[:order + 1]

        with pytest.raises(NonConvergenceError, match="backtracking exhausted") as info:
            fista_l1(objective, 0.5, np.zeros(2))
        np.testing.assert_array_equal(info.value.last_iterate, np.zeros(2))
        assert info.value.iterations == 1

    def test_settings_validated(self):
        with pytest.raises(DataError):
            L1Settings(tol=-1.0)
        with pytest.raises(DataError):
            L1Settings(max_iters=0)
        with pytest.raises(DataError):
            L1Settings(max_iters=2 ** 32)  # past the lasso request's u32 field


class TestCalibration:
    def test_lambda_heuristic_formula(self):
        lam = lambda_heuristic(2.0, 100, 400)
        assert lam == pytest.approx(2.0 * 2.0 * np.sqrt(np.log(100) / 400))

    def test_scale_is_linear(self):
        assert lambda_heuristic(1.0, 50, 100, scale=4.0) == pytest.approx(
            2 * lambda_heuristic(1.0, 50, 100, scale=2.0))


def sparse_cluster(k, n_per_shard=200, d=40, s=4, sigma=0.5, seed=29):
    shards, theta_star = gen_sparse_linear(
        d=d, n=n_per_shard, k=k, s=s, sigma=sigma, seed_or_rng=seed)
    return Cluster(LossModel.linear(), shards), theta_star


class TestCslLasso:
    def test_costs_exactly_one_gradient_round(self):
        cluster, theta_star = sparse_cluster(k=4)
        csl_lasso(cluster, anchor=np.zeros(cluster.d), lam=0.2)
        assert cluster.ledger.vectors_sent == 2 * 3
        assert cluster.ledger.rounds == 1
        assert cluster.ledger.samples_moved == 0

    def test_single_machine_equals_plain_lasso(self):
        cluster, _ = sparse_cluster(k=1, n_per_shard=300)
        lam = 0.15
        surrogate_fit = csl_lasso(cluster, anchor=np.zeros(cluster.d), lam=lam,
                                  settings=L1Settings(tol=1e-12))
        direct = local_lasso(cluster.model, cluster.shards[0], lam=lam,
                             settings=L1Settings(tol=1e-12))
        np.testing.assert_allclose(surrogate_fit.theta, direct.theta, atol=1e-7)

    def test_recovers_planted_support(self):
        cluster, theta_star = sparse_cluster(k=8, n_per_shard=150, d=60, s=3)
        local = local_lasso(cluster.model, cluster.shards[0], lambda_heuristic(0.5, 60, 150))
        fit = csl_lasso(cluster, local.theta, lambda_heuristic(0.5, 60, cluster.n_total))
        true_support = set(np.nonzero(theta_star)[0].tolist())
        assert true_support <= set(fit.support.tolist())
        err = float(np.linalg.norm(fit.theta - theta_star))
        err_local = float(np.linalg.norm(local.theta - theta_star))
        assert err < err_local

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -0.1])
    def test_penalty_is_finite_and_nonnegative(self, lam):
        # NaN or inf would pass every stationarity check and come back
        # "converged" after 0 iterations with a NaN objective
        cluster, _ = sparse_cluster(k=3)
        with pytest.raises(DataError, match="finite value >= 0"):
            local_lasso(cluster.model, cluster.shards[0], lam=lam)
        with pytest.raises(DataError, match="finite value >= 0"):
            csl_lasso(cluster, anchor=np.zeros(cluster.d), lam=lam)
        assert cluster.ledger == CommLedger()  # rejected before the gradient round

    def test_identical_shards_make_anchor_a_fixed_point(self):
        # when every shard holds the same rows the surrogate equals the pooled
        # loss, so re-anchoring at the solution must return the solution
        rng = derive_rng(31, "identical")
        x = rng.normal(size=(80, 5))
        theta_star = np.array([2.0, 0.0, 0.0, -1.0, 0.0])
        y = x @ theta_star + 0.2 * rng.normal(size=80)
        shard = DataShard(x=x, y=y)
        cluster = Cluster(LossModel.linear(), [shard, shard, shard])
        lam = 0.1
        first = csl_lasso(cluster, anchor=np.zeros(5), lam=lam,
                          settings=L1Settings(tol=1e-12))
        again = csl_lasso(cluster, anchor=first.theta, lam=lam,
                          settings=L1Settings(tol=1e-12))
        np.testing.assert_allclose(again.theta, first.theta, atol=1e-7)


class TestIterativeCslLasso:
    """csl_lasso re-anchored at its own fit, round after round."""

    def test_contracts_to_the_pooled_solution(self):
        # with a fixed penalty the re-anchoring fixed point satisfies the
        # pooled stationarity condition, so iterates home in on the fit a
        # single machine holding all the data would produce
        cluster, _ = sparse_cluster(k=8, d=40, s=4, seed=37)
        lam = 0.08
        pooled = local_lasso(cluster.model, cluster.pooled_shard(meter=False),
                             lam=lam, settings=L1Settings(tol=1e-12))
        tight = L1Settings(tol=1e-12)
        start = local_lasso(cluster.model, cluster.shards[0],
                            lambda_heuristic(0.5, cluster.d, 200), tight).theta
        fits = []
        for _ in range(4):
            fits.append(csl_lasso(cluster, anchor=start, lam=lam, settings=tight))
            start = fits[-1].theta
        assert cluster.ledger.vectors_sent == 4 * 2 * (cluster.k - 1)
        dists = [float(np.linalg.norm(f.theta - pooled.theta)) for f in fits]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-4


class TestAveragingLasso:
    def test_is_mean_of_local_fits(self):
        cluster, _ = sparse_cluster(k=4, seed=41)
        lam = 0.25
        fit = averaging_lasso(cluster, lam=lam)
        locals_ = [local_lasso(cluster.model, shard, lam=lam)
                   for shard in cluster.shards]
        want = np.zeros(cluster.d)
        for one in locals_:
            want = want + one.theta
        want /= 4
        want[np.abs(want) < 1e-12] = 0.0
        np.testing.assert_array_equal(fit.theta, want)
        objective = 0.0
        for one in locals_:
            objective = objective + one.objective_value
        assert fit.objective_value == objective / 4

    def test_ledger_charges_one_reply_per_remote_worker(self):
        cluster, _ = sparse_cluster(k=5)
        averaging_lasso(cluster, lam=0.3)
        assert cluster.ledger.vectors_sent == 4
        assert cluster.ledger.rounds == 1

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -0.1])
    def test_penalty_is_finite_and_nonnegative(self, lam):
        cluster, _ = sparse_cluster(k=3)
        with pytest.raises(DataError, match="lam must be a finite value >= 0"):
            averaging_lasso(cluster, lam=lam)
        assert cluster.ledger.rounds == 0


def wide_shard(seed=43, n=80, d=200, s=5):
    """A d > n linear shard with a planted sparse signal."""
    shards, _ = gen_sparse_linear(d=d, n=n, k=1, s=s, sigma=0.5, seed_or_rng=seed)
    return shards[0]


def zero_off(columns, d, rng):
    theta = np.zeros(d)
    theta[columns] = rng.normal(size=len(columns))
    return theta


def assert_restriction_matches(loss, columns, theta):
    full = loss.eval(theta, 1)
    part = loss.restrict(columns).eval(theta[columns], 1)
    assert part[0] == pytest.approx(full[0], rel=1e-12)
    np.testing.assert_allclose(part[1], full[1][columns], rtol=1e-12,
                               atol=1e-12 * np.abs(full[1]).max())


def count_calls(monkeypatch, module, name, calls):
    """Wrap ``module.name`` so that each call appends its first argument."""
    real = getattr(module, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def assert_same_fit(a, b):
    assert a.theta.tobytes() == b.theta.tobytes()
    assert (a.objective_value, a.iterations, a.converged) == \
        (b.objective_value, b.iterations, b.converged)


class TestFitMemory:
    def test_a_repeated_request_runs_no_fista_and_returns_the_same_bits(self, monkeypatch):
        shard = wide_shard()
        first = local_lasso(LossModel.linear(), shard, lam=0.2)
        fistas = []
        count_calls(monkeypatch, csl.solvers, "fista_l1", fistas)
        again = local_lasso(LossModel.linear(), shard, lam=0.2)
        assert fistas == []
        assert_same_fit(again, first)
        assert again.theta is not first.theta

    def test_changing_a_returned_fit_changes_no_later_result(self):
        cluster, _ = sparse_cluster(k=3)
        first = local_lasso(cluster.model, cluster.shards[0], lam=0.3)
        kept = first.theta.copy()
        first.theta[:] = np.nan
        from_round = averaging_lasso(cluster, lam=0.3)  # reads shard 1's remembered fit
        coordinator = cluster.local_minimizer_round(LassoFit(0.3))[0]
        assert coordinator.theta.tobytes() == kept.tobytes()
        coordinator.theta[:] = np.nan
        assert local_lasso(cluster.model, cluster.shards[0], lam=0.3).theta.tobytes() \
            == kept.tobytes()
        assert np.isfinite(from_round.theta).all()

    def test_another_penalty_settings_or_model_refits(self, monkeypatch):
        rng = derive_rng(61, "memo-models")
        x = rng.normal(size=(60, 12))
        shard = DataShard(x=x, y=(x[:, 0] + rng.normal(size=60) > 0).astype(float))
        local_lasso(LossModel.linear(), shard, lam=0.05)
        fistas = []
        count_calls(monkeypatch, csl.solvers, "fista_l1", fistas)
        for model, lam, settings in [(LossModel.linear(), 0.06, L1Settings()),
                                     (LossModel.linear(), 0.05, L1Settings(tol=1e-9)),
                                     (LossModel.logistic(), 0.05, L1Settings())]:
            fresh = _working_set_lasso(ShardLoss(model, shard), lam, np.zeros(12), settings)
            before = len(fistas)
            assert_same_fit(local_lasso(model, shard, lam=lam, settings=settings), fresh)
            assert len(fistas) > before

    def test_a_lasso_trial_fits_the_coordinator_lasso_once(self, monkeypatch):
        n, k = 40, 3
        shards, theta_star = gen_sparse_linear(d=20, n=n, k=k, s=10, sigma=1.0,
                                               seed_or_rng=67)
        cluster = Cluster(LossModel.linear(), shards)
        config = ExperimentConfig(experiment="LassoFixedn", d=20, n=(n,),
                                  k=(k,), trials=1)
        fitted = []
        count_calls(monkeypatch, csl.solvers, "_working_set_lasso", fitted)
        count_calls(monkeypatch, csl.sparse, "_working_set_lasso", fitted)
        _lasso_trial(config, cluster, theta_star, 1, lambda *row: None)
        # k + 2 fits, not k + 3: the pooled lasso, then at shard scale the
        # coordinator's own lasso (which the round reuses), the surrogate
        # lasso, and the round's k - 1 other shards
        sizes = sorted(getattr(loss, "loss", loss).shard.n_samples for loss in fitted)
        assert sizes == [n] * (k + 1) + [n * k]


class TestRestrict:
    @pytest.mark.parametrize("model", [LossModel.linear(), LossModel.logistic()],
                             ids=["linear", "logistic"])
    def test_shard_loss_on_columns_matches_the_full_loss(self, model):
        rng = derive_rng(47, "restrict", model.family)
        x = rng.normal(size=(60, 25))
        y = ((rng.random(60) < 0.5).astype(float) if model.family == "logistic"
             else rng.normal(size=60))
        loss = ShardLoss(model, DataShard(x=x, y=y))
        columns = np.array([0, 3, 4, 11, 24])
        assert_restriction_matches(loss, columns, zero_off(columns, 25, rng))

    def test_surrogate_on_columns_matches_the_full_surrogate(self):
        cluster, _ = sparse_cluster(k=4)
        rng = derive_rng(53, "restrict-surrogate")
        surr = build_surrogate(cluster, 0.1 * rng.normal(size=cluster.d))
        columns = np.array([1, 2, 7, 30, 39])
        restricted = surr.restrict(columns)
        np.testing.assert_array_equal(restricted.anchor, surr.anchor[columns])
        assert_restriction_matches(surr, columns, zero_off(columns, cluster.d, rng))


class TestWorkingSet:
    tight = L1Settings(tol=1e-12)

    def assert_same_fit(self, fit, full):
        np.testing.assert_array_equal(fit.support, full.support)
        np.testing.assert_allclose(fit.theta, full.theta, atol=1e-6)

    def test_wide_shard_matches_full_column_fista(self):
        shard = wide_shard()
        loss = ShardLoss(LossModel.linear(), shard)
        for lam in (0.1, 0.3):
            fit = local_lasso(LossModel.linear(), shard, lam=lam, settings=self.tight)
            full = fista_l1(loss.eval, lam, np.zeros(shard.n_features), self.tight)
            assert 0 < fit.sparsity < shard.n_samples
            self.assert_same_fit(fit, full)

    def test_surrogate_matches_full_column_fista(self):
        cluster, _ = sparse_cluster(k=4)
        anchor = local_lasso(cluster.model, cluster.shards[0], lam=0.2).theta
        lam = 0.1
        fit = csl_lasso(cluster, anchor=anchor, lam=lam, settings=self.tight)
        full = fista_l1(build_surrogate(cluster, anchor).eval, lam, anchor,
                        self.tight)
        self.assert_same_fit(fit, full)

    def test_converged_fits_pass_the_full_gradient_check(self):
        shard = wide_shard(seed=59)
        loss = ShardLoss(LossModel.linear(), shard)
        cluster, _ = sparse_cluster(k=4, seed=61)
        anchor = local_lasso(cluster.model, cluster.shards[0], lam=0.2).theta
        surr = build_surrogate(cluster, anchor)
        cases = [(loss, lam, local_lasso(loss.model, shard, lam=lam))
                 for lam in (0.05, 0.2, 0.8)]
        cases += [(surr, lam, csl_lasso(cluster, anchor=anchor, lam=lam))
                  for lam in (0.05, 0.2)]
        for objective, lam, fit in cases:
            assert fit.converged
            grad = objective.eval(fit.theta, 1)[1]
            assert _stationarity_ok(grad, fit.theta, lam, 10.0 * L1Settings().tol)

    def test_budget_exhaustion_is_flagged_not_raised(self):
        shard = wide_shard()
        settings = L1Settings(max_iters=3)
        fit = local_lasso(LossModel.linear(), shard, lam=0.1, settings=settings)
        assert not fit.converged
        assert 1 <= fit.iterations <= 3

    def test_penalty_above_the_gradient_at_zero_gives_exact_zero(self):
        shard = wide_shard()
        loss = ShardLoss(LossModel.linear(), shard)
        lam = 1.01 * float(np.abs(loss.eval(np.zeros(shard.n_features), 1)[1]).max())
        fit = local_lasso(LossModel.linear(), shard, lam=lam)
        np.testing.assert_array_equal(fit.theta, np.zeros(shard.n_features))
        assert fit.converged and fit.support.size == 0
        # from a dense start the passes must shrink every coordinate away
        cluster, _ = sparse_cluster(k=4)
        surr = build_surrogate(cluster, np.full(cluster.d, 0.3))
        huge = 1.01 * float(np.abs(surr.eval(np.zeros(cluster.d), 1)[1]).max())
        fit = csl_lasso(cluster, anchor=np.full(cluster.d, 0.3), lam=huge)
        np.testing.assert_array_equal(fit.theta, np.zeros(cluster.d))
        assert fit.converged and fit.iterations >= 1

    def test_a_check_that_fails_on_the_set_by_rounding_cannot_spin(self):
        # The full gradient disagrees with the restricted one on an active
        # column by more than the slack, as rounding could make it do: every
        # pass converges on the set and fails the full check there, with no
        # column outside to add. The passes must stay on the same set and end
        # unconverged once the budget is spent.
        shard, _ = small_design()
        loss = ShardLoss(LossModel.linear(), shard)
        calls, sets, starts = [], [], []

        class Skewed:
            def eval(self, theta, order):
                out = loss.eval(theta, order)
                if order == 0:
                    return out
                grad = out[1].copy()
                grad[0] += 1e-3
                return out[0], grad

            def restrict(self, columns):
                sets.append(columns.tolist())
                inner = loss.restrict(columns)

                def counting(theta, order):
                    if len(starts) < len(sets):  # the start of a pass
                        starts.append(theta.copy())
                    calls.append(order)
                    return inner.eval(theta, order)
                return SimpleNamespace(eval=counting)

        settings = L1Settings(max_iters=40)
        fit = _working_set_lasso(Skewed(), 0.1, np.zeros(3), settings)
        assert not fit.converged
        # The passes end with the first one that returns the point it
        # started from on the same set, before the budget is spent.
        assert fit.iterations < settings.max_iters
        np.testing.assert_array_equal(starts[-1], fit.theta[sets[-1]])
        assert len(sets) >= 2 and all(w == sets[0] for w in sets)
        assert len(sets) <= settings.max_iters
        assert len(calls) <= 20 * settings.max_iters
