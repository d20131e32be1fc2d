import re

import numpy as np
import pytest

from csl.cluster import Cluster
from csl.datagen import derive_rng, gen_sparse_linear
from csl.errors import DataError
from csl.losses import DataShard, LossModel, ShardLoss
from csl.sparse import (L1Settings, _noise_sd, averaging_lasso, csl_lasso,
                        fista_l1, iterative_csl_lasso, lambda_heuristic,
                        local_lasso, soft_threshold)

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

    def test_settings_validated(self):
        with pytest.raises(DataError):
            L1Settings(tol=-1.0)
        with pytest.raises(DataError):
            L1Settings(max_iters=0)


class TestCalibration:
    def test_lambda_heuristic_formula(self):
        lam = lambda_heuristic(2.0, 100, 400)
        assert lam == pytest.approx(2.0 * 2.0 * np.sqrt(np.log(100) / 400))

    def test_scale_is_linear(self):
        assert lambda_heuristic(1.0, 50, 100, scale=4.0) == pytest.approx(
            2 * lambda_heuristic(1.0, 50, 100, scale=2.0))

    def test_noise_estimate_recovers_sigma(self):
        rng = derive_rng(17, "noise")
        x = rng.normal(size=(20_000, 3))
        theta = np.array([1.0, -1.0, 0.5])
        y = x @ theta + 0.7 * rng.normal(size=20_000)
        shard = DataShard(x=x, y=y)
        got = _noise_sd(ShardLoss(LossModel.linear(), shard), theta)
        assert got == pytest.approx(0.7, rel=0.05)


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
        fit = csl_lasso(cluster)
        true_support = set(np.nonzero(theta_star)[0].tolist())
        assert true_support <= set(fit.support.tolist())
        err = float(np.linalg.norm(fit.theta - theta_star))
        local = local_lasso(cluster.model, cluster.shards[0])
        err_local = float(np.linalg.norm(local.theta - theta_star))
        assert err < err_local

    def test_default_anchor_is_communication_free(self):
        cluster, _ = sparse_cluster(k=4)
        csl_lasso(cluster)
        assert cluster.ledger.vectors_sent == 2 * 3  # only the build round

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
    def test_round_count_and_ledger(self):
        cluster, _ = sparse_cluster(k=4)
        fits = iterative_csl_lasso(cluster, rounds=3, lam=0.2)
        assert len(fits) == 3
        assert cluster.ledger.rounds == 3
        assert cluster.ledger.vectors_sent == 3 * 2 * 3

    def test_contracts_to_the_pooled_solution(self):
        # with a fixed penalty the re-anchoring fixed point satisfies the
        # pooled stationarity condition, so iterates home in on the fit a
        # single machine holding all the data would produce
        cluster, _ = sparse_cluster(k=8, d=40, s=4, seed=37)
        lam = 0.08
        pooled = local_lasso(cluster.model, cluster.pooled_shard(meter=False),
                             lam=lam, settings=L1Settings(tol=1e-12))
        fits = iterative_csl_lasso(cluster, rounds=4, lam=lam,
                                   settings=L1Settings(tol=1e-12))
        dists = [float(np.linalg.norm(f.theta - pooled.theta)) for f in fits]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-4

    def test_schedule_length_checked(self):
        cluster, _ = sparse_cluster(k=2)
        with pytest.raises(DataError):
            iterative_csl_lasso(cluster, rounds=2, lam=[0.1, 0.2, 0.3])


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
        assert fit.objective_value == pytest.approx(
            np.mean([one.objective_value for one in locals_]))

    def test_ledger_charges_one_reply_per_remote_worker(self):
        cluster, _ = sparse_cluster(k=5)
        averaging_lasso(cluster, lam=0.3)
        assert cluster.ledger.vectors_sent == 4
        assert cluster.ledger.rounds == 1
