import numpy as np
import pytest

from csl.cluster import Cluster
from csl.datagen import gen_logistic
from csl.errors import SingularHessianError
from csl.estimators import (averaging_estimator, ilea, minimize_surrogate,
                            one_step_update, subsample_estimator)
from csl.losses import DataShard, LossModel, ShardLoss
from csl.solvers import local_fit
from csl.surrogate import build_surrogate

from conftest import gauss_jordan_inverse


def logistic_cluster(d=4, k=4, n=60, seed=21):
    pooled, _ = gen_logistic(d, n * k, seed)
    return Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, k)


class TestOneStep:
    def test_matches_hand_rolled_inverse(self):
        cluster = logistic_cluster(seed=23)
        anchor = np.full(cluster.d, 0.1)
        s = build_surrogate(cluster, anchor)
        got = one_step_update(s)
        hess = cluster.losses[0].eval(anchor, 2)[2]
        h = 0.5 * (hess + hess.T)
        want = anchor - gauss_jordan_inverse(h) @ s.pooled_grad_at_anchor
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_is_one_newton_step_on_the_surrogate(self):
        cluster = logistic_cluster(seed=29)
        anchor = np.full(cluster.d, -0.15)
        got = one_step_update(build_surrogate(cluster, anchor))
        hess = cluster.losses[0].eval(anchor, 2)[2]
        pooled_grad = cluster.gradient_round(anchor)[0]
        want = anchor - np.linalg.solve(0.5 * (hess + hess.T), pooled_grad)
        np.testing.assert_array_equal(got, want)

    def test_exact_on_quadratic_model(self):
        # for a linear model the surrogate is quadratic, so one Newton step
        # from any anchor lands on the pooled least-squares fit
        # when every shard shares the same design (here: identical rows).
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        y = np.array([1.0, 2.0, 2.8, -0.9])
        x_all = np.vstack([x, x])
        y_all = np.concatenate([y, y])
        cluster = Cluster.from_pooled(LossModel.linear(), x_all, y_all, 2)
        theta = one_step_update(build_surrogate(cluster, np.array([5.0, -3.0])))
        want, *_ = np.linalg.lstsq(x_all, y_all, rcond=None)
        np.testing.assert_allclose(theta, want, atol=1e-10)

    def test_singular_hessian_raises_with_eigenvalue(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank one
        y = np.array([1.0, 2.0, 3.0])
        cluster = Cluster(LossModel.linear(), [DataShard(x=x, y=y)])
        s = build_surrogate(cluster, np.zeros(2))
        with pytest.raises(SingularHessianError) as info:
            one_step_update(s)
        assert info.value.min_eigenvalue <= 1e-10


class TestMinimizeSurrogate:
    def test_single_machine_surrogate_minimum_is_global_fit(self):
        cluster = logistic_cluster(k=1, n=200, seed=31)
        s = build_surrogate(cluster, np.zeros(cluster.d))
        got = minimize_surrogate(s)
        want = local_fit(ShardLoss(cluster.model, cluster.shards[0]))
        assert np.max(np.abs(got - want)) < 1e-8

    def test_modes_agree_near_the_optimum(self):
        cluster = logistic_cluster(n=200, seed=37)
        pooled = cluster.pooled_shard(meter=False)
        optimum = local_fit(ShardLoss(cluster.model, pooled))
        anchor = optimum + 0.01
        s = build_surrogate(cluster, anchor)
        exact = minimize_surrogate(s)
        linearized = one_step_update(s)
        assert np.max(np.abs(exact - linearized)) < 1e-3


class TestIlea:
    def test_iterates_contract_toward_global_fit(self):
        cluster = logistic_cluster(d=3, k=8, n=120, seed=41)
        pooled = cluster.pooled_shard(meter=False)
        optimum = local_fit(ShardLoss(cluster.model, pooled))
        traj = ilea(cluster, theta0=np.zeros(3), rounds=4)
        dists = [np.linalg.norm(it - optimum) for it in traj.iterates]
        assert dists[-1] < dists[0]
        assert dists[-1] < 1e-3
        # contraction should be monotone once inside the basin
        assert all(b <= a * 1.01 for a, b in zip(dists[1:], dists[2:]))

    def test_ledger_cost_explicit_start(self):
        cluster = logistic_cluster(k=5)
        ledger0 = cluster.ledger.copy()
        traj = ilea(cluster, theta0=np.zeros(cluster.d), rounds=3)
        assert cluster.ledger.vectors_sent - ledger0.vectors_sent == 2 * 3 * (5 - 1)
        assert traj.rounds == 3
        assert len(traj.iterates) == 4  # start plus one per round

    def test_exact_surrogate_mode_runs_and_converges(self):
        # six rounds of the exact surrogate estimator, each re-anchored on the
        # last, home in on the pooled fit
        cluster = logistic_cluster(d=3, k=4, n=150, seed=47)
        pooled = cluster.pooled_shard(meter=False)
        optimum = local_fit(ShardLoss(cluster.model, pooled))
        iterates = [np.zeros(3)]
        for _ in range(6):
            iterates.append(minimize_surrogate(build_surrogate(cluster, iterates[-1])))
        dists = [np.linalg.norm(it - optimum) for it in iterates]
        assert dists[-1] < 1e-3
        assert dists[-1] < dists[0] / 1000

    def test_round_failures_are_annotated(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0], [3.0, 6.0]])
        y = np.array([0.5, 1.0, -0.4, 1.6])
        x_all = np.vstack([x, x])
        y_all = np.concatenate([y, y])
        cluster = Cluster.from_pooled(LossModel.linear(), x_all, y_all, 2)
        with pytest.raises(SingularHessianError, match="round 1"):
            ilea(cluster, theta0=np.zeros(2), rounds=2)


class TestBaselines:
    def test_averaging_is_ordered_mean_of_local_fits(self):
        cluster = logistic_cluster(k=3, seed=53)
        fits = [local_fit(ShardLoss(cluster.model, shard))
                for shard in cluster.shards]
        want = np.zeros(cluster.d)
        for fit in fits:
            want = want + fit
        want /= 3
        got = averaging_estimator(logistic_cluster(k=3, seed=53))
        np.testing.assert_array_equal(got, want)

    def test_subsample_fits_first_shard_only(self):
        cluster = logistic_cluster(k=3, seed=59)
        got = subsample_estimator(cluster)
        want = local_fit(ShardLoss(cluster.model, cluster.shards[0]))
        np.testing.assert_array_equal(got, want)
        assert cluster.ledger.vectors_sent == 0
