import numpy as np
import pytest

from csl.cluster import Cluster
from csl.datagen import derive_rng, gen_logistic
from csl.errors import DataError
from csl.losses import LossModel, ShardLoss
from csl.surrogate import (build_quadratic_surrogate, build_surrogate,
                           surrogate_eval, surrogate_value,
                           surrogate_value_gradient)

from conftest import fd_gradient


def logistic_cluster(d=4, k=4, n=50, seed=7):
    pooled, _ = gen_logistic(d, n * k, seed)
    return Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, k)


class TestAnchorIdentity:
    def test_gradient_at_anchor_equals_pooled_gradient(self):
        cluster = logistic_cluster()
        rng = derive_rng(3, "anchors")
        pooled = ShardLoss(cluster.model, cluster.pooled_shard(meter=False))
        for _ in range(12):
            anchor = rng.normal(size=cluster.d)
            s = build_surrogate(cluster, anchor)
            _, grad = surrogate_value_gradient(s, anchor)
            pooled_grad = pooled.eval(anchor, 1)[1]
            assert np.max(np.abs(grad - pooled_grad)) < 1e-12

    def test_correction_is_local_minus_pooled(self):
        cluster = logistic_cluster(seed=11)
        anchor = np.full(cluster.d, 0.3)
        s = build_surrogate(cluster, anchor)
        host_shard = cluster.shards[0]
        expected = (ShardLoss(cluster.model, host_shard).eval(anchor, 1)[1]
                    - ShardLoss(cluster.model,
                                cluster.pooled_shard(meter=False)).eval(anchor, 1)[1])
        np.testing.assert_allclose(s.correction, expected, atol=1e-15)


class TestSurrogateGeometry:
    def test_value_is_host_loss_minus_linear_term(self):
        cluster = logistic_cluster(seed=2)
        anchor = np.zeros(cluster.d)
        s = build_surrogate(cluster, anchor)
        theta = np.array([0.4, -0.2, 0.9, 0.1])
        direct = (ShardLoss(cluster.model, cluster.shards[0]).eval(theta, 0)[0]
                  - float(theta @ s.correction))
        assert surrogate_value(s, theta) == pytest.approx(direct, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        cluster = logistic_cluster(seed=5)
        s = build_surrogate(cluster, np.full(cluster.d, -0.1))
        theta = np.array([0.2, 0.7, -0.3, 0.05])
        _, grad = surrogate_value_gradient(s, theta)
        fd = fd_gradient(lambda t: surrogate_value(s, t), theta)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)

    def test_hessian_is_host_shard_hessian(self):
        cluster = logistic_cluster(seed=13)
        s = build_surrogate(cluster, np.zeros(cluster.d))
        theta = np.array([0.1, 0.2, 0.3, -0.4])
        _, _, hess = surrogate_eval(s, theta)
        np.testing.assert_array_equal(
            hess, ShardLoss(cluster.model, cluster.shards[0]).eval(theta, 2)[2])


class TestQuadraticSurrogate:
    def test_value_and_gradient_formulas(self):
        cluster = logistic_cluster(seed=17)
        anchor = np.full(cluster.d, 0.25)
        q = build_quadratic_surrogate(cluster, anchor)
        theta = anchor + np.array([0.3, -0.1, 0.0, 0.2])
        step = theta - anchor
        want = float(q.pooled_grad_at_anchor @ step
                     + 0.5 * step @ q.local_hessian @ step)
        assert q.value(theta) == pytest.approx(want, abs=1e-15)
        fd = fd_gradient(q.value, theta)
        np.testing.assert_allclose(q.gradient(theta), fd, rtol=1e-6, atol=1e-8)

    def test_value_zero_at_anchor(self):
        cluster = logistic_cluster(seed=19)
        anchor = np.full(cluster.d, -0.5)
        q = build_quadratic_surrogate(cluster, anchor)
        assert q.value(anchor) == 0.0
        np.testing.assert_array_equal(q.gradient(anchor), q.pooled_grad_at_anchor)


class TestBuildCost:
    def test_build_costs_one_gradient_round(self):
        cluster = logistic_cluster(k=6)
        before = cluster.ledger.copy()
        build_surrogate(cluster, np.zeros(cluster.d))
        assert cluster.ledger.vectors_sent - before.vectors_sent == 2 * (6 - 1)
        assert cluster.ledger.rounds - before.rounds == 1

    def test_quadratic_build_same_cost(self):
        cluster = logistic_cluster(k=3)
        before = cluster.ledger.copy()
        build_quadratic_surrogate(cluster, np.zeros(cluster.d))
        assert cluster.ledger.vectors_sent - before.vectors_sent == 2 * (3 - 1)

    def test_single_machine_build_is_free(self):
        cluster = logistic_cluster(k=1)
        build_surrogate(cluster, np.zeros(cluster.d))
        assert cluster.ledger.vectors_sent == 0
        assert cluster.ledger.rounds == 0


class TestValidation:
    def test_anchor_shape_checked(self):
        cluster = logistic_cluster()
        with pytest.raises(DataError):
            build_surrogate(cluster, np.zeros(cluster.d + 1))

    def test_non_finite_anchor_rejected(self):
        cluster = logistic_cluster()
        bad = np.zeros(cluster.d)
        bad[1] = np.nan
        with pytest.raises(DataError):
            build_surrogate(cluster, bad)

    def test_single_shard_surrogate_is_global_loss(self):
        cluster = logistic_cluster(k=1)
        s = build_surrogate(cluster, np.full(cluster.d, 0.2))
        theta = np.array([0.3, -0.6, 0.1, 0.9])
        assert surrogate_value(s, theta) == pytest.approx(
            ShardLoss(cluster.model, cluster.shards[0]).eval(theta, 0)[0], abs=1e-15)
        np.testing.assert_array_equal(s.correction, np.zeros(cluster.d))
