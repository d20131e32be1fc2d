import numpy as np
import pytest

from csl.cluster import CommLedger, Cluster, split_rows
from csl.datagen import gen_logistic
from csl.errors import ConfigError, DataError
from csl.losses import DataShard, LossModel, ShardLoss


def make_cluster(k, n=32, d=3, seed=0):
    pooled, _ = gen_logistic(d, n * k, seed)
    return Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, k)


class TestConstruction:
    def test_unequal_shards_rejected(self):
        shards = [DataShard(x=np.ones((4, 2)), y=np.zeros(4)),
                  DataShard(x=np.ones((5, 2)), y=np.zeros(5))]
        with pytest.raises(DataError):
            Cluster(LossModel.linear(), shards)

    def test_feature_mismatch_rejected(self):
        shards = [DataShard(x=np.ones((4, 2)), y=np.zeros(4)),
                  DataShard(x=np.ones((4, 3)), y=np.zeros(4))]
        with pytest.raises(DataError):
            Cluster(LossModel.linear(), shards)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigError):
            Cluster(LossModel.linear(),
                    [DataShard(x=np.ones((2, 1)), y=np.zeros(2))],
                    transport="carrier_pigeon")

    def test_split_rows_requires_divisibility(self):
        with pytest.raises(DataError):
            split_rows(np.ones((10, 2)), np.zeros(10), 3)

    def test_split_rows_preserves_order(self):
        x = np.arange(12, dtype=float).reshape(6, 2)
        y = np.arange(6, dtype=float)
        shards = split_rows(x, y, 3)
        assert [s.n_samples for s in shards] == [2, 2, 2]
        np.testing.assert_array_equal(shards[1].x, x[2:4])
        np.testing.assert_array_equal(shards[2].y, y[4:])


class TestLedger:
    def test_gradient_round_costs_two_kminus1(self):
        for k in (2, 4, 16):
            cluster = make_cluster(k)
            cluster.gradient_round(np.zeros(3))
            assert cluster.ledger.vectors_sent == 2 * (k - 1)
            assert cluster.ledger.rounds == 1
            cluster.gradient_round(np.zeros(3))
            assert cluster.ledger.vectors_sent == 4 * (k - 1)
            assert cluster.ledger.rounds == 2

    def test_k1_rounds_leave_ledger_untouched(self):
        cluster = make_cluster(1)
        cluster.gradient_round(np.zeros(3))
        cluster.local_minimizer_round()
        cluster.gradient_round(np.zeros(3))
        assert cluster.ledger == CommLedger(0, 0, 0)

    def test_local_minimizer_round_costs_kminus1(self):
        cluster = make_cluster(4)
        cluster.local_minimizer_round()
        assert cluster.ledger.vectors_sent == 3
        assert cluster.ledger.rounds == 1

    def test_local_fit_round_maps_shards_in_worker_order(self):
        cluster = make_cluster(4)
        seen = cluster.local_fit_round(lambda loss: loss.shard)
        assert all(a is b for a, b in zip(seen, cluster.shards))
        assert len(seen) == 4
        assert cluster.ledger == CommLedger(3, 1, 0)
        single = make_cluster(1)
        single.local_fit_round(lambda loss: loss.shard)
        assert single.ledger == CommLedger(0, 0, 0)

    def test_pooling_moves_samples_not_vectors(self):
        cluster = make_cluster(4, n=32)
        pooled = cluster.pooled_shard()
        assert pooled.n_samples == 128
        assert cluster.ledger.samples_moved == 3 * 32
        assert cluster.ledger.vectors_sent == 0
        cluster.pooled_shard(meter=False)
        assert cluster.ledger.samples_moved == 3 * 32

    def test_ledger_copy_is_a_snapshot(self):
        cluster = make_cluster(2)
        before = cluster.ledger.copy()
        cluster.gradient_round(np.zeros(3))
        assert before.vectors_sent == 0
        assert cluster.ledger.vectors_sent == 2


class TestGradientRound:
    def test_average_is_worker_ordered_mean(self):
        cluster = make_cluster(4)
        theta = np.array([0.1, -0.2, 0.3])
        global_grad, locals_ = cluster.gradient_round(theta)
        acc = np.zeros(3)
        for g in locals_:
            acc = acc + g
        np.testing.assert_array_equal(global_grad, acc / 4)

    def test_round_matches_pooled_gradient(self):
        cluster = make_cluster(8)
        theta = np.full(3, 0.2)
        global_grad, _ = cluster.gradient_round(theta)
        pooled = cluster.pooled_shard(meter=False)
        direct = ShardLoss(cluster.model, pooled).eval(theta, 1)[1]
        np.testing.assert_allclose(global_grad, direct, rtol=0, atol=1e-14)

    def test_k1_average_is_bitwise_local(self):
        cluster = make_cluster(1)
        theta = np.array([0.3, 0.1, -0.7])
        global_grad, locals_ = cluster.gradient_round(theta)
        np.testing.assert_array_equal(global_grad, locals_[0])

    def test_nonfinite_theta_rejected(self):
        cluster = make_cluster(2)
        with pytest.raises(DataError):
            cluster.gradient_round(np.array([np.nan, 0.0, 0.0]))


def test_average_is_a_worker_order_fold():
    cluster = make_cluster(3)
    theta = np.array([0.1, -0.2, 0.3])
    grads = [loss.gradient(theta) for loss in cluster.losses]
    acc = np.zeros(3)
    for g in grads:
        acc += g
    assert cluster.average(grads).tobytes() == (acc / 3).tobytes()
    values = [loss.eval(theta, 0)[0] for loss in cluster.losses]
    total = 0.0
    for v in values:
        total += v
    mean = cluster.average(values)
    assert type(mean) is float and mean == total / 3
    assert cluster.ledger.vectors_sent == 0
    single = make_cluster(1)
    grad = single.losses[0].gradient(theta)
    alone = single.average([grad])
    assert not np.shares_memory(alone, grad)
    assert alone.tobytes() == grad.tobytes()
