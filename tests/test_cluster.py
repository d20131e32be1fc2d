import numpy as np
import pytest

import csl.cluster
import csl.losses
import csl.solvers
from csl.cluster import CommLedger, Cluster, split_rows
from csl.datagen import gen_logistic, gen_sparse_linear
from csl.errors import ConfigError, DataError
from csl.losses import DataShard, LossModel, ShardLoss
from csl.solvers import LassoFit, SolverSettings, run_fit
from csl.sparse import local_lasso


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

    def test_split_rows_rejects_labels_beyond_the_rows(self):
        with pytest.raises(DataError, match="y must have shape"):
            split_rows(np.ones((12, 2)), np.zeros(13), 4)

    def test_from_pooled_rejects_labels_beyond_the_rows(self):
        with pytest.raises(DataError, match="y must have shape"):
            Cluster.from_pooled(LossModel.linear(), np.ones((12, 2)), np.zeros(20), 3)

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
        cluster.local_minimizer_round(SolverSettings())
        cluster.gradient_round(np.zeros(3))
        assert cluster.ledger == CommLedger(0, 0, 0)

    def test_local_minimizer_round_costs_kminus1(self):
        cluster = make_cluster(4)
        cluster.local_minimizer_round(SolverSettings())
        assert cluster.ledger.vectors_sent == 3
        assert cluster.ledger.rounds == 1

    def test_local_minimizer_round_fits_shards_in_worker_order(self):
        for request in (SolverSettings(), LassoFit(0.05)):
            cluster = make_cluster(4)
            fits = cluster.local_minimizer_round(request)
            assert len(fits) == 4
            for fit, shard in zip(fits, cluster.shards):
                want = run_fit(request, ShardLoss(cluster.model, shard))
                # a Newton fit is the point; a lasso fit carries it as theta
                assert (getattr(fit, "theta", fit).tobytes()
                        == getattr(want, "theta", want).tobytes())
            assert cluster.ledger == CommLedger(3, 1, 0)
            single = make_cluster(1)
            single.local_minimizer_round(request)
            assert single.ledger == CommLedger(0, 0, 0)

    def test_pooling_moves_samples_not_vectors(self):
        cluster = make_cluster(4, n=32)
        pooled = cluster.pooled_shard(meter=True)
        assert pooled.n_samples == 128
        assert cluster.ledger.samples_moved == 3 * 32
        assert cluster.ledger.vectors_sent == 0
        cluster.pooled_shard(meter=False)
        assert cluster.ledger.samples_moved == 3 * 32

    @staticmethod
    def _pool(shards, k):
        cluster = Cluster(LossModel.linear(), shards)
        pooled = cluster.pooled_shard(meter=True)
        assert cluster.ledger == CommLedger(0, 0, (k - 1) * shards[0].n_samples)
        x = np.concatenate([s.x for s in shards])
        y = np.concatenate([s.y for s in shards])
        assert pooled.x.tobytes() == x.tobytes() and pooled.y.tobytes() == y.tobytes()
        assert not pooled.x.flags.writeable and not pooled.y.flags.writeable
        return pooled

    def test_pooled_tiled_shards_are_a_view_of_their_base(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((12, 2)), rng.standard_normal(12)
        pooled = self._pool(split_rows(x, y, 4), 4)
        assert np.shares_memory(pooled.x, x) and np.shares_memory(pooled.y, y)
        assert not x.flags.writeable and not y.flags.writeable  # a shard froze its base

    def test_pooled_shards_that_do_not_tile_one_array_are_copied(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((16, 2)), rng.standard_normal(16)
        tiled = split_rows(x, y, 4)
        cases = {
            "separate arrays": [DataShard(x=s.x.copy(), y=s.y.copy()) for s in tiled],
            "reordered": [tiled[1], tiled[0], tiled[2], tiled[3]],
            "repeated": [tiled[0], tiled[0], tiled[2], tiled[3]],
            "strided rows": split_rows(x[::2], y[::2], 2),
        }
        for name, shards in cases.items():
            pooled = self._pool(shards, len(shards))
            assert not np.shares_memory(pooled.x, x), name
            assert not np.shares_memory(pooled.y, y), name
        # part of the base: the first three blocks lie back to back in x
        pooled = self._pool(tiled[:3], 3)
        assert pooled.x.base is x and pooled.y.base is y
        # x tiles its base while y does not: only y is copied
        mixed = [DataShard(x=s.x, y=s.y.copy()) for s in tiled]
        pooled = self._pool(mixed, 4)
        assert np.shares_memory(pooled.x, x) and not np.shares_memory(pooled.y, y)

    def test_blocks_back_to_back_in_one_array_pool_into_a_view(self):
        rng = np.random.default_rng(5)
        big, y = rng.standard_normal((40, 3)), rng.standard_normal(40)
        alone = DataShard(x=rng.standard_normal((6, 2)), y=rng.standard_normal(6))
        cases = {
            "leading rows": (split_rows(big[:20], y[:20], 4), big, y),
            "trailing rows": (split_rows(big[12:], y[12:], 7), big, y),
            "one shard owning its arrays": ([alone], alone.x, alone.y),
        }
        for name, (shards, x, y) in cases.items():
            pooled = self._pool(shards, len(shards))
            assert pooled.x.base is x and pooled.y.base is y, name
            assert pooled.x.ctypes.data == shards[0].x.ctypes.data, name
            assert pooled.y.ctypes.data == shards[0].y.ctypes.data, name

    def test_ledger_copy_is_a_snapshot(self):
        cluster = make_cluster(2)
        before = cluster.ledger.copy()
        cluster.gradient_round(np.zeros(3))
        assert before.vectors_sent == 0
        assert cluster.ledger.vectors_sent == 2


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` and return the list its calls append to."""
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestPooledBase:
    def test_split_rows_checks_the_pooled_pair_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((12, 3)), rng.standard_normal(12)
        scans = count_calls(monkeypatch, csl.losses, "_check_finite")
        shards = split_rows(x, y, 4)
        assert [tuple(a.shape for a in arrays) for arrays in scans] == [((12, 3), (12,))]
        assert all(s.x.base is x and s.y.base is y for s in shards)

    def test_tiled_shards_pool_into_one_view_made_once(self, monkeypatch):
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal((16, 2)), rng.standard_normal(16)
        cluster = Cluster(LossModel.linear(), split_rows(x, y, 4))
        stacks = count_calls(monkeypatch, csl.cluster, "_stacked")
        pooled = cluster.pooled_shard(meter=True)
        assert len(stacks) == 2  # x and y, at the first call only
        for meter in (False, True, False):
            assert cluster.pooled_shard(meter=meter) is pooled
        assert len(stacks) == 2
        assert cluster.ledger.samples_moved == 2 * 3 * 4
        assert pooled.x.base is x and pooled.y.base is y
        assert not pooled.x.flags.writeable and not pooled.y.flags.writeable
        for j, shard in enumerate(cluster.shards):
            assert shard.x.ctypes.data == pooled.x[4 * j:].ctypes.data
            assert shard.y.ctypes.data == pooled.y[4 * j:].ctypes.data

    def test_shards_that_do_not_tile_one_array_are_stacked_once(self, monkeypatch):
        rng = np.random.default_rng(10)
        shards = [DataShard(x=rng.standard_normal((5, 3)), y=rng.standard_normal(5))
                  for _ in range(3)]
        cluster = Cluster(LossModel.linear(), shards)
        copies = count_calls(monkeypatch, np, "concatenate")
        pooled = cluster.pooled_shard(meter=False)
        assert len(copies) == 2
        for meter in (True, False):
            assert cluster.pooled_shard(meter=meter) is pooled
        assert len(copies) == 2
        assert not any(np.shares_memory(pooled.x, s.x) for s in shards)
        assert pooled.x.tobytes() == np.concatenate([s.x for s in shards]).tobytes()

    def test_strided_input_is_copied_once_and_the_shards_tile_the_copy(self):
        rng = np.random.default_rng(11)
        x, y = rng.standard_normal((24, 5))[::2, ::2], rng.standard_normal(24)[::2]
        shards = split_rows(x, y, 3)
        base = shards[0].x.base
        assert base.flags.c_contiguous and base.shape == (12, 3)
        assert not np.shares_memory(base, x)
        assert all(s.x.base is base for s in shards)
        pooled = Cluster(LossModel.linear(), shards).pooled_shard(meter=False)
        assert pooled.x.base is base and pooled.y.base is shards[0].y.base
        np.testing.assert_array_equal(pooled.x, x)
        np.testing.assert_array_equal(pooled.y, y)

    def test_a_lasso_fit_on_the_pooled_shard_is_kept_across_calls(self, monkeypatch):
        shards, _ = gen_sparse_linear(d=30, n=40, k=3, s=3, sigma=0.5, seed_or_rng=12)
        cluster = Cluster(LossModel.linear(), shards)
        first = local_lasso(cluster.model, cluster.pooled_shard(meter=True), lam=0.1)
        fistas = count_calls(monkeypatch, csl.solvers, "fista_l1")
        again = local_lasso(cluster.model, cluster.pooled_shard(meter=True), lam=0.1)
        assert fistas == []
        assert again.theta.tobytes() == first.theta.tobytes() and again.theta is not first.theta
        assert cluster.ledger.samples_moved == 2 * 2 * 40


class TestFrozenBase:
    @staticmethod
    def _first_shard(make):
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((40, 3)), rng.standard_normal(40)
        if make == "view":
            return DataShard(x=x[:20], y=y[:20])
        if make == "split_rows":
            return split_rows(x, y, 2)[0]
        if make == "from_pooled":
            return Cluster.from_pooled(LossModel.linear(), x, y, 2).shards[0]
        return gen_sparse_linear(d=3, n=20, k=2, s=2, sigma=0.5, seed_or_rng=rng)[0][0]

    @pytest.mark.parametrize("make", ["view", "split_rows", "from_pooled",
                                      "gen_sparse_linear"])
    def test_a_write_to_the_viewed_array_cannot_leave_a_stale_fit(self, make):
        # The shard keeps its finished fits, so a write to the array its rows
        # view would make the next fit return the old theta: the write fails.
        shard = self._first_shard(make)
        local_lasso(LossModel.linear(), shard, lam=0.05)  # the shard keeps this fit
        for base in (shard.x.base, shard.y.base):
            with pytest.raises(ValueError, match="read-only"):
                base[:20] *= -1.0
        fresh = DataShard(x=shard.x.copy(), y=shard.y.copy())
        assert (local_lasso(LossModel.linear(), shard, lam=0.05).theta.tobytes()
                == local_lasso(LossModel.linear(), fresh, lam=0.05).theta.tobytes())


    @pytest.mark.parametrize("make", ["strided", "integer", "fortran"])
    def test_a_copied_input_stays_writeable_and_cannot_reach_the_shard(self, make):
        # The cast or contiguous copy is what the shard holds and freezes.
        rng = np.random.default_rng(7)
        wide, y = rng.standard_normal((20, 6)), rng.standard_normal(40)[::2]
        x = {"strided": wide[:, ::2], "integer": rng.integers(-5, 5, (20, 3)),
             "fortran": np.asfortranarray(wide[:, :3])}[make]
        shard = DataShard(x=x, y=y)
        kept = shard.x.copy(), shard.y.copy()
        assert not np.shares_memory(shard.x, x) and not np.shares_memory(shard.y, y)
        x[...] = 0
        y[...] = 0.0
        np.testing.assert_array_equal(shard.x, kept[0])
        np.testing.assert_array_equal(shard.y, kept[1])
        with pytest.raises(ValueError, match="read-only"):
            shard.x[0, 0] = 1.0


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
