import numpy as np
import pytest

from csl.datagen import derive_rng, gen_logistic, gen_sparse_linear
from csl.errors import DataError
from csl.losses import LossModel, sigmoid
from csl.sparse import L1Settings, local_lasso


class TestDeriveRng:
    def test_same_keys_same_stream(self):
        a = derive_rng(42, "alpha", 3).standard_normal(8)
        b = derive_rng(42, "alpha", 3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_any_key_change_shifts_the_stream(self):
        base = derive_rng(42, "alpha", 3).standard_normal(8)
        for other in [derive_rng(43, "alpha", 3), derive_rng(42, "beta", 3),
                      derive_rng(42, "alpha", 4), derive_rng(42, "alpha")]:
            assert not np.array_equal(base, other.standard_normal(8))

    def test_string_keys_hash_stably(self):
        # the derivation must not depend on python's per-process str hash
        draws = derive_rng(7, "stable-key").integers(0, 1 << 30, 4)
        assert draws.tolist() == derive_rng(7, "stable-key").integers(
            0, 1 << 30, 4).tolist()

    def test_negative_seed_or_key_is_rejected(self):
        for seed, keys in [(-1, ()), (0, (-1,))]:
            with pytest.raises(DataError, match="nonnegative"):
                derive_rng(seed, *keys)


class TestGenLogistic:
    def test_deterministic_bytes(self):
        a, ta = gen_logistic(4, 100, 11)
        b, tb = gen_logistic(4, 100, 11)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()
        np.testing.assert_array_equal(ta, tb)

    def test_coefficients_live_in_unit_interval(self):
        _, theta_star = gen_logistic(50, 10, 13)
        assert theta_star.min() >= 0.0
        assert theta_star.max() <= 1.0

    def test_labels_are_binary_and_balanced_at_zero_signal(self):
        n = 40_000
        shard, theta_star = gen_logistic(3, n, 17)
        assert set(np.unique(shard.y)) <= {0.0, 1.0}
        probs = sigmoid(shard.x @ theta_star)
        # mean(y) - mean(probs) has variance mean(p(1-p)) / n given x
        se = np.sqrt(float(np.mean(probs * (1.0 - probs))) / n)
        assert abs(float(shard.y.mean()) - float(probs.mean())) < 4 * se

    def test_shape_validation(self):
        with pytest.raises(DataError):
            gen_logistic(0, 10, 1)


class TestGenSparseLinear:
    def test_support_size_and_magnitudes(self):
        shards, theta_star = gen_sparse_linear(d=30, n=50, k=4, s=6,
                                               sigma=0.5, seed_or_rng=23)
        support = np.nonzero(theta_star)[0]
        assert support.size == 6
        np.testing.assert_array_equal(np.abs(theta_star[support]),
                                      np.full(6, 2.5))  # 5 * sigma

    def test_zero_noise_magnitude_falls_back(self):
        _, theta_star = gen_sparse_linear(d=10, n=20, k=1, s=2, sigma=0.0,
                                          seed_or_rng=29)
        assert set(np.abs(theta_star[theta_star != 0.0])) == {5.0}

    def test_shard_count_and_sizes(self):
        shards, _ = gen_sparse_linear(d=8, n=25, k=5, s=2, sigma=1.0,
                                      seed_or_rng=31)
        assert len(shards) == 5
        assert all(s.n_samples == 25 for s in shards)
        assert all(s.n_features == 8 for s in shards)

    def test_shards_partition_one_pooled_draw(self):
        shards, _ = gen_sparse_linear(d=4, n=30, k=3, s=1, sigma=1.0,
                                      seed_or_rng=37)
        pooled_again, _ = gen_sparse_linear(d=4, n=90, k=1, s=1, sigma=1.0,
                                            seed_or_rng=37)
        stacked = np.vstack([s.x for s in shards])
        np.testing.assert_array_equal(stacked, pooled_again[0].x)

    def test_noiseless_data_is_exactly_recoverable(self):
        shards, theta_star = gen_sparse_linear(d=12, n=200, k=1, s=3,
                                               sigma=0.0, seed_or_rng=41)
        fit = local_lasso(LossModel.linear(), shards[0], lam=1e-8,
                          settings=L1Settings(tol=1e-14))
        np.testing.assert_allclose(fit.theta, theta_star, atol=1e-3)

    def test_sparsity_validation(self):
        with pytest.raises(DataError):
            gen_sparse_linear(d=5, n=10, k=1, s=6, sigma=1.0, seed_or_rng=1)
        with pytest.raises(DataError):
            gen_sparse_linear(d=5, n=10, k=1, s=-1, sigma=1.0, seed_or_rng=1)
