import math

import numpy as np
import pytest

from csl.cluster import Cluster
from csl.datagen import derive_rng
from csl.errors import DataError, SingularHessianError
from csl.inference import (confidence_intervals, normal_quantile, sandwich,
                           sigma_cross, sigma_global, sigma_local)
from csl.losses import DataShard, LossModel, ShardLoss
from csl.solvers import local_fit
from csl.surrogate import build_surrogate

from conftest import gauss_jordan_inverse


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class TestNormalQuantile:
    def test_two_sided_95_percent_point(self):
        z = normal_quantile(0.975)
        assert 1.959963 < z < 1.959965

    def test_median_and_symmetry(self):
        assert normal_quantile(0.5) == 0.0
        for p in (0.6, 0.9, 0.975, 0.999, 0.0001):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p),
                                                       abs=1e-13)

    def test_round_trip_through_cdf(self):
        for p in (1e-6, 0.01, 0.2, 0.5, 0.7, 0.95, 0.9999, 1 - 1e-9):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, rel=1e-10)

    def test_domain_checked(self):
        for bad in (0.0, 1.0, -0.3, 1.5, float("nan")):
            with pytest.raises(DataError):
                normal_quantile(bad)


class TestSandwich:
    def test_matches_hand_rolled_inverse(self):
        rng = derive_rng(0, "sandwich")
        a = rng.normal(size=(4, 4))
        curvature = a @ a.T + 4 * np.eye(4)
        b = rng.normal(size=(4, 4))
        middle = b @ b.T + np.eye(4)
        got = sandwich(curvature, middle)
        inv = gauss_jordan_inverse(curvature)
        want = inv @ middle @ inv
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
        np.testing.assert_array_equal(got, got.T)

    def test_singular_curvature_raises(self):
        rank_deficient = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularHessianError):
            sandwich(rank_deficient, np.eye(2))


def linear_truth_cluster(n_total, k, d=3, seed=101):
    rng = derive_rng(seed, "linear-truth")
    theta_star = rng.uniform(size=d)
    x = rng.normal(size=(n_total, d))
    y = x @ theta_star + rng.normal(size=n_total)
    cluster = Cluster.from_pooled(LossModel.linear(), x, y, k)
    return cluster, theta_star


class TestSigmaGlobal:
    def test_identity_limit_for_standard_linear_model(self):
        # with unit-variance features and unit noise the sandwich for the
        # squared loss collapses to the identity matrix
        cluster, theta_star = linear_truth_cluster(100_000, 4)
        cov = sigma_global(cluster, theta_star)
        np.testing.assert_allclose(cov, np.eye(3), atol=0.05)

    def test_bernoulli_intercept_variance_is_four(self):
        rng = derive_rng(7, "bernoulli")
        n = 100_000
        x = np.ones((n, 1))
        y = (rng.uniform(size=n) < 0.5).astype(float)
        cluster = Cluster(LossModel.logistic(), [DataShard(x=x, y=y)])
        mle = local_fit(ShardLoss(cluster.model, cluster.shards[0]))
        cov = sigma_global(cluster, mle)
        assert cov[0, 0] == pytest.approx(4.0, rel=0.05)

    def test_pooling_is_metered(self):
        cluster, theta_star = linear_truth_cluster(4_000, 4)
        before = cluster.ledger.samples_moved
        sigma_global(cluster, theta_star)
        assert cluster.ledger.samples_moved - before == 3 * 1_000


class TestSigmaLocal:
    def test_single_machine_equals_global(self):
        cluster, theta_star = linear_truth_cluster(2_000, 1)
        s = build_surrogate(cluster, theta_star)
        np.testing.assert_allclose(sigma_local(s, theta_star),
                                   sigma_global(cluster, theta_star),
                                   rtol=1e-12, atol=1e-12)

    def test_close_to_identity_on_moderate_shard(self):
        cluster, theta_star = linear_truth_cluster(64_000, 8)
        s = build_surrogate(cluster, theta_star)
        cov = sigma_local(s, theta_star)
        np.testing.assert_allclose(cov, np.eye(3), atol=0.12)

    def test_no_communication_beyond_the_build(self):
        cluster, theta_star = linear_truth_cluster(4_000, 4)
        s = build_surrogate(cluster, theta_star)
        before = cluster.ledger.copy()
        sigma_local(s, theta_star)
        assert cluster.ledger == before

    @pytest.mark.parametrize("n, d", [(257, 3), (16_384, 10), (2048, 5), (400, 37)])
    def test_score_outer_product_equals_the_plain_expression(self, n, d):
        # sigma_local's middle term is np.dot(scores.T, scores): bit for bit @
        rng = derive_rng(5, "scores", n, d)
        x = rng.normal(size=(2 * n, d))
        y = (rng.uniform(size=2 * n) < 0.5).astype(float)
        cluster = Cluster.from_pooled(LossModel.logistic(), x, y, 2)
        theta = 0.2 * rng.normal(size=d)
        s = build_surrogate(cluster, theta)
        scores = s.loss.per_sample(theta) - s.correction
        reference = sandwich(s.loss.eval(theta, 2)[2], scores.T @ scores / n)
        np.testing.assert_array_equal(sigma_local(s, theta), reference)


class TestSigmaCross:
    @staticmethod
    def averaged_estimate(n_per_shard):
        # a single replicate is a k-sample covariance estimate and can be 30%
        # off; average a few independent clusters to test unbiasedness
        reps = []
        for seed in (101, 102, 103, 104):
            cluster, theta_star = linear_truth_cluster(
                256 * n_per_shard, 256, seed=seed)
            reps.append(sigma_cross(cluster, theta_star))
        return np.mean(reps, axis=0)

    def test_close_to_identity_with_many_shards(self):
        avg = self.averaged_estimate(500)
        np.testing.assert_allclose(avg, np.eye(3), atol=0.15)

    def test_insensitive_to_shard_size(self):
        # the middle matrix estimates a per-sample covariance, so doubling the
        # shard size must not change the scale of the answer
        avg = self.averaged_estimate(1000)
        np.testing.assert_allclose(avg, np.eye(3), atol=0.15)

    def test_costs_one_gradient_round(self):
        cluster, theta_star = linear_truth_cluster(16 * 40, 16)
        before = cluster.ledger.copy()
        sigma_cross(cluster, theta_star)
        assert cluster.ledger.vectors_sent - before.vectors_sent == 2 * 15

    def test_warns_when_too_few_shards(self):
        cluster, theta_star = linear_truth_cluster(4 * 50, 4)
        with pytest.warns(UserWarning, match="noisy"):
            sigma_cross(cluster, theta_star)


class TestConfidenceIntervals:
    def test_printed_halfwidth_for_unit_covariance(self):
        ci = confidence_intervals(np.zeros(2), np.eye(2), n_total=10_000)
        assert ci.halfwidths[0] == pytest.approx(0.019600, abs=5e-7)
        np.testing.assert_array_equal(ci.lower, -ci.upper)

    def test_level_changes_width(self):
        narrow = confidence_intervals(np.zeros(1), np.eye(1), 100, level=0.8)
        wide = confidence_intervals(np.zeros(1), np.eye(1), 100, level=0.99)
        assert wide.halfwidths[0] > narrow.halfwidths[0]

    def test_covers_is_elementwise(self):
        ci = confidence_intervals(np.array([0.0, 10.0]), np.eye(2), 100)
        hit = ci.covers(np.array([0.1, 0.0]))
        assert hit.tolist() == [True, False]

    def test_center_recorded(self):
        center = np.array([1.5, -2.0])
        ci = confidence_intervals(center, 2 * np.eye(2), 400, level=0.9)
        np.testing.assert_array_equal(ci.center, center)
        assert ci.level == 0.9
        assert ci.n_total == 400
