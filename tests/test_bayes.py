import math

import numpy as np
import pytest

from csl.bayes import (Chain, McmcSettings, Prior, full_log_posterior,
                       marginal_l1, metropolis, run_csl_bayes,
                       surrogate_log_posterior)
from csl.cluster import Cluster
from csl.datagen import derive_rng, gen_logistic
from csl.errors import CslError, DataError
from csl.losses import LossModel
from csl.surrogate import build_surrogate


class TestPrior:
    def test_flat_is_zero_everywhere(self):
        prior = Prior.flat()
        assert prior.log_density(np.array([1e9, -1e9])) == 0.0

    def test_gaussian_matches_hand_density(self):
        prior = Prior.gaussian(mean=[1.0, -1.0], sd=[2.0, 0.5])
        theta = np.array([0.0, 0.0])
        want = sum(-0.5 * ((t - m) / s) ** 2 - math.log(s * math.sqrt(2 * math.pi))
                   for t, m, s in [(0.0, 1.0, 2.0), (0.0, -1.0, 0.5)])
        assert prior.log_density(theta) == pytest.approx(want, rel=1e-12)

    def test_gaussian_rejects_what_it_cannot_score(self):
        for mean, sd in [(0.0, float("nan")), (float("inf"), 1.0), ([0.0, 0.0], [1.0, 0.0]),
                         ([0.0, 0.0], [1.0]), (np.zeros((2, 2)), np.ones((2, 2)))]:
            with pytest.raises(DataError):
                Prior.gaussian(mean, sd)
        # a one-coordinate prior would count log(sd) once for a two-coordinate theta
        for theta in (np.zeros(2), np.zeros((1, 1))):
            with pytest.raises(DataError, match="shape"):
                Prior.gaussian(0.0, 2.0).log_density(theta)


class TestMetropolis:
    def gaussian_target(self):
        return lambda theta: float(-0.5 * theta @ theta)

    def test_same_seed_same_chain(self):
        a = metropolis(self.gaussian_target(), np.zeros(2), 0.8, 500, seed=12)
        b = metropolis(self.gaussian_target(), np.zeros(2), 0.8, 500, seed=12)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.accepted, b.accepted)

    def test_different_seed_different_chain(self):
        a = metropolis(self.gaussian_target(), np.zeros(2), 0.8, 500, seed=12)
        b = metropolis(self.gaussian_target(), np.zeros(2), 0.8, 500, seed=13)
        assert not np.array_equal(a.samples, b.samples)

    def test_standard_normal_moments(self):
        chain = metropolis(self.gaussian_target(), np.zeros(1), 1.2, 50_000,
                           seed=5)
        draws = chain.post_burn_in[:, 0]
        assert abs(float(np.mean(draws))) < 0.05
        assert 0.9 < float(np.var(draws)) < 1.1

    def test_burn_in_defaults_to_half(self):
        chain = metropolis(self.gaussian_target(), np.zeros(1), 1.0, 101, seed=0)
        assert chain.burn_in == 50
        assert chain.post_burn_in.shape == (51, 1)

    def test_rejected_iterations_repeat_the_state(self):
        chain = metropolis(self.gaussian_target(), np.zeros(1), 5.0, 400,
                           seed=3)
        rejected = ~chain.accepted
        assert rejected.any()
        idx = np.nonzero(rejected[1:])[0] + 1
        np.testing.assert_array_equal(chain.samples[idx], chain.samples[idx - 1])

    def test_acceptance_rate_counts_all_iterations(self):
        chain = metropolis(self.gaussian_target(), np.zeros(1), 1.0, 200,
                           seed=9)
        assert chain.acceptance_rate == pytest.approx(
            float(np.mean(chain.accepted)))

    def test_nan_target_raises(self):
        def broken(theta):
            return float("nan") if theta[0] > 0.5 else 0.0
        with pytest.raises(CslError):
            metropolis(broken, np.zeros(1), 10.0, 200, seed=1)

    def test_infinite_start_rejected(self):
        def fenced(theta):
            return -math.inf
        with pytest.raises(DataError):
            metropolis(fenced, np.zeros(1), 1.0, 100, seed=0)

    @pytest.mark.parametrize("width,scale,regime", [(1e3, 0.1, "accepts"),
                                                    (1.0, 20.0, "rejects")])
    def test_stream_matches_the_reference_loop(self, width, scale, regime):
        def target(theta):
            return float(-0.5 * theta @ theta / width ** 2)

        theta = np.array([0.3, -0.2])
        current = target(theta)
        rng = np.random.default_rng(17)
        want_samples, want_accepted = [], []
        for _ in range(400):
            noise = rng.standard_normal(2) * scale
            unif = rng.uniform()
            proposal = theta + noise
            cand = target(proposal)
            delta = cand - current
            ok = delta >= 0.0 or (unif > 0.0 and math.log(unif) < delta)
            if ok:
                theta, current = proposal, cand
            want_samples.append(theta)
            want_accepted.append(ok)
        chain = metropolis(target, np.array([0.3, -0.2]), scale, 400, seed=17)
        np.testing.assert_array_equal(chain.samples, np.array(want_samples))
        np.testing.assert_array_equal(chain.accepted, np.array(want_accepted))
        rate = chain.acceptance_rate
        assert rate > 0.95 if regime == "accepts" else rate < 0.2

    @pytest.mark.parametrize("iters", [0, -1])
    def test_chain_needs_an_iteration(self, iters):
        def target(theta):
            raise AssertionError("target evaluated for an empty chain")
        with pytest.raises(DataError, match="iters must be >= 1"):
            metropolis(target, np.zeros(1), 1.0, iters, seed=0)
        chain = metropolis(self.gaussian_target(), np.zeros(1), 1.0, 1, seed=0)
        assert chain.samples.shape == (1, 1)

    def test_settings_validation(self):
        with pytest.raises(DataError):
            McmcSettings(iters=1, seed=0)


def logistic_cluster(d=2, k=4, n=64, seed=71):
    pooled, theta_star = gen_logistic(d, n * k, seed)
    return Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, k), theta_star


class TestPosteriors:
    def test_surrogate_equals_full_on_one_machine(self):
        cluster, _ = logistic_cluster(k=1)
        prior = Prior.gaussian(mean=[0.0, 0.0], sd=[3.0, 3.0])
        s = build_surrogate(cluster, np.zeros(2))
        for theta in (np.zeros(2), np.array([0.4, -0.2]), np.array([-1.0, 2.0])):
            full = full_log_posterior(cluster, prior, theta, cluster.n_total)
            surr = surrogate_log_posterior(s, prior, theta, cluster.n_total)
            assert surr == pytest.approx(full, abs=1e-12)

    def test_full_posterior_uses_pooled_loss(self):
        cluster, _ = logistic_cluster(k=4)
        prior = Prior.flat()
        theta = np.array([0.3, 0.1])
        from csl.losses import ShardLoss
        pooled = cluster.pooled_shard(meter=False)
        want = -cluster.n_total * ShardLoss(cluster.model, pooled).eval(theta, 0)[0]
        assert full_log_posterior(cluster, prior, theta, cluster.n_total) == pytest.approx(
            want, rel=1e-12)


class TestRunCslBayes:
    def test_communication_budget_is_eight_rounds_worth(self):
        cluster, _ = logistic_cluster(k=4)
        ledger0 = cluster.ledger.copy()
        run_csl_bayes(cluster, Prior.flat(), McmcSettings(iters=200, seed=2))
        assert cluster.ledger.vectors_sent - ledger0.vectors_sent == 8 * (4 - 1)

    def test_chain_concentrates_near_global_fit(self):
        cluster, _ = logistic_cluster(d=2, k=4, n=256, seed=73)
        from csl.losses import ShardLoss
        from csl.solvers import local_fit
        optimum = local_fit(ShardLoss(cluster.model, cluster.pooled_shard(meter=False)))
        result = run_csl_bayes(cluster, Prior.flat(),
                               McmcSettings(iters=4000, seed=4))
        post = result.chain.post_burn_in
        center = post.mean(axis=0)
        assert float(np.linalg.norm(center - optimum)) < 0.2


def as_chain(draws):
    return Chain(samples=draws, accepted=np.ones(len(draws), dtype=bool),
                 proposal_scale=1.0, burn_in=0)


class TestMarginalDistance:
    def test_identical_chains_are_zero(self):
        rng = derive_rng(0, "l1-self")
        chain = as_chain(rng.normal(size=(5000, 1)))
        assert marginal_l1(chain, chain, coordinate=0, bins=60) == 0.0

    def test_disjoint_supports_are_two(self):
        a = as_chain(np.full((1000, 1), -50.0) + np.linspace(0, 1, 1000)[:, None])
        b = as_chain(np.full((1000, 1), 50.0) + np.linspace(0, 1, 1000)[:, None])
        assert marginal_l1(a, b, coordinate=0, bins=60) == pytest.approx(2.0)

    def test_two_samplers_of_the_same_law_score_small(self):
        rng = derive_rng(1, "l1-iid")
        a = as_chain(rng.normal(size=(100_000, 1)))
        b = as_chain(rng.normal(size=(100_000, 1)))
        assert marginal_l1(a, b, coordinate=0, bins=50) < 0.1

    def test_bounded_by_two_and_nonnegative(self):
        rng = derive_rng(2, "l1-bounds")
        a = as_chain(rng.normal(size=(500, 2)))
        b = as_chain(rng.normal(loc=3.0, size=(500, 2)))
        for coord in (0, 1):
            score = marginal_l1(a, b, coordinate=coord, bins=60)
            assert 0.0 <= score <= 2.0

    def test_degenerate_point_masses_compare_clean(self):
        a = as_chain(np.zeros((100, 1)))
        b = as_chain(np.zeros((100, 1)))
        assert marginal_l1(a, b, coordinate=0, bins=60) == 0.0
        c = as_chain(np.ones((100, 1)))
        assert marginal_l1(a, c, coordinate=0, bins=60) == pytest.approx(2.0)

    def test_coordinate_out_of_range_rejected(self):
        a = as_chain(np.zeros((100, 2)))
        for b in (as_chain(np.zeros((100, 1))), as_chain(np.zeros(100))):
            with pytest.raises(DataError, match="out of range"):
                marginal_l1(a, b, coordinate=1, bins=60)
