"""Acceptance gate: ten end-to-end checks with one PASS/FAIL line each.

Each test prints ``[criterion NN] PASS|FAIL <label>`` on the live terminal
(bypassing capture) so a full ``pytest`` run always shows the ten verdicts.
The statistical checks (5 through 8) run the shipped desk presets and assert
the orderings and thresholds those sweeps are designed to show; their lines
also print each asserted statistic next to its bound, so a run shows how
close it came to failing. The rest are algebraic identities, oracle
equivalences, and exact ledger counts.
"""

import csv
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from csl.bayes import (McmcSettings, Prior, full_log_posterior, metropolis,
                       run_csl_bayes, surrogate_log_posterior)
from csl.cluster import Cluster
from csl.datagen import derive_rng, gen_logistic, gen_sparse_linear
from csl.estimators import averaging_estimator, ilea, minimize_surrogate, one_step_update
from csl.experiments import desk_presets, results_hash, run_experiment
from csl.inference import sandwich
from csl.losses import DataShard, LossModel, ShardLoss
from csl.solvers import local_fit
from csl.sparse import L1Settings, csl_lasso, fista_l1, local_lasso
from csl.surrogate import build_surrogate

from conftest import enumerate_lasso_d3, fd_gradient, fd_jacobian, gauss_jordan_inverse


@contextmanager
def criterion(capfd, number, label):
    """Time the body and announce its verdict. The body may append
    "statistic=value <bound>" strings to the yielded list before it asserts
    on them; the line prints them after the time."""
    shown = []
    started = time.perf_counter()
    try:
        yield shown
    except BaseException:
        _announce(capfd, number, label, "FAIL", time.perf_counter() - started, shown)
        raise
    _announce(capfd, number, label, "PASS", time.perf_counter() - started, shown)


def _announce(capfd, number, label, verdict, elapsed, shown):
    margins = f": {'; '.join(shown)}" if shown else ""
    with capfd.disabled():
        print(f"[criterion {number:02d}] {verdict} {label} ({elapsed:.1f}s){margins}")


def _medians(path, metric, estimator=None):
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["metric"] == metric
                and (estimator is None or r["estimator"] == estimator)]
    out = {}
    for r in rows:
        out.setdefault((int(r["n"]), int(r["k"])), []).append(float(r["value"]))
    return {key: statistics.median(vals) for key, vals in out.items()}


def test_criterion_01_anchor_identity(capfd):
    with criterion(capfd, 1, "anchor identity, 200 instances"):
        start = time.perf_counter()
        rng = derive_rng(2024, "acceptance", "anchor")
        for i in range(200):
            model = LossModel.logistic() if i % 2 == 0 else LossModel.linear()
            d = int(rng.integers(1, 21))
            k = int(rng.integers(1, 17))
            n = int(rng.integers(5, 25))
            x = rng.normal(size=(n * k, d))
            if i % 2 == 0:
                y = (rng.uniform(size=n * k) < 0.5).astype(float)
            else:
                y = x @ rng.normal(size=d) + rng.normal(size=n * k)
            cluster = Cluster.from_pooled(model, x, y, k)
            anchor = rng.normal(size=d)
            s = build_surrogate(cluster, anchor)
            _, grad = s.eval(anchor, 1)
            pooled_grad = ShardLoss(model, cluster.pooled_shard(meter=False)).eval(anchor, 1)[1]
            assert float(np.max(np.abs(grad - pooled_grad))) < 1e-12
        assert time.perf_counter() - start < 5.0


def test_criterion_02_single_machine_reductions(capfd):
    with criterion(capfd, 2, "k=1 reductions match global computations"):
        start = time.perf_counter()
        for seed in range(20):
            pooled, _ = gen_logistic(3, 120, derive_rng(seed, "accept-k1"))
            cluster = Cluster(LossModel.logistic(), [pooled])
            s = build_surrogate(cluster, np.zeros(3))
            via_surrogate = minimize_surrogate(s)
            direct = local_fit(ShardLoss(cluster.model, pooled))
            assert float(np.max(np.abs(via_surrogate - direct))) < 1e-8

            shards, _ = gen_sparse_linear(d=12, n=80, k=1, s=3, sigma=0.5,
                                          seed_or_rng=seed)
            sparse_cluster = Cluster(LossModel.linear(), shards)
            lam = 0.1
            fit = csl_lasso(sparse_cluster, anchor=np.zeros(12), lam=lam,
                            settings=L1Settings(tol=1e-12))
            plain = local_lasso(LossModel.linear(), shards[0], lam=lam,
                                settings=L1Settings(tol=1e-12))
            assert float(np.max(np.abs(fit.theta - plain.theta))) < 1e-6

            # independent N(0, 2^2) coordinates: a prior term that is not flat
            prior = Prior(lambda theta: sum(-0.5 * (t / 2.0) ** 2
                                            - math.log(2.0 * math.sqrt(2 * math.pi))
                                            for t in theta))
            theta = derive_rng(seed, "accept-k1-theta").normal(size=3)
            lhs = surrogate_log_posterior(s, prior, theta, cluster.n_total)
            rhs = full_log_posterior(cluster, prior, theta, cluster.n_total)
            assert abs(lhs - rhs) < 1e-12
        assert time.perf_counter() - start < 30.0


def test_criterion_03_derivatives_match_finite_differences(capfd):
    with criterion(capfd, 3, "finite-difference checks, 100 instances"):
        start = time.perf_counter()
        rng = derive_rng(2024, "acceptance", "fd")
        families = [LossModel.logistic(), LossModel.linear()]
        for i in range(100):
            model = families[i % 2]
            d = int(rng.integers(2, 6))
            n = int(rng.integers(20, 40))
            x = 0.7 * rng.normal(size=(n, d))
            theta_data = 0.3 * rng.normal(size=d)
            u = x @ theta_data
            if model.family == "linear":
                y = u + rng.normal(size=n)
            else:
                y = (rng.uniform(size=n) < 1 / (1 + np.exp(-u))).astype(float)
            shard = DataShard(x=x, y=y)
            theta = 0.3 * rng.normal(size=d)

            loss = ShardLoss(model, shard)
            value, grad = loss.eval(theta, 1)
            fd = fd_gradient(lambda t: loss.eval(t, 1)[0], theta)
            scale = max(1.0, float(np.linalg.norm(fd)))
            assert float(np.linalg.norm(grad - fd)) / scale < 1e-5

            hess = loss.eval(theta, 2)[2]
            fd_h = fd_jacobian(lambda t: loss.eval(t, 1)[1], theta)
            scale = max(1.0, float(np.linalg.norm(fd_h)))
            assert float(np.linalg.norm(hess - fd_h)) / scale < 1e-5

            cluster = Cluster(model, [shard, shard])
            s = build_surrogate(cluster, theta)
            probe = theta + 0.05 * rng.normal(size=d)
            _, sgrad = s.eval(probe, 1)
            fd_s = fd_gradient(lambda t: s.eval(t, 0)[0], probe)
            scale = max(1.0, float(np.linalg.norm(fd_s)))
            assert float(np.linalg.norm(sgrad - fd_s)) / scale < 1e-5

            # the curvature the one-step update uses
            shess = s.eval(theta, 2)[2]
            fd_sh = fd_jacobian(lambda t: s.eval(t, 1)[1], theta)
            scale = max(1.0, float(np.linalg.norm(fd_sh)))
            assert float(np.linalg.norm(shess - fd_sh)) / scale < 1e-5
        assert time.perf_counter() - start < 10.0


def test_criterion_04_ledger_exactness(capfd):
    with criterion(capfd, 4, "communication ledger exact counts"):
        def fresh(k, seed=99):
            pooled, _ = gen_logistic(3, 24 * k, seed)
            return Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, k)

        for k in (2, 4, 8, 16):
            for rounds in (1, 2, 3):
                cluster = fresh(k)
                ilea(cluster, theta0=np.zeros(3), rounds=rounds)
                assert cluster.ledger.vectors_sent == 2 * rounds * (k - 1)

            cluster = fresh(k)
            averaging_estimator(cluster)
            assert cluster.ledger.vectors_sent == k - 1

            cluster = fresh(k)
            run_csl_bayes(cluster, Prior.flat(), McmcSettings(iters=50, seed=1))
            assert cluster.ledger.vectors_sent == 8 * (k - 1)


def test_criterion_05_refits_track_global_in_k_sweep(capfd, tmp_path):
    with criterion(capfd, 5, "two refits vs global and averaging across k") as shown:
        start = time.perf_counter()
        config = replace(desk_presets()["sweep_k_desk"],
                         out=str(tmp_path / "sweep_k.csv"))
        result = run_experiment(config)
        assert result.error_flags == 0
        med_global = _medians(result.path, "sq_error", "global")
        med_avg = _medians(result.path, "sq_error", "averaging")
        med_two = _medians(result.path, "sq_error", "csl_2")
        points = [(256, k) for k in (16, 64, 256)]
        shown += [f"csl_2/global@{k}={med_two[(n, k)] / med_global[(n, k)]:.3f} <= 1.2"
                  for n, k in points]
        shown += [f"csl_2/averaging@{k}={med_two[(n, k)] / med_avg[(n, k)]:.3f} < 1"
                  for n, k in points]
        for point in points:
            assert med_two[point] <= 1.2 * med_global[point]
            assert med_two[point] < med_avg[point]
        assert time.perf_counter() - start < 300.0


def test_criterion_06_plugin_interval_coverage(capfd, tmp_path):
    with criterion(capfd, 6, "plug-in 95% intervals cover at nominal rate") as shown:
        start = time.perf_counter()
        config = replace(desk_presets()["coverage_desk"],
                         out=str(tmp_path / "coverage.csv"))
        result = run_experiment(config)
        assert result.error_flags == 0
        with open(result.path, newline="") as fh:
            rows = list(csv.DictReader(fh))

        def rate(metric, k):
            vals = [float(r["value"]) for r in rows
                    if r["metric"] == metric and r["k"] == str(k)]
            assert len(vals) == 200
            return sum(vals) / len(vals)

        local, cross = rate("covered_local", 16), rate("covered_cross", 64)
        shown += [f"covered_local@16={local:.3f} in [0.90, 0.99]",
                  f"covered_cross@64={cross:.3f} in [0.90, 0.99]"]
        assert 0.90 <= local <= 0.99
        assert 0.90 <= cross <= 0.99
        assert time.perf_counter() - start < 600.0


def test_criterion_07_lasso_error_scales_with_machines(capfd, tmp_path):
    with criterion(capfd, 7, "fixed-shard lasso error scaling in k") as shown:
        start = time.perf_counter()
        config = replace(desk_presets()["lasso_shard_desk"],
                         out=str(tmp_path / "lasso.csv"))
        result = run_experiment(config)
        assert result.error_flags == 0
        ks = (1, 2, 4, 8, 16)
        med_csl = _medians(result.path, "sq_error", "csl_lasso")
        med_avg = _medians(result.path, "sq_error", "averaging_lasso")
        csl_path = [med_csl[(400, k)] for k in ks]
        avg_path = [med_avg[(400, k)] for k in ks]
        slope = float(np.polyfit(np.log(ks), np.log(csl_path), 1)[0])
        csl_ratio = csl_path[-1] / csl_path[0]
        avg_ratio = avg_path[-1] / avg_path[0]
        shown += [f"slope={slope:.3f} in [-1.3, -0.7]",
                  f"averaging_ratio/csl_ratio={avg_ratio / csl_ratio:.2f} >= 2"]
        assert -1.3 <= slope <= -0.7
        assert avg_ratio >= 2.0 * csl_ratio
        assert time.perf_counter() - start < 600.0


def test_criterion_08_surrogate_posterior_tracks_full_posterior(capfd, tmp_path):
    with criterion(capfd, 8, "surrogate posterior close to full posterior") as shown:
        start = time.perf_counter()
        config = replace(desk_presets()["bayes_desk"],
                         out=str(tmp_path / "bayes.csv"))
        result = run_experiment(config)
        assert result.error_flags == 0
        med = _medians(result.path, "marginal_l1_1", "csl_bayes")
        by_n = [med[(n, 16)] for n in (64, 256, 1024)]
        shown += [f"marginal_l1_1@256={med[(256, 16)]:.4f} < 0.15",
                  "marginal_l1_1@64,256,1024="
                  + " >= ".join(f"{v:.4f}" for v in by_n) + " (monotone)"]
        assert med[(256, 16)] < 0.15
        assert by_n[0] >= by_n[1] >= by_n[2]
        assert time.perf_counter() - start < 300.0


def test_criterion_09_oracle_equivalences(capfd):
    with criterion(capfd, 9, "independent oracles agree"):
        rng = derive_rng(2024, "acceptance", "oracles")
        x = rng.normal(size=(40, 3))
        y = x @ np.array([1.2, 0.0, -0.6]) + 0.4 * rng.normal(size=40)
        shard = DataShard(x=x, y=y)

        loss = ShardLoss(LossModel.linear(), shard)

        for lam in (0.05, 0.4, 1.5):
            fit = fista_l1(loss.eval, lam, np.zeros(3), L1Settings(tol=1e-12))
            exact, _ = enumerate_lasso_d3(x, y, lam)
            assert float(np.max(np.abs(fit.theta - exact))) < 1e-6

        pooled, _ = gen_logistic(4, 160, derive_rng(5, "accept-onestep"))
        cluster = Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, 4)
        anchor = np.full(4, 0.2)
        s = build_surrogate(cluster, anchor)
        theta_one = one_step_update(s)
        hess = cluster.losses[0].eval(anchor, 2)[2]
        h = 0.5 * (hess + hess.T)
        independent = anchor - gauss_jordan_inverse(h) @ s.pooled_grad_at_anchor
        assert float(np.max(np.abs(theta_one - independent))) < 1e-10

        a = rng.normal(size=(4, 4))
        curvature = a @ a.T + 3 * np.eye(4)
        b = rng.normal(size=(4, 4))
        middle = b @ b.T + np.eye(4)
        inv = gauss_jordan_inverse(curvature)
        assert float(np.max(np.abs(sandwich(curvature, middle)
                                   - inv @ middle @ inv))) < 1e-10

        chain = metropolis(lambda t: float(-0.5 * t @ t), np.zeros(1), 1.2,
                           50_000, seed=17)
        draws = chain.post_burn_in[:, 0]
        assert abs(float(np.mean(draws))) < 0.05
        assert 0.9 < float(np.var(draws)) < 1.1


def test_criterion_10_reruns_hash_identically(capfd, tmp_path):
    with criterion(capfd, 10, "seeded reruns hash identically"):
        base = desk_presets()["sweep_k_desk"]
        small = replace(base, k=(4, 8), trials=3)
        first = run_experiment(replace(small, out=str(tmp_path / "one.csv")))
        second = run_experiment(replace(small, out=str(tmp_path / "two.csv")))
        assert results_hash(first.path) == results_hash(second.path)

        bayes = replace(desk_presets()["bayes_desk"], n=(64,),
                        k=(4,), trials=2, mcmc_iters=600)
        third = run_experiment(replace(bayes, out=str(tmp_path / "three.csv")))
        fourth = run_experiment(replace(bayes, out=str(tmp_path / "four.csv")))
        assert results_hash(third.path) == results_hash(fourth.path)
        assert results_hash(first.path) != results_hash(third.path)
