"""The benchmark's workloads: inputs from a seed, a ready cluster, one trial,
and the checks on the trial's outputs.

Each workload is a closed loop with one caller that runs one trial at a time,
so the only threads are the program's own. Every call into the package goes
through an attribute of the ``csl`` module at call time, so a traced run sees
it. README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import warnings

import numpy as np

import csl


def sq_dist(a, b) -> float:
    diff = np.asarray(a, dtype=np.float64) - b
    return float(diff @ diff)


def logistic_mle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pooled logistic maximum-likelihood fit by plain Newton steps.

    The reference the headline estimators are scored against; it shares no
    code with the package's solvers.
    """
    theta = np.zeros(x.shape[1])
    for _ in range(50):
        p = 0.5 * (1.0 + np.tanh(0.5 * (x @ theta)))
        hess = (x * (p * (1.0 - p))[:, None]).T @ x
        step = np.linalg.solve(hess, x.T @ (p - y))
        theta -= step
        if np.max(np.abs(step)) < 1e-12:
            return theta
    raise RuntimeError("reference logistic fit did not converge")


class Workload:
    """One workload. Subclasses set the shape and define inputs, build, run
    and check."""

    name = ""
    transport = "in_process"
    # In-process set-up takes about a millisecond, so each trial sets up
    # this many times and every set-up is a sample of setup_s.
    setup_repeats = 1
    # Threads the workload keeps computing at once; the speed probe runs on
    # as many.
    busy_threads = 1
    expected_vectors = 0
    expected_samples_moved = 0

    def inputs(self, seed: int, trial: int) -> dict:
        raise NotImplementedError

    def build(self, inputs: dict, transport: str | None = None):
        raise NotImplementedError

    def run(self, cluster, inputs: dict) -> dict:
        """One trial on a ready cluster; closes it. Returns named arrays."""
        raise NotImplementedError

    def check(self, inputs: dict, outputs: dict) -> tuple[list[str], float, float]:
        """(problems, headline squared error, reference squared error) for one
        trial; both errors are squared distances to the true parameter."""
        raise NotImplementedError

    def setup(self, inputs: dict):
        """Generated arrays to a ready cluster.

        Ready means the cluster has answered one gradient round at zero. Over
        TCP a worker decodes its shard on its own thread after the
        coordinator has sent it, so without this round the last decode would
        be paid inside the first trial call. The round's 2(k-1) vectors land
        on the ledger before the trial starts and are not counted in it.
        """
        cluster = self.build(inputs)
        try:
            cluster.gradient_round(np.zeros(cluster.d))
        except BaseException:
            cluster.close()
            raise
        return cluster


class MestTcp(Workload):
    """Logistic M-estimation over real loopback sockets."""

    name = "mest_tcp"
    transport = "tcp"
    busy_threads = 2
    d, k, n, rounds = 10, 3, 16384, 3
    expected_vectors = (k - 1) * (1 + 2 * rounds + 2 + 2)
    # Frames packed during a trial: local-min request and reply, three ILEA
    # rounds, the surrogate build and sigma_cross at two frames each, and one
    # shutdown, per remote worker.
    expected_frames = (k - 1) * (2 + 2 * rounds + 2 + 2 + 1)

    def inputs(self, seed, trial):
        rng = csl.derive_rng(seed, self.name, trial, "data")
        pooled, theta_star = csl.gen_logistic(self.d, self.k * self.n, rng)
        return {"x": pooled.x, "y": pooled.y, "theta_star": theta_star}

    def build(self, inputs, transport=None):
        return csl.Cluster.from_pooled(csl.LossModel.logistic(), inputs["x"], inputs["y"],
                                       self.k, transport=transport or self.transport)

    def run(self, cluster, inputs):
        with cluster:
            theta_avg = csl.averaging_estimator(cluster)
            trajectory = csl.ilea(cluster, theta_avg, rounds=self.rounds)
            theta = trajectory.final
            surrogate = csl.build_surrogate(cluster, theta)
            s_local = csl.sigma_local(surrogate, theta)
            with warnings.catch_warnings():
                # k=3 is below sigma_cross's k>=10 advice on purpose: the
                # workload measures the round, not the estimate's quality.
                warnings.filterwarnings("ignore", message="sigma_cross with k=",
                                        category=UserWarning)
                s_cross = csl.sigma_cross(cluster, theta)
            ci = csl.confidence_intervals(theta, s_local, cluster.n_total)
        return {"averaging": theta_avg, "ilea": np.array(trajectory.iterates),
                "sigma_local": s_local, "sigma_cross": s_cross,
                "ci_lower": ci.lower, "ci_upper": ci.upper}

    def check(self, inputs, outputs):
        problems = []
        theta_star = inputs["theta_star"]
        reference = logistic_mle(inputs["x"], inputs["y"])
        theta = outputs["ilea"][-1]
        ref_error = sq_dist(reference, theta_star)
        gap = np.sqrt(sq_dist(theta, reference) / ref_error)
        if not gap < 1e-3:
            problems.append(f"ILEA estimate is {gap:.3g} reference errors from the pooled fit")
        for key in ("sigma_local", "sigma_cross"):
            sigma = outputs[key]
            if not (np.all(np.isfinite(sigma)) and np.array_equal(sigma, sigma.T)
                    and np.all(np.diag(sigma) > 0.0)):
                problems.append(f"{key} is not a finite symmetric matrix with positive diagonal")
        if not np.all((outputs["ci_lower"] < theta) & (theta < outputs["ci_upper"])):
            problems.append("confidence intervals do not bracket the estimate")
        return problems, sq_dist(theta, theta_star), ref_error


class BayesPosterior(Workload):
    """Surrogate-posterior Metropolis against the pooled-posterior oracle."""

    name = "bayes_posterior"
    setup_repeats = 20
    d, k, n, rounds = 2, 16, 1024, 3
    # The bayes_desk cell runs 20 000 iterations; 1 000 keeps one trial near
    # a second so that a run holds a steady number of trials.
    iters, bins = 1000, 20
    expected_vectors = 2 * (rounds + 1) * (k - 1)

    def inputs(self, seed, trial):
        rng = csl.derive_rng(seed, self.name, trial, "data")
        pooled, theta_star = csl.gen_logistic(self.d, self.k * self.n, rng)
        chain_seed = int(csl.derive_rng(seed, self.name, trial, "chain").integers(0, 2 ** 63 - 1))
        return {"x": pooled.x, "y": pooled.y, "theta_star": theta_star,
                "chain_seed": chain_seed}

    def build(self, inputs, transport=None):
        return csl.Cluster.from_pooled(csl.LossModel.logistic(), inputs["x"], inputs["y"],
                                       self.k, transport=transport or self.transport)

    def run(self, cluster, inputs):
        seed = inputs["chain_seed"]
        prior = csl.Prior.flat()
        with cluster:
            result = csl.run_csl_bayes(cluster, prior,
                                       csl.McmcSettings(iters=self.iters, seed=seed))
            oracle = csl.Cluster(cluster.model, [cluster.pooled_shard(meter=False)])
            n_total = cluster.n_total

            def oracle_target(theta):
                return csl.full_log_posterior(oracle, prior, theta, n_total)

            # Same start, step size and proposal stream as the surrogate
            # chain, so the two chains part only where the targets differ.
            full = csl.metropolis(oracle_target, result.anchor, result.chain.proposal_scale,
                                  self.iters, seed=seed)
            l1 = [csl.marginal_l1(result.chain, full, coordinate=c, bins=self.bins)
                  for c in range(self.d)]
        return {"anchor": result.anchor, "surrogate_chain": result.chain.samples,
                "surrogate_accepted": result.chain.accepted, "oracle_chain": full.samples,
                "oracle_accepted": full.accepted, "marginal_l1": np.array(l1),
                "burn_in": np.array([result.chain.burn_in, full.burn_in])}

    def check(self, inputs, outputs):
        problems = []
        for key in ("surrogate_accepted", "oracle_accepted"):
            rate = float(np.mean(outputs[key]))
            if not 0.15 <= rate <= 0.6:
                problems.append(f"{key} rate {rate:.3f} outside [0.15, 0.6]")
        if not np.max(outputs["marginal_l1"]) <= 1.2:
            problems.append(f"marginal_l1 {np.max(outputs['marginal_l1']):.3f} above 1.2")
        burn = int(outputs["burn_in"][0])
        surr = outputs["surrogate_chain"][burn:]
        full = outputs["oracle_chain"][burn:]
        shift = np.max(np.abs(surr.mean(axis=0) - full.mean(axis=0)) / full.std(axis=0))
        if not shift <= 0.75:
            problems.append(f"posterior means differ by {shift:.3f} oracle sds")
        theta_star = inputs["theta_star"]
        reference = logistic_mle(inputs["x"], inputs["y"])
        ref_error = sq_dist(reference, theta_star)
        anchor = outputs["anchor"]
        gap = np.sqrt(sq_dist(anchor, reference) / ref_error)
        if not gap < 0.1:
            problems.append(f"anchor is {gap:.3g} reference errors from the pooled fit")
        return problems, sq_dist(anchor, theta_star), ref_error


def refit_on_support(shard, theta: np.ndarray) -> np.ndarray:
    """Least-squares refit of theta on its nonzero coordinates, as the
    lasso_shard_desk trial does before anchoring the surrogate lasso."""
    support = np.flatnonzero(theta)
    if support.size == 0 or support.size >= shard.x.shape[0]:
        return theta
    coef, *_ = np.linalg.lstsq(shard.x[:, support], shard.y, rcond=None)
    refit = np.zeros_like(theta)
    refit[support] = coef
    return refit


class LassoHd(Workload):
    """High-dimensional sparse linear regression, the lasso_shard_desk sequence."""

    name = "lasso_hd"
    setup_repeats = 10
    d, n, k, s, sigma, lam_scale = 1000, 400, 8, 10, 1.0, 3.0
    expected_vectors = 2 * (k - 1) + (k - 1)
    expected_samples_moved = (k - 1) * n

    def inputs(self, seed, trial):
        rng = csl.derive_rng(seed, self.name, trial, "data")
        shards, theta_star = csl.gen_sparse_linear(self.d, self.n, self.k, self.s,
                                                   self.sigma, rng)
        return {"shards": shards, "theta_star": theta_star}

    def build(self, inputs, transport=None):
        return csl.Cluster(csl.LossModel.linear(), inputs["shards"],
                           transport=transport or self.transport)

    def run(self, cluster, inputs):
        lam_local = csl.lambda_heuristic(self.sigma, self.d, self.n)
        lam_global = csl.lambda_heuristic(self.sigma, self.d, self.n * self.k,
                                          scale=self.lam_scale)
        with cluster:
            pooled = cluster.pooled_shard(meter=True)
            global_fit = csl.local_lasso(cluster.model, pooled, lam=lam_global)
            anchor_fit = csl.local_lasso(cluster.model, cluster.shards[0], lam=lam_local)
            anchor = refit_on_support(cluster.shards[0], anchor_fit.theta)
            csl_fit = csl.csl_lasso(cluster, anchor=anchor, lam=lam_global)
            avg_fit = csl.averaging_lasso(cluster, lam=lam_local)
        fits = (global_fit, anchor_fit, csl_fit, avg_fit)
        return {"global": global_fit.theta, "subsample": anchor_fit.theta, "anchor": anchor,
                "csl": csl_fit.theta, "averaging": avg_fit.theta,
                "iterations": np.array([f.iterations for f in fits]),
                "converged": np.array([f.converged for f in fits])}

    def check(self, inputs, outputs):
        problems = []
        theta_star = inputs["theta_star"]
        truth = set(np.flatnonzero(theta_star).tolist())
        for key in ("global", "csl"):
            found = set(np.flatnonzero(outputs[key]).tolist())
            if not truth <= found:
                problems.append(f"{key} lasso misses {len(truth - found)} true coordinates")
        error = sq_dist(outputs["csl"], theta_star)
        ref_error = sq_dist(outputs["global"], theta_star)
        if not error <= 3.0 * ref_error:
            problems.append(f"csl lasso error is {error / ref_error:.3g} times the pooled lasso's")
        return problems, error, ref_error


WORKLOADS = {w.name: w for w in (MestTcp(), BayesPosterior(), LassoHd())}
