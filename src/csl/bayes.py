"""Surrogate-posterior sampling.

The surrogate posterior scores a parameter with the tilted local loss in
place of the pooled loss: log density = -N * surrogate(theta) + log prior,
where the prior is any log density and the experiments use the flat one.
Building it costs the usual single gradient round; afterwards a random-walk
Metropolis chain runs entirely on the coordinator. The pooled-loss posterior
is kept available as the oracle the surrogate chain is compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cluster import Cluster
from .errors import CslError, DataError
from .estimators import ilea, subsample_estimator
from .surrogate import SurrogateLoss, build_surrogate

__all__ = [
    "Prior", "Chain", "McmcSettings", "metropolis",
    "surrogate_log_posterior", "full_log_posterior",
    "run_csl_bayes", "CslBayesResult", "marginal_l1",
]

# One-step refits that sharpen the surrogate chain's anchor.
_INIT_ROUNDS = 3


@dataclass(frozen=True)
class Prior:
    """A log prior density, theta -> float, added as is to both log targets;
    :meth:`flat` is the prior every experiment uses."""

    log_density: Callable[[np.ndarray], float]

    @classmethod
    def flat(cls) -> "Prior":
        """Improper constant prior; log density 0 everywhere."""
        return cls(lambda theta: 0.0)


@dataclass
class Chain:
    """Metropolis output: the state after each iteration (the start point is
    not a row), one acceptance flag per iteration, and the sampling knobs."""

    samples: np.ndarray
    accepted: np.ndarray
    proposal_scale: float
    burn_in: int

    @property
    def post_burn_in(self) -> np.ndarray:
        return self.samples[self.burn_in:]

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted))


@dataclass(frozen=True)
class McmcSettings:
    """Chain length and proposal-stream seed."""

    iters: int
    seed: int

    def __post_init__(self):
        if self.iters < 2:
            raise DataError("iters must be >= 2")


def metropolis(log_target: Callable[[np.ndarray], float], theta0: np.ndarray,
               proposal_scale: float, iters: int, seed: int) -> Chain:
    """Random-walk Metropolis with an isotropic Gaussian proposal.

    Each iteration draws the proposal noise and the acceptance uniform in
    that fixed order regardless of the outcome, so a seed pins the whole
    trajectory. Acceptance is decided in log space; a log-density gain is
    accepted outright. The first ``iters // 2`` rows are burn-in; slice
    ``samples`` for another split.
    """
    if iters < 1:
        raise DataError("iters must be >= 1")
    theta = np.array(theta0, dtype=np.float64)
    d = theta.shape[0]
    current = float(log_target(theta))
    if not math.isfinite(current):
        raise DataError("theta0 has non-finite log target")
    rng = np.random.default_rng(seed)
    normal, uniform = rng.standard_normal, rng.random
    log, isnan = math.log, math.isnan
    samples = np.empty((iters, d))
    accepted = np.zeros(iters, dtype=bool)
    for t in range(iters):
        proposal = normal(d)
        proposal *= proposal_scale
        unif = uniform()
        proposal += theta
        cand = float(log_target(proposal))
        if isnan(cand):
            raise CslError(f"log target returned NaN at iteration {t}")
        delta = cand - current
        if delta >= 0.0 or (unif > 0.0 and log(unif) < delta):
            theta = proposal
            current = cand
            accepted[t] = True
        samples[t] = theta
    return Chain(samples=samples, accepted=accepted,
                 proposal_scale=float(proposal_scale), burn_in=iters // 2)


def surrogate_log_posterior(s: SurrogateLoss, prior: Prior, theta: np.ndarray,
                            n_total: int) -> float:
    """log density (up to a constant): -n_total * surrogate(theta) + log prior."""
    return -float(n_total) * s.eval(theta, 0)[0] + prior.log_density(theta)


def full_log_posterior(cluster: Cluster, prior: Prior, theta: np.ndarray,
                       n_total: int) -> float:
    """Pooled-loss posterior, the oracle: -n_total * mean shard loss + log prior.

    Reads every retained shard, so it is exact but not communication-honest;
    use it for validation, not inside the protocol. ``n_total`` is the
    sample count the posterior stands for, usually ``cluster.n_total``.
    """
    return (-float(n_total) * cluster.average([loss.eval(theta, 0)[0] for loss in cluster.losses])
            + prior.log_density(theta))


@dataclass
class CslBayesResult:
    """A surrogate chain and its anchor; what it cost is on the cluster's
    ledger."""

    chain: Chain
    anchor: np.ndarray


def run_csl_bayes(cluster: Cluster, prior: Prior, mcmc: McmcSettings) -> CslBayesResult:
    """End-to-end surrogate-posterior sampling.

    The anchor is produced communication-free on the coordinator's shard and
    sharpened by ``_INIT_ROUNDS`` one-step refits; the final surrogate build
    adds one more gradient round, for 2*(_INIT_ROUNDS + 1)*(k-1) vectors total.
    Proposals are autoscaled to 2.4 / sqrt(d * N * hbar) with hbar the mean
    diagonal curvature at the anchor, a normal-approximation step size. The
    chain runs ``mcmc.iters`` steps on the proposal stream of ``mcmc.seed``;
    its first half is burn-in.
    """
    start = subsample_estimator(cluster)
    anchor = ilea(cluster, start, rounds=_INIT_ROUNDS).final
    surr = build_surrogate(cluster, anchor)
    n_total = cluster.n_total
    hbar = float(np.mean(np.diag(surr.loss.eval(anchor, 2)[2])))
    if hbar <= 0.0:
        raise DataError("cannot autoscale proposals: nonpositive curvature")
    scale = 2.4 / math.sqrt(cluster.d * n_total * hbar)

    def log_target(theta):
        return surrogate_log_posterior(surr, prior, theta, n_total)

    chain = metropolis(log_target, anchor, scale, mcmc.iters, seed=mcmc.seed)
    return CslBayesResult(chain=chain, anchor=anchor)


def marginal_l1(chain_a: Chain, chain_b: Chain, coordinate: int, bins: int) -> float:
    """L1 distance in [0, 2] between two chains' post-burn-in marginals of
    ``coordinate``.

    Both samples are binned into ``bins`` equal bins on the shared range
    spanned by the pooled 0.5 and 99.5 percentiles; each histogram is
    normalized over that range.
    """
    if bins < 2:
        raise DataError("bins must be >= 2")
    xa, xb = chain_a.post_burn_in, chain_b.post_burn_in
    for data in (xa, xb):
        if data.ndim != 2 or not (0 <= coordinate < data.shape[1]):
            raise DataError(f"coordinate {coordinate} out of range for samples {data.shape}")
    xa, xb = xa[:, coordinate], xb[:, coordinate]
    if xa.size == 0 or xb.size == 0:
        raise DataError("cannot compare empty sample sets")
    pooled = np.concatenate([xa, xb])
    lo, hi = np.percentile(pooled, [0.5, 99.5])
    if not hi > lo:
        # Degenerate spread; any common width puts equal constants in one bin.
        lo, hi = lo - 0.5, hi + 0.5
    counts_a, _ = np.histogram(xa, bins=bins, range=(lo, hi))
    counts_b, _ = np.histogram(xb, bins=bins, range=(lo, hi))
    total_a, total_b = counts_a.sum(), counts_b.sum()
    if total_a == 0 or total_b == 0:
        return 2.0
    return float(np.abs(counts_a / total_a - counts_b / total_b).sum())

