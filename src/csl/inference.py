"""Plug-in covariance estimates and normal confidence intervals.

All three covariance estimates are sandwiches ``H^-1 V H^-1`` differing in
what data they may touch:

* sigma_global: pooled curvature and pooled per-sample score outer products
  (an oracle; it moves raw samples and is metered as such);
* sigma_local: host-shard curvature and host-shard surrogate scores, no
  communication at all;
* sigma_cross: host-shard curvature with the across-machine spread of shard
  gradients as the middle term, one gradient round.
"""

from __future__ import annotations

import statistics
import warnings
from dataclasses import dataclass

import numpy as np

from .cluster import Cluster
from .errors import DataError, SingularHessianError
from .losses import ShardLoss
from .surrogate import SurrogateLoss

__all__ = [
    "sandwich",
    "sigma_global", "sigma_local", "sigma_cross",
    "ConfidenceIntervals", "confidence_intervals",
]

# Two-sided 95% normal critical value: the design's one interval level.
_Z95 = statistics.NormalDist().inv_cdf(0.975)


def sandwich(curvature: np.ndarray, middle: np.ndarray) -> np.ndarray:
    """curvature^-1 @ middle @ curvature^-1, symmetrized, via two solves."""
    curvature = np.asarray(curvature, dtype=np.float64)
    try:
        half = np.linalg.solve(curvature, middle)
        full = np.linalg.solve(curvature, half.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularHessianError(f"sandwich curvature is singular: {exc}")
    return 0.5 * (full + full.T)


def _score_sandwich(loss: ShardLoss, theta: np.ndarray,
                    shift: np.ndarray | float) -> np.ndarray:
    """Sandwich of the loss Hessian at theta around the mean outer product of
    the per-sample scores minus ``shift``."""
    curvature = loss.eval(theta, 2)[2]
    scores = loss.per_sample(theta) - shift
    # np.dot, not @: with a transposed operand only np.dot releases the GIL.
    middle = np.dot(scores.T, scores) / loss.shard.n_samples
    return sandwich(curvature, middle)


def sigma_global(cluster: Cluster, theta: np.ndarray) -> np.ndarray:
    """Pooled-data sandwich at theta. Moves all raw samples to the
    coordinator (metered in samples_moved); intended as the reference the
    communication-free estimates are judged against."""
    return _score_sandwich(ShardLoss(cluster.model, cluster.pooled_shard(meter=True)),
                           theta, 0.0)


def sigma_local(s: SurrogateLoss, theta: np.ndarray) -> np.ndarray:
    """Sandwich built entirely on the surrogate's host shard.

    Scores are per-sample surrogate gradients: each sample's loss gradient
    minus the stored correction vector. No ledger activity.
    """
    return _score_sandwich(s.loss, theta, s.correction)


def sigma_cross(cluster: Cluster, theta: np.ndarray) -> np.ndarray:
    """Sandwich whose middle term is the spread of whole-shard gradients:
    (n/k) * sum_j g_j g_j^T from one gradient round at theta.

    Consistent as k grows; with few machines the middle term is a k-sample
    covariance estimate, hence the warning below 10.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if cluster.k < 10:
        warnings.warn(f"sigma_cross with k={cluster.k} machines averages only "
                      f"{cluster.k} gradient outer products; estimates will be "
                      "noisy below k=10", UserWarning, stacklevel=2)
    local_grads = cluster.gradient_round(theta)[1]
    n, k = cluster.n_per_shard, cluster.k
    middle = np.zeros((cluster.d, cluster.d))
    for g in local_grads:
        middle += np.outer(g, g)
    middle *= n / k
    curvature = cluster.losses[0].eval(theta, 2)[2]
    return sandwich(curvature, middle)


@dataclass(frozen=True)
class ConfidenceIntervals:
    """Per-coordinate 95% normal intervals ``center_i +- z * sqrt(cov_ii / n_total)``."""

    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def halfwidths(self) -> np.ndarray:
        return 0.5 * (self.upper - self.lower)

    def covers(self, truth: np.ndarray) -> np.ndarray:
        """Elementwise: does each interval contain the given coordinate?"""
        truth = np.asarray(truth, dtype=np.float64)
        return (self.lower <= truth) & (truth <= self.upper)


def confidence_intervals(center: np.ndarray, covariance: np.ndarray,
                         n_total: int) -> ConfidenceIntervals:
    """Plug-in 95% intervals from an asymptotic covariance of sqrt(n_total)-scaled
    estimates; the variance of the estimate itself is cov_ii / n_total."""
    center = np.asarray(center, dtype=np.float64)
    covariance = np.asarray(covariance, dtype=np.float64)
    if n_total < 1:
        raise DataError("n_total must be >= 1")
    diag = np.diag(covariance)
    if np.any(diag < 0.0):
        raise DataError("covariance has negative diagonal entries")
    half = _Z95 * np.sqrt(diag / n_total)
    return ConfidenceIntervals(center=center, lower=center - half, upper=center + half)
