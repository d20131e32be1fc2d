"""L1-regularized estimation over a cluster: the local, surrogate and averaged
lasso. The single-shard solvers live in :mod:`csl.solvers`, below the cluster,
so that a tcp worker serves the same local fit; this module binds their names
too. The surrogate lasso pays one gradient round and then solves on the host
shard; the averaged lasso pays one local-fit round of :class:`LassoFit`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cluster import Cluster
from .errors import DataError
from .losses import DataShard, LossModel, ShardLoss
from .solvers import (_SNAP, L1Settings, LassoFit, SparseEstimate,  # noqa: F401
                      _local_lasso, _noise_sd, _stationarity_ok, _working_set_lasso,
                      fista_l1, lambda_heuristic, soft_threshold)
from .surrogate import build_surrogate

__all__ = ["local_lasso", "csl_lasso", "iterative_csl_lasso", "averaging_lasso"]


def local_lasso(model: LossModel, shard: DataShard, lam: float | None = None,
                settings: L1Settings = L1Settings()) -> SparseEstimate:
    """Penalized fit on a single shard.

    With lam=None the penalty is calibrated by alternating a noise estimate at
    the current fit with a refit at the implied level, starting from zero.
    The first pass over-penalizes when the signal is strong; the recursion
    settles within a few passes as residuals approach the noise floor.
    """
    return _local_lasso(ShardLoss(model, shard), lam, settings)


def csl_lasso(cluster: Cluster, anchor: np.ndarray | None = None,
              lam: float | None = None,
              settings: L1Settings = L1Settings()) -> SparseEstimate:
    """Penalized surrogate fit: one gradient round to build the surrogate at
    the anchor, then a working-set FISTA on the coordinator's shard.

    anchor=None fits a calibrated lasso on the coordinator's shard first
    (communication-free). lam=None uses the pooled-scale heuristic with the
    noise level read off the anchor's residuals on the coordinator's shard.
    """
    if anchor is None:
        anchor = _local_lasso(cluster.losses[0], None, settings).theta
    anchor = np.asarray(anchor, dtype=np.float64)
    if lam is None:
        sigma_hat = _noise_sd(cluster.losses[0], anchor)
        lam = lambda_heuristic(sigma_hat, cluster.d, cluster.n_total)
    surr = build_surrogate(cluster, anchor)
    return _working_set_lasso(surr, lam, anchor, settings)


def iterative_csl_lasso(cluster: Cluster, rounds: int,
                        theta0: np.ndarray | None = None,
                        lam: float | Sequence[float] | None = None,
                        settings: L1Settings = L1Settings()) -> list[SparseEstimate]:
    """Re-anchor the surrogate lasso on its own output for a fixed number of
    rounds; each round costs one gradient round. lam may be a scalar, a
    per-round sequence, or None for the per-round heuristic."""
    if rounds < 1:
        raise DataError("rounds must be >= 1")
    if lam is None or np.isscalar(lam):
        lams: list[float | None] = [lam] * rounds  # type: ignore[list-item]
    else:
        lams = list(lam)
        if len(lams) != rounds:
            raise DataError(f"lam schedule has {len(lams)} entries for {rounds} rounds")
    anchor = theta0
    estimates: list[SparseEstimate] = []
    for lam_round in lams:
        estimate = csl_lasso(cluster, anchor=anchor, lam=lam_round, settings=settings)
        estimates.append(estimate)
        anchor = estimate.theta
    return estimates


def averaging_lasso(cluster: Cluster, lam: float | None = None,
                    settings: L1Settings = L1Settings()) -> SparseEstimate:
    """Mean of the k local penalized fits, folded in worker order.

    One local-fit round (k-1 reply vectors): each worker, the coordinator
    included, runs the :class:`LassoFit` on its own shard. The reported
    objective is the mean of the local composite objectives, since an average
    of minimizers minimizes no single program. Near-zero coordinates of the
    average are snapped so the support is well defined.
    """
    fits = cluster.local_minimizer_round(LassoFit(lam, settings))
    theta = cluster.average([fit.theta for fit in fits])
    theta[np.abs(theta) < _SNAP] = 0.0
    return SparseEstimate(
        theta=theta, objective_value=float(np.mean([f.objective_value for f in fits])),
        iterations=max(f.iterations for f in fits),
        converged=all(f.converged for f in fits))
