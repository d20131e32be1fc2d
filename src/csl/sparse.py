"""L1-regularized estimation over a cluster: the local, surrogate and averaged
lasso. The single-shard solvers live in :mod:`csl.solvers`, below the cluster,
so that a tcp worker serves the same local fit through
:func:`~csl.solvers.run_fit`, and every local lasso here goes through it too.
The surrogate lasso pays one gradient round and then solves on the host
shard; the averaged lasso pays one local-fit round of :class:`LassoFit`.
Each takes its penalty ``lam``, and each surrogate refit its start.
"""

from __future__ import annotations

import numpy as np

from .cluster import Cluster
from .losses import DataShard, LossModel, ShardLoss
from .solvers import _SNAP, L1Settings, LassoFit, SparseEstimate, _working_set_lasso, run_fit
# perfbench traces the FISTA kernel by the name ``csl.sparse.fista_l1``.
from .solvers import fista_l1  # noqa: F401
from .surrogate import build_surrogate

__all__ = ["local_lasso", "csl_lasso", "averaging_lasso"]


def local_lasso(model: LossModel, shard: DataShard, lam: float,
                settings: L1Settings = L1Settings()) -> SparseEstimate:
    """Penalized fit on a single shard, from zero."""
    return run_fit(LassoFit(lam, settings), ShardLoss(model, shard))


def csl_lasso(cluster: Cluster, anchor: np.ndarray, lam: float,
              settings: L1Settings = L1Settings()) -> SparseEstimate:
    """Penalized surrogate fit: one gradient round to build the surrogate at
    the anchor, then a working-set FISTA on the coordinator's shard.

    ``local_lasso(cluster.model, cluster.shards[0], lam).theta`` is an anchor
    that costs no communication.
    """
    LassoFit(lam, settings)  # rejects a bad penalty before any round moves the ledger
    anchor = np.asarray(anchor, dtype=np.float64)
    surr = build_surrogate(cluster, anchor)
    return _working_set_lasso(surr, lam, anchor, settings)


def averaging_lasso(cluster: Cluster, lam: float,
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
        theta=theta, objective_value=cluster.average([f.objective_value for f in fits]),
        iterations=max(f.iterations for f in fits),
        converged=all(f.converged for f in fits))
