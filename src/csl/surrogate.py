"""The surrogate for the pooled loss, built from one shard plus one gradient round.

The coordinator's shard hosts the surrogate. It keeps that shard's full loss
and tilts it linearly so its gradient at the anchor equals the pooled gradient
there:

    surrogate(theta) = local_loss(theta) - <theta, correction>
    correction       = local_grad(anchor) - pooled_grad(anchor)

Its Hessian is the host shard's loss Hessian, so the one-step update is a
single Newton step on this surrogate from the anchor, and the exact update
minimizes it. The build costs exactly one gradient round on the ledger, and
that round checks the anchor's shape and finiteness before any request goes
out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import Cluster
from .losses import ShardLoss

__all__ = ["SurrogateLoss", "build_surrogate"]


@dataclass(frozen=True)
class SurrogateLoss:
    """Tilted local loss standing in for the pooled loss.

    Its gradient at ``anchor`` equals ``pooled_grad_at_anchor`` by
    construction, up to one floating-point subtraction. ``loss`` is the host
    shard's bound evaluator.
    """

    loss: ShardLoss
    anchor: np.ndarray
    correction: np.ndarray
    pooled_grad_at_anchor: np.ndarray

    def eval(self, theta: np.ndarray, order: int = 2) -> tuple:
        """Value, gradient and Hessian of the surrogate at theta, up to
        ``order`` as in :meth:`ShardLoss.eval <csl.losses.ShardLoss.eval>`,
        from one pass over the host shard; an ``objective(theta, order)``.

        The linear tilt leaves the Hessian equal to the host shard's loss Hessian.
        """
        theta = np.asarray(theta, dtype=np.float64)
        out = self.loss.eval(theta, order)
        value = out[0] - float(theta @ self.correction)
        if order == 0:
            return (value,)
        return (value, out[1] - self.correction) + out[2:]

    def restrict(self, columns: np.ndarray) -> "SurrogateLoss":
        """The surrogate on the host shard's ``x[:, columns]``: at a theta that
        is zero off those columns, the surrogate of ``theta[columns]``."""
        return SurrogateLoss(loss=self.loss.restrict(columns),
                             anchor=self.anchor[columns],
                             correction=self.correction[columns],
                             pooled_grad_at_anchor=self.pooled_grad_at_anchor[columns])


def build_surrogate(cluster: Cluster, anchor: np.ndarray) -> SurrogateLoss:
    """One gradient round at the anchor, then assemble the tilted loss of the
    coordinator's shard."""
    anchor = np.asarray(anchor, dtype=np.float64)
    pooled_grad, local_grads = cluster.gradient_round(anchor)
    return SurrogateLoss(loss=cluster.losses[0], anchor=anchor,
                         correction=local_grads[0] - pooled_grad,
                         pooled_grad_at_anchor=pooled_grad)
