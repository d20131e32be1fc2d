"""Surrogates for the pooled loss built from one shard plus one gradient round.

The exact surrogate keeps the host shard's full loss and tilts it linearly so
its gradient at the anchor equals the pooled gradient there:

    surrogate(theta) = local_loss(theta) - <theta, correction>
    correction       = local_grad(anchor) - pooled_grad(anchor)

The quadratic surrogate replaces the local loss with its second-order
expansion at the anchor, which makes the minimizer a single linear solve.
Either build costs exactly one gradient round on the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import Cluster
from .errors import DataError
from .losses import ShardLoss

__all__ = [
    "SurrogateLoss", "QuadraticSurrogate",
    "build_surrogate", "build_quadratic_surrogate",
    "surrogate_value", "surrogate_value_gradient", "surrogate_eval",
]


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
    host: int = 1


@dataclass(frozen=True)
class QuadraticSurrogate:
    """Second-order surrogate: pooled slope at the anchor, local curvature."""

    anchor: np.ndarray
    pooled_grad_at_anchor: np.ndarray
    local_hessian: np.ndarray

    def value(self, theta: np.ndarray) -> float:
        step = np.asarray(theta, dtype=np.float64) - self.anchor
        return float(self.pooled_grad_at_anchor @ step
                     + 0.5 * step @ (self.local_hessian @ step))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        step = np.asarray(theta, dtype=np.float64) - self.anchor
        return self.pooled_grad_at_anchor + self.local_hessian @ step


def _check_anchor(cluster: Cluster, anchor: np.ndarray, host: int) -> np.ndarray:
    anchor = np.asarray(anchor, dtype=np.float64)
    if anchor.shape != (cluster.d,):
        raise DataError(f"anchor has shape {anchor.shape}, expected ({cluster.d},)")
    if not np.all(np.isfinite(anchor)):
        raise DataError("anchor contains non-finite entries")
    if not (1 <= host <= cluster.k):
        raise DataError(f"host must be in 1..{cluster.k}, got {host}")
    return anchor


def build_surrogate(cluster: Cluster, anchor: np.ndarray, host: int = 1) -> SurrogateLoss:
    """One gradient round at the anchor, then assemble the tilted local loss.

    ``host`` selects which retained shard carries the curvature; the default
    is the coordinator's own shard.
    """
    anchor = _check_anchor(cluster, anchor, host)
    pooled_grad, local_grads = cluster.gradient_round(anchor)
    correction = local_grads[host - 1] - pooled_grad
    return SurrogateLoss(loss=cluster.losses[host - 1],
                         anchor=anchor, correction=correction,
                         pooled_grad_at_anchor=pooled_grad, host=host)


def build_quadratic_surrogate(cluster: Cluster, anchor: np.ndarray,
                              host: int = 1) -> QuadraticSurrogate:
    """One gradient round plus a local Hessian evaluation at the anchor."""
    anchor = _check_anchor(cluster, anchor, host)
    pooled_grad, _ = cluster.gradient_round(anchor)
    hessian = cluster.losses[host - 1].eval(anchor, 2)[2]
    return QuadraticSurrogate(anchor=anchor, pooled_grad_at_anchor=pooled_grad,
                              local_hessian=hessian)


def surrogate_eval(s: SurrogateLoss, theta: np.ndarray, order: int = 2) -> tuple:
    """Value, gradient and Hessian of the surrogate at theta, up to ``order``
    as in :meth:`ShardLoss.eval <csl.losses.ShardLoss.eval>`, from one pass
    over the host shard.

    The linear tilt leaves the Hessian equal to the host shard's loss Hessian.
    """
    theta = np.asarray(theta, dtype=np.float64)
    out = s.loss.eval(theta, order)
    value = out[0] - float(theta @ s.correction)
    if order == 0:
        return (value,)
    return (value, out[1] - s.correction) + out[2:]


def surrogate_value(s: SurrogateLoss, theta: np.ndarray) -> float:
    return surrogate_eval(s, theta, 0)[0]


def surrogate_value_gradient(s: SurrogateLoss,
                             theta: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and gradient in one data pass; the cheap path for first-order
    solvers where a Hessian would cost O(n d^2)."""
    return surrogate_eval(s, theta, 1)
