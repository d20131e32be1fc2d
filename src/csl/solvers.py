"""Damped Newton minimization for smooth convex objectives.

The objective convention used across the package: ``objective(theta, order)``
returns ``(value,)``, ``(value, gradient)`` or ``(value, gradient, hessian)``
as ``float``, ``(d,)`` and ``(d, d)`` for order 0, 1 or 2.
:meth:`ShardLoss.eval <csl.losses.ShardLoss.eval>` is such an objective. The
line search asks for values only. :func:`local_fit` is the one local fit from
zero: the in-process and tcp local-minimizer rounds, the subsample estimator
and :func:`minimize_shard_loss` all run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError, NonConvergenceError
from .losses import DataShard, LossModel, ShardLoss

__all__ = ["SolverSettings", "newton_minimize", "local_fit", "minimize_shard_loss"]

Objective = Callable[[np.ndarray, int], tuple]

# Line-search step below this is a stall, not progress.
_MIN_STEP = 1e-20
# Levenberg damping grows from _TAU0 by doubling; give up past _TAU_MAX.
_TAU0 = 1e-8
_TAU_MAX = 1e10
# Backtracking halves the step until f(x + t*p) <= f + _ARMIJO_C*t*<g, p>.
_SHRINK = 0.5
_ARMIJO_C = 1e-4


@dataclass(frozen=True)
class SolverSettings:
    """Newton stopping rule: a sup-norm threshold on the gradient and an
    iteration budget. Both travel in a local-min request."""

    grad_tol: float = 1e-8
    max_iters: int = 100

    def __post_init__(self):
        if not (0.0 < self.grad_tol):
            raise DataError("grad_tol must be positive")
        # The local-min request carries max_iters as an unsigned 32-bit field.
        if not (1 <= self.max_iters < 2 ** 32):
            raise DataError("max_iters must be in [1, 2**32)")


def _newton_direction(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H p = -g, adding Levenberg damping tau*I when H is not usable.

    Damping doubles from a tiny seed until the Cholesky factorization succeeds
    and the direction points downhill.
    """
    d = grad.shape[0]
    tau = 0.0
    while True:
        try:
            chol = np.linalg.cholesky(hessian + tau * np.eye(d) if tau else hessian)
        except np.linalg.LinAlgError:
            chol = None
        if chol is not None:
            p = np.linalg.solve(chol.T, np.linalg.solve(chol, -grad))
            if np.all(np.isfinite(p)) and float(grad @ p) < 0.0:
                return p
        tau = _TAU0 if tau == 0.0 else 2.0 * tau
        if tau > _TAU_MAX:
            raise NonConvergenceError(
                "could not produce a descent direction even with heavy damping",
                gradient_norm=float(np.max(np.abs(grad))))


def newton_minimize(objective: Objective, theta0: np.ndarray,
                    settings: SolverSettings = SolverSettings()) -> np.ndarray:
    """Minimize a smooth objective by damped Newton steps.

    Stops when the gradient sup-norm drops to settings.grad_tol. Raises
    NonConvergenceError (carrying the last iterate and gradient norm) when the
    iteration budget runs out or the line search stalls; never returns a
    silently unconverged point.
    """
    theta = np.array(theta0, dtype=np.float64)
    if theta.ndim != 1:
        raise DataError("theta0 must be a vector")
    value, grad, hessian = objective(theta, 2)
    for iteration in range(settings.max_iters):
        gnorm = float(np.max(np.abs(grad)))
        if not np.isfinite(gnorm):
            raise NonConvergenceError(
                f"non-finite gradient at iteration {iteration}",
                last_iterate=theta, gradient_norm=gnorm, iterations=iteration)
        if gnorm <= settings.grad_tol:
            return theta
        p = _newton_direction(hessian, grad)
        slope = float(grad @ p)
        t = 1.0
        while True:
            candidate = theta + t * p
            cand_value = objective(candidate, 0)[0]
            if np.isfinite(cand_value) and cand_value <= value + _ARMIJO_C * t * slope:
                break
            t *= _SHRINK
            if t < _MIN_STEP:
                raise NonConvergenceError(
                    f"line search stalled at iteration {iteration}",
                    last_iterate=theta, gradient_norm=gnorm, iterations=iteration)
        theta = candidate
        value, grad, hessian = objective(theta, 2)
    gnorm = float(np.max(np.abs(grad)))
    if gnorm <= settings.grad_tol:
        return theta
    raise NonConvergenceError(
        f"no convergence in {settings.max_iters} iterations "
        f"(gradient sup-norm {gnorm:.3e})",
        last_iterate=theta, gradient_norm=gnorm, iterations=settings.max_iters)


def local_fit(loss: ShardLoss, settings: SolverSettings = SolverSettings()) -> np.ndarray:
    """Local maximum-likelihood fit on one bound shard evaluator, started at
    zero: the fit every worker runs, in process and over tcp."""
    return newton_minimize(loss.eval, np.zeros(loss.shard.n_features), settings)


def minimize_shard_loss(model: LossModel, shard: DataShard,
                        settings: SolverSettings = SolverSettings()) -> np.ndarray:
    """:func:`local_fit` on a fresh evaluator of ``shard``."""
    return local_fit(ShardLoss(model, shard), settings)
