"""L1-regularized estimation: FISTA, the surrogate lasso, and baselines.

The proximal solver works on any smooth value+gradient callable, so the same
code fits a local shard lasso, the pooled lasso, and the surrogate lasso. The
communication-efficient path pays one gradient round to build the surrogate
and then solves entirely on the host shard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cluster import Cluster
from .errors import DataError, NonConvergenceError
from .losses import DataShard, LossModel, ShardLoss
from .surrogate import build_surrogate, surrogate_value_gradient

__all__ = [
    "L1Settings", "SparseEstimate", "soft_threshold", "fista_l1",
    "lambda_heuristic", "estimate_noise_sd", "local_lasso",
    "csl_lasso", "iterative_csl_lasso", "averaging_lasso",
]

ValueGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]

# Coordinates below this magnitude in a solution are snapped to exact zero.
_SNAP = 1e-12
# Backtracking gives up once the local Lipschitz estimate passes this.
_MAX_LIPSCHITZ = 1e18


@dataclass(frozen=True)
class L1Settings:
    """Proximal-gradient knobs. step_size=None turns on backtracking; a float
    fixes the step (use 1/L for a known Lipschitz constant)."""

    step_size: float | None = None
    tol: float = 1e-8
    max_iters: int = 2000

    def __post_init__(self):
        if self.step_size is not None and not (self.step_size > 0.0):
            raise DataError("step_size must be positive or None")
        if not (self.tol > 0.0):
            raise DataError("tol must be positive")
        if self.max_iters < 1:
            raise DataError("max_iters must be >= 1")


@dataclass(frozen=True)
class SparseEstimate:
    """A penalized fit: the point, its support, the composite objective there,
    the outer iterations spent, and whether the stopping test was met (an
    exhausted budget is flagged here, not raised)."""

    theta: np.ndarray
    support: np.ndarray
    objective_value: float
    iterations: int
    converged: bool

    @property
    def sparsity(self) -> int:
        return int(self.support.size)


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """sign(v) * max(|v| - t, 0), elementwise."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _stationarity_ok(grad: np.ndarray, theta: np.ndarray, lam: float,
                     slack: float) -> bool:
    """Subgradient optimality with slack: on the support the smooth gradient
    must cancel lam*sign(theta); off it, stay inside the lam tube."""
    on = theta != 0.0
    if np.any(np.abs(grad[on] + lam * np.sign(theta[on])) > slack):
        return False
    return not np.any(np.abs(grad[~on]) > lam + slack)


def fista_l1(value_grad: ValueGrad, lam: float, theta0: np.ndarray,
             settings: L1Settings = L1Settings()) -> SparseEstimate:
    """Minimize ``f(theta) + lam * ||theta||_1`` by accelerated proximal descent.

    Backtracks a local Lipschitz estimate unless a fixed step is given,
    restarts momentum whenever the composite objective would rise (so the
    accepted sequence is monotone and never ends above the start), and stops
    once the decrease falls under tol AND the subgradient condition holds to
    within 10*tol. Tiny coordinates are snapped to exact zeros on return.
    """
    if lam < 0.0:
        raise DataError("lam must be >= 0")
    x = np.array(theta0, dtype=np.float64)
    fx, _ = value_grad(x)
    comp_x = fx + lam * float(np.abs(x).sum())
    if not np.isfinite(comp_x):
        raise DataError("objective is not finite at theta0")
    z = x.copy()
    momentum = 1.0
    lipschitz = 1.0 if settings.step_size is None else 1.0 / settings.step_size
    iterations = 0
    converged = False
    for iterations in range(1, settings.max_iters + 1):
        fz, gz = value_grad(z)
        while True:
            step = 1.0 / lipschitz
            u = soft_threshold(z - step * gz, lam * step)
            fu = value_grad(u)[0]
            du = u - z
            bound = fz + float(gz @ du) + 0.5 * lipschitz * float(du @ du)
            if settings.step_size is not None:
                break
            if fu <= bound + 1e-12 * max(1.0, abs(fz)):
                break
            lipschitz *= 2.0
            if lipschitz > _MAX_LIPSCHITZ:
                raise NonConvergenceError(
                    "backtracking exhausted; objective may not have a "
                    "Lipschitz gradient", last_iterate=x, iterations=iterations)
        comp_u = fu + lam * float(np.abs(u).sum())
        if comp_u <= comp_x:
            previous = x
            x, comp_prev, comp_x = u, comp_x, comp_u
            next_momentum = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
            z = x + ((momentum - 1.0) / next_momentum) * (x - previous)
            momentum = next_momentum
        else:
            # Momentum overshot: restart from the best point, keep x as is.
            z = x.copy()
            momentum = 1.0
            comp_prev = comp_x
        if abs(comp_prev - comp_x) < settings.tol:
            _, gx = value_grad(x)
            if _stationarity_ok(gx, x, lam, 10.0 * settings.tol):
                converged = True
                break
    x[np.abs(x) < _SNAP] = 0.0
    fx, _ = value_grad(x)
    return SparseEstimate(theta=x, support=np.flatnonzero(x),
                          objective_value=fx + lam * float(np.abs(x).sum()),
                          iterations=iterations, converged=converged)


def lambda_heuristic(sigma_hat: float, d: int, n: int, scale: float = 2.0) -> float:
    """Penalty level ``scale * sigma_hat * sqrt(log(d) / n)``; pass the pooled
    sample count for a pooled-scale penalty or the shard size for a local one."""
    if d < 2 or n < 1:
        raise DataError("lambda heuristic needs d >= 2 and n >= 1")
    return scale * sigma_hat * math.sqrt(math.log(d) / n)


def estimate_noise_sd(model: LossModel, theta: np.ndarray, shard: DataShard) -> float:
    """Root mean squared residual of y against the model mean at theta."""
    return _noise_sd(ShardLoss(model, shard), theta)


def _noise_sd(loss: ShardLoss, theta: np.ndarray) -> float:
    resid = loss.shard.y - loss.mean(theta)
    return float(np.sqrt(np.mean(resid * resid)))


def local_lasso(model: LossModel, shard: DataShard, lam: float | None = None,
                settings: L1Settings = L1Settings(),
                refit_passes: int = 6) -> SparseEstimate:
    """Penalized fit on a single shard.

    With lam=None the penalty is calibrated by alternating a noise estimate at
    the current fit with a refit at the implied level, starting from zero.
    The first pass over-penalizes when the signal is strong; the recursion
    settles within a few passes as residuals approach the noise floor.
    """
    loss = ShardLoss(model, shard)

    def value_grad(theta):
        return loss.eval(theta, 1)

    if lam is not None:
        return fista_l1(value_grad, lam, np.zeros(shard.n_features), settings)
    theta = np.zeros(shard.n_features)
    estimate = None
    for _ in range(max(1, refit_passes)):
        sigma_hat = _noise_sd(loss, theta)
        lam_pass = lambda_heuristic(sigma_hat, shard.n_features, shard.n_samples)
        estimate = fista_l1(value_grad, lam_pass, theta, settings)
        theta = estimate.theta
    return estimate


def csl_lasso(cluster: Cluster, anchor: np.ndarray | None = None,
              lam: float | None = None, settings: L1Settings = L1Settings(),
              host: int = 1) -> SparseEstimate:
    """Penalized surrogate fit: one gradient round to build the surrogate at
    the anchor, then FISTA on the host shard.

    anchor=None fits a calibrated lasso on the coordinator's shard first
    (communication-free). lam=None uses the pooled-scale heuristic with the
    noise level read off the anchor's residuals on the host shard.
    """
    if anchor is None:
        anchor = local_lasso(cluster.model, cluster.shards[host - 1],
                             settings=settings).theta
    anchor = np.asarray(anchor, dtype=np.float64)
    if lam is None:
        sigma_hat = _noise_sd(cluster.losses[host - 1], anchor)
        lam = lambda_heuristic(sigma_hat, cluster.d, cluster.n_total)
    surr = build_surrogate(cluster, anchor, host=host)

    def value_grad(theta):
        return surrogate_value_gradient(surr, theta)

    return fista_l1(value_grad, lam, anchor.copy(), settings)


def iterative_csl_lasso(cluster: Cluster, rounds: int,
                        theta0: np.ndarray | None = None,
                        lam: float | Sequence[float] | None = None,
                        settings: L1Settings = L1Settings(),
                        host: int = 1) -> list[SparseEstimate]:
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
        estimate = csl_lasso(cluster, anchor=anchor, lam=lam_round,
                             settings=settings, host=host)
        estimates.append(estimate)
        anchor = estimate.theta
    return estimates


def averaging_lasso(cluster: Cluster, lam: float | None = None,
                    settings: L1Settings = L1Settings()) -> SparseEstimate:
    """Mean of the k local penalized fits, folded in worker order.

    Ledgered like a local-minimizer round (k-1 reply vectors); the fits
    themselves run on the retained shard copies. The reported objective is
    the mean of the local composite objectives, since an average of
    minimizers minimizes no single program. Near-zero coordinates of the
    average are snapped so the support is well defined.
    """
    fits = [local_lasso(cluster.model, shard, lam=lam, settings=settings)
            for shard in cluster.shards]
    if cluster.k > 1:
        cluster.ledger.vectors_sent += cluster.k - 1
        cluster.ledger.rounds += 1
    acc = np.zeros(cluster.d)
    for fit in fits:
        acc += fit.theta
    theta = acc / cluster.k
    theta[np.abs(theta) < _SNAP] = 0.0
    return SparseEstimate(
        theta=theta, support=np.flatnonzero(theta),
        objective_value=float(np.mean([f.objective_value for f in fits])),
        iterations=max(f.iterations for f in fits),
        converged=all(f.converged for f in fits))
