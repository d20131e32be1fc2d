"""L1-regularized estimation: FISTA, the surrogate lasso, and baselines.

The proximal solver :func:`fista_l1` takes the smooth part in the package's
objective convention, ``objective(theta, order)`` returning ``(value,)`` for
order 0 and ``(value, gradient)`` for order 1 (see :mod:`csl.solvers`). It asks
for order 0 at the start, at every backtracking probe and at the end, and for
order 1 once per iteration plus once per stationarity check.

The lasso entry points (the local, pooled, surrogate and averaged fits) keep
only a few of their columns, so they solve on a working set. A pass runs
:func:`fista_l1` on the columns of the working set alone, through the
``restrict(columns)`` evaluator of the loss, then takes one gradient over all
columns. The fit is certified only when the subgradient condition holds on
every column at the stopping slack; otherwise the columns that break it,
largest first, join the set and the next pass starts from the current fit.
The passes share the iteration budget of :class:`L1Settings`. The
communication-efficient path pays one gradient round to build the surrogate
and then solves entirely on the host shard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cluster import Cluster
from .errors import DataError, NonConvergenceError
from .losses import DataShard, LossModel, ShardLoss
from .solvers import Objective
from .surrogate import SurrogateLoss, build_surrogate

__all__ = [
    "L1Settings", "SparseEstimate", "soft_threshold", "fista_l1",
    "lambda_heuristic", "local_lasso",
    "csl_lasso", "iterative_csl_lasso", "averaging_lasso",
]

# Coordinates below this magnitude in a solution are snapped to exact zero.
_SNAP = 1e-12
# Backtracking gives up once the local Lipschitz estimate passes this.
_MAX_LIPSCHITZ = 1e18
# Noise-estimate/refit passes of the calibrated local lasso.
_REFIT_PASSES = 6
# Columns beyond the start point's support in the first working set, and the
# factor by which one pass may at most grow the set.
_WS_START = 10
_WS_GROWTH = 2


@dataclass(frozen=True)
class L1Settings:
    """Proximal-gradient knobs: the stopping tolerance and the iteration
    budget. The step always comes from a backtracked Lipschitz estimate."""

    tol: float = 1e-8
    max_iters: int = 2000

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise DataError("tol must be positive")
        if self.max_iters < 1:
            raise DataError("max_iters must be >= 1")


@dataclass(frozen=True)
class SparseEstimate:
    """A penalized fit: the point, the composite objective there, the FISTA
    iterations spent, and whether the stopping test was met (an exhausted
    budget is flagged here, not raised). ``support`` is read off the point."""

    theta: np.ndarray
    objective_value: float
    iterations: int
    converged: bool

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.theta)

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


def fista_l1(objective: Objective, lam: float, theta0: np.ndarray,
             settings: L1Settings = L1Settings()) -> SparseEstimate:
    """Minimize ``f(theta) + lam * ||theta||_1`` by accelerated proximal descent.

    Backtracks a local Lipschitz estimate, restarts momentum whenever the
    composite objective would rise (so the accepted sequence is monotone and
    never ends above the start), and stops once the decrease falls under tol
    AND the subgradient condition holds to within 10*tol, or, unconverged,
    once a step from x itself (the first, or the first after a restart) is
    rejected. Tiny coordinates are snapped to exact zeros on return.
    """
    if lam < 0.0:
        raise DataError("lam must be >= 0")
    x = np.array(theta0, dtype=np.float64)
    fx = objective(x, 0)[0]
    comp_x = fx + lam * float(np.abs(x).sum())
    if not np.isfinite(comp_x):
        raise DataError("objective is not finite at theta0")
    z = x.copy()
    momentum = 1.0
    lipschitz = 1.0
    iterations = 0
    converged = False
    for iterations in range(1, settings.max_iters + 1):
        fz, gz = objective(z, 1)
        while True:
            step = 1.0 / lipschitz
            u = soft_threshold(z - step * gz, lam * step)
            fu = objective(u, 0)[0]
            du = u - z
            bound = fz + float(gz @ du) + 0.5 * lipschitz * float(du @ du)
            if fu <= bound + 1e-12 * max(1.0, abs(fz)):
                break
            lipschitz *= 2.0
            if lipschitz > _MAX_LIPSCHITZ:
                raise NonConvergenceError(
                    "backtracking exhausted; objective may not have a "
                    "Lipschitz gradient", last_iterate=x, iterations=iterations)
        comp_u = fu + lam * float(np.abs(u).sum())
        # Momentum is 1 only at the start and after a restart, where z is x: a
        # step rejected there would be retaken bit for bit, forever.
        stalled = comp_u > comp_x and momentum == 1.0
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
            converged = _stationarity_ok(objective(x, 1)[1], x, lam, 10.0 * settings.tol)
            if converged or stalled:
                break
    x[np.abs(x) < _SNAP] = 0.0
    fx = objective(x, 0)[0]
    return SparseEstimate(theta=x, objective_value=fx + lam * float(np.abs(x).sum()),
                          iterations=iterations, converged=converged)


def lambda_heuristic(sigma_hat: float, d: int, n: int, scale: float = 2.0) -> float:
    """Penalty level ``scale * sigma_hat * sqrt(log(d) / n)``; pass the pooled
    sample count for a pooled-scale penalty or the shard size for a local one."""
    if d < 2 or n < 1:
        raise DataError("lambda heuristic needs d >= 2 and n >= 1")
    return scale * sigma_hat * math.sqrt(math.log(d) / n)


def _noise_sd(loss: ShardLoss, theta: np.ndarray) -> float:
    """Root mean squared residual of y against the model mean at theta."""
    resid = loss.shard.y - loss.mean(theta)
    return float(np.sqrt(np.mean(resid * resid)))


def _add_violators(working: np.ndarray, grad: np.ndarray, lam: float,
                   slack: float, room: int) -> np.ndarray:
    """The working set plus at most ``room`` columns outside it whose gradient
    leaves the lam tube by more than slack, largest |gradient| first."""
    outside = np.ones(grad.size, dtype=bool)
    outside[working] = False
    violators = np.flatnonzero(outside & (np.abs(grad) > lam + slack))
    order = np.argsort(-np.abs(grad[violators]), kind="stable")
    return np.union1d(working, violators[order[:room]])


def _working_set_lasso(loss: ShardLoss | SurrogateLoss, lam: float,
                       theta0: np.ndarray, settings: L1Settings) -> SparseEstimate:
    """Minimize ``loss + lam * ||theta||_1`` with :func:`fista_l1` on a growing
    set of columns, certified by the full gradient.

    The set starts as the support of theta0 plus the ``_WS_START`` columns
    that break the subgradient condition most. Each pass solves on the set,
    warm-started at the current fit, then checks the condition on every
    column at the 10*tol slack of :func:`fista_l1`; the violators outside the
    set join it, largest first, at most ``_WS_GROWTH`` times its size. The fit
    is converged only when that full check holds; it ends unconverged after a
    pass that leaves both the set and the fit as they were. The passes share
    ``settings.max_iters``: each gets half the remaining budget, rounded up,
    and is charged what it ran if it met tol or else its whole share, so the
    loop ends, a pass that stalls short of tol on too small a set leaves
    iterations for a larger one, and where a pass stalled moves no later
    budget. ``iterations`` is the total the passes ran.
    """
    if lam < 0.0:
        raise DataError("lam must be >= 0")
    theta = np.array(theta0, dtype=np.float64)
    slack = 10.0 * settings.tol
    value, grad = loss.eval(theta, 1)
    if not np.isfinite(value):
        raise DataError("objective is not finite at theta0")
    working = np.flatnonzero(theta)
    room = _WS_START
    iterations = charged = 0
    converged = False
    while True:
        if _stationarity_ok(grad, theta, lam, slack):
            converged = True
            break
        if charged >= settings.max_iters:
            break
        grown = _add_violators(working, grad, lam, slack, room)
        budget = (settings.max_iters - charged + 1) // 2
        fit = fista_l1(loss.restrict(grown).eval, lam, theta[grown],
                       replace(settings, max_iters=budget))
        iterations += fit.iterations
        charged += fit.iterations if fit.converged else budget
        fitted = np.zeros_like(theta)
        fitted[grown] = fit.theta
        if np.array_equal(grown, working) and np.array_equal(fitted, theta):
            # Every later pass would start from this one's set and point.
            break
        working, theta = grown, fitted
        value, grad = loss.eval(theta, 1)
        room = (_WS_GROWTH - 1) * working.size
    return SparseEstimate(theta=theta,
                          objective_value=value + lam * float(np.abs(theta).sum()),
                          iterations=iterations, converged=converged)


def _local_lasso(loss: ShardLoss, lam: float | None,
                 settings: L1Settings) -> SparseEstimate:
    """:func:`local_lasso` on a bound shard evaluator."""
    theta = np.zeros(loss.shard.n_features)
    if lam is not None:
        return _working_set_lasso(loss, lam, theta, settings)
    estimate = None
    for _ in range(_REFIT_PASSES):
        sigma_hat = _noise_sd(loss, theta)
        lam_pass = lambda_heuristic(sigma_hat, loss.shard.n_features,
                                    loss.shard.n_samples)
        estimate = _working_set_lasso(loss, lam_pass, theta, settings)
        theta = estimate.theta
    return estimate


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

    One local-fit round (k-1 reply vectors); the fits themselves run on the
    retained shard copies. The reported objective is the mean of the
    local composite objectives, since an average of minimizers minimizes no
    single program. Near-zero coordinates of the average are snapped so the
    support is well defined.
    """
    fits = cluster.local_fit_round(lambda loss: _local_lasso(loss, lam, settings))
    theta = cluster.average([fit.theta for fit in fits])
    theta[np.abs(theta) < _SNAP] = 0.0
    return SparseEstimate(
        theta=theta, objective_value=float(np.mean([f.objective_value for f in fits])),
        iterations=max(f.iterations for f in fits),
        converged=all(f.converged for f in fits))
