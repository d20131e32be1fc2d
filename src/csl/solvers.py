"""Single-shard solvers: damped Newton, and a working-set FISTA for the lasso.

The objective convention used across the package: ``objective(theta, order)``
returns ``(value,)``, ``(value, gradient)`` or ``(value, gradient, hessian)``
as ``float``, ``(d,)`` and ``(d, d)`` for order 0, 1 or 2.
:meth:`ShardLoss.eval <csl.losses.ShardLoss.eval>` is such an objective.
Newton asks for order 1 at each point it reaches, the Hessian only where it
steps, and values only in its line search. :func:`fista_l1` asks for order 0
at the start, at every backtracking probe and at the end, and for order 1
once per iteration plus once per stationarity check.

The lasso fits keep only a few of their columns, so they solve on a working
set. A pass runs :func:`fista_l1` on the columns of the working set alone,
through the ``restrict(columns)`` evaluator of the loss, then takes one
gradient over all columns. The fit is certified only when the subgradient
condition holds on every column at the stopping slack; otherwise the columns
that break it, largest first, join the set and the next pass starts from the
current fit. The passes share the iteration budget of :class:`L1Settings`.
Every penalty is named by the caller, and :class:`LassoFit` checks it.

:func:`run_fit` serves a typed local-fit request from zero,
:class:`SolverSettings` for the Newton fit or :class:`LassoFit` for the lasso,
on the coordinator's shards and on a tcp worker's alike; every local lasso of
:mod:`csl.sparse` is such a request. Each shard fits a request once and
hands out copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DataError, NonConvergenceError
from .losses import ShardLoss

if TYPE_CHECKING:
    from .surrogate import SurrogateLoss

__all__ = ["SolverSettings", "newton_minimize", "local_fit", "L1Settings", "SparseEstimate",
           "soft_threshold", "fista_l1", "lambda_heuristic", "LassoFit", "FitRequest",
           "run_fit"]

Objective = Callable[[np.ndarray, int], tuple]

# Line-search step below this is a stall, not progress.
_MIN_STEP = 1e-20
# Levenberg damping grows from _TAU0 by doubling; give up past _TAU_MAX.
_TAU0 = 1e-8
_TAU_MAX = 1e10
# Backtracking halves the step until f(x + t*p) <= f + _ARMIJO_C*t*<g, p>.
_SHRINK = 0.5
_ARMIJO_C = 1e-4
# Coordinates below this magnitude in a solution are snapped to exact zero.
_SNAP = 1e-12
# Backtracking gives up once the local Lipschitz estimate passes this.
_MAX_LIPSCHITZ = 1e18
# Columns beyond the start point's support in the first working set, and the
# factor by which one pass may at most grow the set.
_WS_START = 10
_WS_GROWTH = 2


@dataclass(frozen=True)
class SolverSettings:
    """Newton stopping rule: a sup-norm threshold on the gradient and an
    iteration budget. Both travel in a Newton local-fit request."""

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

    Asks for order 1 at the start and each accepted point, and for the Hessian
    only where it steps: s steps take s Hessians. Stops when the gradient
    sup-norm drops to settings.grad_tol. Raises NonConvergenceError (carrying
    the last iterate and gradient norm) when the iteration budget runs out or
    the line search stalls; never returns a silently unconverged point.
    """
    theta = np.array(theta0, dtype=np.float64)
    if theta.ndim != 1:
        raise DataError("theta0 must be a vector")
    value, grad = objective(theta, 1)
    for iteration in range(settings.max_iters):
        gnorm = float(np.max(np.abs(grad)))
        if not np.isfinite(gnorm):
            raise NonConvergenceError(
                f"non-finite gradient at iteration {iteration}",
                last_iterate=theta, gradient_norm=gnorm, iterations=iteration)
        if gnorm <= settings.grad_tol:
            return theta
        p = _newton_direction(objective(theta, 2)[2], grad)
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
        value, grad = objective(theta, 1)
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


@dataclass(frozen=True)
class L1Settings:
    """Proximal-gradient knobs: the stopping tolerance and the iteration
    budget. The step always comes from a backtracked Lipschitz estimate.
    Both travel in a lasso local-fit request."""

    tol: float = 1e-8
    max_iters: int = 2000

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise DataError("tol must be positive")
        # The lasso request carries max_iters as an unsigned 32-bit field.
        if not (1 <= self.max_iters < 2 ** 32):
            raise DataError("max_iters must be in [1, 2**32)")


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
    # One pass: off the support sign(theta) is 0, so the left side is |grad|,
    # and the bound is slack + lam there and slack + 0.0 == slack on it.
    return not (np.abs(grad + lam * np.sign(theta)) > slack + lam * (theta == 0.0)).any()


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
    comp_x = fx + lam * float(np.add.reduce(np.abs(x)))
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
        comp_u = fu + lam * float(np.add.reduce(np.abs(u)))
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
    return SparseEstimate(theta=x, objective_value=fx + lam * float(np.add.reduce(np.abs(x))),
                          iterations=iterations, converged=converged)


def lambda_heuristic(sigma_hat: float, d: int, n: int, scale: float = 2.0) -> float:
    """Penalty level ``scale * sigma_hat * sqrt(log(d) / n)``; pass the pooled
    sample count for a pooled-scale penalty or the shard size for a local one."""
    if d < 2 or n < 1:
        raise DataError("lambda heuristic needs d >= 2 and n >= 1")
    return scale * sigma_hat * math.sqrt(math.log(d) / n)


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
                          objective_value=value + lam * float(np.add.reduce(np.abs(theta))),
                          iterations=iterations, converged=converged)


@dataclass(frozen=True)
class LassoFit:
    """A request for the local lasso fit from zero: the penalty, which every
    lasso checks here, and the FISTA settings."""

    lam: float
    settings: L1Settings = L1Settings()

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise DataError("lam must be a finite value >= 0")


FitRequest = SolverSettings | LassoFit


def run_fit(request: FitRequest, loss: ShardLoss) -> np.ndarray | SparseEstimate:
    """Serve one local-fit request on a bound shard evaluator, from zero: the
    Newton fit for :class:`SolverSettings`, a :class:`SparseEstimate` for
    :class:`LassoFit`.

    A fit from zero depends only on the model, the request and the shard, so
    the shard remembers each one that finishes, keyed on (model, request),
    and every call returns a fresh copy. A fit that raises is not remembered.
    """
    fits, key = loss.shard._fits, (loss.model, request)
    if key not in fits:
        fits[key] = (local_fit(loss, request) if not isinstance(request, LassoFit) else
                     _working_set_lasso(loss, request.lam, np.zeros(loss.shard.n_features),
                                        request.settings))
    fit = fits[key]
    return (replace(fit, theta=fit.theta.copy()) if isinstance(fit, SparseEstimate)
            else fit.copy())
