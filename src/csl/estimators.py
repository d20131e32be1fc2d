"""Point estimators over a cluster: surrogate minimization, one-step updates,
the iterated surrogate scheme, and the pooled/subsample/averaging baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cluster import CommLedger, Cluster
from .errors import CslError, DataError, SingularHessianError
from .solvers import SolverSettings, minimize_shard_loss, newton_minimize
from .surrogate import (QuadraticSurrogate, SurrogateLoss, build_quadratic_surrogate,
                        build_surrogate, surrogate_eval)

__all__ = [
    "SolverSettings", "newton_minimize",
    "EXACT_SURROGATE", "ONE_STEP", "IleaTrajectory",
    "minimize_surrogate", "one_step_update", "ilea",
    "averaging_estimator", "subsample_estimator", "baseline_suite",
]

EXACT_SURROGATE = "exact_surrogate"
ONE_STEP = "one_step"

# A curvature matrix whose smallest eigenvalue is at or below this is treated
# as singular rather than inverted.
_MIN_CURVATURE = 1e-10


def minimize_surrogate(s: SurrogateLoss, theta0: np.ndarray | None = None,
                       settings: SolverSettings = SolverSettings()) -> np.ndarray:
    """Newton-minimize the tilted local loss; starts at the anchor by default."""
    if theta0 is None:
        theta0 = s.anchor

    def objective(theta, order):
        return surrogate_eval(s, theta, order)

    return newton_minimize(objective, theta0, settings)


def one_step_update(q: QuadraticSurrogate) -> np.ndarray:
    """Closed-form minimizer of the quadratic surrogate:
    anchor - local_hessian^{-1} @ pooled_grad_at_anchor.

    Raises SingularHessianError when the curvature is not safely positive
    definite instead of returning a garbage solve.
    """
    hessian = 0.5 * (q.local_hessian + q.local_hessian.T)
    min_eig = float(np.linalg.eigvalsh(hessian)[0])
    if min_eig <= _MIN_CURVATURE:
        raise SingularHessianError(
            f"quadratic surrogate curvature has min eigenvalue {min_eig:.3e}",
            min_eigenvalue=min_eig)
    return q.anchor - np.linalg.solve(hessian, q.pooled_grad_at_anchor)


@dataclass
class IleaTrajectory:
    """Everything one iterated-surrogate run produced.

    iterates[0] is the start point, iterates[t] the estimate after round t.
    Ledger snapshots bracket the run so callers can audit the exact vector
    count it cost. distances_to_reference is filled when a reference vector
    (for instance the pooled fit or the truth) was supplied.
    """

    mode: str
    iterates: list[np.ndarray]
    ledger_start: CommLedger
    ledger_end: CommLedger
    distances_to_reference: list[float] | None = field(default=None)

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def rounds(self) -> int:
        return len(self.iterates) - 1

    @property
    def vectors_spent(self) -> int:
        return self.ledger_end.vectors_sent - self.ledger_start.vectors_sent


def ilea(cluster: Cluster, theta0: np.ndarray | None = None, rounds: int = 3,
         mode: str = ONE_STEP, settings: SolverSettings = SolverSettings(),
         reference: np.ndarray | None = None) -> IleaTrajectory:
    """Iterate surrogate builds from theta0: each round is one gradient round
    (2*(k-1) vectors) followed by a purely local solve.

    theta0=None starts from the averaging estimator, which adds its own k-1
    reply vectors before the rounds begin; pass an explicit start to keep the
    cost at exactly 2*rounds*(k-1). mode "one_step" refits through the
    quadratic surrogate's closed form; "exact_surrogate" Newton-minimizes the
    tilted local loss. Solver failures propagate with the failing round
    prefixed to the message.
    """
    if rounds < 0:
        raise DataError("rounds must be >= 0")
    if mode not in (EXACT_SURROGATE, ONE_STEP):
        raise DataError(f"unknown mode {mode!r}; use {EXACT_SURROGATE!r} or {ONE_STEP!r}")
    ledger_start = cluster.ledger.copy()
    if theta0 is None:
        theta0 = averaging_estimator(cluster, settings)
    theta = np.array(theta0, dtype=np.float64)
    iterates = [theta.copy()]
    for t in range(1, rounds + 1):
        try:
            if mode == ONE_STEP:
                quad = build_quadratic_surrogate(cluster, theta)
                theta = one_step_update(quad)
            else:
                surr = build_surrogate(cluster, theta)
                theta = minimize_surrogate(surr, theta0=theta, settings=settings)
        except CslError as exc:
            annotated = type(exc)(f"round {t}: {exc}")
            annotated.__dict__.update(exc.__dict__)
            raise annotated from exc
        iterates.append(theta.copy())
    distances = None
    if reference is not None:
        reference = np.asarray(reference, dtype=np.float64)
        distances = [float(np.linalg.norm(it - reference)) for it in iterates]
    return IleaTrajectory(mode=mode, iterates=iterates,
                          ledger_start=ledger_start,
                          ledger_end=cluster.ledger.copy(),
                          distances_to_reference=distances)


def averaging_estimator(cluster: Cluster,
                        settings: SolverSettings = SolverSettings()) -> np.ndarray:
    """Mean of the k local fits, folded in worker order; one local-minimizer
    round on the ledger (k-1 vectors)."""
    fits = cluster.local_minimizer_round(settings)
    acc = np.zeros(cluster.d)
    for fit in fits:
        acc += fit
    return acc / cluster.k


def subsample_estimator(cluster: Cluster,
                        settings: SolverSettings = SolverSettings()) -> np.ndarray:
    """Fit on the coordinator's own shard only; costs no communication."""
    return newton_minimize(cluster.losses[0].eval, np.zeros(cluster.d), settings)


def baseline_suite(cluster: Cluster,
                   settings: SolverSettings = SolverSettings()) -> dict[str, np.ndarray]:
    """The three reference estimators: pooled ("global", meters raw-sample
    movement), shard-1 only ("subsample"), and the local-fit mean
    ("averaging")."""
    pooled = cluster.pooled_shard(meter=True)
    return {
        "global": minimize_shard_loss(cluster.model, pooled, settings),
        "subsample": subsample_estimator(cluster, settings),
        "averaging": averaging_estimator(cluster, settings),
    }
