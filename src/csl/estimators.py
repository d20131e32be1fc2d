"""Point estimators over a cluster: surrogate minimization, one-step updates,
the iterated one-step scheme, and the subsample/averaging baselines.

There is one surrogate (:mod:`csl.surrogate`). The exact estimator minimizes
it by Newton's method; the one-step update is a single Newton step on it from
the anchor, where its gradient is the pooled gradient, and :func:`ilea`
repeats that update round after round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import Cluster
from .errors import CslError, DataError, SingularHessianError
from .solvers import SolverSettings, newton_minimize, run_fit
from .surrogate import SurrogateLoss, build_surrogate

__all__ = [
    "IleaTrajectory", "minimize_surrogate", "one_step_update", "ilea",
    "averaging_estimator", "subsample_estimator",
]

# A curvature matrix whose smallest eigenvalue is at or below this is treated
# as singular rather than inverted.
_MIN_CURVATURE = 1e-10


def minimize_surrogate(s: SurrogateLoss) -> np.ndarray:
    """Newton-minimize the tilted local loss from its anchor."""
    return newton_minimize(s.eval, s.anchor)


def one_step_update(s: SurrogateLoss) -> np.ndarray:
    """One Newton step on the surrogate from its anchor:
    anchor - H^{-1} @ pooled_grad_at_anchor, with H the host shard's loss
    Hessian at the anchor, symmetrized.

    Raises SingularHessianError when the curvature is not safely positive
    definite instead of returning a garbage solve.
    """
    hessian = s.loss.eval(s.anchor, 2)[2]
    hessian = 0.5 * (hessian + hessian.T)
    min_eig = float(np.linalg.eigvalsh(hessian)[0])
    if min_eig <= _MIN_CURVATURE:
        raise SingularHessianError(
            f"surrogate curvature has min eigenvalue {min_eig:.3e}",
            min_eigenvalue=min_eig)
    return s.anchor - np.linalg.solve(hessian, s.pooled_grad_at_anchor)


@dataclass
class IleaTrajectory:
    """Everything one iterated-surrogate run produced.

    iterates[0] is the start point, iterates[t] the estimate after round t.
    What the run cost is on the cluster's ledger.
    """

    iterates: list[np.ndarray]

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def rounds(self) -> int:
        return len(self.iterates) - 1


def ilea(cluster: Cluster, theta0: np.ndarray, rounds: int) -> IleaTrajectory:
    """Iterate one-step refits from theta0: each round is one gradient round
    (2*(k-1) vectors) to build the surrogate, then :func:`one_step_update`,
    so the run costs exactly 2*rounds*(k-1) vectors.

    Any consistent start will do, since each round contracts its error;
    :func:`subsample_estimator` is one that costs no communication. Solver
    failures propagate with the failing round prefixed to the message.
    """
    if rounds < 0:
        raise DataError("rounds must be >= 0")
    theta = np.array(theta0, dtype=np.float64)
    iterates = [theta.copy()]
    for t in range(1, rounds + 1):
        try:
            theta = one_step_update(build_surrogate(cluster, theta))
        except CslError as exc:
            annotated = type(exc)(f"round {t}: {exc}")
            annotated.__dict__.update(exc.__dict__)
            raise annotated from exc
        iterates.append(theta.copy())
    return IleaTrajectory(iterates=iterates)


def averaging_estimator(cluster: Cluster) -> np.ndarray:
    """Mean of the k local Newton fits at the default :class:`SolverSettings`,
    folded in worker order; one local-minimizer round on the ledger (k-1
    vectors)."""
    return cluster.average(cluster.local_minimizer_round(SolverSettings()))


def subsample_estimator(cluster: Cluster) -> np.ndarray:
    """Fit on the coordinator's own shard only; costs no communication. It is
    the coordinator's request of :func:`averaging_estimator`'s round, so
    whichever runs second reuses the shard's fit."""
    return run_fit(SolverSettings(), cluster.losses[0])

