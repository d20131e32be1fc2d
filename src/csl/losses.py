"""Loss families evaluated on data shards.

Every loss is an empirical mean over one shard: logistic log-loss, unhalved
squared error, and canonical generalized linear models written as
``mean(-y*u + phi(u))`` with ``u = x @ theta``. :class:`ShardLoss` binds a
model to a shard, checks the response once, and returns the value, gradient
and Hessian up to a requested order from one pass over the rows. An evaluator
holds its own scratch vectors, so a value allocates no n-length array, and
one evaluator must not be called from two threads at once. All evaluations are
plain numpy; nothing here talks to the cluster or the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError

__all__ = [
    "DataShard",
    "LossModel",
    "ShardLoss",
    "shard_to_csv",
    "sigmoid",
    "softplus",
]


def softplus(u: np.ndarray, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """log(1 + exp(u)) as max(u, 0) + log1p(exp(-|u|)), which cannot overflow.

    ``out`` receives the result and ``work`` the log1p term; each is an array
    shaped like u that shares no memory with it, allocated when not given.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.maximum(u, 0.0, out=out)
    work = np.abs(u, out=work)
    np.negative(work, out=work)
    np.exp(work, out=work)
    np.log1p(work, out=work)
    return np.add(out, work, out=out)


def sigmoid(u: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-u)) from e = exp(-|u|): 1/(1+e) for u >= 0, e/(1+e) below."""
    u = np.asarray(u, dtype=np.float64)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0, e) / (1.0 + e)


def _logistic_weight(u: np.ndarray) -> np.ndarray:
    """sigmoid(u) * sigmoid(-u) as e / (1 + e)**2 with e = exp(-|u|)."""
    e = np.exp(-np.abs(u))
    return e / np.square(1.0 + e)


def _exp(u: np.ndarray, out: np.ndarray | None = None,
         work: np.ndarray | None = None) -> np.ndarray:
    """exp whose overflow to inf is silent; the Newton line search rejects
    the non-finite values it produces. ``work`` is unused; it keeps the
    cumulant signature of :func:`softplus`."""
    with np.errstate(over="ignore"):
        return np.exp(u, out=out)


@dataclass(frozen=True)
class Link:
    """Canonical cumulant of a GLM family with its first two derivatives.

    ``phi(u, out, work)`` writes into ``out`` and may use ``work`` as scratch;
    called with u alone, it returns a fresh array, as the derivatives do.
    """

    name: str
    phi: Callable[..., np.ndarray]
    phi_prime: Callable[[np.ndarray], np.ndarray]
    phi_double: Callable[[np.ndarray], np.ndarray]
    binary_response: bool = False
    nonnegative_response: bool = False


_LINKS = {
    "logit": Link(name="logit", phi=softplus, phi_prime=sigmoid,
                  phi_double=_logistic_weight, binary_response=True),
    "log": Link(name="log", phi=_exp, phi_prime=_exp, phi_double=_exp,
                nonnegative_response=True),
}


@dataclass(frozen=True)
class LossModel:
    """A loss family. Construct via :meth:`logistic`, :meth:`linear` or :meth:`glm`.

    ``logistic()`` is the GLM with the logit link; ``linear()`` is the unhalved
    squared error ``mean((y - u)**2)`` whose gradient therefore carries a
    factor 2.
    """

    family: str
    link: Link | None = field(default=None)

    @classmethod
    def logistic(cls) -> "LossModel":
        return cls(family="logistic", link=_LINKS["logit"])

    @classmethod
    def linear(cls) -> "LossModel":
        return cls(family="linear", link=None)

    @classmethod
    def glm(cls, link: str) -> "LossModel":
        """The canonical GLM with link "logit" or "log" (Poisson)."""
        if link not in _LINKS:
            raise DataError(f"unknown link {link!r}; known: {sorted(_LINKS)}")
        return cls(family=f"glm-{link}", link=_LINKS[link])

    def validate_response(self, y: np.ndarray) -> None:
        if self.link is not None and self.link.binary_response:
            if not np.all((y == 0.0) | (y == 1.0)):
                raise DataError("binary-response loss requires labels in {0, 1}")
        if self.link is not None and self.link.nonnegative_response:
            if np.any(y < 0.0):
                raise DataError("count-response loss requires nonnegative labels")


@dataclass(frozen=True)
class DataShard:
    """An immutable (x, y) block of samples; one machine's local data.

    Arrays are cast to float64 and frozen. Rows are samples.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise DataError(f"x must be (n, d) with n, d >= 1; got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise DataError(f"y must have shape ({x.shape[0]},); got {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DataError("shard contains non-finite entries")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]


class ShardLoss:
    """The mean loss of one model on one shard, bound once and evaluated in
    one pass per call.

    Binding checks the response against the model; shard arrays are
    read-only, so the check holds for the evaluator's lifetime. Every call
    checks theta's shape and finiteness and computes ``u = x @ theta`` once.
    The family branch, squared error or a canonical GLM cumulant, lives here
    and nowhere else.

    The evaluator owns three n-vectors, allocated when it is bound: ``u`` and
    two scratch vectors. A value (order 0) writes every intermediate into
    them and allocates no n-length array; every array a method returns is
    fresh. Because the buffers are shared between calls, one evaluator must
    not be called from two threads at once: each TCP worker binds its own,
    and the coordinator's evaluators run on its thread only.
    """

    def __init__(self, model: LossModel, shard: DataShard):
        model.validate_response(shard.y)
        self.model = model
        self.shard = shard
        n = shard.n_samples
        self._u, self._v, self._work = np.empty(n), np.empty(n), np.empty(n)

    def restrict(self, columns: np.ndarray) -> "ShardLoss":
        """The same model on ``x[:, columns]`` and the same y: at a theta that
        is zero off those columns, the loss of ``theta[columns]``."""
        return ShardLoss(self.model, DataShard(x=self.shard.x[:, columns],
                                               y=self.shard.y))

    def check_theta(self, theta: np.ndarray) -> np.ndarray:
        """theta as a float64 array of shape (d,) with finite entries."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.shard.n_features,):
            raise DataError(
                f"theta has shape {theta.shape}; shard has {self.shard.n_features} features")
        if not np.isfinite(theta).all():
            raise DataError("theta contains non-finite entries")
        return theta

    def _predict(self, theta: np.ndarray) -> np.ndarray:
        """``x @ theta`` written into the u buffer."""
        return np.matmul(self.shard.x, self.check_theta(theta), out=self._u)

    def _mean(self, u: np.ndarray) -> np.ndarray:
        link = self.model.link
        return u if link is None else link.phi_prime(u)

    def _gradient(self, u: np.ndarray) -> np.ndarray:
        x, n = self.shard.x, self.shard.n_samples
        excess = np.subtract(self._mean(u), self.shard.y, out=self._v)
        if self.model.link is None:
            return (2.0 / n) * (x.T @ excess)
        return (x.T @ excess) / n

    def eval(self, theta: np.ndarray, order: int = 2) -> tuple:
        """``(value,)``, ``(value, grad)`` or ``(value, grad, hessian)`` for
        order 0, 1 or 2; the gradient is ``(d,)`` and the Hessian ``(d, d)``."""
        if order not in (0, 1, 2):
            raise DataError(f"order must be 0, 1 or 2, got {order!r}")
        u = self._predict(theta)
        x, y, n = self.shard.x, self.shard.y, self.shard.n_samples
        link = self.model.link
        # Every intermediate of the value goes into the scratch vectors, in
        # the order of mean(r*r) or mean(phi(u) - y*u); add.reduce is the sum
        # np.mean takes.
        v, work = self._v, self._work
        if link is None:
            np.subtract(y, u, out=v)
            np.multiply(v, v, out=v)
        else:
            link.phi(u, out=v, work=work)
            np.subtract(v, np.multiply(y, u, out=work), out=v)
        value = float(np.add.reduce(v)) / n
        if order == 0:
            return (value,)
        grad = self._gradient(u)
        if order == 1:
            return value, grad
        if link is None:
            return value, grad, (2.0 / n) * (x.T @ x)
        return value, grad, (x * link.phi_double(u)[:, None]).T @ x / n

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """The gradient alone, bit for bit ``eval(theta, 1)[1]``; what a
        gradient round needs."""
        return self._gradient(self._predict(theta))

    def mean(self, theta: np.ndarray) -> np.ndarray:
        """The model mean of each sample's response at theta."""
        u = self._predict(theta)
        mean = self._mean(u)
        return mean.copy() if mean is u else mean

    def per_sample(self, theta: np.ndarray) -> np.ndarray:
        """(n, d) matrix whose i-th row is the gradient of sample i's loss term.

        The row mean equals the gradient up to floating-point reduction
        order; squared error carries its factor 2.
        """
        excess = self._mean(self._predict(theta)) - self.shard.y
        if self.model.link is None:
            excess = 2.0 * excess
        return self.shard.x * excess[:, None]


def shard_to_csv(shard: DataShard) -> str:
    """Serialize a shard as CSV text: header ``y,x_1..x_d``, shortest
    round-trip decimal literals, one sample per row."""
    header = "y," + ",".join(f"x_{j + 1}" for j in range(shard.n_features))
    rows = (",".join(map(repr, [yi, *xi]))
            for yi, xi in zip(shard.y.tolist(), shard.x.tolist()))
    return "\n".join([header, *rows]) + "\n"
