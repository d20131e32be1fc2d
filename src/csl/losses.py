"""Loss families evaluated on data shards.

Every loss is an empirical mean over one shard: logistic log-loss, unhalved
squared error, and canonical generalized linear models written as
``mean(-y*u + phi(u))`` with ``u = x @ theta``. :class:`ShardLoss` binds a
model to a shard, checks the response once, and returns the value, gradient
and Hessian up to a requested order from one pass over the rows. All
evaluations are plain numpy; nothing here talks to the cluster or the ledger.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError

__all__ = [
    "DataShard",
    "Link",
    "LossModel",
    "LOGIT_LINK",
    "POISSON_LINK",
    "ShardLoss",
    "shard_to_csv",
    "shard_from_csv",
    "sigmoid",
    "softplus",
]


def softplus(u: np.ndarray) -> np.ndarray:
    """log(1 + exp(u)) as max(u, 0) + log1p(exp(-|u|)), which cannot overflow."""
    u = np.asarray(u, dtype=np.float64)
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def sigmoid(u: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-u)) from e = exp(-|u|): 1/(1+e) for u >= 0, e/(1+e) below."""
    u = np.asarray(u, dtype=np.float64)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0, e) / (1.0 + e)


def _logistic_weight(u: np.ndarray) -> np.ndarray:
    """sigmoid(u) * sigmoid(-u) as e / (1 + e)**2 with e = exp(-|u|)."""
    e = np.exp(-np.abs(u))
    return e / np.square(1.0 + e)


def _exp(u: np.ndarray) -> np.ndarray:
    """exp whose overflow to inf is silent; the Newton line search rejects
    the non-finite values it produces."""
    with np.errstate(over="ignore"):
        return np.exp(u)


@dataclass(frozen=True)
class Link:
    """Canonical cumulant of a GLM family with its first two derivatives."""

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    phi_prime: Callable[[np.ndarray], np.ndarray]
    phi_double: Callable[[np.ndarray], np.ndarray]
    binary_response: bool = False
    nonnegative_response: bool = False


LOGIT_LINK = Link(
    name="logit",
    phi=softplus,
    phi_prime=sigmoid,
    phi_double=_logistic_weight,
    binary_response=True,
)

POISSON_LINK = Link(
    name="log",
    phi=_exp,
    phi_prime=_exp,
    phi_double=_exp,
    nonnegative_response=True,
)

_LINKS = {"logit": LOGIT_LINK, "log": POISSON_LINK}


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
        return cls(family="logistic", link=LOGIT_LINK)

    @classmethod
    def linear(cls) -> "LossModel":
        return cls(family="linear", link=None)

    @classmethod
    def glm(cls, link: Link | str) -> "LossModel":
        if isinstance(link, str):
            try:
                link = _LINKS[link]
            except KeyError:
                raise DataError(f"unknown link {link!r}; known: {sorted(_LINKS)}")
        return cls(family=f"glm-{link.name}", link=link)

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
    """

    def __init__(self, model: LossModel, shard: DataShard):
        model.validate_response(shard.y)
        self.model = model
        self.shard = shard

    def _predict(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.shard.n_features,):
            raise DataError(
                f"theta has shape {theta.shape}; shard has {self.shard.n_features} features")
        if not np.all(np.isfinite(theta)):
            raise DataError("theta contains non-finite entries")
        return self.shard.x @ theta

    def _mean(self, u: np.ndarray) -> np.ndarray:
        link = self.model.link
        return u if link is None else link.phi_prime(u)

    def _gradient(self, u: np.ndarray) -> np.ndarray:
        x, n = self.shard.x, self.shard.n_samples
        excess = self._mean(u) - self.shard.y
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
        if link is None:
            r = y - u
            value = float(np.mean(r * r))
        else:
            value = float(np.mean(link.phi(u) - y * u))
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
        return self._mean(self._predict(theta))

    def per_sample(self, theta: np.ndarray) -> np.ndarray:
        """(n, d) matrix whose i-th row is the gradient of sample i's loss term.

        The row mean equals the gradient up to floating-point reduction
        order; squared error carries its factor 2.
        """
        excess = self.mean(theta) - self.shard.y
        if self.model.link is None:
            excess = 2.0 * excess
        return self.shard.x * excess[:, None]


def shard_to_csv(shard: DataShard) -> str:
    """Serialize a shard as CSV text: header ``y,x_1..x_d``, shortest
    round-trip decimal literals, one sample per row."""
    d = shard.n_features
    buf = io.StringIO()
    buf.write("y," + ",".join(f"x_{j + 1}" for j in range(d)) + "\n")
    for i in range(shard.n_samples):
        row = [repr(float(shard.y[i]))]
        row.extend(repr(float(v)) for v in shard.x[i])
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def shard_from_csv(text: str) -> DataShard:
    """Parse :func:`shard_to_csv` output; exact inverse for finite float64 data."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if len(lines) < 2:
        raise DataError("shard CSV needs a header and at least one data row")
    header = lines[0].split(",")
    if header[0] != "y" or len(header) < 2:
        raise DataError(f"unexpected shard CSV header: {lines[0]!r}")
    d = len(header) - 1
    n = len(lines) - 1
    y = np.empty(n)
    x = np.empty((n, d))
    for i, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != d + 1:
            raise DataError(f"row {i + 1} has {len(parts)} fields, expected {d + 1}")
        y[i] = float(parts[0])
        x[i] = [float(p) for p in parts[1:]]
    return DataShard(x=x, y=y)
