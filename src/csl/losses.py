"""Loss families evaluated on data shards.

Every loss is an empirical mean over one shard: unhalved squared error, or
the logistic negative log-likelihood ``mean(softplus(u) - y*u)`` with
``u = x @ theta``. :class:`ShardLoss` binds a model to a shard, checks the
response once, and returns the value, gradient and Hessian up to a requested
order. It remembers its last point, so each of them, ``u`` and the logistic
loss's one exponential ``exp(-|u|)`` are computed at most once per point. An
evaluator holds its own scratch vectors, so a value allocates no n-length
array, and one evaluator must not be called from two threads at once. All
evaluations are plain numpy; nothing here talks to the cluster or the ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "DataShard",
    "LossModel",
    "ShardLoss",
    "shard_to_csv",
    "sigmoid",
]


def sigmoid(u: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-u)) from e = exp(-|u|): 1/(1+e) for u >= 0, e/(1+e) below."""
    u = np.asarray(u, dtype=np.float64)
    return _sigmoid(u, _exp_neg_abs(u))


# The logistic kernels take u and e = exp(-|u|), which _exp_neg_abs makes and
# which cannot overflow. _softplus writes into ``out`` and uses ``work``.
def _exp_neg_abs(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.exp(np.negative(np.abs(u, out=out), out=out), out=out)


def _softplus(u, e, out, work):  # log(1 + exp(u)) as max(u, 0) + log1p(e)
    out = np.maximum(u, 0.0, out=out)
    return np.add(out, np.log1p(e, out=work), out=out)


def _sigmoid(u, e):  # np.where(u >= 0.0, 1.0, e) bit for bit, as 0 <= e <= 1
    return np.maximum(e, u >= 0.0) / (1.0 + e)


def _logistic_weight(u, e):  # sigmoid(u) * sigmoid(-u)
    return e / np.square(1.0 + e)


@dataclass(frozen=True)
class LossModel:
    """A loss family. Construct via :meth:`logistic` or :meth:`linear`.

    ``logistic()`` is the GLM with the logit link, for labels in {0, 1};
    ``linear()`` is the unhalved squared error ``mean((y - u)**2)`` whose
    gradient therefore carries a factor 2.
    """

    family: str

    @classmethod
    def logistic(cls) -> "LossModel":
        return cls(family="logistic")

    @classmethod
    def linear(cls) -> "LossModel":
        return cls(family="linear")

    def validate_response(self, y: np.ndarray) -> None:
        if self.family == "logistic" and not np.all((y == 0.0) | (y == 1.0)):
            raise DataError("binary-response loss requires labels in {0, 1}")


def _check_finite(*arrays: np.ndarray) -> None:
    # NaN carries through min and max and an infinity is one of them, so
    # this rejects what np.isfinite would, without an n*d mask.
    if not all(math.isfinite(a.min()) and math.isfinite(a.max()) for a in arrays):
        raise DataError("shard contains non-finite entries")


@dataclass(frozen=True)
class DataShard:
    """An immutable (x, y) block of samples; one machine's local data.

    Arrays are cast to float64, checked and frozen, as is the array a view
    views, so no write leaves the kept fits stale. A view of that array made
    before the shard stays writable; writing through it is outside this contract.
    Rows are samples. The shard keeps the fits :func:`~csl.solvers.run_fit` finished on it.
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
        _check_finite(x, y)
        self._freeze(x, y)

    @classmethod
    def _cut(cls, x: np.ndarray, y: np.ndarray) -> "DataShard":
        """A shard of arrays cut from checked shards, such as a row block, a
        pooled view or a column slice: cast and frozen, but not scanned again."""
        shard = object.__new__(cls)
        shard._freeze(np.ascontiguousarray(x, dtype=np.float64),
                      np.ascontiguousarray(y, dtype=np.float64))
        return shard

    def _freeze(self, x: np.ndarray, y: np.ndarray) -> None:
        for a in (x, y):
            a.flags.writeable = False
            if isinstance(a.base, np.ndarray):
                a.base.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_fits", {})  # (model, request) -> finished fit

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]


class ShardLoss:
    """The mean loss of one model on one shard, bound once and evaluated at
    most once per point.

    Binding checks the response against the model; shard arrays are
    read-only, so the check holds for the evaluator's lifetime. Every call
    checks theta's shape, and at a new point its finiteness. The family
    branch, squared error or the logistic kernels, lives here and nowhere
    else.

    It remembers its last point, keyed on the bytes of theta so that an array
    changed in place is a new point. There it keeps ``u = x @ theta`` and, for
    the logistic loss, ``exp(-|u|)`` in its own buffers, and the value,
    gradient and Hessian once asked for. A value allocates no n-length array; every returned array
    is fresh. One evaluator must not be called from two threads at once: each
    TCP worker binds its own, and the coordinator's run on its thread only.
    """

    def __init__(self, model: LossModel, shard: DataShard):
        model.validate_response(shard.y)
        self._bind(model, shard)

    def _bind(self, model: LossModel, shard: DataShard) -> None:
        self.model = model
        self.shard = shard
        n = shard.n_samples
        self._u, self._v, self._work = np.empty(n), np.empty(n), np.empty(n)
        self._logit = model.family == "logistic"
        self._e = np.empty(n) if self._logit else None
        self._key = self._value = self._grad = self._hess = None
        self._zero_key = bytes(8 * shard.n_features)

    def restrict(self, columns: np.ndarray) -> "ShardLoss":
        """The same model on ``x[:, columns]`` and the same y: at a theta that
        is zero off those columns, the loss of ``theta[columns]``. The slice
        of the checked shard and its checked response are not checked again."""
        view = object.__new__(ShardLoss)
        view._bind(self.model, DataShard._cut(self.shard.x[:, columns], self.shard.y))
        return view

    def check_theta(self, theta: np.ndarray) -> np.ndarray:
        """theta as a float64 array of shape (d,) with finite entries."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.shard.n_features,):
            raise DataError(
                f"theta has shape {theta.shape}; shard has {self.shard.n_features} features")
        if not np.isfinite(theta).all():
            raise DataError("theta contains non-finite entries")
        return theta

    def _at(self, theta: np.ndarray) -> "ShardLoss":
        """Check theta's shape, and at a new point its finiteness too; there,
        compute u and exp(-|u|). The remembered point passed that check."""
        theta = np.asarray(theta, dtype=np.float64)
        key = theta.tobytes()
        new = key != self._key
        if new or theta.shape != (self.shard.n_features,):
            self.check_theta(theta)
        if new:
            self._key = self._value = self._grad = self._hess = None
            if key == self._zero_key:  # x @ +0 is +0; a -0.0 entry takes the product
                self._u.fill(0.0)
            else:
                np.matmul(self.shard.x, theta, out=self._u)
            if self._logit:
                _exp_neg_abs(self._u, out=self._e)
            self._key = key
        return self

    def _mean(self) -> np.ndarray:
        return _sigmoid(self._u, self._e) if self._logit else self._u

    def _gradient(self) -> np.ndarray:
        if self._grad is None:
            x, n = self.shard.x, self.shard.n_samples
            excess = np.subtract(self._mean(), self.shard.y, out=self._v)
            # np.dot, not @: with a transposed operand only np.dot releases the GIL.
            self._grad = (np.dot(x.T, excess) / n if self._logit
                          else (2.0 / n) * np.dot(x.T, excess))
        return self._grad.copy()

    def eval(self, theta: np.ndarray, order: int) -> tuple:
        """``(value,)``, ``(value, grad)`` or ``(value, grad, hessian)`` for
        order 0, 1 or 2; the gradient is ``(d,)`` and the Hessian ``(d, d)``."""
        if order not in (0, 1, 2):
            raise DataError(f"order must be 0, 1 or 2, got {order!r}")
        self._at(theta)
        x, y, n, u = self.shard.x, self.shard.y, self.shard.n_samples, self._u
        if self._value is None:
            # Every intermediate goes into the scratch vectors, in the order of
            # mean(softplus(u) - y*u) or mean(r*r); add.reduce is np.mean's sum.
            v, work = self._v, self._work
            if self._logit:
                phi = _softplus(u, self._e, v, work)
                np.subtract(phi, np.multiply(y, u, out=work), out=v)
            else:
                np.subtract(y, u, out=v)
                np.multiply(v, v, out=v)
            self._value = float(np.add.reduce(v)) / n
        if order == 0:
            return (self._value,)
        grad = self._gradient()
        if order == 1:
            return self._value, grad
        if self._hess is None:  # the einsum is x * weight[:, None], bit for bit
            # np.dot, not @: with a transposed operand only np.dot releases the GIL.
            self._hess = (np.dot(np.einsum("ij,i->ij", x, _logistic_weight(u, self._e)).T, x)
                          / n if self._logit else (2.0 / n) * np.dot(x.T, x))
        return self._value, grad, self._hess.copy()

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """The gradient alone, bit for bit ``eval(theta, 1)[1]``; what a
        gradient round needs."""
        return self._at(theta)._gradient()

    def per_sample(self, theta: np.ndarray) -> np.ndarray:
        """(n, d) matrix whose i-th row is the gradient of sample i's loss term.

        The row mean equals the gradient up to floating-point reduction
        order; squared error carries its factor 2.
        """
        excess = self._at(theta)._mean() - self.shard.y
        if not self._logit:
            excess = 2.0 * excess
        return self.shard.x * excess[:, None]


def shard_to_csv(shard: DataShard) -> str:
    """Serialize a shard as CSV text: header ``y,x_1..x_d``, shortest
    round-trip decimal literals, one sample per row."""
    header = "y," + ",".join(f"x_{j + 1}" for j in range(shard.n_features))
    rows = (",".join(map(repr, [yi, *xi]))
            for yi, xi in zip(shard.y.tolist(), shard.x.tolist()))
    return "\n".join([header, *rows]) + "\n"
