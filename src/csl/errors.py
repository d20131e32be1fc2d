"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np

__all__ = ["CslError", "ConfigError", "DataError", "SingularHessianError",
           "NonConvergenceError", "WorkerError"]


class CslError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CslError):
    """Bad configuration input (unknown key, unparseable value, invalid combination)."""


class DataError(CslError):
    """Malformed data: shape mismatch, non-finite entries, non-binary labels, uneven shards."""


class SingularHessianError(CslError):
    """A Hessian that must be positive definite is not.

    Attributes:
        min_eigenvalue: smallest eigenvalue observed, for diagnostics.
    """

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NonConvergenceError(CslError):
    """An iterative solver ran out of budget or stalled.

    Carries the last iterate and its gradient norm so callers can inspect or
    restart instead of losing the work.
    """

    def __init__(self, message: str, last_iterate: np.ndarray | None = None,
                 gradient_norm: float | None = None, iterations: int | None = None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.gradient_norm = gradient_norm
        self.iterations = iterations


class WorkerError(CslError):
    """A remote worker failed or sent a malformed reply.

    Attributes:
        worker: 1-based index of the failing worker, when known.
    """

    def __init__(self, message: str, worker: int | None = None):
        super().__init__(message)
        self.worker = worker
