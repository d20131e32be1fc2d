"""Synthetic problem generators used by the experiments and tests.

All randomness flows through numpy Generators (PCG64). derive_rng builds
independent, reproducible streams keyed by (master seed, trial, purpose), so
adding trials or reordering purposes never perturbs other streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .cluster import split_rows
from .errors import DataError
from .losses import DataShard, sigmoid

__all__ = ["derive_rng", "gen_logistic", "gen_sparse_linear"]


def _key_words(key) -> list[int]:
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise DataError("rng keys must be nonnegative integers or strings")
        return [int(key)]
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    raise DataError(f"rng keys must be ints or strings, got {type(key).__name__}")


def derive_rng(master_seed: int, *keys) -> np.random.Generator:
    """An independent PCG64 stream for (master_seed, *keys).

    String keys are folded in through a stable hash, so stream identity
    depends only on the values, not on interpreter state.
    """
    entropy = [int(master_seed)]
    for key in keys:
        entropy.extend(_key_words(key))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def gen_logistic(d: int, n_total: int, seed_or_rng) -> tuple[DataShard, np.ndarray]:
    """Binary-response data: theta* uniform on [0,1]^d, standard normal
    design, labels Bernoulli(sigmoid(x @ theta*)). Returns (data, theta*).

    Draw order is fixed (theta*, then the design, then the label uniforms) so
    a seed pins the dataset bytes exactly.
    """
    if d < 1 or n_total < 1:
        raise DataError("d and n_total must be >= 1")
    rng = _as_rng(seed_or_rng)
    theta_star = rng.uniform(0.0, 1.0, size=d)
    x = rng.standard_normal((n_total, d))
    probs = sigmoid(x @ theta_star)
    y = (rng.uniform(size=n_total) < probs).astype(np.float64)
    return DataShard(x=x, y=y), theta_star


def gen_sparse_linear(d: int, n: int, k: int, s: int, sigma: float, seed_or_rng
                      ) -> tuple[list[DataShard], np.ndarray]:
    """Sparse linear data already split into k equal shards of n samples.

    theta* has s nonzero coordinates at random positions, each of magnitude
    5*sigma (5.0 when sigma is zero) with a random sign; the design is
    standard normal and the noise is N(0, sigma^2). Draw order: support,
    signs, design, noise.
    """
    if d < 1 or n < 1 or k < 1:
        raise DataError("d, n and k must be >= 1")
    if not (0 <= s <= d):
        raise DataError(f"s must be in [0, {d}]")
    if sigma < 0.0:
        raise DataError("sigma must be >= 0")
    rng = _as_rng(seed_or_rng)
    support = rng.choice(d, size=s, replace=False)
    signs = np.where(rng.uniform(size=s) < 0.5, -1.0, 1.0)
    magnitude = 5.0 * sigma if sigma > 0.0 else 5.0
    theta_star = np.zeros(d)
    theta_star[support] = magnitude * signs
    n_total = n * k
    x = rng.standard_normal((n_total, d))
    y = x @ theta_star + sigma * rng.standard_normal(n_total)
    return split_rows(x, y, k), theta_star
