"""A coordinator plus k equal-size data shards, with exact communication accounting.

Worker 1 is the coordinator's own shard and never pays for communication.
The ledger counts d-dimensional vector payloads crossing machine boundaries:

* gradient round: broadcast theta to workers 2..k and collect their replies,
  2*(k-1) vectors;
* local-minimizer round: each worker runs :func:`~csl.solvers.local_fit`;
  requests carry only the solver settings, so just the k-1 replies count;
* at k=1 nothing crosses a boundary and the ledger does not move.

Every mean over workers is :meth:`Cluster.average`, summed in worker order.

Raw-sample movement (pooling all data on one machine for baselines) is metered
separately in ``samples_moved`` rather than being converted into vectors.

Transport is "in_process" (default) or "tcp", in which case workers 2..k are
:class:`~csl.transport.WorkerServer` processes reached through the frame
protocol; each shard is placed on its worker once, as a raw float64 frame like
every vector, and a failed round still reads every reply, so the next round
starts in step. Shard contents are retained locally in both modes so that
surrogate construction can evaluate local losses at the coordinator, and
:meth:`Cluster.local_fit_round` runs other local fits (the lasso ones) on
those copies, ledgered as a local-minimizer round; each retained shard is
bound to one :class:`~csl.losses.ShardLoss` evaluator.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, DataError
from .losses import DataShard, LossModel, ShardLoss
from .solvers import SolverSettings, local_fit
from .transport import WorkerClient, WorkerServer

__all__ = ["CommLedger", "Cluster", "split_rows"]


@dataclass
class CommLedger:
    """Running communication totals for one cluster."""

    vectors_sent: int = 0
    rounds: int = 0
    samples_moved: int = 0

    def copy(self) -> "CommLedger":
        return CommLedger(self.vectors_sent, self.rounds, self.samples_moved)


def split_rows(x: np.ndarray, y: np.ndarray, k: int) -> list[DataShard]:
    """Split pooled rows into k equal consecutive blocks, one shard each."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if k < 1:
        raise DataError("k must be >= 1")
    n_total = x.shape[0]
    if n_total % k != 0:
        raise DataError(f"cannot split {n_total} samples into {k} equal shards")
    n = n_total // k
    return [DataShard(x=x[j * n:(j + 1) * n], y=y[j * n:(j + 1) * n])
            for j in range(k)]


class Cluster:
    """k machines holding equal shards of one dataset, with a shared ledger."""

    def __init__(self, model: LossModel, shards: list[DataShard],
                 transport: str = "in_process",
                 addresses: list[tuple[str, int]] | None = None):
        if len(shards) < 1:
            raise DataError("a cluster needs at least one shard")
        n = shards[0].n_samples
        d = shards[0].n_features
        for j, shard in enumerate(shards):
            if shard.n_samples != n:
                raise DataError(f"shard {j + 1} has {shard.n_samples} samples, "
                                f"expected {n} (shards must be equal size)")
            if shard.n_features != d:
                raise DataError(f"shard {j + 1} has {shard.n_features} features, "
                                f"expected {d}")
        self.model = model
        self.shards = tuple(shards)
        self.losses = tuple(ShardLoss(model, shard) for shard in self.shards)
        self.ledger = CommLedger()
        self._clients: list[WorkerClient] = []
        self._owned_servers: list[WorkerServer] = []
        if transport == "tcp":
            self._connect_workers(addresses)
        elif transport != "in_process":
            raise ConfigError(f"unknown transport {transport!r}; "
                              "use 'in_process' or 'tcp'")
        self.transport = transport

    def _connect_workers(self, addresses) -> None:
        """Start or reach workers 2..k and load their shards; on any failure,
        shut down every client and owned server before re-raising."""
        k = len(self.shards)
        try:
            if addresses is None:
                # Self-hosted loopback workers, one daemon thread each.
                for _ in range(k - 1):
                    self._owned_servers.append(WorkerServer(self.model).start())
                addresses = [srv.address for srv in self._owned_servers]
            if len(addresses) != k - 1:
                raise ConfigError(f"need {k - 1} worker addresses for k={k}, "
                                  f"got {len(addresses)}")
            for j, addr in enumerate(addresses):
                self._clients.append(WorkerClient(addr, worker_index=j + 2))
                self._clients[-1].load_shard(self.shards[j + 1])
        except BaseException:
            self.close()
            raise

    @classmethod
    def from_pooled(cls, model: LossModel, x: np.ndarray, y: np.ndarray, k: int,
                    transport: str = "in_process",
                    addresses: list[tuple[str, int]] | None = None) -> "Cluster":
        return cls(model, split_rows(x, y, k), transport, addresses)

    @property
    def k(self) -> int:
        return len(self.shards)

    @property
    def d(self) -> int:
        return self.shards[0].n_features

    @property
    def n_per_shard(self) -> int:
        return self.shards[0].n_samples

    @property
    def n_total(self) -> int:
        return self.n_per_shard * self.k

    def _exchange(self, send: Callable[[WorkerClient], None],
                  own: Callable[[], np.ndarray],
                  recv: Callable[[WorkerClient], np.ndarray]) -> list[np.ndarray]:
        """Send every worker its request, compute the coordinator's share, then
        read every reply, in worker order. A failure anywhere is re-raised,
        the first in worker order, only once every sent request has had its
        reply read, so the next round finds no stale frame."""
        results: list = [None] * self.k
        failures: list[Exception | None] = [None] * self.k

        def attempt(j: int, step: Callable, *args) -> None:
            try:
                results[j] = step(*args)
            except Exception as exc:  # re-raised below, after the replies
                failures[j] = exc

        for j, client in enumerate(self._clients, 1):
            attempt(j, send, client)
        attempt(0, own)
        for j, client in enumerate(self._clients, 1):
            if failures[j] is None:
                attempt(j, recv, client)
        for exc in failures:
            if exc is not None:
                raise exc
        return results

    def _meter(self, vectors: int) -> None:
        if self.k > 1:
            self.ledger.vectors_sent += vectors
            self.ledger.rounds += 1

    def gradient_round(self, theta: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Broadcast theta, gather the k local gradients, average in worker order.

        Returns (global gradient, local gradients). Costs 2*(k-1) vectors.
        """
        theta = self.losses[0].check_theta(theta)  # before any request goes out
        if self._clients:
            locals_ = self._exchange(lambda client: client.send_gradient_request(theta),
                                     lambda: self.losses[0].gradient(theta),
                                     WorkerClient.recv_gradient)
        else:
            locals_ = [loss.gradient(theta) for loss in self.losses]
        self._meter(2 * (self.k - 1))
        return self.average(locals_), locals_

    def local_minimizer_round(self, settings: SolverSettings = SolverSettings()
                              ) -> list[np.ndarray]:
        """Each worker minimizes its own shard loss from zero; k-1 reply vectors.

        Over tcp the request carries both solver settings, so remote fits
        run exactly as in-process ones do.
        """
        if not self._clients:
            return self.local_fit_round(lambda loss: local_fit(loss, settings))
        fits = self._exchange(lambda client: client.send_local_min_request(settings),
                              lambda: local_fit(self.losses[0], settings),
                              WorkerClient.recv_local_min)
        self._meter(self.k - 1)
        return fits

    def local_fit_round(self, fit: Callable[[ShardLoss], Any]) -> list:
        """``fit`` applied to every retained shard evaluator in worker order;
        ledgered as a local-minimizer round (k-1 reply vectors)."""
        fits = [fit(loss) for loss in self.losses]
        self._meter(self.k - 1)
        return fits

    def average(self, values: list):
        """The mean of k per-worker values, summed in worker order from 0.0:
        a fresh array for vectors, a Python float for floats."""
        return functools.reduce(operator.add, values, 0.0) / self.k

    def pooled_shard(self, meter: bool = True) -> DataShard:
        """All samples on one machine, in worker order. Moves (k-1)*n raw
        samples when metered; vector counts are unaffected."""
        if meter and self.k > 1:
            self.ledger.samples_moved += (self.k - 1) * self.n_per_shard
        x = np.concatenate([s.x for s in self.shards], axis=0)
        y = np.concatenate([s.y for s in self.shards], axis=0)
        return DataShard(x=x, y=y)

    def close(self) -> None:
        for client in self._clients:
            client.shutdown()
        self._clients = []
        for server in self._owned_servers:
            server.stop()
        self._owned_servers = []

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
