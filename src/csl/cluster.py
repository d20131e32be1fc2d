"""A coordinator plus k equal-size data shards, with exact communication accounting.

Worker 1 is the coordinator's own shard and never pays for communication.
The ledger counts d-dimensional vector payloads crossing machine boundaries:

* gradient round: broadcast theta to workers 2..k and collect their replies,
  2*(k-1) vectors;
* local-fit round: each worker runs :func:`~csl.solvers.run_fit` on one typed
  request, a Newton or a lasso fit; requests carry only settings, so just the
  k-1 replies count;
* at k=1 nothing crosses a boundary and the ledger does not move.

Every mean over workers is :meth:`Cluster.average`, summed in worker order.

Raw-sample movement, pooling all data on one machine for a baseline, is
metered in ``samples_moved``, not in vectors. Data enters once: :func:`split_rows`
checks the pooled pair and cuts the shards as row views of it.

Transport is "in_process" (default) or "tcp", in which case workers 2..k are
:class:`~csl.transport.WorkerServer` instances reached through the frame
protocol; each shard is placed on its worker once, as a raw float64 frame like
every vector. Every round, on either transport, runs the coordinator's share
on the shards it serves (all k in process, shard 1 over tcp) and reads every
reply even when one fails, so the next round starts in step. The coordinator
keeps every shard, bound to one :class:`~csl.losses.ShardLoss`, so that
surrogate construction can evaluate local losses there.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError
from .losses import DataShard, LossModel, ShardLoss
from .solvers import FitRequest, run_fit
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
    """Split pooled rows into k equal consecutive blocks, one shard each. The
    pair is cast, checked and frozen once, as one shard; each block is a row view of it."""
    if k < 1:
        raise DataError("k must be >= 1")
    pooled = DataShard(x=x, y=y)
    n, rest = divmod(pooled.n_samples, k)
    if rest:
        raise DataError(f"cannot split {pooled.n_samples} samples into {k} equal shards")
    return [DataShard._cut(pooled.x[j * n:(j + 1) * n], pooled.y[j * n:(j + 1) * n])
            for j in range(k)]


def _stacked(blocks: list[np.ndarray]) -> np.ndarray:
    """Equal-shape C-contiguous blocks stacked by rows: a view when they lie
    back to back, in order, in one C-contiguous array that owns its data,
    else a concatenated copy."""
    first = blocks[0]
    owner = first if first.base is None else first.base
    start, size = first.ctypes.data, first.nbytes
    if (isinstance(owner, np.ndarray) and owner.flags.c_contiguous
            and all((b if b.base is None else b.base) is owner
                    and b.ctypes.data == start + j * size for j, b in enumerate(blocks))):
        return np.ndarray((len(blocks) * first.shape[0], *first.shape[1:]), first.dtype,
                          buffer=owner, offset=start - owner.ctypes.data)
    return np.concatenate(blocks)


class Cluster:
    """k machines holding equal shards of one dataset, with a shared ledger."""

    def __init__(self, model: LossModel, shards: list[DataShard],
                 transport: str = "in_process",
                 addresses: list[tuple[str, int]] | None = None):
        if len(shards) < 1:
            raise DataError("a cluster needs at least one shard")
        n, d = shards[0].x.shape
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
        self._pooled: DataShard | None = None  # made by the first pooled_shard
        self._clients: list[WorkerClient] = []
        self._owned_servers: list[WorkerServer] = []
        if transport == "tcp":
            self._connect_workers(addresses)
        elif transport != "in_process":
            raise ConfigError(f"unknown transport {transport!r}; "
                              "use 'in_process' or 'tcp'")

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

    def _round(self, vectors: int, run: Callable, send: Callable, recv: Callable) -> list:
        """One round in worker order: ``send`` to every remote worker, ``run``
        on each shard the coordinator serves, then ``recv`` every reply. The
        first failure in worker order is re-raised only once every sent request
        has had its reply read; a completed round meters ``vectors`` if k > 1."""
        results, failures = [None] * self.k, [None] * self.k

        def attempt(j: int, step: Callable, arg) -> None:
            try:
                results[j] = step(arg)
            except Exception as exc:  # re-raised below, after the replies
                failures[j] = exc

        for j, client in enumerate(self._clients, 1):
            attempt(j, send, client)
        for j, loss in enumerate(self.losses[:self.k - len(self._clients)]):
            attempt(j, run, loss)
        for j, client in enumerate(self._clients, 1):
            if failures[j] is None:
                attempt(j, recv, client)
        for exc in failures:
            if exc is not None:
                raise exc
        if self.k > 1:
            self.ledger.vectors_sent += vectors
            self.ledger.rounds += 1
        return results

    def gradient_round(self, theta: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Broadcast theta, gather the k local gradients, average in worker order.

        Returns (global gradient, local gradients). Costs 2*(k-1) vectors.
        """
        theta = self.losses[0].check_theta(theta)  # before any request goes out
        locals_ = self._round(2 * (self.k - 1), lambda loss: loss.gradient(theta),
                              lambda client: client.send_gradient_request(theta),
                              WorkerClient.recv_gradient)
        return self.average(locals_), locals_

    def local_minimizer_round(self, request: FitRequest) -> list:
        """Each worker's :func:`~csl.solvers.run_fit` of ``request`` on its own
        shard: Newton fits for SolverSettings, SparseEstimates for a LassoFit.
        k-1 reply vectors; remote fits run exactly as in-process ones do."""
        return self._round(self.k - 1, lambda loss: run_fit(request, loss),
                           lambda client: client.send_local_min_request(request),
                           lambda client: client.recv_local_min(request))

    def average(self, values: list):
        """The mean of k per-worker values, summed in worker order from 0.0:
        a fresh array for vectors, a Python float for floats."""
        return functools.reduce(operator.add, values, 0.0) / self.k

    def pooled_shard(self, meter: bool) -> DataShard:
        """All samples on one machine, in worker order: one frozen shard per
        cluster, made unscanned at the first call, a view of the array in
        which the shards lie back to back, as :func:`split_rows` cuts them,
        else their rows stacked once. ``meter`` says whether the ledger pays
        (k-1)*n moved raw samples (a pooling baseline) or not (a diagnostic
        copy); vectors are unaffected."""
        if meter and self.k > 1:
            self.ledger.samples_moved += (self.k - 1) * self.n_per_shard
        if self._pooled is None:
            self._pooled = DataShard._cut(_stacked([s.x for s in self.shards]),
                                          _stacked([s.y for s in self.shards]))
        return self._pooled

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
