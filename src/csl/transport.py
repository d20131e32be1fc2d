"""Socket transport for remote workers.

Wire format, little-endian throughout: each frame is a 1-byte opcode, a 4-byte
unsigned payload length, then the payload. Data travel as raw ``<f8`` bytes: a
parameter vector as its d floats, and a shard as its shape ``<II`` (n, d)
followed by y and then x row by row, which round-trips float64 exactly. A shard
is sent scatter-gather from its own arrays and received into the memory the
worker's shard keeps; the wire bytes are those of one packed frame. A reply
vector must hold exactly the d floats of the loaded shard. A Newton local-fit
request (0x04) carries the SolverSettings as ``<dI`` (grad_tol, max_iters) and
gets the fit's d floats back (0x05); a lasso request (0x07) carries ``<ddI``
(lam, tol, max_iters) and gets ``<dI?`` (objective, iterations, converged),
then the fit's d floats (0x08).
"""

from __future__ import annotations

import contextlib
import dataclasses
import socket
import struct
import threading

import numpy as np

from .errors import CslError, WorkerError
from .losses import DataShard, LossModel, ShardLoss
from .solvers import FitRequest, L1Settings, LassoFit, SolverSettings, SparseEstimate, run_fit

__all__ = [
    "OP_LOAD_SHARD", "OP_EVAL_GRAD", "OP_GRAD_REPLY", "OP_LOCAL_MIN_REQ",
    "OP_LOCAL_MIN_REPLY", "OP_SHUTDOWN", "OP_LASSO_REQ", "OP_LASSO_REPLY", "OP_ERROR",
    "pack_frame", "read_frame", "WorkerServer", "WorkerClient",
]

OP_LOAD_SHARD = 0x01
OP_EVAL_GRAD = 0x02
OP_GRAD_REPLY = 0x03
OP_LOCAL_MIN_REQ = 0x04
OP_LOCAL_MIN_REPLY = 0x05
OP_SHUTDOWN = 0x06
OP_LASSO_REQ = 0x07
OP_LASSO_REPLY = 0x08
OP_ERROR = 0x7F

_HEADER = struct.Struct("<BI")
_SHAPE = struct.Struct("<II")  # n, d of a shard payload
_SETTINGS = struct.Struct("<dI")  # the SolverSettings fields, in order
_LASSO = struct.Struct("<ddI")  # the LassoFit fields: lam, then the L1Settings fields
_STATUS = struct.Struct("<dI?")  # objective, iterations, converged of a lasso fit
_MAX_PAYLOAD = 1 << 31  # sanity bound, far above anything this package sends


def pack_frame(opcode: int, payload: bytes = b"") -> bytes:
    if len(payload) >= _MAX_PAYLOAD:
        raise WorkerError(f"payload too large: {len(payload)} bytes")
    return _HEADER.pack(opcode, len(payload)) + payload


def _recv_into(sock: socket.socket, buffer: np.ndarray) -> np.ndarray:
    view = memoryview(buffer)
    while view:
        got = sock.recv_into(view, len(view), socket.MSG_WAITALL)
        if not got:
            raise ConnectionError("peer closed the connection mid-frame")
        view = view[got:]
    return buffer


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    return _recv_into(sock, np.empty(nbytes, np.uint8)).tobytes()


def read_frame(sock: socket.socket) -> tuple[int, bytes | np.ndarray]:
    """Read one complete frame; raises ConnectionError on a truncated stream.
    A shard payload is read into an uninitialised uint8 array, others are bytes."""
    header = _recv_exact(sock, _HEADER.size)
    opcode, length = _HEADER.unpack(header)
    if length >= _MAX_PAYLOAD:
        raise ConnectionError(f"declared payload length {length} exceeds bound")
    if opcode == OP_LOAD_SHARD:
        return opcode, _recv_into(sock, np.empty(length, np.uint8))
    return opcode, _recv_exact(sock, length)


def _encode_vector(vec: np.ndarray) -> bytes:
    return np.ascontiguousarray(vec, dtype="<f8").tobytes()


def _decode_vector(payload: bytes) -> np.ndarray:
    if len(payload) % 8 != 0 or len(payload) == 0:
        raise WorkerError(f"vector payload of {len(payload)} bytes is not a "
                          "nonempty multiple of 8")
    return np.frombuffer(payload, dtype="<f8").copy()


def _decode_shard(payload: bytes | np.ndarray) -> DataShard:
    """Inverse of the :meth:`WorkerClient.load_shard` payload; the shard's
    arrays are views of ``payload``."""
    if len(payload) < _SHAPE.size:
        raise CslError(f"shard payload of {len(payload)} bytes is shorter than "
                       f"its {_SHAPE.size}-byte shape")
    n, d = _SHAPE.unpack_from(payload)
    if len(payload) != _SHAPE.size + 8 * n * (d + 1):
        raise CslError(f"shard payload of {len(payload)} bytes does not hold "
                       f"n={n} rows of d={d} features and a response")
    values = np.frombuffer(payload, dtype="<f8", offset=_SHAPE.size)
    return DataShard(x=values[n:].reshape(n, d), y=values[:n])


class WorkerServer:
    """One remote worker: holds a shard, serves gradient and local-fit requests.

    Connections are handled one at a time. A SHUTDOWN frame stops the server,
    and so does :meth:`stop`, which also shuts the connection being served so
    that a silent client cannot hold the serve thread.
    A request that fails (no shard loaded, solver failure, unknown opcode) gets
    an error frame back and the connection keeps serving, since frames are
    length-delimited. A successful load gets no reply, so a rejected one
    unloads the shard and ends the connection after its error frame, which
    the client's next call raises. A connection that breaks, mid-frame or
    while a reply is sent, ends alone; the server keeps accepting.
    """

    def __init__(self, model: LossModel, host: str = "127.0.0.1", port: int = 0):
        self.model = model
        self._loss: ShardLoss | None = None
        self._listener = socket.create_server((host, port))
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._conn: socket.socket | None = None  # the connection being served

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def start(self) -> "WorkerServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(target=self.serve, daemon=True)
        self._thread.start()
        return self

    def serve(self) -> None:
        self._listener.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with conn:
                self._conn = conn
                self._serve_connection(conn)
                self._conn = None
        self._listener.close()

    def stop(self) -> None:
        self._stop.set()
        conn = self._conn
        if conn is not None:  # wakes a read blocked on an idle client
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=5.0)

    def _serve_connection(self, conn: socket.socket) -> None:
        while not self._stop.is_set():
            try:
                opcode, payload = read_frame(conn)
            except (OSError, MemoryError):  # ConnectionError included
                return
            try:
                reply = self._handle(opcode, payload)
            except Exception as exc:  # any failure becomes an error frame
                reply = pack_frame(OP_ERROR, str(exc).encode("utf-8"))
            if reply is not None:
                try:
                    conn.sendall(reply)
                except OSError:
                    return
            if opcode == OP_SHUTDOWN:
                self._stop.set()
            if opcode == OP_SHUTDOWN or (opcode == OP_LOAD_SHARD and reply is not None):
                return  # a successful load has no reply for this error frame to answer

    def _handle(self, opcode: int, payload: bytes | np.ndarray) -> bytes | None:
        if opcode == OP_LOAD_SHARD:
            self._loss = None  # a rejected load leaves no shard loaded
            self._loss = ShardLoss(self.model, _decode_shard(payload))
            return None
        if opcode == OP_SHUTDOWN:
            return None
        if opcode not in (OP_EVAL_GRAD, OP_LOCAL_MIN_REQ, OP_LASSO_REQ):
            raise CslError(f"unknown opcode 0x{opcode:02x}")
        if self._loss is None:
            raise CslError("no shard loaded")
        if opcode == OP_EVAL_GRAD:
            grad = self._loss.gradient(_decode_vector(payload))
            return pack_frame(OP_GRAD_REPLY, _encode_vector(grad))
        layout = _SETTINGS if opcode == OP_LOCAL_MIN_REQ else _LASSO
        if len(payload) != layout.size:
            raise CslError(f"{'local-min' if layout is _SETTINGS else 'lasso'} request "
                           f"payload must be {layout.size} bytes, got {len(payload)}")
        if layout is _SETTINGS:
            theta = run_fit(SolverSettings(*_SETTINGS.unpack(payload)), self._loss)
            return pack_frame(OP_LOCAL_MIN_REPLY, _encode_vector(theta))
        lam, tol, max_iters = _LASSO.unpack(payload)
        fit = run_fit(LassoFit(lam, L1Settings(tol, max_iters)), self._loss)
        status = _STATUS.pack(fit.objective_value, fit.iterations, fit.converged)
        return pack_frame(OP_LASSO_REPLY, status + _encode_vector(fit.theta))


class WorkerClient:
    """Client side of the worker protocol, used by the cluster coordinator."""

    def __init__(self, address: tuple[str, int], worker_index: int,
                 timeout: float = 60.0):
        self.worker_index = worker_index
        self._d: int | None = None  # features of the loaded shard
        try:
            self._sock = socket.create_connection(address, timeout=timeout)
        except OSError as exc:
            raise self._error(f"cannot connect to {address}: {exc}")

    def _error(self, message: str) -> WorkerError:
        return WorkerError(f"worker {self.worker_index}: {message}",
                           worker=self.worker_index)

    def _send(self, opcode: int, payload: bytes = b"") -> None:
        try:
            self._sock.sendall(pack_frame(opcode, payload))
        except OSError as exc:
            raise self._error(f"send failed: {exc}")

    def _expect_vector(self, opcode: int, head: int = 0) -> tuple[bytes, np.ndarray]:
        """The reply frame ``opcode``: ``head`` status bytes, then the shard's d floats."""
        try:
            got, payload = read_frame(self._sock)
        except OSError as exc:  # ConnectionError included
            raise self._error(str(exc))
        if got == OP_ERROR:
            raise self._error(f"remote error: {payload.decode('utf-8', 'replace')}")
        if got != opcode:
            raise self._error(f"expected opcode 0x{opcode:02x}, got 0x{got:02x}")
        if self._d is None or len(payload) != head + 8 * self._d:
            raise self._error(f"reply of {len(payload)} bytes is not the d={self._d} "
                              f"floats of the loaded shard after {head} status bytes")
        return payload[:head], _decode_vector(payload[head:])

    def load_shard(self, shard: DataShard) -> None:
        # y and x go out as views of the shard's arrays, copied only on big-endian hosts
        arrays = [np.ascontiguousarray(a, dtype="<f8") for a in (shard.y, shard.x)]
        length = _SHAPE.size + sum(a.nbytes for a in arrays)
        if length >= _MAX_PAYLOAD:
            raise self._error(f"payload too large: {length} bytes")
        views = [memoryview(_HEADER.pack(OP_LOAD_SHARD, length) + _SHAPE.pack(*shard.x.shape))]
        views += [memoryview(a).cast("B") for a in arrays]
        try:
            while views:  # sendmsg may take only part of the list
                sent = self._sock.sendmsg(views)
                while views and sent >= len(views[0]):
                    sent -= len(views.pop(0))
                if views:
                    views[0] = views[0][sent:]
        except OSError as exc:
            raise self._error(f"send failed: {exc}")
        self._d = shard.n_features

    def send_gradient_request(self, theta: np.ndarray) -> None:
        self._send(OP_EVAL_GRAD, _encode_vector(theta))

    def recv_gradient(self) -> np.ndarray:
        return self._expect_vector(OP_GRAD_REPLY)[1]

    def send_local_min_request(self, request: FitRequest) -> None:
        if isinstance(request, LassoFit):
            return self._send(OP_LASSO_REQ, _LASSO.pack(
                request.lam, *dataclasses.astuple(request.settings)))
        self._send(OP_LOCAL_MIN_REQ, _SETTINGS.pack(*dataclasses.astuple(request)))

    def recv_local_min(self, request: FitRequest) -> np.ndarray | SparseEstimate:
        """The reply to ``request``: the Newton fit, or the lasso SparseEstimate."""
        if not isinstance(request, LassoFit):
            return self._expect_vector(OP_LOCAL_MIN_REPLY)[1]
        status, theta = self._expect_vector(OP_LASSO_REPLY, _STATUS.size)
        return SparseEstimate(theta, *_STATUS.unpack(status))

    def shutdown(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.sendall(pack_frame(OP_SHUTDOWN))
        self.close()

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.close()
