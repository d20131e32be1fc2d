import socket
import struct
import threading
import time

import numpy as np
import pytest

from csl import transport
from csl.cluster import Cluster
from csl.datagen import gen_logistic
from csl.errors import DataError, NonConvergenceError, WorkerError
from csl.estimators import subsample_estimator
from csl.losses import DataShard, LossModel, ShardLoss
from csl.solvers import SolverSettings, minimize_shard_loss
from csl.transport import (OP_ERROR, OP_EVAL_GRAD, OP_GRAD_REPLY, OP_LOAD_SHARD,
                           OP_LOCAL_MIN_REPLY, OP_LOCAL_MIN_REQ, WorkerClient,
                           WorkerServer, pack_frame, read_frame)


def test_frame_layout_is_little_endian():
    frame = pack_frame(OP_EVAL_GRAD, b"\x01\x02\x03")
    assert frame[0] == OP_EVAL_GRAD
    assert frame[1:5] == struct.pack("<I", 3)
    assert frame[5:] == b"\x01\x02\x03"


def test_frame_round_trip_over_socketpair():
    left, right = socket.socketpair()
    try:
        payload = np.array([1.5, -2.25]).tobytes()
        left.sendall(pack_frame(OP_GRAD_REPLY, payload))
        opcode, got = read_frame(right)
        assert opcode == OP_GRAD_REPLY
        assert got == payload
    finally:
        left.close()
        right.close()


def test_truncated_stream_raises():
    left, right = socket.socketpair()
    try:
        left.sendall(pack_frame(OP_GRAD_REPLY, b"12345678")[:6])
        left.close()
        with pytest.raises(ConnectionError):
            read_frame(right)
    finally:
        right.close()


@pytest.fixture()
def worker():
    server = WorkerServer(LossModel.logistic()).start()
    yield server
    server.stop()


def make_shard(seed=0, n=40, d=3):
    pooled, _ = gen_logistic(d, n, seed)
    return pooled


class TestWorkerProtocol:
    def test_gradient_reply_is_bitwise_local_gradient(self, worker):
        shard = make_shard()
        client = WorkerClient(worker.address, worker_index=2)
        client.load_shard(shard)
        theta = np.array([0.25, -1.0, 0.5])
        client.send_gradient_request(theta)
        remote = client.recv_gradient()
        from csl.losses import ShardLoss
        local = ShardLoss(LossModel.logistic(), shard).eval(theta, 1)[1]
        np.testing.assert_array_equal(remote, local)
        client.shutdown()

    def test_local_min_runs_at_requested_tolerance(self, worker):
        shard = make_shard(seed=1)
        client = WorkerClient(worker.address, worker_index=2)
        client.load_shard(shard)
        client.send_local_min_request(SolverSettings(grad_tol=1e-8))
        remote = client.recv_local_min()
        local = minimize_shard_loss(LossModel.logistic(), shard)
        np.testing.assert_array_equal(remote, local)
        client.shutdown()

    def test_short_local_min_request_gets_error_frame(self, worker):
        client = WorkerClient(worker.address, worker_index=2)
        client.load_shard(make_shard(seed=2))
        # a lone grad_tol, as an older coordinator would send it
        client._send(OP_LOCAL_MIN_REQ, struct.pack("<d", 1e-8))
        with pytest.raises(WorkerError, match="local-min request payload"):
            client.recv_local_min()
        client.close()

    def test_request_before_load_gets_error_frame(self, worker):
        client = WorkerClient(worker.address, worker_index=2)
        client.send_gradient_request(np.zeros(2))
        with pytest.raises(WorkerError, match="no shard loaded"):
            client.recv_gradient()
        client.close()

    def test_unknown_opcode_gets_error_frame_and_connection_serves_on(self, worker):
        client = WorkerClient(worker.address, worker_index=2, timeout=10)
        try:
            client._send(0x42, b"\x00" * 5)
            opcode, payload = read_frame(client._sock)
            assert opcode == OP_ERROR
            assert b"unknown opcode" in payload
            shard = make_shard(seed=3)
            client.load_shard(shard)
            theta = np.array([0.5, 0.25, -1.0])
            client.send_gradient_request(theta)
            local = ShardLoss(LossModel.logistic(), shard).gradient(theta)
            assert client.recv_gradient().tobytes() == local.tobytes()
        finally:
            client.close()

    def test_malformed_shard_payload_gets_error_frame(self, worker):
        cases = [
            (b"\x01\x00\x00", "shorter than"),
            (struct.pack("<II", 2, 3) + np.zeros(7).tobytes(), "does not hold"),
            (struct.pack("<II", 1, 1) + np.array([0.0, np.inf]).tobytes(), "non-finite"),
            (struct.pack("<II", 1, 1) + np.array([0.5, 1.0]).tobytes(), "labels in {0, 1}"),
        ]
        # an error frame leaves the connection open, so one serves every case
        with socket.create_connection(worker.address, timeout=10) as sock:
            for payload, message in cases:
                sock.sendall(pack_frame(OP_LOAD_SHARD, payload))
                opcode, reply = read_frame(sock)
                assert opcode == OP_ERROR
                assert message in reply.decode("utf-8")

    def test_client_reset_mid_request_leaves_the_worker_serving(self, worker):
        # The client resets its socket while the worker computes a gradient on
        # a large shard, so the reply meets a reset connection. Only that
        # connection may end; the next client is served.
        gone = WorkerClient(worker.address, worker_index=2, timeout=10)
        gone.load_shard(make_shard(seed=4, n=200_000))
        gone.send_gradient_request(np.zeros(3))
        gone.recv_gradient()  # the shard is loaded
        gone.send_gradient_request(np.zeros(3))
        gone._sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                              struct.pack("ii", 1, 0))
        gone.close()
        client = WorkerClient(worker.address, worker_index=2, timeout=5)
        try:
            small = make_shard(seed=5)
            client.load_shard(small)
            theta = np.array([0.25, -0.5, 1.0])
            client.send_gradient_request(theta)
            local = ShardLoss(LossModel.logistic(), small).gradient(theta)
            assert client.recv_gradient().tobytes() == local.tobytes()
        finally:
            client.close()
        assert worker._thread.is_alive()


def test_stop_returns_while_a_client_sits_idle():
    server = WorkerServer(LossModel.logistic()).start()
    address = server.address
    with socket.create_connection(address, timeout=10) as idle:
        # an answered request shows the worker is now reading this connection
        idle.sendall(pack_frame(OP_EVAL_GRAD, np.zeros(2).tobytes()))
        assert read_frame(idle)[0] == OP_ERROR
        start = time.perf_counter()
        server.stop()
        assert time.perf_counter() - start < 1.0
        assert not server._thread.is_alive()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=1).close()


class TestTcpCluster:
    def test_tcp_matches_in_process_bitwise(self):
        pooled, _ = gen_logistic(4, 60 * 3, 5)
        model = LossModel.logistic()
        with Cluster.from_pooled(model, pooled.x, pooled.y, 3, transport="tcp") as over_tcp:
            plain = Cluster.from_pooled(model, pooled.x, pooled.y, 3)
            theta = np.array([0.5, -0.5, 0.25, 0.0])
            g_tcp, locals_tcp = over_tcp.gradient_round(theta)
            g_plain, locals_plain = plain.gradient_round(theta)
            np.testing.assert_array_equal(g_tcp, g_plain)
            for a, b in zip(locals_tcp, locals_plain):
                np.testing.assert_array_equal(a, b)
            fits_tcp = over_tcp.local_minimizer_round()
            fits_plain = plain.local_minimizer_round()
            for a, b in zip(fits_tcp, fits_plain):
                np.testing.assert_array_equal(a, b)
            assert over_tcp.ledger == plain.ledger

    @pytest.mark.parametrize("transport", ["in_process", "tcp"])
    def test_subsample_is_the_coordinator_fit_of_a_local_min_round(self, transport):
        pooled, _ = gen_logistic(3, 40 * 3, 6)
        with Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, 3,
                                 transport=transport) as cluster:
            fits = cluster.local_minimizer_round()
            assert subsample_estimator(cluster).tobytes() == fits[0].tobytes()

    def test_solver_settings_travel_in_full(self):
        # Shard 1 is balanced so that zero is its exact fit; shards 2 and 3
        # need several Newton steps, so max_iters=1 fails on worker 2 first.
        x1 = np.concatenate([np.eye(4), -np.eye(4), np.eye(4), -np.eye(4)])
        y1 = np.repeat([1.0, 0.0], 8)
        rest, _ = gen_logistic(4, 32, 9)
        x = np.concatenate([x1, rest.x])
        y = np.concatenate([y1, rest.y])
        model = LossModel.logistic()
        strict = SolverSettings(max_iters=1)
        with pytest.raises(NonConvergenceError):
            Cluster.from_pooled(model, x, y, 3).local_minimizer_round(strict)
        with Cluster.from_pooled(model, x, y, 3, transport="tcp") as over_tcp:
            with pytest.raises(WorkerError, match="no convergence") as info:
                over_tcp.local_minimizer_round(strict)
            assert info.value.worker == 2
        tuned = SolverSettings(grad_tol=1e-12, max_iters=40)
        assert transport._SETTINGS.size == 12  # grad_tol <f8, max_iters <u4
        with Cluster.from_pooled(model, x, y, 3, transport="tcp") as over_tcp:
            fits_tcp = over_tcp.local_minimizer_round(tuned)
        fits_plain = Cluster.from_pooled(model, x, y, 3).local_minimizer_round(tuned)
        np.testing.assert_array_equal(fits_tcp[0], np.zeros(4))
        for a, b in zip(fits_tcp, fits_plain):
            np.testing.assert_array_equal(a, b)

    def test_largest_max_iters_travels(self):
        pooled, _ = gen_logistic(3, 300, 4)
        widest = SolverSettings(max_iters=2 ** 32 - 1)
        with Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, 3,
                                 transport="tcp") as over_tcp:
            fits_tcp = over_tcp.local_minimizer_round(widest)
        plain = Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, 3)
        for a, b in zip(fits_tcp, plain.local_minimizer_round(widest)):
            np.testing.assert_array_equal(a, b)

    def test_failed_connect_shuts_down_earlier_workers(self):
        pooled, _ = gen_logistic(2, 30, 3)
        good = WorkerServer(LossModel.logistic()).start()
        probe = socket.create_server(("127.0.0.1", 0))
        dead = probe.getsockname()[:2]
        probe.close()
        try:
            with pytest.raises(WorkerError) as info:
                Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, 3,
                                    transport="tcp", addresses=[good.address, dead])
            assert info.value.worker == 3
            good._thread.join(timeout=5.0)
            assert not good._thread.is_alive()
            with pytest.raises(OSError):
                socket.create_connection(good.address, timeout=2.0).close()
        finally:
            good.stop()

    def test_extreme_values_survive_the_wire(self):
        x = np.array([[1e-308, 1.0], [9.876543210987654e300, -1.0],
                      [-1.2345678901234567e-5, 3.0], [np.finfo(float).max, 2.0],
                      [5e-324, -0.0]])
        y = np.array([5.5, -2.25, 0.0, 2.0, -0.0])
        shard = DataShard(x=x, y=y)
        server = WorkerServer(LossModel.linear()).start()
        try:
            client = WorkerClient(server.address, worker_index=2)
            client.load_shard(shard)
            theta = np.array([0.0, 1.0])
            client.send_gradient_request(theta)
            remote = client.recv_gradient()
            from csl.losses import ShardLoss
            local = ShardLoss(LossModel.linear(), shard).eval(theta, 1)[1]
            assert remote.tobytes() == local.tobytes()
            # the reply proves the load was handled; -0.0 keeps its sign bit
            assert server._loss.shard.x.tobytes() == shard.x.tobytes()
            assert server._loss.shard.y.tobytes() == shard.y.tobytes()
            client.shutdown()
        finally:
            server.stop()

    def test_wrong_address_count_rejected(self):
        pooled, _ = gen_logistic(2, 30, 3)
        from csl.errors import ConfigError
        with pytest.raises(ConfigError):
            Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, 3,
                                transport="tcp", addresses=[("127.0.0.1", 1)])


def test_socket_vector_bytes_match_the_ledger(monkeypatch):
    """Payload bytes of the vector frames read off the sockets in a round are
    8*d per ledger vector; headers and the settings request count apart."""
    frames, received = [], []
    recv_exact, read = transport._recv_exact, transport.read_frame

    def counted_recv(sock, nbytes):
        data = recv_exact(sock, nbytes)
        received.append(len(data))
        return data

    def counted_read(sock):
        opcode, payload = read(sock)
        frames.append((opcode, len(payload)))
        return opcode, payload

    monkeypatch.setattr(transport, "_recv_exact", counted_recv)
    monkeypatch.setattr(transport, "read_frame", counted_read)
    pooled, _ = gen_logistic(4, 50 * 3, 9)
    with Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, 3,
                             transport="tcp") as cluster:
        d = cluster.d
        # A worker reads its shard frame after load_shard returns; once a
        # round has been answered, every shard frame has been read.
        cluster.gradient_round(np.zeros(d))
        rounds = [(lambda: cluster.gradient_round(np.zeros(d)),
                   {OP_EVAL_GRAD: 2, OP_GRAD_REPLY: 2}),
                  (lambda: cluster.local_minimizer_round(),
                   {OP_LOCAL_MIN_REQ: 2, OP_LOCAL_MIN_REPLY: 2})]
        for run_round, opcodes in rounds:
            frames.clear()
            received.clear()
            vectors = cluster.ledger.vectors_sent
            run_round()
            vectors = cluster.ledger.vectors_sent - vectors
            assert sorted(op for op, _ in frames) == sorted(
                op for op, count in opcodes.items() for _ in range(count))
            vector_bytes = sum(size for op, size in frames if op != OP_LOCAL_MIN_REQ)
            assert vector_bytes == 8 * d * vectors
            settings_bytes = sum(size for op, size in frames if op == OP_LOCAL_MIN_REQ)
            assert settings_bytes == transport._SETTINGS.size * opcodes.get(OP_LOCAL_MIN_REQ, 0)
            assert sum(received) == (vector_bytes + settings_bytes
                                     + transport._HEADER.size * len(frames))


class TestFailedRoundsKeepTcpInStep:
    """A round that raises leaves no unread reply behind, so the next round
    over TCP matches the in-process one bit for bit."""

    @staticmethod
    def _next_rounds_agree(plain, over_tcp, theta):
        g_plain, locals_plain = plain.gradient_round(theta)
        g_tcp, locals_tcp = over_tcp.gradient_round(theta)
        assert g_tcp.tobytes() == g_plain.tobytes()
        for a, b in zip(locals_tcp, locals_plain):
            assert a.tobytes() == b.tobytes()
        assert over_tcp.ledger == plain.ledger

    def test_wrong_shape_theta_sends_no_request(self):
        pooled, _ = gen_logistic(3, 3 * 50, 8)
        model = LossModel.logistic()
        plain = Cluster.from_pooled(model, pooled.x, pooled.y, 3)
        with Cluster.from_pooled(model, pooled.x, pooled.y, 3, transport="tcp") as over_tcp:
            for cluster in (plain, over_tcp):
                with pytest.raises(DataError, match="shape"):
                    cluster.gradient_round(np.zeros(4))
            self._next_rounds_agree(plain, over_tcp, np.array([0.5, -0.25, 1.0]))

    def test_failed_coordinator_fit_still_reads_worker_replies(self):
        # Shard 1 is separable, so its fit cannot converge; shards 2 and 3
        # carry random labels and converge within three Newton steps.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((300, 2))
        y = np.concatenate([(x[:100, 0] > 0).astype(float),
                            rng.integers(0, 2, 200).astype(float)])
        model = LossModel.logistic()
        plain = Cluster.from_pooled(model, x, y, 3)
        with Cluster.from_pooled(model, x, y, 3, transport="tcp") as over_tcp:
            for cluster in (plain, over_tcp):
                with pytest.raises(NonConvergenceError):
                    cluster.local_minimizer_round(SolverSettings(max_iters=3))
            self._next_rounds_agree(plain, over_tcp, np.array([0.25, -0.5]))

    def test_failed_worker_leaves_later_replies_read(self):
        # Shard 2 is separable, so worker 2 fails; worker 3's reply must
        # still be read, leaving its connection ready for the next request.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((300, 2))
        y = np.concatenate([rng.integers(0, 2, 100).astype(float),
                            (x[100:200, 0] > 0).astype(float),
                            rng.integers(0, 2, 100).astype(float)])
        model = LossModel.logistic()
        with Cluster.from_pooled(model, x, y, 3, transport="tcp") as over_tcp:
            with pytest.raises(WorkerError, match="no convergence") as info:
                over_tcp.local_minimizer_round(SolverSettings(max_iters=3))
            assert info.value.worker == 2
            theta = np.array([0.25, -0.5])
            third = over_tcp._clients[1]
            third.send_gradient_request(theta)
            local = over_tcp.losses[2].gradient(theta)
            assert third.recv_gradient().tobytes() == local.tobytes()
            # worker 2 answered with an error frame and serves on
            plain = Cluster.from_pooled(model, x, y, 3)
            g_tcp, locals_tcp = over_tcp.gradient_round(theta)
            g_plain, locals_plain = plain.gradient_round(theta)
            assert g_tcp.tobytes() == g_plain.tobytes()
            assert locals_tcp[1].tobytes() == locals_plain[1].tobytes()


class FakeWorker:
    """A worker played by hand on a loopback listener: it accepts one
    connection, reads the shard frame and one request, hands the connection
    to ``misbehave(fake, conn)``, then closes the connection and listener."""

    def __init__(self, misbehave):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(10.0)
        self.address = self._listener.getsockname()[:2]
        self.release = threading.Event()
        self._thread = threading.Thread(target=self._serve, args=(misbehave,),
                                        daemon=True)
        self._thread.start()

    def _serve(self, misbehave):
        try:
            conn, _ = self._listener.accept()
            with conn:
                conn.settimeout(10.0)
                read_frame(conn)  # the shard
                read_frame(conn)  # one request
                misbehave(self, conn)
        except OSError:
            pass
        finally:
            self._listener.close()

    def join(self):
        """Release a stalled fake, join its thread and check its port is shut."""
        self.release.set()
        self._thread.join(timeout=10.0)
        assert not self._thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(self.address, timeout=2.0).close()


def _close_mid_frame(fake, conn):
    conn.sendall(pack_frame(OP_GRAD_REPLY, np.zeros(3).tobytes())[:9])


def _stall(fake, conn):
    fake.release.wait(timeout=10.0)


def _wrong_opcode(fake, conn):
    conn.sendall(pack_frame(OP_LOCAL_MIN_REPLY, np.zeros(3).tobytes()))


class TestFaultInjection:
    @pytest.mark.parametrize("misbehave, message", [
        (_close_mid_frame, "mid-frame"),
        (_stall, "timed out"),
        (_wrong_opcode, "expected opcode 0x03, got 0x05"),
    ], ids=["closes-mid-frame", "stalls", "wrong-opcode"])
    def test_fault_names_the_worker_in_bounded_time(self, misbehave, message):
        fake = FakeWorker(misbehave)
        client = WorkerClient(fake.address, worker_index=3, timeout=0.5)
        try:
            client.load_shard(make_shard())
            client.send_gradient_request(np.zeros(3))
            start = time.perf_counter()
            with pytest.raises(WorkerError, match=message) as info:
                client.recv_gradient()
            assert time.perf_counter() - start < 5.0
            assert info.value.worker == 3
        finally:
            client.close()
            fake.join()

    def test_fault_through_a_cluster(self):
        fake = FakeWorker(_wrong_opcode)
        shards = [make_shard(seed=j) for j in range(2)]
        cluster = Cluster(LossModel.logistic(), shards, transport="tcp",
                          addresses=[fake.address])
        start = time.perf_counter()
        with pytest.raises(WorkerError, match="expected opcode") as info:
            cluster.gradient_round(np.zeros(3))
        assert time.perf_counter() - start < 5.0
        assert info.value.worker == 2
        cluster.close()
        fake.join()

    @pytest.mark.parametrize("reply_floats", [1.5, 4], ids=["12-bytes", "d+1-floats"])
    @pytest.mark.parametrize("round_, opcode", [
        (lambda cluster: cluster.gradient_round(np.zeros(3)), OP_GRAD_REPLY),
        (lambda cluster: cluster.local_minimizer_round(), OP_LOCAL_MIN_REPLY),
    ], ids=["gradient", "local-min"])
    def test_malformed_reply_names_its_worker(self, round_, opcode, reply_floats):
        payload = np.zeros(4).tobytes()[:int(8 * reply_floats)]
        fake = FakeWorker(lambda fake, conn: conn.sendall(pack_frame(opcode, payload)))
        honest = WorkerServer(LossModel.logistic()).start()
        try:
            pooled, _ = gen_logistic(3, 3 * 40, 6)
            with Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, 3,
                                     transport="tcp",
                                     addresses=[honest.address, fake.address]) as cluster:
                with pytest.raises(WorkerError, match="not the d=3 floats") as info:
                    round_(cluster)
                assert info.value.worker == 3
        finally:
            honest.stop()
            fake.join()
