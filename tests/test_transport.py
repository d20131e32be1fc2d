import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from csl import solvers, transport
from csl.cluster import Cluster
from csl.datagen import gen_logistic, gen_sparse_linear
from csl.errors import DataError, NonConvergenceError, WorkerError
from csl.estimators import averaging_estimator, ilea, subsample_estimator
from csl.inference import sigma_cross, sigma_local
from csl.losses import DataShard, LossModel, ShardLoss
from csl.solvers import L1Settings, LassoFit, SolverSettings, local_fit
from csl.sparse import averaging_lasso, local_lasso
from csl.surrogate import build_surrogate
from csl.transport import (OP_ERROR, OP_EVAL_GRAD, OP_GRAD_REPLY, OP_LASSO_REPLY,
                           OP_LASSO_REQ, OP_LOAD_SHARD, OP_LOCAL_MIN_REPLY,
                           OP_LOCAL_MIN_REQ, WorkerClient, WorkerServer, pack_frame,
                           read_frame)


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
        remote = client.recv_local_min(SolverSettings(grad_tol=1e-8))
        local = local_fit(ShardLoss(LossModel.logistic(), shard))
        np.testing.assert_array_equal(remote, local)
        client.shutdown()

    def test_short_local_min_request_gets_error_frame(self, worker):
        client = WorkerClient(worker.address, worker_index=2)
        client.load_shard(make_shard(seed=2))
        # a lone tolerance, as an older coordinator would send a Newton request;
        # an error frame leaves the connection open for the next request
        for opcode, request, kind in [(OP_LOCAL_MIN_REQ, SolverSettings(), "local-min"),
                                      (OP_LASSO_REQ, LassoFit(0.1), "lasso")]:
            client._send(opcode, struct.pack("<d", 1e-8))
            with pytest.raises(WorkerError, match=f"{kind} request payload"):
                client.recv_local_min(request)
        client.close()

    def test_nan_penalty_gets_error_frame_and_connection_serves_on(self, worker):
        shards, _ = gen_sparse_linear(d=20, n=40, k=1, s=3, sigma=0.5, seed_or_rng=5)
        linear = WorkerServer(LossModel.linear()).start()
        try:
            client = WorkerClient(linear.address, worker_index=2)
            client.load_shard(shards[0])
            settings = L1Settings()
            client._send(OP_LASSO_REQ, struct.pack("<ddI", float("nan"), settings.tol,
                                                   settings.max_iters))
            opcode, payload = read_frame(client._sock)
            assert opcode == OP_ERROR
            assert b"lam must be a finite value >= 0" in payload
            request = LassoFit(0.05, settings)
            client.send_local_min_request(request)
            remote = client.recv_local_min(request)
            local = local_lasso(LossModel.linear(), shards[0], 0.05, settings)
            assert remote.theta.tobytes() == local.theta.tobytes()
            assert struct.pack("<d", remote.objective_value) == struct.pack(
                "<d", local.objective_value)
            assert (remote.iterations, remote.converged) == (local.iterations, local.converged)
            client.shutdown()
        finally:
            linear.stop()

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
        # the error frame is the last the connection carries; the worker serves on
        for payload, message in cases:
            with socket.create_connection(worker.address, timeout=10) as sock:
                sock.sendall(pack_frame(OP_LOAD_SHARD, payload))
                opcode, reply = read_frame(sock)
                assert opcode == OP_ERROR
                assert message in reply.decode("utf-8")
                assert sock.recv(1) == b""
        _assert_serves(worker)

    def test_rejected_load_fails_the_next_call_and_no_later_one_reads_stale(self, worker):
        # A successful load gets no reply, so the error frame of a rejected
        # one must not be read as the reply to the request after it.
        client = WorkerClient(worker.address, worker_index=2, timeout=10)
        try:
            client.load_shard(DataShard(x=np.ones((4, 3)), y=np.array([0.5, 1.0, 0.0, 1.0])))
            client.send_gradient_request(np.zeros(3))
            with pytest.raises(WorkerError, match=r"^worker 2: remote error: "
                                                  r"binary-response loss requires labels") as err:
                client.recv_gradient()
            assert err.value.worker == 2
            # the worker ended the connection, so nothing later is a remote reply
            with pytest.raises(WorkerError, match="^worker 2: ") as err:
                client.load_shard(make_shard(seed=6))
                client.send_gradient_request(np.zeros(3))
                client.recv_gradient()
            assert "remote error" not in str(err.value)
        finally:
            client.close()
        _assert_serves(worker)

    def test_rejected_load_unloads_the_previous_shard(self, worker):
        with socket.create_connection(worker.address, timeout=10) as sock:
            sock.sendall(_old_shard_frame(make_shard(seed=7)))
            sock.sendall(pack_frame(OP_LOAD_SHARD, b"\x01\x00\x00"))
            assert read_frame(sock)[0] == OP_ERROR
        client = WorkerClient(worker.address, worker_index=2, timeout=10)
        try:
            client.send_gradient_request(np.zeros(3))
            with pytest.raises(WorkerError, match="no shard loaded"):
                client.recv_gradient()
        finally:
            client.close()

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
        _assert_serves(worker)


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


def _old_shard_frame(shard):
    """The shard frame as one packed buffer, from the vector encoder."""
    return pack_frame(OP_LOAD_SHARD, transport._SHAPE.pack(*shard.x.shape)
                      + transport._encode_vector(shard.y) + transport._encode_vector(shard.x))


def _assert_serves(worker):
    """A new client can place a shard on the worker and get its gradient."""
    client = WorkerClient(worker.address, worker_index=2, timeout=10)
    try:
        shard = make_shard(seed=5)
        client.load_shard(shard)
        theta = np.array([0.25, -0.5, 1.0])
        client.send_gradient_request(theta)
        local = ShardLoss(LossModel.logistic(), shard).gradient(theta)
        assert client.recv_gradient().tobytes() == local.tobytes()
    finally:
        client.close()
    assert worker._thread.is_alive()


class _Trickle:
    """A client socket whose sendmsg takes at most 4 KB per call and keeps
    the bytes it sent; everything else goes to the real socket."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = bytearray()

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def sendmsg(self, buffers):
        budget, head = 4096, []
        for buf in buffers:
            head.append(memoryview(buf).cast("B")[:budget])
            budget -= len(head[-1])
        sent = self._sock.sendmsg(head)
        self.sent += b"".join(head)[:sent]
        return sent


class TestShardPlacement:
    def test_placement_copies_no_shard(self):
        # Everything still held afterwards (the worker shards, which keep the
        # received buffers, and the evaluators' scratch) is not a copy. The
        # earlier encoder and chunked receive, which copied each shard on
        # both sides, read 0.78 to 1.18 here.
        n, d = 16_384, 10
        pooled, _ = gen_logistic(d, 3 * n, 11)
        tracemalloc.start()
        try:
            with Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, 3,
                                     transport="tcp") as cluster:
                cluster.gradient_round(np.zeros(d))  # every shard frame is read
                held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - held) / (2 * (8 + 8 * n * (d + 1))) < 0.5

    def test_partial_sends_keep_the_wire_and_the_shard(self, worker):
        shard = make_shard(seed=7, n=2_000)
        client = WorkerClient(worker.address, worker_index=2, timeout=10)
        client._sock = trickle = _Trickle(client._sock)
        try:
            client.load_shard(shard)
            theta = np.array([0.5, -0.25, 1.0])
            client.send_gradient_request(theta)
            local = ShardLoss(LossModel.logistic(), shard).gradient(theta)
            assert client.recv_gradient().tobytes() == local.tobytes()
        finally:
            client.close()
        assert bytes(trickle.sent) == _old_shard_frame(shard)
        assert worker._loss.shard.x.tobytes() == shard.x.tobytes()
        assert worker._loss.shard.y.tobytes() == shard.y.tobytes()

    def test_fragmented_receive_places_the_shard_bitwise(self, worker):
        shard = make_shard(seed=8, n=500)
        frame = _old_shard_frame(shard)
        # cuts inside the header, the shape and the floats
        cuts = [0, 3, 11, *range(997, len(frame), 997), len(frame)]
        theta = np.array([-0.5, 0.25, 1.0])
        with socket.create_connection(worker.address, timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for start, stop in zip(cuts, cuts[1:]):
                sock.sendall(frame[start:stop])
                time.sleep(0.001)
            sock.sendall(pack_frame(OP_EVAL_GRAD, theta.tobytes()))
            opcode, reply = read_frame(sock)
        local = ShardLoss(LossModel.logistic(), shard).gradient(theta)
        assert opcode == OP_GRAD_REPLY
        assert reply == local.tobytes()
        assert worker._loss.shard.x.tobytes() == shard.x.tobytes()
        assert worker._loss.shard.y.tobytes() == shard.y.tobytes()

    def test_oversized_shard_is_refused_before_any_byte_leaves(self, monkeypatch):
        monkeypatch.setattr(transport, "_MAX_PAYLOAD", 8 + 8 * 40 * 4)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = WorkerClient(listener.getsockname()[:2], worker_index=2, timeout=10)
            conn, _ = listener.accept()
            with conn:
                with pytest.raises(WorkerError, match="worker 2: payload too large"):
                    client.load_shard(make_shard())
                client.close()
                assert conn.recv(1) == b""  # the client closed without sending

    def test_bad_length_ends_only_its_connection(self, worker):
        with socket.create_connection(worker.address, timeout=10) as sock:
            sock.sendall(transport._HEADER.pack(OP_LOAD_SHARD, transport._MAX_PAYLOAD - 1))
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1) == b""  # the worker ended this connection
        _assert_serves(worker)

    def test_memory_error_while_receiving_leaves_the_worker_serving(self, worker,
                                                                    monkeypatch):
        empty = np.empty

        def refuse_large(shape, *args, **kwargs):
            if np.prod(shape) > 1 << 20:
                raise MemoryError("refused for the test")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse_large)
        with socket.create_connection(worker.address, timeout=10) as sock:
            sock.sendall(transport._HEADER.pack(OP_LOAD_SHARD, 1 << 21))
            assert sock.recv(1) == b""  # the worker ended this connection
        _assert_serves(worker)


class TestTcpCluster:
    def test_tcp_matches_in_process_bitwise(self, monkeypatch):
        pooled, _ = gen_logistic(4, 60 * 3, 5)
        model = LossModel.logistic()
        with Cluster.from_pooled(model, pooled.x, pooled.y, 3, transport="tcp") as over_tcp:
            plain = Cluster.from_pooled(model, pooled.x, pooled.y, 3)
            # a zero start takes no product; a -0.0 start takes one
            for theta in (np.array([0.5, -0.5, 0.25, 0.0]), np.zeros(4), -np.zeros(4)):
                g_tcp, locals_tcp = over_tcp.gradient_round(theta)
                g_plain, locals_plain = plain.gradient_round(theta)
                for a, b in zip([g_tcp, *locals_tcp], [g_plain, *locals_plain], strict=True):
                    assert a.tobytes() == b.tobytes()
            fits_tcp = over_tcp.local_minimizer_round(SolverSettings())
            fits_plain = plain.local_minimizer_round(SolverSettings())
            for a, b in zip(fits_tcp, fits_plain, strict=True):
                assert a.tobytes() == b.tobytes()
            assert over_tcp.ledger == plain.ledger
            # the second identical round reads every shard's remembered fit,
            # and still sends every request and counts every reply
            fistas = []
            real_fista = solvers.fista_l1
            monkeypatch.setattr(solvers, "fista_l1",
                                lambda *args: (fistas.append(args), real_fista(*args))[1])
            for runs in range(2):
                fistas.clear()
                before = over_tcp.ledger.vectors_sent
                lasso_tcp = averaging_lasso(over_tcp, lam=0.02)
                lasso_plain = averaging_lasso(plain, lam=0.02)
                assert over_tcp.ledger.vectors_sent - before == 2
                assert lasso_tcp.theta.tobytes() == lasso_plain.theta.tobytes()
                assert (lasso_tcp.objective_value, lasso_tcp.iterations, lasso_tcp.converged) \
                    == (lasso_plain.objective_value, lasso_plain.iterations,
                        lasso_plain.converged)
                assert over_tcp.ledger == plain.ledger
                assert (fistas == []) == (runs == 1)

    def test_tcp_matches_in_process_bitwise_at_the_benchmark_shape(self):
        # k=3 shards of 16 384 rows at d=10: the workers' fits run at once
        pooled, _ = gen_logistic(10, 16_384 * 3, 11)
        model = LossModel.logistic()

        def outputs(cluster):
            theta_avg = averaging_estimator(cluster)
            theta = ilea(cluster, theta_avg, rounds=1).final
            s_local = sigma_local(build_surrogate(cluster, theta), theta)
            with pytest.warns(UserWarning, match="sigma_cross with k=3"):
                s_cross = sigma_cross(cluster, theta)
            return theta_avg, theta, s_local, s_cross

        plain = Cluster.from_pooled(model, pooled.x, pooled.y, 3)
        with Cluster.from_pooled(model, pooled.x, pooled.y, 3, transport="tcp") as over_tcp:
            for a, b in zip(outputs(over_tcp), outputs(plain), strict=True):
                np.testing.assert_array_equal(a, b)
            assert over_tcp.ledger == plain.ledger

    @pytest.mark.parametrize("transport", ["in_process", "tcp"])
    def test_subsample_is_the_coordinator_fit_of_a_local_min_round(self, transport):
        pooled, _ = gen_logistic(3, 40 * 3, 6)
        with Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, 3,
                                 transport=transport) as cluster:
            fits = cluster.local_minimizer_round(SolverSettings())
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
        for settings in (SolverSettings, L1Settings):
            with pytest.raises(DataError, match="max_iters"):
                settings(max_iters=2 ** 32)  # one past the wire's u32 field
        for widest in (SolverSettings(max_iters=2 ** 32 - 1),
                       LassoFit(0.01, L1Settings(max_iters=2 ** 32 - 1))):
            with Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, 3,
                                     transport="tcp") as over_tcp:
                fits_tcp = over_tcp.local_minimizer_round(widest)
            plain = Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, 3)
            for a, b in zip(fits_tcp, plain.local_minimizer_round(widest)):
                assert getattr(a, "theta", a).tobytes() == getattr(b, "theta", b).tobytes()

    @pytest.mark.parametrize("lam, settings", [(0.05, L1Settings()),
                                               (0.05, L1Settings(max_iters=3))],
                             ids=["fixed", "unconverged"])
    def test_averaging_lasso_over_tcp_is_bitwise_in_process(self, lam, settings):
        shards, _ = gen_sparse_linear(d=50, n=40, k=3, s=4, sigma=0.5, seed_or_rng=12)
        plain = Cluster(LossModel.linear(), shards)
        with Cluster(LossModel.linear(), shards, transport="tcp") as over_tcp:
            fits_tcp = over_tcp.local_minimizer_round(LassoFit(lam, settings))
            fit_tcp = averaging_lasso(over_tcp, lam, settings)
        fits = (plain.local_minimizer_round(LassoFit(lam, settings))
                + [averaging_lasso(plain, lam, settings)])
        for got, want in zip(fits_tcp + [fit_tcp], fits):
            assert got.theta.tobytes() == want.theta.tobytes()
            assert struct.pack("<d", got.objective_value) == struct.pack(
                "<d", want.objective_value)
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert np.count_nonzero(fit_tcp.theta) > 0
        assert fit_tcp.converged == (settings.max_iters > 3)
        assert over_tcp.ledger == plain.ledger

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
    """Payload bytes of the vectors read off the sockets in a round are 8*d
    per ledger vector; headers, settings requests and the lasso status count
    apart."""
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
        # (round, request opcode, reply opcode, settings bytes per request or
        # None for a vector request, status bytes per reply)
        rounds = [(lambda: cluster.gradient_round(np.zeros(d)),
                   OP_EVAL_GRAD, OP_GRAD_REPLY, None, 0),
                  (lambda: cluster.local_minimizer_round(SolverSettings()),
                   OP_LOCAL_MIN_REQ, OP_LOCAL_MIN_REPLY, transport._SETTINGS.size, 0),
                  (lambda: cluster.local_minimizer_round(LassoFit(0.01)),
                   OP_LASSO_REQ, OP_LASSO_REPLY, transport._LASSO.size,
                   transport._STATUS.size)]
        for run_round, request_op, reply_op, settings_size, status_size in rounds:
            frames.clear()
            received.clear()
            vectors = cluster.ledger.vectors_sent
            run_round()
            vectors = cluster.ledger.vectors_sent - vectors
            assert sorted(op for op, _ in frames) == sorted([request_op, reply_op] * 2)
            request_bytes = sum(size for op, size in frames if op == request_op)
            reply_bytes = sum(size for op, size in frames if op == reply_op)
            vector_bytes = reply_bytes - 2 * status_size
            if settings_size is None:
                vector_bytes += request_bytes
            else:
                assert request_bytes == 2 * settings_size
            assert vector_bytes == 8 * d * vectors
            assert sum(received) == (request_bytes + reply_bytes
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
        (lambda cluster: cluster.local_minimizer_round(SolverSettings()), OP_LOCAL_MIN_REPLY),
        (lambda cluster: cluster.local_minimizer_round(LassoFit(0.1)), OP_LASSO_REPLY),
    ], ids=["gradient", "local-min", "lasso"])
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
