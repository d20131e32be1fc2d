import socket
import struct

import numpy as np
import pytest

from csl.cluster import Cluster
from csl.datagen import gen_logistic
from csl.errors import NonConvergenceError, WorkerError
from csl.losses import DataShard, LossModel
from csl.solvers import SolverSettings, minimize_shard_loss
from csl.transport import (OP_ERROR, OP_EVAL_GRAD, OP_GRAD_REPLY, OP_LOAD_SHARD,
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

    def test_unknown_opcode_gets_error_frame_and_close(self, worker):
        sock = socket.create_connection(worker.address, timeout=10)
        try:
            sock.sendall(pack_frame(0x42, b""))
            opcode, payload = read_frame(sock)
            assert opcode == OP_ERROR
            assert b"unknown opcode" in payload
            # server should close its side afterwards
            sock.settimeout(5.0)
            assert sock.recv(1) == b""
        finally:
            sock.close()

    def test_malformed_shard_csv_reports_error(self, worker):
        sock = socket.create_connection(worker.address, timeout=10)
        try:
            sock.sendall(pack_frame(OP_LOAD_SHARD, b"not,a,header\n1,2,3\n"))
            sock.sendall(pack_frame(OP_EVAL_GRAD, np.zeros(2).tobytes()))
            opcode, _ = read_frame(sock)
            assert opcode == OP_ERROR
        finally:
            sock.close()


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
        tuned = SolverSettings(grad_tol=1e-12, max_iters=40, backtrack_shrink=0.3,
                               armijo_c=0.25)
        with Cluster.from_pooled(model, x, y, 3, transport="tcp") as over_tcp:
            fits_tcp = over_tcp.local_minimizer_round(tuned)
        fits_plain = Cluster.from_pooled(model, x, y, 3).local_minimizer_round(tuned)
        np.testing.assert_array_equal(fits_tcp[0], np.zeros(4))
        for a, b in zip(fits_tcp, fits_plain):
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
                      [-1.2345678901234567e-5, 3.0]])
        y = np.array([5.5, -2.25, 0.0])
        shard = DataShard(x=x, y=y)
        server = WorkerServer(LossModel.linear()).start()
        try:
            client = WorkerClient(server.address, worker_index=2)
            client.load_shard(shard)
            theta = np.array([0.0, 1.0])
            client.send_gradient_request(theta)
            remote = client.recv_gradient()
            from csl.losses import ShardLoss
            np.testing.assert_array_equal(
                remote, ShardLoss(LossModel.linear(), shard).eval(theta, 1)[1])
            client.shutdown()
        finally:
            server.stop()

    def test_wrong_address_count_rejected(self):
        pooled, _ = gen_logistic(2, 30, 3)
        from csl.errors import ConfigError
        with pytest.raises(ConfigError):
            Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, 3,
                                transport="tcp", addresses=[("127.0.0.1", 1)])
