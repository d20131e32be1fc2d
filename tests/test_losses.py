import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import fd_gradient, fd_jacobian, pure_python_logistic_gradient

import csl.losses
from csl import transport
from csl.cluster import Cluster, split_rows
from csl.errors import DataError
from csl.losses import DataShard, LossModel, ShardLoss, shard_to_csv, sigmoid
from csl.solvers import local_fit, newton_minimize


def random_shard(rng, n, d, binary=False):
    x = rng.standard_normal((n, d))
    if binary:
        y = (rng.uniform(size=n) < 0.5).astype(float)
    else:
        y = rng.standard_normal(n)
    return DataShard(x=x, y=y)


def softplus(u):
    """The logistic value's kernel, from e = exp(-|u|) as the evaluator has it."""
    return csl.losses._softplus(u, np.exp(-np.abs(u)), None, None)


class TestValues:
    def test_logistic_at_zero_is_log_two(self):
        rng = np.random.default_rng(0)
        shard = random_shard(rng, 40, 3, binary=True)
        (value,) = ShardLoss(LossModel.logistic(), shard).eval(np.zeros(3), 0)
        assert value == pytest.approx(math.log(2.0), abs=1e-15)

    def test_linear_is_unhalved(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([2.0, -1.0])
        shard = DataShard(x=x, y=y)
        # residuals are exactly y at theta=0, so the mean square is (4+1)/2
        value, grad = ShardLoss(LossModel.linear(), shard).eval(np.zeros(2), 1)
        assert value == pytest.approx(2.5)
        np.testing.assert_allclose(grad, [-2.0, 1.0], rtol=0, atol=1e-15)

    def test_logistic_hessian_hand_value(self):
        shard = DataShard(x=np.array([[1.0, 0.0]]), y=np.array([1.0]))
        _, _, hess = ShardLoss(LossModel.logistic(), shard).eval(np.zeros(2), 2)
        np.testing.assert_allclose(hess, [[0.25, 0.0], [0.0, 0.0]], atol=1e-16)

    def test_only_the_two_families_are_models(self):
        # any other name would evaluate squared error, 0.125 on this shard
        shard = DataShard(x=np.array([[1.0], [2.0]]), y=np.array([0.0, 1.0]))
        theta = np.array([0.5])
        value = (math.log1p(math.exp(0.5)) + math.log1p(math.exp(1.0)) - 1.0) / 2
        assert ShardLoss(LossModel("logistic"), shard).eval(theta, 0)[0] == pytest.approx(
            value, rel=1e-15)
        assert ShardLoss(LossModel("linear"), shard).eval(theta, 0)[0] == 0.125
        for family in ("poisson", "Logistic", "squared", ""):
            with pytest.raises(DataError, match=f"unknown loss family {family!r}"):
                LossModel(family)


class TestDerivativeOracles:
    @pytest.mark.parametrize("family", ["logistic", "linear"])
    def test_gradient_matches_finite_differences(self, family):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(5, 40))
            if family == "logistic":
                model, shard = LossModel.logistic(), random_shard(rng, n, d, binary=True)
            else:
                model, shard = LossModel.linear(), random_shard(rng, n, d)
            theta = 0.5 * rng.standard_normal(d)
            loss = ShardLoss(model, shard)
            grad = loss.eval(theta, 1)[1]
            approx = fd_gradient(lambda t: loss.eval(t, 0)[0], theta)
            np.testing.assert_allclose(grad, approx, rtol=1e-6, atol=1e-8)

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(8)
        for family in ("logistic", "linear"):
            if family == "logistic":
                model, shard = LossModel.logistic(), random_shard(rng, 25, 3, binary=True)
            else:
                model, shard = LossModel.linear(), random_shard(rng, 25, 3)
            theta = 0.3 * rng.standard_normal(3)
            loss = ShardLoss(model, shard)
            hess = loss.eval(theta, 2)[2]
            approx = fd_jacobian(lambda t: loss.eval(t, 1)[1], theta)
            np.testing.assert_allclose(hess, approx, rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(hess, hess.T, atol=0)

    def test_gradient_matches_pure_python_sum(self):
        rng = np.random.default_rng(9)
        shard = random_shard(rng, 60, 4, binary=True)
        theta = rng.standard_normal(4)
        grad = ShardLoss(LossModel.logistic(), shard).eval(theta, 1)[1]
        oracle = pure_python_logistic_gradient(shard.x, shard.y, theta)
        np.testing.assert_allclose(grad, oracle, rtol=0, atol=1e-12)


class TestPerSampleAndAdditivity:
    def test_per_sample_rows_average_to_gradient(self):
        rng = np.random.default_rng(10)
        for model, binary in ((LossModel.logistic(), True), (LossModel.linear(), False)):
            shard = random_shard(rng, 50, 5, binary=binary)
            theta = rng.standard_normal(5)
            loss = ShardLoss(model, shard)
            rows = loss.per_sample(theta)
            assert rows.shape == (50, 5)
            np.testing.assert_allclose(rows.mean(axis=0),
                                       loss.eval(theta, 1)[1],
                                       rtol=0, atol=1e-12)

    def test_gradient_additivity_across_blocks(self):
        rng = np.random.default_rng(11)
        model = LossModel.logistic()
        shard = random_shard(rng, 64, 4, binary=True)
        theta = rng.standard_normal(4)
        n1 = 24
        top = DataShard(x=shard.x[:n1], y=shard.y[:n1])
        bottom = DataShard(x=shard.x[n1:], y=shard.y[n1:])
        combined = (n1 * ShardLoss(model, top).eval(theta, 1)[1]
                    + (64 - n1) * ShardLoss(model, bottom).eval(theta, 1)[1]) / 64
        np.testing.assert_allclose(combined, ShardLoss(model, shard).eval(theta, 1)[1],
                                   rtol=0, atol=1e-12)


class TestStability:
    def test_logistic_finite_at_extreme_margins(self):
        # one sample pushed to u = +-700; the loss and gradient must stay finite
        for sign in (1.0, -1.0):
            shard = DataShard(x=np.array([[sign * 700.0]]), y=np.array([1.0]))
            theta = np.ones(1)
            value, grad = ShardLoss(LossModel.logistic(), shard).eval(theta, 1)
            assert math.isfinite(value)
            assert np.all(np.isfinite(grad))

    def test_softplus_and_sigmoid_extremes(self):
        u = np.array([-745.0, -30.0, 0.0, 30.0, 745.0])
        sp = softplus(u)
        assert np.all(np.isfinite(sp))
        assert sp[2] == pytest.approx(math.log(2.0))
        assert sp[4] == pytest.approx(745.0)
        sg = sigmoid(u)
        assert np.all((sg >= 0.0) & (sg <= 1.0))
        assert sg[0] < 1e-300 and sg[4] == 1.0


class TestKernels:
    def test_logistic_extreme_margins_are_finite_and_silent(self):
        # rows with |u| up to 800, past where exp(|u|) overflows
        x = np.linspace(-800.0, 800.0, 17)[:, None]
        shard = DataShard(x=x, y=(x[:, 0] > 0.0).astype(float))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad, hess = ShardLoss(LossModel.logistic(), shard).eval(np.ones(1), 2)
            value_flip, grad_flip, hess_flip = ShardLoss(
                LossModel.logistic(), DataShard(x=x, y=1.0 - shard.y)).eval(np.ones(1), 2)
        for out in (value, grad, hess, value_flip, grad_flip, hess_flip):
            assert np.all(np.isfinite(out))

    def test_softplus_matches_logaddexp(self):
        u = np.linspace(-50.0, 50.0, 1_000_001)
        want = np.logaddexp(0.0, u)
        assert np.max(np.abs(softplus(u) - want) / want) <= 1e-15

    def test_sigmoid_matches_two_branch_form(self):
        u = np.linspace(-50.0, 50.0, 1_000_001)
        pos = u >= 0.0
        want = np.empty_like(u)
        want[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
        want[~pos] = np.exp(u[~pos]) / (1.0 + np.exp(u[~pos]))
        assert np.max(np.abs(sigmoid(u) - want) / want) <= 1e-15

    @pytest.mark.parametrize("model", [LossModel.logistic(), LossModel.linear()],
                             ids=lambda m: m.family)
    def test_orders_share_one_pass(self, model):
        rng = np.random.default_rng(13)
        shard = random_shard(rng, 30, 3, binary=model.family == "logistic")
        loss = ShardLoss(model, shard)
        theta = 0.3 * rng.standard_normal(3)
        (v0,) = loss.eval(theta, 0)
        v1, g1 = loss.eval(theta, 1)
        v2, g2, _ = loss.eval(theta, 2)
        assert v0 == v1 == v2
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(loss.gradient(theta), g1)
        with pytest.raises(DataError):
            loss.eval(theta, 3)


def plain_expressions(family, shard, theta):
    """The evaluator's arithmetic written as whole-array expressions, each of
    which allocates its result: value, gradient, Hessian and per-sample rows.
    The buffered evaluator must equal these bit for bit."""
    x, y, n = shard.x, shard.y, shard.n_samples
    u = x @ theta
    if family == "linear":
        r = y - u
        mean = u
        return (float(np.mean(r * r)), (2.0 / n) * (x.T @ (mean - y)),
                (2.0 / n) * (x.T @ x), x * (2.0 * (mean - y))[:, None])
    e = np.exp(-np.abs(u))
    phi = np.maximum(u, 0.0) + np.log1p(e)
    mean = np.where(u >= 0.0, 1.0, e) / (1.0 + e)
    weight = e / np.square(1.0 + e)
    return (float(np.mean(phi - y * u)), (x.T @ (mean - y)) / n,
            (x * weight[:, None]).T @ x / n, x * (mean - y)[:, None])


FAMILIES = {"logistic": LossModel.logistic(), "linear": LossModel.linear()}


def family_loss(family, n, d, seed):
    rng = np.random.default_rng(seed)
    shard = random_shard(rng, n, d, binary=family == "logistic")
    return ShardLoss(FAMILIES[family], shard), rng


class TestBuffers:
    # Beyond (257, 3), the shapes the workloads run, where OpenBLAS takes its
    # blocked kernels: the evaluator's np.dot products must equal @ there too.
    @pytest.mark.parametrize("n, d", [(257, 3), (16_384, 10), (16_384, 2), (2048, 5),
                                      (400, 37)])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_every_output_equals_the_plain_expressions(self, family, n, d):
        loss, rng = family_loss(family, n, d, 21)
        points = [np.zeros(d), -np.zeros(d)] + [0.5 * rng.standard_normal(d) for _ in range(5)]
        for theta in points:
            value, grad, hess, rows = (np.asarray(a).tobytes() for a in
                                       plain_expressions(family, loss.shard, theta))
            (v0,), (v1, g1), (v2, g2, h2) = (loss.eval(theta, order) for order in (0, 1, 2))
            for got, want in [(v0, value), (v1, value), (v2, value), (g1, grad), (g2, grad),
                              (loss.gradient(theta), grad), (h2, hess),
                              (loss.per_sample(theta), rows)]:
                assert np.asarray(got).tobytes() == want

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_results_never_alias_the_buffers(self, family):
        loss, rng = family_loss(family, 64, 2, 22)
        theta, other = 0.3 * rng.standard_normal(2), 0.3 * rng.standard_normal(2)
        first = loss.eval(theta, 2) + (loss.gradient(theta), loss.per_sample(theta))
        kept = [np.array(item, copy=True) for item in first]
        loss.eval(other, 2)
        loss.gradient(other)
        loss.per_sample(other)
        for item, copy in zip(first, kept):
            np.testing.assert_array_equal(item, copy)
        (value,) = loss.eval(theta, 0)
        for item in first[1:]:
            item[...] = np.nan
        assert loss.eval(theta, 0) == (value,)
        np.testing.assert_array_equal(loss.per_sample(theta), kept[4])

    @pytest.mark.parametrize("scale", [10.0, 40.0, 800.0])
    def test_logistic_outputs_equal_the_plain_expressions_at_large_margins(self, scale):
        # |u| from tens to thousands: exp(-|u|) runs through the subnormals to
        # zero, where the value is max(u, 0) and the Hessian weight vanishes.
        loss, rng = family_loss("logistic", 257, 3, 24)
        for theta in [scale * rng.standard_normal(3) for _ in range(3)]:
            value, grad, hess, rows = (np.asarray(a).tobytes() for a in
                                       plain_expressions("logistic", loss.shard, theta))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = loss.eval(theta, 2) + (loss.per_sample(theta),)
            assert [np.asarray(a).tobytes() for a in got] == [value, grad, hess, rows]

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_value_allocates_no_n_vector(self, family):
        n = 16_384
        loss, rng = family_loss(family, n, 2, 23)
        theta, other = 0.3 * rng.standard_normal(2), 0.3 * rng.standard_normal(2)
        tracemalloc.start()
        try:
            loss.eval(theta, 0)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.eval(other, 0)  # a new point: the value is computed again
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 8 * n


def _results(loss, call, theta):
    """One call on an evaluator, as a tuple of its returned arrays and floats."""
    if call == "gradient":
        return (loss.gradient(theta),)
    if call == "per_sample":
        return (loss.per_sample(theta),)
    return loss.eval(theta, call)


def _counting_design(x):
    """A view of x that counts the products ``x @ theta`` taken with it, in
    ``type(view).products``."""

    class Counted(np.ndarray):
        products = 0

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and inputs[0] is design and np.ndim(inputs[1]) == 1:
                Counted.products += 1
            inputs = [a.view(np.ndarray) if isinstance(a, Counted) else a for a in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    design = x.view(Counted)
    return design


class TestPointMemory:
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_any_call_sequence_matches_a_fresh_evaluator(self, family):
        loss, rng = family_loss(family, 129, 3, 31)
        a, b = 0.4 * rng.standard_normal(3), 0.4 * rng.standard_normal(3)
        calls = [(0, a), (2, a), (1, a), ("gradient", b), (2, b), ("per_sample", b),
                 (0, a), ("gradient", a), (2, a), ("per_sample", a), (1, b), (0, b),
                 (2, np.zeros(3)), (2, -np.zeros(3)), (0, a.copy())]
        for call, theta in calls:
            got = _results(loss, call, theta)
            want = _results(ShardLoss(loss.model, loss.shard), call, theta)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_changing_a_returned_array_changes_no_later_result(self, family):
        loss, rng = family_loss(family, 64, 3, 32)
        theta = 0.3 * rng.standard_normal(3)
        value, grad, hess = (np.array(r, copy=True) for r in loss.eval(theta, 2))
        for spoil in (loss.eval(theta, 2)[1:] + (loss.gradient(theta), loss.per_sample(theta))):
            spoil[...] = np.nan
        assert loss.eval(theta, 2)[0] == value
        np.testing.assert_array_equal(loss.eval(theta, 1)[1], grad)
        np.testing.assert_array_equal(loss.gradient(theta), grad)
        np.testing.assert_array_equal(loss.eval(theta, 2)[2], hess)
        assert np.isfinite(loss.per_sample(theta)).all()

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_theta_changed_in_place_is_a_new_point(self, family):
        loss, rng = family_loss(family, 64, 3, 33)
        theta = 0.3 * rng.standard_normal(3)
        loss.eval(theta, 2)
        theta[1] += 0.25
        fresh = ShardLoss(loss.model, loss.shard)
        for order in (0, 1, 2):
            for got, want in zip(loss.eval(theta, order), fresh.eval(theta, order)):
                np.testing.assert_array_equal(got, want)
        theta[0] = 0.0
        np.testing.assert_array_equal(loss.gradient(theta), fresh.gradient(theta))

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_newton_fit_takes_one_product_per_point(self, family):
        loss, _ = family_loss(family, 200, 3, 34)
        design = _counting_design(loss.shard.x)
        object.__setattr__(loss.shard, "x", design)
        points, calls = set(), []

        def objective(theta, order):
            points.add(theta.tobytes())
            calls.append(order)
            return loss.eval(theta, order)

        fit = newton_minimize(objective, np.zeros(3))
        # the zero start is the one point that takes no product
        assert type(design).products == len(points) - 1 < len(calls)
        np.testing.assert_array_equal(fit, local_fit(ShardLoss(loss.model, loss.shard)))

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_a_nonfinite_theta_at_a_new_point_raises(self, family):
        loss, rng = family_loss(family, 64, 3, 35)
        theta = 0.3 * rng.standard_normal(3)
        want = loss.eval(theta, 2)
        for bad in (np.nan, np.inf, -np.inf):
            spoiled = theta.copy()
            spoiled[1] = bad
            for call in (lambda t: loss.eval(t, 0), loss.gradient, loss.per_sample):
                with pytest.raises(DataError, match="non-finite"):
                    call(spoiled)
        for got, w in zip(loss.eval(theta, 2), want):  # the remembered point holds
            assert np.asarray(got).tobytes() == np.asarray(w).tobytes()

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_a_wrong_shape_with_the_remembered_bytes_raises(self, family):
        loss, rng = family_loss(family, 64, 4, 36)
        theta = 0.3 * rng.standard_normal(4)
        loss.eval(theta, 1)
        for shaped in (theta.reshape(1, 4), theta.reshape(2, 2), theta.reshape(4, 1)):
            assert shaped.tobytes() == theta.tobytes()
            for call in (lambda t: loss.eval(t, 1), loss.gradient, loss.per_sample):
                with pytest.raises(DataError, match=r"theta has shape"):
                    call(shaped)

    @pytest.mark.parametrize("transport_", ["in_process", "tcp"])
    def test_a_gradient_round_checks_theta_before_any_request(self, transport_,
                                                              monkeypatch):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((3 * 40, 3))
        y = (rng.uniform(size=120) < 0.5).astype(float)
        sent = []
        real = transport.WorkerClient.send_gradient_request
        monkeypatch.setattr(transport.WorkerClient, "send_gradient_request",
                            lambda client, theta: (sent.append(theta), real(client, theta)))
        with Cluster.from_pooled(LossModel.logistic(), x, y, 3,
                                 transport=transport_) as cluster:
            theta = np.array([0.1, -0.2, 0.3])
            cluster.gradient_round(theta)
            ledger, requests = cluster.ledger.copy(), len(sent)
            for bad in (np.array([0.1, np.nan, 0.3]), np.array([np.inf, 0.0, 0.0]),
                        theta.reshape(1, 3)):
                with pytest.raises(DataError):
                    cluster.gradient_round(bad)
            assert cluster.ledger == ledger and len(sent) == requests
            cluster.gradient_round(theta)  # the workers are still in step


def counting_scans(monkeypatch):
    """Count the finiteness scans of shard arrays from here on."""
    real, scans = csl.losses._check_finite, []

    def counted(*arrays):
        scans.append(arrays)
        return real(*arrays)

    monkeypatch.setattr(csl.losses, "_check_finite", counted)
    return scans


def assert_frozen_block(shard):
    for a in (shard.x, shard.y):
        assert a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable


class TestCheckedOnce:
    def test_caller_arrays_split_rows_and_the_wire_are_scanned(self, monkeypatch):
        rng = np.random.default_rng(38)
        x, y = rng.standard_normal((12, 3)), rng.standard_normal(12)
        scans = counting_scans(monkeypatch)
        DataShard(x=x, y=y)
        assert len(scans) == 1
        split_rows(x, y, 4)
        assert len(scans) == 2
        shard = DataShard(x=x[:4], y=y[:4])
        payload = b"".join([transport._SHAPE.pack(4, 3), shard.y.tobytes(), shard.x.tobytes()])
        decoded = transport._decode_shard(np.frombuffer(payload, np.uint8).copy())
        assert len(scans) == 4
        assert decoded.x.tobytes() == shard.x.tobytes()

    @pytest.mark.parametrize("tiled", [True, False])
    def test_pooled_shards_are_not_rescanned(self, monkeypatch, tiled):
        rng = np.random.default_rng(39)
        x, y = rng.standard_normal((12, 3)), rng.standard_normal(12)
        shards = (split_rows(x, y, 3) if tiled else
                  [DataShard(x=x[j::3], y=y[j::3]) for j in range(3)])
        cluster = Cluster(LossModel.linear(), shards)
        scans = counting_scans(monkeypatch)
        for meter in (True, False):
            pooled = cluster.pooled_shard(meter=meter)
            assert_frozen_block(pooled)
            assert pooled.x.tobytes() == np.concatenate([s.x for s in shards]).tobytes()
            assert pooled.y.tobytes() == np.concatenate([s.y for s in shards]).tobytes()
        assert scans == []

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_a_column_slice_is_not_rescanned_or_revalidated(self, monkeypatch, family):
        loss, _ = family_loss(family, 30, 6, 40)
        scans = counting_scans(monkeypatch)
        validated = []
        monkeypatch.setattr(LossModel, "validate_response",
                            lambda model, y: validated.append(y))
        part = loss.restrict(np.array([0, 2, 5]))
        assert scans == [] and validated == []
        assert part.model is loss.model and part.shard.y is loss.shard.y
        assert_frozen_block(part.shard)
        np.testing.assert_array_equal(part.shard.x, loss.shard.x[:, [0, 2, 5]])


class TestValidation:
    def test_logistic_rejects_nonbinary_labels(self):
        shard = DataShard(x=np.ones((3, 1)), y=np.array([0.0, 0.5, 1.0]))
        with pytest.raises(DataError):
            ShardLoss(LossModel.logistic(), shard)

    @pytest.mark.parametrize("label", [-1.0, 2.0, np.nextafter(1.0, 0.0),
                                       np.nextafter(1.0, 2.0), 5e-324],
                             ids=["minus_one", "two", "below_one", "above_one", "subnormal"])
    def test_logistic_rejects_any_label_but_zero_and_one(self, label):
        shard = DataShard(x=np.ones((3, 1)), y=np.array([0.0, 1.0, label]))
        with pytest.raises(DataError, match=r"labels in \{0, 1\}"):
            ShardLoss(LossModel.logistic(), shard)

    def test_logistic_takes_a_negative_zero_label_as_zero(self):
        x = np.array([[0.5], [-1.0], [2.0]])
        signed = ShardLoss(LossModel.logistic(), DataShard(x=x, y=np.array([-0.0, 1.0, 0.0])))
        plain = ShardLoss(LossModel.logistic(), DataShard(x=x, y=np.array([0.0, 1.0, 0.0])))
        theta = np.array([0.7])
        for got, want in zip(signed.eval(theta, 2), plain.eval(theta, 2)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("y", [[-3.5, 0.25, -7.0], [2.0, 2.0, 2.0]],
                             ids=["negative", "constant"])
    def test_linear_takes_any_finite_response(self, y):
        # the binary check is the logistic family's only
        shard = DataShard(x=np.array([[1.0], [2.0], [-1.0]]), y=np.array(y))
        value, grad = ShardLoss(LossModel.linear(), shard).eval(np.array([0.5]), 1)
        r = shard.y - 0.5 * shard.x[:, 0]
        assert value == pytest.approx(np.mean(r * r))
        assert np.isfinite(grad).all()

    def test_shard_rejects_nonfinite(self):
        # float64's extremes pass; one NaN or infinity among them is caught
        # in either array
        big = np.finfo(float).max
        arrays = {"x": np.array([[big, -big], [5e-324, -0.0], [1.0, 2.0]]),
                  "y": np.array([-big, big, 0.0])}
        DataShard(**arrays)
        for where in arrays:
            for bad in (np.nan, np.inf, -np.inf):
                spoiled = dict(arrays, **{where: arrays[where].copy()})
                spoiled[where][(1,) * spoiled[where].ndim] = bad
                with pytest.raises(DataError, match="non-finite"):
                    DataShard(**spoiled)

    def test_shape_mismatch(self):
        shard = DataShard(x=np.ones((4, 2)), y=np.zeros(4))
        with pytest.raises(DataError):
            ShardLoss(LossModel.linear(), shard).eval(np.zeros(3), 0)

    def test_shards_are_immutable(self):
        shard = DataShard(x=np.ones((2, 2)), y=np.zeros(2))
        with pytest.raises(ValueError):
            shard.x[0, 0] = 5.0


def test_public_names_resolve():
    assert "softplus" not in csl.losses.__all__
    for name in csl.losses.__all__:
        assert getattr(csl.losses, name) is not None


def test_csv_round_trip_is_exact():
    rng = np.random.default_rng(12)
    shard = DataShard(x=rng.standard_normal((20, 3)) * 1e3,
                      y=rng.standard_normal(20) / 7.0)
    header, *rows = csv.reader(io.StringIO(shard_to_csv(shard)))
    assert header == ["y", "x_1", "x_2", "x_3"]
    values = np.array([[float(v) for v in row] for row in rows])
    np.testing.assert_array_equal(values[:, 0], shard.y)
    np.testing.assert_array_equal(values[:, 1:], shard.x)


def test_csv_header_shape():
    shard = DataShard(x=np.ones((1, 2)), y=np.zeros(1))
    text = shard_to_csv(shard)
    assert text.splitlines()[0] == "y,x_1,x_2"
