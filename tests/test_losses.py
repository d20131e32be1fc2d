import math
import warnings

import numpy as np
import pytest
from conftest import fd_gradient, fd_jacobian, pure_python_logistic_gradient

from csl.errors import DataError
from csl.losses import (DataShard, LossModel, ShardLoss, shard_from_csv,
                        shard_to_csv, sigmoid, softplus)


def random_shard(rng, n, d, binary=False, counts=False):
    x = rng.standard_normal((n, d))
    if binary:
        y = (rng.uniform(size=n) < 0.5).astype(float)
    elif counts:
        y = rng.poisson(2.0, size=n).astype(float)
    else:
        y = rng.standard_normal(n)
    return DataShard(x=x, y=y)


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

    def test_glm_logit_matches_logistic(self):
        rng = np.random.default_rng(1)
        shard = random_shard(rng, 30, 4, binary=True)
        theta = rng.standard_normal(4)
        a, grad_a = ShardLoss(LossModel.logistic(), shard).eval(theta, 1)
        b, grad_b = ShardLoss(LossModel.glm("logit"), shard).eval(theta, 1)
        assert a == b
        np.testing.assert_array_equal(grad_a, grad_b)


class TestDerivativeOracles:
    @pytest.mark.parametrize("family", ["logistic", "linear", "poisson"])
    def test_gradient_matches_finite_differences(self, family):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(5, 40))
            if family == "logistic":
                model, shard = LossModel.logistic(), random_shard(rng, n, d, binary=True)
            elif family == "linear":
                model, shard = LossModel.linear(), random_shard(rng, n, d)
            else:
                model, shard = LossModel.glm("log"), random_shard(rng, n, d, counts=True)
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

    @pytest.mark.parametrize("model", [LossModel.logistic(), LossModel.linear(),
                                       LossModel.glm("log")], ids=lambda m: m.family)
    def test_orders_share_one_pass(self, model):
        rng = np.random.default_rng(13)
        shard = random_shard(rng, 30, 3, binary=model.family == "logistic",
                             counts=model.family == "glm-log")
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


class TestValidation:
    def test_logistic_rejects_nonbinary_labels(self):
        shard = DataShard(x=np.ones((3, 1)), y=np.array([0.0, 0.5, 1.0]))
        with pytest.raises(DataError):
            ShardLoss(LossModel.logistic(), shard)

    def test_shard_rejects_nonfinite(self):
        with pytest.raises(DataError):
            DataShard(x=np.array([[np.inf]]), y=np.array([0.0]))

    def test_shape_mismatch(self):
        shard = DataShard(x=np.ones((4, 2)), y=np.zeros(4))
        with pytest.raises(DataError):
            ShardLoss(LossModel.linear(), shard).eval(np.zeros(3), 0)

    def test_shards_are_immutable(self):
        shard = DataShard(x=np.ones((2, 2)), y=np.zeros(2))
        with pytest.raises(ValueError):
            shard.x[0, 0] = 5.0


def test_csv_round_trip_is_exact():
    rng = np.random.default_rng(12)
    shard = DataShard(x=rng.standard_normal((20, 3)) * 1e3,
                      y=rng.standard_normal(20) / 7.0)
    again = shard_from_csv(shard_to_csv(shard))
    np.testing.assert_array_equal(again.x, shard.x)
    np.testing.assert_array_equal(again.y, shard.y)


def test_csv_header_shape():
    shard = DataShard(x=np.ones((1, 2)), y=np.zeros(1))
    text = shard_to_csv(shard)
    assert text.splitlines()[0] == "y,x_1,x_2"
    with pytest.raises(DataError):
        shard_from_csv("x_1,y\n1,2\n")
