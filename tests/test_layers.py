"""Layer tests: forward oracles, running-stat bookkeeping, gradient checks."""

import numpy as np
import pytest

from dtcf.errors import ConfigError, ShapeError
from dtcf.layers import (BatchNorm2d, BatchNormReLU2d, Conv2dLayer, LinearLayer, cast, draw,
                         parameter)
from dtcf.tensor import Tensor, grad_check

from test_tensor import conv2d_oracle, one


def rng(seed=0):
    return np.random.default_rng(seed)


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


class TestConvLayer:
    def test_identity_one_by_one(self):
        layer = draw(cast(Conv2dLayer(1, 1, kernel=(1, 1)), np.float64), rng(1))
        layer.kernels.data[:] = 1.0
        x = one(rng(2).normal(size=(1, 4, 5)))
        np.testing.assert_allclose(layer.forward(x).data[0], x.data[0], atol=1e-12)

    def test_matches_oracle(self):
        layer = draw(cast(Conv2dLayer(2, 3, stride=(2, 1)), np.float64), rng(5))
        x = rng(7).normal(size=(2, 6, 5))
        expect = conv2d_oracle(x, layer.kernels.data, (2, 1), (1, 1))
        np.testing.assert_allclose(layer.forward(one(x)).data[0], expect, atol=1e-6)

    def test_channel_mismatch(self):
        layer = draw(Conv2dLayer(2, 3), rng(8))
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32)))

    def test_input_of_another_rank_named(self):
        layer = draw(Conv2dLayer(2, 3), rng(8))
        with pytest.raises(ShapeError, match=r"conv2d input must be rank 4 .*\(2, 4, 4\)"):
            layer.forward(Tensor(np.zeros((2, 4, 4), dtype=np.float32)))

    def test_output_shape_closed_form(self):
        for t, f, s, p, k in [(200, 80, (1, 1), (1, 1), (3, 3)),
                              (200, 80, (2, 2), (1, 1), (3, 3)),
                              (101, 40, (2, 2), (1, 1), (3, 3))]:
            layer = draw(Conv2dLayer(1, 4, kernel=k, stride=s), rng(9))
            out = layer.forward(Tensor(np.zeros((1, 1, t, f), dtype=np.float32)))
            expect_t = (t + 2 * p[0] - k[0]) // s[0] + 1
            expect_f = (f + 2 * p[1] - k[1]) // s[1] + 1
            assert out.shape == (1, 4, expect_t, expect_f)

    def test_gradcheck_params_and_input(self):
        layer = draw(cast(Conv2dLayer(2, 2, stride=(1, 1)), np.float64), rng(10))
        x = one(rng(11).normal(size=(2, 4, 4)))
        assert grad_check(lambda v: layer.forward(v).sum(), x) < 1e-6
        assert grad_check(lambda _: layer.forward(x).sum(), layer.kernels) < 1e-6


def seeded_bn(seed, cls=BatchNorm2d, dtype=np.float64):
    """A 3-channel batchnorm with seeded running statistics and affine terms."""
    r = rng(seed)
    bn = cast(cls(3), dtype)
    bn.running_mean[:] = r.normal(scale=2.0, size=3)
    bn.running_var[:] = r.uniform(0.2, 3.0, 3)
    bn.gamma.data[:] = r.uniform(0.5, 1.5, 3)
    bn.beta.data[:] = r.normal(size=3)
    return bn


class TestBatchNorm:
    def test_eval_identity_running_stats(self):
        bn = cast(BatchNorm2d(3), np.float64)
        x = rng(12).normal(size=(3, 4, 5))
        out = bn.forward(one(x), training=False).data[0]
        np.testing.assert_allclose(out, x / np.sqrt(1 + 1e-5), atol=1e-10)

    def test_train_normalizes_batch(self):
        bn = cast(BatchNorm2d(3), np.float64)
        x = t64(rng(13).normal(loc=2.0, scale=3.0, size=(4, 3, 5, 6)))
        out = bn.forward(x, training=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_running_stat_momentum_blend(self):
        bn = cast(BatchNorm2d(2), np.float64)
        data = rng(14).normal(size=(3, 2, 4, 4))
        bn.forward(t64(data), training=True)
        n = 3 * 4 * 4
        mu = data.mean(axis=(0, 2, 3))
        var_u = data.var(axis=(0, 2, 3)) * n / (n - 1)
        np.testing.assert_allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * mu, atol=1e-12)
        np.testing.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * var_u, atol=1e-12)

    def test_batch_of_one_rejected(self):
        bn = BatchNorm2d(2)
        with pytest.raises(ConfigError):
            bn.forward(Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32)), training=True)

    def test_eval_deterministic_pure(self):
        bn = cast(BatchNorm2d(2), np.float64)
        bn.running_mean[:] = [0.3, -0.2]
        bn.running_var[:] = [2.0, 0.5]
        x = one(rng(15).normal(size=(2, 3, 3)))
        a = bn.forward(x, training=False).data
        b = bn.forward(x, training=False).data
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(bn.running_mean, [0.3, -0.2])  # eval never mutates

    def test_gradcheck_train_mode(self):
        bn = cast(BatchNorm2d(2), np.float64)
        x = t64(rng(16).normal(size=(3, 2, 3, 4)))
        assert grad_check(lambda v: (bn.forward(v, training=True) * 2.0).tanh().sum(), x) < 1e-6
        assert grad_check(lambda _: bn.forward(x, training=True).tanh().sum(), bn.gamma) < 1e-6
        assert grad_check(lambda _: bn.forward(x, training=True).tanh().sum(), bn.beta) < 1e-6

    def test_train_mode_matches_two_pass_reference(self):
        # reference: the textbook forward and whitening backward, at float32
        x = (rng(18).normal(loc=3.0, scale=2.0, size=(8, 4, 30, 20))).astype(np.float32)
        g = rng(19).normal(size=x.shape).astype(np.float32)
        bn = BatchNorm2d(4)
        bn.gamma.data[:] = rng(20).uniform(0.5, 1.5, 4)
        bn.beta.data[:] = rng(21).normal(size=4)
        axes, shp = (0, 2, 3), (1, -1, 1, 1)
        mu = x.mean(axis=axes, keepdims=True)
        istd = 1.0 / np.sqrt(x.var(axis=axes, keepdims=True) + bn.eps)
        xhat = (x - mu) * istd
        g4 = bn.gamma.data.reshape(shp)
        ref_out = xhat * g4 + bn.beta.data.reshape(shp)
        dxhat = g * g4
        m1 = dxhat.mean(axis=axes, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=axes, keepdims=True)
        ref = {"out": ref_out, "x": istd * (dxhat - m1 - xhat * m2),
               "gamma": (g * xhat).sum(axis=axes), "beta": g.sum(axis=axes)}

        xt = parameter(np.asarray(x, dtype=np.float32))
        out = bn.forward(xt, training=True)
        out._backward(g)
        got = {"out": out.data, "x": xt.grad, "gamma": bn.gamma.grad, "beta": bn.beta.grad}
        for name, want in ref.items():
            assert got[name].dtype == np.float32
            err = np.linalg.norm(got[name] - want) / np.linalg.norm(want)
            assert err < 1e-5, name

    def test_gradcheck_eval_mode(self):
        bn = cast(BatchNorm2d(2), np.float64)
        bn.running_mean[:] = [0.1, -0.4]
        bn.running_var[:] = [1.5, 0.7]
        x = one(rng(17).normal(size=(2, 4, 4)))
        assert grad_check(lambda v: bn.forward(v, training=False).sigmoid().sum(), x) < 1e-6

    def test_eval_matches_textbook_formula(self):
        bn = seeded_bn(22)
        x = rng(23).normal(loc=1.0, scale=2.0, size=(2, 3, 7, 5))
        shp = (1, -1, 1, 1)
        want = ((x - bn.running_mean.reshape(shp)) / np.sqrt(bn.running_var.reshape(shp) + bn.eps)
                * bn.gamma.data.reshape(shp) + bn.beta.data.reshape(shp))
        out = bn.forward(t64(x), training=False).data
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)

    def test_gradcheck_eval_mode_input_and_affine(self):
        bn = seeded_bn(24)
        x = t64(rng(25).normal(size=(2, 3, 4, 3)))
        loss = lambda v: bn.forward(v, training=False).sigmoid().sum()
        assert grad_check(loss, x) < 1e-6
        assert grad_check(lambda _: loss(x), bn.gamma) < 1e-6
        assert grad_check(lambda _: loss(x), bn.beta) < 1e-6


class TestBatchNormReLU:
    @pytest.mark.parametrize("training", [True, False])
    def test_float32_is_batchnorm_then_relu_bit_for_bit(self, training):
        x = rng(30).normal(loc=0.5, scale=2.0, size=(4, 3, 9, 7)).astype(np.float32)
        g = Tensor(rng(31).normal(size=x.shape).astype(np.float32))
        runs = []
        for cls in (BatchNormReLU2d, BatchNorm2d):
            bn, xt = seeded_bn(32, cls, np.float32), parameter(x.copy())
            out = bn.forward(xt, training)
            out = out if cls is BatchNormReLU2d else out.relu()
            (out * g).sum().backward()
            runs.append([out.data, xt.grad, bn.gamma.grad, bn.beta.grad,
                         bn.running_mean, bn.running_var])
        fused, composed = runs
        assert 0 < (fused[0] == 0).mean() < 1
        for a, b in zip(fused, composed):
            assert a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    def test_gradcheck(self, training):
        bn = seeded_bn(33, BatchNormReLU2d)
        x = t64(rng(34).normal(size=(3, 3, 4, 5)))
        r = t64(rng(35).normal(size=x.shape))
        loss = lambda v: (bn.forward(v, training) * r).sum()
        assert grad_check(loss, x) < 1e-6
        assert grad_check(lambda _: loss(x), bn.gamma) < 1e-6
        assert grad_check(lambda _: loss(x), bn.beta) < 1e-6


class TestLinear:
    def test_identity_weight(self):
        layer = draw(cast(LinearLayer(4, 4), np.float64), rng(20))
        layer.weight.data[:] = np.eye(4)
        layer.bias.data[:] = 0.0
        x = rng(21).normal(size=4)
        np.testing.assert_allclose(layer.forward(one(x)).data[0], x, atol=1e-12)

    def test_zero_weight_bias_only(self):
        layer = draw(cast(LinearLayer(3, 2), np.float64), rng(22))
        layer.weight.data[:] = 0.0
        layer.bias.data[:] = [5.0, -1.0]
        np.testing.assert_allclose(layer.forward(one(rng(23).normal(size=3))).data[0], [5.0, -1.0])

    def test_matches_matmul_oracle(self):
        layer = draw(cast(LinearLayer(5, 3), np.float64), rng(24))
        layer.bias.data[:] = rng(25).normal(size=3)
        x = rng(26).normal(size=5)
        expect = np.zeros(3)
        for o in range(3):
            for i in range(5):
                expect[o] += layer.weight.data[o, i] * x[i]
        expect += layer.bias.data
        np.testing.assert_allclose(layer.forward(one(x)).data[0], expect, atol=1e-6)

    def test_length_mismatch(self):
        layer = draw(LinearLayer(5, 3), rng(27))
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.zeros((1, 4), dtype=np.float32)))

    def test_batched_matches_single(self):
        layer = draw(cast(LinearLayer(4, 3), np.float64), rng(28))
        xs = rng(29).normal(size=(5, 4))
        batched = layer.forward(t64(xs)).data
        for i in range(5):
            np.testing.assert_allclose(batched[i], layer.forward(one(xs[i])).data[0], atol=1e-12)

    def test_gradcheck(self):
        layer = draw(cast(LinearLayer(4, 3), np.float64), rng(30))
        x = one(rng(31).normal(size=4))
        assert grad_check(lambda v: layer.forward(v).sigmoid().sum(), x) < 1e-6
        assert grad_check(lambda _: layer.forward(x).sigmoid().sum(), layer.weight) < 1e-6
        assert grad_check(lambda _: layer.forward(x).sigmoid().sum(), layer.bias) < 1e-6


@pytest.mark.parametrize("build, limit", [
    (lambda: Conv2dLayer(3, 5), np.sqrt(6 / 27)),                 # He: fan-in 3 * 3 * 3
    (lambda: Conv2dLayer(4, 6, kernel=(1, 1)), np.sqrt(6 / 4)),
    (lambda: LinearLayer(7, 4), np.sqrt(6 / 11)),                 # Xavier: fan-in 7, fan-out 4
], ids=["conv-3x3", "conv-1x1", "linear"])
def test_draw_fills_weights_within_their_fan_limit(build, limit):
    layer = build()
    weight = layer.named_params()[0][1].data
    assert not weight.any()
    assert draw(layer, rng(3)) is layer
    assert 0.5 * limit < np.abs(weight).max() <= limit
    for name, p in layer.named_params()[1:]:
        assert not p.data.any(), name                             # a bias is not drawn


@pytest.mark.parametrize("cin, cout, kernel", [(0, 3, (3, 3)), (2, 0, (3, 3)), (2, 3, (0, 3))],
                         ids=["no-input-channels", "no-output-channels", "empty-kernel"])
def test_conv_layer_sizes_must_be_positive(cin, cout, kernel):
    with pytest.raises(ConfigError, match="must be positive"):
        Conv2dLayer(cin, cout, kernel=kernel)
