"""Tensor engine tests: forward oracles and gradient verification."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dtcf.tensor as dtt
from dtcf.errors import ConfigError, DomainError, GradCheckError, ShapeError
from dtcf.tensor import (
    Tensor, backward, concat, conv2d, grad_check, matmul, mean_axis, reshape, split,
    sum_axis, topo_order, transpose,
)


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def one(arr):
    """A batch of one sample at float64."""
    return t64(np.asarray(arr)[None])


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- oracles

def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def conv2d_oracle(x, w, stride, padding):
    cout, cin, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    t, f = xp.shape[1], xp.shape[2]
    to = (t - kh) // sh + 1
    fo = (f - kw) // sw + 1
    out = np.zeros((cout, to, fo), dtype=x.dtype)
    for o in range(cout):
        for i in range(to):
            for j in range(fo):
                acc = 0.0
                for c in range(cin):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += xp[c, i * sh + di, j * sw + dj] * w[o, c, di, dj]
                out[o, i, j] = acc
    return out


def im2col_conv2d(x, w, stride, padding, g):
    """The im2col conv of earlier releases: its output, and its data and kernel
    gradients for the upstream gradient ``g``."""
    cout, cin, kh, kw = w.shape
    b, _, t, f = x.shape
    (sh, sw), (ph, pw) = stride, padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    to, fo = (t + 2 * ph - kh) // sh + 1, (f + 2 * pw - kw) // sw + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(cin * kh * kw, -1)
    out = (w.reshape(cout, -1) @ cols).reshape(cout, b, to, fo).transpose(1, 0, 2, 3)
    g2 = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(cout, -1)
    dxp = np.zeros((cin, b) + xp.shape[2:], dtype=x.dtype)
    for di in range(kh):
        for dj in range(kw):
            dxp[:, :, di:di + (to - 1) * sh + 1:sh, dj:dj + (fo - 1) * sw + 1:sw] += \
                (w[:, :, di, dj].T @ g2).reshape(cin, b, to, fo)
    dx = dxp[:, :, ph:ph + t, pw:pw + f].transpose(1, 0, 2, 3)
    return out, dx, (cols @ g2.T).T.reshape(w.shape)


def mean_axis_oracle(x, axis):
    moved = np.moveaxis(x, axis, 0)
    out = np.zeros(moved.shape[1:], dtype=x.dtype)
    for sl in moved:
        out += sl
    return out / moved.shape[0]


# ---------------------------------------------------------------- matmul

class TestMatmul:
    def test_identity(self):
        m = rng(1).normal(size=(3, 3))
        out = matmul(t64(np.eye(3)), t64(m))
        np.testing.assert_array_equal(out.data, m)

    def test_zeros(self):
        out = matmul(t64(np.zeros((2, 3))), t64(rng(2).normal(size=(3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_against_triple_loop(self):
        a = rng(3).normal(size=(4, 5))
        b = rng(4).normal(size=(5, 6))
        out = matmul(t64(a), t64(b))
        np.testing.assert_allclose(out.data, matmul_oracle(a, b), atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))

    def test_backward_formula(self):
        a = t64(rng(5).normal(size=(3, 4)), requires_grad=True)
        b = t64(rng(6).normal(size=(4, 2)), requires_grad=True)
        matmul(a, b).sum().backward()
        g = np.ones((3, 2))
        np.testing.assert_allclose(a.grad, g @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ g, atol=1e-12)


# ---------------------------------------------------------------- conv2d

# every conv of the toy model (widths 4-8-16-32, 120 x 80 input), run at B=4: the cin=1
# stem, then each stage's 3x3 conv1, its 1x1 skip where it strides, and its conv2
TOY_CONVS = [
    (1, 4, 3, (1, 1), 120, 80), (4, 4, 3, (1, 1), 120, 80),
    (4, 8, 3, (1, 2), 120, 80), (4, 8, 1, (1, 2), 120, 80), (8, 8, 3, (1, 1), 120, 40),
    (8, 16, 3, (2, 2), 120, 40), (8, 16, 1, (2, 2), 120, 40), (16, 16, 3, (1, 1), 60, 20),
    (16, 32, 3, (2, 2), 60, 20), (16, 32, 1, (2, 2), 60, 20), (32, 32, 3, (1, 1), 30, 10)]
# the same convs of the full-width model (widths 32-64-128-256) on 300 frames, run at
# B=1 as extract runs them
FULL_WIDTH_CONVS = [
    (1, 32, 3, (1, 1), 300, 80), (32, 32, 3, (1, 1), 300, 80),
    (32, 64, 3, (1, 2), 300, 80), (32, 64, 1, (1, 2), 300, 80), (64, 64, 3, (1, 1), 300, 40),
    (64, 128, 3, (2, 2), 300, 40), (64, 128, 1, (2, 2), 300, 40), (128, 128, 3, (1, 1), 150, 20),
    (128, 256, 3, (2, 2), 150, 20), (128, 256, 1, (2, 2), 150, 20), (256, 256, 3, (1, 1), 75, 10)]


class TestConv2d:
    def test_one_by_one_identity(self):
        x = rng(7).normal(size=(1, 4, 5))
        w = np.ones((1, 1, 1, 1))
        out = conv2d(one(x), t64(w))
        np.testing.assert_allclose(out.data[0], x, atol=1e-12)

    def test_all_ones_box(self):
        x = np.ones((1, 5, 5))
        w = np.ones((1, 1, 3, 3))
        out = conv2d(one(x), t64(w), stride=(1, 1), padding=(1, 1)).data[0, 0]
        assert out[2, 2] == 9
        for corner in [(0, 0), (0, 4), (4, 0), (4, 4)]:
            assert out[corner] == 4

    def test_against_nested_loop(self):
        x = rng(8).normal(size=(2, 6, 6))
        w = rng(9).normal(size=(3, 2, 3, 3))
        out = conv2d(one(x), t64(w), stride=(2, 2))
        np.testing.assert_allclose(out.data[0], conv2d_oracle(x, w, (2, 2), (0, 0)), atol=1e-6)

    @pytest.mark.parametrize("stride,padding", [((1, 1), (0, 0)), ((1, 1), (1, 1)),
                                                ((2, 1), (1, 0)), ((2, 2), (1, 1))])
    def test_stride_padding_grid(self, stride, padding):
        x = rng(10).normal(size=(3, 7, 6))
        w = rng(11).normal(size=(2, 3, 3, 3))
        out = conv2d(one(x), t64(w), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data[0], conv2d_oracle(x, w, stride, padding), atol=1e-10)

    def test_batched_matches_per_sample(self):
        xs = rng(12).normal(size=(4, 2, 6, 5))
        w = rng(13).normal(size=(3, 2, 3, 3))
        out = conv2d(t64(xs), t64(w), stride=(1, 1), padding=(1, 1))
        for i in range(4):
            single = conv2d(one(xs[i]), t64(w), stride=(1, 1), padding=(1, 1))
            np.testing.assert_allclose(out.data[i], single.data[0], atol=1e-12)

    def test_kernel_too_large(self):
        with pytest.raises(ConfigError):
            conv2d(one(np.zeros((1, 2, 2))), t64(np.zeros((1, 1, 5, 5))))

    def test_gradients_via_finite_differences(self):
        x = one(rng(14).normal(size=(2, 5, 6)))
        w = t64(rng(15).normal(size=(3, 2, 3, 3)))
        assert grad_check(lambda v: conv2d(v, w, (2, 2), (1, 1)).sum(), x) < 1e-6
        assert grad_check(lambda v: conv2d(x, v, (2, 2), (1, 1)).sum(), w) < 1e-6

    @pytest.mark.parametrize("stride", [(1, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("kernel,padding", [(3, (1, 1)), (1, (0, 0))])
    def test_batched_gradients_weighted_upstream(self, stride, kernel, padding):
        # B=3 and cin != cout, with a random upstream weight instead of .sum(),
        # so that a batch/channel mix-up in either gradient cannot cancel out.
        # The loss is linear in each argument, so a wider step only cuts roundoff.
        x = t64(rng(16).normal(size=(3, 2, 5, 6)))
        w = t64(rng(17).normal(size=(4, 2, kernel, kernel)))
        r = t64(rng(18).normal(size=conv2d(x, w, stride, padding).shape))
        assert grad_check(lambda v: (conv2d(v, w, stride, padding) * r).sum(), x, eps=1e-4) < 1e-6
        assert grad_check(lambda v: (conv2d(x, v, stride, padding) * r).sum(), w, eps=1e-4) < 1e-6

    @pytest.mark.parametrize("cin,cout,kernel,stride,t,f", TOY_CONVS + FULL_WIDTH_CONVS)
    def test_float32_against_im2col(self, cin, cout, kernel, stride, t, f):
        # each forward tile is a GEMM over a slice of the same im2col columns, at sizes
        # where OpenBLAS keeps the bits of the one-GEMM product; the gradients are
        # summed in another order, so within float32 roundoff
        b = 1 if (cin, cout, kernel, stride, t, f) in FULL_WIDTH_CONVS else 4
        padding = (kernel // 2, kernel // 2)
        x = Tensor(rng(36).standard_normal((b, cin, t, f)).astype(np.float32), requires_grad=True)
        w = Tensor(rng(37).standard_normal((cout, cin, kernel, kernel)).astype(np.float32),
                   requires_grad=True)
        out = conv2d(x, w, stride, padding)
        g = rng(38).standard_normal(out.shape).astype(np.float32)
        ref_out, ref_dx, ref_dw = im2col_conv2d(x.data, w.data, stride, padding, g)
        (out * Tensor(np.asarray(g, dtype=np.float32))).sum().backward()
        np.testing.assert_array_equal(out.data, ref_out)
        for got, ref in ((x.grad, ref_dx), (w.grad, ref_dw)):
            assert got.dtype == np.float32
            assert np.linalg.norm(got - ref) <= 1e-5 * np.linalg.norm(ref)

    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("stride", [(1, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("kernel", [3, 1])
    def test_float64_against_im2col_over_many_blocks(self, b, stride, kernel):
        # 3 forward tiles per sample, not all of one height, and a phase grid of at
        # least 3 backward blocks
        (sh, sw), p = stride, kernel // 2
        f = sw * max(32, -(-3 * dtt._BLOCK_COLS // (b * (3 * dtt._TILE_ROWS + 2))))
        fo = (f + 2 * p - kernel) // sw + 1
        rows = max(dtt._TILE_ROWS, -(-dtt._TILE_POSITIONS // fo))
        t = sh * (3 * rows + 2)
        to = (t + 2 * p - kernel) // sh + 1
        assert to // rows == 3 and to % 3 and b * (t // sh) * (f // sw) >= 3 * dtt._BLOCK_COLS
        padding = (p, p)
        x = Tensor(rng(43).standard_normal((b, 3, t, f)), requires_grad=True)
        w = Tensor(rng(44).standard_normal((5, 3, kernel, kernel)), requires_grad=True)
        out = conv2d(x, w, stride, padding)
        g = rng(45).standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        refs = im2col_conv2d(x.data, w.data, stride, padding, g)
        for got, ref in zip((out.data, x.grad, w.grad), refs):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_gradchecks_with_blocks_of_a_few_columns(self, monkeypatch):
        # the float64 gradchecks above, with tiles of 2 rows and backward blocks of 5
        # positions, so every tile and block edge lies inside their small grids
        monkeypatch.setattr(dtt, "_TILE_ROWS", 2)
        monkeypatch.setattr(dtt, "_TILE_POSITIONS", 1)
        monkeypatch.setattr(dtt, "_BLOCK_COLS", 5)
        self.test_gradients_via_finite_differences()
        for stride in [(1, 1), (1, 2), (2, 2)]:
            for kernel, padding in [(3, (1, 1)), (1, (0, 0))]:
                self.test_batched_gradients_weighted_upstream(stride, kernel, padding)

    def test_forward_peak_is_output_padded_input_and_two_tiles(self):
        # a full-width stage-1 conv on 300 frames: one GEMM over all its im2col columns
        # would hold 27.6 MB more
        x = Tensor(rng(46).standard_normal((1, 32, 300, 80)).astype(np.float32))
        w = Tensor(rng(47).standard_normal((32, 32, 3, 3)).astype(np.float32))
        padded = x.data.itemsize * 32 * 302 * 82
        rows = max(dtt._TILE_ROWS, -(-dtt._TILE_POSITIONS // 80))
        tile = x.data.itemsize * 32 * 9 * (300 // (300 // rows) + 1) * 80
        tracemalloc.start()
        try:
            out = conv2d(x, w, (1, 1), (1, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.data.nbytes + padded + 2 * tile, f"{peak / 1e6:.1f} MB"

    def test_forward_keeps_only_its_output(self):
        # the backward rebuilds what it needs from x, which the graph holds anyway
        x = Tensor(rng(39).standard_normal((4, 8, 120, 40)).astype(np.float32), requires_grad=True)
        w = Tensor(rng(40).standard_normal((16, 8, 3, 3)).astype(np.float32), requires_grad=True)
        padded = x.data.itemsize * 4 * 8 * 122 * 42
        tracemalloc.start()
        try:
            out = conv2d(x, w, (1, 1), (1, 1))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - out.data.nbytes < 2 * padded, f"{(held - out.data.nbytes) / padded:.1f}x"
        out.sum().backward()
        assert w.grad.any() and x.grad.any()


# ---------------------------------------------------------------- reductions

class TestMeanAxis:
    def test_constant(self):
        out = mean_axis(Tensor(np.full((3, 4), 2.5, dtype=np.float64)), 1)
        np.testing.assert_array_equal(out.data, np.full(3, 2.5))

    def test_small_case(self):
        out = mean_axis(t64([[1.0, 2.0], [3.0, 4.0]]), 0)
        np.testing.assert_array_equal(out.data, [2.0, 3.0])

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_against_explicit_sum(self, axis):
        x = rng(16).normal(size=(3, 4, 5))
        out = mean_axis(t64(x), axis)
        np.testing.assert_allclose(out.data, mean_axis_oracle(x, axis), atol=1e-7)

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            mean_axis(t64(np.zeros((2, 2))), 2)

    def test_backward_distributes(self):
        x = t64(rng(17).normal(size=(4, 3)), requires_grad=True)
        mean_axis(x, 0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((4, 3), 1 / 4), atol=1e-12)

    def test_sum_axis_keepdims(self):
        x = t64(rng(18).normal(size=(2, 3, 4)))
        out = sum_axis(x, 1, keepdims=True)
        assert out.shape == (2, 1, 4)
        np.testing.assert_allclose(out.data, x.data.sum(axis=1, keepdims=True), atol=1e-12)


# ---------------------------------------------------------------- concat / split

class TestConcatSplit:
    def test_round_trip_bit_exact(self):
        a = rng(19).normal(size=(2, 3, 4))
        b = rng(20).normal(size=(2, 5, 4))
        joined = concat(t64(a), t64(b), axis=1)
        left, right = split(joined, axis=1, at=3)
        np.testing.assert_array_equal(left.data, a)
        np.testing.assert_array_equal(right.data, b)

    def test_column_sums(self):
        joined = concat(Tensor(np.ones((2, 3), dtype=np.float64)),
                        Tensor(np.zeros((2, 2), dtype=np.float64)), axis=1)
        assert joined.shape == (2, 5)
        np.testing.assert_array_equal(joined.data.sum(axis=0), [2, 2, 2, 0, 0])

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            concat(t64(np.zeros((2, 3))), t64(np.zeros((3, 4))), axis=1)
        with pytest.raises(ShapeError):
            split(t64(np.zeros((2, 4))), axis=1, at=4)

    def test_split_grad_routes_to_sources(self):
        a = t64(rng(21).normal(size=(2, 3)), requires_grad=True)
        b = t64(rng(22).normal(size=(2, 2)), requires_grad=True)
        left, _ = split(concat(a, b, axis=1), axis=1, at=3)
        left.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.zeros((2, 2)))
        # cross-checked against central differences
        a2 = t64(a.data)
        err = grad_check(lambda v: split(concat(v, b, axis=1), axis=1, at=3)[0].sum(), a2)
        assert err < 1e-8

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.integers(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, n, m, k, axis):
        r = np.random.default_rng(n * 64 + m * 8 + k)
        a = r.normal(size=(n, m))
        b = r.normal(size=(n + k, m) if axis == 0 else (n, m + k))
        at = a.shape[axis]
        left, right = split(concat(t64(a), t64(b), axis), axis, at)
        np.testing.assert_array_equal(left.data, a)
        np.testing.assert_array_equal(right.data, b)


# ---------------------------------------------------------------- elementwise

class TestElementwise:
    def test_sigmoid_zero(self):
        assert Tensor(np.asarray(0.0, dtype=np.float32)).sigmoid().data == pytest.approx(0.5)

    def test_relu_values(self):
        out = t64([-3.0, 0.0, 3.0]).relu()
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])

    def test_broadcast_mul_matches_loop(self):
        x = rng(23).normal(size=(3, 4, 5))
        m = rng(24).normal(size=(3, 4, 1))
        out = (t64(x) * t64(m)).data
        expect = np.zeros_like(x)
        for c in range(3):
            for i in range(4):
                for j in range(5):
                    expect[c, i, j] = x[c, i, j] * m[c, i, 0]
        np.testing.assert_allclose(out, expect, atol=1e-7)

    def test_rejects_non_singleton_broadcast(self):
        with pytest.raises(ShapeError):
            t64(np.zeros((2, 3))) * t64(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            t64(np.zeros((2, 3))) + t64(np.zeros((3,)))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            t64([-1.0]).log()
        with pytest.raises(DomainError):
            t64([-1.0]).sqrt()

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = Tensor(np.asarray([-1e4, 1e4], dtype=np.float32)).sigmoid().data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-30)
        assert out[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("fn,name", [
        (lambda x: x.relu().sum(), "relu"),
        (lambda x: x.sigmoid().sum(), "sigmoid"),
        (lambda x: x.tanh().sum(), "tanh"),
        (lambda x: (x * x).sum(), "mul"),
        (lambda x: (x + x * 2.0).sum(), "add_scale"),
        (lambda x: (x - x * 0.3).sum(), "sub"),
        (lambda x: (x * x + 1.0).sqrt().sum(), "sqrt"),
        (lambda x: (x * x + 1.0).log().sum(), "log"),
        (lambda x: x.exp().sum(), "exp"),
    ])
    def test_gradcheck_each_kind(self, fn, name):
        # inputs nudged away from 0 so the relu kink is not sampled
        x = rng(25).normal(size=(3, 4))
        x = x + 0.2 * np.sign(x)
        assert grad_check(fn, t64(x)) < 1e-6


# ---------------------------------------------------------------- backward

class TestBackward:
    def test_d_sum_x_squared(self):
        x = t64(rng(26).normal(size=(3, 3)), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_off_path_grad_is_zeros(self):
        x = t64(rng(27).normal(size=(2, 2)), requires_grad=True)
        other = t64(rng(28).normal(size=(2, 2)), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_array_equal(other.grad, np.zeros((2, 2)))

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ShapeError):
            backward(t64(np.zeros((2,)), requires_grad=True))

    def test_fanout_accumulates(self):
        x = t64([3.0], requires_grad=True)
        y = x * 2.0 + x * 5.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_second_backward_raises(self):
        x = t64(rng(34).normal(size=(2, 2)), requires_grad=True)
        y = (x * 3.0).sigmoid()
        loss = y.sum()
        loss.backward()
        # leaves keep their gradient and every node its data; interior gradients are dropped
        assert y.grad is None and loss.grad is None and float(loss.data) == y.data.sum()
        with pytest.raises(DomainError, match="already backpropagated"):
            loss.backward()
        np.testing.assert_allclose(x.grad, 3.0 * y.data * (1 - y.data), atol=1e-12)

    def test_second_loss_over_a_backpropagated_graph_raises(self):
        x = t64(rng(35).normal(size=(2, 2)), requires_grad=True)
        h = (x * 3.0).sigmoid()
        first, second = h.sum(), (h * h).sum()
        first.backward()
        with pytest.raises(DomainError, match="already backpropagated"):
            second.backward()

    def test_composite_matches_finite_differences(self):
        w = t64(rng(29).normal(size=(4, 3)))
        x = t64(rng(30).normal(size=(3, 2)))
        assert grad_check(lambda v: matmul(w, v).sigmoid().sum(), x) < 1e-6

    def test_linearity_of_backward(self):
        base = rng(31).normal(size=(3, 3))
        alpha, beta = 0.7, -1.3

        def grad_of(fn):
            x = t64(base, requires_grad=True)
            fn(x).backward()
            return x.grad

        gf = grad_of(lambda x: (x * x).sum())
        gg = grad_of(lambda x: x.sigmoid().sum())
        combined = grad_of(lambda x: (x * x).sum() * alpha + x.sigmoid().sum() * beta)
        np.testing.assert_allclose(combined, alpha * gf + beta * gg, atol=1e-7)

    def test_topo_order_properties(self):
        a = t64(rng(32).normal(size=(2, 2)), requires_grad=True)
        b = a * 2.0
        c = (a + b) * b
        order = topo_order(c.sum())
        ids = [id(n) for n in order]
        assert len(ids) == len(set(ids))  # each node exactly once
        pos = {id(n): i for i, n in enumerate(order)}
        for n in order:
            for p in n._parents:
                assert pos[id(p)] < pos[id(n)]

    def test_finite_forward_on_finite_inputs(self):
        x = t64(rng(33).normal(size=(4, 4)) * 50)
        for fn in [lambda v: v.relu(), lambda v: v.sigmoid(), lambda v: v.tanh(),
                   lambda v: v.exp() if np.all(v.data < 100) else v,
                   lambda v: matmul(v, v)]:
            assert np.all(np.isfinite(fn(x).data))


# ---------------------------------------------------------------- grad_check

class TestGradCheck:
    def test_sum_is_exact(self):
        assert grad_check(lambda x: x.sum(), t64(rng(34).normal(size=(5,)))) < 1e-10

    def test_sigmoid_tolerance(self):
        x = t64(rng(35).normal(size=(4, 4)))
        assert grad_check(lambda v: v.sigmoid().sum(), x, eps=1e-5) < 1e-7

    def test_detects_wrong_backward_rule(self):
        def broken(x):
            # forward computes 2x but the recorded rule claims d/dx = 3
            from dtcf.tensor import _unary
            return _unary(x, x.data * 2.0, lambda g: g * 3.0).sum()

        err = grad_check(broken, t64(rng(36).normal(size=(3,))))
        assert err > 1e-2

    def test_nan_gradient_reported(self):
        def nan_fn(x):
            from dtcf.tensor import _unary
            return _unary(x, x.data.copy(), lambda g: g * np.nan).sum()

        with pytest.raises(GradCheckError):
            grad_check(nan_fn, t64(rng(37).normal(size=(3,))))

    def test_all_zero_gradients_raise(self):
        # relu is flat below zero, so both gradients are exactly zero and nothing is checked
        x = t64(-1.0 - np.abs(rng(42).normal(size=(4,))))
        with pytest.raises(GradCheckError, match="all exactly zero"):
            grad_check(lambda v: v.relu().sum(), x)

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 3, 2)])
    def test_random_shapes_all_ops(self, shape):
        x = rng(38).normal(size=shape) + 0.3
        fn = lambda v: ((v * v).sqrt() * 0.5 + v.tanh()).exp().sum()
        assert grad_check(fn, t64(np.abs(x))) < 1e-6


class TestShapeContracts:
    def test_mean_then_broadcast_mul_preserves_shape(self):
        # squeeze -> gate -> rescale pipeline must never drift the map shape
        x = t64(rng(39).normal(size=(6, 5, 4)), requires_grad=True)
        pooled = mean_axis(mean_axis(x, 2), 1)      # (C,)
        gate = reshape(pooled.sigmoid(), (6, 1, 1))
        out = x * gate
        assert out.shape == x.shape

    def test_reshape_transpose_roundtrip(self):
        x = t64(rng(40).normal(size=(2, 3, 4)), requires_grad=True)
        y = transpose(reshape(reshape(transpose(x, (1, 0, 2)), (3, 8)), (3, 2, 4)), (1, 0, 2))
        np.testing.assert_array_equal(y.data, x.data)
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))


def _finite_only_at_first_call():
    calls = []

    def f(x):
        calls.append(x)
        return x.sum() if len(calls) == 1 else x.sum() * np.nan
    return f


@pytest.mark.parametrize("call, error, match", [
    (lambda: matmul(t64(np.ones(3)), t64(np.ones((3, 2)))), ShapeError, "rank-2 operands"),
    (lambda: conv2d(t64(np.ones((1, 2, 4, 4))), t64(np.ones((3, 2, 3)))), ShapeError,
     "kernels must be rank 4"),
    (lambda: conv2d(t64(np.ones((2, 4, 4))), t64(np.ones((3, 2, 3, 3)))), ShapeError,
     r"conv2d input must be rank 4 .*\(2, 4, 4\)"),
    (lambda: conv2d(t64(np.ones((1, 2, 4, 4))), t64(np.ones((3, 2, 3, 3))), stride=(0, 1)),
     ConfigError, "stride must be >= 1"),
    (lambda: conv2d(t64(np.ones((1, 2, 4, 4))), t64(np.ones((3, 2, 3, 3))), padding=(-1, 0)),
     ConfigError, "padding >= 0"),
    (lambda: concat(t64(np.ones((2, 3))), t64(np.ones((2, 3, 1))), axis=0), ShapeError,
     "rank mismatch"),
    (lambda: grad_check(_finite_only_at_first_call(), t64(rng(41).normal(size=(3,)))),
     GradCheckError, "numeric gradient"),
], ids=["matmul-rank", "conv2d-kernel-rank", "conv2d-input-rank", "conv2d-stride",
        "conv2d-padding", "concat-rank", "grad-check-numeric-nan"])
def test_named_input_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
