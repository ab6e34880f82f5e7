"""Tensor engine tests: forward oracles and gradient verification."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import dtcf.tensor as dtt
from dtcf.errors import ConfigError, DomainError, GradCheckError, ShapeError
from dtcf.attention import _gate
from dtcf.layers import BatchNorm2d, BatchNormReLU2d, parameter
from dtcf.tensor import (
    Tensor, add_relu, backward, concat, conv2d, grad_check, mean_axis, per_column, reshape,
    sum_axis, topo_order, transpose, zero_grads,
)


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


def p64(arr):
    """A trainable float64 leaf."""
    return parameter(np.asarray(arr, dtype=np.float64))


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


# ---------------------------------------------------------------- per_column

# (B, C2, C1) of every weight the toy model applies to a batch of vectors at B=16 (SE's
# W1 and W2 at 32 channels, ASP's w and v, the embedding layer, the AAM head), and
# small and degenerate ones
RANK2_SHAPES = [(1, 1, 1), (3, 4, 5), (16, 4, 32), (16, 32, 4), (480, 128, 320),
                (480, 1, 128), (16, 512, 640), (16, 10, 512)]


class TestPerColumn:
    """``per_column`` on a (B, C1) batch of vectors; test_attention checks the (B, C1, P) form."""

    def test_identity(self):
        m = rng(1).normal(size=(3, 3))
        out = per_column(t64(np.eye(3)), t64(m))
        np.testing.assert_array_equal(out.data, m)

    def test_zeros(self):
        out = per_column(t64(rng(2).normal(size=(4, 3))), t64(np.zeros((2, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_against_triple_loop(self):
        x = rng(3).normal(size=(4, 5))
        w = rng(4).normal(size=(6, 5))
        out = per_column(t64(w), t64(x))
        np.testing.assert_allclose(out.data, matmul_oracle(x, w.T), atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"weight \(4, 2\) does not take the columns of"):
            per_column(t64(np.zeros((4, 2))), t64(np.zeros((2, 3))))

    def test_backward_formula(self):
        # float32 bytes of x @ w.T, and of the gradients g @ w and (x.T @ g).T
        for b, c2, c1 in RANK2_SHAPES:
            r = rng(5 + b * c2 * c1)
            w = parameter(r.normal(size=(c2, c1)).astype(np.float32))
            x = parameter(r.normal(size=(b, c1)).astype(np.float32))
            g = r.normal(size=(b, c2)).astype(np.float32)
            out = per_column(w, x)
            (out * Tensor(g)).sum().backward()
            assert out.data.flags.c_contiguous
            for got, expect in [(out.data, x.data @ w.data.T), (x.grad, g @ w.data),
                                (w.grad, (x.data.T @ g).T)]:
                assert got.dtype == np.float32
                np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("b, c2, c1", RANK2_SHAPES[:4], ids=lambda v: str(v))
    def test_gradcheck(self, b, c2, c1):
        r = rng(6 + b * c2 * c1)
        w, x = t64(r.normal(size=(c2, c1))), t64(r.normal(size=(b, c1)))
        loss = lambda: (per_column(w, x) * 0.7).tanh().sum()
        for target in (w, x):
            assert grad_check(lambda _: loss(), target) < 1e-6


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


# full_width_grads_digest() with one BLAS thread
FULL_WIDTH_GRADS = "43bba0a42c139fb7ec1aebdfb26df80de21254241e3d228b0c0a52732b7cde8b"


def full_width_grads_digest() -> str:
    """sha256 over the float32 dx and dW of the full-width stem and stage-1 3x3 convs
    at B=1 on 300 frames, for a seeded input and upstream gradient."""
    digest = hashlib.sha256()
    for cin, cout, kernel, stride, t, f in FULL_WIDTH_CONVS[:2]:
        x = parameter(rng(48).standard_normal((1, cin, t, f)).astype(np.float32))
        w = parameter(rng(49).standard_normal((cout, cin, kernel, kernel)).astype(np.float32))
        out = conv2d(x, w, stride, (kernel // 2, kernel // 2))
        g = rng(50).standard_normal(out.shape).astype(np.float32)
        (out * Tensor(g)).sum().backward()
        digest.update(x.grad.tobytes() + w.grad.tobytes())
    return digest.hexdigest()


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
        x = parameter(rng(36).standard_normal((b, cin, t, f)).astype(np.float32))
        w = parameter(rng(37).standard_normal((cout, cin, kernel, kernel)).astype(np.float32))
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
    def test_float64_against_im2col_over_many_blocks(self, b, stride, kernel, cin=3, cout=5):
        # 3 forward tiles per sample, not all of one height, and a phase grid of at
        # least 3 backward blocks
        (sh, sw), p = stride, kernel // 2
        block = dtt._block_positions(cin, cout)
        f = sw * max(32, -(-3 * block // (b * (3 * dtt._TILE_ROWS + 2))))
        fo = (f + 2 * p - kernel) // sw + 1
        rows = max(dtt._TILE_ROWS, -(-dtt._TILE_POSITIONS // fo))
        t = sh * (3 * rows + 2)
        to = (t + 2 * p - kernel) // sh + 1
        assert to // rows == 3 and to % 3 and b * (t // sh) * (f // sw) >= 3 * block
        padding = (p, p)
        x = parameter(rng(43).standard_normal((b, cin, t, f)))
        w = parameter(rng(44).standard_normal((cout, cin, kernel, kernel)))
        out = conv2d(x, w, stride, padding)
        g = rng(45).standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        refs = im2col_conv2d(x.data, w.data, stride, padding, g)
        for got, ref in zip((out.data, x.grad, w.grad), refs):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("stride", [(1, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("kernel", [3, 1])
    def test_float64_against_im2col_over_many_blocks_from_16_channels(self, b, stride, kernel):
        # the test above with the other branch of the block rule: blocks of positions,
        # not of values
        self.test_float64_against_im2col_over_many_blocks(b, stride, kernel, 16, 20)

    def test_gradchecks_with_blocks_of_a_few_columns(self, monkeypatch):
        # the float64 gradchecks above, with tiles of 2 rows and every backward block
        # constant at 5, so every tile and block edge lies inside their small grids
        monkeypatch.setattr(dtt, "_TILE_ROWS", 2)
        monkeypatch.setattr(dtt, "_TILE_POSITIONS", 1)
        for name in [n for n in vars(dtt) if n.startswith("_BLOCK_")]:
            monkeypatch.setattr(dtt, name, 5)
        assert dtt._block_positions(2, 3) == dtt._block_positions(2, 4) == 5
        self.test_gradients_via_finite_differences()
        for stride in [(1, 1), (1, 2), (2, 2)]:
            for kernel, padding in [(3, (1, 1)), (1, (0, 0))]:
                self.test_batched_gradients_weighted_upstream(stride, kernel, padding)

    @pytest.mark.parametrize("kernel,stride", [(3, (1, 1)), (3, (1, 2)), (3, (2, 2)),
                                               (1, (1, 2)), (1, (2, 2))])
    def test_dx_under_a_poisoned_empty(self, monkeypatch, kernel, stride):
        # every array np.empty gives the backward is NaN: where a tap falls in every
        # stride phase, the phases must write every input position; a strided 1x1
        # conv reads only some rows or columns, and the others must stay exact zeros
        x = parameter(rng(56).standard_normal((2, 3, 7, 9)))
        w = parameter(rng(57).standard_normal((4, 3, kernel, kernel)))
        padding = (kernel // 2, kernel // 2)
        out = conv2d(x, w, stride, padding)
        g = rng(58).standard_normal(out.shape)
        empty, poisoned = np.empty, []

        def nan_empty(*args, **kwargs):
            a = empty(*args, **kwargs)
            a.fill(np.nan)
            poisoned.append(a.shape)
            return a
        monkeypatch.setattr(np, "empty", nan_empty)
        (out * Tensor(g)).sum().backward()
        monkeypatch.undo()
        assert (x.shape in poisoned) == (kernel == 3)
        _, ref_dx, _ = im2col_conv2d(x.data, w.data, stride, padding, g)
        assert np.isfinite(x.grad).all()
        assert np.linalg.norm(x.grad - ref_dx) <= 1e-12 * np.linalg.norm(ref_dx)
        if kernel == 1:
            (sh, sw), (_, _, to, fo) = stride, out.shape
            read = np.zeros(x.shape, dtype=bool)
            read[:, :, :(to - 1) * sh + 1:sh, :(fo - 1) * sw + 1:sw] = True
            assert not read.all() and (x.grad[~read] == 0).all()

    def test_full_width_gradients_pinned(self):
        # one BLAS thread in a fresh process, as for the toy step's digest in test_train.py
        paths = [str(Path(__file__).parent), str(Path(dtt.__file__).parents[1])]
        child = subprocess.run(
            [sys.executable, "-c", "from test_tensor import full_width_grads_digest as d; print(d())"],
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(paths)},
            capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == FULL_WIDTH_GRADS

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
        x = parameter(rng(39).standard_normal((4, 8, 120, 40)).astype(np.float32))
        w = parameter(rng(40).standard_normal((16, 8, 3, 3)).astype(np.float32))
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

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("shape", [(5, 7), (1, 6), (4, 1, 9), (3, 8, 6),
                                       (2, 5, 1, 7), (2, 6, 9, 4), (1, 4, 15, 20)])
    def test_matches_np_mean_on_every_axis(self, shape, dtype, rtol):
        # positive values keep each mean away from 0, so the bound is relative
        x = rng(19).uniform(0.5, 1.5, size=shape).astype(dtype)
        for axis in range(len(shape)):
            out = mean_axis(Tensor(x), axis)
            assert out.dtype == dtype and out.shape == np.mean(x, axis=axis).shape
            np.testing.assert_allclose(out.data, np.mean(x, axis=axis), rtol=rtol, atol=0)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 1, 4), (2, 3, 4, 5)])
    def test_gradcheck_every_axis(self, shape):
        x = t64(rng(20).normal(size=shape))
        for axis in range(len(shape)):
            assert grad_check(lambda v: (mean_axis(v, axis) * 1.5).tanh().sum(), x) < 1e-6

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            mean_axis(t64(np.zeros((2, 2))), 2)

    def test_backward_distributes(self):
        x = p64(rng(17).normal(size=(4, 3)))
        mean_axis(x, 0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((4, 3), 1 / 4), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [3, 7])
    def test_backward_is_the_broadcast_gradient_over_n_bit_for_bit(self, n, dtype):
        x = parameter(np.zeros((2, n, 5), dtype=dtype))
        g = rng(21).normal(size=(2, 5)).astype(dtype)
        mean_axis(x, 1)._backward(g)
        want = np.broadcast_to(np.expand_dims(g, 1), x.shape) / n
        assert x.grad.dtype == dtype and x.grad.tobytes() == want.tobytes()

    def test_sum_axis_keepdims(self):
        x = t64(rng(18).normal(size=(2, 3, 4)))
        out = sum_axis(x, 1, keepdims=True)
        assert out.shape == (2, 1, 4)
        np.testing.assert_allclose(out.data, x.data.sum(axis=1, keepdims=True), atol=1e-12)


# ---------------------------------------------------------------- concat

class TestConcatSplit:
    def test_column_sums(self):
        joined = concat(Tensor(np.ones((2, 3), dtype=np.float64)),
                        Tensor(np.zeros((2, 2), dtype=np.float64)), axis=1)
        assert joined.shape == (2, 5)
        np.testing.assert_array_equal(joined.data.sum(axis=0), [2, 2, 2, 0, 0])

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            concat(t64(np.zeros((2, 3))), t64(np.zeros((3, 4))), axis=1)

    def test_grad_routes_to_sources(self):
        a = p64(rng(21).normal(size=(2, 3)))
        b = p64(rng(22).normal(size=(2, 2)))
        weight = t64(np.arange(10.0).reshape(2, 5) / 10)
        (concat(a, b, axis=1) * weight).sum().backward()
        np.testing.assert_array_equal(a.grad, weight.data[:, :3])
        np.testing.assert_array_equal(b.grad, weight.data[:, 3:])
        # cross-checked against central differences
        err = grad_check(lambda v: (concat(v, b, axis=1) * weight).tanh().sum(), t64(a.data))
        assert err < 1e-8


# ---------------------------------------------------------------- elementwise

class TestElementwise:
    def test_sigmoid_zero(self):
        assert Tensor(np.asarray(0.0, dtype=np.float32)).sigmoid().data == pytest.approx(0.5)

    def test_relu_values(self):
        out = t64([-3.0, 0.0, 3.0]).relu()
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])

    def test_relu_mask_from_its_output_is_the_input_mask_bit_for_bit(self):
        # the rule masks by out > 0, which holds exactly where x > 0: max(x, 0) > 0 is
        # false at ±0.0 and for NaN, as x > 0 is
        x = np.array([-2.5, -0.0, 0.0, 1e-45, -1e-45, 3.0, np.nan, -np.nan, np.inf, -np.inf],
                     dtype=np.float32)
        g = rng(25).normal(size=x.shape).astype(np.float32)
        xt = parameter(x.copy())
        xt.relu()._backward(g)
        want = g * (x > 0)
        assert xt.grad.dtype == np.float32 and xt.grad.tobytes() == want.tobytes()

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


# each op with a number c: the Tensor form, numpy's own scalar arithmetic, and its
# gradient for the upstream g at the dtype's c
NUMBER_OPS = {
    "add": (lambda x, c: x + c, lambda a, c: a + c, lambda g, c: g),
    "sub": (lambda x, c: x - c, lambda a, c: a - c, lambda g, c: g),
    "mul": (lambda x, c: x * c, lambda a, c: a * c, lambda g, c: g * c),
    "div": (lambda x, c: x / c, lambda a, c: a / c, lambda g, c: g / c),
    "radd": (lambda x, c: c + x, lambda a, c: c + a, lambda g, c: g),
    "rsub": (lambda x, c: c - x, lambda a, c: c - a, lambda g, c: -g),
    "rmul": (lambda x, c: c * x, lambda a, c: c * a, lambda g, c: c * g),
}


@pytest.mark.parametrize("op", NUMBER_OPS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (3, 4), (2, 3, 1, 5)], ids=["rank0", "rank2", "rank4"])
@pytest.mark.parametrize("c", [0.3, 7])
def test_number_operand_is_numpy_scalar_arithmetic(op, dtype, shape, c):
    # a number is lifted to a constant Tensor, whose broadcast gives the bytes of
    # numpy's arithmetic with the number at the operand's dtype, forward and backward
    fn, forward, grad = NUMBER_OPS[op]
    r = rng(51)
    a = r.uniform(0.5, 2.0, shape).astype(dtype)
    g = np.asarray(r.normal(size=shape), dtype=dtype)
    x = parameter(a.copy())
    out = fn(x, c)
    out._backward(g)
    cd = dtype(c)
    for got, want in ((out.data, np.asarray(forward(a, cd))), (x.grad, np.asarray(grad(g, cd)))):
        assert got.dtype == want.dtype == dtype and got.shape == shape
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- backward

class TestBackward:
    def test_d_sum_x_squared(self):
        x = p64(rng(26).normal(size=(3, 3)))
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_off_path_grad_is_zeros(self):
        # as in a training step, zero_grads gives every parameter its gradient array
        x = p64(rng(27).normal(size=(2, 2)))
        other = p64(rng(28).normal(size=(2, 2)))
        zero_grads([x, other])
        (x * x).sum().backward()
        np.testing.assert_array_equal(other.grad, np.zeros((2, 2)))

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ShapeError):
            backward(p64(np.zeros((2,))))

    def test_fanout_accumulates(self):
        x = p64([3.0])
        y = x * 2.0 + x * 5.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_second_backward_raises(self):
        x = p64(rng(34).normal(size=(2, 2)))
        y = (x * 3.0).sigmoid()
        loss = y.sum()
        loss.backward()
        # leaves keep their gradient and every node its data; the slots drop their gradients
        assert y._slot.grad is None and loss._slot.grad is None
        assert float(loss.data) == y.data.sum()
        with pytest.raises(DomainError, match="already backpropagated"):
            loss.backward()
        np.testing.assert_allclose(x.grad, 3.0 * y.data * (1 - y.data), atol=1e-12)

    def test_second_loss_over_a_backpropagated_graph_raises(self):
        x = p64(rng(35).normal(size=(2, 2)))
        h = (x * 3.0).sigmoid()
        first, second = h.sum(), (h * h).sum()
        first.backward()
        with pytest.raises(DomainError, match="already backpropagated"):
            second.backward()

    def test_walk_frees_each_map_it_has_passed(self):
        # mid's data is held only by the rule of the product, which reads it for w's
        # gradient; the walk holds no slot it has passed, so by the time the probe's
        # closure below mid runs, that array is gone
        x = p64(rng(36).normal(size=(3, 3)))
        w = p64(np.full((3, 3), 2.0))
        freed = []

        def probe_bwd(g):
            freed.append(mid_ref() is None)
            x._accum(g)
        mid = dtt._node(x.data.copy(), (x,), probe_bwd)
        mid_ref = weakref.ref(mid.data)
        loss = (mid * w).sum()
        del mid
        assert mid_ref() is not None
        loss.backward()
        assert freed == [True]
        np.testing.assert_array_equal(x.grad, np.full((3, 3), 2.0))
        np.testing.assert_array_equal(w.grad, x.data)

    def test_a_node_the_caller_holds_keeps_its_data(self):
        # as train() reads the logits after the backward: within the walk a held map
        # stays while one beside it that only the graph holds is freed, and after it
        # the held map is unchanged and a second walk raises
        x = p64(rng(37).normal(size=(3, 3)))
        seen = []

        def probe_bwd(g):
            seen.append((held_ref() is not None, free_ref() is None))
            x._accum(g)
        free = dtt._node(x.data.copy(), (x,), probe_bwd) * 2.0
        held = (free * free).tanh()
        loss = (held * held).sum()
        free_ref, held_ref = weakref.ref(free.data), weakref.ref(held.data)
        want = held.data.copy()
        del free
        assert free_ref() is not None
        loss.backward()
        assert seen == [(True, True)]
        np.testing.assert_array_equal(held.data, want)
        with pytest.raises(DomainError, match="already backpropagated"):
            loss.backward()

    def test_composite_matches_finite_differences(self):
        w = t64(rng(29).normal(size=(4, 3)))
        x = t64(rng(30).normal(size=(2, 3)))
        assert grad_check(lambda v: per_column(w, v).sigmoid().sum(), x) < 1e-6

    def test_linearity_of_backward(self):
        base = rng(31).normal(size=(3, 3))
        alpha, beta = 0.7, -1.3

        def grad_of(fn):
            x = p64(base)
            fn(x).backward()
            return x.grad

        gf = grad_of(lambda x: (x * x).sum())
        gg = grad_of(lambda x: x.sigmoid().sum())
        combined = grad_of(lambda x: (x * x).sum() * alpha + x.sigmoid().sum() * beta)
        np.testing.assert_allclose(combined, alpha * gf + beta * gg, atol=1e-7)

    def test_topo_order_properties(self):
        a = p64(rng(32).normal(size=(2, 2)))
        b = a * 2.0
        c = (a + b) * b
        root = c.sum()
        order = topo_order(root)
        # the leaf a, then the slots of b, a + b, c and the root, which comes last
        assert len(order) == 5 and order[-1] is root._slot and sum(n is a for n in order) == 1
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
                   lambda v: per_column(v, v)]:
            assert np.all(np.isfinite(fn(x).data))


# ---------------------------------------------------------------- what the tape keeps

MAP = (2, 3, 6, 5)


def _map(seed, shape=MAP):
    """A map only its Tensor holds: a node's output whose own rule keeps nothing."""
    return parameter(rng(seed).normal(size=shape).astype(np.float32)) + 0.0


def _bn_output(relu):
    """A maker of a train-mode batchnorm's output, with or without its ReLU."""
    layer = BatchNormReLU2d if relu else BatchNorm2d
    return lambda seed: layer(MAP[1]).forward(_map(seed), training=True)


def _kernels(seed):
    return parameter(rng(seed).normal(size=(4, MAP[1], 3, 3)).astype(np.float32))


# op, and a maker for each of its parents
NO_RULE_READS = {
    "add_relu": (add_relu, [_map, _map]),
    "add": (lambda a, b: a + b, [_map, _map]),
    "sub": (lambda a, b: a - b, [_map, _map]),
    "mul-by-a-number": (lambda a: a * 2.0, [_map]),
    "mean_axis": (lambda a: mean_axis(a, 2), [_map]),
    "sum_axis": (lambda a: sum_axis(a, 3), [_map]),
    "relu": (lambda a: a.relu(), [_map]),
    "batchnorm-output": (add_relu, [_bn_output(False), _map]),
}
A_RULE_READS = {
    "conv2d": (lambda a: conv2d(a, _kernels(70), padding=(1, 1)), [_map]),
    "per_column": (lambda a: per_column(_map(71, (4, 3)), a), [lambda seed: _map(seed, (2, 3))]),
    "gate": (_gate, [_map, lambda seed: _map(seed, MAP[:3]),
                     lambda seed: _map(seed, MAP[:2] + MAP[3:])]),
    "mul": (lambda a, b: a * b, [_map, _map]),
    "batchnorm-input": (lambda a: BatchNorm2d(MAP[1]).forward(a, training=True), [_map]),
    "relu-batchnorm-output": (lambda a: mean_axis(a, 2), [_bn_output(True)]),
}


def _alive_after_forward(op, makers) -> list[bool]:
    """Build ``op``'s node on parent maps, drop them, and say which of their arrays the
    tape still holds while the caller holds the node."""
    parents = [make(60 + i) for i, make in enumerate(makers)]
    refs = [weakref.ref(p.data) for p in parents]
    out = op(*parents)
    del parents
    assert out.requires_grad
    return [ref() is not None for ref in refs]


@pytest.mark.parametrize("case", NO_RULE_READS)
def test_a_map_no_rule_reads_is_freed_when_the_caller_drops_it(case):
    assert _alive_after_forward(*NO_RULE_READS[case]) == [False] * len(NO_RULE_READS[case][1])


@pytest.mark.parametrize("case", A_RULE_READS)
def test_a_map_a_rule_reads_stays_until_the_walk(case):
    assert _alive_after_forward(*A_RULE_READS[case]) == [True] * len(A_RULE_READS[case][1])


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

    def test_constant_variable_is_restored(self):
        # a later check or loss over another leaf must not compute a gradient for x again
        x, w = t64(rng(43).normal(size=(3,))), p64(rng(44).normal(size=(3,)))
        assert grad_check(lambda v: (v * w).sum(), x) < 1e-6
        assert x.requires_grad is False and x.grad is None
        loss = (x * w).sum()
        # a leaf is its own slot on the tape: w is the tape's only leaf, and x is not on it
        assert [node for node in topo_order(loss) if not node._parents] == [w]

    def test_parameter_keeps_its_gradient_through_a_raise(self):
        w = p64(-1.0 - np.abs(rng(45).normal(size=(4,))))
        held = w.grad = np.full(4, 7.0)
        with pytest.raises(GradCheckError, match="all exactly zero"):
            grad_check(lambda v: v.relu().sum(), w)
        assert w.requires_grad is True and w.grad is held
        np.testing.assert_array_equal(held, 7.0)

    def test_variable_data_is_restored_through_a_raise(self):
        # call 1 is the analytic pass; call 3 runs at the first coordinate minus eps
        x = t64([1.0, 2.0, 3.0])
        calls = []

        def f(v):
            calls.append(v)
            if len(calls) == 3:
                raise DomainError("probe")
            return v.sum()

        with pytest.raises(DomainError, match="probe"):
            grad_check(f, x)
        assert x.data.tobytes() == np.array([1.0, 2.0, 3.0]).tobytes()


class TestAddRelu:
    def test_float32_is_sum_then_relu_bit_for_bit(self):
        a0, b0 = (rng(s).normal(size=(4, 3, 6, 5)).astype(np.float32) for s in (50, 51))
        g = Tensor(rng(52).normal(size=a0.shape).astype(np.float32))
        runs = []
        for fused in (True, False):
            a, b = parameter(a0.copy()), parameter(b0.copy())
            out = add_relu(a, b) if fused else (a + b).relu()
            (out * g).sum().backward()
            runs.append([out.data, a.grad, b.grad])
        assert 0 < (runs[0][0] == 0).mean() < 1
        for x, y in zip(*runs):
            assert x.dtype == y.dtype == np.float32 and x.tobytes() == y.tobytes()

    def test_gradcheck(self):
        a, b, r = (t64(rng(s).normal(size=(2, 3, 4, 5))) for s in (53, 54, 55))
        assert grad_check(lambda v: (add_relu(v, b) * r).sum(), a) < 1e-6
        assert grad_check(lambda v: (add_relu(a, v) * r).sum(), b) < 1e-6


def _leaf32(seed, shape=MAP):
    return parameter(rng(seed).normal(size=shape).astype(np.float32))


def _const32(seed, shape=MAP):
    return Tensor(rng(seed).normal(size=shape).astype(np.float32))


def _skip_feeds_another_op(op, p, q):
    a, skip = p * _const32(80), q * _const32(81)
    return (op(a, skip) * _const32(82)).sum() + (skip * _const32(83)).sum()


def _taker_gets_a_second_gradient(op, p, q):
    # the walk runs add_relu's rule before the product's, so a's slot takes the masked
    # gradient and the product then adds into it
    a = p * _const32(80)
    return (op(a, q) * _const32(82)).sum() + (a * _const32(83)).sum()


def _one_node_as_both_operands(op, p, q):
    a = p * _const32(80)
    return (op(a, a) * _const32(82)).sum()


ALIASING = {
    "one-node-as-both-operands": _one_node_as_both_operands,
    "skip-feeds-another-op": _skip_feeds_another_op,
    "taker-gets-a-second-gradient": _taker_gets_a_second_gradient,
}


@pytest.mark.parametrize("case", ALIASING)
def test_add_relu_gradients_are_the_two_node_ones_under_aliasing(case, monkeypatch):
    taken, take = [], dtt._Slot._take

    def spy(slot, g):
        taken.append((g, slot.grad is None, g.copy()))
        take(slot, g)
    monkeypatch.setattr(dtt._Slot, "_take", spy)
    runs = []
    for op in (add_relu, lambda a, b: (a + b).relu()):
        p, q = _leaf32(84), _leaf32(85)
        ALIASING[case](op, p, q).backward()
        runs.append((p.grad, q.grad))
    for got, want in zip(*runs):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype == np.float32 and got.tobytes() == want.tobytes()
    if case == "taker-gets-a-second-gradient":
        # the array add_relu handed over was taken into an empty slot and then added to,
        # and the operand that got the same masked gradient kept it as it was
        (g, empty, before), = taken
        assert empty and not np.array_equal(g, before)
        mask = add_relu(_leaf32(84) * _const32(80), _leaf32(85)).data > 0
        assert runs[0][1].tobytes() == (_const32(82).data * mask).tobytes()


TWO_CONSUMERS = {
    "conv2d": (lambda x: conv2d(x, _kernels(86), (1, 1), (1, 1)),
               lambda x: conv2d(x, _kernels(87), (2, 2), (1, 1))),
    "batchnorm": (lambda x: BatchNormReLU2d(MAP[1]).forward(x, training=True),
                  lambda x: BatchNorm2d(MAP[1]).forward(x * _const32(88), training=True)),
}


@pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "interior"])
@pytest.mark.parametrize("case", TWO_CONSUMERS)
def test_an_input_with_two_consumers_gets_the_sum_of_their_gradients(case, leaf):
    # the first rule's dx is taken into the input's slot and the second's added to it
    def grad(consumers):
        p = _leaf32(89)
        x = p if leaf else p + 0.0
        loss = Tensor(np.float32(0))
        for i, f in consumers:
            y = f(x)
            loss = loss + (y * _const32(90 + i, y.shape)).sum()
        loss.backward()
        return p.grad
    first, second = TWO_CONSUMERS[case]
    both = grad([(0, first), (1, second)])
    alone = grad([(0, first)]) + grad([(1, second)])
    assert both.dtype == np.float32 and both.tobytes() == alone.tobytes()


class TestShapeContracts:
    def test_mean_then_broadcast_mul_preserves_shape(self):
        # squeeze -> gate -> rescale pipeline must never drift the map shape
        x = p64(rng(39).normal(size=(6, 5, 4)))
        pooled = mean_axis(mean_axis(x, 2), 1)      # (C,)
        gate = reshape(pooled.sigmoid(), (6, 1, 1))
        out = x * gate
        assert out.shape == x.shape

    def test_reshape_transpose_roundtrip(self):
        x = p64(rng(40).normal(size=(2, 3, 4)))
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
    (lambda: per_column(t64(np.ones((2, 3))), t64(np.ones(3))), ShapeError,
     r"weight \(2, 3\) does not take the columns of \(3,\)"),
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
    (lambda: add_relu(t64(np.ones((2, 3))), t64(np.ones((1, 3)))), ShapeError,
     r"one shape, got \(2, 3\) and \(1, 3\)"),
], ids=["per-column-rank", "conv2d-kernel-rank", "conv2d-input-rank", "conv2d-stride",
        "conv2d-padding", "concat-rank", "grad-check-numeric-nan", "add-relu-shape"])
def test_named_input_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
