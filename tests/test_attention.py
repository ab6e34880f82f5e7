"""SE and DTCF attention: oracles, symmetry properties, gradient checks."""

import numpy as np
import pytest

from dtcf.attention import DTCFBlock, SEBlock, reduced_channels
from dtcf.errors import ConfigError, ShapeError
from dtcf.layers import cast, draw, parameter
from dtcf.tensor import Tensor, grad_check, mean_axis, per_column, topo_order


def rng(seed=0):
    return np.random.default_rng(seed)


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


def one(arr):
    """A batch of one sample at float64."""
    return t64(np.asarray(arr)[None])


def se_block(C, r=8, seed=0):
    return draw(cast(SEBlock(C, r), np.float64), rng(seed))


def dtcf_block(C, r=8, seed=0):
    return draw(cast(DTCFBlock(C, r), np.float64), rng(seed))


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


# ------------------------------------------------------------------ oracles

def se_apply_oracle(x, w1, w2):
    C, T, F = x.shape
    xc = np.zeros(C)
    for c in range(C):
        s = 0.0
        for t in range(T):
            for f in range(F):
                s += x[c, t, f]
        xc[c] = s / (T * F)
    mask = sigmoid(w2 @ np.maximum(w1 @ xc, 0.0))
    out = np.zeros_like(x)
    for c in range(C):
        for t in range(T):
            for f in range(F):
                out[c, t, f] = x[c, t, f] * mask[c]
    return xc, mask, out


def dtcf_apply_oracle(x, w1, w2, w3):
    C, T, F = x.shape
    xcf = x.mean(axis=1)
    xct = x.mean(axis=2)
    u = np.concatenate([xcf, xct], axis=1)          # (C, F+T), freq first
    enc = np.maximum(w1 @ u, 0.0)                   # column-wise 1x1 conv
    part_f, part_t = enc[:, :F], enc[:, F:]
    mct = sigmoid(w2 @ part_t)                      # (C, T)
    mcf = sigmoid(w3 @ part_f)                      # (C, F)
    out = np.zeros_like(x)
    for c in range(C):
        for t in range(T):
            for f in range(F):
                out[c, t, f] = x[c, t, f] * mct[c, t] * mcf[c, f]
    return mct, mcf, out


# ------------------------------------------------------------------ SE

class TestSE:
    def test_squeeze_constant(self):
        block = se_block(4)
        out = block.squeeze(Tensor(np.full((1, 4, 3, 5), 2.5, dtype=np.float64)))
        np.testing.assert_allclose(out.data[0], np.full(4, 2.5), atol=1e-12)

    def test_squeeze_hand_mean(self):
        x = np.zeros((2, 2, 2))
        x[0] = [[1, 3], [5, 7]]
        out = se_block(2, r=2).squeeze(one(x))
        assert out.data[0, 0] == pytest.approx(4.0)

    def test_squeeze_matches_loop(self):
        x = rng(1).normal(size=(4, 6, 5))
        xc, _, _ = se_apply_oracle(x, np.zeros((1, 4)), np.zeros((4, 1)))
        out = se_block(4, r=4).squeeze(one(x))
        np.testing.assert_allclose(out.data[0], xc, atol=1e-7)

    def test_mask_zero_weights_half(self):
        block = se_block(8, r=2)
        block.w1.data[:] = 0.0
        block.w2.data[:] = 0.0
        m = block.mask(one(rng(2).normal(size=8)))
        np.testing.assert_allclose(m.data[0], np.full(8, 0.5), atol=1e-12)

    def test_mask_in_unit_interval(self):
        block = se_block(8, r=2, seed=3)
        m = block.mask(one(rng(4).normal(size=8) * 10)).data[0]
        assert np.all(m > 0) and np.all(m < 1)

    def test_mask_matches_two_matmul_oracle(self):
        block = se_block(8, r=2, seed=5)
        xc = rng(6).normal(size=8)
        expect = sigmoid(block.w2.data @ np.maximum(block.w1.data @ xc, 0.0))
        np.testing.assert_allclose(block.mask(one(xc)).data[0], expect, atol=1e-6)

    def test_apply_half_and_bound(self):
        block = se_block(4)
        block.w1.data[:] = 0.0
        block.w2.data[:] = 0.0
        x = rng(7).normal(size=(4, 5, 6))
        out = block.apply(one(x)).data[0]
        np.testing.assert_allclose(out, x / 2, atol=1e-12)
        block2 = se_block(4, seed=8)
        out2 = block2.apply(one(x)).data[0]
        assert np.all(np.abs(out2) <= np.abs(x) + 1e-15)

    def test_apply_matches_loop_oracle(self):
        block = se_block(4, r=4, seed=9)
        x = rng(10).normal(size=(4, 5, 6))
        _, _, expect = se_apply_oracle(x, block.w1.data, block.w2.data)
        np.testing.assert_allclose(block.apply(one(x)).data[0], expect, atol=1e-6)

    def test_shape_preserved_and_batched(self):
        block = se_block(6, r=2, seed=11)
        for shape in [(1, 6, 1, 1), (1, 6, 9, 2), (1, 6, 3, 17)]:
            x = rng(12).normal(size=shape)
            assert block.apply(t64(x)).shape == shape
        xb = rng(13).normal(size=(3, 6, 4, 5))
        out = block.apply(t64(xb))
        assert out.shape == xb.shape
        for i in range(3):
            np.testing.assert_allclose(out.data[i], block.apply(one(xb[i])).data[0], atol=1e-12)

    def test_permutation_invariance(self):
        block = se_block(5, r=5, seed=14)
        x = rng(15).normal(size=(5, 6, 7))
        m0 = block.mask(block.squeeze(one(x))).data
        r = rng(16)
        for _ in range(5):
            pt, pf = r.permutation(6), r.permutation(7)
            m1 = block.mask(block.squeeze(one(x[:, pt][:, :, pf]))).data
            np.testing.assert_allclose(m1, m0, atol=1e-12)


# ------------------------------------------------------------------ DTCF

class TestDTCF:
    def test_pool_constant(self):
        xcf, xct = dtcf_block(4).pool(Tensor(np.full((1, 4, 3, 5), 1.5, dtype=np.float64)))
        np.testing.assert_allclose(xcf.data[0], np.full((4, 5), 1.5), atol=1e-12)
        np.testing.assert_allclose(xct.data[0], np.full((4, 3), 1.5), atol=1e-12)

    def test_pool_hand_means(self):
        x = np.zeros((1, 2, 2))
        x[0] = [[1, 3], [5, 7]]
        xcf, xct = dtcf_block(1).pool(one(x))
        np.testing.assert_allclose(xcf.data[0, 0], [3, 5])
        np.testing.assert_allclose(xct.data[0, 0], [2, 6])

    def test_pool_matches_loop(self):
        x = rng(17).normal(size=(3, 4, 5))
        xcf, xct = dtcf_block(3, r=3).pool(one(x))
        np.testing.assert_allclose(xcf.data[0], x.mean(axis=1), atol=1e-7)
        np.testing.assert_allclose(xct.data[0], x.mean(axis=2), atol=1e-7)

    def test_encode_zero_weights(self):
        block = dtcf_block(4)
        block.w1.data[:] = 0.0
        xcf, xct = block.pool(one(rng(18).normal(size=(4, 3, 5))))
        hf, ht = block.encode(xcf, xct)
        np.testing.assert_array_equal(hf.data[0], np.zeros((1, 5)))
        np.testing.assert_array_equal(ht.data[0], np.zeros((1, 3)))

    def test_encode_column_independence(self):
        block = dtcf_block(8, seed=19)
        block.w1.data[:] = np.abs(block.w1.data) + 0.1   # keep the relu pass-through
        xcf = rng(20).normal(size=(8, 4))
        xct = rng(21).normal(size=(8, 3))
        columns = lambda pair: np.concatenate([h.data[0] for h in pair], axis=1)
        base = columns(block.encode(one(xcf), one(xct)))
        xcf2 = xcf.copy()
        xcf2[:, 2] += 5.0
        pert = columns(block.encode(one(xcf2), one(xct)))
        changed = np.any(base != pert, axis=0)
        assert changed[2] and not changed[[0, 1, 3, 4, 5, 6]].any()

    def test_encode_matches_per_column_matmul(self):
        block = dtcf_block(8, r=8, seed=22)   # C' = 1
        xcf = rng(23).normal(size=(8, 4))
        xct = rng(24).normal(size=(8, 3))
        hf, ht = block.encode(one(xcf), one(xct))
        np.testing.assert_allclose(hf.data[0], np.maximum(block.w1.data @ xcf, 0.0), atol=1e-6)
        np.testing.assert_allclose(ht.data[0], np.maximum(block.w1.data @ xct, 0.0), atol=1e-6)

    def test_masks_zero_weights_half(self):
        block = dtcf_block(4, seed=25)
        block.w2.data[:] = 0.0
        block.w3.data[:] = 0.0
        enc = rng(26).normal(size=(1, 9))
        mct, mcf = block.masks(one(enc[:, :5]), one(enc[:, 5:]))
        np.testing.assert_allclose(mct.data[0], np.full((4, 4), 0.5), atol=1e-12)
        np.testing.assert_allclose(mcf.data[0], np.full((4, 5), 0.5), atol=1e-12)

    def test_masks_in_unit_interval_and_oracle(self):
        block = dtcf_block(4, r=4, seed=27)
        enc = rng(28).normal(size=(1, 9))
        mct, mcf = block.masks(one(enc[:, :5]), one(enc[:, 5:]))
        mct, mcf = mct.data[0], mcf.data[0]
        assert np.all((mct > 0) & (mct < 1))
        assert np.all((mcf > 0) & (mcf < 1))
        np.testing.assert_allclose(mct, sigmoid(block.w2.data @ enc[:, 5:]), atol=1e-6)
        np.testing.assert_allclose(mcf, sigmoid(block.w3.data @ enc[:, :5]), atol=1e-6)

    def test_apply_quarter_with_zero_weights(self):
        block = dtcf_block(4)
        for w in (block.w1, block.w2, block.w3):
            w.data[:] = 0.0
        x = rng(29).normal(size=(4, 5, 6))
        np.testing.assert_allclose(block.apply(one(x)).data[0], x / 4, atol=1e-12)

    def test_apply_bound_and_shape(self):
        block = dtcf_block(4, r=4, seed=30)
        x = rng(31).normal(size=(4, 5, 6))
        out = block.apply(one(x))
        assert out.shape == (1,) + x.shape
        assert np.all(np.abs(out.data[0]) <= np.abs(x) + 1e-15)

    def test_apply_matches_end_to_end_oracle(self):
        block = dtcf_block(4, r=4, seed=32)
        x = rng(33).normal(size=(4, 5, 6))
        _, _, expect = dtcf_apply_oracle(x, block.w1.data, block.w2.data, block.w3.data)
        np.testing.assert_allclose(block.apply(one(x)).data[0], expect, atol=1e-6)

    def test_apply_batched_matches_single(self):
        block = dtcf_block(4, r=2, seed=34)
        xb = rng(35).normal(size=(3, 4, 5, 6))
        out = block.apply(t64(xb))
        for i in range(3):
            np.testing.assert_allclose(out.data[i], block.apply(one(xb[i])).data[0], atol=1e-12)

    def test_time_permutation_equivariance(self):
        block = dtcf_block(4, r=4, seed=36)
        x = rng(37).normal(size=(4, 6, 5))
        xcf, xct = block.pool(one(x))
        mct0, mcf0 = block.masks(*block.encode(xcf, xct))
        pt = rng(38).permutation(6)
        xcf2, xct2 = block.pool(one(x[:, pt, :]))
        mct1, mcf1 = block.masks(*block.encode(xcf2, xct2))
        np.testing.assert_allclose(mct1.data[0], mct0.data[0][:, pt], atol=1e-12)
        np.testing.assert_allclose(mcf1.data[0], mcf0.data[0], atol=1e-12)

    def test_freq_permutation_equivariance(self):
        block = dtcf_block(4, r=4, seed=39)
        x = rng(40).normal(size=(4, 6, 5))
        xcf, xct = block.pool(one(x))
        mct0, mcf0 = block.masks(*block.encode(xcf, xct))
        pf = rng(41).permutation(5)
        xcf2, xct2 = block.pool(one(x[:, :, pf]))
        mct1, mcf1 = block.masks(*block.encode(xcf2, xct2))
        np.testing.assert_allclose(mcf1.data[0], mcf0.data[0][:, pf], atol=1e-12)
        np.testing.assert_allclose(mct1.data[0], mct0.data[0], atol=1e-12)

    def test_locality_of_time_mask(self):
        # changing frame t cannot move any other column of the time mask
        block = dtcf_block(4, r=2, seed=42)
        x = rng(43).normal(size=(4, 6, 5))
        xcf, xct = block.pool(one(x))
        mct0 = block.masks(*block.encode(xcf, xct))[0].data[0]
        x2 = x.copy()
        x2[:, 3, :] += rng(44).normal(size=(4, 5))
        xcf2, xct2 = block.pool(one(x2))
        mct1 = block.masks(*block.encode(xcf2, xct2))[0].data[0]
        others = [t for t in range(6) if t != 3]
        np.testing.assert_allclose(mct1[:, others], mct0[:, others], atol=1e-12)
        assert np.any(np.abs(mct1[:, 3] - mct0[:, 3]) > 1e-9)

    def test_degenerate_t1_f1(self):
        block = dtcf_block(4, r=2, seed=45)
        x = rng(46).normal(size=(4, 1, 1))
        xcf, xct = block.pool(one(x))
        np.testing.assert_allclose(xcf.data[0], x[:, 0, :], atol=1e-12)
        np.testing.assert_allclose(xct.data[0], x[:, :, 0], atol=1e-12)
        xv = x[:, 0, 0]
        hidden = np.maximum(block.w1.data @ xv, 0.0)
        expect = xv * sigmoid(block.w2.data @ hidden) * sigmoid(block.w3.data @ hidden)
        np.testing.assert_allclose(block.apply(one(x)).data[0, :, 0, 0], expect, atol=1e-10)

    def test_full_block_gradcheck(self):
        block = dtcf_block(4, r=2, seed=47)
        x = one(rng(48).normal(size=(4, 5, 6)))
        assert grad_check(lambda v: block.apply(v).sum(), x) < 1e-6
        for _, w in block.named_params():
            assert grad_check(lambda _: block.apply(x).sum(), w) < 1e-6

    def test_gate_forward_is_the_two_broadcast_multiplies(self):
        from dtcf.attention import _gate
        r = rng(51)
        x = r.normal(size=(2, 6, 9, 7)).astype(np.float32)
        mct = r.uniform(size=(2, 6, 9)).astype(np.float32)
        mcf = r.uniform(size=(2, 6, 7)).astype(np.float32)
        out = _gate(Tensor(x), Tensor(mct), Tensor(mcf))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.data, x * mct.reshape(2, 6, 9, 1) * mcf.reshape(2, 6, 1, 7))

    def test_gate_gradcheck(self):
        from dtcf.attention import _gate
        r = rng(52)
        x, mct, mcf = (t64(r.normal(size=shape)) for shape in ((2, 3, 5, 4), (2, 3, 5), (2, 3, 4)))
        loss = lambda: (_gate(x, mct, mcf) * 0.7).tanh().sum()
        for target in (x, mct, mcf):
            assert grad_check(lambda _: loss(), target) < 1e-6

    @pytest.mark.parametrize("b, c, t, f, r", [
        (1, 4, 5, 6, 4), (1, 8, 1, 7, 2), (1, 8, 6, 1, 2), (1, 4, 1, 1, 8), (3, 8, 5, 4, 2),
        (3, 4, 1, 9, 8), (3, 16, 7, 1, 4), (2, 16, 9, 11, 16), (3, 6, 4, 3, 3), (2, 12, 2, 5, 4),
    ], ids=lambda v: str(v))
    def test_apply_matches_concat_form_oracle(self, b, c, t, f, r):
        # each mask is an excitation of one profile's columns; the oracle encodes the
        # concatenated [freq, time] profile and splits it, as the paper draws the block
        block = dtcf_block(c, r=r, seed=60 + b + c + t + f + r)
        x = rng(61 + c * t * f).normal(size=(b, c, t, f))
        out = block.apply(t64(x)).data
        for i in range(b):
            _, _, expect = dtcf_apply_oracle(x[i], block.w1.data, block.w2.data, block.w3.data)
            np.testing.assert_allclose(out[i], expect, rtol=0, atol=1e-12)

    def test_train_mode_block_records_11_op_nodes(self):
        # two means, two (map, relu) encodings, two (map, sigmoid) masks and the gate
        block = draw(DTCFBlock(8, 4), rng(62))
        x = parameter(rng(63).normal(size=(2, 8, 6, 5)).astype(np.float32))
        order = topo_order(block.apply(x))
        ops = [node for node in order if node._parents]
        # the rest of the tape is its leaves, each its own slot: x and the block's weights
        leaves = [node for node in order if not node._parents]
        assert len(ops) == 11 and len(leaves) == 1 + len(block.named_params())
        assert x in leaves and all(w in leaves for _, w in block.named_params())

    def test_se_block_gradcheck(self):
        block = se_block(4, r=2, seed=49)
        x = one(rng(50).normal(size=(4, 5, 6)))
        assert grad_check(lambda v: block.apply(v).sum(), x) < 1e-6
        for _, w in block.named_params():
            assert grad_check(lambda _: block.apply(x).sum(), w) < 1e-6


# ------------------------------------------------------------------ the per-column map

def per_column_chain(w, u, g):
    """The (C2, C1) map of every column of (B, C1, P) and its gradients for the upstream
    gradient ``g``, in numpy as the five-node chain transpose, reshape, matmul, reshape,
    transpose computed them: the output and the weight and input gradients."""
    b, c1, p = u.shape
    c2 = w.shape[0]
    flat = np.ascontiguousarray(u.transpose(1, 0, 2)).reshape(c1, b * p)
    g2 = np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(c2, b * p)
    out = (w @ flat).reshape(c2, b, p).transpose(1, 0, 2)
    return out, g2 @ flat.T, (w.T @ g2).reshape(c1, b, p).transpose(1, 0, 2)


PER_COLUMN_SHAPES = [(1, 1, 1, 1), (1, 4, 1, 7), (2, 1, 8, 3), (3, 8, 2, 1), (3, 32, 4, 29),
                     (2, 16, 64, 40), (16, 32, 4, 120)]


class TestPerColumn:
    """``tensor.per_column`` on DTCF's (B, C1, P) profiles; test_tensor checks (B, C1) inputs."""

    @pytest.mark.parametrize("b, c2, c1, p", PER_COLUMN_SHAPES, ids=lambda v: str(v))
    def test_float32_bit_identical_to_the_chain(self, b, c2, c1, p):
        r = rng(64 + b * c2 * c1 * p)
        w0 = r.normal(size=(c2, c1)).astype(np.float32)
        u0 = r.normal(size=(b, c1, p)).astype(np.float32)
        g = r.normal(size=(b, c2, p)).astype(np.float32)
        w, u = parameter(w0.copy()), parameter(u0.copy())
        out = per_column(w, u)
        (out * Tensor(g)).sum().backward()
        for got, expect in zip((out.data, w.grad, u.grad), per_column_chain(w0, u0, g)):
            assert got.dtype == np.float32 and got.shape == expect.shape
            np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("b, c2, c1, p", PER_COLUMN_SHAPES[:5], ids=lambda v: str(v))
    def test_gradcheck(self, b, c2, c1, p):
        r = rng(65 + b * c2 * c1 * p)
        w, u = t64(r.normal(size=(c2, c1))), t64(r.normal(size=(b, c1, p)))
        loss = lambda: (per_column(w, u) * 0.7).tanh().sum()
        for target in (w, u):
            assert grad_check(lambda _: loss(), target) < 1e-6

    def test_wrong_channel_count_raises(self):
        with pytest.raises(ShapeError, match=r"weight \(3, 4\) does not take the columns of"):
            per_column(t64(np.ones((3, 4))), t64(np.ones((2, 5, 6))))


# ------------------------------------------------------------------ parameters

class TestParamCount:
    def test_se_64(self):
        assert se_block(64).param_count() == 2 * 64 * 8 == 1024

    def test_dtcf_64(self):
        assert dtcf_block(64).param_count() == 3 * 64 * 8 == 1536

    def test_dtcf_8_clamped(self):
        assert dtcf_block(8, r=8).param_count() == 3 * 8 * 1 == 24

    @pytest.mark.parametrize("C", [32, 64, 128, 256])
    def test_formula_family(self, C):
        cr = C // 8
        assert se_block(C).param_count() == 2 * C * cr
        assert dtcf_block(C).param_count() == 3 * C * cr

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            reduced_channels(12, 8)
        assert reduced_channels(4, 8) == 1


@pytest.mark.parametrize("call, match", [
    (lambda: se_block(4).squeeze(one(np.ones((4, 0, 5)))), r"empty axis 2 of shape \(1, 4, 0\)"),
    (lambda: dtcf_block(4).pool(one(np.ones((4, 3, 0)))), r"empty axis 3 of shape \(1, 4, 3, 0\)"),
    (lambda: mean_axis(Tensor(np.zeros((1, 2, 0, 3))), 2), r"empty axis 2 of shape \(1, 2, 0, 3\)"),
], ids=["se-squeeze-no-frames", "dtcf-pool-no-bins", "mean-axis-empty"])
def test_empty_axis_raises(call, match):
    # mean_axis alone says the rule; the blocks' pooling reaches it
    with pytest.raises(ShapeError, match=match):
        call()
