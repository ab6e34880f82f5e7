"""Backbone, pooling, and embedding tests."""

import numpy as np
import pytest

import dtcf.tensor as dt
from dtcf.attention import param_count
from dtcf.errors import ConfigError, ShapeError
from dtcf.model import ASPHead, BackboneConfig, ResidualBlock, SpeakerModel
from dtcf.tensor import Tensor, grad_check

TOY = dict(widths=(4, 8, 16, 32), blocks=(1, 1, 1, 1))


def rng(seed=0):
    return np.random.default_rng(seed)


def t64(arr):
    return dt.tensor(arr, dtype=np.float64)


class TestResidualBlock:
    def test_zero_convs_identity_skip_gives_relu(self):
        blk = ResidualBlock(4, 4, rng=rng(1), dtype=np.float64)
        blk.conv1.kernels.data[:] = 0.0
        blk.conv2.kernels.data[:] = 0.0
        x = rng(2).normal(size=(4, 6, 5))
        out = blk.forward(t64(x), training=False).data
        np.testing.assert_allclose(out, np.maximum(x, 0), atol=1e-12)

    def test_strided_shapes(self):
        blk = ResidualBlock(4, 8, stride=(2, 2), rng=rng(3))
        out = blk.forward(dt.tensor(rng(4).normal(size=(4, 10, 8))), training=False)
        assert out.shape == (8, 5, 4)
        blk2 = ResidualBlock(4, 8, stride=(1, 2), rng=rng(5))
        out2 = blk2.forward(dt.tensor(rng(6).normal(size=(4, 10, 8))), training=False)
        assert out2.shape == (8, 10, 4)

    def test_with_dtcf_matches_composed_oracle(self):
        blk = ResidualBlock(3, 3, attention="dtcf", reduction=3, rng=rng(7), dtype=np.float64)
        x = rng(8).normal(size=(3, 5, 4))
        # compose the same pipeline from the already-tested pieces
        h = blk.bn1.forward(blk.conv1.forward(t64(x)), False).relu()
        h = blk.bn2.forward(blk.conv2.forward(h), False)
        h = blk.attn.apply(h)
        expect = np.maximum(h.data + x, 0)
        out = blk.forward(t64(x), training=False).data
        np.testing.assert_allclose(out, expect, atol=1e-5)

    def test_batched_train_mode_gradcheck(self):
        # a downsampling DTCF block: both convs, the 1x1 skip conv and three
        # train-mode batchnorms, over a batch of 3 with a random upstream weight
        blk = ResidualBlock(4, 6, stride=(1, 2), attention="dtcf", reduction=2,
                            rng=rng(107), dtype=np.float64)
        x = t64(rng(207).normal(size=(3, 4, 6, 8)))
        r = t64(rng(307).normal(size=(3, 6, 6, 4)))
        loss = lambda v: (blk.forward(v, training=True) * r).sum()
        assert grad_check(loss, x) < 1e-6
        x.requires_grad = False
        for _, mod in blk.modules():
            for _, p in mod.params():
                assert grad_check(lambda _: loss(x), p) < 1e-6


class TestASP:
    def make(self, dim, hidden=6, seed=10):
        return ASPHead(dim, hidden, rng=rng(seed), dtype=np.float64)

    def test_single_frame_mean_and_sqrt_eps(self):
        asp = self.make(8)
        x = rng(11).normal(size=(2, 1, 4))    # one frame, C*F = 8
        out = asp.forward(t64(x)).data
        frame = x.transpose(1, 0, 2).reshape(8)
        np.testing.assert_allclose(out[:8], frame, atol=1e-12)
        np.testing.assert_allclose(out[8:], np.full(8, np.sqrt(1e-9)), atol=1e-12)

    def test_identical_frames_zero_std(self):
        asp = self.make(6)
        frame = rng(12).normal(size=(2, 1, 3))
        x = np.repeat(frame, 5, axis=1)       # 5 identical frames
        out = asp.forward(t64(x)).data
        np.testing.assert_allclose(out[6:], np.full(6, np.sqrt(1e-9)), atol=1e-7)

    def test_matches_weighted_stats_oracle(self):
        asp = self.make(6, seed=13)
        x = rng(14).normal(size=(2, 3, 3))    # 3 frames
        h = x.transpose(1, 0, 2).reshape(3, 6)
        scores = (np.tanh(h @ asp.w.data.T + asp.b.data) @ asp.v.data).reshape(-1)
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        mu = alpha @ h
        std = np.sqrt(np.maximum(alpha @ (h * h) - mu * mu, 0) + 1e-9)
        out = asp.forward(t64(x)).data
        np.testing.assert_allclose(out, np.concatenate([mu, std]), atol=1e-6)

    def test_weights_are_probabilities(self):
        asp = self.make(8, seed=15)
        for i in range(5):
            x = rng(16 + i).normal(size=(2, 7, 4)) * (10.0 ** (i - 2))
            al = asp.frame_weights(t64(x))
            assert np.all(al >= 0)
            assert float(al.sum()) == pytest.approx(1.0, abs=1e-6)

    def test_gradcheck(self):
        asp = self.make(6, seed=17)
        x = t64(rng(18).normal(size=(2, 4, 3)))
        assert grad_check(lambda v: asp.forward(v).sum(), x) < 1e-6
        for _, p in asp.params():
            assert grad_check(lambda _: asp.forward(x).sum(), p) < 1e-6


class TestBackboneConfig:
    def test_defaults_valid(self):
        cfg = BackboneConfig()
        assert cfg.widths == (32, 64, 128, 256)

    def test_invalid_widths(self):
        with pytest.raises(ConfigError):
            BackboneConfig(widths=(32, 64, 100, 256))

    def test_invalid_attention(self):
        with pytest.raises(ConfigError):
            BackboneConfig(attention="cbam")

    def test_round_trip_dict(self):
        cfg = BackboneConfig(attention="dtcf", widths=(4, 8, 16, 32))
        assert BackboneConfig.from_dict(cfg.to_dict()) == cfg


class TestSpeakerModel:
    def test_stage_trace_t200(self):
        m = SpeakerModel(BackboneConfig(attention="dtcf"), seed=0)
        trace = []
        x = Tensor(rng(20).normal(size=(1, 1, 200, 80)).astype(np.float32))
        fmap = m.forward_map(x, training=False, trace=trace)
        assert trace == [(32, 200, 80), (64, 200, 40), (128, 100, 20), (256, 50, 10)]
        assert fmap.shape == (1, 256, 50, 10)

    def test_doubling_time_doubles_only_time(self):
        m = SpeakerModel(BackboneConfig(**TOY), seed=0)
        for T in (40, 80):
            trace = []
            m.forward_map(Tensor(rng(21).normal(size=(1, 1, T, 80)).astype(np.float32)),
                          trace=trace)
            if T == 40:
                base = trace
        for (c0, t0, f0), (c1, t1, f1) in zip(base, trace):
            assert (c1, f1) == (c0, f0) and t1 == 2 * t0

    def test_param_total_near_nine_million(self):
        m = SpeakerModel(BackboneConfig(attention="dtcf"), seed=0)
        assert abs(m.param_count() - 9_000_000) <= 0.10 * 9_000_000

    def test_embedding_is_512_for_variable_lengths(self):
        m = SpeakerModel(BackboneConfig(**TOY, attention="dtcf"), seed=1)
        for T in (8, 57, 313, 2000):
            emb = m.embed(rng(22).normal(size=(T, 80)).astype(np.float32))
            assert emb.shape == (512,)
            assert np.all(np.isfinite(emb))

    def test_too_short_input(self):
        m = SpeakerModel(BackboneConfig(**TOY), seed=1)
        with pytest.raises(ShapeError):
            m.embed(rng(23).normal(size=(7, 80)).astype(np.float32))

    def test_eval_determinism(self):
        m = SpeakerModel(BackboneConfig(**TOY, attention="se"), seed=2)
        feats = rng(24).normal(size=(50, 80)).astype(np.float32)
        np.testing.assert_array_equal(m.embed(feats), m.embed(feats))

    def test_embedding_sensitive_to_attention_weights(self):
        m = SpeakerModel(BackboneConfig(**TOY, attention="dtcf"), seed=3)
        feats = rng(25).normal(size=(40, 80)).astype(np.float32)
        base = m.embed(feats)
        m.stages[3][0].attn.w2.data[0, :] += 0.5
        assert not np.allclose(m.embed(feats), base)

    def test_attention_kind_changes_params_by_block_sum(self):
        base = SpeakerModel(BackboneConfig(**TOY, attention="none"), seed=0).param_count()
        for kind in ("se", "dtcf"):
            m = SpeakerModel(BackboneConfig(**TOY, attention=kind), seed=0)
            delta = sum(param_count(b.attn) for st in m.stages for b in st)
            assert m.param_count() == base + delta

    def test_batched_forward_matches_single_eval(self):
        m = SpeakerModel(BackboneConfig(**TOY, attention="dtcf"), seed=4)
        feats = rng(26).normal(size=(3, 30, 80)).astype(np.float32)
        batched = m.forward(Tensor(feats), training=False).data
        for i in range(3):
            np.testing.assert_allclose(batched[i], m.embed(feats[i]), atol=2e-5)

    def test_full_model_gradcheck_toy(self):
        cfg = BackboneConfig(**TOY, attention="dtcf")
        m = SpeakerModel(cfg, seed=5, dtype=np.float64)
        feats = t64(rng(27).normal(size=(10, 80)))
        err = grad_check(lambda v: m.forward(v, training=False).sum(), feats)
        assert err < 1e-4
