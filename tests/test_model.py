"""Backbone, pooling, and embedding tests."""

import hashlib

import numpy as np
import pytest

from dtcf.attention import DTCFBlock, SEBlock
from dtcf.errors import ConfigError, ShapeError
from dtcf.layers import cast, draw
from dtcf.loss import AAMHead
from dtcf.model import ATTENTION_KINDS, ASPHead, BackboneConfig, ResidualBlock, SpeakerModel
from dtcf.tensor import Tensor, grad_check, no_grad

TOY = dict(widths=(4, 8, 16, 32), blocks=(1, 1, 1, 1))


def rng(seed=0):
    return np.random.default_rng(seed)


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


def one(arr):
    """A batch of one sample at float64."""
    return t64(np.asarray(arr)[None])


def stage_shapes(model, x):
    """The eval-mode backbone map and the (C, T, F) shape after each stage, walked block by block."""
    v = model.stem_bn.forward(model.stem_conv.forward(x)).relu()
    shapes = []
    for stage in model.stages:
        for block in stage:
            v = block.forward(v)
        shapes.append(v.shape[-3:])
    return v, shapes


class TestResidualBlock:
    def test_zero_convs_identity_skip_gives_relu(self):
        blk = draw(cast(ResidualBlock(4, 4, attention="none", reduction=8), np.float64), rng(1))
        blk.conv1.kernels.data[:] = 0.0
        blk.conv2.kernels.data[:] = 0.0
        x = rng(2).normal(size=(4, 6, 5))
        out = blk.forward(one(x), training=False).data[0]
        np.testing.assert_allclose(out, np.maximum(x, 0), atol=1e-12)

    def test_strided_shapes(self):
        blk = draw(ResidualBlock(4, 8, stride=(2, 2), attention="none", reduction=8), rng(3))
        out = blk.forward(Tensor(rng(4).normal(size=(1, 4, 10, 8)).astype(np.float32)),
                          training=False)
        assert out.shape == (1, 8, 5, 4)
        blk2 = draw(ResidualBlock(4, 8, stride=(1, 2), attention="none", reduction=8), rng(5))
        out2 = blk2.forward(Tensor(rng(6).normal(size=(1, 4, 10, 8)).astype(np.float32)),
                            training=False)
        assert out2.shape == (1, 8, 10, 4)

    def test_with_dtcf_matches_composed_oracle(self):
        blk = draw(cast(ResidualBlock(3, 3, attention="dtcf", reduction=3), np.float64), rng(7))
        x = rng(8).normal(size=(3, 5, 4))
        # compose the same pipeline from the already-tested pieces
        h = blk.bn1.forward(blk.conv1.forward(one(x)), False).relu()
        h = blk.bn2.forward(blk.conv2.forward(h), False)
        h = blk.attn.apply(h)
        expect = np.maximum(h.data[0] + x, 0)
        out = blk.forward(one(x), training=False).data[0]
        np.testing.assert_allclose(out, expect, atol=1e-5)

    def test_batched_train_mode_gradcheck(self):
        # a downsampling DTCF block: both convs, the 1x1 skip conv and three
        # train-mode batchnorms, over a batch of 3 with a random upstream weight
        blk = draw(cast(ResidualBlock(4, 6, stride=(1, 2), attention="dtcf", reduction=2),
                        np.float64), rng(107))
        x = t64(rng(207).normal(size=(3, 4, 6, 8)))
        r = t64(rng(307).normal(size=(3, 6, 6, 4)))
        loss = lambda v: (blk.forward(v, training=True) * r).sum()
        assert grad_check(loss, x) < 1e-6
        for _, mod in blk.modules():
            for _, p in mod.named_params():
                assert grad_check(lambda _: loss(x), p) < 1e-6


class TestASP:
    def make(self, dim, hidden=6, seed=10):
        return draw(cast(ASPHead(dim, hidden), np.float64), rng(seed))

    def test_single_frame_mean_and_sqrt_eps(self):
        asp = self.make(8)
        x = rng(11).normal(size=(2, 1, 4))    # one frame, C*F = 8
        out = asp.forward(one(x)).data[0]
        frame = x.transpose(1, 0, 2).reshape(8)
        np.testing.assert_allclose(out[:8], frame, atol=1e-12)
        np.testing.assert_allclose(out[8:], np.full(8, np.sqrt(1e-9)), atol=1e-12)

    def test_identical_frames_zero_std(self):
        asp = self.make(6)
        frame = rng(12).normal(size=(2, 1, 3))
        x = np.repeat(frame, 5, axis=1)       # 5 identical frames
        out = asp.forward(one(x)).data[0]
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
        out = asp.forward(one(x)).data[0]
        np.testing.assert_allclose(out, np.concatenate([mu, std]), atol=1e-6)

    def test_weights_are_probabilities(self):
        asp = self.make(8, seed=15)
        for i in range(5):
            x = rng(16 + i).normal(size=(2, 7, 4)) * (10.0 ** (i - 2))
            with no_grad():
                al = asp._weights(asp._frames(t64(x[None]))).data
            assert np.all(al >= 0)
            assert float(al.sum()) == pytest.approx(1.0, abs=1e-6)

    def test_gradcheck(self):
        asp = self.make(6, seed=17)
        x = one(rng(18).normal(size=(2, 4, 3)))
        assert grad_check(lambda v: asp.forward(v).sum(), x) < 1e-6
        for _, p in asp.named_params():
            assert grad_check(lambda _: asp.forward(x).sum(), p) < 1e-6


class TestModuleWalk:
    def test_block_names_its_layers_entries_in_order(self):
        blk = draw(ResidualBlock(4, 8, stride=(1, 2), attention="dtcf", reduction=2), rng(0))
        assert [name for name, _ in blk.named_params()] == [
            "conv1.kernels", "bn1.gamma", "bn1.beta", "conv2.kernels", "bn2.gamma", "bn2.beta",
            "down_conv.kernels", "down_bn.gamma", "down_bn.beta", "attn.w1", "attn.w2", "attn.w3"]
        assert [name for name, _ in blk.named_buffers()] == [
            f"{bn}.{stat}" for bn in ("bn1", "bn2", "down_bn")
            for stat in ("running_mean", "running_var")]
        assert dict(blk.named_params())["attn.w3"] is blk.attn.w3

    def test_load_buffers_writes_in_place(self):
        m = SpeakerModel(BackboneConfig(**TOY, attention="dtcf"), seed=0)
        feats = rng(30).normal(size=(40, 80)).astype(np.float32)
        before = m.embed(feats)
        held = m.named_buffers()
        values = {name: rng(i).uniform(0.5, 2.0, buf.shape).astype(buf.dtype)
                  for i, (name, buf) in enumerate(held)}
        m.load_buffers(values)
        for (name, buf), (_, old) in zip(m.named_buffers(), held):
            assert buf is old
            np.testing.assert_array_equal(buf, values[name])
        assert not np.allclose(m.embed(feats), before)

    @pytest.mark.parametrize("kind", ATTENTION_KINDS)
    def test_param_count_is_the_sum_over_blocks_and_heads(self, kind):
        m = SpeakerModel(BackboneConfig(**TOY, attention=kind), seed=0)
        parts = [m.stem_conv, m.stem_bn, *(b for stage in m.stages for b in stage), m.asp, m.emb]
        assert m.param_count() == sum(part.param_count() for part in parts)


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
        x = Tensor(rng(20).normal(size=(1, 1, 200, 80)).astype(np.float32))
        fmap, trace = stage_shapes(m, x)
        assert trace == [(32, 200, 80), (64, 200, 40), (128, 100, 20), (256, 50, 10)]
        assert fmap.shape == (1, 256, 50, 10)

    def test_doubling_time_doubles_only_time(self):
        m = SpeakerModel(BackboneConfig(**TOY), seed=0)
        for T in (40, 80):
            x = Tensor(rng(21).normal(size=(1, 1, T, 80)).astype(np.float32))
            fmap, trace = stage_shapes(m, x)
            assert np.array_equal(fmap.data, m.forward_map(x).data)
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
            delta = sum(b.attn.param_count() for st in m.stages for b in st)
            assert m.param_count() == base + delta

    def test_batched_forward_matches_single_eval(self):
        m = SpeakerModel(BackboneConfig(**TOY, attention="dtcf"), seed=4)
        feats = rng(26).normal(size=(3, 30, 80)).astype(np.float32)
        batched = m.forward(Tensor(feats), training=False).data
        for i in range(3):
            np.testing.assert_allclose(batched[i], m.embed(feats[i]), atol=2e-5)

    def test_full_model_gradcheck_toy(self):
        cfg = BackboneConfig(**TOY, attention="dtcf")
        m = draw(cast(SpeakerModel(cfg, seed=None), np.float64), rng(5))
        feats = one(rng(27).normal(size=(10, 80)))
        err = grad_check(lambda v: m.forward(v, training=False).sum(), feats)
        assert err < 1e-4

    @pytest.mark.parametrize("kind", ["dtcf", "se"])
    def test_float32_embed_within_1e5_of_float64(self, kind):
        # seeded non-identity batchnorm statistics and affine terms, as in a trained model;
        # the float64 model runs the same weights
        cfg = BackboneConfig(**TOY, attention=kind)
        m32 = SpeakerModel(cfg, seed=7)
        r = rng(29)
        for name, p in m32.named_params():
            if name.endswith(".gamma"):
                p.data[:] = r.uniform(0.5, 1.5, p.shape)
            elif name.endswith(".beta"):
                p.data[:] = r.normal(scale=0.3, size=p.shape)
        for name, buf in m32.named_buffers():
            buf[:] = r.uniform(0.5, 2.0, buf.shape) if name.endswith("var") else r.normal(size=buf.shape)
        m64 = cast(SpeakerModel(cfg, seed=None), np.float64)
        for (_, p), (_, q) in zip(m32.named_params(), m64.named_params()):
            q.data[:] = p.data
        for (_, a), (_, b) in zip(m32.named_buffers(), m64.named_buffers()):
            b[:] = a
        for t in (40, 97):
            feats = rng(30 + t).normal(size=(t, 80)).astype(np.float32)
            got, want = m32.embed(feats), m64.embed(feats)
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-5

    def test_embed_is_row_0_of_a_batch_of_one(self):
        m = SpeakerModel(BackboneConfig(**TOY, attention="dtcf"), seed=6)
        feats = rng(28).normal(size=(30, 80)).astype(np.float32)
        with no_grad():
            row = m.forward(Tensor(feats[None]), training=False).data[0]
        assert np.array_equal(m.embed(feats), row)


@pytest.mark.parametrize("call", [
    lambda m: m.forward(Tensor(np.zeros((30, 80), np.float32))),
    lambda m: m.forward(Tensor(np.zeros((1, 1, 30, 80), np.float32))),
    lambda m: m.embed(np.zeros((1, 30, 80), np.float32)),
], ids=["forward-rank-2", "forward-rank-4", "embed-3d"])
def test_other_ranks_rejected(call):
    # the model is the one entry point that checks the rank of its input
    with pytest.raises(ShapeError, match=r"expected \(B, T, 80\) features, got shape"):
        call(SpeakerModel(BackboneConfig(**TOY), seed=0))


@pytest.mark.parametrize("call", [
    lambda: SEBlock(8, 2).mask(Tensor(np.ones((2, 6)))),
    lambda: DTCFBlock(8, 2).encode(Tensor(np.ones((2, 6, 5))), Tensor(np.ones((2, 6, 7)))),
    lambda: ASPHead(8 * 5, 4).forward(Tensor(np.ones((2, 8, 7, 4)))),
], ids=["se_mask", "dtcf_encode", "asp_forward"])
def test_wrong_channel_count_raises(call):
    # each block leaves this check to its first product over channels
    with pytest.raises(ShapeError):
        call()


@pytest.mark.parametrize("call, error, match", [
    (lambda: BackboneConfig(widths=(4, 8, 16)), ConfigError, "exactly 4 stages"),
    (lambda: BackboneConfig(blocks=(3, 4, 6)), ConfigError, "exactly 4 stages"),
    (lambda: BackboneConfig(blocks=(1, 0, 1, 1)), ConfigError, "block counts must be >= 1"),
    (lambda: SpeakerModel(BackboneConfig(**TOY)).forward(Tensor(np.zeros((1, 10, 40), np.float32))),
     ShapeError, "expected 80 mel bins, got 40"),
], ids=["three-widths", "three-block-counts", "zero-blocks", "wrong-mel-count"])
def test_named_input_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


def initial_values_digest(module) -> str:
    """sha256 over each parameter and buffer in walk order: its name, dtype and shape, then its bytes."""
    digest = hashlib.sha256()
    for name, arr in [(n, p.data) for n, p in module.named_params()] + module.named_buffers():
        digest.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


# initial_values_digest of SpeakerModel(seed=3) by (width, attention, dtype): the seeded draw's
# values and order, which every seeded run and pinned digest downstream rests on
SEED_3_MODELS = {
    ("toy", "none", "float32"): "4c1622424adb882101daaaf07a9f84a121ab7c3476a2f3b97ef3b38bda5579da",
    ("toy", "none", "float64"): "8507ad8762fc1b1cc646320ed735480a40dd7f276d87a1123833001b12581740",
    ("toy", "se", "float32"): "2ac1a7549df2c9b7a68444632d717465271be41cec7fdaa575c01d10e32b2178",
    ("toy", "se", "float64"): "5b051e3e256bc6b0aa04294d1ccda2ede3223bdea61af878b28534dd7bfded64",
    ("toy", "dtcf", "float32"): "7b772248ba36fd98e69eb638e606e669da42ddab3768e76aff7c30b5b7839dd0",
    ("toy", "dtcf", "float64"): "24a9809cf94196323034faa475baafe4b01b2f96725c2e7f0b21233028d320c3",
    ("full", "none", "float32"): "098d983c93c0c626ac88ba1efcfe42b88a6c6d8916e18a01814a4e96391f825f",
    ("full", "none", "float64"): "4acd6b6739d1ea7909b2faa6cad0311436aa7820d7222c9521b256fec083f795",
    ("full", "se", "float32"): "4526dc8885166599140bea22d764481d8445af19575285f4ce0d606da5b6c143",
    ("full", "se", "float64"): "f58e0c4893735b3ec68ebc422140de51f06d717de173066ffedf5030ef97964e",
    ("full", "dtcf", "float32"): "7ab1bff42ec3d5541584dc8fa91a32f7737d7bb6036cb535909a0df2a0426790",
    ("full", "dtcf", "float64"): "d88acdf69a74e4a0ca7781faf795585239522f6a22c92c3566554a29904a0bcf",
}
AAM_HEAD_7_512_SEED_9 = "f24d386c19e83ff894aedf1701793f96757644c47f8247d48f5e773cbbdd4d98"
AAM_HEAD_7_512_SEED_9_FLOAT64 = "b1884dcaef58dbc00792afed8b7664830a3544224e49dd95e2445598b7684aa1"


@pytest.mark.parametrize("width, kind, dtype", list(SEED_3_MODELS),
                         ids=["-".join(key) for key in SEED_3_MODELS])
def test_seeded_initial_values_pinned(width, kind, dtype):
    cfg = BackboneConfig(**(TOY if width == "toy" else {}), attention=kind)
    if dtype == "float32":
        model = SpeakerModel(cfg, seed=3)
    else:
        model = draw(cast(SpeakerModel(cfg, seed=None), np.float64), rng(3))
    assert initial_values_digest(model) == SEED_3_MODELS[width, kind, dtype]


@pytest.mark.parametrize("kind", ATTENTION_KINDS)
def test_undrawn_model_holds_its_declared_values(kind):
    # seed=None leaves every weight at zero for a checkpoint to fill; the model still runs
    m = SpeakerModel(BackboneConfig(**TOY, attention=kind), seed=None)
    for name, p in m.named_params():
        assert np.array_equal(p.data, np.ones_like(p.data) if name.endswith(".gamma")
                              else np.zeros_like(p.data)), name
    assert all(np.all(np.isfinite(buf)) for _, buf in m.named_buffers())
    emb = m.embed(rng(31).normal(size=(30, 80)).astype(np.float32))
    assert np.all(np.isfinite(emb))
    assert not np.any(AAMHead(7, 512, rng=None).weights.data)


def test_seeded_head_initial_values_pinned():
    head = AAMHead(7, 512, rng=rng(9))
    assert initial_values_digest(head) == AAM_HEAD_7_512_SEED_9


def test_seeded_float64_head_initial_values_pinned():
    head = draw(cast(AAMHead(7, 512, rng=None), np.float64), rng(9))
    assert initial_values_digest(head) == AAM_HEAD_7_512_SEED_9_FLOAT64


@pytest.mark.parametrize("width", ["toy", "full"])
@pytest.mark.parametrize("kind", ATTENTION_KINDS)
def test_built_model_and_head_are_float32(width, kind):
    # every declaration spells float32; layers.cast alone makes another dtype
    m = SpeakerModel(BackboneConfig(**(TOY if width == "toy" else {}), attention=kind))
    head = AAMHead(7, 512, rng=rng(9))
    arrays = [p.data for _, p in m.named_params() + head.named_params()] + [
        buf for _, buf in m.named_buffers()]
    assert {arr.dtype for arr in arrays} == {np.dtype(np.float32)}


@pytest.mark.parametrize("kind", ATTENTION_KINDS)
def test_cast_converts_every_entry_in_place_and_order(kind):
    m = SpeakerModel(BackboneConfig(**TOY, attention=kind), seed=None)
    params, buffers = m.named_params(), m.named_buffers()
    assert cast(m, np.float64) is m
    cast_params, cast_buffers = m.named_params(), m.named_buffers()
    assert [name for name, _ in cast_params] == [name for name, _ in params]
    assert [name for name, _ in cast_buffers] == [name for name, _ in buffers]
    for (name, p), (_, q) in zip(params, cast_params):
        assert q is p and p.dtype == np.float64 and p.requires_grad, name
    for (name, old), (_, new) in zip(buffers, cast_buffers):
        assert new.dtype == np.float64 and np.array_equal(new, old), name


def test_embed_of_a_cast_model_is_float64():
    m = draw(cast(SpeakerModel(BackboneConfig(**TOY, attention="dtcf"), seed=None), np.float64),
             rng(3))
    emb = m.embed(rng(32).normal(size=(30, 80)).astype(np.float32))
    assert emb.dtype == np.float64 and emb.shape == (512,)
