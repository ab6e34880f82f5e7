"""Quarter-channel ResNet34 speaker embedding model.

The backbone consumes a (B, T, 80) batch of log-mel feature matrices, each
as a 1-channel map, and produces (B, 512) utterance embeddings via attentive
statistics pooling; ``embed`` takes one (T, 80) matrix. Stage layout per
sample (channels, stride as time x freq):

    stem   3x3/ (1,1) -> 32 x T x 80
    stage1 3 blocks / (1,1) -> 32 x T x 80
    stage2 4 blocks / (1,2) -> 64 x T x 40
    stage3 6 blocks / (2,2) -> 128 x ceil(T/2) x 20
    stage4 3 blocks / (2,2) -> 256 x ceil(T/4) x 10

Each residual block can gate its main path with SE or DTCF attention right
before the skip addition.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .attention import DTCFBlock, SEBlock
from .errors import ConfigError, ShapeError
from .layers import BatchNorm2d, Conv2dLayer, LinearLayer, Module, parameter, xavier_uniform
from .tensor import Tensor, concat, matmul, no_grad, reshape, sum_axis, transpose

__all__ = ["BackboneConfig", "ResidualBlock", "ASPHead", "SpeakerModel"]

ATTENTION_BLOCKS = {"se": SEBlock, "dtcf": DTCFBlock}
ATTENTION_KINDS = ("none", *ATTENTION_BLOCKS)


@dataclass(frozen=True)
class BackboneConfig:
    widths: tuple[int, ...] = (32, 64, 128, 256)
    blocks: tuple[int, ...] = (3, 4, 6, 3)
    strides: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 2), (2, 2))
    attention: str = "none"
    reduction: int = 8
    emb_dim: int = 512
    asp_hidden: int = 128
    n_mels: int = 80

    def __post_init__(self):
        if len(self.widths) != 4 or len(self.blocks) != 4 or len(self.strides) != 4:
            raise ConfigError("backbone uses exactly 4 stages")
        for a, b in zip(self.widths, self.widths[1:]):
            if b != 2 * a:
                raise ConfigError(f"stage widths must double: {self.widths}")
        if self.attention not in ATTENTION_KINDS:
            raise ConfigError(f"attention must be one of {ATTENTION_KINDS}")
        if min(self.blocks) < 1:
            raise ConfigError(f"block counts must be >= 1: {self.blocks}")
        for name in ("reduction", "emb_dim", "asp_hidden", "n_mels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        """Every field by name; JSON writes the tuples as lists."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "BackboneConfig":
        return cls(**{f.name: _tuples(d[f.name]) for f in fields(cls)})


def _tuples(value):
    """JSON lists back to (nested) tuples; anything else as is."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuples(v) for v in value)
    return value


class ResidualBlock(Module):
    """conv-bn-relu-conv-bn, attention gate, then skip addition and relu."""

    def __init__(self, in_channels: int, out_channels: int, stride=(1, 1), *,
                 attention: str, reduction: int, rng: np.random.Generator, dtype=np.float32):
        self.conv1 = Conv2dLayer(in_channels, out_channels, stride=stride, rng=rng, dtype=dtype)
        self.bn1 = BatchNorm2d(out_channels, dtype=dtype)
        self.conv2 = Conv2dLayer(out_channels, out_channels, rng=rng, dtype=dtype)
        self.bn2 = BatchNorm2d(out_channels, dtype=dtype)
        if stride != (1, 1) or in_channels != out_channels:
            self.down_conv = Conv2dLayer(in_channels, out_channels, kernel=(1, 1),
                                         stride=stride, rng=rng, dtype=dtype)
            self.down_bn = BatchNorm2d(out_channels, dtype=dtype)
        else:
            self.down_conv = None
            self.down_bn = None
        self.attn = None
        if attention != "none":
            self.attn = ATTENTION_BLOCKS[attention](out_channels, reduction, rng=rng, dtype=dtype)

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        main = self.bn1.forward(self.conv1.forward(x), training).relu()
        main = self.bn2.forward(self.conv2.forward(main), training)
        if self.attn is not None:
            main = self.attn.apply(main)
        if self.down_conv is not None:
            skip = self.down_bn.forward(self.down_conv.forward(x), training)
        else:
            skip = x
        return (main + skip).relu()


class ASPHead(Module):
    """Attentive statistics pooling over frames.

    Each frame is the flattened channel x frequency vector h_t. Frame weights
    are softmax(v . tanh(W h_t + b)); the output concatenates the weighted
    mean with the weighted standard deviation, giving 2 * C * F dims.
    """

    eps = 1e-9   # keeps the standard deviation's gradient finite at zero spread

    def __init__(self, in_dim: int, hidden: int, *, rng: np.random.Generator,
                 dtype=np.float32):
        self.w = xavier_uniform(rng, (hidden, in_dim), dtype)
        self.b = parameter(np.zeros(hidden, dtype=dtype))
        self.v = xavier_uniform(rng, (hidden, 1), dtype)

    def _frames(self, fmap: Tensor) -> Tensor:
        b, c, t, f = fmap.shape
        return reshape(transpose(fmap, (0, 2, 1, 3)), (b, t, c * f))

    def _weights(self, h: Tensor) -> Tensor:
        b, t, d = h.shape
        scores = matmul(reshape(h, (b * t, d)), transpose(self.w, (1, 0)))
        scores = (scores + reshape(self.b, (1, -1))).tanh()
        scores = reshape(matmul(scores, self.v), (b, t))
        # shift by the (constant) per-utterance max for a stable softmax
        shift = Tensor(scores.data.max(axis=1, keepdims=True))
        ez = (scores - shift).exp()
        return ez / sum_axis(ez, 1, keepdims=True)

    def forward(self, fmap: Tensor) -> Tensor:
        h = self._frames(fmap)
        alpha = self._weights(h)
        al = reshape(alpha, alpha.shape + (1,))
        mu = sum_axis(al * h, 1)
        msq = sum_axis(al * (h * h), 1)
        std = ((msq - mu * mu).relu() + self.eps).sqrt()
        return concat(mu, std, axis=1)


class SpeakerModel(Module):
    """Backbone + pooling + embedding layer. Construction is rng-seeded."""

    MIN_FRAMES = 8

    def __init__(self, config: BackboneConfig, seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        self.config = config
        self.dtype = dtype
        w = config.widths
        self.stem_conv = Conv2dLayer(1, w[0], rng=rng, dtype=dtype)
        self.stem_bn = BatchNorm2d(w[0], dtype=dtype)
        self.stages: list[list[ResidualBlock]] = []
        in_ch = w[0]
        for width, count, stride in zip(w, config.blocks, config.strides):
            stage = []
            for j in range(count):
                stage.append(ResidualBlock(
                    in_ch, width, stride=stride if j == 0 else (1, 1),
                    attention=config.attention, reduction=config.reduction,
                    rng=rng, dtype=dtype))
                in_ch = width
            self.stages.append(stage)
        self._final_freq = self._trace_freq(config)
        stats_dim = w[-1] * self._final_freq
        self.asp = ASPHead(stats_dim, config.asp_hidden, rng=rng, dtype=dtype)
        self.emb = LinearLayer(2 * stats_dim, config.emb_dim, rng=rng, dtype=dtype)

    @staticmethod
    def _trace_freq(cfg: BackboneConfig) -> int:
        f = cfg.n_mels
        for _, sf in cfg.strides:
            f = (f + 2 - 3) // sf + 1
        return f

    # -- forward paths ------------------------------------------------------

    def forward_map(self, x: Tensor, training: bool = False) -> Tensor:
        v = self.stem_bn.forward(self.stem_conv.forward(x), training).relu()
        for stage in self.stages:
            for block in stage:
                v = block.forward(v, training)
        return v

    def forward(self, feats: Tensor, training: bool = False) -> Tensor:
        """(B, T, 80) features -> (B, 512) embeddings."""
        n_mels = self.config.n_mels
        if feats.ndim != 3:
            raise ShapeError(f"expected (B, T, {n_mels}) features, got shape {feats.shape}")
        b, t, f = feats.shape
        if f != n_mels:
            raise ShapeError(f"expected {n_mels} mel bins, got {f}")
        if t < self.MIN_FRAMES:
            raise ShapeError(f"need at least {self.MIN_FRAMES} frames, got {t}")
        fmap = self.forward_map(reshape(feats, (b, 1, t, f)), training)
        return self.emb.forward(self.asp.forward(fmap))

    def embed(self, feats: np.ndarray) -> np.ndarray:
        """Eval-mode embedding of one (T, 80) utterance; deterministic, no graph recorded."""
        with no_grad():
            out = self.forward(Tensor(np.asarray(feats, dtype=self.dtype)[None]), training=False)
        return out.data[0].copy()

    # -- parameter access ---------------------------------------------------

    def modules(self):
        """Each top-level layer and block under its checkpoint name; the walk reaches their layers."""
        yield "stem.conv", self.stem_conv
        yield "stem.bn", self.stem_bn
        for i, stage in enumerate(self.stages):
            for j, block in enumerate(stage):
                yield f"stage{i + 1}.block{j}", block
        yield "asp", self.asp
        yield "emb", self.emb

    def load_buffers(self, values: dict[str, np.ndarray]) -> None:
        for name, buf in self.named_buffers():
            np.copyto(buf, values[name])
