"""Channel attention blocks: SE baseline and the duality (DTCF) variant.

Both blocks gate the channels of a (B, C, T, F) batch of feature maps with
sigmoid masks learned through a reduction bottleneck C -> C' -> C, where
C' = C / r.

SE squeezes the whole time-frequency plane to one value per channel, so its
mask is a single gate per channel. The duality block keeps per-frame and
per-bin context: it pools time and frequency in parallel and runs SE's
excitation sigmoid(W relu(W1 .)) on every column of the (C, F) and (C, T)
profiles, with one W1 shared by both. The two masks, over (C, F) and (C, T),
both multiply the map. The pooling means are BLAS products (``mean_axis``).
Every weight, in both blocks, is applied by ``tensor.per_column``: one GEMM
node over SE's (B, C) squeeze or over every column of a (B, C, P) profile.
The two multiplies are one graph node (``_gate``) whose backward sums each
mask's gradient over the other axis with a batched matrix product.

Every op takes a leading batch axis B and treats each sample on its own.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .layers import Module, parameter
from .tensor import Tensor, _node, _slots, mean_axis, per_column, reshape

__all__ = ["SEBlock", "DTCFBlock", "reduced_channels"]


def reduced_channels(channels: int, reduction: int) -> int:
    """Bottleneck width C' = C / r, clamped to 1 when C < r."""
    if reduction < 1:
        raise ConfigError(f"reduction must be >= 1, got {reduction}")
    if channels < reduction:
        return 1
    if channels % reduction:
        raise ConfigError(f"channels {channels} not divisible by reduction {reduction}")
    return channels // reduction


def _gate(x: Tensor, mct: Tensor, mcf: Tensor) -> Tensor:
    """Multiply a (B,C,T,F) map by a time mask (B,C,T) and a frequency mask (B,C,F).

    One graph node. The forward is the two broadcast multiplies in order; the
    backward gives each mask its sum over the other axis as a batched
    product over the (B·C, T, F) view of ``g * x``. The node keeps the map and
    both masks, and not its output. The map's gradient is a new array that
    nothing else holds, so the map's slot takes it.
    """
    b, c, t, f = x.shape
    xd, td, fd, (xs, ts, fs) = x.data, mct.data, mcf.data, _slots(x, mct, mcf)
    out = xd * td[..., None]
    out *= fd[..., None, :]

    def bwd(g):
        if xs is not None:
            gx = g * fd[..., None, :]
            gx *= td[..., None]
            xs._take(gx)
        if ts is not None or fs is not None:
            gm = (g * xd).reshape(b * c, t, f)
            if ts is not None:
                ts._accum(np.matmul(gm, fd.reshape(b * c, f, 1)).reshape(b, c, t))
            if fs is not None:
                fs._accum(np.matmul(td.reshape(b * c, 1, t), gm).reshape(b, c, f))
    return _node(out, (xs, ts, fs), bwd)


class SEBlock(Module):
    """Squeeze-and-excitation: global-average squeeze, two bias-free FC layers, sigmoid gate."""

    def __init__(self, channels: int, reduction: int):
        c_red = reduced_channels(channels, reduction)
        self.w1 = parameter(np.zeros((c_red, channels), dtype=np.float32))
        self.w2 = parameter(np.zeros((channels, c_red), dtype=np.float32))

    def squeeze(self, x: Tensor) -> Tensor:
        """Mean over time and frequency: (B,C,T,F) -> (B,C)."""
        return mean_axis(mean_axis(x, 3), 2)

    def mask(self, xc: Tensor) -> Tensor:
        """Gate per channel: sigmoid(W2 relu(W1 xc)), (B,C) -> (B,C), strictly in (0,1)."""
        return per_column(self.w2, per_column(self.w1, xc).relu()).sigmoid()

    def apply(self, x: Tensor) -> Tensor:
        """Recalibrate: multiply every (t, f) cell of channel c by its gate."""
        m = self.mask(self.squeeze(x))
        return x * reshape(m, m.shape + (1, 1))


class DTCFBlock(Module):
    """Duality temporal-channel-frequency attention.

    W1 is the shared bias-free bottleneck encoder; W2 produces the time-conditioned
    channel mask and W3 the frequency-conditioned one. W1 acts on each column
    on its own, with no bias or normalisation, so encoding the concatenated
    [freq profile, time profile] and splitting it again, as Coordinate
    Attention draws it, is the same as encoding each profile.
    """

    def __init__(self, channels: int, reduction: int):
        c_red = reduced_channels(channels, reduction)
        self.w1 = parameter(np.zeros((c_red, channels), dtype=np.float32))
        self.w2 = parameter(np.zeros((channels, c_red), dtype=np.float32))
        self.w3 = parameter(np.zeros((channels, c_red), dtype=np.float32))

    def pool(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Parallel means: xcf (B,C,F) over time, xct (B,C,T) over frequency."""
        return mean_axis(x, 2), mean_axis(x, 3)

    def encode(self, xcf: Tensor, xct: Tensor) -> tuple[Tensor, Tensor]:
        """The shared encoding of each profile: relu(W1 xcf) (B,C',F) and relu(W1 xct) (B,C',T)."""
        return per_column(self.w1, xcf).relu(), per_column(self.w1, xct).relu()

    def masks(self, hf: Tensor, ht: Tensor) -> tuple[Tensor, Tensor]:
        """(mct, mcf): the time mask sigmoid(W2 ht), (B,C,T), and the frequency
        mask sigmoid(W3 hf), (B,C,F)."""
        return per_column(self.w2, ht).sigmoid(), per_column(self.w3, hf).sigmoid()

    def apply(self, x: Tensor) -> Tensor:
        """Full pipeline: pool, encode, mask, and recalibrate the map."""
        return _gate(x, *self.masks(*self.encode(*self.pool(x))))
