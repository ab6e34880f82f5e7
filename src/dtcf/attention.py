"""Channel attention blocks: SE baseline and the duality (DTCF) variant.

Both blocks gate the channels of a (B, C, T, F) batch of feature maps with
sigmoid masks learned through a reduction bottleneck C -> C' -> C, where
C' = C / r.

SE squeezes the whole time-frequency plane to one value per channel, so its
mask is a single gate per channel. The duality block keeps per-frame and
per-bin context: it pools time and frequency in parallel, encodes the
concatenated [freq-profile, time-profile] matrix through a shared 1x1
bottleneck, then derives one mask over (C, T) and one over (C, F) and
multiplies both into the map. The pooling means are BLAS products
(``mean_axis``), and the two multiplies are one graph node (``_gate``)
whose backward sums each mask's gradient over the other axis with a
batched matrix product, not a broadcast reduction.

Every op takes a leading batch axis B and treats each sample on its own.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import Module, xavier_uniform
from .tensor import Tensor, _node, concat, matmul, mean_axis, reshape, split, transpose

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
    product over the (B·C, T, F) view of ``g * x``.
    """
    b, c, t, f = x.shape
    out = x.data * mct.data[..., None]
    out *= mcf.data[..., None, :]

    def bwd(g):
        if x.requires_grad:
            gx = g * mcf.data[..., None, :]
            gx *= mct.data[..., None]
            x._accum(gx)
        if mct.requires_grad or mcf.requires_grad:
            gm = (g * x.data).reshape(b * c, t, f)
            if mct.requires_grad:
                mct._accum(np.matmul(gm, mcf.data.reshape(b * c, f, 1)).reshape(b, c, t))
            if mcf.requires_grad:
                mcf._accum(np.matmul(mct.data.reshape(b * c, 1, t), gm).reshape(b, c, f))
    return _node(out, (x, mct, mcf), bwd)


def _per_column(w: Tensor, u: Tensor) -> Tensor:
    """Apply a (C2, C1) channel map independently to every column of (B, C1, P)."""
    b, c1, p = u.shape
    flat = reshape(transpose(u, (1, 0, 2)), (c1, b * p))
    out = matmul(w, flat)
    return transpose(reshape(out, (w.shape[0], b, p)), (1, 0, 2))


class SEBlock(Module):
    """Squeeze-and-excitation: global-average squeeze, two bias-free FC layers, sigmoid gate."""

    def __init__(self, channels: int, reduction: int, *, rng: np.random.Generator,
                 dtype=np.float32):
        c_red = reduced_channels(channels, reduction)
        self.w1 = xavier_uniform(rng, (c_red, channels), dtype)
        self.w2 = xavier_uniform(rng, (channels, c_red), dtype)

    def squeeze(self, x: Tensor) -> Tensor:
        """Mean over time and frequency: (B,C,T,F) -> (B,C)."""
        if x.shape[2] < 1 or x.shape[3] < 1:
            raise ShapeError("empty time or frequency axis")
        return mean_axis(mean_axis(x, 3), 2)

    def mask(self, xc: Tensor) -> Tensor:
        """Gate per channel: sigmoid(W2 relu(W1 xc)), (B,C) -> (B,C), strictly in (0,1)."""
        hidden = matmul(xc, transpose(self.w1, (1, 0))).relu()
        return matmul(hidden, transpose(self.w2, (1, 0))).sigmoid()

    def apply(self, x: Tensor) -> Tensor:
        """Recalibrate: multiply every (t, f) cell of channel c by its gate."""
        m = self.mask(self.squeeze(x))
        return x * reshape(m, m.shape + (1, 1))


class DTCFBlock(Module):
    """Duality temporal-channel-frequency attention.

    W1 is the shared bias-free bottleneck encoder; W2 produces the time-conditioned
    channel mask and W3 the frequency-conditioned one. The encoder input is
    the concatenation [freq profile (B,C,F), time profile (B,C,T)] and the split
    after encoding uses the same order, so W3 reads the first F columns and
    W2 the remaining T.
    """

    def __init__(self, channels: int, reduction: int, *, rng: np.random.Generator,
                 dtype=np.float32):
        c_red = reduced_channels(channels, reduction)
        self.w1 = xavier_uniform(rng, (c_red, channels), dtype)
        self.w2 = xavier_uniform(rng, (channels, c_red), dtype)
        self.w3 = xavier_uniform(rng, (channels, c_red), dtype)

    def pool(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Parallel means: xcf (B,C,F) over time, xct (B,C,T) over frequency."""
        if x.shape[2] < 1 or x.shape[3] < 1:
            raise ShapeError("empty time or frequency axis")
        return mean_axis(x, 2), mean_axis(x, 3)

    def encode(self, xcf: Tensor, xct: Tensor) -> Tensor:
        """relu(W1 [xcf, xct]): a (B,C',F+T) joint context, column-independent."""
        return _per_column(self.w1, concat(xcf, xct, axis=2)).relu()

    def masks(self, x1: Tensor, f_len: int) -> tuple[Tensor, Tensor]:
        """Split the encoding back at f_len and gate each half.

        Returns (mct, mcf): the time mask sigmoid(W2 . time half), (B,C,T),
        and the frequency mask sigmoid(W3 . freq half), (B,C,F).
        """
        part_f, part_t = split(x1, axis=2, at=f_len)
        return (_per_column(self.w2, part_t).sigmoid(),
                _per_column(self.w3, part_f).sigmoid())

    def apply(self, x: Tensor) -> Tensor:
        """Full pipeline: pool, encode, mask, and recalibrate the map."""
        return _gate(x, *self.masks(self.encode(*self.pool(x)), x.shape[3]))

