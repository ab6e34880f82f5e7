"""Parameterised layers assembled from the tensor engine.

A layer's constructor only declares its parameters, at float32: weights and
biases as zeros, batchnorm gamma=1 beta=0; ``cast`` alone converts a module to
another dtype. Initial values come from one seeded walk, ``draw`` (conv
kernels He-uniform, linear weights Xavier-uniform), or from a checkpoint.
Fans come from the weight's shape: fan-in is the product of every axis after
the first, and fan-out the first axis.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, _node, _slots, conv2d, per_column, reshape

__all__ = ["Module", "Conv2dLayer", "BatchNorm2d", "BatchNormReLU2d", "LinearLayer", "parameter",
           "draw", "cast"]


def parameter(data: np.ndarray) -> Tensor:
    """The one maker of a trainable leaf: ``data``, marked ``requires_grad``, and no gradient array.

    ``zero_grads`` or ``backward`` gives it one, so a layer that is only
    built or loaded for inference holds its weights once.
    """
    p = Tensor(data)
    p.requires_grad = True
    return p


class Module:
    """A layer whose parameters, buffers and sublayers are the attributes its constructor assigns.

    ``modules()`` lists the ``Module`` attributes as ``(name, module)``, and ``named_params()``
    and ``named_buffers()`` the ``Tensor`` and ``np.ndarray`` ones, then each submodule's under
    ``"<name>."``; all in assignment order. So every Tensor attribute is trained and checkpointed,
    and every array attribute is checkpointed: a derived cache must be held as neither.
    """

    def _walk(self, kind) -> list:
        own = [(name, value) for name, value in vars(self).items() if isinstance(value, kind)]
        return own + [(f"{prefix}.{name}", value) for prefix, mod in self.modules()
                      for name, value in mod._walk(kind)]

    def modules(self):
        return [(name, value) for name, value in vars(self).items() if isinstance(value, Module)]

    def named_params(self) -> list[tuple[str, Tensor]]:
        return self._walk(Tensor)

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return self._walk(np.ndarray)

    def param_count(self) -> int:
        return sum(p.data.size for _, p in self.named_params())


def draw(module: Module, rng: np.random.Generator) -> Module:
    """Fill ``module``'s rank-4 (He) and rank-2 (Xavier) weights in place, in
    ``named_params()`` order, and return it; biases and batchnorm terms keep their values."""
    for _, p in module.named_params():
        if p.ndim in (2, 4):
            limit = np.sqrt(6.0 / (np.prod(p.shape[1:]) if p.ndim == 4 else sum(p.shape)))
            p.data[...] = rng.uniform(-limit, limit, p.shape)
    return module


def cast(module: Module, dtype) -> Module:
    """Convert ``module``'s parameters and buffers to ``dtype`` in place, and return it.

    Each parameter keeps its Tensor object and takes new data; each buffer is
    replaced on its owner. For a module as built, before ``draw``, a load or an
    optimizer: a float64 module cast after ``draw`` holds float32-rounded weights.
    """
    for name, value in vars(module).items():
        if isinstance(value, Tensor):
            value.data = value.data.astype(dtype)
        elif isinstance(value, np.ndarray):
            setattr(module, name, value.astype(dtype))
    for _, sub in module.modules():
        cast(sub, dtype)
    return module


class Conv2dLayer(Module):
    """2-D convolution without bias (a batchnorm always follows), padded by kernel // 2."""

    def __init__(self, in_channels: int, out_channels: int, kernel=(3, 3), stride=(1, 1)):
        kh, kw = kernel
        if kh < 1 or kw < 1 or in_channels < 1 or out_channels < 1:
            raise ConfigError("kernel dims and channel counts must be positive")
        self.stride = tuple(stride)
        self.padding = (kh // 2, kw // 2)
        self.kernels = parameter(np.zeros((out_channels, in_channels, kh, kw), dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.kernels, self.stride, self.padding)


class BatchNorm2d(Module):
    """Per-channel batch normalisation over (batch, time, freq).

    Train mode requires at least two batch elements and updates the running
    statistics with ``momentum`` (unbiased variance). Eval mode is a pure
    function of the input and the running statistics: the per-channel affine
    map ``x * scale + shift`` with ``scale = gamma / sqrt(var + eps)`` and
    ``shift = beta - mean * scale``.
    """

    momentum = 0.1
    eps = 1e-5
    relu = False

    def __init__(self, channels: int):
        self.gamma = parameter(np.ones(channels, dtype=np.float32))
        self.beta = parameter(np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        if training:
            if x.shape[0] < 2:
                raise ConfigError("train-mode batchnorm needs a batch of >= 2 samples")
            out, mu, var = _bn_train(x, self.gamma, self.beta, self.eps, self.relu)
            self._update_running(mu, var, x.data.size // x.shape[1])
            return out
        shp = (1, -1, 1, 1)
        istd = Tensor((1.0 / np.sqrt(self.running_var + self.eps)).reshape(shp).astype(x.dtype))
        scale = reshape(self.gamma, shp) * istd
        shift = reshape(self.beta, shp) - Tensor(self.running_mean.reshape(shp)) * scale
        out = x * scale + shift
        return out.relu() if self.relu else out

    def _update_running(self, mu: np.ndarray, var: np.ndarray, n: int) -> None:
        var_u = var.reshape(-1) * n / (n - 1)
        m = self.momentum
        self.running_mean = ((1 - m) * self.running_mean + m * mu.reshape(-1)).astype(self.running_mean.dtype)
        self.running_var = ((1 - m) * self.running_var + m * var_u).astype(self.running_var.dtype)


class BatchNormReLU2d(BatchNorm2d):
    """``BatchNorm2d`` followed by ReLU. In train mode the two are one graph
    node, which keeps neither the normalised map nor the map before the ReLU."""

    relu = True


def _bn_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, relu: bool):
    """Fused batch-norm forward and whitening backward, with the ReLU after it
    if ``relu``; also returns the batch mean and variance.

    One pass each for the mean, the centring, the variance and the
    normalisation. The backward uses dβ = Σg and dγ = Σg·x̂, so that
    mean(g·γ) = γ·dβ/n and mean(g·γ·x̂) = γ·dγ/n need no pass of their own.
    The node keeps ``x``, gamma and, only with the ReLU, its output: the
    backward rebuilds x̂ from ``x`` by the forward's own operations, and takes
    the ReLU's mask from the output, which is positive where its input was.
    dx is built in that rebuilt x̂, which nothing else holds, so the input's
    slot takes it.
    """
    axes = (0, 2, 3)
    shp = (1, -1, 1, 1)
    xd, gd, (xs, gs, bs) = x.data, gamma.data, _slots(x, gamma, beta)
    n = xd.size // x.shape[1]
    mu = xd.mean(axis=axes, keepdims=True)
    out = xd - mu        # centred, normalised, then scaled and shifted in place
    var = (np.einsum("bctf,bctf->c", out, out) / n).reshape(shp)
    istd = 1.0 / np.sqrt(var + eps)
    out *= istd
    out *= gd.reshape(shp)
    out += beta.data.reshape(shp)
    if relu:
        np.maximum(out, 0, out=out)
    relu_out = out if relu else None

    def bwd(g):
        if relu_out is not None:
            g = g * (relu_out > 0)
        xhat = xd - mu
        xhat *= istd
        dbeta = g.sum(axis=axes)
        dgamma = np.einsum("bctf,bctf->c", g, xhat)
        if bs is not None:
            bs._accum(dbeta)
        if gs is not None:
            gs._accum(dgamma)
        if xs is not None:
            dx = xhat
            dx *= (dgamma / -n).reshape(shp)
            dx += g
            dx -= (dbeta / n).reshape(shp)
            dx *= gd.reshape(shp) * istd
            xs._take(dx)

    return _node(out, (xs, gs, bs), bwd), mu, var


class LinearLayer(Module):
    """Fully connected layer: weight (out, in) plus bias."""

    def __init__(self, in_features: int, out_features: int):
        self.weight = parameter(np.zeros((out_features, in_features), dtype=np.float32))
        self.bias = parameter(np.zeros(out_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return per_column(self.weight, x) + reshape(self.bias, (1, -1))
