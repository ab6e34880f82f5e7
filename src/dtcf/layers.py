"""Parameterised layers assembled from the tensor engine.

Initialisation scheme (deterministic given the supplied Generator):
conv kernels He-uniform, batchnorm gamma=1 beta=0, linear weights
Xavier-uniform with zero bias.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, _node, conv2d, matmul, transpose, unbatched

__all__ = ["Conv2dLayer", "BatchNorm2d", "LinearLayer", "he_uniform", "xavier_uniform"]


def he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype=np.float32) -> Tensor:
    limit = np.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-limit, limit, shape).astype(dtype), requires_grad=True)


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int,
                   dtype=np.float32) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, shape).astype(dtype), requires_grad=True)


class Conv2dLayer:
    """2-D convolution with optional per-channel bias."""

    def __init__(self, in_channels: int, out_channels: int, kernel=(3, 3),
                 stride=(1, 1), padding=(1, 1), bias: bool = True,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        kh, kw = kernel
        if kh < 1 or kw < 1 or in_channels < 1 or out_channels < 1:
            raise ConfigError("kernel dims and channel counts must be positive")
        rng = rng or np.random.default_rng(0)
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        self.kernels = he_uniform(rng, (out_channels, in_channels, kh, kw),
                                  fan_in=in_channels * kh * kw, dtype=dtype)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True) if bias else None

    @unbatched(3)
    def forward(self, x: Tensor) -> Tensor:
        out = conv2d(x, self.kernels, self.stride, self.padding)
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1, 1, 1)
        return out

    def params(self):
        out = [("kernels", self.kernels)]
        if self.bias is not None:
            out.append(("bias", self.bias))
        return out


class BatchNorm2d:
    """Per-channel batch normalisation over (batch, time, freq).

    Train mode requires at least two batch elements and updates the running
    statistics with momentum (unbiased variance). Eval mode is a pure
    function of the input and the running statistics.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5,
                 dtype=np.float32):
        if eps <= 0:
            raise ConfigError("epsilon must be positive")
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.momentum = momentum
        self.eps = eps

    @unbatched(3)
    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        if training:
            if x.shape[0] < 2:
                raise ConfigError("train-mode batchnorm needs a batch of >= 2 samples")
            axes = (0, 2, 3)
            mu = x.data.mean(axis=axes, keepdims=True)
            var = x.data.var(axis=axes, keepdims=True)
            out = _bn_train(x, self.gamma, self.beta, self.eps, mu, var)
            self._update_running(mu, var, x.shape[0] * x.shape[2] * x.shape[3])
            return out
        shp = (1, -1, 1, 1)
        mean = Tensor(self.running_mean.reshape(shp))
        istd = Tensor((1.0 / np.sqrt(self.running_var + self.eps)).reshape(shp).astype(x.dtype))
        return (x - mean) * istd * self.gamma.reshape(shp) + self.beta.reshape(shp)

    def _update_running(self, mu: np.ndarray, var: np.ndarray, n: int) -> None:
        var_u = var.reshape(-1) * n / (n - 1)
        m = self.momentum
        self.running_mean = ((1 - m) * self.running_mean + m * mu.reshape(-1)).astype(self.running_mean.dtype)
        self.running_var = ((1 - m) * self.running_var + m * var_u).astype(self.running_var.dtype)

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]


def _bn_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float,
              mu: np.ndarray, var: np.ndarray) -> Tensor:
    """Fused batch-norm forward with the standard whitening backward."""
    axes = (0, 2, 3)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * istd
    g4 = gamma.data.reshape(1, -1, 1, 1)
    out = xhat * g4 + beta.data.reshape(1, -1, 1, 1)

    def bwd(g):
        if beta.requires_grad:
            beta._accum(g.sum(axis=axes))
        if gamma.requires_grad:
            gamma._accum((g * xhat).sum(axis=axes))
        if x.requires_grad:
            dxhat = g * g4
            m1 = dxhat.mean(axis=axes, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=axes, keepdims=True)
            x._accum(istd * (dxhat - m1 - xhat * m2))

    return _node(out, (x, gamma, beta), bwd)


class LinearLayer:
    """Fully connected layer: weight (out, in) plus optional bias."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.weight = xavier_uniform(rng, (out_features, in_features),
                                     fan_in=in_features, fan_out=out_features, dtype=dtype)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True) if bias else None

    @unbatched(1)
    def forward(self, x: Tensor) -> Tensor:
        out = matmul(x, transpose(self.weight, (1, 0)))
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1)
        return out

    def params(self):
        out = [("weight", self.weight)]
        if self.bias is not None:
            out.append(("bias", self.bias))
        return out
