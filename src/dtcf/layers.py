"""Parameterised layers assembled from the tensor engine.

Initialisation scheme (deterministic given the supplied Generator):
conv kernels He-uniform, batchnorm gamma=1 beta=0, linear weights
Xavier-uniform with zero bias. Fans come from the weight's shape: fan-in is
the product of every axis after the first, and fan-out the first axis.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, _node, conv2d, matmul, reshape, transpose

__all__ = ["Module", "Conv2dLayer", "BatchNorm2d", "LinearLayer", "parameter",
           "he_uniform", "xavier_uniform"]


def parameter(data: np.ndarray) -> Tensor:
    """A trainable leaf holding ``data`` and no gradient array.

    ``zero_grads`` or ``backward`` gives it one, so a layer that is only
    built or loaded for inference holds its weights once.
    """
    p = Tensor(data)
    p.requires_grad = True
    return p


def he_uniform(rng: np.random.Generator, shape, dtype=np.float32) -> Tensor:
    limit = np.sqrt(6.0 / np.prod(shape[1:]))
    return parameter(rng.uniform(-limit, limit, shape).astype(dtype))


def xavier_uniform(rng: np.random.Generator, shape, dtype=np.float32) -> Tensor:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return parameter(rng.uniform(-limit, limit, shape).astype(dtype))


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


class Conv2dLayer(Module):
    """2-D convolution without bias (a batchnorm always follows), padded by kernel // 2."""

    def __init__(self, in_channels: int, out_channels: int, kernel=(3, 3), stride=(1, 1), *,
                 rng: np.random.Generator, dtype=np.float32):
        kh, kw = kernel
        if kh < 1 or kw < 1 or in_channels < 1 or out_channels < 1:
            raise ConfigError("kernel dims and channel counts must be positive")
        self.stride = tuple(stride)
        self.padding = (kh // 2, kw // 2)
        self.kernels = he_uniform(rng, (out_channels, in_channels, kh, kw), dtype)

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.kernels, self.stride, self.padding)


class BatchNorm2d(Module):
    """Per-channel batch normalisation over (batch, time, freq).

    Train mode requires at least two batch elements and updates the running
    statistics with ``momentum`` (unbiased variance). Eval mode is a pure
    function of the input and the running statistics.
    """

    momentum = 0.1
    eps = 1e-5

    def __init__(self, channels: int, dtype=np.float32):
        self.gamma = parameter(np.ones(channels, dtype=dtype))
        self.beta = parameter(np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        if training:
            if x.shape[0] < 2:
                raise ConfigError("train-mode batchnorm needs a batch of >= 2 samples")
            out, mu, var = _bn_train(x, self.gamma, self.beta, self.eps)
            self._update_running(mu, var, x.data.size // x.shape[1])
            return out
        shp = (1, -1, 1, 1)
        mean = Tensor(self.running_mean.reshape(shp))
        istd = Tensor((1.0 / np.sqrt(self.running_var + self.eps)).reshape(shp).astype(x.dtype))
        return (x - mean) * istd * reshape(self.gamma, shp) + reshape(self.beta, shp)

    def _update_running(self, mu: np.ndarray, var: np.ndarray, n: int) -> None:
        var_u = var.reshape(-1) * n / (n - 1)
        m = self.momentum
        self.running_mean = ((1 - m) * self.running_mean + m * mu.reshape(-1)).astype(self.running_mean.dtype)
        self.running_var = ((1 - m) * self.running_var + m * var_u).astype(self.running_var.dtype)


def _bn_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float):
    """Fused batch-norm forward and whitening backward; also returns the batch mean and variance.

    One pass each for the mean, the centring, the variance and the
    normalisation. The backward uses dβ = Σg and dγ = Σg·x̂, so that
    mean(g·γ) = γ·dβ/n and mean(g·γ·x̂) = γ·dγ/n need no pass of their own.
    """
    axes = (0, 2, 3)
    shp = (1, -1, 1, 1)
    n = x.data.size // x.shape[1]
    mu = x.data.mean(axis=axes, keepdims=True)
    xhat = x.data - mu
    var = (np.einsum("bctf,bctf->c", xhat, xhat) / n).reshape(shp)
    istd = 1.0 / np.sqrt(var + eps)
    xhat *= istd
    out = xhat * gamma.data.reshape(shp)
    out += beta.data.reshape(shp)

    def bwd(g):
        dbeta = g.sum(axis=axes)
        dgamma = np.einsum("bctf,bctf->c", g, xhat)
        if beta.requires_grad:
            beta._accum(dbeta)
        if gamma.requires_grad:
            gamma._accum(dgamma)
        if x.requires_grad:
            dx = xhat * (dgamma / -n).reshape(shp)
            dx += g
            dx -= (dbeta / n).reshape(shp)
            dx *= gamma.data.reshape(shp) * istd
            x._accum(dx)

    return _node(out, (x, gamma, beta), bwd), mu, var


class LinearLayer(Module):
    """Fully connected layer: weight (out, in) plus bias."""

    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator,
                 dtype=np.float32):
        self.weight = xavier_uniform(rng, (out_features, in_features), dtype)
        self.bias = parameter(np.zeros(out_features, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return matmul(x, transpose(self.weight, (1, 0))) + reshape(self.bias, (1, -1))
