"""Additive angular margin softmax head and cross-entropy loss.

Logits are scaled cosines between the length-normalised embedding and
length-normalised class weights; the target class cosine is replaced by
cos(theta + m), computed in the stabilised product form
cos(theta) cos(m) - sin(theta) sin(m). When theta + m would pass pi the
target logit saturates at -1 (the angle is clamped to [0, pi]).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .layers import Module, xavier_uniform
from .tensor import Tensor, matmul, sum_axis, transpose

__all__ = ["AAMHead", "ce_loss_batch"]

_SIN_EPS = 1e-12  # keeps d/dcos sqrt(1-cos^2) finite at exact parallelism


class AAMHead(Module):
    """Speaker classification head with scaled-cosine margin logits."""

    def __init__(self, n_classes: int, emb_dim: int, scale: float = 30.0,
                 margin: float = 0.2, *, rng: np.random.Generator, dtype=np.float32):
        self.check(n_classes, scale, margin)
        self.scale = scale
        self.margin = margin
        self.n_classes = n_classes
        self.weights = xavier_uniform(rng, (n_classes, emb_dim), dtype)

    @staticmethod
    def check(n_classes: int, scale: float, margin: float) -> None:
        """Raise ConfigError unless a head with these fields can be built."""
        if n_classes < 2:
            raise ConfigError("need at least two classes")
        if scale <= 0 or not 0 <= margin < math.pi / 2:
            raise ConfigError("require scale > 0 and margin in [0, pi/2)")

    def logits_batch(self, emb: Tensor, labels: np.ndarray) -> Tensor:
        """(B, D) embeddings + integer labels -> (B, K) margin logits."""
        if emb.ndim != 2 or emb.shape[1] != self.weights.shape[1]:
            raise ShapeError(f"expected (B,{self.weights.shape[1]}) embeddings, got {emb.shape}")
        labels = np.asarray(labels)
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ConfigError(f"labels must lie in [0,{self.n_classes})")
        b = emb.shape[0]
        norms = sum_axis(emb * emb, 1, keepdims=True).sqrt()
        if np.any(norms.data < 1e-12):
            raise DomainError("zero-norm embedding")
        e = emb / norms
        wn = self.weights / sum_axis(self.weights * self.weights, 1, keepdims=True).sqrt()
        cos = matmul(e, transpose(wn, (1, 0)))                     # (B, K)

        onehot = np.zeros((b, self.n_classes), dtype=emb.data.dtype)
        onehot[np.arange(b), labels] = 1.0
        hot = Tensor(onehot)
        cos_t = sum_axis(cos * hot, 1, keepdims=True)              # (B, 1)
        sin_t = ((1.0 - cos_t * cos_t).relu() + _SIN_EPS).sqrt()
        phi = cos_t * math.cos(self.margin) - sin_t * math.sin(self.margin)
        # theta + m > pi  <=>  cos(theta) < -cos(m): clamp the logit at -1
        feasible = Tensor((cos_t.data >= -math.cos(self.margin)).astype(emb.data.dtype))
        target = phi * feasible + (feasible - 1.0)
        return (cos + hot * (target - cos_t)) * self.scale


def ce_loss_batch(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over a batch of (B, K) logits, as a scalar Tensor."""
    if logits.ndim != 2:
        raise ShapeError(f"expected (B,K) logits, got {logits.shape}")
    b, k = logits.shape
    onehot = np.zeros((b, k), dtype=logits.data.dtype)
    onehot[np.arange(b), np.asarray(labels)] = 1.0
    # max-shifted for stability; the shift is constant w.r.t. the graph
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    z = logits - shift
    lse = sum_axis(z.exp(), 1).log()                               # (B,)
    zt = sum_axis(z * Tensor(onehot), 1)
    return (lse - zt).sum() / b
