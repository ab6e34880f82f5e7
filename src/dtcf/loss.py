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
from .layers import Module, draw, parameter
from .tensor import Tensor, per_column, sum_axis

__all__ = ["AAMHead", "ce_loss_batch"]

_SIN_EPS = 1e-12  # keeps d/dcos sqrt(1-cos^2) finite at exact parallelism


def _onehot(labels, b: int, k: int, dtype) -> np.ndarray:
    """The (B, K) one-hot of ``labels``, which must be B integers in [0, K)."""
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ShapeError(f"expected {b} labels, got shape {labels.shape}")
    if labels.dtype.kind not in "iu" or np.any((labels < 0) | (labels >= k)):
        raise ConfigError(f"labels must be integers in [0,{k})")
    onehot = np.zeros((b, k), dtype=dtype)
    onehot[np.arange(b), labels] = 1.0
    return onehot


class AAMHead(Module):
    """Speaker classification head with scaled-cosine margin logits; its weights
    are drawn from ``rng``, or left zero for a checkpoint when it is None."""

    def __init__(self, n_classes: int, emb_dim: int, scale: float = 30.0,
                 margin: float = 0.2, *, rng: np.random.Generator | None):
        self.check(n_classes, scale, margin)
        self.scale = scale
        self.margin = margin
        self.n_classes = n_classes
        self.weights = parameter(np.zeros((n_classes, emb_dim), dtype=np.float32))
        if rng is not None:
            draw(self, rng)

    @staticmethod
    def check(n_classes: int, scale: float, margin: float) -> None:
        """Raise ConfigError unless a head with these fields can be built."""
        if n_classes < 2:
            raise ConfigError("need at least two classes")
        if not 0 < scale < math.inf or not 0 <= margin < math.pi / 2:
            raise ConfigError("require finite scale > 0 and margin in [0, pi/2)")

    def logits_batch(self, emb: Tensor, labels: np.ndarray) -> Tensor:
        """(B, D) embeddings + integer labels -> (B, K) margin logits."""
        if emb.ndim != 2 or emb.shape[1] != self.weights.shape[1]:
            raise ShapeError(f"expected (B,{self.weights.shape[1]}) embeddings, got {emb.shape}")
        hot = Tensor(_onehot(labels, emb.shape[0], self.n_classes, emb.dtype))
        norms = sum_axis(emb * emb, 1, keepdims=True).sqrt()
        if np.any(norms.data < 1e-12):
            raise DomainError("zero-norm embedding")
        e = emb / norms
        wn = self.weights / sum_axis(self.weights * self.weights, 1, keepdims=True).sqrt()
        cos = per_column(wn, e)                                    # (B, K)
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
    hot = Tensor(_onehot(labels, b, k, logits.dtype))
    # max-shifted for stability; the shift is constant w.r.t. the graph
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    z = logits - shift
    lse = sum_axis(z.exp(), 1).log()                               # (B,)
    zt = sum_axis(z * hot, 1)
    return (lse - zt).sum() / b
