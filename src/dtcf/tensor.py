"""Dense tensors with reverse-mode automatic differentiation.

Every network operation in the toolkit is expressed through the ops in this
module. A Tensor wraps a numpy array; each op records its parents and a
backward closure on the output node, and ``backward()`` replays the closures
in reverse topological order. Training runs at float32, gradient checks at
float64 (pass ``dtype`` to the factories).

Broadcasting is deliberately narrow: both operands must have the same rank
and every dimension must either match or be 1 on one side. Anything fancier
is rejected so the backward rules stay simple.

Batch axis: every op over samples (convolution, the layers, the attention
stages, pooling, the model) is written once, for a leading batch axis.
Decorated with ``unbatched(rank)``, it also takes a single sample of rank
``rank``: the sample gets a batch axis of size 1 on the way in, and the
results lose it on the way out. Any other rank raises ShapeError.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, GradCheckError, ShapeError

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "full",
    "matmul",
    "conv2d",
    "mean_axis",
    "sum_axis",
    "concat",
    "split",
    "reshape",
    "transpose",
    "unbatched",
    "topo_order",
    "backward",
    "zero_grads",
    "grad_check",
    "no_grad",
]

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A numpy array plus an optional slot on the recorded graph.

    ``requires_grad`` marks leaves whose gradient should be populated by
    ``backward``; it is initialised to zeros on creation so that leaves left
    untouched by a backward pass report a zero gradient rather than None.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward: Callable | None = None):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            return _binary(self, other, np.add,
                           lambda g, a, b: g, lambda g, a, b: g)
        return _unary(self, self.data + self.dtype.type(other), lambda g: g)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return _binary(self, other, np.subtract,
                           lambda g, a, b: g, lambda g, a, b: -g)
        return _unary(self, self.data - self.dtype.type(other), lambda g: g)

    def __rsub__(self, other):
        return _unary(self, self.dtype.type(other) - self.data, lambda g: -g)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return _binary(self, other, np.multiply,
                           lambda g, a, b: g * b, lambda g, a, b: g * a)
        c = self.dtype.type(other)
        return _unary(self, self.data * c, lambda g: g * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return _binary(self, other, np.divide,
                           lambda g, a, b: g / b,
                           lambda g, a, b: -g * a / (b * b))
        c = self.dtype.type(other)
        return _unary(self, self.data / c, lambda g: g / c)

    def __neg__(self):
        return _unary(self, -self.data, lambda g: -g)

    # -- pointwise nonlinearities -------------------------------------------

    def relu(self) -> "Tensor":
        # subgradient at 0 is 0 by convention; mask is recomputed lazily
        return _unary(self, np.maximum(self.data, 0), lambda g: g * (self.data > 0))

    def sigmoid(self) -> "Tensor":
        s = _stable_sigmoid(self.data)
        return _unary(self, s, lambda g: g * (s * (1 - s)))

    def tanh(self) -> "Tensor":
        t = np.tanh(self.data)
        return _unary(self, t, lambda g: g * (1 - t * t))

    def sqrt(self) -> "Tensor":
        if np.any(self.data < 0):
            raise DomainError("sqrt of negative value")
        r = np.sqrt(self.data)
        return _unary(self, r, lambda g: g * (0.5 / np.maximum(r, np.finfo(r.dtype).tiny)))

    def log(self) -> "Tensor":
        if np.any(self.data <= 0):
            raise DomainError("log of non-positive value")
        return _unary(self, np.log(self.data), lambda g: g / self.data)

    def exp(self) -> "Tensor":
        e = np.exp(self.data)
        return _unary(self, e, lambda g: g * e)

    # -- reductions & shaping -----------------------------------------------

    def sum(self) -> "Tensor":
        shape, dtype = self.data.shape, self.data.dtype
        return _unary(self, np.asarray(self.data.sum(), dtype=dtype),
                      lambda g: np.broadcast_to(g, shape))

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes) -> "Tensor":
        return transpose(self, axes if len(axes) > 1 else axes[0])

    def backward(self) -> None:
        backward(self)


# -- factories ---------------------------------------------------------------

def tensor(data, dtype=np.float32, requires_grad: bool = False) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


def zeros(shape, dtype=np.float32, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, dtype=np.float32, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def full(shape, value, dtype=np.float32) -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype))


# -- graph plumbing -----------------------------------------------------------

def _node(data: np.ndarray, parents: tuple, backward_fn: Callable | None) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        out = Tensor(data, _parents=parents, _backward=backward_fn)
        out.requires_grad = True
        out.grad = None  # interior grads are allocated lazily by backward
        return out
    return Tensor(data)


def _unary(x: Tensor, data: np.ndarray, dgrad: Callable) -> Tensor:
    def bwd(g):
        x._accum(dgrad(g))
    return _node(data, (x,), bwd)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp is only ever taken of a non-positive argument, so it cannot overflow
    pos = x >= 0
    ex = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _check_broadcast(sa: tuple, sb: tuple) -> None:
    if len(sa) != len(sb):
        raise ShapeError(f"rank mismatch {sa} vs {sb}")
    for da, db in zip(sa, sb):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"shapes {sa} and {sb} are not singleton-broadcastable")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g over the axes that were stretched from size 1."""
    axes = tuple(i for i, (d, gd) in enumerate(zip(shape, g.shape)) if d == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _binary(a: Tensor, b: Tensor, fwd, da: Callable, db: Callable) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    data = fwd(a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(da(g, a.data, b.data), a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(db(g, a.data, b.data), b.shape))
    return _node(data, (a, b), bwd)


# -- batch axis ----------------------------------------------------------------

def unbatched(rank: int):
    """Let an op written for a leading batch axis also take a single sample.

    The first positional Tensor argument decides. With ``rank + 1`` dims the
    op runs as written. With ``rank`` dims every Tensor argument of that rank
    gains a leading axis of size 1, and every Tensor result, alone or in a
    tuple, loses it again. Any other rank raises ShapeError.
    """
    def lift(a):
        return reshape(a, (1,) + a.shape) if isinstance(a, Tensor) and a.ndim == rank else a

    def drop(out):
        return reshape(out, out.shape[1:]) if isinstance(out, Tensor) else out

    def decorate(op):
        @functools.wraps(op)
        def wrapper(*args, **kwargs):
            first = next((a for a in args if isinstance(a, Tensor)), None)
            if first is None or first.ndim == rank + 1:
                return op(*args, **kwargs)
            if first.ndim != rank:
                raise ShapeError(f"{op.__qualname__} expects rank {rank} or {rank + 1}, "
                                 f"got shape {first.shape}")
            out = op(*map(lift, args), **kwargs)
            return tuple(map(drop, out)) if isinstance(out, tuple) else drop(out)
        return wrapper
    return decorate


# -- linear algebra -----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product; backward is dA = g Bᵀ, dB = Aᵀ g."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)
    return _node(data, (a, b), bwd)


@unbatched(3)
def conv2d(x: Tensor, kernels: Tensor, stride=(1, 1), padding=(0, 0)) -> Tensor:
    """2-D cross-correlation (no kernel flip) over the trailing two axes.

    ``x`` is (B, Cin, T, F); ``kernels`` is (Cout, Cin, kh, kw). Output
    extents follow the usual floor rule T' = (T + 2p - kh) // s + 1: windows
    that would run past the padded input are dropped.
    """
    if kernels.ndim != 4:
        raise ShapeError(f"kernels must be rank 4, got {kernels.shape}")
    cout, cin, kh, kw = kernels.shape
    sh, sw = stride
    ph, pw = padding
    if kh < 1 or kw < 1 or sh < 1 or sw < 1 or ph < 0 or pw < 0:
        raise ConfigError("kernel and stride must be >= 1, padding >= 0")
    b, c, t, f = x.shape
    if c != cin:
        raise ShapeError(f"input has {c} channels, kernels expect {cin}")
    to, fo = (t + 2 * ph - kh) // sh + 1, (f + 2 * pw - kw) // sw + 1
    if to < 1 or fo < 1:
        raise ConfigError(f"kernel {kh}x{kw} does not fit padded input {t + 2 * ph}x{f + 2 * pw}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x.data
    span_t, span_f = (to - 1) * sh + 1, (fo - 1) * sw + 1
    m = b * to * fo
    k = cin * kh * kw
    # im2col: one copy of the strided windows, laid out (cin, kh, kw, b, to, fo);
    # the forward product and the kernel gradient share it
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cols2 = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(k, m)
    w2 = kernels.data.reshape(cout, k)
    out = np.ascontiguousarray((w2 @ cols2).reshape(cout, b, to, fo).transpose(1, 0, 2, 3))

    def bwd(g):
        g2 = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(cout, m)
        if kernels.requires_grad:
            # (K, M) @ (M, Cout) is the orientation BLAS runs fast for a long M
            kernels._accum((cols2 @ g2.T).T.reshape(kernels.shape))
        if x.requires_grad:
            # col2im one tap at a time into a channel-first padded buffer
            dxp = np.zeros((cin, b) + xp.shape[2:], dtype=xp.dtype)
            for di in range(kh):
                for dj in range(kw):
                    dxp[:, :, di:di + span_t:sh, dj:dj + span_f:sw] += \
                        (kernels.data[:, :, di, dj].T @ g2).reshape(cin, b, to, fo)
            x._accum(dxp[:, :, ph:ph + t, pw:pw + f].transpose(1, 0, 2, 3))

    return _node(out, (x, kernels), bwd)


# -- reductions ----------------------------------------------------------------

def _axis_check(x: Tensor, axis: int) -> int:
    if not 0 <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.shape}")
    return axis


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """Arithmetic mean along ``axis``; the axis is removed."""
    axis = _axis_check(x, axis)
    n = x.shape[axis]
    data = x.data.mean(axis=axis)

    def bwd(g):
        x._accum(np.broadcast_to(np.expand_dims(g, axis), x.shape) / n)
    return _node(data, (x,), bwd)


def sum_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    axis = _axis_check(x, axis)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        ge = g if keepdims else np.expand_dims(g, axis)
        x._accum(np.broadcast_to(ge, x.shape))
    return _node(data, (x,), bwd)


# -- structural ops --------------------------------------------------------------

def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    axis = _axis_check(a, axis)
    if a.ndim != b.ndim:
        raise ShapeError(f"rank mismatch {a.shape} vs {b.shape}")
    for i, (da, db) in enumerate(zip(a.shape, b.shape)):
        if i != axis and da != db:
            raise ShapeError(f"non-concat dims differ at axis {i}: {a.shape} vs {b.shape}")
    na = a.shape[axis]
    data = np.concatenate([a.data, b.data], axis=axis)
    sl_a = tuple(slice(None) if i != axis else slice(0, na) for i in range(a.ndim))
    sl_b = tuple(slice(None) if i != axis else slice(na, None) for i in range(a.ndim))

    def bwd(g):
        if a.requires_grad:
            a._accum(g[sl_a])
        if b.requires_grad:
            b._accum(g[sl_b])
    return _node(data, (a, b), bwd)


def split(x: Tensor, axis: int, at: int) -> tuple[Tensor, Tensor]:
    """Split along ``axis`` so the first part has extent ``at``. Inverse of concat."""
    axis = _axis_check(x, axis)
    if not 0 < at < x.shape[axis]:
        raise ShapeError(f"split point {at} out of range for axis extent {x.shape[axis]}")
    sl_a = tuple(slice(None) if i != axis else slice(0, at) for i in range(x.ndim))
    sl_b = tuple(slice(None) if i != axis else slice(at, None) for i in range(x.ndim))

    def bwd_a(g):
        full_g = np.zeros_like(x.data)
        full_g[sl_a] = g
        x._accum(full_g)

    def bwd_b(g):
        full_g = np.zeros_like(x.data)
        full_g[sl_b] = g
        x._accum(full_g)

    return (_node(x.data[sl_a].copy(), (x,), bwd_a),
            _node(x.data[sl_b].copy(), (x,), bwd_b))


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)

    def bwd(g):
        x._accum(g.reshape(x.shape))
    return _node(data, (x,), bwd)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = x.data.transpose(axes)

    def bwd(g):
        x._accum(g.transpose(inv))
    return _node(data, (x,), bwd)


# -- backward pass -----------------------------------------------------------

def topo_order(root: Tensor) -> list[Tensor]:
    """The recorded tape below ``root``: parents always precede consumers."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Populate ``grad`` of every requires_grad leaf under a scalar root."""
    if root.shape != ():
        raise ShapeError(f"backward root must be a scalar, got shape {root.shape}")
    order = topo_order(root)
    root._accum(np.ones((), dtype=root.dtype))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = np.zeros_like(p.data)


# -- verification harness ------------------------------------------------------

def inject_backward_fault(x: Tensor, factor: float = 1.01) -> Tensor:
    """Identity forward with a deliberately wrong backward rule.

    Verification fixture: inserting this into a graph must make grad_check
    fail, proving the checker can detect a corrupted rule.
    """
    return _unary(x, x.data.copy(), lambda g: g * factor)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Compare the recorded backward of ``f`` against central differences.

    ``f`` must be deterministic and scalar-valued; ``x`` should be float64.
    Returns max over coordinates of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12).
    """
    x.requires_grad = True
    x.grad = np.zeros_like(x.data)
    out = f(x)
    backward(out)
    analytic = x.grad.copy()
    if np.any(~np.isfinite(analytic)):
        idx = np.unravel_index(int(np.argmin(np.isfinite(analytic))), analytic.shape)
        raise GradCheckError(f"NaN/Inf in analytic gradient at index {idx}")

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(x).data)
            flat[i] = orig - eps
            lo = float(f(x).data)
            flat[i] = orig
            nflat[i] = (hi - lo) / (2 * eps)
    if np.any(~np.isfinite(numeric)):
        idx = np.unravel_index(int(np.argmin(np.isfinite(numeric))), numeric.shape)
        raise GradCheckError(f"NaN/Inf in numeric gradient at index {idx}")

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))
