"""Dense tensors with reverse-mode automatic differentiation.

Every network operation in the toolkit is expressed through the ops in this
module. A Tensor wraps a numpy array; each op records its parents and a
backward closure on the output node, and ``backward()`` replays the closures
in reverse topological order. A graph is walked once: each interior node's
closure, parents and gradient are dropped as soon as its closure has run, so
the memory of the graph is freed during the walk, and a second walk over it
raises DomainError. Training runs at float32, gradient checks at float64: a
Tensor takes the dtype of the array it wraps.

Broadcasting is deliberately narrow: both operands must have the same rank
and every dimension must either match or be 1 on one side. Anything fancier
is rejected so the backward rules stay simple.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, GradCheckError, ShapeError

__all__ = [
    "Tensor",
    "matmul",
    "conv2d",
    "mean_axis",
    "sum_axis",
    "concat",
    "split",
    "reshape",
    "transpose",
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
    untouched by a backward pass report a zero gradient rather than None. A
    layer parameter (``layers.parameter``) starts without one instead, until
    ``zero_grads`` or ``backward`` gives it one.
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

    def backward(self) -> None:
        backward(self)


# -- graph plumbing -----------------------------------------------------------

def _node(data: np.ndarray, parents: tuple, backward_fn: Callable | None) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        out = Tensor(data, _parents=parents, _backward=backward_fn)
        out.requires_grad = True     # its grad stays None until backward reaches it
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


# Forward tiles span whole output rows of one sample: at least 32 rows, so a
# full-width stage-1 tile holds 2.9 of the op's 27.6 MB of im2col columns at
# T=300, and at least 1,024 positions, as each tile's GEMM repacks the whole
# kernel matrix (2.4 MB at 256 channels). At these sizes OpenBLAS keeps the
# bits of the one-GEMM product; 16-row tiles do not.
_TILE_ROWS, _TILE_POSITIONS = 32, 1024
# Backward positions per tap GEMM: at <= 32 float32 channels a block of gf with
# its block of xq or dq (1 MiB) stays in a 2 MiB L2 across a phase's taps.
_BLOCK_COLS = 4096


def _phase_cut(u: int, stride: int, pad: int, size: int) -> tuple[slice, slice]:
    """Where the stride phase of padded rows u::stride meets the unpadded input:
    the phase positions that hold input rows, and those rows."""
    first = max(0, -(-(pad - u) // stride))
    start = u + stride * first - pad
    return slice(first, first + len(range(start, size, stride))), slice(start, size, stride)


def conv2d(x: Tensor, kernels: Tensor, stride=(1, 1), padding=(0, 0)) -> Tensor:
    """2-D cross-correlation (no kernel flip) over the trailing two axes.

    ``x`` is (B, Cin, T, F); ``kernels`` is (Cout, Cin, kh, kw). Output
    extents follow the usual floor rule T' = (T + 2p - kh) // s + 1: windows
    that would run past the padded input are dropped.

    The forward runs one im2col GEMM per tile of output rows of one sample,
    writing the tile's slice of the output, so no column matrix of the whole
    op exists. The backward keeps nothing but ``x``, which the graph holds
    anyway: it rebuilds the padded input, channel-first and split into the
    sh x sw stride phases its taps read, and takes both gradients tap by tap
    as GEMMs over shifted views of that flat grid, one block of positions at
    a time, so that all of a phase's taps read each block from cache.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4 (B, Cin, T, F), got {x.shape}")
    if kernels.ndim != 4:
        raise ShapeError(f"conv2d kernels must be rank 4, got {kernels.shape}")
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
    k = cin * kh * kw
    w2 = kernels.data.reshape(cout, k)
    out = np.empty((b, cout, to, fo), dtype=np.result_type(xp, w2))
    # im2col windows viewed (b, cin, to, fo, kh, kw); each tile copies its slice to one buffer
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    # whole tiles of at least the minimum height: a short last tile would run another GEMM kernel
    nt = max(1, to // max(_TILE_ROWS, -(-_TILE_POSITIONS // fo)))
    edges = [to * j // nt for j in range(nt + 1)]
    buf = np.empty(k * -(-to // nt) * fo, dtype=xp.dtype)
    for i in range(b):
        for r, e in zip(edges, edges[1:]):
            cols = buf[:k * (e - r) * fo].reshape(cin, kh, kw, e - r, fo)
            cols[...] = win[i, :, r:e].transpose(0, 3, 4, 1, 2)
            np.matmul(w2, cols.reshape(k, -1), out=out[i, :, r:e].reshape(cout, -1))

    def bwd(g):
        # Stride phase (u, v) holds the padded rows u::sh and columns v::sw on a grid of
        # tq x fq positions per sample, flattened channel-first to (C, n). Output (i, j)
        # sits at grid position (i, j), and tap (di, dj) reads phase (di % sh, dj % sw)
        # at the fixed shift s: one GEMM over a shifted view per tap and block. Grid
        # positions past (to, fo) carry a zero gradient, so reads that run past a row or
        # a sample add nothing.
        tq, fq = -(-(t + 2 * ph) // sh), -(-(f + 2 * pw) // sw)
        n = b * tq * fq
        taps: dict = {}
        for di in range(kh):
            for dj in range(kw):
                taps.setdefault((di % sh, dj % sw), []).append((di, dj, di // sh * fq + dj // sw))
        gf = np.zeros((cout, b, tq, fq), dtype=g.dtype)
        gf[:, :, :to, :fo] = g.transpose(1, 0, 2, 3)
        gf = gf.reshape(cout, n)
        wt = np.ascontiguousarray(kernels.data.transpose(2, 3, 1, 0))
        dw = np.zeros((kh, kw, cin, cout), dtype=kernels.dtype)
        dx = np.zeros(x.shape, dtype=x.dtype)
        for (u, v), phase_taps in taps.items():
            (qu, ru), (qv, rv) = _phase_cut(u, sh, ph, t), _phase_cut(v, sw, pw, f)
            if kernels.requires_grad:
                xq = np.zeros((cin, b, tq, fq), dtype=x.dtype)
                xq[:, :, qu, qv] = x.data[:, :, ru, rv].transpose(1, 0, 2, 3)
                xq = xq.reshape(cin, n)
                for lo in range(0, n, _BLOCK_COLS):
                    for di, dj, s in phase_taps:
                        hi = min(lo + _BLOCK_COLS, n - s)
                        dw[di, dj] += xq[:, lo + s:hi + s] @ gf[:, lo:hi].T
                del xq
            if x.requires_grad:
                dq = np.zeros((cin, n), dtype=x.dtype)
                for lo in range(0, n, _BLOCK_COLS):
                    for di, dj, s in phase_taps:
                        hi = min(lo + _BLOCK_COLS, n - s)
                        dq[:, lo + s:hi + s] += wt[di, dj] @ gf[:, lo:hi]
                dx[:, :, ru, rv] = dq.reshape(cin, b, tq, fq)[:, :, qu, qv].transpose(1, 0, 2, 3)
        if kernels.requires_grad:
            kernels._accum(dw.transpose(3, 2, 0, 1))
        if x.requires_grad:
            x._accum(dx)

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

    def part(span: slice) -> Tensor:
        sl = tuple(slice(None) if i != axis else span for i in range(x.ndim))

        def bwd(g):
            full_g = np.zeros_like(x.data)
            full_g[sl] = g
            x._accum(full_g)
        return _node(x.data[sl].copy(), (x,), bwd)

    return part(slice(0, at)), part(slice(at, None))


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


def _freed(g: np.ndarray) -> None:
    """The closure of a node that ``backward`` has already run."""
    raise DomainError("backward through a graph that was already backpropagated: "
                      "its closures were freed")


def backward(root: Tensor) -> None:
    """Populate ``grad`` of every requires_grad leaf under a scalar root.

    The graph is walked once: as each interior node's closure runs, its
    closure, parents and gradient are dropped, so the arrays the closure saved
    are freed during the walk. The node's ``data`` stays. A later backward
    that reaches a freed node with a gradient raises DomainError.
    """
    if root.shape != ():
        raise ShapeError(f"backward root must be a scalar, got shape {root.shape}")
    order = topo_order(root)
    root._accum(np.ones((), dtype=root.dtype))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node._backward, node._parents, node.grad = _freed, (), None


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
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12). Raises
    GradCheckError if either gradient is not finite, or if both are all zero.
    """
    if not eps > 0:
        raise ConfigError(f"finite-difference step eps must be > 0, got {eps}")
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
    if not analytic.any() and not numeric.any():
        raise GradCheckError("analytic and numeric gradients are all exactly zero: nothing checked")

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))
