"""Dense tensors with reverse-mode automatic differentiation.

Every network operation in the toolkit is expressed through the ops in this
module. A Tensor wraps a numpy array. An op whose parents need a gradient
gives its output a slot on the tape: the output's gradient, the backward
closure and the slots of those parents, and never an array. Each closure
captures by name only the arrays its rule reads, so a map that no rule reads
is freed once the caller drops its Tensor, and constants never enter the
tape. A trainable leaf is its own slot. A slot copies the first gradient it
is given, unless a closure hands it a new array that nothing else holds
(``_Slot._take``). ``backward()`` replays the closures in
reverse topological order. A tape is walked once: each slot's closure,
parents and gradient are dropped as soon as its closure has run, and the walk
holds no slot it has passed, so the arrays a closure kept are freed during
the walk. A second walk over the tape raises DomainError.
Training runs at float32, gradient checks at float64: a Tensor takes the
dtype of the array it wraps.

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
    "add_relu",
    "per_column",
    "conv2d",
    "mean_axis",
    "sum_axis",
    "concat",
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


class _Slot:
    """An op's output on the tape: its gradient, the closure that passes that
    gradient to its parents, and their slots. It holds no array of its own.

    A gradient comes in one of two ways. ``_accum`` copies its first array,
    since the caller may still hold or read it: a closure's ``g`` and any view
    of it. ``_take`` keeps its first array as the gradient, and is only for a
    new array that the closure built and neither reads again nor hands to
    ``_take`` twice. Either way, a later array is added in place.
    """

    __slots__ = ("grad", "_backward", "_parents")

    def __init__(self, parents: tuple, backward_fn: Callable):
        self.grad, self._backward, self._parents = None, backward_fn, parents

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def _take(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


class Tensor:
    """A numpy array, and the slot of the op that made it if it is on the tape.

    A Tensor is built from its data alone, as a constant: it never enters the
    tape and gets no gradient. ``layers.parameter`` is the one maker of
    trainable leaves (``requires_grad``, with ``grad`` None until
    ``zero_grads`` or ``backward`` gives it one); a leaf is its own slot.
    ``_node`` is the one maker of interior nodes, whose ``_parents`` and
    ``_backward`` are those of their slot. A number operand of ``+ - * /``
    becomes a constant of the other operand's dtype and rank, so each
    operator has one rule.
    """

    __slots__ = ("data", "grad", "requires_grad", "_slot")

    def __init__(self, data):
        self.data = np.asarray(data)
        self.requires_grad = False
        self.grad = None
        self._slot = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def _parents(self) -> tuple:
        return () if self._slot is None else self._slot._parents

    @property
    def _backward(self):
        return None if self._slot is None else self._slot._backward

    @_backward.setter
    def _backward(self, fn: Callable) -> None:
        self._slot._backward = fn

    _accum, _take = _Slot._accum, _Slot._take

    def _lift(self, other) -> "Tensor":
        """``other``, with a number made a constant of this dtype and rank."""
        if isinstance(other, Tensor):
            return other
        return Tensor(np.full((1,) * self.ndim, other, dtype=self.dtype))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return _binary(self, self._lift(other), np.add, lambda g: g, lambda g: g)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, self._lift(other), np.subtract, lambda g: g, lambda g: -g)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        a, b = self.data, other.data
        return _binary(self, other, np.multiply, lambda g: g * b, lambda g: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        a, b = self.data, other.data
        return _binary(self, other, np.divide, lambda g: g / b, lambda g: -g * a / (b * b))

    # -- pointwise nonlinearities -------------------------------------------

    def relu(self) -> "Tensor":
        # subgradient at 0 is 0 by convention; the mask comes from the output,
        # which is positive exactly where the input was (both are false for NaN)
        r = np.maximum(self.data, 0)
        return _unary(self, r, lambda g: g * (r > 0))

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
        x = self.data
        if np.any(x <= 0):
            raise DomainError("log of non-positive value")
        return _unary(self, np.log(x), lambda g: g / x)

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

def _slots(*tensors: Tensor) -> list:
    """Each Tensor's slot if it needs a gradient and recording is on, else None."""
    return [(t._slot or t) if _grad_enabled and t.requires_grad else None for t in tensors]


def _node(data: np.ndarray, slots: Sequence, backward_fn: Callable) -> Tensor:
    """The output of an op: an interior node whose slot holds ``backward_fn`` and
    the parent slots of ``slots`` that are not None, or a constant if all are.

    The node holds ``data`` for as long as the caller holds the Tensor. The
    tape holds only what ``backward_fn`` captured: each op's closure captures
    by name the arrays its rule reads and the parent slots, and no op output.
    ``backward_fn`` gives each parent its gradient through ``_accum``, or
    through ``_take`` for a new array that it reads no more and gives no other
    parent to take.
    """
    out = Tensor(data)
    parents = tuple(s for s in slots if s is not None)
    if parents:
        out.requires_grad, out._slot = True, _Slot(parents, backward_fn)
    return out


def _unary(x: Tensor, data: np.ndarray, dgrad: Callable) -> Tensor:
    xs, = _slots(x)

    def bwd(g):
        xs._accum(dgrad(g))
    return _node(data, (xs,), bwd)


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
    """``fwd(a, b)``, whose operands' gradients are ``da(g)`` and ``db(g)`` summed
    back to their shapes. Each rule, with the arrays it captured, is kept only
    if its operand needs a gradient."""
    _check_broadcast(a.shape, b.shape)
    sa, sb = _slots(a, b)
    da, db = (da if sa is not None else None), (db if sb is not None else None)
    shape_a, shape_b = a.shape, b.shape

    def bwd(g):
        if sa is not None:
            sa._accum(_unbroadcast(da(g), shape_a))
        if sb is not None:
            sb._accum(_unbroadcast(db(g), shape_b))
    return _node(fwd(a.data, b.data), (sa, sb), bwd)


def add_relu(a: Tensor, b: Tensor) -> Tensor:
    """``(a + b).relu()`` as one node over same-shape operands, which keeps
    only its output: the mask comes from the output, positive where the sum
    was, so neither operand nor the sum before the ReLU is kept. The masked
    gradient is a new array: ``a``'s slot takes it, and ``b``'s, which gets
    the same array, copies it."""
    if a.shape != b.shape:
        raise ShapeError(f"add_relu takes operands of one shape, got {a.shape} and {b.shape}")
    data = a.data + b.data
    np.maximum(data, 0, out=data)
    sa, sb = _slots(a, b)

    def bwd(g):
        g = g * (data > 0)
        if sb is not None:
            sb._accum(g)
        if sa is not None:
            sa._take(g)
    return _node(data, (sa, sb), bwd)


# -- linear algebra -----------------------------------------------------------

def per_column(w: Tensor, u: Tensor) -> Tensor:
    """Apply a (C2, C1) weight to every column of a (B, C1) or (B, C1, P) input:
    one GEMM over its (C1, B·P) view, and one for each gradient. The output is
    C-contiguous; on a (B, C1) input it and the gradients equal ``u @ w.T``,
    ``g @ w`` and ``(u.T @ g).T`` bit for bit. The node keeps ``flat``, the
    input's (C1, B·P) view (a copy if the input has rank 3), and the weight."""
    if w.ndim != 2 or u.ndim not in (2, 3) or w.shape[1] != u.shape[1]:
        raise ShapeError(f"weight {w.shape} does not take the columns of {u.shape}")
    c2, c1 = w.shape
    wd, (ws, us) = w.data, _slots(w, u)
    cols = u.data.swapaxes(0, 1)
    flat, positions = cols.reshape(c1, -1), cols.shape[1:]
    out = np.ascontiguousarray((wd @ flat).reshape((c2,) + positions).swapaxes(0, 1))

    def bwd(g):
        g2 = g.swapaxes(0, 1).reshape(c2, -1)
        if ws is not None:
            ws._accum(g2 @ flat.T)
        if us is not None:
            us._accum(np.moveaxis((g2.T @ wd).reshape(positions + (c1,)), -1, 1))
    return _node(out, (ws, us), bwd)


# Forward tiles span whole output rows of one sample: at least 32 rows, so a
# full-width stage-1 tile holds 2.9 of the op's 27.6 MB of im2col columns at
# T=300, and at least 1,024 positions, as each tile's GEMM repacks the whole
# kernel matrix (2.4 MB at 256 channels). At these sizes OpenBLAS keeps the
# bits of the one-GEMM product; 16-row tiles do not.
_TILE_ROWS, _TILE_POSITIONS = 32, 1024
# Backward blocks are sized by values per operand, not by positions: a block of gf
# with its block of xq or dq stays in a 2 MiB L2 across a phase's taps. 65,536
# values (256 KiB of float32) give 16,384 positions at 4 channels and 8,192 at 8,
# where 4,096 positions made hundreds of tiny GEMMs per conv; from 16 channels up
# the floor of 4,096 positions holds, the best block there.
_BLOCK_COLS, _BLOCK_VALUES = 4096, 65536


def _block_positions(cin: int, cout: int) -> int:
    """Grid positions per block of the backward of a conv from cin to cout channels."""
    return max(_BLOCK_COLS, _BLOCK_VALUES // max(cin, cout))


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

    The forward pads the input into one zeroed array and runs one im2col
    GEMM per tile of output rows of one sample, writing the tile's slice of
    the output, so no column matrix of the whole op exists. The backward
    keeps nothing but the input and the kernels: it rebuilds the padded
    input, channel-first and split into the sh x sw stride phases its taps
    read, and takes both gradients tap by tap as GEMMs over shifted views of
    that flat grid, one block of positions at a time, so that all of a
    phase's taps read each block from cache. Each phase writes the input
    positions it holds into ``dx``. When kh >= sh and kw >= sw every phase
    has a tap, so the phases write every position and ``dx`` starts empty;
    otherwise it starts at zero. The input's slot takes ``dx``.
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

    xd, kd, (xs, ks) = x.data, kernels.data, _slots(x, kernels)
    xp = xd
    if ph or pw:
        xp = np.zeros((b, c, t + 2 * ph, f + 2 * pw), dtype=xd.dtype)
        xp[:, :, ph:ph + t, pw:pw + f] = xd
    k = cin * kh * kw
    w2 = kd.reshape(cout, k)
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
        wt = np.ascontiguousarray(kd.transpose(2, 3, 1, 0))
        dw = np.zeros((kh, kw, cin, cout), dtype=kd.dtype)
        dx = (np.empty if kh >= sh and kw >= sw else np.zeros)(xd.shape, dtype=xd.dtype)
        block = _block_positions(cin, cout)
        for (u, v), phase_taps in taps.items():
            (qu, ru), (qv, rv) = _phase_cut(u, sh, ph, t), _phase_cut(v, sw, pw, f)
            if ks is not None:
                xq = np.zeros((cin, b, tq, fq), dtype=xd.dtype)
                xq[:, :, qu, qv] = xd[:, :, ru, rv].transpose(1, 0, 2, 3)
                xq = xq.reshape(cin, n)
                for lo in range(0, n, block):
                    for di, dj, s in phase_taps:
                        hi = min(lo + block, n - s)
                        dw[di, dj] += xq[:, lo + s:hi + s] @ gf[:, lo:hi].T
                del xq
            if xs is not None:
                dq = np.zeros((cin, n), dtype=xd.dtype)
                for lo in range(0, n, block):
                    for di, dj, s in phase_taps:
                        hi = min(lo + block, n - s)
                        dq[:, lo + s:hi + s] += wt[di, dj] @ gf[:, lo:hi]
                dx[:, :, ru, rv] = dq.reshape(cin, b, tq, fq)[:, :, qu, qv].transpose(1, 0, 2, 3)
        if ks is not None:
            ks._accum(dw.transpose(3, 2, 0, 1))
        if xs is not None:
            xs._take(dx)

    return _node(out, (xs, ks), bwd)


# -- reductions ----------------------------------------------------------------

def _axis_check(x: Tensor, axis: int) -> int:
    if not 0 <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.shape}")
    return axis


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """Arithmetic mean along ``axis``; the axis is removed.

    The forward is a BLAS product with a vector of 1/n weights, which runs
    at the speed of one read of ``x`` also where the axis is short or strided
    and numpy's ``mean`` is 5-10x slower.
    """
    axis = _axis_check(x, axis)
    n = x.shape[axis]
    if n == 0:
        raise ShapeError(f"mean over empty axis {axis} of shape {x.shape}")
    pre, post = int(np.prod(x.shape[:axis])), int(np.prod(x.shape[axis + 1:]))
    w = np.full(n, 1 / n, dtype=x.dtype)
    data = x.data.reshape(pre, n) @ w if post == 1 else w @ x.data.reshape(pre, n, post)
    data = data.reshape(x.shape[:axis] + x.shape[axis + 1:])
    shape, (xs,) = x.shape, _slots(x)

    def bwd(g):
        xs._accum(np.broadcast_to(np.expand_dims(g / n, axis), shape))
    return _node(data, (xs,), bwd)


def sum_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    axis = _axis_check(x, axis)
    data = x.data.sum(axis=axis, keepdims=keepdims)
    shape, (xs,) = x.shape, _slots(x)

    def bwd(g):
        ge = g if keepdims else np.expand_dims(g, axis)
        xs._accum(np.broadcast_to(ge, shape))
    return _node(data, (xs,), bwd)


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
    sa, sb = _slots(a, b)

    def bwd(g):
        if sa is not None:
            sa._accum(g[sl_a])
        if sb is not None:
            sb._accum(g[sl_b])
    return _node(data, (sa, sb), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)
    in_shape, (xs,) = x.shape, _slots(x)

    def bwd(g):
        xs._accum(g.reshape(in_shape))
    return _node(data, (xs,), bwd)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = x.data.transpose(axes)
    xs, = _slots(x)

    def bwd(g):
        xs._accum(g.transpose(inv))
    return _node(data, (xs,), bwd)


# -- backward pass -----------------------------------------------------------

def topo_order(root: Tensor) -> list:
    """The tape below ``root`` as slots, a leaf being its own: parents always
    precede consumers, so the root's slot comes last."""
    order: list = []
    seen: set[int] = set()
    stack: list[tuple] = [(root._slot or root, False)]
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
    """The closure of a slot that ``backward`` has already run."""
    raise DomainError("backward through a graph that was already backpropagated: "
                      "its closures were freed")


def backward(root: Tensor) -> None:
    """Populate ``grad`` of every requires_grad leaf under a scalar root.

    The tape is walked once, in reverse topological order. A slot holds no
    array: what the walk keeps alive is what the closures still to run
    captured, the gradients of the slots still to walk, and what the caller
    holds (``train()`` holds the logits). A slot's gradient is a copy of the
    first array it was given, or that array itself if the giver took no
    other copy of it (``_Slot._take``); later ones are added in place. As
    each closure runs, its slot drops it, its parents and its gradient, and
    the walk pops each slot off its order, so the arrays only that closure
    captured are freed before the next one runs. A later backward that
    reaches a walked slot with a gradient raises DomainError.
    """
    if root.shape != ():
        raise ShapeError(f"backward root must be a scalar, got shape {root.shape}")
    order = topo_order(root)
    order[-1]._accum(np.ones((), dtype=root.dtype))
    while order:
        node = order.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node._backward, node._parents, node.grad = _freed, (), None


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = np.zeros_like(p.data)


# -- verification harness ------------------------------------------------------

def inject_backward_fault(x: Tensor) -> Tensor:
    """Identity forward with a deliberately wrong backward rule: it scales the gradient by 1.01.

    Verification fixture: inserting this into a graph must make grad_check
    fail, proving the checker can detect a corrupted rule.
    """
    return _unary(x, x.data.copy(), lambda g: g * 1.01)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Compare the recorded backward of ``f`` against central differences.

    ``f`` must be deterministic and scalar-valued; ``x`` should be float64.
    Returns max over coordinates of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12). Raises
    GradCheckError if either gradient is not finite, or if both are all zero.
    ``x`` gets back its data, ``requires_grad`` and ``grad`` on return and on a raise.
    """
    if not eps > 0:
        raise ConfigError(f"finite-difference step eps must be > 0, got {eps}")
    held = x.requires_grad, x.grad
    try:
        x.requires_grad = True
        zero_grads([x])
        backward(f(x))
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
                try:
                    flat[i] = orig + eps
                    hi = float(f(x).data)
                    flat[i] = orig - eps
                    lo = float(f(x).data)
                finally:
                    flat[i] = orig
                nflat[i] = (hi - lo) / (2 * eps)
        if np.any(~np.isfinite(numeric)):
            idx = np.unravel_index(int(np.argmin(np.isfinite(numeric))), numeric.shape)
            raise GradCheckError(f"NaN/Inf in numeric gradient at index {idx}")
        if not analytic.any() and not numeric.any():
            raise GradCheckError("analytic and numeric gradients are all exactly zero: nothing checked")

        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
        return float(np.max(np.abs(analytic - numeric) / denom))
    finally:
        x.requires_grad, x.grad = held
