"""Span recorder and the patches that attribute run time to `dtcf`'s modules.

The benchmark measures from outside the program: `instrument` swaps each
traced function or method for a wrapper at the place its caller looks the
name up (``dtcf.layers.conv2d``, ``dtcf.train.adam_step``, ...) and puts the
original back on exit. Backward time of conv2d and train-mode batchnorm is
taken by wrapping the backward closure stored on the op's output tensor.

Spans are kept in memory as ``[name, start, end, parent, op]`` and written
out when the run ends. Counts (calls, flops, computed bytes) are added per op
at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import dtcf.attention
import dtcf.audio
import dtcf.cli
import dtcf.layers
import dtcf.loss
import dtcf.metrics
import dtcf.model
import dtcf.tensor
import dtcf.train

now = time.perf_counter

# Counts that must repeat exactly for identical inputs.
EXACT_COUNTS = ("tensor.conv2d.calls", "tensor.conv2d.flops", "tensor.conv2d.im2col_bytes",
                "tensor.graph_nodes", "metrics.sweep_points", "metrics.sweep_bytes")


class Tracer:
    """In-memory spans and per-op counts for one traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[tuple[int, object, float, float]] = []   # (id, input key, start, end)
        self.counts: dict[tuple, int] = defaultdict(int)         # (op id, name) -> total
        self.labels: dict[int, str] = {}                         # id(module) -> model.* span
        self.op: int | None = None
        self._op_key = None
        self._op_start = 0.0
        self._stack: list[int] = []
        self._next_op = 0

    # -- ops ---------------------------------------------------------------

    def begin_op(self, key=None) -> None:
        self.op, self._op_key, self._op_start = self._next_op, key, now()
        self._next_op += 1

    def end_op(self) -> None:
        self.ops.append((self.op, self._op_key, self._op_start, now()))
        self.op = None

    def drop_op(self) -> None:
        """Leave the open op out of the per-op figures (work after the last step)."""
        self.op = None

    # -- spans and counts ----------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, now(), 0.0, self._stack[-1] if self._stack else None, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = now()

    def gap_span(self, name: str, after: str) -> None:
        """Record a top-level span from the op's start, or from the end of its
        last ``after`` span, up to now; top-level spans inside it become its
        children. It names work done inline by a caller between two traced calls.
        """
        start, end, idx = self._op_start, now(), len(self.spans)
        inside = []
        for s in reversed(self.spans):
            if s[4] != self.op:
                break
            if s[0] == after:
                start = max(start, s[2])
                break
            inside.append(s)
        for s in inside:
            if s[3] is None and s[1] >= start:
                s[3] = idx
        self.spans.append([name, start, end, None, self.op])

    def count(self, name: str, value: int = 1) -> None:
        self.counts[(self.op, name)] += value

    def label_model(self, model) -> None:
        """Name the spans of one SpeakerModel's stem, stages, pooling and embedding."""
        self.labels[id(model.stem_conv)] = self.labels[id(model.stem_bn)] = "model.stem"
        for i, stage in enumerate(model.stages):
            for block in stage:
                self.labels[id(block)] = f"model.stage{i + 1}"
        self.labels[id(model.asp)] = "model.asp"
        self.labels[id(model.emb)] = "model.emb"

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def labelled(self, fn, inner: str | None = None):
        """Method wrapper: a model.* span if ``self`` is labelled, then ``inner``."""
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            with contextlib.ExitStack() as stack:
                label = self.labels.get(id(obj))
                if label is not None:
                    stack.enter_context(self.span(label))
                if inner is not None:
                    stack.enter_context(self.span(inner))
                return fn(obj, *args, **kwargs)
        return wrapper

    def _wrap_backward(self, out, name: str, on_call=None) -> None:
        bwd = out._backward
        if bwd is None:
            return

        def traced(g):
            if on_call is not None:
                on_call()
            with self.span(name):
                bwd(g)
        out._backward = traced

    def conv2d(self, fn):
        @functools.wraps(fn)
        def wrapper(x, kernels, stride=(1, 1), padding=(0, 0)):
            with self.span("tensor.conv2d.fwd"):
                out = fn(x, kernels, stride, padding)
            cout, cin, kh, kw = kernels.shape
            batch = x.shape[0] if x.ndim == 4 else 1
            gemm = 2 * cout * cin * kh * kw * batch * out.shape[-2] * out.shape[-1]
            self.count("tensor.conv2d.calls")
            self.count("tensor.conv2d.flops", gemm)
            self.count("tensor.conv2d.im2col_bytes", gemm // (2 * cout) * x.data.itemsize)

            def backward_flops():
                # one GEMM for the kernel gradient, one more if the input needs one
                self.count("tensor.conv2d.flops", gemm * (kernels.requires_grad + x.requires_grad))
            self._wrap_backward(out, "tensor.conv2d.bwd", backward_flops)
            return out
        return wrapper

    def batchnorm_forward(self, fn):
        labelled = self.labelled(fn, "layers.batchnorm.fwd")

        @functools.wraps(fn)
        def wrapper(bn, x, training=False):
            out = labelled(bn, x, training)
            if training:
                self._wrap_backward(out, "layers.batchnorm.bwd")
            return out
        return wrapper

    def topo_order(self, fn):
        @functools.wraps(fn)
        def wrapper(root):
            order = fn(root)
            self.count("tensor.graph_nodes", len(order))
            return order
        return wrapper

    def save_checkpoint(self, fn):
        @functools.wraps(fn)
        def wrapper(path, config, tensors, extra=None):
            with self.span("checkpoint.save"):
                fn(path, config, tensors, extra)
            self.count("checkpoint.saves")
            self.count("checkpoint.save_bytes", sum(a.nbytes for a in tensors.values()))
        return wrapper

    def sweep(self, name: str, fn):
        """compute_eer / compute_min_dcf: time plus the dense sweep's computed size."""
        timed = self.timed(name, fn)

        @functools.wraps(fn)
        def wrapper(scores, labels, *args, **kwargs):
            result = timed(scores, labels, *args, **kwargs)
            points = len(set(scores)) + 2
            self.count("metrics.sweeps")
            self.count("metrics.sweep_points", points)
            # one bool per (threshold, score) pair, FAR and FRR comparisons together
            self.count("metrics.sweep_bytes", points * len(scores))
            return result
        return wrapper


def patch(stack: contextlib.ExitStack, owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)`` until ``stack`` closes."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    stack.callback(setattr, owner, attr, original)


def instrument(tracer: Tracer) -> contextlib.ExitStack:
    """Patch every traced name; closing the returned stack restores them."""
    stack = contextlib.ExitStack()
    t = tracer

    def timed(name):
        return lambda f: t.timed(name, f)

    for owner, attr, make in [
        (dtcf.layers, "conv2d", t.conv2d),
        (dtcf.tensor, "backward", timed("tensor.backward")),
        (dtcf.tensor, "topo_order", t.topo_order),
        (dtcf.layers.Conv2dLayer, "forward", t.labelled),
        (dtcf.layers.BatchNorm2d, "forward", t.batchnorm_forward),
        (dtcf.layers.LinearLayer, "forward", t.labelled),
        (dtcf.attention.DTCFBlock, "apply", timed("attention.apply")),
        (dtcf.attention.SEBlock, "apply", timed("attention.apply")),
        (dtcf.model.ResidualBlock, "forward", t.labelled),
        (dtcf.model.ASPHead, "forward", t.labelled),
        (dtcf.model.SpeakerModel, "forward", timed("model.forward")),
        (dtcf.loss.AAMHead, "logits_batch", timed("loss.aam")),
        (dtcf.train, "ce_loss_batch", timed("loss.ce")),
        (dtcf.train, "spec_augment", timed("audio.spec_augment")),
        (dtcf.train, "zero_grads", timed("train.zero_grads")),
        (dtcf.train, "adam_step", timed("train.adam")),
        (dtcf.train, "save_checkpoint", t.save_checkpoint),
        (dtcf.train, "load_checkpoint", timed("checkpoint.load")),
        (dtcf.audio, "read_wav", timed("audio.read_wav")),
        (dtcf.audio, "fbank", timed("audio.fbank")),
        (dtcf.metrics, "export_embeddings", timed("metrics.export_embeddings")),
        (dtcf.cli, "build_parser", timed("cli.build_parser")),
        (dtcf.cli, "read_embeddings", timed("metrics.read_embeddings")),
        (dtcf.cli, "read_trials", timed("synth.read_trials")),
        (dtcf.cli, "score_trials", timed("metrics.score_trials")),
        (dtcf.cli, "compute_eer", lambda f: t.sweep("metrics.eer", f)),
        (dtcf.cli, "compute_min_dcf", lambda f: t.sweep("metrics.min_dcf", f)),
        (dtcf.cli, "write_scores", timed("metrics.write_scores")),
    ]:
        patch(stack, owner, attr, make)
    return stack


# -- summarising a traced phase -------------------------------------------------

def summarise(tracer: Tracer) -> dict:
    """Span times, counts, coverage and count repeatability of a traced phase.

    ``total_s`` and ``self_s`` sum spans inside completed ops; ``outside_s``
    sums top-level spans recorded outside any op (set-up, export at the end).
    """
    done = {op: key for op, key, _, _ in tracer.ops}
    op_time = sum(end - start for _, _, start, end in tracer.ops)
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    outside: dict[str, float] = defaultdict(float)
    top_level = 0.0
    for i, (name, start, end, parent, op) in enumerate(spans):
        if op is None and parent is None:
            outside[name] += end - start
        if op not in done:
            continue
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        if parent is None:
            top_level += end - start

    per_op: dict[int, dict[str, int]] = defaultdict(dict)
    count_totals: dict[str, int] = defaultdict(int)
    for (op, name), value in tracer.counts.items():
        if op in done:
            per_op[op][name] = value
            count_totals[name] += value
    # identical inputs must give identical counts
    first_seen: dict[object, dict] = {}
    repeat_ok = True
    for op, key in done.items():
        exact = {k: v for k, v in per_op[op].items() if k in EXACT_COUNTS}
        repeat_ok &= first_seen.setdefault(key, exact) == exact

    return {
        "ops": len(done),
        "op_s": op_time,
        "unattributed_s": op_time - top_level,
        "coverage": top_level / op_time if op_time else 0.0,
        "total_s": dict(total),
        "self_s": dict(self_time),
        "outside_s": dict(outside),
        "counts": dict(count_totals),
        "counts_repeat": repeat_ok,
    }
