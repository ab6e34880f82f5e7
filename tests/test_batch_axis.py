"""The batch-axis rule: one sample and a batch of one give the same bytes."""

import numpy as np
import pytest

import dtcf.tensor as dt
from dtcf.attention import DTCFBlock, SEBlock
from dtcf.errors import ShapeError
from dtcf.layers import BatchNorm2d, Conv2dLayer, LinearLayer
from dtcf.model import ASPHead, BackboneConfig, SpeakerModel


def rng(seed=0):
    return np.random.default_rng(seed)


def _bn():
    bn = BatchNorm2d(4, dtype=np.float64)
    bn.running_mean[:] = rng(3).normal(size=4)
    bn.running_var[:] = rng(4).uniform(0.5, 2.0, size=4)
    return lambda x: bn.forward(x, training=False)


def _model():
    cfg = BackboneConfig(widths=(2, 4, 8, 16), blocks=(1, 1, 1, 1), attention="dtcf",
                         emb_dim=8, asp_hidden=4, n_mels=16)
    return SpeakerModel(cfg, seed=5, dtype=np.float64).forward


KERNELS = dt.Tensor(rng(1).normal(size=(3, 4, 3, 3)))

# entry point -> (builder of the op, shapes of its single-sample Tensor inputs)
ENTRY_POINTS = {
    "tensor.conv2d": (lambda: lambda x: dt.conv2d(x, KERNELS, (2, 1), (1, 1)), [(4, 6, 5)]),
    "Conv2dLayer.forward": (lambda: Conv2dLayer(4, 3, rng=rng(2), dtype=np.float64).forward,
                            [(4, 6, 5)]),
    "BatchNorm2d.forward": (_bn, [(4, 6, 5)]),
    "LinearLayer.forward": (lambda: LinearLayer(5, 3, rng=rng(6), dtype=np.float64).forward,
                            [(5,)]),
    "SEBlock.squeeze": (lambda: SEBlock(8, 4, rng=rng(7), dtype=np.float64).squeeze,
                        [(8, 6, 5)]),
    "SEBlock.mask": (lambda: SEBlock(8, 4, rng=rng(8), dtype=np.float64).mask,
                     [(8,)]),
    "SEBlock.apply": (lambda: SEBlock(8, 4, rng=rng(9), dtype=np.float64).apply,
                      [(8, 6, 5)]),
    "DTCFBlock.pool": (lambda: DTCFBlock(8, 4, rng=rng(10), dtype=np.float64).pool,
                       [(8, 6, 5)]),
    "DTCFBlock.encode": (lambda: DTCFBlock(8, 4, rng=rng(11), dtype=np.float64).encode,
                         [(8, 5), (8, 6)]),
    "DTCFBlock.masks": (lambda: (lambda x1: DTCFBlock(8, 4, rng=rng(12),
                                                      dtype=np.float64).masks(x1, 5)),
                        [(2, 11)]),
    "DTCFBlock.apply": (lambda: DTCFBlock(8, 4, rng=rng(13), dtype=np.float64).apply,
                        [(8, 6, 5)]),
    "ASPHead.forward": (lambda: ASPHead(8 * 5, 6, rng=rng(14), dtype=np.float64).forward,
                        [(8, 6, 5)]),
    "SpeakerModel.forward": (_model, [(12, 16)]),
}


def _run(op, arrays):
    """Outputs and input gradients of op, under a fixed random weighting of each output."""
    xs = [dt.Tensor(np.asarray(a, dtype=np.float64), requires_grad=True) for a in arrays]
    out = op(*xs)
    outs = out if isinstance(out, tuple) else (out,)
    loss = None
    for i, o in enumerate(outs):
        # the same draws whether or not o has a leading axis of one
        term = (o * dt.Tensor(rng(100 + i).normal(size=o.shape))).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    return [o.data for o in outs], [x.grad for x in xs]


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_single_sample_equals_batch_of_one(name):
    build, shapes = ENTRY_POINTS[name]
    arrays = [rng(20 + i).normal(size=s) for i, s in enumerate(shapes)]
    single_out, single_grad = _run(build(), arrays)
    batch_out, batch_grad = _run(build(), [a[None] for a in arrays])
    for s, b in zip(single_out, batch_out):
        assert s.shape == b.shape[1:]
        assert np.array_equal(s, b[0])
    for s, b in zip(single_grad, batch_grad):
        assert np.array_equal(s, b[0])


@pytest.mark.parametrize("shape", [(6, 5), (1, 2, 8, 6, 5)])
def test_other_ranks_rejected(shape):
    asp = ASPHead(8 * 5, 6, rng=rng(17), dtype=np.float64)
    with pytest.raises(ShapeError, match="rank 3 or 4"):
        asp.forward(dt.Tensor(np.zeros(shape, dtype=np.float32)))
