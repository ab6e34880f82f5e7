"""AAM-softmax head and cross-entropy tests."""

import math

import numpy as np
import pytest

import dtcf.tensor as dt
from dtcf.errors import ConfigError, DomainError, ShapeError
from dtcf.layers import cast, draw, parameter
from dtcf.loss import AAMHead, ce_loss_batch
from dtcf.tensor import grad_check, topo_order


def rng(seed=0):
    return np.random.default_rng(seed)


def t64(arr):
    return dt.Tensor(np.asarray(arr, dtype=np.float64))


def head(K=5, dim=8, s=30.0, m=0.2, seed=0):
    return draw(cast(AAMHead(K, dim, scale=s, margin=m, rng=None), np.float64), rng(seed))


def logits_one(h, emb, label):
    """Margin logits of one embedding: row 0 of a batch of one."""
    return h.logits_batch(t64(np.asarray(emb)[None]), np.array([label])).data[0]


def ce_one(logits, label):
    """Cross-entropy of one row of logits, as a batch of one."""
    return ce_loss_batch(t64(np.asarray(logits, dtype=np.float64)[None]), np.array([label]))


def ce_oracle(logits, label):
    # independent 64-bit reference via mpmath-free long-double style approach
    logits = np.asarray(logits, dtype=np.float64)
    p = np.exp(logits - logits.max())
    p /= p.sum()
    return -np.log(p[label])


class TestAAMLogits:
    def test_margin_zero_is_scaled_cosine(self):
        h = head(m=0.0)
        emb = rng(1).normal(size=8)
        out = logits_one(h, emb, 2)
        wn = h.weights.data / np.linalg.norm(h.weights.data, axis=1, keepdims=True)
        cos = wn @ (emb / np.linalg.norm(emb))
        np.testing.assert_allclose(out, 30.0 * cos, atol=1e-6)

    def test_parallel_embedding_closed_form(self):
        h = head()
        emb = 3.0 * h.weights.data[1]          # parallel to class 1 weight
        out = logits_one(h, emb, 1)
        assert out[1] == pytest.approx(30.0 * math.cos(0.2), abs=1e-4)

    def test_logits_bounded_by_scale(self):
        h = head(seed=2)
        for i in range(5):
            out = logits_one(h, rng(3 + i).normal(size=8) * 10, i)
            assert np.all(out <= 30.0 + 1e-9) and np.all(out >= -30.0 - 1e-9)

    def test_scale_invariance_of_angle(self):
        h = head(seed=4)
        emb = rng(5).normal(size=8)
        a = logits_one(h, emb, 3)
        b = logits_one(h, emb * 7.3, 3)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_zero_norm_embedding_rejected(self):
        with pytest.raises(DomainError):
            logits_one(head(), np.zeros(8), 0)

    def test_bad_label_rejected(self):
        with pytest.raises(ConfigError):
            logits_one(head(K=3), rng(6).normal(size=8), 3)

    def test_batch_matches_single(self):
        h = head(seed=7)
        embs = rng(8).normal(size=(4, 8))
        labels = np.array([0, 1, 4, 2])
        batched = h.logits_batch(t64(embs), labels).data
        for i in range(4):
            np.testing.assert_allclose(batched[i], logits_one(h, embs[i], labels[i]), atol=1e-12)

    def test_theta_clamp_saturates_at_minus_one(self):
        h = head(m=0.3, seed=9)
        emb = -h.weights.data[0]               # anti-parallel: theta = pi
        out = logits_one(h, emb, 0)
        assert out[0] == pytest.approx(-30.0, abs=1e-6)

    def test_gradcheck_full_path(self):
        # moderate scale keeps every class probability away from underflow,
        # so no weight coordinate has a pure-rounding-dust gradient
        h = head(K=4, s=5.0, seed=10)
        emb = t64(rng(11).normal(size=8))      # generic: off the sin=0 singularity

        def f(v):
            return ce_loss_batch(h.logits_batch(v, np.array([1])), np.array([1]))

        assert grad_check(lambda v: f(dt.reshape(v, (1, -1))), emb) < 1e-6
        assert grad_check(lambda _: f(dt.reshape(emb, (1, -1))), h.weights) < 1e-6

    def test_gradcheck_embedding_at_paper_scale(self):
        h = head(K=4, s=30.0, m=0.2, seed=12)
        emb = t64(rng(13).normal(size=8))

        def f(v):
            return ce_loss_batch(h.logits_batch(dt.reshape(v, (1, -1)), np.array([2])),
                                 np.array([2]))

        assert grad_check(f, emb) < 1e-6


class TestCELoss:
    def test_uniform_logits_ln_k(self):
        for k in (2, 5, 17):
            lv = ce_one(np.zeros(k), 0)
            assert float(lv.data) == pytest.approx(math.log(k), abs=1e-9)

    def test_monotone_in_target_logit(self):
        base = np.zeros(4)
        lo = base.copy(); lo[2] = 10.0
        hi = base.copy(); hi[2] = 50.0
        l_lo = float(ce_one(lo, 2).data)
        l_hi = float(ce_one(hi, 2).data)
        assert l_hi < l_lo < 1.0
        assert l_hi == pytest.approx(0.0, abs=1e-10)

    def test_matches_high_precision_oracle(self):
        logits = rng(12).normal(size=5) * 3
        lv = ce_one(logits, 3)
        assert float(lv.data) == pytest.approx(ce_oracle(logits, 3), abs=1e-8)

    def test_loss_nonnegative_finite(self):
        for i in range(10):
            logits = rng(13 + i).normal(size=6) * 20
            lv = ce_one(logits, i % 6)
            assert 0 <= float(lv.data) < np.inf

    def test_batch_mean(self):
        logits = rng(14).normal(size=(3, 5))
        labels = np.array([1, 0, 4])
        lv = ce_loss_batch(t64(logits), labels)
        expect = np.mean([ce_oracle(logits[i], labels[i]) for i in range(3)])
        assert float(lv.data) == pytest.approx(expect, abs=1e-10)

    def test_stability_under_huge_logits(self):
        lv = ce_one([1e4, 0.0, -1e4], 0)
        assert float(lv.data) == pytest.approx(0.0, abs=1e-12)


def test_tape_holds_only_what_needs_a_gradient():
    # the one-hots, the softmax shift, the feasibility mask and every number operand
    # are constants: none of them is recorded, so the tape's only leaves are the two
    # parameters, each its own slot
    h = head(seed=16)
    emb = parameter(rng(17).normal(size=(4, 8)))
    labels = np.array([0, 3, 3, 1])
    order = topo_order(ce_loss_batch(h.logits_batch(emb, labels), labels))
    leaves = [node for node in order if not node._parents]
    assert len(leaves) == 2 and emb in leaves and h.weights in leaves


class TestMarginProperties:
    def test_margin_monotonicity(self):
        for i in range(100):
            r = rng(100 + i)
            emb = r.normal(size=8)
            h0 = head(m=0.0, seed=i)
            h2 = head(m=0.2, seed=i)           # same weights, different margin
            label = int(r.integers(0, 5))
            l0 = float(ce_one(logits_one(h0, emb, label), label).data)
            l2 = float(ce_one(logits_one(h2, emb, label), label).data)
            assert l2 >= l0 - 1e-12

    def test_margin_never_raises_target_logit(self):
        h0, h2 = head(m=0.0, seed=200), head(m=0.2, seed=200)
        emb = rng(15).normal(size=8)
        a = logits_one(h0, emb, 1)[1]
        b = logits_one(h2, emb, 1)[1]
        assert b <= a + 1e-12


@pytest.mark.parametrize("call, error, match", [
    (lambda: AAMHead(1, 8, rng=rng(0)), ConfigError, "two classes"),
    (lambda: AAMHead(3, 8, scale=0.0, rng=rng(0)), ConfigError, "scale > 0"),
    (lambda: AAMHead(3, 8, margin=-0.1, rng=rng(0)), ConfigError, "margin"),
    (lambda: AAMHead(3, 8, margin=math.pi / 2, rng=rng(0)), ConfigError, "margin"),
    (lambda: head(K=3).logits_batch(t64(np.ones((2, 7))), np.array([0, 1])), ShapeError,
     r"expected \(B,8\) embeddings"),
    (lambda: head(K=3).logits_batch(t64(np.ones(8)), np.array([0])), ShapeError,
     r"expected \(B,8\) embeddings"),
    (lambda: ce_loss_batch(t64(np.ones(3)), np.array([0])), ShapeError,
     r"expected \(B,K\) logits"),
    # unchecked, label -1 indexes the last class and a (B, 1) column broadcasts into a loss
    (lambda: ce_loss_batch(t64(np.ones((2, 3))), np.array([0, -1])), ConfigError,
     r"labels must be integers in \[0,3\)"),
    (lambda: ce_loss_batch(t64(np.ones((2, 3))), np.array([[0], [1]])), ShapeError,
     r"expected 2 labels, got shape \(2, 1\)"),
    (lambda: ce_loss_batch(t64(np.ones((2, 3))), np.array([0, 1, 2])), ShapeError,
     r"expected 2 labels, got shape \(3,\)"),
    (lambda: ce_loss_batch(t64(np.ones((2, 3))), np.array([0, 3])), ConfigError,
     r"labels must be integers in \[0,3\)"),
    (lambda: ce_loss_batch(t64(np.ones((2, 3))), np.array([0.0, 1.0])), ConfigError,
     r"labels must be integers in \[0,3\)"),
    (lambda: head(K=3).logits_batch(t64(np.ones((2, 8))), np.array([0, -1])), ConfigError,
     r"labels must be integers in \[0,3\)"),
    (lambda: head(K=3).logits_batch(t64(np.ones((2, 8))), np.array([[0], [1]])), ShapeError,
     r"expected 2 labels, got shape \(2, 1\)"),
    (lambda: head(K=3).logits_batch(t64(np.ones((2, 8))), np.array([0])), ShapeError,
     r"expected 2 labels, got shape \(1,\)"),
], ids=["one-class", "scale-0", "margin-negative", "margin-right-angle", "emb-width",
        "emb-rank-1", "logits-rank-1", "ce-label-negative", "ce-label-column", "ce-label-count",
        "ce-label-past-k", "ce-label-float", "aam-label-negative", "aam-label-column",
        "aam-label-count"])
def test_named_input_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
