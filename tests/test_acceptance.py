"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criterion 8 trains two small models end to end and
dominates the runtime (a few minutes on a laptop CPU).
"""

import contextlib
import math
import time

import numpy as np
import pytest

from dtcf.attention import DTCFBlock, SEBlock
from dtcf.audio import AugmentConfig, fbank, read_wav
from dtcf.layers import cast, draw
from dtcf.loss import AAMHead, ce_loss_batch
from dtcf.metrics import compute_eer, compute_min_dcf, score_trials
from dtcf.model import BackboneConfig, SpeakerModel
from dtcf.synth import read_manifest, read_trials, synth_corpus
from dtcf.tensor import Tensor
from dtcf.train import (Corpus, TrainConfig, Triangular2Schedule, lr_at,
                        load_training_state, save_training_state, train,
                        AdamState, _named_params)

from test_metrics import eer_oracle, min_dcf_oracle, random_scoreset
from test_model import stage_shapes


@contextlib.contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {n}: FAIL — {desc}")
        raise
    print(f"ACCEPTANCE {n}: PASS — {desc}")


def rng(seed=0):
    return np.random.default_rng(seed)


def test_criterion_1_attention_gradient_fidelity(capsys):
    with criterion(1, "SE and DTCF gradcheck < 1e-6 at 64-bit, < 60 s each"):
        from dtcf.cli import main
        t0 = time.monotonic()
        code_se = main(["gradcheck", "--attention", "se", "--shape", "16x20x10",
                        "--seed", "0"])
        t_se = time.monotonic() - t0
        t0 = time.monotonic()
        code_dtcf = main(["gradcheck", "--attention", "dtcf", "--shape", "8x12x10",
                          "--seed", "0"])
        t_dtcf = time.monotonic() - t0
        out = capsys.readouterr().out
        errs = [float(line.rsplit("=", 1)[1]) for line in out.splitlines()
                if line.startswith("worst=")]
        assert code_se == 0 and code_dtcf == 0, out
        assert max(errs) < 1e-6, f"worst rel errors {errs}"
        assert t_se < 60 and t_dtcf < 60, f"runtimes {t_se:.1f}s / {t_dtcf:.1f}s"


def test_criterion_2_duality_mask_equivariance():
    with criterion(2, "50-case permutation equivariance within 1e-12"):
        r = rng(10)
        for case in range(50):
            c = int(r.choice([4, 8]))
            t, f = int(r.integers(3, 11)), int(r.integers(3, 11))
            red = int(r.choice([2, 4]))
            blk = draw(cast(DTCFBlock(c, red), np.float64), rng(100 + case))
            x = r.normal(size=(c, t, f))
            xcf, xct = blk.pool(Tensor(np.asarray(x[None], dtype=np.float64)))
            mct0, mcf0 = (m.data[0] for m in blk.masks(*blk.encode(xcf, xct)))

            pt = r.permutation(t)
            xcf1, xct1 = blk.pool(Tensor(np.asarray(x[None, :, pt, :], dtype=np.float64)))
            mct1, mcf1 = (m.data[0] for m in blk.masks(*blk.encode(xcf1, xct1)))
            np.testing.assert_allclose(mct1, mct0[:, pt], atol=1e-12)
            np.testing.assert_allclose(mcf1, mcf0, atol=1e-12)

            pf = r.permutation(f)
            xcf2, xct2 = blk.pool(Tensor(np.asarray(x[None, :, :, pf], dtype=np.float64)))
            mct2, mcf2 = (m.data[0] for m in blk.masks(*blk.encode(xcf2, xct2)))
            np.testing.assert_allclose(mcf2, mcf0[:, pf], atol=1e-12)
            np.testing.assert_allclose(mct2, mct0, atol=1e-12)

            se = draw(cast(SEBlock(c, red), np.float64), rng(200 + case))
            xp = x[:, pt][:, :, pf]
            m0 = se.mask(se.squeeze(Tensor(np.asarray(x[None], dtype=np.float64)))).data[0]
            m1 = se.mask(se.squeeze(Tensor(np.asarray(xp[None], dtype=np.float64)))).data[0]
            np.testing.assert_allclose(m1, m0, atol=1e-12)


def test_criterion_3_parameter_accounting():
    with criterion(3, "attention param formulas and ~9M full-model total"):
        for c in (32, 64, 128, 256):
            cr = c // 8
            assert SEBlock(c, 8).param_count() == 2 * c * cr
            assert DTCFBlock(c, 8).param_count() == 3 * c * cr
        total = SpeakerModel(BackboneConfig(attention="dtcf"), seed=0).param_count()
        assert abs(total - 9_000_000) <= 0.10 * 9_000_000, f"total {total}"


def test_criterion_4_shape_trace():
    with criterion(4, "T=200 stage trace matches the published structure"):
        model = SpeakerModel(BackboneConfig(attention="dtcf"), seed=0)
        x = Tensor(rng(20).normal(size=(1, 1, 200, 80)).astype(np.float32))
        fmap, trace = stage_shapes(model, x)
        assert trace == [(32, 200, 80), (64, 200, 40), (128, 100, 20), (256, 50, 10)], trace
        pooled = model.asp.forward(fmap)
        assert pooled.shape == (1, 5120), pooled.shape
        emb = model.emb.forward(pooled)
        assert emb.shape == (1, 512), emb.shape


def test_criterion_5_metric_oracles():
    with criterion(5, "EER/minDCF equal brute-force sweeps; rank invariance"):
        for seed in (70, 71, 72):
            scores, labels = random_scoreset(1000, seed)
            assert compute_eer(scores, labels)[0] == eer_oracle(scores, labels)
            assert compute_min_dcf(scores, labels)[0] == min_dcf_oracle(scores, labels)
        scores, labels = random_scoreset(500, 73)
        base_eer = compute_eer(scores, labels)[0]
        base_dcf = compute_min_dcf(scores, labels)[0]
        for tf in (lambda s: 3.0 * s - 1.0, lambda s: s ** 3):
            ts = [float(tf(np.float64(s))) for s in scores]
            assert compute_eer(ts, labels)[0] == pytest.approx(base_eer, abs=1e-12)
            assert compute_min_dcf(ts, labels)[0] == pytest.approx(base_dcf, abs=1e-12)
        mdcf, _ = compute_min_dcf([0.3] * 40, ["target"] * 20 + ["nontarget"] * 20)
        assert mdcf == pytest.approx(1.0, abs=1e-12)


def test_criterion_6_aam_reductions():
    with criterion(6, "margin-free reduction, margin monotonicity, ln K at uniform"):
        h0 = draw(cast(AAMHead(6, 16, scale=30.0, margin=0.0, rng=None), np.float64), rng(30))
        emb = rng(31).normal(size=16)
        logits = h0.logits_batch(Tensor(emb[None]), np.array([2])).data[0]
        wn = h0.weights.data / np.linalg.norm(h0.weights.data, axis=1, keepdims=True)
        cos = wn @ (emb / np.linalg.norm(emb))
        np.testing.assert_allclose(logits, 30.0 * cos, atol=1e-6)

        for i in range(100):
            r = rng(400 + i)
            e = r.normal(size=16)
            label = int(r.integers(0, 6))
            ha = draw(cast(AAMHead(6, 16, margin=0.0, rng=None), np.float64), rng(500 + i))
            hb = draw(cast(AAMHead(6, 16, margin=0.2, rng=None), np.float64), rng(500 + i))
            e1, lab = Tensor(np.asarray(e[None], dtype=np.float64)), np.array([label])
            la = float(ce_loss_batch(ha.logits_batch(e1, lab), lab).data)
            lb = float(ce_loss_batch(hb.logits_batch(e1, lab), lab).data)
            assert lb >= la - 1e-12

        for k in (2, 7, 31):
            lv = ce_loss_batch(Tensor(np.zeros((1, k), dtype=np.float64)), np.array([k - 1]))
            assert float(lv.data) == pytest.approx(math.log(k), abs=1e-9)


def test_criterion_7_scheduler_closed_form():
    with criterion(7, "triangular2 anchors and halved second peak"):
        sched = Triangular2Schedule(base_lr=1e-8, max_lr=1e-3, step_size=500)
        s = sched.step_size
        assert lr_at(sched, 0) == pytest.approx(1e-8, abs=1e-15)
        assert lr_at(sched, s) == pytest.approx(1e-3, abs=1e-15)
        assert lr_at(sched, 2 * s) == pytest.approx(1e-8, abs=1e-15)
        assert lr_at(sched, 3 * s) == pytest.approx(1e-8 + (1e-3 - 1e-8) / 2, abs=1e-12)
        assert lr_at(sched, 5 * s) == pytest.approx(1e-8 + (1e-3 - 1e-8) / 4, abs=1e-12)


# -- end-to-end fixtures -------------------------------------------------------

TOY_BACKBONE = dict(widths=(4, 8, 16, 32), blocks=(1, 1, 1, 1))
OVERFIT_STEPS = 300


@pytest.fixture(scope="module")
def overfit_corpus(tmp_path_factory):
    out = synth_corpus(10, 20, seed=42, out_dir=tmp_path_factory.mktemp("overfit"))
    return out


@pytest.fixture(scope="module")
def overfit_run(overfit_corpus, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run_dtcf")
    corpus = Corpus.load(overfit_corpus.train_path)
    model = SpeakerModel(BackboneConfig(**TOY_BACKBONE, attention="dtcf"), seed=0)
    head = AAMHead(corpus.n_speakers, 512, rng=rng(1))
    cfg = TrainConfig(batch_size=16, steps=OVERFIT_STEPS, crop=120, seed=0,
                      checkpoint_every=150)
    sched = Triangular2Schedule(1e-8, 1e-3, step_size=125)
    t0 = time.monotonic()
    report = train(model, head, corpus, cfg, sched, out_dir=out_dir)
    elapsed = time.monotonic() - t0
    return dict(corpus=overfit_corpus, model=model, head=head, report=report,
                out_dir=out_dir, train_seconds=elapsed, train_cfg=cfg, sched=sched)


@pytest.mark.slow
def test_criterion_8_end_to_end_overfit(overfit_run, overfit_corpus, tmp_path):
    with criterion(8, "DTCF overfit: acc >= 99%, held-out EER <= 5%, < 15 min; "
                      "SE also converges"):
        assert len(read_manifest(overfit_corpus.manifest_path)) == 200
        report = overfit_run["report"]
        assert report.steps <= 2000
        assert report.final_accuracy >= 0.99, f"DTCF accuracy {report.final_accuracy}"
        losses = [r[2] for r in report.log_rows]
        assert np.median(losses[-100:]) < np.median(losses[:100])

        model = overfit_run["model"]
        store = {}
        for utt, spk, path in read_manifest(overfit_corpus.manifest_path):
            store[utt] = model.embed(fbank(read_wav(path)))
        trials = read_trials(overfit_corpus.trials_path)
        eer, _ = compute_eer(score_trials(store, trials), [label for _, _, label in trials])
        assert eer <= 0.05, f"held-out EER {eer}"

        t0 = time.monotonic()
        se_model = SpeakerModel(BackboneConfig(**TOY_BACKBONE, attention="se"), seed=0)
        se_head = AAMHead(10, 512, rng=rng(1))
        se_report = train(se_model, se_head, Corpus.load(overfit_corpus.train_path),
                          overfit_run["train_cfg"], overfit_run["sched"], out_dir=tmp_path)
        se_seconds = time.monotonic() - t0
        assert se_report.final_accuracy >= 0.99, f"SE accuracy {se_report.final_accuracy}"
        total = overfit_run["train_seconds"] + se_seconds
        assert overfit_run["train_seconds"] < 15 * 60, f"DTCF run took {total:.0f}s"
        print(f"  [dtcf acc={report.final_accuracy:.4f} eer={eer:.4f} "
              f"se acc={se_report.final_accuracy:.4f} "
              f"times={overfit_run['train_seconds']:.0f}s/{se_seconds:.0f}s]")


@pytest.mark.slow
def test_criterion_9_determinism_and_persistence(overfit_run, overfit_corpus,
                                                 tmp_path_factory):
    with criterion(9, "bit-exact checkpoint round trip and identical seeded logs"):
        model, head = overfit_run["model"], overfit_run["head"]
        feats = [fbank(read_wav(p)) for _, _, p in
                 read_manifest(overfit_corpus.manifest_path)[:3]]
        before = [model.embed(f) for f in feats]
        path = tmp_path_factory.mktemp("ck") / "state.bin"
        save_training_state(path, model, head, AdamState(_named_params(model, head)))
        model2, _, _, _ = load_training_state(path)
        for f, b in zip(feats, before):
            np.testing.assert_array_equal(model2.embed(f), b)

        # two fresh identically-seeded short runs must produce identical logs
        logs = []
        for run in range(2):
            out = tmp_path_factory.mktemp(f"det{run}")
            m = SpeakerModel(BackboneConfig(widths=(2, 4, 8, 16), blocks=(1, 1, 1, 1),
                                            attention="dtcf", emb_dim=32, asp_hidden=8),
                             seed=7)
            h = AAMHead(10, 32, rng=rng(8))
            train(m, h, Corpus.load(overfit_corpus.train_path),
                  TrainConfig(batch_size=4, steps=12, crop=40, seed=9,
                              checkpoint_every=6,
                              augment=AugmentConfig(time_mask_max=4, freq_mask_max=4)),
                  Triangular2Schedule(1e-8, 1e-3, 50), out_dir=out)
            logs.append((out / "train_log.csv").read_bytes())
        assert logs[0] == logs[1]
