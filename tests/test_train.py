"""Scheduler, optimizer, checkpointing, and deterministic-loop tests."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import dtcf.tensor as dt
from dtcf.audio import AugmentConfig
from dtcf.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from dtcf.config import default_config, parse_config_text
from dtcf.errors import CheckpointError, ConfigError, DivergenceError
from dtcf.loss import AAMHead
from dtcf.model import BackboneConfig, SpeakerModel
from dtcf.synth import synth_corpus
from dtcf.train import (AdamState, Corpus, TrainConfig, Triangular2Schedule,
                        adam_step, load_training_state, lr_at,
                        save_training_state, train)

TINY = dict(widths=(2, 4, 8, 16), blocks=(1, 1, 1, 1))


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = synth_corpus(3, 4, seed=5, out_dir=tmp_path_factory.mktemp("traincorp"))
    return Corpus.load(out.train_path)


def tiny_setup(corpus, seed=0, attention="dtcf"):
    model = SpeakerModel(BackboneConfig(**TINY, attention=attention, emb_dim=32,
                                        asp_hidden=8), seed=seed)
    head = AAMHead(corpus.n_speakers, 32, rng=rng(seed + 1))
    return model, head


def tiny_cfg(**kw):
    base = dict(batch_size=2, steps=4, crop=40, seed=3, checkpoint_every=2,
                augment=AugmentConfig(time_mask_max=4, freq_mask_max=4))
    base.update(kw)
    return TrainConfig(**base)


SCHED = Triangular2Schedule(base_lr=1e-8, max_lr=1e-3, step_size=100)


class TestTriangular2:
    def test_anchor_points(self):
        s = SCHED.step_size
        assert lr_at(SCHED, 0) == pytest.approx(1e-8)
        assert lr_at(SCHED, s) == pytest.approx(1e-3)
        assert lr_at(SCHED, 2 * s) == pytest.approx(1e-8)
        assert lr_at(SCHED, 3 * s) == pytest.approx(1e-8 + (1e-3 - 1e-8) / 2, abs=1e-12)
        assert lr_at(SCHED, 5 * s) == pytest.approx(1e-8 + (1e-3 - 1e-8) / 4, abs=1e-12)

    def test_closed_form_everywhere(self):
        for it in range(0, 10 * SCHED.step_size, 37):
            cycle = math.floor(1 + it / (2 * SCHED.step_size))
            x = abs(it / SCHED.step_size - 2 * cycle + 1)
            expect = 1e-8 + (1e-3 - 1e-8) * max(0.0, 1 - x) / 2 ** (cycle - 1)
            assert lr_at(SCHED, it) == pytest.approx(expect, abs=1e-15)

    def test_peaks_halve(self):
        for c in range(1, 6):
            peak = lr_at(SCHED, (2 * c - 1) * SCHED.step_size)
            expect = 1e-8 + (1e-3 - 1e-8) / 2 ** (c - 1)
            assert peak == pytest.approx(expect, abs=1e-15)

    def test_bad_schedule(self):
        with pytest.raises(ConfigError):
            Triangular2Schedule(base_lr=1e-3, max_lr=1e-8)


class TestAdam:
    def one_param(self, value=1.0):
        p = dt.tensor([value], dtype=np.float64, requires_grad=True)
        return [("p", p)], p

    def test_zero_grad_no_change(self):
        named, p = self.one_param(2.5)
        p.grad = np.zeros(1)
        adam_step(named, AdamState(named), lr=0.1, weight_decay=0.0)
        assert p.data[0] == 2.5

    def test_unit_grad_first_step_moves_by_lr(self):
        named, p = self.one_param(1.0)
        p.grad = np.ones(1)
        adam_step(named, AdamState(named), lr=0.01, weight_decay=0.0)
        # bias-corrected mhat/sqrt(vhat) = 1 on the first step
        assert p.data[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_decoupled_decay_pure_shrink(self):
        named, p = self.one_param(4.0)
        p.grad = np.zeros(1)
        adam_step(named, AdamState(named), lr=0.5, weight_decay=0.1)
        assert p.data[0] == pytest.approx(4.0 * (1 - 0.5 * 0.1))

    def test_lr_zero_changes_nothing(self):
        named, p = self.one_param(3.0)
        p.grad = rng(1).normal(size=1)
        adam_step(named, AdamState(named), lr=0.0, weight_decay=0.3)
        assert p.data[0] == 3.0

    def test_nan_grad_aborts_with_name(self):
        named, p = self.one_param()
        p.grad = np.array([np.nan])
        with pytest.raises(DivergenceError, match="'p'"):
            adam_step(named, AdamState(named), lr=0.1, weight_decay=0.0)


class TestCheckpointContainer:
    def test_round_trip(self, tmp_path):
        tensors = {"a.w": rng(2).normal(size=(3, 4)).astype(np.float32),
                   "b": np.arange(5, dtype=np.float64)}
        p = tmp_path / "c.bin"
        save_checkpoint(p, {"k": 1}, tensors, {"step": 7})
        config, loaded, extra = load_checkpoint(p)
        assert config == {"k": 1} and extra == {"step": 7}
        for name, arr in tensors.items():
            np.testing.assert_array_equal(loaded[name], arr)
            assert loaded[name].dtype == arr.dtype

    def test_save_load_save_byte_identical(self, tmp_path):
        tensors = {"x": rng(3).normal(size=(4, 4)).astype(np.float32)}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, {"v": 2}, tensors, {})
        _, loaded, _ = load_checkpoint(p1)
        save_checkpoint(p2, {"v": 2}, loaded, {})
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_names_tensor(self, tmp_path):
        tensors = {"big.weight": np.ones((64, 64), dtype=np.float32)}
        p = tmp_path / "t.bin"
        save_checkpoint(p, {}, tensors, {})
        p.write_bytes(p.read_bytes()[:-100])
        with pytest.raises(CheckpointError, match="big.weight"):
            load_checkpoint(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_load_holds_one_copy_of_the_payload(self, tmp_path):
        tensors = {f"t{i}": np.full((512, 1024), i, dtype=np.float32) for i in range(4)}
        payload = sum(a.nbytes for a in tensors.values())      # 8 MiB
        p = tmp_path / "big.bin"
        save_checkpoint(p, {}, tensors, {})
        tracemalloc.start()
        try:
            _, loaded, _ = load_checkpoint(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * payload, f"peak {peak / payload:.2f}x the payload"
        for name, arr in tensors.items():
            np.testing.assert_array_equal(loaded[name], arr)
            assert loaded[name].flags.writeable and loaded[name].flags.c_contiguous

    @staticmethod
    def raw_file(path, header: dict, payload: bytes = b""):
        blob = json.dumps(header).encode()
        path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob + payload)
        return path

    def test_short_header_is_truncated(self, tmp_path):
        p = tmp_path / "short.bin"
        for blob in (MAGIC, MAGIC + (10**6).to_bytes(8, "little") + b"{}"):
            p.write_bytes(blob)
            with pytest.raises(CheckpointError, match="truncated header"):
                load_checkpoint(p)

    @pytest.mark.parametrize("key", ["config", "extra", "tensors"])
    def test_header_without_entry_names_it(self, tmp_path, key):
        header = {"version": 1, "config": {}, "extra": {}, "tensors": []}
        del header[key]
        with pytest.raises(CheckpointError, match=f"'{key}'"):
            load_checkpoint(self.raw_file(tmp_path / "partial.bin", header))

    def test_tensor_size_disagreeing_with_shape(self, tmp_path):
        spec = {"name": "w", "dtype": "<f4", "shape": [4, 4], "offset": 0, "nbytes": 32}
        header = {"version": 1, "config": {}, "extra": {}, "tensors": [spec]}
        with pytest.raises(CheckpointError, match="'w'"):
            load_checkpoint(self.raw_file(tmp_path / "mis.bin", header, bytes(64)))

    def test_version_mismatch(self, tmp_path):
        import json
        from dtcf.checkpoint import MAGIC
        header = json.dumps({"version": 99, "config": {}, "extra": {},
                             "tensors": []}).encode()
        p = tmp_path / "future.bin"
        p.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p)


class TestTrainingStateRoundTrip:
    def test_embeddings_identical_after_reload(self, small_corpus, tmp_path):
        model, head = tiny_setup(small_corpus)
        from dtcf.train import _named_params
        opt = AdamState(_named_params(model, head))
        path = tmp_path / "state.bin"
        feats = rng(4).normal(size=(40, 80)).astype(np.float32)
        before = model.embed(feats)
        save_training_state(path, model, head, opt)
        model2, head2, opt2, _ = load_training_state(path)
        np.testing.assert_array_equal(model2.embed(feats), before)
        np.testing.assert_array_equal(head2.weights.data, head.weights.data)

    def test_mismatched_config_names_tensor(self, small_corpus, tmp_path):
        model, head = tiny_setup(small_corpus)
        opt = AdamState([])
        path = tmp_path / "state.bin"
        save_training_state(path, model, head, opt)
        config, tensors, extra = load_checkpoint(path)
        config["backbone"]["widths"] = [4, 8, 16, 32]
        bad = tmp_path / "bad.bin"
        save_checkpoint(bad, config, tensors, extra)
        with pytest.raises(CheckpointError, match="stem.conv.kernels"):
            load_training_state(bad)


class TestTrainLoop:
    def test_runs_and_reports(self, small_corpus, tmp_path):
        model, head = tiny_setup(small_corpus)
        report = train(model, head, small_corpus, tiny_cfg(), SCHED, out_dir=tmp_path)
        assert report.steps == 4
        assert (tmp_path / "train_log.csv").exists()
        assert (tmp_path / "checkpoint.bin").exists()
        lines = (tmp_path / "train_log.csv").read_text().strip().splitlines()
        assert lines[0] == "step,lr,loss,acc"
        assert len(lines) == 5

    def test_first_step_loss_near_ln_k_with_unit_scale(self, small_corpus):
        # with scale 1 and margin 0 the initial logits are nearly uniform
        model, head0 = tiny_setup(small_corpus)
        head = AAMHead(small_corpus.n_speakers, 32, scale=1.0, margin=0.0, rng=rng(9))
        report = train(model, head, small_corpus, tiny_cfg(steps=1), SCHED)
        assert report.log_rows[0][2] == pytest.approx(math.log(small_corpus.n_speakers), abs=0.5)

    def test_identical_seeds_identical_logs(self, small_corpus, tmp_path):
        logs = []
        for run in range(2):
            model, head = tiny_setup(small_corpus)
            out = tmp_path / f"run{run}"
            train(model, head, small_corpus, tiny_cfg(), SCHED, out_dir=out)
            logs.append((out / "train_log.csv").read_bytes())
        assert logs[0] == logs[1]

    def test_resume_reproduces_trajectory(self, small_corpus, tmp_path):
        full_model, full_head = tiny_setup(small_corpus)
        full = train(full_model, full_head, small_corpus, tiny_cfg(steps=6), SCHED,
                     out_dir=tmp_path / "full")

        part_model, part_head = tiny_setup(small_corpus)
        train(part_model, part_head, small_corpus, tiny_cfg(steps=3), SCHED,
              out_dir=tmp_path / "part")
        res_model, res_head = tiny_setup(small_corpus)
        resumed = train(res_model, res_head, small_corpus, tiny_cfg(steps=6), SCHED,
                        out_dir=tmp_path / "resumed",
                        resume_from=tmp_path / "part" / "checkpoint.bin")
        assert [r for r in resumed.log_rows] == full.log_rows[3:]

    @pytest.mark.parametrize("change", ["backbone", "speakers"])
    def test_resume_rejects_other_config(self, small_corpus, tmp_path, change):
        model, head = tiny_setup(small_corpus)
        train(model, head, small_corpus, tiny_cfg(steps=1), SCHED, out_dir=tmp_path / "part")
        if change == "backbone":
            model, head = tiny_setup(small_corpus, attention="se")
        else:
            head = AAMHead(small_corpus.n_speakers + 1, 32, rng=rng(1))
        with pytest.raises(CheckpointError, match="does not match"):
            train(model, head, small_corpus, tiny_cfg(steps=2), SCHED,
                  resume_from=tmp_path / "part" / "checkpoint.bin")

    def test_failed_resume_leaves_model_untouched(self, small_corpus, tmp_path):
        model, head = tiny_setup(small_corpus)
        train(model, head, small_corpus, tiny_cfg(steps=1), SCHED, out_dir=tmp_path / "part")
        config, tensors, extra = load_checkpoint(tmp_path / "part" / "checkpoint.bin")
        del tensors["model.stage4.block0.bn2.running_var"]
        bad = tmp_path / "bad.bin"
        save_checkpoint(bad, config, tensors, extra)
        model, head = tiny_setup(small_corpus)
        before = [p.data.copy() for _, p in model.named_params()]
        with pytest.raises(CheckpointError, match="stage4.block0.bn2.running_var"):
            train(model, head, small_corpus, tiny_cfg(steps=2), SCHED, resume_from=bad)
        for b, (_, p) in zip(before, model.named_params()):
            np.testing.assert_array_equal(p.data, b)

    def test_divergence_guard(self, small_corpus):
        model, _ = tiny_setup(small_corpus)
        # an absurd scale pushes the first-step loss beyond the 1e4 cap
        head = AAMHead(small_corpus.n_speakers, 32, scale=1e6, margin=0.0, rng=rng(8))
        with pytest.raises(DivergenceError, match="divergence guard"):
            train(model, head, small_corpus, tiny_cfg(steps=2), SCHED)


class TestConfigFile:
    def test_defaults(self):
        cfg = default_config()
        assert cfg["weight_decay"] == 2e-5
        assert cfg["base_lr"] == 1e-8 and cfg["max_lr"] == 1e-3

    def test_parse_and_override(self):
        cfg = parse_config_text("steps = 7\nattention = se\nwidths = 4,8,16,32\n# c\n")
        assert cfg["steps"] == 7 and cfg["attention"] == "se"
        assert cfg["widths"] == (4, 8, 16, 32)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config_text("learning_rate = 1\n")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config_text("steps = banana\n")

    def test_bad_choice(self):
        with pytest.raises(ConfigError, match="attention"):
            parse_config_text("attention = cbam\n")
