"""Scheduler, optimizer, checkpointing, and deterministic-loop tests."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import dtcf.checkpoint
import dtcf.errors
import dtcf.tensor as dt
import dtcf.train
from dtcf.audio import AugmentConfig
from dtcf.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from dtcf.cli import _from_config
from dtcf.config import SCHEMA, load_config, parse_config_text
from dtcf.errors import CheckpointError, ConfigError, DataError, DivergenceError
from dtcf.layers import parameter
from dtcf.loss import AAMHead, ce_loss_batch
from dtcf.model import ATTENTION_KINDS, BackboneConfig, SpeakerModel
from dtcf.synth import synth_corpus
from dtcf.train import (AdamState, Corpus, TrainConfig, Triangular2Schedule,
                        _crop_features, _named_params, _state_tensors, adam_step,
                        build_model_and_head, load_model,
                        load_training_state, lr_at, save_training_state, train)

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
# sha256 of the checkpoint tiny_setup's model writes under tiny_cfg() (4 steps, one every 2)
TINY_CFG_CHECKPOINT = "7765238dbd9ac17b46756d2e4a3016a61f457df7d1cd1f89de5c4773c6a8db64"


def record(monkeypatch, *names):
    """Wrap each of ``dtcf.train``'s ``names`` in a spy; return the list that gets each
    name appended as ``train()`` calls it."""
    calls = []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(dtcf.train, name, spy(name, getattr(dtcf.train, name)))
    return calls


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
        p = parameter(np.asarray([value], dtype=np.float64))
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

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        tensors = {"a": np.arange(6, dtype=np.float32), "b": np.ones((2, 3))}
        p = tmp_path / "c.bin"
        save_checkpoint(p, {"v": 1}, tensors, {})
        before = p.read_bytes()
        real_open = open

        class DiskFull:
            """A file whose fifth write, the payload's second tensor, fails."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, blob):
                self.writes += 1
                if self.writes == 5:        # magic, length, header, "a", then "b"
                    raise OSError("no space left on device")
                return self.f.write(blob)

        monkeypatch.setattr(dtcf.errors, "open", lambda path, mode: DiskFull(
            real_open(path, mode)), raising=False)
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(p, {"v": 2}, {"a": tensors["a"] + 1, "b": tensors["b"]}, {})
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_truncation_names_tensor(self, tmp_path):
        tensors = {"big.weight": np.ones((64, 64), dtype=np.float32)}
        p = tmp_path / "t.bin"
        save_checkpoint(p, {}, tensors, {})
        p.write_bytes(p.read_bytes()[:-100])
        with pytest.raises(CheckpointError, match="big.weight"):
            load_checkpoint(p)

    def test_file_shrinking_after_fstat_names_tensor(self, tmp_path):
        p = tmp_path / "t.bin"
        save_checkpoint(p, {}, {"big.weight": np.ones((64, 64), dtype=np.float32)}, {})
        size = p.stat().st_size
        p.write_bytes(p.read_bytes()[:-100])
        with open(p, "rb") as f, pytest.raises(CheckpointError, match="big.weight"):
            dtcf.checkpoint._read(f, p, size)

    def test_save_holds_no_copy_of_a_tensor(self, tmp_path):
        weight = np.ones((512, 5120), dtype=np.float32)        # 10 MiB, as full-width emb.weight
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "w.bin", {}, {"emb.weight": weight}, {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < weight.nbytes, f"peak {peak / weight.nbytes:.2f}x the tensor"

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

    @pytest.mark.parametrize("blob", [b"\xff\xfe{}", b"{not json"], ids=["not-utf8", "not-json"])
    def test_undecodable_header(self, tmp_path, blob):
        p = tmp_path / "undecodable.bin"
        p.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob)
        with pytest.raises(CheckpointError, match="corrupt header"):
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

    def test_into_fills_the_arrays_it_names_and_skips_the_rest(self, tmp_path):
        p = tmp_path / "c.bin"
        save_checkpoint(p, {}, {"a": np.arange(4.0), "b": np.ones(3, dtype=np.float32),
                                "c": np.full(2, 7, dtype=np.int16)}, {})
        # a cast (float64 -> float32, int16 -> int64) and a strided array go through a temporary
        a, c, strided = np.zeros(4, np.float32), np.zeros(2, np.int64), np.zeros(8)[::2]
        for want in ({"a": a, "c": c}, {"a": strided}):
            _, tensors, _ = load_checkpoint(p, lambda config, extra: want)
            assert tensors.keys() == want.keys()
            assert all(tensors[name] is arr for name, arr in want.items())
        np.testing.assert_array_equal(a, np.arange(4.0))
        np.testing.assert_array_equal(strided, np.arange(4.0))
        np.testing.assert_array_equal(c, [7, 7])

    def test_repeated_name_refused_before_any_payload(self, tmp_path):
        spec = {"name": "w", "dtype": "<f4", "shape": [2], "offset": 0, "nbytes": 8}
        header = {"version": 1, "config": {}, "extra": {},
                  "tensors": [spec, {**spec, "offset": 8}]}
        path = self.raw_file(tmp_path / "twice.bin", header, bytes(16))
        with pytest.raises(CheckpointError, match="corrupt header: tensor 'w' listed twice"):
            load_checkpoint(path, lambda config, extra: pytest.fail("the header was accepted"))

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
        opt = AdamState(_named_params(model, head))
        path = tmp_path / "state.bin"
        feats = rng(4).normal(size=(40, 80)).astype(np.float32)
        before = model.embed(feats)
        save_training_state(path, model, head, opt)
        model2, head2, opt2, _ = load_training_state(path)
        np.testing.assert_array_equal(model2.embed(feats), before)
        np.testing.assert_array_equal(head2.weights.data, head.weights.data)

    def test_load_holds_one_copy_of_the_state(self, tmp_path):
        model, head = build_model_and_head(BackboneConfig(widths=(4, 8, 16, 32),
                                                          blocks=(1, 1, 1, 1),
                                                          attention="dtcf"), 10)
        opt = AdamState(_named_params(model, head))
        path = tmp_path / "state.bin"
        save_training_state(path, model, head, opt)
        state = _state_tensors(model, head, opt)
        payload = sum(a.nbytes for a in state.values())
        model_bytes = sum(a.nbytes for name, a in state.items() if name.startswith("model."))
        tracemalloc.start()
        try:
            loaded = load_training_state(path)
            _, state_peak = tracemalloc.get_traced_memory()
            del loaded
            tracemalloc.reset_peak()
            SpeakerModel(model.config)
            _, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loaded = load_model(path)
            held, model_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state_peak <= 1.1 * payload, f"peak {state_peak / payload:.2f}x the payload"
        # the model-only read holds the weights once, and at its peak no more than the
        # seeded build that precedes it (whose float64 draws are transient)
        assert held <= 1.1 * model_bytes, f"{held / model_bytes:.2f}x the model held"
        assert model_peak <= build_peak + 0.1 * model_bytes, \
            f"peak {(model_peak - build_peak) / model_bytes:.2f}x the model above the build's"

    def test_only_load_model_sets_the_heap_thresholds(self, tmp_path, monkeypatch):
        # extract's embeds reuse a heap that is not trimmed; a training-state load leaves
        # the allocator to train(), which sets it itself
        model, head = build_model_and_head(BackboneConfig(**TINY), 3)
        path = tmp_path / "state.bin"
        save_training_state(path, model, head, AdamState(_named_params(model, head)))
        calls = []
        monkeypatch.setattr(dtcf.train, "_keep_freed_heap", lambda: calls.append("load"))
        load_training_state(path)
        assert calls == []
        load_model(path)
        assert calls == ["load"]

    def test_load_model_reads_the_model_entries(self, small_corpus, tmp_path):
        model, head = tiny_setup(small_corpus)
        train(model, head, small_corpus, tiny_cfg(steps=2), SCHED, out_dir=tmp_path)
        bare = tmp_path / "bare.bin"
        save_training_state(bare, model, head, AdamState([]))
        for path in (tmp_path / "checkpoint.bin", bare):
            loaded = load_model(path)
            assert loaded.config == model.config
            for (name, arr), (_, want) in zip(_state_tensors(loaded).items(),
                                              _state_tensors(model).items()):
                np.testing.assert_array_equal(arr, want, err_msg=name)

    def test_parameters_have_no_gradient_until_zero_grads(self, small_corpus, tmp_path):
        model, head = tiny_setup(small_corpus)
        path = tmp_path / "state.bin"
        save_training_state(path, model, head, AdamState(_named_params(model, head)))
        loaded, loaded_head, _, _ = load_training_state(path)
        for named in (_named_params(model, head), _named_params(loaded, loaded_head),
                      _named_params(load_model(path))):
            assert all(p.grad is None for _, p in named)
            dt.zero_grads(p for _, p in named)
            for name, p in named:
                assert p.grad.shape == p.shape and p.grad.dtype == p.dtype, name
                assert not p.grad.any(), name

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


    def test_every_state_entry_round_trips(self, small_corpus, tmp_path):
        model, head = tiny_setup(small_corpus)
        train(model, head, small_corpus, tiny_cfg(steps=2), SCHED, out_dir=tmp_path)
        config, saved, extra = load_checkpoint(tmp_path / "checkpoint.bin")
        model2, head2, opt2, extra2 = load_training_state(tmp_path / "checkpoint.bin")
        restored = _state_tensors(model2, head2, opt2)
        assert sorted(restored) == sorted(saved)
        for name, arr in saved.items():
            np.testing.assert_array_equal(restored[name], arr, err_msg=name)
            assert restored[name].dtype == arr.dtype, name
        assert opt2.step == 2 and extra2 == extra

    def test_header_config_bytes_pinned(self, tmp_path):
        backbone = BackboneConfig(widths=(3, 6, 12, 24), blocks=(1, 2, 1, 1),
                                  strides=((1, 1), (2, 1), (1, 2), (2, 2)), attention="se",
                                  reduction=3, emb_dim=16, asp_hidden=5, n_mels=40)
        head = AAMHead(7, 16, scale=16.0, margin=0.25, rng=np.random.default_rng(0))
        path = tmp_path / "state.bin"
        save_training_state(path, SpeakerModel(backbone), head, AdamState([]))
        config, _, _ = load_checkpoint(path)
        text = json.dumps(config, sort_keys=True, separators=(",", ":"))
        assert text == GOLDEN_HEADER_CONFIG
        assert GOLDEN_HEADER_CONFIG.encode() in path.read_bytes()
        assert BackboneConfig.from_dict(json.loads(text)["backbone"]) == backbone


    @pytest.mark.parametrize("kind", ATTENTION_KINDS)
    def test_state_layout_pinned(self, kind):
        model, head = build_model_and_head(BackboneConfig(widths=(4, 8, 16, 32),
                                                          attention=kind), 3)
        state = _state_tensors(model, head, AdamState(_named_params(model, head)))
        layout = [(name, str(arr.dtype), list(arr.shape)) for name, arr in state.items()]
        assert hashlib.sha256(json.dumps(layout).encode()).hexdigest() == STATE_LAYOUT[kind]


# the header config written for the model above; a change here changes the file format
GOLDEN_HEADER_CONFIG = (
    '{"backbone":{"asp_hidden":5,"attention":"se","blocks":[1,2,1,1],"emb_dim":16,'
    '"n_mels":40,"reduction":3,"strides":[[1,1],[2,1],[1,2],[2,2]],"widths":[3,6,12,24]},'
    '"head":{"margin":0.25,"n_classes":7,"scale":16.0}}')
# sha256 of the JSON list of (name, dtype, shape) in _state_tensors, for widths 4,8,16,32 at
# the default depth and 3 speakers; a change here renames or reorders checkpoint entries
STATE_LAYOUT = {
    "none": "fb3199e0b4144647dcd15d3c7898bf93086827c2e8b5b8e0a420f2a3ad788b74",
    "se": "3dd5b38d0b24e8000547f7594edb5e7368eae915ca80b8f62bec040b6cbb1070",
    "dtcf": "da5f21a3290c873a10af314aed971ee4a5df48a5a232072cef7061dd899c3b4b",
}


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

    def test_batch_larger_than_corpus_refused(self, small_corpus, tmp_path):
        n = len(small_corpus)
        model, head = tiny_setup(small_corpus)
        with pytest.raises(ConfigError, match=f"batch_size {n + 2} .* corpus's {n} utterances"):
            train(model, head, small_corpus, tiny_cfg(batch_size=n + 2), SCHED,
                  out_dir=tmp_path / "big")
        assert not (tmp_path / "big").exists()
        report = train(model, head, small_corpus, tiny_cfg(batch_size=n, steps=1), SCHED,
                       out_dir=tmp_path / "whole")
        assert report.steps == 1

    def test_crop_wraps_a_short_utterance_and_draws_nothing(self):
        feats = np.arange(15, dtype=np.float32).reshape(5, 3)
        gen = rng(4)
        state = gen.bit_generator.state
        out = _crop_features(feats, 12, gen)
        np.testing.assert_array_equal(out, feats[[0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1]])
        assert gen.bit_generator.state == state

    def test_first_step_loss_near_ln_k_with_unit_scale(self, small_corpus, tmp_path):
        # with scale 1 and margin 0 the initial logits are nearly uniform
        model, head0 = tiny_setup(small_corpus)
        head = AAMHead(small_corpus.n_speakers, 32, scale=1.0, margin=0.0, rng=rng(9))
        report = train(model, head, small_corpus, tiny_cfg(steps=1), SCHED, out_dir=tmp_path)
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

    @pytest.mark.parametrize("change", ["backbone", "speakers", "scale", "margin",
                                        "corpus", "corpus_speakers"])
    def test_resume_rejects_other_config(self, small_corpus, tmp_path, change):
        model, head = tiny_setup(small_corpus)
        train(model, head, small_corpus, tiny_cfg(steps=1), SCHED, out_dir=tmp_path / "part")
        corpus = small_corpus
        if change == "backbone":
            model, head = tiny_setup(small_corpus, attention="se")
        elif change == "speakers":
            head = AAMHead(small_corpus.n_speakers + 1, 32, rng=rng(1))
        elif change == "corpus":
            # the same speakers, twice the utterances
            corpus = Corpus(small_corpus.rows * 2, 80)
        elif change == "corpus_speakers":
            # as many speakers and utterances, under other names
            corpus = Corpus([(u, "x" + s, p) for u, s, p in small_corpus.rows], 80)
        else:
            head = AAMHead(small_corpus.n_speakers, 32, **{change: 0.1}, rng=rng(1))
        with pytest.raises(CheckpointError, match="does not match"):
            train(model, head, corpus, tiny_cfg(steps=2), SCHED,
                  out_dir=tmp_path / "resumed", resume_from=tmp_path / "part" / "checkpoint.bin")
        assert not (tmp_path / "resumed").exists()

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
            train(model, head, small_corpus, tiny_cfg(steps=2), SCHED, out_dir=tmp_path / "resumed",
                  resume_from=bad)
        for b, (_, p) in zip(before, model.named_params()):
            np.testing.assert_array_equal(p.data, b)

    def test_resume_rejects_uncastable_dtype_before_restoring(self, small_corpus, tmp_path):
        model, head = tiny_setup(small_corpus)
        train(model, head, small_corpus, tiny_cfg(steps=1), SCHED, out_dir=tmp_path / "part")
        config, tensors, extra = load_checkpoint(tmp_path / "part" / "checkpoint.bin")
        name = "model.stage4.block0.bn2.running_var"
        tensors[name] = tensors[name].astype(np.complex64)
        bad = tmp_path / "bad.bin"
        save_checkpoint(bad, config, tensors, extra)
        model, head = tiny_setup(small_corpus)
        before = [a.copy() for a in _state_tensors(model, head, AdamState([])).values()]
        with pytest.raises(CheckpointError, match=f"'{name}' is complex64"):
            train(model, head, small_corpus, tiny_cfg(steps=2), SCHED, out_dir=tmp_path / "resumed",
                  resume_from=bad)
        for b, a in zip(before, _state_tensors(model, head, AdamState([])).values()):
            np.testing.assert_array_equal(a, b)

    def test_each_due_checkpoint_saved_once(self, small_corpus, tmp_path, monkeypatch):
        calls = record(monkeypatch, "save_checkpoint")
        model, head = tiny_setup(small_corpus)
        train(model, head, small_corpus, tiny_cfg(), SCHED, out_dir=tmp_path)
        assert calls == ["save_checkpoint"] * 2          # steps 2 and 4 of 4
        digest = hashlib.sha256((tmp_path / "checkpoint.bin").read_bytes()).hexdigest()
        assert digest == TINY_CFG_CHECKPOINT

    def test_patch_points_run_in_step_order(self, small_corpus, tmp_path, monkeypatch):
        # perfbench times each step from one adam_step return to the next and takes
        # the span before zero_grads as the batch's data phase
        calls = record(monkeypatch, "spec_augment", "zero_grads", "ce_loss_batch",
                       "adam_step", "save_checkpoint")
        model, head = tiny_setup(small_corpus)
        cfg = tiny_cfg(steps=2)
        train(model, head, small_corpus, cfg, SCHED, out_dir=tmp_path)
        step = ["spec_augment"] * cfg.batch_size + ["zero_grads", "ce_loss_batch", "adam_step"]
        assert calls == step + step + ["save_checkpoint"]

    def test_divergence_guard(self, small_corpus, tmp_path):
        model, _ = tiny_setup(small_corpus)
        # an absurd scale pushes the first-step loss beyond the 1e4 cap
        head = AAMHead(small_corpus.n_speakers, 32, scale=1e6, margin=0.0, rng=rng(8))
        with pytest.raises(DivergenceError, match="divergence guard"):
            train(model, head, small_corpus, tiny_cfg(steps=2), SCHED, out_dir=tmp_path)


# toy_step_digest() with one BLAS thread; conv2d's kernel gradient, summed tap by tap
# and block by block, sets its bits
TOY_STEP_GRADS = "7e2a091b9d3679778d4197a4f6ad6e059b9662d74c7b012cf40e12dd457d115c"


def toy_step(backbone=BackboneConfig(widths=(4, 8, 16, 32), blocks=(1, 1, 1, 1),
                                     attention="dtcf"), batch=4, frames=120):
    """The seeded float32 model (by default the toy DTCF model, widths 4-8-16-32), its
    zeroed gradients and a batch of ``batch`` x ``frames`` x 80: what one step of train()
    starts from."""
    model, head = build_model_and_head(backbone, n_classes=10, seed=0)
    named = _named_params(model, head)
    dt.zero_grads(p for _, p in named)
    feats = dt.Tensor(rng(0).standard_normal((batch, frames, 80)).astype(np.float32))
    return model, head, named, feats, np.array([0, 3, 5, 9])[:batch]


def traced_step(model, head, feats, labels) -> tuple[int, int]:
    """Traced bytes a train-mode step holds after its forward, and the peak of its backward."""
    tracemalloc.start()
    try:
        loss = ce_loss_batch(head.logits_batch(model.forward(feats, training=True), labels),
                             labels)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(float(loss.data))
    return held, peak


def toy_step_digest() -> str:
    """sha256 over every parameter's name and float32 gradient after one toy_step backward."""
    model, head, named, feats, labels = toy_step()
    emb = model.forward(feats, training=True)
    ce_loss_batch(head.logits_batch(emb, labels), labels).backward()
    digest = hashlib.sha256()
    for name, p in named:
        assert p.grad.dtype == np.float32
        digest.update(name.encode() + p.grad.tobytes())
    return digest.hexdigest()


class TestTrainStep:
    def test_gradients_pinned(self):
        # with more than one thread OpenBLAS splits the long conv reductions by the
        # CPU count, so the bits are pinned for one thread, in a fresh process
        paths = [str(Path(__file__).parent), str(Path(dt.__file__).parents[1])]
        child = subprocess.run(
            [sys.executable, "-c", "from test_train import toy_step_digest as d; print(d())"],
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                 "PYTHONPATH": os.pathsep.join(paths)},
            capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == TOY_STEP_GRADS

    def test_backward_frees_the_graph(self):
        # parameters and gradients exist before tracing starts, and backward accumulates
        # into the gradients in place, so what stays traced is the graph's memory
        model, head, named, feats, labels = toy_step()
        tracemalloc.start()
        try:
            emb = model.forward(feats, training=True)
            logits = head.logits_batch(emb, labels)
            loss = ce_loss_batch(logits, labels)
            after_forward, _ = tracemalloc.get_traced_memory()
            loss.backward()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # emb, logits and loss are still referenced, as train() holds them until the next step
        assert held <= 1 << 20, (f"{held / 2**20:.1f} MiB held after backward, "
                                 f"{after_forward / 2**20:.1f} MiB after the forward")
        # what the forward holds is node outputs: no conv keeps its im2col columns
        assert after_forward <= 36 << 20, f"{after_forward / 2**20:.1f} MiB after the forward"
        assert np.isfinite(float(loss.data)) and logits.data.shape == (4, 10)

    def test_step_keeps_no_normalised_or_pre_relu_maps(self):
        # train-toy-dtcf's step (B=16, crop 120). When each train-mode batchnorm kept its
        # normalised map and the ReLUs after the stem, each bn1 and each residual sum were
        # nodes of their own, it held 90.9 MiB after the forward and peaked at 98.6 MiB;
        # with the fused nodes it held 56.3 MiB and peaked at 71.7 MiB
        model, head, _, feats, _ = toy_step(batch=16)
        labels = np.arange(16) % 10
        tracemalloc.start()
        try:
            loss = ce_loss_batch(head.logits_batch(model.forward(feats, training=True), labels),
                                 labels)
            after_forward, _ = tracemalloc.get_traced_memory()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after_forward <= 60 << 20, f"{after_forward / 2**20:.1f} MiB after the forward"
        assert peak <= 76 << 20, f"{peak / 2**20:.1f} MiB peak"

    def test_forward_holds_only_what_the_rules_read(self):
        # train-toy-dtcf's step (B=16, crop 120): each backward rule keeps only the arrays
        # it reads, so the gated maps, the down_bn outputs and the maps before each ReLU
        # go when the forward drops them. It holds 43.4 MiB after the forward, and 56.3
        # MiB when the tape held the data of every parent
        model, head, _, feats, _ = toy_step(batch=16)
        held, _ = traced_step(model, head, feats, np.arange(16) % 10)
        assert held <= 48 << 20, f"{held / 2**20:.1f} MiB held after the forward"

    def test_backward_frees_each_map_it_passes(self):
        # train-toy-dtcf's step (B=16, crop 120): the backward peaks 1.6 MiB above the
        # 43.4 MiB the forward holds as each map is freed once the walk passes it, and
        # 14.1 MiB above the forward's 56.3 MiB when the walk held every node until it ended
        model, head, _, feats, _ = toy_step(batch=16)
        held, peak = traced_step(model, head, feats, np.arange(16) % 10)
        assert peak - held <= 5 << 20, (f"backward peaks {(peak - held) / 2**20:.1f} MiB "
                                        f"above the {held / 2**20:.1f} MiB of the forward")

    @pytest.mark.parametrize("attention, nodes", [("dtcf", 189), ("se", 173), ("none", 133)])
    def test_step_records_its_tape(self, attention, nodes):
        # train-toy-dtcf's step (B=16, crop 120) at each attention kind: every weight is
        # one per_column node, with no transpose of its own
        model, head, _, feats, _ = toy_step(BackboneConfig(
            widths=(4, 8, 16, 32), blocks=(1, 1, 1, 1), attention=attention), batch=16)
        labels = np.arange(16) % 10
        loss = ce_loss_batch(head.logits_batch(model.forward(feats, training=True), labels), labels)
        assert len(dt.topo_order(loss)) == nodes

    @pytest.mark.slow
    def test_full_width_forward_memory(self):
        # the full-width DTCF model (8.4M parameters) at B=2, crop 200: a training
        # step peaks at what its forward holds, 231.0 MiB, and 285.7 MiB when the tape
        # held the data of every parent. The backward peaks 9.9 MiB above it as the walk
        # frees each map it passes, and 22.7 MiB if the walk holds them all
        model, head, _, feats, labels = toy_step(BackboneConfig(attention="dtcf"), 2, 200)
        held, peak = traced_step(model, head, feats, labels)
        assert held <= 800 << 20, f"{held / 2**20:.0f} MiB held after the forward"
        assert held <= 250 << 20, f"{held / 2**20:.1f} MiB held after the forward"
        assert peak - held <= 16 << 20, (f"backward peaks {(peak - held) / 2**20:.1f} MiB "
                                         f"above the {held / 2**20:.1f} MiB of the forward")


class TestConfigFile:
    def test_defaults(self):
        # a key the file omits is not in the config, so the object keeps its own default
        cfg = parse_config_text("steps = 7\n")
        assert cfg == {"steps": 7}
        train_cfg = _from_config(TrainConfig, cfg, augment=AugmentConfig())
        sched = _from_config(Triangular2Schedule, cfg)
        assert train_cfg.steps == 7 and train_cfg.weight_decay == 2e-5
        assert sched.base_lr == 1e-8 and sched.max_lr == 1e-3

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

    def test_repeated_key_names_both_lines(self):
        # else the later value would win silently
        with pytest.raises(ConfigError) as err:
            parse_config_text("steps = 3\n# c\nsteps = 5\n", source="run.cfg")
        assert str(err.value) == "run.cfg:3: config key 'steps' repeats line 1"

    def test_not_utf8_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"steps = 7\n\xff\xfe = 1\n")
        with pytest.raises(ConfigError, match=r"cannot read config .*bad\.cfg: .*byte 0xff"):
            load_config(path)

    def test_every_object_field_is_a_config_key(self):
        # cmd_train fills these objects by field name; a field without a key
        # would silently keep its default
        unfilled = {BackboneConfig: {"strides"}, TrainConfig: {"augment"}}
        for cls in (BackboneConfig, TrainConfig, AugmentConfig, Triangular2Schedule):
            for f in fields(cls):
                if f.name not in unfilled.get(cls, ()):
                    assert f.name in SCHEMA, f"{cls.__name__}.{f.name}"

    @pytest.mark.parametrize("cls", [BackboneConfig, TrainConfig, AugmentConfig,
                                     Triangular2Schedule])
    def test_each_key_parses_its_default_back(self, cls):
        # a key parses as the type of its field's default, so the text of that
        # default must parse back to it; tuples are written a,b,c
        for f in fields(cls):
            if f.name in SCHEMA:
                d = f.default
                text = ",".join(map(str, d)) if isinstance(d, tuple) else str(d)
                parsed = SCHEMA[f.name](text)
                assert parsed == d and type(parsed) is type(d), f"{cls.__name__}.{f.name}"


@pytest.mark.parametrize("call, error, match", [
    (lambda: lr_at(SCHED, -1), ConfigError, "iteration"),
    (lambda: TrainConfig(batch_size=1), ConfigError, "batch_size"),
    (lambda: TrainConfig(steps=0), ConfigError, "steps >= 1"),
    (lambda: TrainConfig(crop=SpeakerModel.MIN_FRAMES - 1), ConfigError, "crop >= 8"),
    (lambda: TrainConfig(crop=10), ConfigError, "time_mask_max 10 must be smaller than crop 10"),
    (lambda: TrainConfig(checkpoint_every=0), ConfigError, "checkpoint_every >= 1"),
    (lambda: Corpus([("u0", "a", Path("a0.wav")), ("u1", "a", Path("a1.wav")),
                     ("u2", "b", Path("b0.wav"))], 80), DataError, r"fewer than 2 .*\['b'\]"),
    (lambda: parse_config_text("steps = 7\nsteps 8\n"), ConfigError, "2: expected 'key = value'"),
    (lambda: load_config(Path(__file__).parent / "no_such.cfg"), ConfigError,
     "cannot read config"),
], ids=["lr-negative-iteration", "batch-1", "steps-0", "crop-short", "crop-within-time-mask",
        "checkpoint-every-0",
        "speaker-one-utterance", "config-line-without-equals", "config-unreadable"])
def test_named_input_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
