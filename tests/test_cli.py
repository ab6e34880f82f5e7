"""End-to-end CLI tests: subcommands, artifacts, exit codes."""

import hashlib
import json

import numpy as np
import pytest

import dtcf.checkpoint
from dtcf import cli
from dtcf.attention import DTCFBlock, SEBlock
from dtcf.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from dtcf.cli import main
from dtcf.errors import (CheckpointError, ConfigError, DataError, DivergenceError,
                         DomainError, GradCheckError, ShapeError)
from dtcf.loss import AAMHead
from dtcf.metrics import compute_eer, compute_min_dcf, export_embeddings, read_embeddings
from dtcf.model import BackboneConfig, SpeakerModel
from dtcf.synth import read_manifest, read_trials
from dtcf.train import (AdamState, TrainConfig, TrainReport, Triangular2Schedule,
                        _named_params, load_training_state, save_training_state)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clicorp")
    assert main(["synth-data", "--speakers", "3", "--utts", "4",
                 "--seed", "7", "--out", str(out)]) == 0
    return out


TINY_KEYS = """
widths = 2,4,8,16
blocks = 1,1,1,1
emb_dim = 32
asp_hidden = 8
batch_size = 2
crop = 40
steps = 3
step_size = 100
time_mask_max = 4
freq_mask_max = 4
seed = 1
"""


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory, corpus_dir):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY_KEYS + f"manifest = {corpus_dir / 'train.csv'}\n")
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, tiny_config):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--config", str(tiny_config), "--attention", "dtcf",
                 "--out", str(out)])
    assert code == 0
    return out


class TestSynthData:
    def test_summary_line(self, corpus_dir, capsys):
        main(["synth-data", "--speakers", "2", "--utts", "4", "--seed", "1",
              "--out", str(corpus_dir / "mini")])
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line == "speakers=2 utts=8 trials=4"

    def test_wav_count(self, corpus_dir):
        assert len(list((corpus_dir / "wav").glob("*.wav"))) == 12

    def test_same_seed_identical_checksum(self, corpus_dir, tmp_path):
        assert main(["synth-data", "--speakers", "3", "--utts", "4",
                     "--seed", "7", "--out", str(tmp_path / "again")]) == 0
        assert sha(tmp_path / "again" / "manifest.csv") == sha(corpus_dir / "manifest.csv")

    def test_env_seed_fallback(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("DTCF_SEED", "7")
        assert main(["synth-data", "--speakers", "3", "--utts", "4",
                     "--out", str(tmp_path / "env")]) == 0
        assert sha(tmp_path / "env" / "manifest.csv") == sha(corpus_dir / "manifest.csv")

    def test_env_seed_not_an_integer_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DTCF_SEED", "abc")
        assert main(["synth-data", "--speakers", "3", "--utts", "4",
                     "--out", str(tmp_path / "env")]) == 2
        assert "DTCF_SEED" in capsys.readouterr().err

    def test_one_speaker_exit_2(self, tmp_path):
        assert main(["synth-data", "--speakers", "1", "--utts", "4",
                     "--out", str(tmp_path / "bad")]) == 2


class TestTrain:
    def test_writes_both_artifacts(self, trained):
        assert (trained / "checkpoint.bin").exists()
        assert (trained / "train_log.csv").exists()

    def test_attention_changes_params_by_exact_delta(self, tiny_config, tmp_path,
                                                     capsys):
        logged = {}
        for kind in ("se", "dtcf"):
            code = main(["train", "--config", str(tiny_config), "--attention", kind,
                         "--steps", "1", "--out", str(tmp_path / kind)])
            assert code == 0
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if l.startswith("params="))
            logged[kind] = int(line.split()[0].split("=")[1])
        rng = np.random.default_rng(0)
        expect = sum(DTCFBlock(c, 8, rng=rng).param_count() - SEBlock(c, 8, rng=rng).param_count()
                     for c in (2, 4, 8, 16))
        assert logged["dtcf"] - logged["se"] == expect

    def test_config_values_reach_checkpoint_and_log(self, tiny_config, tmp_path):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(tiny_config.read_text() + "widths = 4,8,16,32\nreduction = 2\n"
                       "emb_dim = 12\nasp_hidden = 6\nscale = 12.5\nmargin = 0.15\n"
                       "base_lr = 1e-6\nsteps = 1\n")
        assert main(["train", "--config", str(cfg), "--attention", "se",
                     "--out", str(tmp_path / "o")]) == 0
        config, _, _ = load_checkpoint(tmp_path / "o" / "checkpoint.bin")
        backbone = config["backbone"]
        assert backbone["widths"] == [4, 8, 16, 32] and backbone["reduction"] == 2
        assert backbone["emb_dim"] == 12 and backbone["asp_hidden"] == 6
        assert backbone["attention"] == "se"
        assert config["head"] == {"n_classes": 3, "scale": 12.5, "margin": 0.15}
        log = (tmp_path / "o" / "train_log.csv").read_text().splitlines()
        assert log[1].split(",")[1] == repr(1e-6)

    def test_malformed_config_key_exit_2(self, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 1\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "nonsense_key" in capsys.readouterr().err

    def test_missing_manifest_exit_2(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "o2")]) == 2

    def test_resume_without_loop_state_exit_3(self, tiny_config, tmp_path, capsys):
        # a model checkpoint written outside train() carries no rng/order/cursor
        model = SpeakerModel(BackboneConfig(widths=(2, 4, 8, 16), blocks=(1, 1, 1, 1),
                                            attention="dtcf", emb_dim=32, asp_hidden=8), seed=1)
        head = AAMHead(3, 32, rng=np.random.default_rng(2))
        ckpt = tmp_path / "model_only.bin"
        save_training_state(ckpt, model, head, AdamState(_named_params(model, head)))
        assert main(["train", "--config", str(tiny_config), "--resume", str(ckpt),
                     "--out", str(tmp_path / "o3")]) == 3
        assert "rng_state" in capsys.readouterr().err

    def test_resume_from_smaller_corpus_exit_3(self, tiny_config, corpus_dir, tmp_path,
                                               capsys):
        # the checkpoint saw all 12 utterances; train.csv holds 6 of them, of the same speakers
        assert main(["train", "--config", str(tiny_config), "--steps", "1", "--manifest",
                     str(corpus_dir / "manifest.csv"), "--out", str(tmp_path / "all")]) == 0
        assert main(["train", "--config", str(tiny_config), "--resume",
                     str(tmp_path / "all" / "checkpoint.bin"), "--out", str(tmp_path / "o5")]) == 3
        err = capsys.readouterr().err
        assert "(3 speakers, 12 utterances)" in err and "(3 speakers, 6 utterances)" in err
        assert not (tmp_path / "o5").exists()

    def test_resume_header_config_without_model_exit_3(self, tiny_config, trained,
                                                       tmp_path, capsys):
        for missing, path in incomplete_checkpoints(trained, tmp_path):
            assert main(["train", "--config", str(tiny_config), "--resume", str(path),
                         "--out", str(tmp_path / "o4")]) == 3
            assert f"'{missing}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("scale", "5.0"), ("margin", "0.3")])
    def test_resume_with_other_head_exit_3(self, tiny_config, trained, tmp_path, capsys,
                                           key, value):
        source = trained / "checkpoint.bin"
        before = sha(source)
        cfg = tmp_path / "head.cfg"
        cfg.write_text(tiny_config.read_text() + f"{key} = {value}\nsteps = 5\n")
        assert main(["train", "--config", str(cfg), "--resume", str(source),
                     "--out", str(tmp_path / "o5")]) == 3
        assert f"head {key}" in capsys.readouterr().err
        assert sha(source) == before
        assert not (tmp_path / "o5" / "checkpoint.bin").exists()

    def test_batch_larger_than_corpus_exit_2(self, tiny_config, corpus_dir, tmp_path, capsys):
        rows = len(read_manifest(corpus_dir / "train.csv"))
        out = tmp_path / "big"
        assert main(["train", "--config", str(tiny_config), "--batch-size", str(rows + 2),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"batch_size {rows + 2} is larger than the corpus's {rows} utterances" in err
        assert not out.exists()

    def test_other_mel_count_trains_and_extracts(self, tiny_config, corpus_dir, tmp_path):
        cfg = tmp_path / "mels.cfg"
        cfg.write_text(tiny_config.read_text() + "n_mels = 40\nsteps = 2\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        ckpt = tmp_path / "o" / "checkpoint.bin"
        assert load_checkpoint(ckpt)[0]["backbone"]["n_mels"] == 40
        assert main(["extract", "--ckpt", str(ckpt), "--manifest",
                     str(corpus_dir / "manifest.csv"), "--out", str(tmp_path / "emb.csv")]) == 0
        assert len(read_embeddings(tmp_path / "emb.csv")) == 12

    def test_resume_with_nan_parameter_exit_4(self, tiny_config, trained, tmp_path, capsys):
        config, tensors, extra = load_checkpoint(trained / "checkpoint.bin")
        tensors["model.emb.bias"][0] = np.nan
        source = tmp_path / "nan.bin"
        save_checkpoint(source, config, tensors, extra)
        cfg = tmp_path / "longer.cfg"
        cfg.write_text(tiny_config.read_text() + "steps = 5\n")
        assert main(["train", "--config", str(cfg), "--resume", str(source),
                     "--out", str(tmp_path / "o6")]) == 4
        assert "divergence guard" in capsys.readouterr().err
        assert not (tmp_path / "o6" / "checkpoint.bin").exists()

    def test_resume_with_no_steps_left_exit_2(self, trained, tmp_path, capsys, tiny_config):
        run = tmp_path / "run"
        run.mkdir()
        for name in ("checkpoint.bin", "train_log.csv"):
            (run / name).write_bytes((trained / name).read_bytes())
        before = {name: sha(run / name) for name in ("checkpoint.bin", "train_log.csv")}
        assert main(["train", "--config", str(tiny_config), "--attention", "dtcf",
                     "--steps", "3", "--resume", str(run / "checkpoint.bin"),
                     "--out", str(run)]) == 2
        err = capsys.readouterr().err
        assert "step 3" in err and "steps 3" in err
        assert {name: sha(run / name) for name in before} == before

    def test_omitted_keys_take_object_defaults(self, corpus_dir, tmp_path, monkeypatch):
        built = {}

        def fake_train(model, head, corpus, cfg, sched, **_):
            built.update(model=model, head=head, cfg=cfg, sched=sched)
            return TrainReport(0, 0.0, [], None, None)

        monkeypatch.setattr(cli, "train", fake_train)
        monkeypatch.delenv("DTCF_SEED", raising=False)
        cfg = tmp_path / "manifest_only.cfg"
        cfg.write_text(f"manifest = {corpus_dir / 'train.csv'}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        # dtcf train sets only the attention kind and the seed itself
        assert built["model"].config == BackboneConfig(attention="dtcf")
        assert built["cfg"] == TrainConfig(seed=0)
        assert built["sched"] == Triangular2Schedule()
        assert (built["head"].scale, built["head"].margin) == (30.0, 0.2)

    @pytest.mark.parametrize("key", ["time_mask_max", "freq_mask_max",
                                     "n_time_masks", "n_freq_masks"])
    def test_negative_augment_value_exit_2(self, tiny_config, tmp_path, capsys, key):
        cfg = tmp_path / "mask.cfg"
        cfg.write_text(tiny_config.read_text() + f"{key} = -1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o7")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o7" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("key,value", [("emb_dim", -1), ("emb_dim", 0), ("asp_hidden", 0)])
    def test_non_positive_size_exit_2(self, tiny_config, tmp_path, capsys, key, value):
        cfg = tmp_path / "size.cfg"
        cfg.write_text(tiny_config.read_text() + f"{key} = {value}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o8")]) == 2
        assert f"{key} must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o8" / "checkpoint.bin").exists()


# checkpoint of the tiny config trained with seed 0, the seed a run gets when neither
# --seed, the config file nor DTCF_SEED gives one
SEED_0_CHECKPOINT = "b784f46bd341c701aa8f0091668d91499b239f87905417cadeb305684343386e"
# the trained fixture's embeddings of the full manifest, and its eval line and score
# file on the trial list
TRAINED_EXTRACT = "f75f5c1b6fc6fe3ddcd1cd340ce7090a95d4a9f52bf553326c3ca2a63074cbae"
TRAINED_EVAL_LINE = "0f41fdb0c7aabacd47de42a47637b71585d18a7b554470bb72658f633733b5b7"
TRAINED_SCORES = "32bf4cf92512a67d5fb2389ee842856558acca09777bd2d117865f7400f1cdb9"


def test_trained_extract_and_eval_are_pinned(trained, corpus_dir, tmp_path, capsys):
    emb = tmp_path / "emb.csv"
    assert main(["extract", "--ckpt", str(trained / "checkpoint.bin"),
                 "--manifest", str(corpus_dir / "manifest.csv"), "--out", str(emb)]) == 0
    assert sha(emb) == TRAINED_EXTRACT
    capsys.readouterr()
    assert main(["eval", "--emb", str(emb), "--trials", str(corpus_dir / "trials.txt")]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert hashlib.sha256(line.encode()).hexdigest() == TRAINED_EVAL_LINE
    assert sha(tmp_path / "scores.csv") == TRAINED_SCORES


class TestTrainSeed:
    """The training seed comes from --seed, else the config file, else DTCF_SEED, else 0."""

    @staticmethod
    def train(tiny_config, out, seed_line="", flags=()):
        kept = [line for line in tiny_config.read_text().splitlines()
                if not line.startswith("seed")]
        cfg = out.with_suffix(".cfg")
        cfg.write_text("\n".join(kept + [seed_line]) + "\n")
        return main(["train", "--config", str(cfg), *flags, "--out", str(out)])

    def run(self, tiny_config, out, seed_line="", flags=()):
        assert self.train(tiny_config, out, seed_line, flags) == 0
        return sha(out / "checkpoint.bin")

    def test_unset_seed_is_zero(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.delenv("DTCF_SEED", raising=False)
        assert self.run(tiny_config, tmp_path / "unset") == SEED_0_CHECKPOINT

    def test_env_seed_equals_flag(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.delenv("DTCF_SEED", raising=False)
        by_flag = self.run(tiny_config, tmp_path / "flag", flags=("--seed", "5"))
        assert by_flag != SEED_0_CHECKPOINT
        monkeypatch.setenv("DTCF_SEED", "5")
        assert self.run(tiny_config, tmp_path / "env") == by_flag
        monkeypatch.setenv("DTCF_SEED", "9")
        assert self.run(tiny_config, tmp_path / "flag_over_env", flags=("--seed", "5")) == by_flag

    def test_file_seed_wins_over_env(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.setenv("DTCF_SEED", "5")
        assert self.run(tiny_config, tmp_path / "file", "seed = 0") == SEED_0_CHECKPOINT

    @pytest.mark.parametrize("seed_line, flags, env", [
        ("", ("--seed", "-1"), None),
        ("", (), "-1"),
        ("seed = -1", (), None),
    ], ids=["flag", "env", "file"])
    def test_negative_seed_exit_2(self, tiny_config, tmp_path, monkeypatch, capsys,
                                  seed_line, flags, env):
        monkeypatch.delenv("DTCF_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("DTCF_SEED", env)
        assert self.train(tiny_config, tmp_path / "neg", seed_line, flags) == 2
        assert "-1" in capsys.readouterr().err
        assert not (tmp_path / "neg" / "checkpoint.bin").exists()


@pytest.mark.parametrize("by_env", [False, True], ids=["flag", "env"])
@pytest.mark.parametrize("argv", [
    ["synth-data", "--speakers", "2", "--utts", "4"],
    ["gradcheck", "--attention", "se", "--shape", "4x6x5"],
], ids=["synth-data", "gradcheck"])
def test_negative_seed_exit_2(tmp_path, monkeypatch, capsys, argv, by_env):
    if by_env:
        monkeypatch.setenv("DTCF_SEED", "-3")
    else:
        monkeypatch.delenv("DTCF_SEED", raising=False)
        argv = argv + ["--seed", "-3"]
    if argv[0] == "synth-data":
        argv = argv + ["--out", str(tmp_path / "corpus")]
    assert main(argv) == 2
    assert "-3" in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()


# header values a checkpoint can hold but no run can use: (command, header entry, changes); the
# first changed key is the one the error must name
MALFORMED_HEADERS = {
    "order-int": ("train", "extra", {"order": 5}),
    "cursor-str": ("train", "extra", {"cursor": "x"}),
    "rng-state-dict": ("train", "extra", {"rng_state": {"a": 1}}),
    "order-past-corpus": ("train", "extra", {"order": [0, 1, 2, 3, 4, 6], "cursor": 4}),
    "step-str": ("extract", "extra", {"step": "x"}),
    "widths-int": ("extract", "backbone", {"widths": 5}),
    "scale-str": ("extract", "head", {"scale": "x"}),
    "widths-not-doubling": ("train", "backbone", {"widths": [2, 4, 8, 17]}),
}


@pytest.mark.parametrize("case", MALFORMED_HEADERS)
def test_malformed_header_value_exit_3(trained, tiny_config, corpus_dir, tmp_path, capsys, case):
    command, entry, changes = MALFORMED_HEADERS[case]
    config, tensors, extra = load_checkpoint(trained / "checkpoint.bin")
    (extra if entry == "extra" else config[entry]).update(changes)
    ckpt = tmp_path / "odd.bin"
    save_checkpoint(ckpt, config, tensors, extra)
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--config", str(tiny_config), "--steps", "5", "--resume", str(ckpt)]
    else:
        argv = ["extract", "--ckpt", str(ckpt), "--manifest", str(corpus_dir / "manifest.csv")]
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1
    assert f"'{next(iter(changes))}'" in err
    assert entry == "extra" or f"'{entry}'" in err
    assert not out.exists()


def incomplete_checkpoints(trained, tmp_path):
    """Copies of a trained checkpoint whose header config lacks one entry or field."""
    config, tensors, extra = load_checkpoint(trained / "checkpoint.bin")
    cases = {"backbone": {"head": config["head"]},
             "head": {"backbone": config["backbone"]},
             "strides": {"backbone": {k: v for k, v in config["backbone"].items()
                                      if k != "strides"}, "head": config["head"]},
             "n_classes": {"backbone": config["backbone"],
                           "head": {k: v for k, v in config["head"].items()
                                    if k != "n_classes"}}}
    for missing, cfg in cases.items():
        path = tmp_path / f"no_{missing}.bin"
        save_checkpoint(path, cfg, tensors, extra)
        yield missing, path


class TestExtract:
    def test_missing_audio_file_exit_5(self, trained, tmp_path, capsys):
        manifest = tmp_path / "gone.csv"
        manifest.write_text("utt_id,speaker_id,path\nu0,s0,no_such.wav\n")
        assert main(["extract", "--ckpt", str(trained / "checkpoint.bin"), "--manifest",
                     str(manifest), "--out", str(tmp_path / "e.csv")]) == 5
        assert "missing audio file for u0" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    def test_header_config_without_model_exit_3(self, trained, corpus_dir, tmp_path,
                                                capsys):
        bare = tmp_path / "other.bin"
        save_checkpoint(bare, {"other": 1}, {"a": np.zeros(3, dtype=np.float32)}, {})
        cases = [("backbone", bare)] + list(incomplete_checkpoints(trained, tmp_path))
        for missing, path in cases:
            assert main(["extract", "--ckpt", str(path),
                         "--manifest", str(corpus_dir / "manifest.csv"),
                         "--out", str(tmp_path / "e.csv")]) == 3
            assert f"'{missing}'" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    def test_header_without_tensors_exit_3(self, corpus_dir, tmp_path, capsys):
        header = b'{"config":{},"extra":{},"version":1}'
        path = tmp_path / "no_tensors.bin"
        path.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header)
        assert main(["extract", "--ckpt", str(path),
                     "--manifest", str(corpus_dir / "manifest.csv"),
                     "--out", str(tmp_path / "e.csv")]) == 3
        assert "'tensors'" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [
        [1, {"version": 1}],
        {"version": 1, "config": {}, "extra": {},
         "tensors": [{"name": "w", "dtype": "<f4", "shape": [2], "nbytes": 8}]},
        {"version": 1, "config": {}, "extra": {}, "tensors": 5},
        {"version": 1, "config": {}, "extra": {}, "tensors": ["w"]},
        {"version": 1, "config": {}, "extra": {},
         "tensors": [{"name": "w", "dtype": "<f4", "shape": [2], "offset": "0", "nbytes": 8}]},
        {"version": 1, "config": {}, "extra": {},
         "tensors": [{"name": "w", "dtype": "|O", "shape": [1], "offset": 0, "nbytes": 8}]},
        {"version": 1, "config": [], "extra": {}, "tensors": []},
        {"version": 1, "config": {}, "extra": "step", "tensors": []},
    ], ids=["list", "no-offset", "tensors-int", "entry-str", "offset-str", "object-dtype",
            "config-list", "extra-str"])
    def test_wrongly_shaped_header_exit_3(self, corpus_dir, tmp_path, capsys, header):
        blob = json.dumps(header).encode()
        path = tmp_path / "odd.bin"
        path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob + bytes(8))
        assert main(["extract", "--ckpt", str(path),
                     "--manifest", str(corpus_dir / "manifest.csv"),
                     "--out", str(tmp_path / "e.csv")]) == 3
        assert "corrupt header" in capsys.readouterr().err

    @staticmethod
    def extract(ckpt, corpus_dir, out) -> bytes:
        assert main(["extract", "--ckpt", str(ckpt), "--manifest",
                     str(corpus_dir / "manifest.csv"), "--out", str(out)]) == 0
        return out.read_bytes()

    def test_optimizer_bytes_are_never_read(self, trained, corpus_dir, tmp_path, monkeypatch):
        blob = bytearray((trained / "checkpoint.bin").read_bytes())
        hlen = int.from_bytes(blob[8:16], "little")
        entries = json.loads(blob[16:16 + hlen])["tensors"]
        for e in entries:
            if e["name"].startswith("adam."):
                start = 16 + hlen + e["offset"]
                blob[start:start + e["nbytes"]] = b"\xff" * e["nbytes"]
        garbled = tmp_path / "garbled.bin"
        garbled.write_bytes(bytes(blob))
        intact = self.extract(trained / "checkpoint.bin", corpus_dir, tmp_path / "intact.csv")

        read = []
        real_open = open

        class Counted:
            """A checkpoint file that records the bytes each readinto returns."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def __getattr__(self, name):
                return getattr(self.f, name)

            def readinto(self, buf):
                read.append(self.f.readinto(buf))
                return read[-1]

        monkeypatch.setattr(dtcf.checkpoint, "open", lambda path, mode: Counted(
            real_open(path, mode)), raising=False)
        assert self.extract(garbled, corpus_dir, tmp_path / "garbled.csv") == intact
        assert sum(read) == sum(e["nbytes"] for e in entries if e["name"].startswith("model."))

    def test_checkpoint_without_optimizer_state(self, trained, corpus_dir, tmp_path):
        model, head, _, _ = load_training_state(trained / "checkpoint.bin")
        bare = tmp_path / "bare.bin"
        save_training_state(bare, model, head, AdamState([]))
        assert (self.extract(bare, corpus_dir, tmp_path / "bare.csv")
                == self.extract(trained / "checkpoint.bin", corpus_dir, tmp_path / "full.csv"))

    def test_row_count_and_determinism(self, trained, corpus_dir, tmp_path):
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        for out in (out1, out2):
            assert main(["extract", "--ckpt", str(trained / "checkpoint.bin"),
                         "--manifest", str(corpus_dir / "manifest.csv"),
                         "--out", str(out)]) == 0
        rows = read_manifest(corpus_dir / "manifest.csv")
        emb = read_embeddings(out1)
        assert len(emb) == len(rows)
        assert all(len(v[1]) == 32 for v in emb.values())
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_checkpoint_exit_3(self, corpus_dir, tmp_path):
        assert main(["extract", "--ckpt", str(tmp_path / "nope.bin"),
                     "--manifest", str(corpus_dir / "manifest.csv"),
                     "--out", str(tmp_path / "e.csv")]) == 3

    def test_truncated_checkpoint_exit_3_names_tensor(self, trained, corpus_dir,
                                                      tmp_path, capsys):
        blob = (trained / "checkpoint.bin").read_bytes()
        bad = tmp_path / "trunc.bin"
        bad.write_bytes(blob[:len(blob) // 2])
        assert main(["extract", "--ckpt", str(bad),
                     "--manifest", str(corpus_dir / "manifest.csv"),
                     "--out", str(tmp_path / "e.csv")]) == 3
        assert "tensor" in capsys.readouterr().err


class TestEval:
    @pytest.fixture()
    def separable(self, tmp_path):
        # hand-built embeddings: two orthogonal speaker directions
        emb = tmp_path / "emb.csv"
        lines = ["utt_id,speaker_id," + ",".join(f"e{i}" for i in range(4))]
        for i in range(3):
            lines.append(f"a{i},sa,1.0,0.0,0.0,{0.01 * i!r}")
            lines.append(f"b{i},sb,0.0,1.0,{0.01 * i!r},0.0")
        emb.write_text("\n".join(lines) + "\n")
        trials = tmp_path / "trials.txt"
        trials.write_text(
            "a0 a1 target\na1 a2 target\nb0 b1 target\n"
            "a0 b0 nontarget\na1 b1 nontarget\na2 b2 nontarget\n")
        return emb, trials

    def test_perfect_separation_and_format(self, separable, capsys):
        emb, trials = separable
        assert main(["eval", "--emb", str(emb), "--trials", str(trials)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        tokens = line.split()
        assert len(tokens) == 4
        kv = dict(t.split("=") for t in tokens)
        assert set(kv) == {"eer", "minDcf", "threshold_eer", "threshold_dcf"}
        assert float(kv["eer"]) == 0.0 and float(kv["minDcf"]) == 0.0
        assert (emb.parent / "scores.csv").exists()

    def test_matches_library_calls(self, separable, capsys):
        emb, trials = separable
        main(["eval", "--emb", str(emb), "--trials", str(trials)])
        kv = dict(t.split("=") for t in
                  capsys.readouterr().out.strip().splitlines()[-1].split())
        from dtcf.metrics import score_trials
        store = {u: v for u, (_, v) in read_embeddings(emb).items()}
        listed = read_trials(trials)
        scores = score_trials(store, listed).tolist()
        labels = [label for _, _, label in listed]
        eer, th = compute_eer(scores, labels)
        mdcf, thd = compute_min_dcf(scores, labels)
        assert float(kv["eer"]) == eer and float(kv["minDcf"]) == mdcf
        assert float(kv["threshold_eer"]) == th and float(kv["threshold_dcf"]) == thd

    def test_malformed_embedding_row_exit_5(self, separable, tmp_path, capsys):
        emb, trials = separable
        lines = emb.read_text().splitlines()
        lines[3] = "a1,sa,1.0,oops,0.0,0.0"
        bad = tmp_path / "bad_emb.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--emb", str(bad), "--trials", str(trials)]) == 5
        err = capsys.readouterr().err
        assert "bad_emb.csv:4" in err and "oops" in err

    @pytest.mark.parametrize("row, message", [("a1,sa,1.0,0.0,0.0", "expected 4 values"),
                                              ("a0,sa,1.0,0.0,0.0,0.0", "'a0' repeats")])
    def test_inconsistent_embedding_row_exit_5(self, separable, tmp_path, capsys, row, message):
        emb, trials = separable
        lines = emb.read_text().splitlines()
        lines[3] = row
        bad = tmp_path / "bad_emb.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--emb", str(bad), "--trials", str(trials)]) == 5
        err = capsys.readouterr().err
        assert "bad_emb.csv:4" in err and message in err

    def test_quoted_ids_round_trip(self, tmp_path):
        """Ids holding `,` and `"` are quoted on export, read back whole, and
        quoted in scores.csv as csv.writer quotes them."""
        ids = ['a,1', 'a"2', 'b",3', "b4"]
        r = np.random.default_rng(71)
        store = {utt: (f'spk,{utt[0]}"', r.normal(size=6)) for utt in ids}
        emb = tmp_path / "emb.csv"
        export_embeddings(store, emb)
        back = read_embeddings(emb)
        assert list(back) == sorted(ids)
        for utt, (spk, vec) in store.items():
            assert back[utt][0] == spk
            np.testing.assert_array_equal(back[utt][1], vec)
        trials = tmp_path / "trials.txt"
        trials.write_text('a,1 a"2 target\nb",3 b4 target\na,1 b",3 nontarget\na"2 b4 nontarget\n')
        assert main(["eval", "--emb", str(emb), "--trials", str(trials)]) == 0
        lines = (tmp_path / "scores.csv").read_text().splitlines()
        assert [line.rsplit(",", 1)[0] for line in lines] == [
            "enroll,test,label", '"a,1","a""2",target', '"b"",3",b4,target',
            '"a,1","b"",3",nontarget', '"a""2",b4,nontarget']

    def test_unresolvable_trial_id_exit_5(self, separable, tmp_path, capsys):
        emb, _ = separable
        bad = tmp_path / "bad_trials.txt"
        bad.write_text("a0 ghost target\na0 b0 nontarget\n")
        assert main(["eval", "--emb", str(emb), "--trials", str(bad)]) == 5
        assert "ghost" in capsys.readouterr().err


# sha256 of the full stdout: every target's error, the worst one and PASS
GRADCHECK_SE_STDOUT = "25443d5f18d63e6afff194936c2da7c8d30607e8ff4b9c9e42dbdc835c20e172"
GRADCHECK_DTCF_STDOUT = "0493a4d5554b47b9100d0dc000435213796d568a778afe009d157fe462a9cc7c"


class TestGradcheckCmd:
    def test_se_pass(self, capsys):
        assert main(["gradcheck", "--attention", "se", "--shape", "16x20x10",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert hashlib.sha256(out.encode()).hexdigest() == GRADCHECK_SE_STDOUT

    def test_dtcf_pass(self, capsys):
        assert main(["gradcheck", "--attention", "dtcf", "--shape", "8x12x10",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert hashlib.sha256(out.encode()).hexdigest() == GRADCHECK_DTCF_STDOUT

    def test_mutated_backward_exit_6(self, capsys):
        assert main(["gradcheck", "--attention", "dtcf", "--shape", "4x6x5",
                     "--reduction", "4", "--seed", "0", "--mutate"]) == 6
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize("attention, shape, target", [
        ("se", "4x6x5", "w1"), ("dtcf", "4x5x4", "w3")], ids=["se", "dtcf"])
    def test_all_zero_gradient_exit_6(self, capsys, attention, shape, target):
        # at seed 0 the width-1 bottleneck's relu output is zero, so the target's
        # analytic and numeric gradients are both exactly zero: it was not checked
        assert main(["gradcheck", "--attention", attention, "--shape", shape,
                     "--seed", "0"]) == 6
        captured = capsys.readouterr()
        assert f"d/d{target}: analytic and numeric gradients are all exactly zero" in captured.err
        assert "PASS" not in captured.out

    def test_bad_shape_exit_2(self):
        assert main(["gradcheck", "--attention", "se", "--shape", "16x20"]) == 2

    @pytest.mark.parametrize("shape, named", [("4xAx5", "integers"), ("4x0x5", ">= 1")],
                             ids=["non-integer", "zero"])
    def test_bad_shape_value_exit_2(self, capsys, shape, named):
        assert main(["gradcheck", "--attention", "se", "--shape", shape]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--reduction", "0"], "reduction"),
        (["--reduction", "-2"], "reduction"),
        (["--eps", "0"], "eps"),
    ], ids=["reduction-0", "reduction-neg", "eps-0"])
    def test_bad_reduction_or_eps_exit_2(self, capsys, flags, named):
        assert main(["gradcheck", "--attention", "dtcf", "--shape", "4x6x5",
                     "--seed", "0"] + flags) == 2
        assert named in capsys.readouterr().err


# the exit codes of the dtcf.cli docstring, by the exception a command raises
DOCUMENTED_EXIT_CODES = [
    (ConfigError, 2), (ShapeError, 2), (DomainError, 2),
    (OSError, 3), (FileNotFoundError, 3), (CheckpointError, 3),
    (DivergenceError, 4),
    (DataError, 5),
    (GradCheckError, 6),
]


class TestExitCodes:
    @staticmethod
    def raising(monkeypatch, exc):
        def stub(args):
            raise exc("stub failure")
        monkeypatch.setattr(cli, "cmd_eval", stub)
        return main(["eval", "--emb", "e.csv", "--trials", "t.txt"])

    @pytest.mark.parametrize("exc, code", DOCUMENTED_EXIT_CODES,
                             ids=[e.__name__ for e, _ in DOCUMENTED_EXIT_CODES])
    def test_each_error_maps_to_its_code(self, monkeypatch, capsys, exc, code):
        assert self.raising(monkeypatch, exc) == code
        assert capsys.readouterr().err == "error: stub failure\n"

    def test_table_matches_docstring(self):
        documented = {int(line.split()[0]) for line in cli.__doc__.splitlines()
                      if line.strip()[:1].isdigit()}
        assert set(cli._EXIT_CODES.values()) == documented - {0}

    def test_other_exception_propagates(self, monkeypatch):
        with pytest.raises(KeyError):
            self.raising(monkeypatch, KeyError)


class TestUsage:
    def test_argparse_usage_exit_2(self):
        with pytest.raises(SystemExit) as e:
            main(["train"])            # missing required --out
        assert e.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
