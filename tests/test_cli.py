"""End-to-end CLI tests: subcommands, artifacts, exit codes."""

import hashlib

import numpy as np
import pytest

from dtcf.attention import DTCFBlock, SEBlock, param_count
from dtcf.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from dtcf.cli import main
from dtcf.loss import AAMHead
from dtcf.metrics import compute_eer, compute_min_dcf, read_embeddings
from dtcf.model import BackboneConfig, SpeakerModel
from dtcf.synth import read_manifest, read_trials
from dtcf.train import AdamState, _named_params, save_training_state


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
        expect = sum(param_count(DTCFBlock(c, 8, rng=rng)) - param_count(SEBlock(c, 8, rng=rng))
                     for c in (2, 4, 8, 16))
        assert logged["dtcf"] - logged["se"] == expect

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

    def test_resume_header_config_without_model_exit_3(self, tiny_config, trained,
                                                       tmp_path, capsys):
        for missing, path in incomplete_checkpoints(trained, tmp_path):
            assert main(["train", "--config", str(tiny_config), "--resume", str(path),
                         "--out", str(tmp_path / "o4")]) == 3
            assert f"'{missing}'" in capsys.readouterr().err


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
        scored = score_trials(store, read_trials(trials))
        eer, th = compute_eer([t.score for t in scored], [t.label for t in scored])
        mdcf, thd = compute_min_dcf([t.score for t in scored], [t.label for t in scored])
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

    def test_unresolvable_trial_id_exit_5(self, separable, tmp_path, capsys):
        emb, _ = separable
        bad = tmp_path / "bad_trials.txt"
        bad.write_text("a0 ghost target\na0 b0 nontarget\n")
        assert main(["eval", "--emb", str(emb), "--trials", str(bad)]) == 5
        assert "ghost" in capsys.readouterr().err


class TestGradcheckCmd:
    def test_se_pass(self, capsys):
        assert main(["gradcheck", "--attention", "se", "--shape", "16x20x10",
                     "--seed", "0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_dtcf_pass(self):
        assert main(["gradcheck", "--attention", "dtcf", "--shape", "8x12x10",
                     "--seed", "0"]) == 0

    def test_mutated_backward_exit_6(self, capsys):
        assert main(["gradcheck", "--attention", "dtcf", "--shape", "4x6x5",
                     "--reduction", "4", "--seed", "0", "--mutate"]) == 6
        assert "FAIL" in capsys.readouterr().err

    def test_bad_shape_exit_2(self):
        assert main(["gradcheck", "--attention", "se", "--shape", "16x20"]) == 2


class TestUsage:
    def test_argparse_usage_exit_2(self):
        with pytest.raises(SystemExit) as e:
            main(["train"])            # missing required --out
        assert e.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
