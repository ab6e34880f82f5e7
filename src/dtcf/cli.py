"""Command-line interface: the full pipeline as subcommands.

Exit codes (stable contract):
    0  success
    2  usage or configuration error
    3  I/O error (missing/unreadable/truncated files)
    4  training divergence guard tripped
    5  data mismatch or damaged input (e.g. unresolvable trial id, a WAV
       file cut short, empty or not a WAV file, text that is not UTF-8)
    6  gradient verification failure

``--seed`` (for ``train``: then the config file's ``seed``) falls back to the
DTCF_SEED environment variable, then 0. A negative seed is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .audio import AugmentConfig, fbank, read_wav
from .config import SCHEMA, load_config
from .errors import (CheckpointError, ConfigError, DataError, DivergenceError,
                     DomainError, GradCheckError, ShapeError)
from .layers import cast, draw
from .metrics import (DCFParams, compute_eer, compute_min_dcf, export_embeddings,
                      read_embeddings, score_trials, write_scores)
from .model import ATTENTION_BLOCKS, ATTENTION_KINDS, BackboneConfig
from .synth import read_manifest, read_trials, synth_corpus
from .tensor import Tensor, grad_check, inject_backward_fault
from .train import (Corpus, TrainConfig, Triangular2Schedule, build_model_and_head,
                    load_model, train)

# the exit codes of the module docstring, by the exception that ends a command
_EXIT_CODES = {ConfigError: 2, ShapeError: 2, DomainError: 2, OSError: 3, CheckpointError: 3,
               DivergenceError: 4, DataError: 5, GradCheckError: 6}


def _seed_default(value):
    if value is None:
        text = os.environ.get("DTCF_SEED", "0")
        try:
            value = int(text)
        except ValueError as e:
            raise ConfigError(f"DTCF_SEED must be an integer, got {text!r}") from e
    if value < 0:
        raise ConfigError(f"seed must be >= 0, got {value}")
    return int(value)


def cmd_synth_data(args) -> int:
    summary = synth_corpus(args.speakers, args.utts, _seed_default(args.seed), args.out)
    print(f"speakers={summary.n_speakers} utts={summary.n_utterances} "
          f"trials={summary.n_trials}")
    return 0


def _from_config(cls, cfg: dict, **given):
    """A ``cls`` filled from the config keys named for its fields; an absent key keeps its default."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}, **given)


def cmd_train(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    # a flag wins over the key it is named for; a seed neither gives falls back to DTCF_SEED
    cfg.update((key, val) for key, val in vars(args).items() if key in SCHEMA and val is not None)
    # the library's BackboneConfig builds a plain ResNet; the command trains the paper's model
    cfg.setdefault("attention", "dtcf")
    cfg["seed"] = _seed_default(cfg.get("seed"))
    if not cfg.get("manifest"):
        raise ConfigError("a training manifest is required (config key 'manifest' "
                          "or flag --manifest)")

    backbone = _from_config(BackboneConfig, cfg)
    corpus = Corpus.load(cfg["manifest"], backbone.n_mels)
    seed = None if args.resume else cfg["seed"]     # a resume takes every value from its checkpoint
    model, head = build_model_and_head(backbone, corpus.n_speakers, seed,
                                       **{k: cfg[k] for k in ("scale", "margin") if k in cfg})
    print(f"params={model.param_count()} attention={cfg['attention']} "
          f"speakers={corpus.n_speakers}")

    train_cfg = _from_config(TrainConfig, cfg, augment=_from_config(AugmentConfig, cfg))
    sched = _from_config(Triangular2Schedule, cfg)
    report = train(model, head, corpus, train_cfg, sched, out_dir=args.out,
                   resume_from=args.resume)
    print(f"steps={report.steps} final_accuracy={report.final_accuracy!r} "
          f"log={report.log_path} checkpoint={report.checkpoint_path}")
    return 0


def cmd_extract(args) -> int:
    model = load_model(args.ckpt)
    rows = read_manifest(args.manifest)
    store = {}
    for utt, spk, path in rows:
        if not Path(path).exists():
            raise DataError(f"missing audio file for {utt}: {path}")
        store[utt] = (spk, model.embed(fbank(read_wav(path), model.config.n_mels)))
    export_embeddings(store, args.out)
    print(f"embeddings={len(store)} out={args.out}")
    return 0


def cmd_eval(args) -> int:
    emb = read_embeddings(args.emb)
    trials = read_trials(args.trials)
    store = {utt: vec for utt, (_, vec) in emb.items()}
    scores = score_trials(store, trials)
    target = np.array([label == "target" for _, _, label in trials])
    eer, th_eer = compute_eer(scores, target)
    mdcf, th_dcf = compute_min_dcf(scores, target, DCFParams())
    scores_path = args.scores or (Path(args.emb).parent / "scores.csv")
    write_scores(scores_path, trials, scores)
    print(f"eer={eer!r} minDcf={mdcf!r} threshold_eer={th_eer!r} threshold_dcf={th_dcf!r}")
    return 0


def _parse_shape(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ConfigError(f"--shape must look like CxTxF, got {text!r}")
    try:
        c, t, f = (int(p) for p in parts)
    except ValueError as e:
        raise ConfigError(f"--shape must be integers, got {text!r}") from e
    if min(c, t, f) < 1:
        raise ConfigError("--shape dims must be >= 1")
    return c, t, f


def cmd_gradcheck(args) -> int:
    c, t, f = _parse_shape(args.shape)
    seed = _seed_default(args.seed)
    rng = np.random.default_rng(seed)
    kind = args.attention
    block = draw(cast(ATTENTION_BLOCKS[kind](c, args.reduction), np.float64), rng)
    x = Tensor(rng.normal(size=(1, c, t, f)))

    def scalar(_ignored):
        out = block.apply(x)
        if args.mutate:
            out = inject_backward_fault(out)
        return out.sum()

    targets = [("input", x)] + block.named_params()
    worst_name, worst_err = "", 0.0
    for name, tensor_ in targets:
        try:
            err = grad_check(scalar, tensor_, eps=args.eps)
        except GradCheckError as e:
            raise GradCheckError(f"{kind} {c}x{t}x{f} d/d{name}: {e}") from e
        print(f"{kind} {c}x{t}x{f} d/d{name}: max_rel_error={err!r}")
        if err > worst_err:
            worst_name, worst_err = name, err
    print(f"worst={worst_name} max_rel_error={worst_err!r}")
    if worst_err < 1e-6:
        print("gradcheck: PASS")
        return 0
    print(f"gradcheck: FAIL (worst coordinate in '{worst_name}')", file=sys.stderr)
    return 6


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dtcf",
        description="Speaker-verification toolkit: duality temporal-channel-"
                    "frequency attention in a quarter-channel ResNet34.",
        epilog="Seeds default to the DTCF_SEED environment variable, then 0.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth-data", help="generate a deterministic synthetic corpus")
    s.add_argument("--speakers", type=int, required=True, help="number of speakers (>= 2)")
    s.add_argument("--utts", type=int, required=True, help="utterances per speaker (>= 4)")
    s.add_argument("--seed", type=int, default=None, help="corpus seed")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(fn=cmd_synth_data)

    s = sub.add_parser("train", help="train a speaker embedding model")
    s.add_argument("--config", default=None, help="key = value config file")
    s.add_argument("--attention", choices=ATTENTION_KINDS, default=None,
                   help="per-block attention kind (overrides config)")
    s.add_argument("--manifest", default=None, help="training manifest CSV (overrides config)")
    s.add_argument("--steps", type=int, default=None, help="optimizer steps (overrides config)")
    s.add_argument("--batch-size", dest="batch_size", type=int, default=None,
                   help="batch size (overrides config)")
    s.add_argument("--crop", type=int, default=None, help="crop frames (overrides config)")
    s.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
    s.add_argument("--resume", default=None, help="checkpoint to resume from")
    s.add_argument("--out", required=True, help="directory for checkpoint and log")
    s.set_defaults(fn=cmd_train)

    s = sub.add_parser("extract", help="extract embeddings for a manifest")
    s.add_argument("--ckpt", required=True, help="checkpoint file")
    s.add_argument("--manifest", required=True, help="manifest CSV")
    s.add_argument("--out", required=True, help="output embedding CSV")
    s.set_defaults(fn=cmd_extract)

    s = sub.add_parser("eval", help="score trials and report EER / minDCF")
    s.add_argument("--emb", required=True, help="embedding CSV from extract")
    s.add_argument("--trials", required=True, help="trial list file")
    s.add_argument("--scores", default=None,
                   help="score CSV path (default: scores.csv next to --emb)")
    s.set_defaults(fn=cmd_eval)

    s = sub.add_parser("gradcheck", help="verify attention-block gradients at 64-bit")
    s.add_argument("--attention", choices=list(ATTENTION_BLOCKS), required=True)
    s.add_argument("--shape", required=True, help="feature map shape CxTxF, e.g. 8x12x10")
    s.add_argument("--reduction", type=int, default=BackboneConfig.reduction,
                   help="bottleneck reduction r")
    s.add_argument("--seed", type=int, default=None)
    # 1e-4 balances truncation against roundoff for block-sized sums
    s.add_argument("--eps", type=float, default=1e-4, help="finite-difference step")
    s.add_argument("--mutate", action="store_true",
                   help="self-test: corrupt one backward rule; the check must fail")
    s.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(e, cls))


if __name__ == "__main__":
    sys.exit(main())
