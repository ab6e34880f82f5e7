"""Training loop: Adam with decoupled weight decay, triangular2 cyclical LR.

The reference path is sequential and fully deterministic given the seed: one
Generator drives batch order, crop starts, and feature masking in a fixed
per-step order, and its state is checkpointed so a resumed run reproduces
the original loss trajectory bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .audio import AugmentConfig, fbank, read_wav, spec_augment
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import CheckpointError, ConfigError, DataError, DivergenceError
from .loss import AAMHead, ce_loss_batch
from .model import BackboneConfig, SpeakerModel
from .synth import read_manifest
from .tensor import Tensor, zero_grads

__all__ = ["Triangular2Schedule", "lr_at", "AdamState", "adam_step",
           "TrainConfig", "Corpus", "TrainReport", "train",
           "save_training_state", "load_training_state", "build_model_and_head"]

_DIVERGENCE_CAP = 1e4


# -- cyclical learning rate ----------------------------------------------------

@dataclass(frozen=True)
class Triangular2Schedule:
    base_lr: float = 1e-8
    max_lr: float = 1e-3
    step_size: int = 500

    def __post_init__(self):
        if self.base_lr >= self.max_lr or self.step_size < 1:
            raise ConfigError("require base_lr < max_lr and step_size >= 1")


def lr_at(sched: Triangular2Schedule, iteration: int) -> float:
    """Triangular wave between base and max whose peak halves every cycle."""
    if iteration < 0:
        raise ConfigError("iteration must be >= 0")
    cycle = math.floor(1 + iteration / (2 * sched.step_size))
    x = abs(iteration / sched.step_size - 2 * cycle + 1)
    return sched.base_lr + (sched.max_lr - sched.base_lr) * max(0.0, 1 - x) / (2 ** (cycle - 1))


# -- Adam ----------------------------------------------------------------------

class AdamState:
    """First/second moment buffers per named parameter plus the step count."""

    def __init__(self, named_params, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step = 0
        self.m = {name: np.zeros_like(p.data) for name, p in named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in named_params}


def adam_step(named_params, state: AdamState, lr: float, weight_decay: float) -> None:
    """Bias-corrected update; decay is decoupled (applied to p, not the grad)."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1 - b1 ** state.step
    c2 = 1 - b2 ** state.step
    for name, p in named_params:
        g = p.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient in parameter '{name}'")
        if weight_decay:
            p.data -= lr * weight_decay * p.data
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


# -- data ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    steps: int = 2000
    crop: int = 200
    weight_decay: float = 2e-5
    seed: int = 0
    checkpoint_every: int = 500
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (batchnorm statistics)")
        if self.steps < 1 or self.crop < 8 or self.checkpoint_every < 1:
            raise ConfigError("steps >= 1, crop >= 8, checkpoint_every >= 1")


class Corpus:
    """Manifest-backed training corpus with cached fbank features."""

    def __init__(self, rows: list[tuple[str, str, Path]]):
        self.rows = rows
        self.speakers = sorted({spk for _, spk, _ in rows})
        counts = {s: 0 for s in self.speakers}
        for _, spk, _ in rows:
            counts[spk] += 1
        thin = [s for s, c in counts.items() if c < 2]
        if thin:
            raise DataError(f"speakers with fewer than 2 utterances: {thin}")
        self._label = {s: i for i, s in enumerate(self.speakers)}
        self.labels = np.array([self._label[spk] for _, spk, _ in rows])
        self._cache: dict[int, np.ndarray] = {}

    @classmethod
    def load(cls, manifest_path) -> "Corpus":
        return cls(read_manifest(manifest_path))

    def __len__(self):
        return len(self.rows)

    @property
    def n_speakers(self) -> int:
        return len(self.speakers)

    def features(self, index: int) -> np.ndarray:
        if index not in self._cache:
            self._cache[index] = fbank(read_wav(self.rows[index][2]))
        return self._cache[index]


def _crop_features(feats: np.ndarray, crop: int, rng: np.random.Generator) -> np.ndarray:
    n = feats.shape[0]
    if n >= crop:
        start = int(rng.integers(0, n - crop + 1))
        return feats[start:start + crop]
    reps = int(np.ceil(crop / n))
    return np.concatenate([feats] * reps, axis=0)[:crop]   # wrap-pad short utterances


# -- checkpoint plumbing ---------------------------------------------------------

def _state_tensors(model: SpeakerModel, head: AAMHead, opt: AdamState) -> dict:
    tensors = {}
    for name, p in model.named_params():
        tensors[f"model.{name}"] = p.data
    for name, buf in model.named_buffers():
        tensors[f"model.{name}"] = buf
    tensors["head.weights"] = head.weights.data
    for name, arr in opt.m.items():
        tensors[f"adam.m.{name}"] = arr
    for name, arr in opt.v.items():
        tensors[f"adam.v.{name}"] = arr
    return tensors


def save_training_state(path, model: SpeakerModel, head: AAMHead, opt: AdamState,
                        extra: dict | None = None) -> None:
    config = {
        "backbone": model.config.to_dict(),
        "head": {"n_classes": head.n_classes, "scale": head.scale,
                 "margin": head.margin},
    }
    base_extra = {"step": opt.step}
    if extra:
        base_extra.update(extra)
    save_checkpoint(path, config, _state_tensors(model, head, opt), base_extra)


def build_model_and_head(config: dict, seed: int = 0):
    backbone = BackboneConfig.from_dict(config["backbone"])
    model = SpeakerModel(backbone, seed=seed)
    h = config["head"]
    head = AAMHead(h["n_classes"], backbone.emb_dim, scale=h["scale"],
                   margin=h["margin"], rng=np.random.default_rng(seed + 1))
    return model, head


def _check_config(config, path) -> None:
    """Raise CheckpointError unless the header config has every model and head field."""
    wanted = {"backbone": [f.name for f in fields(BackboneConfig)],
              "head": ["n_classes", "scale", "margin"]}
    for key, names in wanted.items():
        entry = config.get(key) if isinstance(config, dict) else None
        if not isinstance(entry, dict):
            raise CheckpointError(f"{path}: checkpoint config has no '{key}' entry")
        for name in names:
            if name not in entry:
                raise CheckpointError(f"{path}: checkpoint config '{key}' has no '{name}' field")


def load_training_state(path):
    """Rebuild (model, head, opt, extra) from a checkpoint file."""
    config, tensors, extra = load_checkpoint(path)
    _check_config(config, path)
    model, head = build_model_and_head(config)
    opt = AdamState(_named_params(model, head))
    _restore_state(model, head, opt, tensors, extra, path)
    return model, head, opt, extra


def _restore_state(model: SpeakerModel, head: AAMHead, opt: AdamState,
                   tensors: dict, extra: dict, path) -> None:
    """Restore parameters, batchnorm buffers, Adam moments and step from a checkpoint.

    Every tensor is found and shape-checked before any is restored, so a
    checkpoint that does not fit leaves model, head and optimizer untouched.
    Parameters and Adam moments take ownership of the arrays in ``tensors``
    (fresh from ``load_checkpoint``) instead of copying them; the caller must
    not use those arrays afterwards.
    """
    named = _named_params(model, head)
    wanted = [(n, p.shape) for n, p in named]
    wanted += [(f"adam.{k}.{n}", p.shape) for n, p in named for k in ("m", "v")]
    wanted += [(f"model.{n}", buf.shape) for n, buf in model.named_buffers()]
    for name, shape in wanted:
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor '{name}'")
        if tuple(tensors[name].shape) != tuple(shape):
            raise CheckpointError(f"{path}: tensor '{name}' has shape "
                                  f"{tuple(tensors[name].shape)}, expected {tuple(shape)}")
    for name, p in named:
        p.data = tensors[name].astype(p.data.dtype, copy=False)
        opt.m[name] = tensors[f"adam.m.{name}"]
        opt.v[name] = tensors[f"adam.v.{name}"]
    model.load_buffers({n: tensors[f"model.{n}"] for n, _ in model.named_buffers()})
    opt.step = int(extra.get("step", 0))


def _named_params(model: SpeakerModel, head: AAMHead):
    return ([(f"model.{n}", p) for n, p in model.named_params()]
            + [(f"head.{n}", p) for n, p in head.params()])


# -- the loop --------------------------------------------------------------------

@dataclass
class TrainReport:
    steps: int
    final_accuracy: float
    param_count: int
    log_rows: list[tuple[int, float, float, float]]
    log_path: Path | None
    checkpoint_path: Path | None


def _log_line(step: int, lr: float, loss: float, acc: float) -> str:
    return f"{step},{lr!r},{loss!r},{acc!r}"


def train(model: SpeakerModel, head: AAMHead, corpus: Corpus, cfg: TrainConfig,
          sched: Triangular2Schedule, out_dir=None,
          resume_from=None) -> TrainReport:
    """Run the optimization loop; emits log rows `step,lr,loss,acc`.

    With ``resume_from`` the model/head/optimizer/rng are restored and the
    loop continues from the saved step to ``cfg.steps``, reproducing the
    un-resumed trajectory exactly.
    """
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.bin" if out_dir is not None else None
    log_path = out_dir / "train_log.csv" if out_dir is not None else None

    named = _named_params(model, head)
    params = [p for _, p in named]
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(corpus))
    cursor = 0
    opt = AdamState(named)

    if resume_from is not None:
        config, tensors, extra = load_checkpoint(resume_from)
        _check_config(config, resume_from)
        if (BackboneConfig.from_dict(config["backbone"]) != model.config
                or config["head"]["n_classes"] != head.n_classes):
            raise CheckpointError(f"{resume_from}: checkpoint config does not match")
        for key in ("rng_state", "order", "cursor"):
            if key not in extra:
                raise CheckpointError(f"{resume_from}: no training-loop state "
                                      f"(missing '{key}'); cannot resume from it")
        _restore_state(model, head, opt, tensors, extra, resume_from)
        rng.bit_generator.state = extra["rng_state"]
        order = np.array(extra["order"])
        cursor = int(extra["cursor"])

    def snapshot(path):
        save_training_state(path, model, head, opt, extra={
            "rng_state": rng.bit_generator.state,
            "order": [int(i) for i in order],
            "cursor": int(cursor),
            "speakers": corpus.speakers,
        })

    log_rows: list[tuple[int, float, float, float]] = []
    log_lines: list[str] = []
    start_step = opt.step
    for step in range(start_step + 1, cfg.steps + 1):
        if cursor + cfg.batch_size > len(order):
            order = rng.permutation(len(corpus))
            cursor = 0
        batch_idx = order[cursor:cursor + cfg.batch_size]
        cursor += cfg.batch_size

        crops = []
        for idx in batch_idx:
            crop = _crop_features(corpus.features(int(idx)), cfg.crop, rng)
            crops.append(spec_augment(crop, cfg.augment, rng))
        batch = Tensor(np.stack(crops).astype(np.float32))
        labels = corpus.labels[batch_idx]

        zero_grads(params)
        emb = model.forward(batch, training=True)
        logits = head.logits_batch(emb, labels)
        lv = ce_loss_batch(logits, labels)
        loss = float(lv.loss.data)
        if not np.isfinite(loss) or loss > _DIVERGENCE_CAP:
            raise DivergenceError(f"loss {loss} at step {step} tripped the divergence guard")
        lv.loss.backward()

        lr = lr_at(sched, step - 1)
        adam_step(named, opt, lr, cfg.weight_decay)
        acc = float((np.argmax(logits.data, axis=1) == labels).mean())
        log_rows.append((step, lr, loss, acc))
        log_lines.append(_log_line(step, lr, loss, acc))

        if ckpt_path is not None and step % cfg.checkpoint_every == 0:
            snapshot(ckpt_path)

    if ckpt_path is not None:
        snapshot(ckpt_path)
    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as f:
            f.write("step,lr,loss,acc\n")
            for line in log_lines:
                f.write(line + "\n")

    tail = log_rows[-min(100, len(log_rows)):]
    final_acc = float(np.mean([r[3] for r in tail])) if tail else 0.0
    return TrainReport(steps=len(log_rows), final_accuracy=final_acc,
                       param_count=model.param_count(), log_rows=log_rows,
                       log_path=log_path, checkpoint_path=ckpt_path)
