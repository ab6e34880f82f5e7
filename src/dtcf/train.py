"""Training loop: Adam with decoupled weight decay, triangular2 cyclical LR.

The reference path is sequential and fully deterministic given the seed: one
Generator drives batch order, crop starts, and feature masking in a fixed
per-step order, and its state is checkpointed so a resumed run reproduces
the original loss trajectory bit for bit.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import AugmentConfig, fbank, read_wav, spec_augment
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import CheckpointError, ConfigError, DataError, DivergenceError, atomic_write
from .loss import AAMHead, ce_loss_batch
from .model import BackboneConfig, SpeakerModel
from .synth import read_manifest
from .tensor import Tensor, zero_grads

__all__ = ["Triangular2Schedule", "lr_at", "AdamState", "adam_step",
           "TrainConfig", "Corpus", "TrainReport", "train",
           "save_training_state", "load_training_state", "load_model", "build_model_and_head"]

_DIVERGENCE_CAP = 1e4


# -- cyclical learning rate ----------------------------------------------------

@dataclass(frozen=True)
class Triangular2Schedule:
    base_lr: float = 1e-8
    max_lr: float = 1e-3
    step_size: int = 500

    def __post_init__(self):
        if not (0 <= self.base_lr < self.max_lr < math.inf) or self.step_size < 1:
            raise ConfigError("require finite 0 <= base_lr < max_lr and step_size >= 1")


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

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named_params):
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
        if self.steps < 1 or self.crop < SpeakerModel.MIN_FRAMES or self.checkpoint_every < 1:
            raise ConfigError(f"steps >= 1, crop >= {SpeakerModel.MIN_FRAMES}, checkpoint_every >= 1")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.augment.time_mask_max >= self.crop:
            raise ConfigError(f"time_mask_max {self.augment.time_mask_max} must be smaller "
                              f"than crop {self.crop}")


class Corpus:
    """Manifest-backed training corpus with cached ``n_mels``-bin fbank features."""

    def __init__(self, rows: list[tuple[str, str, Path]], n_mels: int):
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
        self._n_mels = n_mels
        self._cache: dict[int, np.ndarray] = {}

    @classmethod
    def load(cls, manifest_path, n_mels: int = 80) -> "Corpus":
        return cls(read_manifest(manifest_path), n_mels)

    def __len__(self):
        return len(self.rows)

    @property
    def n_speakers(self) -> int:
        return len(self.speakers)

    def features(self, index: int) -> np.ndarray:
        if index not in self._cache:
            self._cache[index] = fbank(read_wav(self.rows[index][2]), self._n_mels)
        return self._cache[index]


def _crop_features(feats: np.ndarray, crop: int, rng: np.random.Generator) -> np.ndarray:
    n = feats.shape[0]
    if n >= crop:
        start = int(rng.integers(0, n - crop + 1))
        return feats[start:start + crop]
    reps = int(np.ceil(crop / n))
    return np.concatenate([feats] * reps, axis=0)[:crop]   # wrap-pad short utterances


# -- checkpoint plumbing ---------------------------------------------------------

# the AAMHead attributes a checkpoint header records, named as build_model_and_head takes them
_HEAD_FIELDS = ("n_classes", "scale", "margin")


def _state_tensors(model: SpeakerModel, head: AAMHead | None = None,
                   opt: AdamState | None = None) -> dict:
    """Every array a checkpoint holds, by name: what save writes and a load fills in place.

    Given the model alone, its ``model.*`` entries: all that ``load_model`` reads.
    """
    tensors = {name: p.data for name, p in _named_params(model, head)}
    tensors.update((f"model.{n}", buf) for n, buf in model.named_buffers())
    if opt is not None:
        for kind, moments in (("m", opt.m), ("v", opt.v)):
            tensors.update((f"adam.{kind}.{n}", arr) for n, arr in moments.items())
    return tensors


def save_training_state(path, model: SpeakerModel, head: AAMHead, opt: AdamState,
                        extra: dict | None = None) -> None:
    config = {"backbone": model.config.to_dict(),
              "head": {name: getattr(head, name) for name in _HEAD_FIELDS}}
    save_checkpoint(path, config, _state_tensors(model, head, opt),
                    {"step": opt.step, **(extra or {})})


def build_model_and_head(backbone: BackboneConfig, n_classes: int, seed: int | None = 0, **head):
    """The model, drawn from ``seed``, and its AAMHead, drawn from ``seed + 1`` and given
    ``head``; with ``seed=None`` both are left undrawn for a checkpoint to fill."""
    rng = None if seed is None else np.random.default_rng(seed + 1)
    return SpeakerModel(backbone, seed=seed), AAMHead(n_classes, backbone.emb_dim, **head, rng=rng)


def _read_state(path, config: dict, extra: dict):
    """(backbone config, head fields, step) of a checkpoint header's config and extra.

    A missing or malformed entry or field, head fields no AAMHead takes, and a
    step that is no count raise CheckpointError naming the key.
    """
    with _malformed(path, "config 'backbone'", config.get("backbone")):
        backbone = BackboneConfig.from_dict(config["backbone"])
    with _malformed(path, "config 'head'", config.get("head")):
        head_fields = {name: config["head"][name] for name in _HEAD_FIELDS}
        AAMHead.check(**head_fields)
    step = extra.get("step", 0)
    if type(step) is not int or step < 0:
        raise CheckpointError(f"{path}: checkpoint 'step' {step!r} is not a step count")
    return backbone, head_fields, step


@contextlib.contextmanager
def _malformed(path, key: str, value):
    """Re-raise an error met while using ``value``, the header's ``key``, as a CheckpointError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint {key}: {e} in {value!r}") from e


def load_training_state(path):
    """Rebuild (model, head, opt, extra) from a checkpoint file; ``extra`` comes back as
    stored, unchecked. The first three are built from the header, undrawn, and each entry
    is read straight into the array of theirs that keeps it."""
    state = []

    def into(config, extra):
        backbone, head_fields, step = _read_state(path, config, extra)
        with _malformed(path, "config 'backbone' and 'head'", (backbone, head_fields)):
            model, head = build_model_and_head(backbone, seed=None, **head_fields)
        opt = AdamState(_named_params(model, head))
        opt.step = step
        state.extend((model, head, opt))
        return _state_tensors(model, head, opt)

    _, _, extra = load_checkpoint(path, into)
    return (*state, extra)


def load_model(path) -> SpeakerModel:
    """The model of a checkpoint file, built undrawn from its header; only ``model.*`` entries are read.
    It first sets the process-wide heap thresholds as ``train()`` does (``_keep_freed_heap``),
    so each later ``embed`` reuses the heap the previous one freed."""
    _keep_freed_heap()
    models = []

    def into(config, extra):
        backbone, _, _ = _read_state(path, config, extra)
        with _malformed(path, "config 'backbone'", backbone):
            models.append(SpeakerModel(backbone, seed=None))
        return _state_tensors(models[0])

    load_checkpoint(path, into)
    return models[0]


def _named_params(model: SpeakerModel, head: AAMHead | None = None):
    named = [(f"model.{n}", p) for n, p in model.named_params()]
    if head is not None:
        named += [(f"head.{n}", p) for n, p in head.named_params()]
    return named


# -- the loop --------------------------------------------------------------------

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3      # glibc's mallopt parameters


def _keep_freed_heap() -> None:
    """Let each step reuse the heap the previous step freed, where libc has ``mallopt``.

    ``backward`` frees the graph as it walks it, and the next step allocates
    the same arrays again. Under glibc's defaults large arrays are mmapped and
    the heap top is trimmed, so each step would fault its pages back in. Here
    arrays up to 32 MiB (glibc's upper limit) come from the heap, and the heap
    keeps up to 1 GiB free at its top. Both are set because setting either
    one switches off glibc's dynamic mmap threshold. The settings hold for the
    whole process and outlive ``train()``: whatever runs after it in the same
    process allocates under them and keeps an untrimmed heap.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


@dataclass
class TrainReport:
    steps: int
    final_accuracy: float
    log_rows: list[tuple[int, float, float, float]]
    log_path: Path
    checkpoint_path: Path


class _Loop:
    """A run's Generator, epoch order and cursor: ``state`` writes them, ``restore`` reads them."""

    def __init__(self, corpus: Corpus, cfg: TrainConfig):
        self.corpus, self.cfg = corpus, cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.order, self.cursor = self.rng.permutation(len(corpus)), 0

    def state(self) -> dict:
        return {"rng_state": self.rng.bit_generator.state, "order": self.order.tolist(),
                "cursor": int(self.cursor), "speakers": self.corpus.speakers}

    def restore(self, path, extra: dict) -> None:
        """Take the loop state in checkpoint ``path``'s ``extra``, or raise CheckpointError."""
        n = len(self.corpus)
        for key in ("rng_state", "order", "cursor", "speakers"):
            if key not in extra:
                raise CheckpointError(f"{path}: no training-loop state "
                                      f"(missing '{key}'); cannot resume from it")
        for key in ("speakers", "order"):
            if not isinstance(extra[key], list):
                raise CheckpointError(f"{path}: checkpoint '{key}' is not a list")
        speakers, order, cursor = extra["speakers"], extra["order"], extra["cursor"]
        if speakers != self.corpus.speakers or len(order) != n:
            raise CheckpointError(f"{path}: checkpoint corpus ({len(speakers)} speakers, "
                                  f"{len(order)} utterances) does not match this corpus "
                                  f"({self.corpus.n_speakers} speakers, {n} utterances)")
        if not all(type(i) is int for i in order) or sorted(order) != list(range(n)):
            raise CheckpointError(f"{path}: checkpoint 'order' is not a permutation "
                                  f"of the corpus's {n} utterances")
        if type(cursor) is not int or not 0 <= cursor <= n:
            raise CheckpointError(f"{path}: checkpoint 'cursor' {cursor!r} is not in [0, {n}]")
        with _malformed(path, "'rng_state'", extra["rng_state"]):
            self.rng.bit_generator.state = extra["rng_state"]
        self.order, self.cursor = np.array(order), cursor

    def batch(self) -> tuple[Tensor, np.ndarray]:
        """The next batch and its labels; draws a spent epoch's new order, then crops and masks."""
        cfg = self.cfg
        if self.cursor + cfg.batch_size > len(self.order):
            self.order, self.cursor = self.rng.permutation(len(self.corpus)), 0
        batch_idx = self.order[self.cursor:self.cursor + cfg.batch_size]
        self.cursor += cfg.batch_size
        crops = []
        for idx in batch_idx:
            crop = _crop_features(self.corpus.features(int(idx)), cfg.crop, self.rng)
            crops.append(spec_augment(crop, cfg.augment, self.rng))
        return Tensor(np.stack(crops)), self.corpus.labels[batch_idx]


def train(model: SpeakerModel, head: AAMHead, corpus: Corpus, cfg: TrainConfig,
          sched: Triangular2Schedule, out_dir, resume_from=None) -> TrainReport:
    """Run the optimization loop; writes a checkpoint and the log `step,lr,loss,acc` to ``out_dir``.

    With ``resume_from`` the model, head, optimizer and loop state (``_Loop``) are
    restored and the loop runs on from the saved step to ``cfg.steps``, reproducing the
    un-resumed trajectory exactly. A checkpoint at or past ``cfg.steps``, of another
    backbone or head, or whose loop state ``_Loop.restore`` refuses is refused before
    anything is restored or written, as are a batch larger than the corpus and a
    ``freq_mask_max`` of at least the model's ``n_mels``. Every row's features are read
    before ``out_dir`` is made, so a damaged or missing WAV file raises before step 1
    and makes no directory. Each checkpoint entry is read straight into the array of
    the model, head or optimizer that keeps it; a file that shrinks during that read
    raises CheckpointError and may leave them partly filled. A checkpoint is saved
    every ``cfg.checkpoint_every`` steps and after the last.

    Under glibc it first sets the mmap threshold to 32 MiB and the trim
    threshold to 1 GiB for the whole process (``_keep_freed_heap``), and both
    outlive the call. Code that allocates afterwards in the same process takes
    arrays up to 32 MiB from the heap, and what it frees is not returned to
    the system, so its largest temporaries stay resident until the process exits.
    """
    if cfg.batch_size > len(corpus):
        raise ConfigError(f"batch_size {cfg.batch_size} is larger than the corpus's "
                          f"{len(corpus)} utterances")
    if cfg.augment.freq_mask_max >= model.config.n_mels:
        raise ConfigError(f"freq_mask_max {cfg.augment.freq_mask_max} must be smaller "
                          f"than n_mels {model.config.n_mels}")
    _keep_freed_heap()
    named = _named_params(model, head)
    params = [p for _, p in named]
    loop = _Loop(corpus, cfg)
    opt = AdamState(named)

    if resume_from is not None:
        def into(config, extra):
            backbone, head_fields, saved_step = _read_state(resume_from, config, extra)
            if backbone != model.config:
                raise CheckpointError(f"{resume_from}: checkpoint config does not match")
            for name, saved in head_fields.items():
                if saved != getattr(head, name):
                    raise CheckpointError(f"{resume_from}: checkpoint head {name} {saved!r} "
                                          f"does not match {getattr(head, name)!r}")
            loop.restore(resume_from, extra)
            if cfg.steps <= saved_step:
                raise ConfigError(f"{resume_from}: checkpoint is at step {saved_step}, "
                                  f"so steps {cfg.steps} leaves none to run")
            opt.step = saved_step
            return _state_tensors(model, head, opt)

        load_checkpoint(resume_from, into)

    for index in range(len(corpus)):      # a bad WAV file stops the run before a file is written
        corpus.features(index)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.bin"
    log_path = out_dir / "train_log.csv"

    log_rows: list[tuple[int, float, float, float]] = []
    for step in range(opt.step + 1, cfg.steps + 1):
        batch, labels = loop.batch()
        zero_grads(params)
        emb = model.forward(batch, training=True)
        logits = head.logits_batch(emb, labels)
        loss_t = ce_loss_batch(logits, labels)
        loss = float(loss_t.data)
        if not np.isfinite(loss) or loss > _DIVERGENCE_CAP:
            raise DivergenceError(f"loss {loss} at step {step} tripped the divergence guard")
        loss_t.backward()

        lr = lr_at(sched, step - 1)
        adam_step(named, opt, lr, cfg.weight_decay)
        acc = float((np.argmax(logits.data, axis=1) == labels).mean())
        log_rows.append((step, lr, loss, acc))

        if step % cfg.checkpoint_every == 0 or step == cfg.steps:
            save_training_state(ckpt_path, model, head, opt, extra=loop.state())

    with atomic_write(log_path, "w", encoding="utf-8") as f:
        f.write("step,lr,loss,acc\n")
        for row in log_rows:
            f.write(",".join(map(repr, row)) + "\n")

    final_acc = float(np.mean([r[3] for r in log_rows[-100:]]))
    return TrainReport(steps=len(log_rows), final_accuracy=final_acc, log_rows=log_rows,
                       log_path=log_path, checkpoint_path=ckpt_path)
