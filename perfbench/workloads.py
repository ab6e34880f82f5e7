"""The three benchmark workloads: seeded inputs, a timed closed loop, output checks.

Each workload has one caller that sends its next op only after the previous
one returned. ``setup`` builds everything a user would have before the first
op (inputs, caches, model, warm-up) in a fresh directory; ``run`` times ops for
at least the given number of seconds; ``check`` compares the outputs of a run
with references kept in the benchmark and returns the number of failed ops.
Only public names of `dtcf` are called, through their modules, so that the
tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dtcf.audio
import dtcf.checkpoint
import dtcf.cli
import dtcf.metrics
import dtcf.synth
import dtcf.train
from dtcf.loss import AAMHead
from dtcf.model import BackboneConfig, SpeakerModel

import reference
from tracing import Tracer, now, patch


class Calibration:
    """Fixed kernels timed to measure the speed the host gives this process.

    The host's speed drifts by up to 1.5x for minutes at a time, and not
    every kind of work slows alike: interpreter loops and memory-bound scans
    slow more than BLAS products. Each workload names the kernels that resemble
    its ops; timing them right before each op measures the speed that op got,
    so that op times can be scaled to the speed at which the kernels take
    their reference times.
    """

    REFERENCE_S = {"interpreter": 0.003, "memory": 0.004, "blas": 0.003, "elementwise": 0.006}

    def __init__(self, kinds: tuple[str, ...]):
        rng = np.random.default_rng(0)
        self._scores = rng.random(4000)
        self._thresholds = rng.random(800)
        self._weights = rng.random((64, 576)).astype(np.float32)
        self._cols = rng.random((576, 1500)).astype(np.float32)
        self._fmap = rng.random((64, 20000)).astype(np.float32)
        self._kernels = [getattr(self, f"_{kind}") for kind in kinds]
        self.reference_s = sum(self.REFERENCE_S[kind] for kind in kinds)

    def _interpreter(self) -> None:
        acc = 0
        for k in range(50_000):
            acc += k * k

    def _memory(self) -> None:
        for _ in range(2):
            (self._scores[None, :] >= self._thresholds[:, None]).mean(axis=1)

    def _blas(self) -> None:
        for _ in range(3):
            self._weights @ self._cols

    def _elementwise(self) -> None:
        for _ in range(3):
            np.maximum(self._fmap * 1.1 + 0.5, 0).sum(axis=1)

    def __call__(self) -> float:
        start = now()
        for kernel in self._kernels:
            kernel()
        return now() - start

    def scale(self, samples: list[float]) -> float:
        """Factor from times measured at the speed of ``samples`` to reference speed."""
        return self.reference_s / statistics.median(samples)


@dataclass
class Phase:
    """What one timed phase did."""
    op_s: list[float] = field(default_factory=list)   # duration of each op
    calib_s: list[float] = field(default_factory=list)  # calibration before each op
    busy_s: float = 0.0      # time inside the program, ops and end-of-phase work
    items: int = 0           # samples, utterances or trials done
    attempted: int = 0
    failed: int = 0          # ops that raised; output checks add to this later
    outputs: list = field(default_factory=list)


class OpClock:
    """Times ops, calibrates before each, and tells the tracer, if there is
    one, where each op starts and ends."""

    def __init__(self, phase: Phase, tracer: Tracer | None, calibration: Calibration):
        self.phase, self.tracer, self._start = phase, tracer, 0.0
        self.calibration = calibration

    def begin(self, key=None) -> None:
        self.phase.calib_s.append(self.calibration())
        if self.tracer is not None:
            self.tracer.begin_op(key)
        self._start = now()

    def end(self) -> None:
        self.phase.op_s.append(now() - self._start)
        if self.tracer is not None:
            self.tracer.end_op()

    @contextlib.contextmanager
    def op(self, key=None):
        self.phase.attempted += 1
        self.begin(key)
        try:
            yield
        except Exception:
            self.phase.failed += 1
            traceback.print_exc()
        finally:
            self.end()


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# -- train-toy-dtcf ---------------------------------------------------------------

@dataclass
class TrainState:
    workdir: Path
    corpus: dtcf.train.Corpus
    warmup_rows: list
    step_s: float


class TrainToy:
    """`dtcf.train.train` with the README toy recipe on a synthetic corpus.

    The only workload with backward, train-mode batchnorm, AAM + CE and Adam.
    Channels are few and positions many, so im2col/col2im weigh more than GEMM.
    An op is one optimizer step; its end is the return of `adam_step`.
    """

    name = "train-toy-dtcf"
    item = "samples"
    calibration = ("interpreter", "blas", "elementwise")
    warmup_steps = 3         # also the prefix that must reproduce bit for bit

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.speakers, self.utts = (2, 4) if smoke else (10, 20)
        self.batch, self.crop = (4, 40) if smoke else (16, 120)
        self.checkpoint_every = 2 if smoke else 10
        self.backbone = BackboneConfig(widths=(4, 8, 16, 32), blocks=(1, 1, 1, 1),
                                       attention="dtcf")
        self.sched = dtcf.train.Triangular2Schedule(base_lr=1e-8, max_lr=1e-3, step_size=125)

    def _config(self, steps: int) -> dtcf.train.TrainConfig:
        return dtcf.train.TrainConfig(batch_size=self.batch, steps=steps, crop=self.crop,
                                      seed=self.seed, checkpoint_every=self.checkpoint_every)

    def _build(self, n_speakers: int, tracer: Tracer | None = None):
        model = SpeakerModel(self.backbone, seed=self.seed)
        head = AAMHead(n_speakers, self.backbone.emb_dim, rng=np.random.default_rng(self.seed + 1))
        if tracer is not None:
            tracer.label_model(model)
        return model, head

    def setup(self, workdir: Path, tracer: Tracer | None) -> TrainState:
        with _span(tracer, "synth.corpus"):
            summary = dtcf.synth.synth_corpus(self.speakers, self.utts, self.seed, workdir / "corpus")
        corpus = dtcf.train.Corpus.load(summary.train_path)
        for i in range(len(corpus)):
            corpus.features(i)
        model, head = self._build(corpus.n_speakers)
        start = now()
        report = dtcf.train.train(model, head, corpus, self._config(self.warmup_steps),
                                  self.sched, out_dir=workdir / "warmup")
        return TrainState(workdir, corpus, report.log_rows,
                          (now() - start) / self.warmup_steps)

    def run(self, state: TrainState, seconds: float, tracer: Tracer | None) -> Phase:
        steps = max(self.warmup_steps, round(seconds / state.step_s))
        phase = Phase()
        clock = OpClock(phase, tracer, Calibration(self.calibration))
        model, head = self._build(state.corpus.n_speakers, tracer)

        def step_boundary(adam_step):
            def wrapper(*args, **kwargs):
                adam_step(*args, **kwargs)
                clock.end()
                clock.begin("step")
            return wrapper

        def data_span(zero_grads):
            def wrapper(params):
                # crop + spec_augment + stack run inline in train() before this call
                tracer.gap_span("train.data", after="checkpoint.save")
                return zero_grads(params)
            return wrapper

        with contextlib.ExitStack() as stack:
            patch(stack, dtcf.train, "adam_step", step_boundary)
            if tracer is not None:
                patch(stack, dtcf.train, "zero_grads", data_span)
            start = now()
            clock.begin("step")
            try:
                report = dtcf.train.train(model, head, state.corpus, self._config(steps),
                                          self.sched, out_dir=state.workdir / "run")
                phase.outputs = report.log_rows
            except Exception:
                traceback.print_exc()
                phase.failed += 1
            if tracer is not None:
                tracer.drop_op()
            phase.busy_s = now() - start - sum(phase.calib_s)
        phase.attempted = len(phase.op_s) + phase.failed
        phase.items = len(phase.op_s) * self.batch
        return phase

    def check(self, state: TrainState, phase: Phase) -> int:
        """Losses finite; the first steps equal the warm-up run's bit for bit."""
        bad = sum(not math.isfinite(loss) for _, _, loss, _ in phase.outputs)
        prefix = phase.outputs[:self.warmup_steps]
        bad += sum(row != ref for row, ref in zip(prefix, state.warmup_rows))
        return bad


# -- extract-full-dtcf ------------------------------------------------------------

@dataclass
class ExtractState:
    workdir: Path
    utts: list[tuple[str, str, Path]]
    checkpoint: Path
    model: SpeakerModel
    references: dict = field(default_factory=dict)


class ExtractFull:
    """The `dtcf extract` path on the full-width 8.4M-parameter DTCF model.

    Forward only, under no_grad, eval-mode batchnorm, wide channels, B=1 with
    variable T. An op is read_wav -> fbank -> embed of one utterance; the run
    ends with export_embeddings. Utterances are taken in whole passes over the
    corpus so every run does the same work per pass.
    """

    name = "extract-full-dtcf"
    item = "utterances"
    calibration = ("blas", "elementwise")
    tolerance = 1e-5         # relative to the float64 reference embedding

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.speakers, self.per_speaker = (2, 1) if smoke else (4, 2)
        widths, blocks = ((4, 8, 16, 32), (1, 1, 1, 1)) if smoke else ((32, 64, 128, 256), (3, 4, 6, 3))
        self.backbone = BackboneConfig(widths=widths, blocks=blocks, attention="dtcf")

    def _corpus(self, wav_dir: Path) -> list[tuple[str, str, Path]]:
        """Utterances of 2 to 3.5 s at evenly spaced durations, in seeded order."""
        rng = np.random.default_rng(self.seed)
        n = self.speakers * self.per_speaker
        durations = 2.0 + 1.5 * (np.arange(n) + 0.5) / n
        durations = durations[rng.permutation(n)]
        wav_dir.mkdir(parents=True)
        utts = []
        for s in range(self.speakers):
            f0 = rng.uniform(95.0, 250.0)
            spec = dtcf.synth.SyntheticSpeakerSpec(
                speaker_id=f"spk{s:03d}",
                formants=(rng.uniform(350, 850), rng.uniform(1100, 2100), rng.uniform(2300, 3300)),
                f0_range=(0.92 * f0, 1.12 * f0), tilt_db_per_octave=rng.uniform(-12, -3),
                seed=int(rng.integers(2 ** 31)))
            for j in range(self.per_speaker):
                utt = f"{spec.speaker_id}_u{j:03d}"
                wav = dtcf.synth.synth_utterance(spec, float(durations[len(utts)]), utt_seed=j)
                dtcf.audio.write_wav(wav_dir / f"{utt}.wav", wav)
                utts.append((utt, spec.speaker_id, wav_dir / f"{utt}.wav"))
        return utts

    def _checkpoint(self, path: Path) -> None:
        """A seeded model whose batchnorms are not the identity, saved as training state."""
        rng = np.random.default_rng(self.seed)
        model = SpeakerModel(self.backbone, seed=self.seed)
        for name, p in model.named_params():
            if name.endswith(".gamma"):
                p.data = rng.uniform(0.5, 1.5, p.shape).astype(p.data.dtype)
            elif name.endswith(".beta"):
                p.data = rng.normal(0.0, 0.1, p.shape).astype(p.data.dtype)
        model.load_buffers({
            name: (rng.normal(0.0, 0.1, buf.shape) if name.endswith("running_mean")
                   else rng.uniform(0.5, 2.0, buf.shape)).astype(buf.dtype)
            for name, buf in model.named_buffers()})
        head = AAMHead(self.speakers, self.backbone.emb_dim, rng=np.random.default_rng(self.seed + 1))
        opt = dtcf.train.AdamState([(f"model.{n}", p) for n, p in model.named_params()]
                                   + [("head.weights", head.weights)])
        dtcf.train.save_training_state(path, model, head, opt)

    def setup(self, workdir: Path, tracer: Tracer | None) -> ExtractState:
        with _span(tracer, "synth.corpus"):
            utts = self._corpus(workdir / "wav")
        ckpt = workdir / "checkpoint.bin"
        self._checkpoint(ckpt)
        model, _, _, _ = dtcf.train.load_training_state(ckpt)
        model.embed(dtcf.audio.fbank(dtcf.audio.read_wav(utts[0][2])))
        return ExtractState(workdir, utts, ckpt, model)

    def run(self, state: ExtractState, seconds: float, tracer: Tracer | None) -> Phase:
        phase = Phase()
        clock = OpClock(phase, tracer, Calibration(self.calibration))
        if tracer is not None:
            tracer.label_model(state.model)
        store = {}
        while not phase.op_s or sum(phase.op_s) < seconds:
            for utt, spk, path in state.utts:
                emb = None
                with clock.op(utt):
                    emb = state.model.embed(dtcf.audio.fbank(dtcf.audio.read_wav(path)))
                phase.outputs.append((utt, emb))
                if emb is not None:
                    store[utt] = (spk, emb)
        start = now()
        dtcf.metrics.export_embeddings(store, state.workdir / "embeddings.csv")
        phase.busy_s = sum(phase.op_s) + now() - start
        phase.items = len(phase.op_s)
        return phase

    def check(self, state: ExtractState, phase: Phase) -> int:
        """Each embedding finite, 512-d and within 1e-5 of the float64 reference."""
        if not state.references:
            config, tensors, _ = dtcf.checkpoint.load_checkpoint(state.checkpoint)
            for utt, _, path in state.utts:
                state.references[utt] = reference.reference_embedding(
                    config, tensors, reference.reference_fbank(path))
        bad = 0
        for utt, emb in phase.outputs:
            if emb is None:
                continue          # already counted when it raised
            ok = (emb.shape == (self.backbone.emb_dim,) and bool(np.all(np.isfinite(emb)))
                  and reference.relative_error(emb, state.references[utt]) <= self.tolerance)
            bad += not ok
        return bad


# -- eval-trials --------------------------------------------------------------------

@dataclass
class EvalState:
    workdir: Path
    vectors: dict[str, np.ndarray]
    trials: list[tuple[str, str, str]]
    expected_scores: np.ndarray | None = None
    oracle: dict = field(default_factory=dict)   # score bytes -> oracle result


class EvalTrials:
    """Repeated `dtcf eval` passes over seeded 512-d embeddings and trials.

    No model code runs: per-trial Python scoring and the dense O(N^2)
    threshold sweep dominate, and the sweep sets peak memory. An op is one
    full pass of `dtcf eval` (read, score, EER, minDCF, write scores).
    """

    name = "eval-trials"
    item = "trials"
    calibration = ("interpreter", "memory", "blas", "elementwise")
    dim = 512
    spread = 2.3             # within-speaker noise; puts the EER at a few percent

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.speakers, self.per_speaker, self.pairs = (8, 10, 300) if smoke else (40, 25, 10_000)

    def _inputs(self) -> tuple[dict, list]:
        """Embeddings around seeded speaker centroids; `pairs` target and
        `pairs` nontarget trials, each pair of distinct utterances drawn once."""
        rng = np.random.default_rng(self.seed)
        s, u = self.speakers, self.per_speaker
        centroids = rng.normal(size=(s, self.dim))
        vecs = centroids[:, None, :] + self.spread * rng.normal(size=(s, u, self.dim))
        ids = [f"spk{i:03d}_u{j:03d}" for i in range(s) for j in range(u)]
        vectors = dict(zip(ids, vecs.reshape(s * u, self.dim)))
        same = [(a, b) for i in range(s) for a in range(i * u, (i + 1) * u)
                for b in range(a + 1, (i + 1) * u)]
        targets = [same[k] for k in rng.choice(len(same), self.pairs, replace=False)]
        nontargets: set[tuple[int, int]] = set()
        while len(nontargets) < self.pairs:
            a, b = (int(v) for v in rng.integers(0, s * u, 2))
            if a // u != b // u:
                nontargets.add((a, b))
        trials = ([(ids[a], ids[b], "target") for a, b in targets]
                  + [(ids[a], ids[b], "nontarget") for a, b in sorted(nontargets)])
        order = rng.permutation(len(trials))
        return vectors, [trials[k] for k in order]

    def setup(self, workdir: Path, tracer: Tracer | None) -> EvalState:
        workdir.mkdir(parents=True)
        with _span(tracer, "synth.corpus"):
            vectors, trials = self._inputs()
            dtcf.metrics.export_embeddings(
                {utt: (utt.split("_")[0], vec) for utt, vec in vectors.items()},
                workdir / "embeddings.csv")
            with open(workdir / "trials.txt", "w", encoding="utf-8") as f:
                f.writelines(f"{e} {t} {label}\n" for e, t, label in trials)
        state = EvalState(workdir, vectors, trials)
        self._eval_pass(state)
        return state

    def _eval_pass(self, state: EvalState) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = dtcf.cli.main(["eval", "--emb", str(state.workdir / "embeddings.csv"),
                                  "--trials", str(state.workdir / "trials.txt"),
                                  "--scores", str(state.workdir / "scores.csv")])
        return code, out.getvalue()

    def run(self, state: EvalState, seconds: float, tracer: Tracer | None) -> Phase:
        phase = Phase()
        clock = OpClock(phase, tracer, Calibration(self.calibration))
        if state.expected_scores is None:
            state.expected_scores = reference.cosine_scores(state.vectors, state.trials)
        while not phase.op_s or sum(phase.op_s) < seconds:
            result = None
            with clock.op("pass"):
                result = self._eval_pass(state)
            if result is not None:
                phase.failed += not self._pass_ok(state, *result)
        phase.busy_s = sum(phase.op_s)
        phase.items = len(phase.op_s) * len(state.trials)
        return phase

    def _pass_ok(self, state: EvalState, code: int, printed: str) -> bool:
        """Exit 0; the score file equals a vectorised cosine to 1e-12 in trial
        order; EER and minDCF equal the brute-force oracle on those scores."""
        if code != 0:
            print(printed, end="")
            return False
        lines = (state.workdir / "scores.csv").read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if lines[0] != "enroll,test,label,score" or \
                [tuple(r[:3]) for r in rows] != state.trials:
            return False
        scores = np.array([float(r[3]) for r in rows])
        if np.max(np.abs(scores - state.expected_scores)) > 1e-12:
            return False
        key = scores.tobytes()
        if key not in state.oracle:
            state.oracle = {key: reference.eer_min_dcf(
                scores, np.array([label == "target" for _, _, label in state.trials]))}
        want = state.oracle[key]
        got = dict(kv.split("=", 1) for kv in printed.split() if "=" in kv)
        try:
            return all(abs(float(got[k]) - want[w]) <= 1e-12 for k, w in (
                ("eer", "eer"), ("minDcf", "min_dcf"),
                ("threshold_eer", "threshold_eer"), ("threshold_dcf", "threshold_dcf")))
        except (KeyError, ValueError):
            return False

    def check(self, state: EvalState, phase: Phase) -> int:
        return 0                 # every pass was checked as it finished


WORKLOADS = {w.name: w for w in (TrainToy, ExtractFull, EvalTrials)}
