"""Deterministic synthetic speaker corpus for desk-scale experiments.

Each synthetic speaker is a harmonic voice defined by three formant
resonances, an F0 range, and a spectral tilt. Utterances are additive
harmonic synthesis with a slowly wandering pitch contour plus low-level
noise, peak-normalised, and written as 16-bit PCM wavs. The harmonic bank
is rendered over blocks of samples, so an utterance's working memory is
bounded by the block, not by its length.

Corpus layout written by ``synth_corpus``:
    wav/<utt_id>.wav
    manifest.csv   -- every utterance:      utt_id,speaker_id,path
    train.csv      -- training subset, same format
    trials.txt     -- held-out trial list:  "<enroll> <test> target|nontarget"
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import SAMPLE_RATE, Waveform, write_wav
from .errors import ConfigError, DataError, atomic_write, utf8_input

__all__ = ["SyntheticSpeakerSpec", "CorpusSummary", "synth_utterance",
           "synth_corpus", "read_manifest", "read_trials"]

_NOISE_DB = -40.0
_HELD_OUT_FRACTION = 0.25
# Samples per block of the harmonic bank: its (harmonics, block) float64 arrays
# stay near 2 MiB each at 72 harmonics, whatever the utterance's length.
_BLOCK = 4096


@dataclass(frozen=True)
class SyntheticSpeakerSpec:
    speaker_id: str
    formants: tuple[float, float, float]
    f0_range: tuple[float, float]      # Hz
    tilt_db_per_octave: float
    seed: int

    def __post_init__(self):
        f1, f2, f3 = self.formants
        if not (0 < f1 < f2 < f3):
            raise ConfigError(f"formants must be strictly increasing, got {self.formants}")
        if self.f0_range[0] <= 0 or self.f0_range[0] >= self.f0_range[1]:
            raise ConfigError(f"bad f0 range {self.f0_range}")


@dataclass
class CorpusSummary:
    manifest_path: Path
    train_path: Path
    trials_path: Path
    n_speakers: int
    n_utterances: int
    n_trials: int


def _formant_gain(freqs: np.ndarray, formants, tilt_db: float) -> np.ndarray:
    gain = np.full_like(freqs, 0.05)
    for center, bw in zip(formants, (70.0, 100.0, 140.0)):
        gain = gain + np.exp(-0.5 * ((freqs - center) / bw) ** 2)
    octaves = np.log2(np.maximum(freqs, 200.0) / 200.0)
    return gain * 10.0 ** (tilt_db * octaves / 20.0)


def synth_utterance(spec: SyntheticSpeakerSpec, duration: float, utt_seed: int) -> Waveform:
    """Render one utterance; bit-identical for identical (spec, utt_seed)."""
    if not 1.0 <= duration <= 10.0:
        raise ConfigError(f"duration {duration}s outside [1, 10]s")
    rng = np.random.default_rng((spec.seed, utt_seed))
    n = int(round(duration * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE

    f_lo, f_hi = spec.f0_range
    wobble_rate = rng.uniform(0.4, 1.6)
    wobble_phase = rng.uniform(0, 2 * np.pi)
    f0 = f_lo + (f_hi - f_lo) * (0.5 + 0.45 * np.sin(2 * np.pi * wobble_rate * t + wobble_phase))

    n_harm = max(3, int((0.45 * SAMPLE_RATE) / f_hi))
    phase = 2.0 * np.pi * np.cumsum(f0) / SAMPLE_RATE
    ks = np.arange(1, n_harm + 1)[:, None]

    # amplitudes vary slowly: evaluate on a coarse grid, one column per 160 samples
    step = 160
    coarse = _formant_gain(ks * f0[None, ::step], spec.formants, spec.tilt_db_per_octave)
    # The bank over equal blocks of at most _BLOCK samples, in place in one buffer.
    # Each sample gets the whole-utterance bank's float64 operations and sum(axis=0)
    # adds the harmonics in order, so the samples are bit-identical to it; numpy
    # would sum a one-sample block pairwise, and n >= 16000 leaves none. Allocated
    # per block instead, the bank went back to the system after each block under
    # glibc's default trim threshold, for about 9x the page faults.
    sig = np.empty(n)
    buf = np.empty(n_harm * _BLOCK)
    for idx in np.array_split(np.arange(n), -(-n // _BLOCK)):
        bank = buf[:n_harm * idx.size].reshape(n_harm, idx.size)
        np.multiply(ks, phase[idx], out=bank)
        np.sin(bank, out=bank)
        bank *= coarse[:, idx // step]
        sig[idx] = bank.sum(axis=0)

    sig = sig + rng.normal(size=n) * (10.0 ** (_NOISE_DB / 20.0)) * max(np.abs(sig).max(), 1e-9)
    sig = 0.95 * sig / np.abs(sig).max()
    return Waveform(sig, SAMPLE_RATE)


def _speaker_specs(n_speakers: int, rng: np.random.Generator) -> list[SyntheticSpeakerSpec]:
    """Evenly spaced formant triples with jitter below half the grid gap."""
    def spread(lo, hi):
        base = np.linspace(lo, hi, n_speakers)
        gap = (hi - lo) / max(n_speakers - 1, 1)
        return base + rng.uniform(-0.3, 0.3, n_speakers) * gap

    f1s = spread(350.0, 850.0)[rng.permutation(n_speakers)]
    f2s = spread(1100.0, 2100.0)[rng.permutation(n_speakers)]
    f3s = spread(2300.0, 3300.0)[rng.permutation(n_speakers)]
    f0s = spread(95.0, 250.0)[rng.permutation(n_speakers)]
    tilts = rng.uniform(-12.0, -3.0, n_speakers)
    specs = []
    for i in range(n_speakers):
        specs.append(SyntheticSpeakerSpec(
            speaker_id=f"spk{i:03d}",
            formants=(float(f1s[i]), float(f2s[i]), float(f3s[i])),
            f0_range=(float(f0s[i] * 0.92), float(f0s[i] * 1.12)),
            tilt_db_per_octave=float(tilts[i]),
            seed=int(rng.integers(0, 2 ** 31)),
        ))
    return specs


def synth_corpus(n_speakers: int, utts_per_speaker: int, seed: int, out_dir) -> CorpusSummary:
    """Generate wavs plus manifest, training split, and held-out trial list."""
    if n_speakers < 2:
        raise ConfigError("need at least 2 speakers")
    if utts_per_speaker < 4:
        raise ConfigError("need at least 4 utterances per speaker "
                          "(2 held out for trials, 2 for training)")
    out_dir = Path(out_dir)
    (out_dir / "wav").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    specs = _speaker_specs(n_speakers, rng)

    rows = []                                    # (utt_id, speaker_id, relpath, held_out)
    held_per_spk = max(2, int(utts_per_speaker * _HELD_OUT_FRACTION))
    for spec in specs:
        for j in range(utts_per_speaker):
            utt_id = f"{spec.speaker_id}_u{j:03d}"
            duration = float(rng.uniform(2.0, 3.5))
            wav = synth_utterance(spec, duration, utt_seed=j)
            rel = f"wav/{utt_id}.wav"
            write_wav(out_dir / rel, wav)
            rows.append((utt_id, spec.speaker_id, rel, j >= utts_per_speaker - held_per_spk))

    manifest_path = out_dir / "manifest.csv"
    train_path = out_dir / "train.csv"
    _write_manifest(manifest_path, [r[:3] for r in rows])
    _write_manifest(train_path, [r[:3] for r in rows if not r[3]])

    held = [(u, s) for u, s, _, h in rows if h]
    trials = _make_trials(held, rng)
    trials_path = out_dir / "trials.txt"
    with atomic_write(trials_path, "w", encoding="utf-8") as f:
        for enroll, test, label in trials:
            f.write(f"{enroll} {test} {label}\n")

    return CorpusSummary(manifest_path, train_path, trials_path,
                         n_speakers, len(rows), len(trials))


def _make_trials(held: list[tuple[str, str]], rng: np.random.Generator):
    """All within-speaker pairs as targets, an equal count of cross pairs."""
    by_spk: dict[str, list[str]] = {}
    for utt, spk in held:
        by_spk.setdefault(spk, []).append(utt)
    targets = []
    for utts in by_spk.values():
        for i in range(len(utts)):
            for j in range(i + 1, len(utts)):
                targets.append((utts[i], utts[j], "target"))
    speakers = sorted(by_spk)
    nontargets = set()
    guard = 0
    while len(nontargets) < len(targets) and guard < 100 * len(targets) + 1000:
        guard += 1
        sa, sb = rng.choice(len(speakers), size=2, replace=False)
        ua = by_spk[speakers[sa]][int(rng.integers(len(by_spk[speakers[sa]])))]
        ub = by_spk[speakers[sb]][int(rng.integers(len(by_spk[speakers[sb]])))]
        nontargets.add((ua, ub, "nontarget"))
    return targets + sorted(nontargets)


def _write_manifest(path: Path, rows) -> None:
    with atomic_write(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["utt_id", "speaker_id", "path"])
        for row in rows:
            writer.writerow(row)


def read_manifest(path) -> list[tuple[str, str, Path]]:
    """Rows of (utt_id, speaker_id, absolute path); paths resolve from the manifest.
    A row that repeats an earlier row's utt_id raises DataError naming its line."""
    path = Path(path)
    out, seen = [], set()
    with utf8_input(path), open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["utt_id", "speaker_id", "path"]:
            raise DataError(f"{path}: bad manifest header {header}")
        for row in reader:
            if len(row) != 3:
                raise DataError(f"{path}:{reader.line_num}: bad manifest row {row}")
            utt, spk, rel = row
            if utt in seen:
                raise DataError(f"{path}:{reader.line_num}: utt_id {utt!r} repeats an earlier row")
            seen.add(utt)
            out.append((utt, spk, (path.parent / rel).resolve()))
    if not out:
        raise DataError(f"{path}: empty manifest")
    return out


def read_trials(path) -> list[tuple[str, str, str]]:
    out = []
    with utf8_input(path), open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3 or parts[2] not in ("target", "nontarget"):
                raise DataError(f"{path}:{lineno}: bad trial line {line!r}")
            out.append((parts[0], parts[1], parts[2]))
    if not out:
        raise DataError(f"{path}: empty trial list")
    return out
