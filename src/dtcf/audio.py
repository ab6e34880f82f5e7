"""Acoustic frontend: waveforms, log-mel filterbank features, feature masking.

Feature recipe (fixed for reproducibility; only the mel count varies): 25 ms
Hamming window every 10 ms, power spectrum on the next-pow2 FFT, triangular
mel filters between 20 Hz and Nyquist on the scale 2595*log10(1 + f/700),
then log(energy + 1e-10). No dithering and no per-utterance mean/variance
normalisation: raw log-mel is the contract.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, atomic_write

__all__ = ["Waveform", "AugmentConfig", "fbank", "spec_augment",
           "mel_filterbank", "read_wav", "write_wav"]

SAMPLE_RATE = 16000  # Hz: the Waveform default and the synthetic corpus rate
_WINDOW_MS, _HOP_MS, _FMIN, _LOG_FLOOR = 25.0, 10.0, 20.0, 1e-10  # the recipe above


@dataclass
class Waveform:
    samples: np.ndarray          # mono, float in [-1, 1]
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DataError("waveform must be non-empty mono")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("waveform contains non-finite samples")


@dataclass(frozen=True)
class AugmentConfig:
    time_mask_max: int = 10      # frames
    freq_mask_max: int = 8       # mel bins
    n_time_masks: int = 1
    n_freq_masks: int = 1

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """(n_mels, n_fft//2 + 1) triangular filters, peak weight 1."""
    fmax = sample_rate / 2.0
    mels = np.linspace(_hz_to_mel(_FMIN), _hz_to_mel(fmax), n_mels + 2)
    edges = _mel_to_hz(mels)
    freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    weights = np.zeros((n_mels, freqs.size))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        weights[m] = np.clip(np.minimum(up, down), 0.0, None)
    return weights


def fbank(wav: Waveform, n_mels: int = 80) -> np.ndarray:
    """Log-mel features, one row per frame: (1 + (N - win) // hop, n_mels)."""
    if n_mels < 1:
        raise ConfigError(f"n_mels must be >= 1, got {n_mels}")
    sr = wav.sample_rate
    win = int(round(sr * _WINDOW_MS / 1000.0))
    hop = int(round(sr * _HOP_MS / 1000.0))
    x = wav.samples
    if x.size < win:
        raise DataError(f"waveform of {x.size} samples is shorter than one "
                        f"{win}-sample analysis window")
    n_frames = 1 + (x.size - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = x[idx] * np.hamming(win)
    n_fft = 1 << int(np.ceil(np.log2(win)))
    power = np.abs(np.fft.rfft(frames, n_fft, axis=1)) ** 2
    mel = mel_filterbank(n_mels, n_fft, sr)
    return np.log(power @ mel.T + _LOG_FLOOR).astype(np.float32)


def spec_augment(feats: np.ndarray, cfg: AugmentConfig,
                 rng: np.random.Generator) -> np.ndarray:
    """Mask random time and frequency bands with the pre-mask feature mean."""
    n_frames, n_bins = feats.shape
    if cfg.time_mask_max >= n_frames or cfg.freq_mask_max >= n_bins:
        raise ConfigError("mask widths must be smaller than the feature dims")
    out = feats.copy()
    fill = feats.mean()
    for _ in range(cfg.n_time_masks):
        width = int(rng.integers(0, cfg.time_mask_max + 1))
        start = int(rng.integers(0, n_frames - width + 1))
        out[start:start + width, :] = fill
    for _ in range(cfg.n_freq_masks):
        width = int(rng.integers(0, cfg.freq_mask_max + 1))
        start = int(rng.integers(0, n_bins - width + 1))
        out[:, start:start + width] = fill
    return out


# -- 16-bit PCM mono wav i/o --------------------------------------------------

def write_wav(path, wav: Waveform) -> None:
    pcm = np.clip(np.round(wav.samples * 32767.0), -32768, 32767).astype("<i2")
    with atomic_write(path, "wb") as f, wave.open(f, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(wav.sample_rate)
        w.writeframes(pcm.tobytes())


def read_wav(path) -> Waveform:
    """A 16-bit PCM mono file; a damaged or empty one raises DataError naming ``path``."""
    try:
        with wave.open(str(path), "rb") as f:
            if f.getnchannels() != 1 or f.getsampwidth() != 2:
                raise DataError(f"{path}: expected 16-bit PCM mono")
            sr, n = f.getframerate(), f.getnframes()
            data = f.readframes(n)
    except (EOFError, wave.Error) as e:
        reason = str(e) or "the file ends inside its header"
        raise DataError(f"{path}: not a readable WAV file ({reason})") from e
    if len(data) != 2 * n:
        raise DataError(f"{path}: data chunk cut short ({len(data)} of {2 * n} bytes)")
    if n == 0:
        raise DataError(f"{path}: data chunk is empty")
    return Waveform(np.frombuffer(data, dtype="<i2").astype(np.float64) / 32767.0, sr)
