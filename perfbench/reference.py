"""Independent reference implementations the benchmark checks outputs against.

Nothing here calls into the code under test except to read a checkpoint's
tensors: the embedding forward, the cosine scores and the EER/minDCF sweep
are written again, at float64, with different algorithms from `dtcf`'s own.
"""

from __future__ import annotations

import wave

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# -- embedding forward ---------------------------------------------------------

def reference_fbank(path, n_mels: int = 80, window_ms: float = 25.0,
                    hop_ms: float = 10.0, fmin: float = 20.0) -> np.ndarray:
    """Log-mel features of a 16-bit mono wav: Hamming window, next-pow2 FFT,
    triangular mel filters from ``fmin`` to Nyquist, log(energy + 1e-10)."""
    with wave.open(str(path), "rb") as f:
        sr = f.getframerate()
        x = np.frombuffer(f.readframes(f.getnframes()), dtype="<i2") / 32767.0
    win, hop = round(sr * window_ms / 1000), round(sr * hop_ms / 1000)
    frames = sliding_window_view(x, win)[::hop] * np.hamming(win)
    n_fft = 1 << (win - 1).bit_length()
    power = np.abs(np.fft.rfft(frames, n_fft)) ** 2
    mel = np.linspace(2595 * np.log10(1 + fmin / 700), 2595 * np.log10(1 + sr / 1400), n_mels + 2)
    edge = 700 * (10 ** (mel / 2595) - 1)
    lo, mid, hi = edge[:-2, None], edge[1:-1, None], edge[2:, None]
    freqs = np.fft.rfftfreq(n_fft, 1 / sr)
    weights = np.clip(np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)), 0, None)
    return np.log(power @ weights.T + 1e-10)


def _conv(x: np.ndarray, w: np.ndarray, stride, padding) -> np.ndarray:
    """(C, T, F) cross-correlation as a contraction over a strided window view."""
    ph, pw = padding
    sh, sw = stride
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(xp, w.shape[2:], axis=(1, 2))[:, ::sh, ::sw]
    return np.tensordot(w, win, axes=([1, 2, 3], [0, 3, 4]))


def _bn(x: np.ndarray, p: dict, name: str, eps: float = 1e-5) -> np.ndarray:
    scale = p[f"{name}.gamma"] / np.sqrt(p[f"{name}.running_var"] + eps)
    shift = p[f"{name}.beta"] - p[f"{name}.running_mean"] * scale
    return x * scale[:, None, None] + shift[:, None, None]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _dtcf(x: np.ndarray, p: dict, name: str) -> np.ndarray:
    f = x.shape[2]
    joint = np.concatenate([x.mean(axis=1), x.mean(axis=2)], axis=1)   # (C, F+T)
    enc = np.maximum(p[f"{name}.w1"] @ joint, 0.0)
    mct = _sigmoid(p[f"{name}.w2"] @ enc[:, f:])                        # (C, T)
    mcf = _sigmoid(p[f"{name}.w3"] @ enc[:, :f])                        # (C, F)
    return x * mct[:, :, None] * mcf[:, None, :]


def _block(x: np.ndarray, p: dict, name: str, stride) -> np.ndarray:
    main = np.maximum(_bn(_conv(x, p[f"{name}.conv1.kernels"], stride, (1, 1)), p, f"{name}.bn1"), 0.0)
    main = _bn(_conv(main, p[f"{name}.conv2.kernels"], (1, 1), (1, 1)), p, f"{name}.bn2")
    if f"{name}.attn.w1" in p:
        main = _dtcf(main, p, f"{name}.attn")
    skip = x
    if f"{name}.down_conv.kernels" in p:
        skip = _bn(_conv(x, p[f"{name}.down_conv.kernels"], stride, (0, 0)), p, f"{name}.down_bn")
    return np.maximum(main + skip, 0.0)


def reference_embedding(config: dict, tensors: dict, feats: np.ndarray) -> np.ndarray:
    """Eval-mode embedding of one (T, n_mels) utterance at float64.

    ``config`` and ``tensors`` are what ``dtcf.checkpoint.load_checkpoint``
    returns. Only DTCF attention (or none) is supported.
    """
    backbone = config["backbone"]
    if backbone["attention"] not in ("dtcf", "none"):
        raise ValueError("reference forward covers DTCF and no attention only")
    p = {k[len("model."):]: v.astype(np.float64) for k, v in tensors.items()
         if k.startswith("model.")}
    x = np.asarray(feats, dtype=np.float64)[None]
    x = np.maximum(_bn(_conv(x, p["stem.conv.kernels"], (1, 1), (1, 1)), p, "stem.bn"), 0.0)
    for i, (count, stride) in enumerate(zip(backbone["blocks"], backbone["strides"])):
        for j in range(count):
            x = _block(x, p, f"stage{i + 1}.block{j}", tuple(stride) if j == 0 else (1, 1))
    c, t, f = x.shape
    h = x.transpose(1, 0, 2).reshape(t, c * f)                         # one row per frame
    z = np.tanh(h @ p["asp.w"].T + p["asp.b"]) @ p["asp.v"][:, 0]
    alpha = np.exp(z - z.max())
    alpha /= alpha.sum()
    mu = alpha @ h
    std = np.sqrt(np.maximum(alpha @ (h * h) - mu * mu, 0.0) + 1e-9)
    return p["emb.weight"] @ np.concatenate([mu, std]) + p["emb.bias"]


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(got, np.float64) - want) / np.linalg.norm(want))


# -- trial scoring ---------------------------------------------------------------

def cosine_scores(vectors: dict[str, np.ndarray], trials) -> np.ndarray:
    """Vectorised cosine of every (enroll, test) pair, float64."""
    ids = sorted(vectors)
    row = {u: i for i, u in enumerate(ids)}
    mat = np.stack([np.asarray(vectors[u], dtype=np.float64) for u in ids])
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    a = np.fromiter((row[e] for e, _, _ in trials), dtype=np.int64, count=len(trials))
    b = np.fromiter((row[t] for _, t, _ in trials), dtype=np.int64, count=len(trials))
    return np.einsum("ij,ij->i", mat[a], mat[b])


def _brute_force_rates(tar: np.ndarray, non: np.ndarray, chunk: int = 512):
    """FAR and FRR at -inf, every distinct score and +inf, by direct counting.

    A trial is accepted when score >= threshold. Counting runs a block of
    thresholds at a time so memory stays at chunk x trials.
    """
    thr = np.concatenate(([-np.inf], np.unique(np.concatenate([tar, non])), [np.inf]))
    fa = np.empty(thr.size, dtype=np.int64)
    miss = np.empty(thr.size, dtype=np.int64)
    for lo in range(0, thr.size, chunk):
        block = thr[lo:lo + chunk, None]
        fa[lo:lo + chunk] = np.count_nonzero(non[None, :] >= block, axis=1)
        miss[lo:lo + chunk] = np.count_nonzero(tar[None, :] < block, axis=1)
    return thr, fa / non.size, miss / tar.size


def eer_min_dcf(scores: np.ndarray, is_target: np.ndarray, p_target: float = 0.01,
                c_miss: float = 1.0, c_fa: float = 1.0) -> dict[str, float]:
    """EER (linearly interpolated at the FAR/FRR crossing) and normalised minDCF."""
    scores = np.asarray(scores, dtype=np.float64)
    is_target = np.asarray(is_target, dtype=bool)
    thr, far, frr = _brute_force_rates(scores[is_target], scores[~is_target])
    gap = frr - far
    i = int(np.flatnonzero(gap >= 0)[0])
    if gap[i] == 0:
        eer, th_eer = far[i], thr[i]
    else:
        t = -gap[i - 1] / (gap[i] - gap[i - 1])
        eer = far[i - 1] + t * (far[i] - far[i - 1])
        if np.isfinite(thr[i - 1]) and np.isfinite(thr[i]):
            th_eer = thr[i - 1] + t * (thr[i] - thr[i - 1])
        else:
            th_eer = thr[i] if np.isfinite(thr[i]) else thr[i - 1]
    norm = min(c_miss * p_target, c_fa * (1 - p_target))
    dcf = (c_miss * frr * p_target + c_fa * far * (1 - p_target)) / norm
    j = int(np.argmin(dcf))
    return {"eer": float(eer), "threshold_eer": float(th_eer),
            "min_dcf": float(dcf[j]), "threshold_dcf": float(thr[j]),
            "sweep_points": int(thr.size)}
