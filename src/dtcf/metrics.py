"""Trial scoring and verification metrics: cosine, EER, minDCF, CSV export.

Threshold convention: a trial is accepted when score >= threshold (ties
accept). The sweep visits every distinct score plus the -inf/+inf endpoints;
EER interpolates linearly between adjacent sweep points when the miss and
false-alarm rates do not meet exactly. minDCF is NIST-normalised by
min(C_miss * P_target, C_fa * (1 - P_target)).

Both metrics depend on the scores only through their ranks, so any strictly
increasing transform of all scores leaves them unchanged.

The sweep takes O(N log N) time and O(N) memory for N trials: each class is
sorted once and its rates are exact counts over the sorted scores, found by
binary search at every threshold. Trial scoring normalises each stored
embedding once and scores a block of trials at a time, so its working memory
is the store plus one block, however long the trial list.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, DomainError

__all__ = ["DCFParams", "TrialScore", "cosine_score", "compute_eer",
           "compute_min_dcf", "score_trials", "export_embeddings",
           "read_embeddings", "write_scores"]


@dataclass(frozen=True)
class DCFParams:
    p_target: float = 0.01
    c_miss: float = 1.0
    c_fa: float = 1.0

    def __post_init__(self):
        if not 0 < self.p_target < 1 or self.c_miss <= 0 or self.c_fa <= 0:
            raise DataError("require 0 < p_target < 1 and positive costs")


class TrialScore(NamedTuple):
    enroll: str
    test: str
    label: str
    score: float


def cosine_score(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-300 or nb < 1e-300:
        raise DomainError("zero-norm embedding")
    return float(np.dot(a, b) / (na * nb))


def _split_scores(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    lab = np.asarray([l == "target" if isinstance(l, str) else bool(l) for l in labels])
    if scores.shape != lab.shape or scores.ndim != 1:
        raise DataError("scores and labels must be equal-length vectors")
    if np.isnan(scores).any():
        raise DataError("scores must not be NaN")
    tar, non = scores[lab], scores[~lab]
    if tar.size == 0 or non.size == 0:
        raise DataError("need at least one target and one nontarget score")
    return tar, non


def _sweep_rates(tar: np.ndarray, non: np.ndarray):
    """FAR and FRR at [-inf, each distinct score, +inf], threshold ascending.

    A left binary search into each sorted class counts the scores below a
    threshold, so FRR counts targets < thr and FAR nontargets >= thr.
    """
    thr = np.concatenate(([-np.inf], np.unique(np.concatenate([tar, non])), [np.inf]))
    far = (non.size - np.searchsorted(np.sort(non), thr, side="left")) / non.size
    frr = np.searchsorted(np.sort(tar), thr, side="left") / tar.size
    return thr, far, frr


def compute_eer(scores: Sequence[float], labels: Sequence) -> tuple[float, float]:
    """Equal error rate and the threshold where FAR and FRR cross."""
    tar, non = _split_scores(scores, labels)
    thr, far, frr = _sweep_rates(tar, non)
    gap = frr - far                     # runs from -1 at -inf to +1 at +inf
    i = int(np.argmax(gap >= 0))
    if gap[i] == 0:
        return float(far[i]), float(thr[i])
    t = -gap[i - 1] / (gap[i] - gap[i - 1])
    eer = far[i - 1] + t * (far[i] - far[i - 1])
    if np.isfinite(thr[i - 1]) and np.isfinite(thr[i]):
        theta = thr[i - 1] + t * (thr[i] - thr[i - 1])
    else:
        theta = thr[i] if np.isfinite(thr[i]) else thr[i - 1]
    return float(eer), float(theta)


def compute_min_dcf(scores: Sequence[float], labels: Sequence,
                    params: DCFParams = DCFParams()) -> tuple[float, float]:
    """Minimum normalised detection cost over the same threshold sweep."""
    tar, non = _split_scores(scores, labels)
    thr, far, frr = _sweep_rates(tar, non)
    p = params
    norm = min(p.c_miss * p.p_target, p.c_fa * (1 - p.p_target))
    dcf = (p.c_miss * frr * p.p_target + p.c_fa * far * (1 - p.p_target)) / norm
    i = int(np.argmin(dcf))
    return float(dcf[i]), float(thr[i])


_BLOCK = 1024       # trials per gather: two 4 MiB operands at 512 dimensions


def score_trials(store: dict[str, np.ndarray],
                 trials: Sequence[tuple[str, str, str]]) -> list[TrialScore]:
    """One cosine score per trial, order preserved.

    Raises for the first trial, in order, that names an id missing from the
    store (DataError) or an embedding of zero norm (DomainError). Unit rows
    are gathered and dotted _BLOCK trials at a time.
    """
    ids = list(store)
    row = {utt: i for i, utt in enumerate(ids)}
    absent = len(ids)                   # row index standing for a missing id
    dim = len(next(iter(store.values()), ()))
    try:
        mat = np.array([store[u] for u in ids], dtype=np.float64).reshape(absent, dim)
    except ValueError:
        raise DataError("embeddings must be vectors of one dimension") from None
    norm = np.linalg.norm(mat, axis=1)
    zero = np.append(norm < 1e-300, False)
    mat /= np.where(zero[:-1], 1.0, norm)[:, None]
    out: list[TrialScore] = []
    for lo in range(0, len(trials), _BLOCK):
        chunk = trials[lo:lo + _BLOCK]
        pair = np.array([(row.get(e, absent), row.get(t, absent)) for e, t, _ in chunk],
                        dtype=np.intp)
        missing = pair == absent
        bad = (missing | zero[pair]).any(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            if missing[k].any():
                utt = chunk[k][int(np.argmax(missing[k]))]
                raise DataError(f"utterance id not in embedding store: {utt}")
            raise DomainError("zero-norm embedding")
        scores = np.einsum("ij,ij->i", mat[pair[:, 0]], mat[pair[:, 1]])
        out.extend(TrialScore(e, t, label, s)
                   for (e, t, label), s in zip(chunk, scores.tolist()))
    return out


def write_scores(path, scored: Sequence[TrialScore]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["enroll", "test", "label", "score"])
        for row in scored:
            w.writerow([row.enroll, row.test, row.label, repr(row.score)])


def export_embeddings(store: dict[str, tuple[str, np.ndarray]], path) -> None:
    """CSV `utt_id,speaker_id,e0,...`: full precision, rows sorted by utt_id."""
    utts = sorted(store)
    if not utts:
        raise DataError("empty embedding store")
    dim = len(store[utts[0]][1])
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["utt_id", "speaker_id"] + [f"e{i}" for i in range(dim)])
        for utt in utts:
            spk, emb = store[utt]
            w.writerow([utt, spk] + [repr(float(v)) for v in emb])


def read_embeddings(path) -> dict[str, tuple[str, np.ndarray]]:
    path = Path(path)
    out: dict[str, tuple[str, np.ndarray]] = {}
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if not header or header[:2] != ["utt_id", "speaker_id"]:
            raise DataError(f"{path}: bad embedding header")
        for row in reader:
            out[row[0]] = (row[1], np.array([float(v) for v in row[2:]], dtype=np.float64))
    if not out:
        raise DataError(f"{path}: no embeddings")
    return out
