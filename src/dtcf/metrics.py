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
embedding once and scores a block of trials at a time into one float64
array, so its working memory is the store plus one block, however long the
trial list.

The eval pass works in bulk, with no Python object per value or per score:
`read_embeddings` streams the file, splits each row once into its ids and
its value text, and converts a block of rows at a time with one
`np.loadtxt` call. `score_trials` looks up a block's trial ids with one
C-level `np.fromiter` over `dict.get`, with no tuple per trial.
`write_scores` formats a block of rows as f-strings, quoting each distinct
id of the block once as `csv.writer` would, and writes the block as one
joined string; so its working memory is one block, not the trial list.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, DomainError, atomic_write, utf8_input

__all__ = ["DCFParams", "compute_eer",
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


def _split_scores(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    if isinstance(labels, np.ndarray) and labels.dtype == bool:
        lab = labels
    else:
        lab = np.array([l == "target" if isinstance(l, str) else bool(l) for l in labels],
                       dtype=bool)
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


_BLOCK = 256        # trials per gather: two 1 MiB operands at 512 dimensions; the heap
                    # reuses them, where 4 MiB ones were faulted in afresh for each block


def score_trials(store: dict[str, np.ndarray],
                 trials: Sequence[tuple[str, str, str]]) -> np.ndarray:
    """One cosine score per trial, as a float64 array in trial order.

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
    out = np.empty(len(trials))
    for lo in range(0, len(trials), _BLOCK):
        chunk = trials[lo:lo + _BLOCK]
        sides = itertools.chain(map(itemgetter(0), chunk), map(itemgetter(1), chunk))
        pair = np.fromiter(map(row.get, sides, itertools.repeat(absent)), dtype=np.intp,
                           count=2 * len(chunk)).reshape(2, -1)    # enroll rows, test rows
        missing = pair == absent
        bad = (missing | zero[pair]).any(axis=0)
        if bad.any():
            k = int(np.argmax(bad))
            if missing[:, k].any():
                utt = chunk[k][int(np.argmax(missing[:, k]))]
                raise DataError(f"utterance id not in embedding store: {utt}")
            raise DomainError("zero-norm embedding")
        out[lo:lo + len(chunk)] = np.einsum("ij,ij->i", mat[pair[0]], mat[pair[1]])
    return out


_WRITE_ROWS = 8192  # score rows per write: about 0.5 MB of text at ids of 12 characters


def _csv_field(text: str) -> str:
    """`text` as `csv.writer`'s default dialect writes a field: quoted, with each
    quote doubled, when it holds a comma, a quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_scores(path, trials: Sequence[tuple[str, str, str]], scores: np.ndarray) -> None:
    """CSV `enroll,test,label,score`, one row per trial, byte for byte as
    `csv.writer` writes it: scores print as repr(), rows end in CRLF.

    Each block of _WRITE_ROWS rows is written as one string; each distinct
    field of a block is quoted once.
    """
    with atomic_write(path, "w", encoding="utf-8", newline="") as f:
        f.write("enroll,test,label,score\r\n")
        for lo in range(0, len(trials), _WRITE_ROWS):
            chunk = trials[lo:lo + _WRITE_ROWS]
            field = {text: _csv_field(text) for text in set(itertools.chain.from_iterable(chunk))}
            scored = zip(chunk, scores[lo:lo + _WRITE_ROWS].tolist())
            f.write("".join([f"{field[e]},{field[t]},{field[label]},{score!r}\r\n"
                             for (e, t, label), score in scored]))


def export_embeddings(store: dict[str, tuple[str, np.ndarray]], path) -> None:
    """CSV `utt_id,speaker_id,e0,...`: full precision, rows sorted by utt_id."""
    utts = sorted(store)
    if not utts:
        raise DataError("empty embedding store")
    dim = len(store[utts[0]][1])
    with atomic_write(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["utt_id", "speaker_id"] + [f"e{i}" for i in range(dim)])
        for utt in utts:
            spk, emb = store[utt]
            w.writerow([utt, spk] + [repr(float(v)) for v in emb])


_ROWS = 256         # embedding rows per conversion: about 2.5 MB of text at 512 dimensions


def _rows(path: Path, f):
    """(line number, utt_id, speaker_id, value text) for each non-blank row.

    A row is split once at its first two commas; only a row that holds a
    quote goes through csv, which may read on to close a quoted field.
    """
    line_no = 1
    for line in f:
        line_no += 1
        if not line.rstrip("\r\n"):
            continue
        if '"' in line:
            reader = csv.reader(itertools.chain([line], f))
            fields = next(reader)
            line_no += reader.line_num - 1
            if len(fields) > 2:
                fields[2:] = [",".join(fields[2:])]
        else:
            fields = line.split(",", 2)
        if len(fields) < 3:
            raise DataError(f"{path}:{line_no}: expected utt_id, speaker_id and values, "
                            f"got {len(fields)} fields")
        yield line_no, *fields


def _block_values(path: Path, block: list[tuple], dim: int) -> np.ndarray:
    """The values of a block of rows, one float64 row each, from one C-level
    parse; if it fails, DataError names the first row, in file order, that is
    not `dim` comma-separated floats.

    `np.loadtxt` reads each text of the block as one line, so when the block
    parse fails, some row is blank (loadtxt skips it), holds another count
    of values or fails alone; the loop raises for the first such row.
    """
    try:
        values = np.loadtxt([text for *_, text in block], delimiter=",", comments=None,
                            dtype=np.float64, ndmin=2)
        if values.shape == (len(block), dim):      # loadtxt skips a blank value text
            return values
    except ValueError:
        pass
    for line_no, _, _, text in block:
        count = text.count(",") + 1 if text.strip() else 0
        try:
            if count != dim:
                raise ValueError(f"expected {dim} values as in the header, got {count}")
            np.loadtxt([text], delimiter=",", comments=None, dtype=np.float64)
        except ValueError as e:
            raise DataError(f"{path}:{line_no}: {e}") from None


def read_embeddings(path) -> dict[str, tuple[str, np.ndarray]]:
    """Parse an export_embeddings CSV; blank lines are skipped.

    Every row carries as many values as the header names and a utt_id of
    its own. A row without values, with another number of values, with a
    value that is not a float, or with a repeated utt_id raises DataError
    naming the file and line. The file is read _ROWS rows at a time, so
    the working memory beyond the result is one block of text.
    """
    path = Path(path)
    out: dict[str, tuple[str, np.ndarray]] = {}
    with utf8_input(path), open(path, encoding="utf-8", newline="") as f:
        header = f.readline().rstrip("\r\n").split(",")
        if header[:2] != ["utt_id", "speaker_id"] or len(header) < 3:
            raise DataError(f"{path}: bad embedding header")
        dim = len(header) - 2
        rows = _rows(path, f)
        while block := list(itertools.islice(rows, _ROWS)):
            for (line_no, utt, spk, _), vec in zip(block, _block_values(path, block, dim)):
                if utt in out:
                    raise DataError(f"{path}:{line_no}: utt_id {utt!r} repeats an earlier row")
                out[utt] = (spk, vec)
    if not out:
        raise DataError(f"{path}: no embeddings")
    return out
