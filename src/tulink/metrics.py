"""Ranking metrics and embedding export.

Each row of the logit matrix is scored by the rank of its true user (the
users with a higher logit, plus those with an equal logit and a lower index)
and by its top-1 user, the first maximum. acc@k is the share of rows ranked
below k. Macro precision/recall/F1 average over the users with a true row;
a user nobody predicted scores precision 0, and P + R = 0 scores F1 = 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np


@dataclass
class MetricsReport:
    acc_at: dict[int, float]
    macro_p: float
    macro_r: float
    macro_f1: float


def true_ranks(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's rank of its true class, 0 for best; ties go to the lower index."""
    if logits.ndim != 2 or logits.shape[0] != len(labels):
        raise ValueError(f"{logits.shape[0]} logit rows for {len(labels)} labels")
    if not len(labels):
        raise ValueError("cannot score an empty prediction set")
    true = logits[np.arange(len(labels)), labels][:, None]
    before = np.arange(logits.shape[1]) < labels[:, None]
    return np.count_nonzero((logits > true) | ((logits == true) & before), axis=1)


def compute_report(logits: np.ndarray, labels, ks: Sequence[int] = (1, 5)) -> MetricsReport:
    labels = np.asarray(labels, dtype=np.intp)
    ranks = true_ranks(logits, labels)
    if min(ks) < 1:
        raise ValueError(f"k must be at least 1, got {min(ks)}")
    counts = np.stack([np.bincount(c, minlength=logits.shape[1])
                       for c in (labels, np.argmax(logits, axis=1), labels[ranks == 0])])
    n_true, n_pred, tp = counts[:, counts[0] > 0]  # users with a true row
    precision = np.divide(tp, n_pred, out=np.zeros(len(tp)), where=n_pred > 0)
    recall = tp / n_true
    total = precision + recall
    f1 = np.divide(2 * precision * recall, total, out=np.zeros(len(tp)), where=total > 0)
    acc_at = {k: float(np.count_nonzero(ranks < k) / len(ranks)) for k in ks}
    return MetricsReport(acc_at, *(float(np.mean(v)) for v in (precision, recall, f1)))


def format_report(report: MetricsReport) -> str:
    """The ``key=value`` lines of ``metrics.txt``, six decimals each."""
    lines = [f"acc@{k}={report.acc_at[k]:.6f}" for k in sorted(report.acc_at)]
    lines += [f"{name}={getattr(report, name):.6f}" for name in ("macro_p", "macro_r", "macro_f1")]
    return "\n".join(lines) + "\n"


def save_report(report: MetricsReport, path: str | Path) -> None:
    Path(path).write_text(format_report(report))


def _row_texts(half: np.ndarray) -> Iterator[str]:
    """Each row of ``half`` as its tab-joined float reprs, in order. A row is
    keyed by its bytes, so -0.0 and 0.0 stay apart; each distinct row is
    formatted once and its text kept only until its last row."""
    left = Counter(map(bytes, half))
    texts = {}
    for row in half:
        key = bytes(row)
        text = texts.pop(key, None) or "\t".join(map(repr, row.tolist()))
        left[key] -= 1
        if left[key]:
            texts[key] = text
        yield text


def export_embeddings(representations, traj_ids, user_ids, path: str | Path) -> None:
    """Write one row per trajectory: id, user, then the fused vector values.

    Floats are written with repr so a re-export from the same checkpoint is
    byte-identical and values round-trip exactly. Each half of the fused
    [local ; global] vector is formatted once per distinct row: twins share
    their global half, and one-point trajectories alike in cell, state and
    window share their local half.
    """
    reps = np.asarray(representations, dtype=np.float64)
    rows = map("\t".join, zip(*map(_row_texts, np.hsplit(reps, 2))))
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(f"{t}\t{u}\t{v}\n" for t, u, v in zip(traj_ids, user_ids, rows))
