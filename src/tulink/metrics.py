"""Ranking metrics and embedding export.

Each prediction carries the full user ranking (descending logit, ties broken
by ascending user index) so top-k accuracy is a membership count. Macro
precision/recall/F1 come from top-1 predictions over the classes present in
the evaluated set: a class nobody predicted scores precision 0, a class with
P + R = 0 scores F1 = 0, and classes with no true instances are excluded
from the unweighted means.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np


@dataclass
class Prediction:
    true_class: int
    ranking: np.ndarray  # permutation of all classes, best first


@dataclass
class MetricsReport:
    acc_at: dict[int, float]
    macro_p: float
    macro_r: float
    macro_f1: float
    per_class: dict[int, tuple[float, float]]  # class -> (precision, recall)


def rank_classes(logits_row: np.ndarray) -> np.ndarray:
    """Descending-logit ranking; stable sort keeps ties in ascending order."""
    return np.argsort(-logits_row, kind="stable")


def build_predictions(logits: np.ndarray, true_classes: Sequence[int]) -> list[Prediction]:
    if logits.shape[0] != len(true_classes):
        raise ValueError(
            f"{logits.shape[0]} logit rows for {len(true_classes)} labels"
        )
    return [
        Prediction(int(c), rank_classes(row)) for row, c in zip(logits, true_classes)
    ]


def acc_at_k(predictions: Sequence[Prediction], k: int) -> float:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not predictions:
        raise ValueError("cannot score an empty prediction set")
    hits = sum(p.true_class in p.ranking[:k] for p in predictions)
    return hits / len(predictions)


def macro_metrics(predictions: Sequence[Prediction]) -> tuple[float, float, float, dict]:
    """Unweighted per-class precision/recall/F1 over classes present in truth."""
    true = np.asarray([p.true_class for p in predictions])
    top1 = np.asarray([p.ranking[0] for p in predictions])
    per_class: dict[int, tuple[float, float]] = {}
    f1s = []
    for c in sorted(set(true.tolist())):
        tp = int(np.sum((top1 == c) & (true == c)))
        n_pred = int(np.sum(top1 == c))
        n_true = int(np.sum(true == c))
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_true
        per_class[c] = (precision, recall)
        f1s.append(
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    macro_p = float(np.mean([pr[0] for pr in per_class.values()]))
    macro_r = float(np.mean([pr[1] for pr in per_class.values()]))
    macro_f1 = float(np.mean(f1s))
    return macro_p, macro_r, macro_f1, per_class


def compute_report(predictions: Sequence[Prediction], ks: Sequence[int] = (1, 5)) -> MetricsReport:
    macro_p, macro_r, macro_f1, per_class = macro_metrics(predictions)
    return MetricsReport(
        acc_at={k: acc_at_k(predictions, k) for k in ks},
        macro_p=macro_p,
        macro_r=macro_r,
        macro_f1=macro_f1,
        per_class=per_class,
    )


def save_report(report: MetricsReport, path: str | Path) -> None:
    lines = [f"acc@{k}={report.acc_at[k]:.6f}" for k in sorted(report.acc_at)]
    lines.append(f"macro_p={report.macro_p:.6f}")
    lines.append(f"macro_r={report.macro_r:.6f}")
    lines.append(f"macro_f1={report.macro_f1:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_embeddings(representations, traj_ids, user_ids, path: str | Path) -> None:
    """Write one row per trajectory: id, user, then the fused vector values.

    Floats are written with repr so a re-export from the same checkpoint is
    byte-identical and values round-trip exactly.
    """
    representations = np.asarray(representations)
    with Path(path).open("w", encoding="utf-8") as fh:
        for tid, uid, row in zip(traj_ids, user_ids, representations):
            vals = "\t".join(repr(float(v)) for v in row)
            fh.write(f"{tid}\t{uid}\t{vals}\n")
