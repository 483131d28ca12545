"""Ranking metrics against hand arithmetic and a confusion-matrix oracle."""

import itertools

import numpy as np
import pytest

from tulink.metrics import (
    Prediction,
    acc_at_k,
    build_predictions,
    compute_report,
    export_embeddings,
    macro_metrics,
    rank_classes,
    save_report,
)

from oracles import confusion_matrix_oracle, load_report


def preds_from_top1(true_labels, top1_labels, n_classes):
    """Prediction set whose rankings start with the given top-1 choices."""
    out = []
    for t, p in zip(true_labels, top1_labels):
        rest = [c for c in range(n_classes) if c != p]
        out.append(Prediction(t, np.array([p] + rest)))
    return out


class TestRanking:
    def test_ties_break_by_ascending_index(self):
        ranking = rank_classes(np.array([0.5, 0.9, 0.5, 0.1]))
        np.testing.assert_array_equal(ranking, [1, 0, 2, 3])

    def test_build_predictions_shape_check(self):
        with pytest.raises(ValueError):
            build_predictions(np.zeros((2, 3)), [0])


class TestAccAtK:
    def test_half_correct(self):
        preds = preds_from_top1([0, 1, 0, 1], [0, 1, 1, 0], n_classes=2)
        assert acc_at_k(preds, 1) == 0.5

    def test_full_ranking_always_hits(self):
        rng = np.random.default_rng(0)
        preds = build_predictions(rng.normal(size=(20, 6)), rng.integers(0, 6, 20))
        assert acc_at_k(preds, 6) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        preds = build_predictions(rng.normal(size=(50, 8)), rng.integers(0, 8, 50))
        accs = [acc_at_k(preds, k) for k in range(1, 9)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))

    def test_matches_membership_oracle(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(40, 5))
        true = rng.integers(0, 5, 40)
        preds = build_predictions(logits, true)
        for k in range(1, 6):
            expected = np.mean(
                [t in np.argsort(-row, kind="stable")[:k] for row, t in zip(logits, true)]
            )
            assert acc_at_k(preds, k) == expected

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            acc_at_k([], 1)

    def test_k_floor(self):
        with pytest.raises(ValueError):
            acc_at_k(preds_from_top1([0], [0], 2), 0)


class TestMacroMetrics:
    def test_perfect_predictions(self):
        preds = preds_from_top1([0, 1, 2, 0], [0, 1, 2, 0], n_classes=3)
        p, r, f1, _ = macro_metrics(preds)
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_hand_case_two_thirds(self):
        """(P, R) of (1, 0.5) and (0.5, 1) -> per-class F1 = 2/3 each."""
        preds = preds_from_top1([0, 0, 1], [0, 1, 1], n_classes=2)
        p, r, f1, per_class = macro_metrics(preds)
        assert per_class[0] == (1.0, 0.5)
        assert per_class[1] == (0.5, 1.0)
        assert f1 == 2.0 / 3.0

    def test_never_predicted_class_scores_zero(self):
        preds = preds_from_top1([0, 1, 1], [1, 1, 1], n_classes=2)
        p, r, f1, per_class = macro_metrics(preds)
        assert per_class[0] == (0.0, 0.0)
        assert f1 == pytest.approx(0.5 * (0.0 + 2 * (2 / 3) * 1.0 / (2 / 3 + 1.0)))

    def test_class_absent_from_truth_excluded(self):
        # class 2 never appears as a true label; predictions of it only
        # hurt the classes that do appear
        preds = preds_from_top1([0, 1], [0, 2], n_classes=3)
        _, _, _, per_class = macro_metrics(preds)
        assert set(per_class) == {0, 1}

    def test_exhaustive_against_confusion_oracle(self):
        """All top-1 assignments for up to 5 classes and 6 items."""
        cases = 0
        for n_classes, n_items in [(2, 6), (3, 5), (4, 4), (5, 4)]:
            true = [i % n_classes for i in range(n_items)]
            for assignment in itertools.product(range(n_classes), repeat=n_items):
                preds = preds_from_top1(true, assignment, n_classes)
                mine = macro_metrics(preds)[:3]
                oracle = confusion_matrix_oracle(true, list(assignment))
                np.testing.assert_allclose(mine, oracle, atol=1e-12)
                cases += 1
        assert cases > 800

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        true = rng.integers(0, 4, 30)
        top1 = rng.integers(0, 4, 30)
        base = macro_metrics(preds_from_top1(true, top1, 4))[:3]
        perm = rng.permutation(4)
        relabeled = macro_metrics(preds_from_top1(perm[true], perm[top1], 4))[:3]
        np.testing.assert_allclose(base, relabeled, atol=1e-15)


class TestReportSerialization:
    def test_six_decimal_key_value_lines(self, tmp_path):
        preds = preds_from_top1([0, 0, 1, 1], [0, 1, 1, 1], n_classes=2)
        report = compute_report(preds, ks=(1, 2))
        path = tmp_path / "metrics.txt"
        save_report(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"acc@1={report.acc_at[1]:.6f}"
        assert lines[1] == f"acc@2={report.acc_at[2]:.6f}"
        assert lines[2:] == [
            f"macro_p={report.macro_p:.6f}",
            f"macro_r={report.macro_r:.6f}",
            f"macro_f1={report.macro_f1:.6f}",
        ]
        loaded = load_report(path)
        assert loaded["macro_f1"] == round(report.macro_f1, 6)


class TestEmbeddingExport:
    def test_row_count_width_and_determinism(self, tmp_path):
        rng = np.random.default_rng(4)
        reps = rng.normal(size=(7, 12))
        ids = [f"t{i}" for i in range(7)]
        users = [f"u{i % 2}" for i in range(7)]
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        export_embeddings(reps, ids, users, p1)
        export_embeddings(reps, ids, users, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert len(lines) == 7
        fields = lines[3].split("\t")
        assert fields[0] == "t3" and fields[1] == "u1"
        assert len(fields) == 2 + 12
        np.testing.assert_array_equal(
            np.array([float(v) for v in fields[2:]]), reps[3]
        )
