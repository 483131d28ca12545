"""Ranking metrics against hand arithmetic, a confusion-matrix oracle and the
one-Prediction-per-row path."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tulink.metrics import (
    compute_report,
    export_embeddings,
    format_report,
    save_report,
    true_ranks,
)

from oracles import (build_predictions, confusion_matrix_oracle, export_embeddings_oracle,
                     load_report, macro_metrics, report_oracle)


def logits_from_top1(top1_labels, n_classes):
    """Logit rows ranking each given top-1 class first, then the others in
    ascending order: each class scores minus its position."""
    rows = []
    for p in top1_labels:
        ranking = [p] + [c for c in range(n_classes) if c != p]
        row = np.empty(n_classes)
        row[ranking] = -np.arange(n_classes)
        rows.append(row)
    return np.array(rows).reshape(-1, n_classes)


def macro(true_labels, top1_labels, n_classes):
    report = compute_report(logits_from_top1(top1_labels, n_classes), true_labels, ks=(1,))
    return report.macro_p, report.macro_r, report.macro_f1


def per_class_oracle(true_labels, top1_labels, n_classes):
    """The per-prediction path's macro scores and its class -> (P, R) map."""
    logits = logits_from_top1(top1_labels, n_classes)
    *scores, per_class = macro_metrics(build_predictions(logits, true_labels))
    return tuple(scores), per_class


class TestRanking:
    def test_ties_break_by_ascending_index(self):
        logits = np.tile([0.5, 0.9, 0.5, 0.1], (4, 1))
        np.testing.assert_array_equal(true_ranks(logits, np.arange(4)), [1, 0, 2, 3])
        signed_zeros = np.array([[0.0, -0.0, -1.0], [-0.0, 0.0, -1.0]])
        np.testing.assert_array_equal(true_ranks(signed_zeros, np.array([1, 0])), [1, 0])

    def test_row_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 logit rows for 1 labels"):
            compute_report(np.zeros((2, 3)), [0])


class TestAccAtK:
    def test_half_correct(self):
        report = compute_report(logits_from_top1([0, 1, 1, 0], 2), [0, 1, 0, 1], ks=(1,))
        assert report.acc_at[1] == 0.5

    def test_full_ranking_always_hits(self):
        rng = np.random.default_rng(0)
        report = compute_report(rng.normal(size=(20, 6)), rng.integers(0, 6, 20), ks=(6,))
        assert report.acc_at[6] == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        report = compute_report(rng.normal(size=(50, 8)), rng.integers(0, 8, 50),
                                ks=range(1, 9))
        accs = [report.acc_at[k] for k in range(1, 9)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))

    def test_matches_membership_oracle(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(40, 5))
        true = rng.integers(0, 5, 40)
        report = compute_report(logits, true, ks=range(1, 6))
        for k in range(1, 6):
            expected = np.mean(
                [t in np.argsort(-row, kind="stable")[:k] for row, t in zip(logits, true)]
            )
            assert report.acc_at[k] == expected

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_report(np.zeros((0, 3)), [])

    def test_k_floor(self):
        with pytest.raises(ValueError):
            compute_report(logits_from_top1([0], 2), [0], ks=(0,))


class TestMacroMetrics:
    def test_perfect_predictions(self):
        assert macro([0, 1, 2, 0], [0, 1, 2, 0], 3) == (1.0, 1.0, 1.0)

    def test_hand_case_two_thirds(self):
        """(P, R) of (1, 0.5) and (0.5, 1) -> per-class F1 = 2/3 each."""
        scores, per_class = per_class_oracle([0, 0, 1], [0, 1, 1], 2)
        assert per_class[0] == (1.0, 0.5)
        assert per_class[1] == (0.5, 1.0)
        assert macro([0, 0, 1], [0, 1, 1], 2) == scores
        assert scores[2] == 2.0 / 3.0

    def test_never_predicted_class_scores_zero(self):
        scores, per_class = per_class_oracle([0, 1, 1], [1, 1, 1], 2)
        assert per_class[0] == (0.0, 0.0)
        assert macro([0, 1, 1], [1, 1, 1], 2) == scores
        assert scores[2] == pytest.approx(0.5 * (0.0 + 2 * (2 / 3) * 1.0 / (2 / 3 + 1.0)))

    def test_class_absent_from_truth_excluded(self):
        # class 2 never appears as a true label; predictions of it only
        # hurt the classes that do appear
        scores, per_class = per_class_oracle([0, 1], [0, 2], 3)
        assert set(per_class) == {0, 1}
        assert macro([0, 1], [0, 2], 3) == scores

    def test_exhaustive_against_confusion_oracle(self):
        """All top-1 assignments for up to 5 classes and 6 items."""
        cases = 0
        for n_classes, n_items in [(2, 6), (3, 5), (4, 4), (5, 4)]:
            true = [i % n_classes for i in range(n_items)]
            for assignment in itertools.product(range(n_classes), repeat=n_items):
                mine = macro(true, assignment, n_classes)
                oracle = confusion_matrix_oracle(true, list(assignment))
                np.testing.assert_allclose(mine, oracle, atol=1e-12)
                cases += 1
        assert cases > 800

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        true = rng.integers(0, 4, 30)
        top1 = rng.integers(0, 4, 30)
        base = macro(true, top1, 4)
        perm = rng.permutation(4)
        relabeled = macro(perm[true], perm[top1], 4)
        np.testing.assert_allclose(base, relabeled, atol=1e-15)


@st.composite
def scored_rows(draw):
    """(logits, labels, ks): integer-valued logits with many ties, or floats
    with signed zeros; down to a single row or a single class; ks at and
    beyond the class count."""
    n_rows, n_classes = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    values = draw(st.sampled_from([
        st.integers(-2, 2).map(float),
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-10, 10, allow_nan=False),
    ]))
    logits = np.array(draw(st.lists(values, min_size=n_rows * n_classes,
                                    max_size=n_rows * n_classes))).reshape(n_rows, n_classes)
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows, max_size=n_rows))
    ks = draw(st.lists(st.integers(1, n_classes + 2), min_size=1, max_size=4, unique=True))
    return logits, np.array(labels), sorted(ks)


class TestAgainstPerPredictionOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=scored_rows())
    def test_report_matches_by_repr(self, case):
        logits, labels, ks = case
        report = compute_report(logits, labels, ks=ks)
        mine = (report.acc_at, report.macro_p, report.macro_r, report.macro_f1)
        assert repr(mine) == repr(report_oracle(logits, labels, ks))


class TestReportSerialization:
    def test_six_decimal_key_value_lines(self, tmp_path):
        report = compute_report(logits_from_top1([0, 1, 1, 1], 2), [0, 0, 1, 1], ks=(1, 2))
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
        assert path.read_text() == format_report(report)
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


# Values whose repr is worth checking: signed zeros, the smallest subnormal,
# integral floats, and both sides of repr's switch to exponent form.
REPR_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -3.0, 1e16, 9999999999999998.0,
                              1e-5, 0.0001, 0.1, 1.7976931348623157e308])


@st.composite
def embedding_matrices(draw):
    """(n, 2d) matrices, in C or Fortran order, whose two halves each take
    their rows from a pool of at most three, one of them possibly all zeros,
    so halves repeat."""
    n, w = draw(st.integers(0, 8)), draw(st.integers(1, 5))
    halves = []
    for _ in range(2):
        row = st.lists(st.one_of(REPR_EDGES, st.floats()), min_size=w, max_size=w)
        pool = draw(st.lists(row, min_size=1, max_size=3))
        if draw(st.booleans()):
            pool.append([0.0] * w)
        picks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        halves.append(np.array(picks, dtype=np.float64).reshape(n, w))
    reps = np.hstack(halves)
    return np.asfortranarray(reps) if draw(st.booleans()) else reps


class TestEmbeddingWriterAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(reps=embedding_matrices())
    @example(reps=np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]))
    @example(reps=np.array([[5e-324, 1e16, 1e-5, 0.0], [5e-324, 1e16, 0.0, 0.0],
                            [1.0, -0.0, 0.0, 0.0]]))
    def test_bytes_match_the_per_float_writer(self, tmp_path_factory, reps):
        """Formatting each distinct half-row once writes the bytes of one repr
        per float, with -0.0 and 0.0 kept apart in one column."""
        root = tmp_path_factory.mktemp("export")
        ids = [f"t{i}" for i in range(len(reps))]
        users = [f"u{i % 3}" for i in range(len(reps))]
        export_embeddings(reps, ids, users, root / "fast.tsv")
        export_embeddings_oracle(reps, ids, users, root / "oracle.tsv")
        assert (root / "fast.tsv").read_bytes() == (root / "oracle.tsv").read_bytes()
