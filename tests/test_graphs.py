"""Graph construction against brute-force oracles, plus serialization."""

import io
import re

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tulink.errors import DataError
from tulink.graphs import (
    _write_coo,
    build_global_graph,
    build_grid_incidence,
    build_local_graph,
    load_global_graph,
    load_local_graph,
    save_global_graph,
    save_local_graph,
    symmetric_normalize,
)

from conftest import make_sequence
from oracles import columns_from_records, global_graph_oracle, write_coo_oracle


def seq(user, interval, grids):
    return make_sequence(user, interval, grids)


def local_oracle(grid_lists, n_grids):
    """Brute-force unordered-pair enumeration, one count per trajectory."""
    dense = np.zeros((n_grids, n_grids), dtype=np.int64)
    for grids in grid_lists:
        seen = set()
        for a, b in zip(grids, grids[1:]):
            if a != b:
                seen.add((min(a, b), max(a, b)))
        for a, b in seen:
            dense[a, b] += 1
            dense[b, a] += 1
    return dense


class TestLocalGraph:
    def test_hand_case(self):
        g = build_local_graph(columns_from_records(
            [seq("a", 0, [1, 2, 3]), seq("b", 0, [1, 2])]), n_grids=5
        )
        dense = g.adjacency.toarray()
        assert dense[1, 2] == 2 and dense[2, 1] == 2
        assert dense[2, 3] == 1 and dense[3, 2] == 1
        assert dense[1, 3] == 0

    def test_consecutive_repeats_make_no_self_edge(self):
        g = build_local_graph(columns_from_records([seq("a", 0, [1, 1, 2])]), n_grids=3)
        dense = g.adjacency.toarray()
        assert dense[1, 1] == 0
        assert dense[1, 2] == 1

    def test_single_point_trajectory_is_edgeless(self):
        g = build_local_graph(columns_from_records([seq("a", 0, [2])]), n_grids=3)
        assert g.adjacency.nnz == 0

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(9)
        n_grids = 30
        grid_lists = [
            rng.integers(0, n_grids, size=rng.integers(1, 15)).tolist()
            for _ in range(60)
        ]
        sequences = [seq(f"u{i}", 0, g) for i, g in enumerate(grid_lists)]
        g = build_local_graph(columns_from_records(sequences), n_grids)
        np.testing.assert_array_equal(
            g.adjacency.toarray(), local_oracle(grid_lists, n_grids)
        )

    def test_symmetric_zero_diagonal(self):
        g = build_local_graph(columns_from_records([seq("a", 0, [0, 1, 2, 0])]), n_grids=4)
        dense = g.adjacency.toarray()
        np.testing.assert_array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)


class TestIncidence:
    def test_rows_are_visited_sets(self):
        inc = build_grid_incidence(columns_from_records([seq("a", 0, [1, 2, 1])]), n_grids=4)
        np.testing.assert_array_equal(inc.toarray(), [[0, 1, 1, 0]])

    def test_every_row_nonempty(self):
        inc = build_grid_incidence(columns_from_records(
            [seq("a", 0, [3]), seq("b", 0, [0, 0])]), n_grids=4
        )
        assert np.all(inc.toarray().sum(axis=1) >= 1)

    def test_row_sums_match_set_oracle(self):
        rng = np.random.default_rng(1)
        grid_lists = [
            rng.integers(0, 20, size=rng.integers(1, 10)).tolist() for _ in range(40)
        ]
        sequences = [seq(f"u{i}", 0, g) for i, g in enumerate(grid_lists)]
        inc = build_grid_incidence(columns_from_records(sequences), 20)
        dense = inc.toarray()
        sums = dense.sum(axis=1)
        for i, grids in enumerate(grid_lists):
            assert sums[i] == len(set(grids))
            np.testing.assert_array_equal(np.flatnonzero(dense[i]), sorted(set(grids)))
        assert inc.nnz == sums.sum() and inc.has_canonical_format


class TestGlobalGraph:
    def _graph(self, grid_lists, labels, n_grids=10):
        sequences = [seq(f"t{i}", 0, g) for i, g in enumerate(grid_lists)]
        ids = [s.traj_id for s in sequences]
        inc = build_grid_incidence(columns_from_records(sequences), n_grids)
        return build_global_graph(inc, ids, {ids[i]: u for i, u in labels.items()}), ids

    def test_hand_case_with_unit_max_weight(self):
        g, _ = self._graph(
            [[0, 1], [1, 2], [2, 3]], labels={0: "ua", 1: "ua", 2: "ub"}
        )
        dense = g.adjacency.toarray()
        assert dense[0, 1] == 1 and dense[1, 2] == 1 and dense[0, 2] == 0
        # trajectory-user edges carry the max trajectory weight (here 1)
        ua, ub = 3 + g.user_ids.index("ua"), 3 + g.user_ids.index("ub")
        assert dense[0, ua] == 1 and dense[1, ua] == 1 and dense[2, ub] == 1
        assert dense[ua, ub] == 0

    def test_identical_trajectories_share_two_grids(self):
        g, _ = self._graph([[0, 1], [0, 1]], labels={0: "ua", 1: "ua"})
        assert g.adjacency.toarray()[0, 1] == 2

    def test_user_feature_is_union_of_training_rows(self):
        g, _ = self._graph([[0, 1], [2, 3], [4]], labels={0: "ua", 1: "ua"})
        feats = g.features.toarray()
        np.testing.assert_array_equal(
            feats[3 + g.user_ids.index("ua")][:5], [1, 1, 1, 1, 0]
        )

    def test_unknown_trajectory_label_rejected(self):
        sequences = [seq("t0", 0, [0, 1])]
        inc = build_grid_incidence(columns_from_records(sequences), 4)
        with pytest.raises(DataError, match="unknown trajectory"):
            build_global_graph(inc, ["t0:0"], {"ghost:0": "ua"})

    def test_product_matches_pairwise_intersections(self):
        """200 random trajectories: C C^T equals the O(n^2) set oracle."""
        rng = np.random.default_rng(14)
        n_grids = 100
        grid_sets = [
            set(rng.integers(0, n_grids, size=rng.integers(1, 12)).tolist())
            for _ in range(200)
        ]
        sequences = [seq(f"t{i}", 0, sorted(s)) for i, s in enumerate(grid_sets)]
        ids = [s.traj_id for s in sequences]
        inc = build_grid_incidence(columns_from_records(sequences), n_grids)
        g = build_global_graph(inc, ids, {ids[0]: "ua"})
        block = g.adjacency.toarray()[:200, :200]
        for i in range(200):
            for j in range(200):
                expected = 0 if i == j else len(grid_sets[i] & grid_sets[j])
                assert block[i, j] == expected

    def test_isolated_trajectory_only_connects_to_its_user(self):
        g, ids = self._graph(
            [[0, 1], [1, 2], [7]], labels={0: "ua", 1: "ub", 2: "uc"}
        )
        dense = g.adjacency.toarray()
        assert dense[2, :3].sum() == 0  # no trajectory neighbors
        assert dense[2].sum() == dense[2, 3 + g.user_ids.index("uc")]

    def test_symmetry_and_zero_diagonal(self):
        g, _ = self._graph([[0, 1], [1, 2], [0, 2]], labels={0: "ua", 1: "ub"})
        dense = g.adjacency.toarray()
        np.testing.assert_array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)


class TestGlobalGraphOracle:
    """The block-matrix build equals the list-and-lil oracle in storage:
    same int64 values, same sorted indices."""

    @staticmethod
    def _check(incidence, labels):
        ids = [f"t{i}:0" for i in range(incidence.shape[0])]
        labels = {ids[i]: user for i, user in labels.items()}
        g = build_global_graph(incidence, ids, labels)
        expected = global_graph_oracle(incidence, ids, labels)
        for got, want in zip((g.adjacency, g.features), expected):
            assert got.dtype == np.int64 and got.shape == want.shape and got.has_sorted_indices
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, part), getattr(want, part))
        return g

    def test_random_incidences_and_label_maps(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            n_traj, n_grids = int(rng.integers(1, 40)), int(rng.integers(1, 30))
            dense = rng.random((n_traj, n_grids)) < rng.uniform(0.02, 0.4)
            labeled = rng.choice(n_traj, size=int(rng.integers(0, n_traj + 1)), replace=False)
            n_users = int(rng.integers(1, 6))
            labels = {int(i): f"u{rng.integers(n_users)}" for i in labeled}
            self._check(sp.csr_matrix(dense.astype(np.int64)), labels)

    def test_no_training_labels(self):
        inc = build_grid_incidence(
            columns_from_records([seq("a", 0, [0, 1]), seq("b", 0, [1, 2])]), 4)
        g = self._check(inc, {})
        assert g.user_ids == [] and g.features.shape == (2, 4)

    def test_disjoint_trajectories_link_users_at_weight_one(self):
        inc = build_grid_incidence(
            columns_from_records([seq(f"t{i}", 0, [2 * i, 2 * i + 1]) for i in range(4)]), 8)
        g = self._check(inc, {0: "ua", 1: "ub", 3: "ua"})
        assert g.max_weight == 1 and g.n_edges == 3


def normalize_oracle_mpmath(dense):
    """Extended-precision D^-1/2 (A + I) D^-1/2 with 50 significant digits."""
    with mpmath.workdps(50):
        n = dense.shape[0]
        a = [[mpmath.mpf(float(dense[i, j])) + (1 if i == j else 0) for j in range(n)]
             for i in range(n)]
        deg = [sum(row) for row in a]
        dinv = [1 / mpmath.sqrt(d) for d in deg]
        return np.array(
            [[float(dinv[i] * a[i][j] * dinv[j]) for j in range(n)] for i in range(n)]
        )


class TestSymmetricNormalize:
    def test_two_node_hand_case(self):
        a = sp.csr_matrix(np.array([[0, 1], [1, 0]]))
        out = symmetric_normalize(a).toarray()
        np.testing.assert_allclose(out, np.full((2, 2), 0.5), atol=1e-12)

    def test_zero_matrix_becomes_identity(self):
        a = sp.csr_matrix((5, 5))
        np.testing.assert_array_equal(symmetric_normalize(a).toarray(), np.eye(5))

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = int(rng.integers(2, 12))
            upper = np.triu(rng.integers(0, 5, size=(k, k)), k=1)
            dense = upper + upper.T
            out = symmetric_normalize(sp.csr_matrix(dense)).toarray()
            np.testing.assert_allclose(
                out, normalize_oracle_mpmath(dense), atol=1e-12, rtol=0
            )

    def test_output_is_exactly_symmetric_in_storage(self):
        rng = np.random.default_rng(2)
        upper = np.triu(rng.integers(0, 7, size=(9, 9)), k=1)
        out = symmetric_normalize(sp.csr_matrix(upper + upper.T))
        dense = out.toarray()
        assert np.array_equal(dense, dense.T)  # bitwise, no tolerance

    def test_asymmetric_input_rejected(self):
        a = sp.csr_matrix(np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_normalize(a)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            symmetric_normalize(sp.csr_matrix((2, 3)))


class TestSerialization:
    def _local(self):
        rng = np.random.default_rng(3)
        sequences = [
            seq(f"u{i}", 0, rng.integers(0, 12, size=6).tolist()) for i in range(8)
        ]
        return build_local_graph(columns_from_records(sequences), 12)

    def _global(self):
        rng = np.random.default_rng(4)
        sequences = [
            seq(f"u{i % 3}", i // 3, rng.integers(0, 12, size=5).tolist())
            for i in range(9)
        ]
        ids = [s.traj_id for s in sequences]
        inc = build_grid_incidence(columns_from_records(sequences), 12)
        labels = {ids[i]: sequences[i].user_id for i in range(6)}
        return build_global_graph(inc, ids, labels)

    def test_local_round_trip_bit_exact(self, tmp_path):
        g = self._local()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_local_graph(g, p1)
        loaded = load_local_graph(p1)
        assert loaded.n_grids == g.n_grids
        np.testing.assert_array_equal(loaded.adjacency.toarray(), g.adjacency.toarray())
        save_local_graph(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_global_round_trip_bit_exact(self, tmp_path):
        g = self._global()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_global_graph(g, p1)
        loaded = load_global_graph(p1)
        assert loaded.traj_ids == g.traj_ids and loaded.user_ids == g.user_ids
        np.testing.assert_array_equal(loaded.adjacency.toarray(), g.adjacency.toarray())
        np.testing.assert_array_equal(loaded.features.toarray(), g.features.toarray())
        save_global_graph(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_carries_stats(self, tmp_path):
        g = self._local()
        save_local_graph(g, tmp_path / "g.txt")
        text = (tmp_path / "g.txt").read_text().splitlines()
        assert text[1] == "kind local"
        assert text[2] == f"nodes {g.n_grids}"
        assert text[3] == f"edges {g.n_edges}"
        assert text[4] == f"max_weight {g.max_weight}"
        assert text[5] == "symmetric 1"

    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_every_cut_is_a_data_error(self, tmp_path, kind):
        graph, save, load = {
            "local": (self._local(), save_local_graph, load_local_graph),
            "global": (self._global(), save_global_graph, load_global_graph),
        }[kind]
        full, cut = tmp_path / "full.txt", tmp_path / "cut.txt"
        save(graph, full)
        data = full.read_bytes()
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(DataError, match=rf"{re.escape(str(cut))}.*'build-graphs'"):
                load(cut)
        loaded = load(full)
        np.testing.assert_array_equal(loaded.adjacency.toarray(), graph.adjacency.toarray())

    def test_corrupt_entry_is_a_data_error(self, tmp_path):
        path = tmp_path / "g.txt"
        save_global_graph(self._global(), path)
        lines = path.read_text().splitlines(keepends=True)
        first_entry = next(i for i, l in enumerate(lines) if l.startswith("matrix")) + 1
        lines[first_entry] = "0 x 1\n"
        path.write_text("".join(lines))
        with pytest.raises(DataError, match="cannot parse"):
            load_global_graph(path)

    def test_roster_must_fit_the_header(self, tmp_path):
        path, g = tmp_path / "g.txt", self._global()
        save_global_graph(g, path)
        text = path.read_text().replace(f"roster {g.n_nodes}\n", f"roster {g.n_nodes - 1}\n")
        path.write_text(text.replace(f"\n{g.user_ids[-1]}\n", "\n", 1))
        with pytest.raises(DataError, match="roster lists"):
            load_global_graph(path)

    def test_local_file_is_not_a_global_graph(self, tmp_path):
        save_local_graph(self._local(), tmp_path / "g.txt")
        with pytest.raises(DataError, match="not a global one"):
            load_global_graph(tmp_path / "g.txt")


@st.composite
def coo_matrices(draw):
    """Integer COO matrices with entries in any order, weights up to past 2**62
    and possibly no entries at all."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = [(r, c) for r in range(n_rows) for c in range(n_cols)]
    kept = draw(st.lists(st.sampled_from(cells), unique=True) if cells else st.just([]))
    weights = st.one_of(st.integers(-3, 9), st.integers(2**62 - 3, 2**62 + 3),
                        st.integers(2**63 - 3, 2**63 - 1))
    w = draw(st.lists(weights, min_size=len(kept), max_size=len(kept)))
    r, c = (np.array([rc[k] for rc in kept], dtype=np.int32) for k in (0, 1))
    return sp.coo_matrix((np.array(w, dtype=np.int64), (r, c)), shape=(n_rows, n_cols))


class TestCooWriter:
    @settings(max_examples=200, deadline=None)
    @given(m=coo_matrices())
    def test_matches_per_entry_writer(self, m):
        fast, slow = io.StringIO(), io.StringIO()
        _write_coo(fast, "adjacency", m)
        write_coo_oracle(slow, "adjacency", m)
        assert fast.getvalue() == slow.getvalue()
