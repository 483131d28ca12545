"""Graph construction against brute-force oracles, plus serialization."""

import hashlib
import json
import re

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tulink import graphs as G
from tulink.errors import DataError
from tulink.graphs import (
    build_global_graph,
    build_grid_incidence,
    build_local_graph,
    load_global_graph,
    load_local_graph,
    save_global_graph,
    save_local_graph,
    symmetric_normalize,
    twin_quotient,
)

from conftest import (GRAPH_CORRUPTIONS, GRAPH_RECORDS, edit_graph_matrix, graph_parts,
                      make_sequence, rewrite_graph)
from oracles import columns_from_records, global_graph_oracle, twin_quotient_oracle


def seq(user, interval, grids):
    return make_sequence(user, interval, grids)


def labelled_graph(incidence, ids, labels, user_ids=None):
    """The global graph of training labels {trajectory row: user id}, over
    ``user_ids`` or else the sorted labelled users."""
    if user_ids is None:
        user_ids = sorted(set(labels.values()))
    train = np.array(list(labels), dtype=np.int64)
    train_users = np.array([user_ids.index(u) for u in labels.values()], dtype=np.int64)
    return build_global_graph(incidence, ids, user_ids, train, train_users)


def box_dense(g):
    """A local graph's adjacency as a dense matrix over every bounding-box
    cell, with zero rows and columns for the unvisited ones."""
    dense = np.zeros((g.n_grids, g.n_grids), dtype=np.int64)
    dense[np.ix_(g.cells, g.cells)] = g.adjacency.toarray()
    return dense


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
        assert g.cells.tolist() == [1, 2, 3] and g.adjacency.shape == (3, 3)
        dense = box_dense(g)
        assert dense[1, 2] == 2 and dense[2, 1] == 2
        assert dense[2, 3] == 1 and dense[3, 2] == 1
        assert dense[1, 3] == 0

    def test_consecutive_repeats_make_no_self_edge(self):
        g = build_local_graph(columns_from_records([seq("a", 0, [1, 1, 2])]), n_grids=3)
        dense = box_dense(g)
        assert dense[1, 1] == 0
        assert dense[1, 2] == 1

    def test_single_point_trajectory_is_edgeless(self):
        g = build_local_graph(columns_from_records([seq("a", 0, [2])]), n_grids=3)
        assert g.cells.tolist() == [2] and g.adjacency.shape == (1, 1)
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
        assert g.cells.tolist() == sorted({c for grids in grid_lists for c in grids})
        np.testing.assert_array_equal(box_dense(g), local_oracle(grid_lists, n_grids))

    def test_far_apart_cells_allocate_nothing_box_sized(self):
        """Two cells 10**17 ids apart: a graph with one node per box cell
        could not be allocated."""
        far = 10**17
        g = build_local_graph(columns_from_records([seq("a", 0, [3, far, 3])]), far + 1)
        assert g.n_grids == far + 1 and g.cells.tolist() == [3, far]
        np.testing.assert_array_equal(g.adjacency.toarray(), [[0, 1], [1, 0]])

    def test_symmetric_zero_diagonal(self):
        g = build_local_graph(columns_from_records([seq("a", 0, [0, 1, 2, 0])]), n_grids=4)
        dense = g.adjacency.toarray()
        np.testing.assert_array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)


class TestIncidence:
    def test_rows_are_visited_sets(self):
        inc = build_grid_incidence(columns_from_records([seq("a", 0, [1, 3, 1]),
                                                         seq("b", 0, [3, 6])]))
        np.testing.assert_array_equal(inc.toarray(), [[1, 1, 0], [0, 1, 1]])

    def test_every_row_nonempty(self):
        inc = build_grid_incidence(columns_from_records([seq("a", 0, [3]), seq("b", 0, [0, 0])]))
        assert np.all(inc.toarray().sum(axis=1) >= 1)

    def test_row_sums_match_set_oracle(self):
        rng = np.random.default_rng(1)
        grid_lists = [
            rng.integers(0, 20, size=rng.integers(1, 10)).tolist() for _ in range(40)
        ]
        sequences = [seq(f"u{i}", 0, g) for i, g in enumerate(grid_lists)]
        inc = build_grid_incidence(columns_from_records(sequences))
        cells = np.unique(np.concatenate(grid_lists))
        dense = inc.toarray()
        sums = dense.sum(axis=1)
        for i, grids in enumerate(grid_lists):
            assert sums[i] == len(set(grids))
            np.testing.assert_array_equal(cells[np.flatnonzero(dense[i])], sorted(set(grids)))
        assert inc.nnz == sums.sum() and inc.has_canonical_format


class TestGlobalGraph:
    def _graph(self, grid_lists, labels):
        sequences = [seq(f"t{i}", 0, g) for i, g in enumerate(grid_lists)]
        ids = [s.traj_id for s in sequences]
        inc = build_grid_incidence(columns_from_records(sequences))
        return labelled_graph(inc, ids, labels), ids

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
        inc = build_grid_incidence(columns_from_records(sequences))
        g = labelled_graph(inc, ids, {0: "ua"})
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

    def test_far_apart_cells_allocate_nothing_box_sized(self):
        """Features have a column per visited cell, cells 3, 5 and 10**17 in
        that order; no product forms an array as long as the box."""
        far = 10**17
        sequences = [seq("a", 0, [3, far]), seq("b", 0, [far]), seq("c", 0, [5])]
        inc = build_grid_incidence(columns_from_records(sequences))
        g = labelled_graph(inc, [s.traj_id for s in sequences], {0: "ua", 1: "ua"})
        assert g.features.shape == (4, 3)
        assert g.features.indices.tolist() == [0, 2, 2, 1, 0, 2]
        assert g.adjacency.toarray().tolist() == [[0, 1, 0, 1], [1, 0, 0, 1], [0, 0, 0, 0],
                                                  [1, 1, 0, 0]]

    def test_feature_columns_are_the_local_graph_nodes(self):
        """Column j of every feature row is the local graph's node j: each
        trajectory's columns name the cells it visits, and each user's the
        cells of their training trajectories."""
        rng = np.random.default_rng(6)
        grid_lists = [(2 * rng.integers(0, 30, size=rng.integers(1, 8)) + 5).tolist()
                      for _ in range(24)]
        sequences = [seq(f"u{i % 4}", i // 4, g) for i, g in enumerate(grid_lists)]
        columns = columns_from_records(sequences)
        local = build_local_graph(columns, 70)
        labels = {i: sequences[i].user_id for i in range(16)}
        g = labelled_graph(build_grid_incidence(columns), columns.traj_ids, labels)
        assert g.features.shape == (24 + 4, len(local.cells)) and local.cells[0] > 0
        for i, grids in enumerate(grid_lists):
            assert local.cells[g.features[i].indices].tolist() == sorted(set(grids))
        for k, user in enumerate(g.user_ids):
            visited = {c for i, u in labels.items() if u == user for c in grid_lists[i]}
            assert local.cells[g.features[24 + k].indices].tolist() == sorted(visited)

    def test_symmetry_and_zero_diagonal(self):
        g, _ = self._graph([[0, 1], [1, 2], [0, 2]], labels={0: "ua", 1: "ub"})
        dense = g.adjacency.toarray()
        np.testing.assert_array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)


class TestGlobalGraphOracle:
    """The block-matrix build equals the list-and-lil oracle in storage:
    same int64 values, same sorted indices."""

    @staticmethod
    def _check(incidence, labels, user_ids=None):
        ids = [f"t{i}:0" for i in range(incidence.shape[0])]
        if user_ids is None:
            user_ids = sorted(set(labels.values()))
        g = labelled_graph(incidence, ids, labels, user_ids)
        expected = global_graph_oracle(incidence, ids, user_ids,
                                       {ids[i]: user for i, user in labels.items()})
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
            # the same labels over a roster that also holds unlabelled users
            self._check(sp.csr_matrix(dense.astype(np.int64)), labels,
                        [f"u{k}" for k in range(n_users + 2)])

    def test_no_training_labels(self):
        inc = build_grid_incidence(
            columns_from_records([seq("a", 0, [0, 1]), seq("b", 0, [1, 2])]))
        g = self._check(inc, {})
        assert g.user_ids == [] and g.features.shape == (2, 3)

    def test_user_without_training_trajectory_is_isolated(self):
        inc = build_grid_incidence(
            columns_from_records([seq("a", 0, [0, 1]), seq("b", 0, [1, 2])]))
        g = self._check(inc, {0: "ua"}, ["ua", "ub"])
        assert g.user_ids == ["ua", "ub"] and g.n_nodes == 4
        assert g.adjacency[3].nnz == 0 and g.features[3].nnz == 0

    def test_disjoint_trajectories_link_users_at_weight_one(self):
        inc = build_grid_incidence(
            columns_from_records([seq(f"t{i}", 0, [2 * i, 2 * i + 1]) for i in range(4)]))
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
        inc = build_grid_incidence(columns_from_records(sequences))
        return labelled_graph(inc, ids, {i: sequences[i].user_id for i in range(6)})

    def test_local_round_trip_bit_exact(self, tmp_path):
        g = self._local()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_local_graph(g, p1)
        loaded = load_local_graph(p1)
        assert loaded.n_grids == g.n_grids
        assert loaded.cells.dtype == np.int64 and np.array_equal(loaded.cells, g.cells)
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

    def _saved(self, kind, path):
        """(graph, loader) of ``kind``, the graph saved at ``path``."""
        graph, save, load = {
            "local": (self._local(), save_local_graph, load_local_graph),
            "global": (self._global(), save_global_graph, load_global_graph),
        }[kind]
        save(graph, path)
        return graph, load

    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_body_is_a_json_header_and_int64_records(self, tmp_path, kind):
        path = tmp_path / "g.txt"
        graph, _ = self._saved(kind, path)
        data = path.read_bytes()
        magic, checksum, body = data.split(b"\n", 2)
        assert magic == b"tulink-graph 4"
        assert checksum == b"sha256 " + hashlib.sha256(body).hexdigest().encode()
        header, records = graph_parts(data)
        assert body.startswith(json.dumps(header, sort_keys=True).encode() + b"\n")
        assert len(records) == len(GRAPH_RECORDS[kind])
        assert all(r.dtype == np.int64 and r.ndim == 1 for r in records)
        parts = dict(zip(GRAPH_RECORDS[kind], records))
        if kind == "local":
            assert header == {"kind": "local", "n_grids": graph.n_grids}
            np.testing.assert_array_equal(parts["cells"], graph.cells)
        else:
            assert header == {"kind": "global", "traj_ids": graph.traj_ids,
                              "user_ids": graph.user_ids,
                              "feature_columns": graph.features.shape[1]}
            for part in ("indices", "indptr"):
                np.testing.assert_array_equal(parts[f"features.{part}"],
                                              getattr(graph.features, part))

    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_each_edge_is_listed_once_above_the_diagonal(self, tmp_path, kind):
        path = tmp_path / "g.txt"
        graph, _ = self._saved(kind, path)
        parts = dict(zip(GRAPH_RECORDS[kind], graph_parts(path.read_bytes())[1]))
        indptr, indices = parts["adjacency.indptr"], parts["adjacency.indices"]
        entries = [(r, int(c), int(w)) for r in range(len(indptr) - 1) for c, w in
                   zip(indices[indptr[r] : indptr[r + 1]],
                       parts["adjacency.data"][indptr[r] : indptr[r + 1]])]
        assert len(entries) == graph.n_edges > 0
        assert entries == sorted(entries) and all(r < c for r, c, _ in entries)
        upper = sp.triu(graph.adjacency, k=1).tocoo()
        assert entries == sorted(zip(upper.row.tolist(), upper.col.tolist(),
                                     upper.data.tolist()))

    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_changed_byte_fails_the_checksum(self, tmp_path, kind):
        """Weights edited in place still read as a valid graph, so only the
        checksum can tell."""
        path = tmp_path / "g.txt"
        _, load = self._saved(kind, path)
        framing = path.read_bytes().split(b"\n", 2)[:2]
        k = GRAPH_RECORDS[kind].index("adjacency.data")
        rewrite_graph(path, lambda header, records: records[k].__imul__(2))
        load(path)
        path.write_bytes(b"\n".join([*framing, path.read_bytes().split(b"\n", 2)[2]]))
        with pytest.raises(DataError, match=rf"{re.escape(str(path))} .*checksum.*'build-graphs'"):
            load(path)
        rewrite_graph(path, lambda header, records: None)
        load(path)

    def test_version_1_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "g.txt"
        save_local_graph(self._local(), path)
        path.write_bytes(b"tulink-graph 1\n" + path.read_bytes().split(b"\n", 2)[2])
        with pytest.raises(DataError, match="graph file of another version"):
            load_local_graph(path)

    def test_version_2_file_is_a_data_error(self, tmp_path):
        """Version 2 held the global features by bounding-box cell id."""
        path = tmp_path / "g.txt"
        save_global_graph(self._global(), path)
        path.write_bytes(b"tulink-graph 2\n" + path.read_bytes().split(b"\n", 1)[1])
        with pytest.raises(DataError, match="graph file of another version"):
            load_global_graph(path)

    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_version_3_file_is_a_data_error(self, tmp_path, kind):
        """Version 3 held each matrix as COO text."""
        path = tmp_path / "g.txt"
        _, load = self._saved(kind, path)
        path.write_bytes(b"tulink-graph 3\n" + path.read_bytes().split(b"\n", 1)[1])
        with pytest.raises(DataError, match=rf"{re.escape(str(path))} .*graph file of another "
                                            r"version.*'build-graphs'"):
            load(path)

    @pytest.mark.parametrize("roster, words", [
        ([5, 3], "ascending"), ([3, 3], "ascending"), ([-1, 3], "ascending"),
        ([3, 12], "below n_grids 12"), ([3, 2**62], "below n_grids 12")])
    def test_local_roster_is_ascending_cells_of_the_box(self, tmp_path, roster, words):
        path = tmp_path / "g.txt"
        graph = build_local_graph(columns_from_records([seq("a", 0, [3, 7])]), 12)
        save_local_graph(graph, path)
        rewrite_graph(path, lambda header, records: records.__setitem__(
            0, np.array(roster, dtype=np.int64)))
        with pytest.raises(DataError, match=rf"{re.escape(str(path))} .*{words}"):
            load_local_graph(path)

    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_every_cut_is_a_data_error(self, tmp_path, kind):
        full, cut = tmp_path / "full.txt", tmp_path / "cut.txt"
        graph, load = self._saved(kind, full)
        data = full.read_bytes()
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(DataError, match=rf"{re.escape(str(cut))}.*'build-graphs'"):
                load(cut)
        loaded = load(full)
        np.testing.assert_array_equal(loaded.adjacency.toarray(), graph.adjacency.toarray())

    @pytest.mark.parametrize("kind, corruption", [
        (kind, name) for kind in ("local", "global") for name, (matrix, _, _)
        in GRAPH_CORRUPTIONS.items() if kind == "global" or matrix == "adjacency"])
    def test_malformed_section_is_a_data_error(self, tmp_path, kind, corruption):
        """An adjacency entry below the diagonal, on it, out of order or
        repeated, a weight that is not positive, or a feature column out of
        order, repeated or past the columns names the file and the stage."""
        matrix, edit, words = GRAPH_CORRUPTIONS[corruption]
        path = tmp_path / "g.txt"
        _, load = self._saved(kind, path)
        load(path)
        edit_graph_matrix(path, matrix, edit)
        with pytest.raises(DataError, match=rf"{re.escape(str(path))} .*{words}.*'build-graphs'"):
            load(path)

    @pytest.mark.parametrize("retype", ["float64", "int32", "uint64", "two-dimensional"])
    @pytest.mark.parametrize("kind, record", [
        (kind, name) for kind, names in GRAPH_RECORDS.items() for name in names])
    def test_record_of_another_type_is_a_data_error(self, tmp_path, kind, record, retype):
        """Each record is one-dimensional int64, even where its values would
        fit another type."""
        path = tmp_path / "g.txt"
        _, load = self._saved(kind, path)
        k = GRAPH_RECORDS[kind].index(record)

        def edit(header, records):
            r = records[k]
            records[k] = r.reshape(1, -1) if retype == "two-dimensional" else r.astype(retype)
        rewrite_graph(path, edit)
        with pytest.raises(DataError, match=rf"{re.escape(str(path))} .*where int64 entries "
                                            r"belong.*'build-graphs'"):
            load(path)

    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_bytes_after_the_last_record_are_a_data_error(self, tmp_path, kind):
        path = tmp_path / "g.txt"
        _, load = self._saved(kind, path)
        rewrite_graph(path, lambda header, records: records.append(bytes(16)))
        with pytest.raises(DataError, match=rf"{re.escape(str(path))} .*16 bytes after its last "
                                            r"record.*'build-graphs'"):
            load(path)

    @pytest.mark.parametrize("kind, matrix", [
        ("local", "adjacency"), ("global", "adjacency"), ("global", "features")])
    def test_entries_past_the_index_pointer_are_a_data_error(self, tmp_path, kind, matrix):
        """One more entry than the index pointer counts, which scipy's own
        format check would drop without a word."""
        path = tmp_path / "g.txt"
        _, load = self._saved(kind, path)
        edit_graph_matrix(path, matrix, lambda m: m.update(
            {part: np.r_[r, 1] for part, r in m.items() if part != "indptr"}))
        with pytest.raises(DataError, match=rf"{matrix} holds \d+ entries, but its index pointer "
                                            r"ends at"):
            load(path)

    def test_roster_must_fit_the_header(self, tmp_path):
        path, g = tmp_path / "g.txt", self._global()
        save_global_graph(g, path)
        rewrite_graph(path, lambda header, records: header["user_ids"].pop())
        with pytest.raises(DataError, match=f"has {g.n_nodes} rows, but the roster has "
                                            f"{g.n_nodes - 1} nodes"):
            load_global_graph(path)

    def test_cells_must_fit_the_adjacency(self, tmp_path):
        path, g = tmp_path / "g.txt", self._local()
        save_local_graph(g, path)
        rewrite_graph(path, lambda header, records: records.__setitem__(0, records[0][:-1]))
        with pytest.raises(DataError, match=f"adjacency has {len(g.cells)} rows, but the roster "
                                            f"has {len(g.cells) - 1} nodes"):
            load_local_graph(path)

    @pytest.mark.parametrize("field", ["traj_ids", "user_ids"])
    @pytest.mark.parametrize("ids", [lambda ids: list(range(len(ids))),
                                     lambda ids: [*ids[:-1], None], lambda ids: "".join(ids),
                                     lambda ids: dict.fromkeys(ids)],
                             ids=["ints", "null", "one-string", "object"])
    def test_ids_are_a_list_of_str(self, tmp_path, field, ids):
        path = tmp_path / "g.txt"
        save_global_graph(self._global(), path)
        rewrite_graph(path, lambda header, records: header.update({field: ids(header[field])}))
        with pytest.raises(DataError, match=rf"{re.escape(str(path))} .*not a list of str ids"):
            load_global_graph(path)

    @pytest.mark.parametrize("kind, field", [("local", "n_grids"), ("global", "feature_columns")])
    @pytest.mark.parametrize("value", ["12", 12.0, True, -1, None])
    def test_header_count_is_a_nonnegative_int(self, tmp_path, kind, field, value):
        path = tmp_path / "g.txt"
        _, load = self._saved(kind, path)
        rewrite_graph(path, lambda header, records: header.update({field: value}))
        with pytest.raises(DataError, match=rf"{re.escape(str(path))} .*holds {field} "
                                            rf"{re.escape(repr(value))}, which is no count"):
            load(path)

    def test_local_file_is_not_a_global_graph(self, tmp_path):
        save_local_graph(self._local(), tmp_path / "g.txt")
        with pytest.raises(DataError, match="not a global one"):
            load_global_graph(tmp_path / "g.txt")


@st.composite
def planted_twins(draw):
    """(M, X) with rows copied from a few templates, M's and X's drawn apart,
    so some nodes share both rows, some only one, and some neither."""
    n = draw(st.integers(1, 9))
    width = draw(st.integers(0, 4))
    entry = st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.7, 1.0])
    m_rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n))
    x_rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                           min_size=1, max_size=n))
    pick_m = draw(st.lists(st.integers(0, len(m_rows) - 1), min_size=n, max_size=n))
    pick_x = draw(st.lists(st.integers(0, len(x_rows) - 1), min_size=n, max_size=n))
    m = np.array([m_rows[k] for k in pick_m]).reshape(n, n)
    x = np.array([x_rows[k] for k in pick_x]).reshape(n, width)
    return sp.csr_matrix(m), sp.csr_matrix(x)


class TestTwinQuotient:
    def _check(self, m, x):
        m_q, x_q, classes = twin_quotient(m, x)
        dm, dx = m.toarray(), x.toarray()
        n = dm.shape[0]
        assert classes.dtype == np.int64 and classes.shape == (n,)
        for i in range(n):
            for j in range(n):
                twins = np.array_equal(dm[i], dm[j]) and np.array_equal(dx[i], dx[j])
                assert (classes[i] == classes[j]) == twins, (i, j)
        k = m_q.shape[0]
        values, first = np.unique(classes, return_index=True)
        assert values.tolist() == list(range(k)) and np.all(np.diff(first) > 0)
        np.testing.assert_array_equal(x_q.toarray(), dx[first])
        membership = np.eye(k)[classes]
        np.testing.assert_allclose(m_q.toarray(), dm[first] @ membership, rtol=1e-15)
        ref_m, ref_x, ref_classes = twin_quotient_oracle(m, x)
        np.testing.assert_array_equal(classes, ref_classes)
        assert (m_q != ref_m).nnz == 0 and (x_q != ref_x).nnz == 0
        if k == n:  # no twins: the graph itself, to the bit
            np.testing.assert_array_equal(classes, np.arange(n))
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(m_q, attr), getattr(m, attr))
        return m_q, x_q, classes

    @settings(max_examples=200, deadline=None)
    @given(mx=planted_twins())
    def test_classes_are_the_nodes_with_equal_rows(self, mx):
        self._check(*mx)

    @settings(max_examples=50, deadline=None)
    @given(mx=planted_twins())
    def test_colliding_keys_are_checked_apart(self, mx):
        """Every proposed class is checked entry by entry, so a projection that
        gives every node one key still yields the true classes."""
        expected = twin_quotient(*mx)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(G, "_row_keys", lambda m, x: np.zeros(m.shape[0]))
            got = self._check(*mx)
        np.testing.assert_array_equal(got[2], expected[2])
        assert (got[0] != expected[0]).nnz == 0

    def test_normalized_graph_without_twins_is_itself(self):
        rng = np.random.default_rng(6)
        upper = np.triu(rng.integers(1, 4, size=(12, 12)) * (rng.random((12, 12)) < 0.4), k=1)
        m = symmetric_normalize(sp.csr_matrix(upper + upper.T))
        x = sp.csr_matrix(np.eye(12))  # one-hot features: no two rows equal
        m_q, x_q, classes = self._check(m, x)
        assert m_q.shape == (12, 12)
