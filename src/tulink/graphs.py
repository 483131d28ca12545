"""Spatial graphs over grids (local) and over trajectories + users (global).

The local graph connects grid cells by consecutive-transition counts across
all trajectories. The global graph is heterogeneous: trajectory nodes for
every split (the model predicts from a node's embedding, so test
trajectories must be present), user nodes attached only to training
trajectories. Both are sparse products of the trajectory-by-grid incidence
C and the user-by-trajectory training-label matrix A, not pairwise scans.
The local graph's nodes are the visited grid cells, in ascending id order,
and every later structure indexes a cell by its node row: the global
features' columns are those rows too. An unvisited cell would be an
isolated node, so nothing is sized by the bounding box. The grid features
of the local graph are one-hot, so none are stored. ``twin_quotient``
merges the global nodes whose graph and feature rows are equal, which
every GCN layer maps to equal rows.

On-disk format is a checked file (``container``) whose body is a JSON
header line (the kind, then ``n_grids`` or the ids and the features' column
count), then int64 records (``_RECORDS``): the local graph's ``cells``, each
adjacency's strict upper triangle as CSR data, indices and indptr, which the
reader mirrors, and the global features, all 1, as CSR indices and indptr.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import container
from .errors import reading
from .mobility import SequenceColumns
from .tensor import csr_rows

_FORMAT = container.Format("tulink graph file", "tulink-graph 4", "tulink-graph ")


class _Weighted:
    """Edges and largest weight of a symmetric, zero-diagonal ``adjacency``."""

    @property
    def n_edges(self) -> int:
        return self.adjacency.nnz // 2

    @property
    def max_weight(self) -> int:
        return int(self.adjacency.data.max()) if self.adjacency.nnz else 0


@dataclass
class LocalSpatialGraph(_Weighted):
    n_grids: int  # bounding-box cells
    cells: np.ndarray  # ascending bounding-box ids of the visited cells, the nodes
    adjacency: sp.csr_matrix  # int64 weights, nodes in ``cells`` order


@dataclass
class GlobalSpatialGraph(_Weighted):
    traj_ids: list[str]
    user_ids: list[str]
    adjacency: sp.csr_matrix  # (T+U) x (T+U)
    features: sp.csr_matrix   # (T+U) x local graph nodes, multi-hot

    @property
    def n_nodes(self) -> int:
        return len(self.traj_ids) + len(self.user_ids)


def build_local_graph(sequences: SequenceColumns, n_grids: int) -> LocalSpatialGraph:
    """Grid graph over the visited cells, weighted by how many trajectories
    make each transition.

    An unordered grid pair (g, h), g != h, gains weight one per trajectory
    containing at least one consecutive step between g and h in either
    direction. Consecutive repeats of the same grid contribute nothing.
    """
    cells, grid = _node_rows(sequences)
    rows, a, b = sequences.point_rows(), grid[:-1], grid[1:]
    step = (rows[1:] == rows[:-1]) & (a != b)  # no step across a sequence boundary
    t, a, b = rows[1:][step], a[step], b[step]
    # one count per trajectory and unordered pair
    _, lo, hi = np.unique([t, np.minimum(a, b), np.maximum(a, b)], axis=1)
    upper = sp.coo_matrix((np.ones(len(lo), dtype=np.int64), (lo, hi)),
                          shape=(len(cells), len(cells)))
    return LocalSpatialGraph(n_grids, cells, _symmetric(upper))


def _symmetric(upper: sp.spmatrix) -> sp.csr_matrix:
    """The symmetric canonical CSR matrix whose strict upper triangle is ``upper``."""
    adj = (upper + upper.T).tocsr()
    adj.sort_indices()
    return adj


def _node_rows(sequences: SequenceColumns) -> tuple[np.ndarray, np.ndarray]:
    """The local graph's nodes, the visited cells in ascending id order, and
    each point's node row."""
    return np.unique(sequences.grid, return_inverse=True)


def build_grid_incidence(sequences: SequenceColumns) -> sp.csr_matrix:
    """Binary trajectories-by-nodes visitation matrix, rows in sequence order
    and columns the local graph's node rows."""
    cells, cols = _node_rows(sequences)
    inc = sp.csr_matrix((np.ones(len(cols), dtype=np.int64), (sequences.point_rows(), cols)),
                        shape=(len(sequences), len(cells)))
    inc.data[:] = 1  # a revisited grid is still one visit
    inc.sort_indices()
    return inc


def build_global_graph(
    incidence: sp.csr_matrix,
    traj_ids: list[str],
    user_ids: list[str],
    train: np.ndarray,
    train_users: np.ndarray,
) -> GlobalSpatialGraph:
    """Heterogeneous trajectory + user graph from the visitation incidence C.

    Training trajectory ``train[k]`` (a row of C) belongs to user
    ``user_ids[train_users[k]]``. With A the (users x trajectories)
    training-label matrix and w the largest off-diagonal entry of C C^T (1
    when there is none), the adjacency is [[C C^T - diag, w A^T], [w A, 0]]:
    trajectories weigh their shared grids (a trajectory's own grid count is
    self-similarity, not an edge), each training trajectory links to its
    user with weight w, and users get no edges among themselves. User
    feature rows are (A C) > 0, the union of their training trajectories'
    visitation rows, stacked under C.
    """
    n_traj = len(traj_ids)
    if incidence.shape[0] != n_traj:
        raise ValueError(
            f"incidence has {incidence.shape[0]} rows for {n_traj} trajectories"
        )
    labels = sp.csr_matrix((np.ones(len(train), dtype=np.int64), (train_users, train)),
                           shape=(len(user_ids), n_traj))

    shared = incidence @ incidence.T
    shared = shared - sp.diags(shared.diagonal(), dtype=np.int64)
    w = int(shared.data.max(initial=0)) or 1
    adj = sp.bmat([[shared, w * labels.T], [w * labels, None]], format="csr", dtype=np.int64)
    adj.sort_indices()
    unions = (labels @ incidence).tocsr()
    unions.data[:] = 1
    features = sp.vstack([incidence, unions], format="csr", dtype=np.int64)
    features.sort_indices()
    return GlobalSpatialGraph(list(traj_ids), list(user_ids), adj, features)


def symmetric_normalize(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Self-loop-augmented symmetric normalization D^-1/2 (A + I) D^-1/2 of
    a symmetric A with positive weights, as the graph loaders check.

    Row sums of A + I are at least one, so the result is always finite. The
    per-entry scale is computed as dinv[i] * dinv[j] before multiplying by
    the weight, which keeps the stored matrix exactly symmetric bit for bit.
    """
    n, m = adjacency.shape
    if n != m:
        raise ValueError(f"adjacency must be square, got {n}x{m}")
    a_tilde = (adjacency.astype(np.float64) + sp.identity(n, format="csr")).tocoo()
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    dinv = 1.0 / np.sqrt(deg)
    data = a_tilde.data * (dinv[a_tilde.row] * dinv[a_tilde.col])
    out = sp.coo_matrix((data, (a_tilde.row, a_tilde.col)), shape=(n, n)).tocsr()
    out.sort_indices()
    return out


def _row_keys(m: sp.csr_matrix, x: sp.csr_matrix) -> np.ndarray:
    """One float per node, the same bits for nodes whose M and X rows are equal
    entry for entry: each row's products with fixed random vectors."""
    rng = np.random.default_rng(0)
    return m @ rng.random(m.shape[1]) + x @ rng.random(x.shape[1])


def _rows_equal(a: sp.csr_matrix, rows: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Whether CSR row rows[j] of ``a`` equals row heads[j] entry for entry,
    for each j."""
    counts = np.diff(a.indptr)
    same = counts[rows] == counts[heads]
    pairs = np.flatnonzero(same & (rows != heads))
    n = counts[rows[pairs]]
    run = np.arange(n.sum())  # each pair's entries in turn
    start = np.cumsum(n) - n
    at = run + np.repeat(a.indptr[rows[pairs]] - start, n)
    ref = run + np.repeat(a.indptr[heads[pairs]] - start, n)
    differs = (a.indices[at] != a.indices[ref]) | (a.data[at] != a.data[ref])
    if differs.any():
        same[pairs[np.searchsorted(start, run[differs], side="right") - 1]] = False
    return same


def twin_quotient(m: sp.csr_matrix,
                  x: sp.csr_matrix) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """The GCN graph over twin classes: nodes whose rows of the propagation
    matrix ``m`` and of the features ``x`` are equal entry for entry (both
    canonical CSR). Returns (M_q, X_q, the class of every node).

    Classes are numbered by their first member. X_q holds the first members'
    feature rows, and M_q their rows R of ``m`` with the columns of each class
    summed, in ascending node order. With P the node-by-class membership
    matrix, M = P R, X = P X_q and M_q = R P. So ReLU(M H W) = P ReLU(M_q H_q
    W) whenever H = P H_q: every GCN layer's output is P times the
    quotient's. With no twins, M_q is ``m`` to the bit.

    Random projections of the rows propose the classes; each node is then
    checked entry by entry against its class's first member, and nodes that
    fail are grouped again among themselves.
    """
    n = m.shape[0]
    keys = _row_keys(m, x)
    todo = np.argsort(keys)
    first = np.empty(n, dtype=np.int64)  # each node's class's first member
    while todo.size:
        k = keys[todo]
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        heads = np.repeat(np.minimum.reduceat(todo, starts), np.diff(np.r_[starts, len(todo)]))
        same = _rows_equal(m, todo, heads) & _rows_equal(x, todo, heads)
        first[todo[same]] = heads[same]
        todo = todo[~same]
    is_first = first == np.arange(n)
    members = np.flatnonzero(is_first)
    classes = (np.cumsum(is_first) - 1)[first]
    membership = sp.csr_matrix((np.ones(n), classes, np.arange(n + 1)),
                               shape=(n, len(members)))
    m_q = csr_rows(m, members) @ membership  # sums each row's entries in column order
    m_q.sort_indices()
    return m_q, csr_rows(x, members), classes


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# Each kind of graph file's records, in file order, all int64.
_RECORDS = {kind: dict.fromkeys(names, np.int64) for kind, names in {
    "local": ["cells", "adjacency.data", "adjacency.indices", "adjacency.indptr"],
    "global": ["adjacency.data", "adjacency.indices", "adjacency.indptr", "features.indices",
               "features.indptr"]}.items()}


def _load_graph(path: str | Path, kind: str) -> tuple[dict, list[np.ndarray]]:
    """The header and the records of a ``kind`` graph file; one of the other
    kind is named as such."""
    header, records = container.read_records(path, _FORMAT,
                                             lambda header: _RECORDS[header["kind"]])
    if header["kind"] != kind:
        raise ValueError(f"holds a {header['kind']} graph, not a {kind} one")
    return header, records


def _count(header: dict, key: str) -> int:
    value = header[key]
    if type(value) is not int or value < 0:
        raise ValueError(f"holds {key} {value!r}, which is no count")
    return value


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of each entry of a CSR matrix."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _upper_records(adjacency: sp.csr_matrix) -> tuple[np.ndarray, ...]:
    """An adjacency's strict upper triangle, each edge once, as CSR data,
    indices and indptr."""
    above = adjacency.indices > _entry_rows(adjacency.indptr)
    kept = np.r_[0, np.cumsum(above)]  # entries above the diagonal before each entry
    return adjacency.data[above], adjacency.indices[above], kept[adjacency.indptr]


def _adjacency(data, indices, indptr, nodes: int) -> sp.csr_matrix:
    """The symmetric adjacency whose strict upper triangle the records hold,
    each entry above the diagonal with a positive weight."""
    upper = container.csr("adjacency", data, indices, indptr, (nodes, nodes))
    if np.any(data <= 0):
        raise ValueError("adjacency holds a weight that is not positive")
    if np.any(indices <= _entry_rows(indptr)):
        raise ValueError("adjacency holds an entry on or below the diagonal")
    return _symmetric(upper)


def save_local_graph(g: LocalSpatialGraph, path: str | Path) -> None:
    container.write(path, _FORMAT, {"kind": "local", "n_grids": g.n_grids},
                    [g.cells, *_upper_records(g.adjacency)], _RECORDS["local"])


def load_local_graph(path: str | Path) -> LocalSpatialGraph:
    with reading(path, "build-graphs"):
        header, (cells, *upper) = _load_graph(path, "local")
        n_grids = _count(header, "n_grids")
        if np.any(np.diff(cells) <= 0) or (cells.size and (cells[0] < 0 or cells[-1] >= n_grids)):
            raise ValueError(f"roster is not ascending cell ids below n_grids {n_grids}")
        return LocalSpatialGraph(n_grids, cells, _adjacency(*upper, len(cells)))


def save_global_graph(g: GlobalSpatialGraph, path: str | Path) -> None:
    header = {"kind": "global", "traj_ids": g.traj_ids, "user_ids": g.user_ids,
              "feature_columns": g.features.shape[1]}
    container.write(path, _FORMAT, header,
                    [*_upper_records(g.adjacency), g.features.indices, g.features.indptr],
                    _RECORDS["global"])


def load_global_graph(path: str | Path) -> GlobalSpatialGraph:
    with reading(path, "build-graphs"):
        header, (*upper, indices, indptr) = _load_graph(path, "global")
        traj_ids, user_ids = header["traj_ids"], header["user_ids"]
        for ids in (traj_ids, user_ids):
            if type(ids) is not list or set(map(type, ids)) - {str}:
                raise ValueError("roster is not a list of str ids")
        nodes = len(traj_ids) + len(user_ids)
        features = container.csr("features", np.ones(len(indices), dtype=np.int64), indices,
                                 indptr, (nodes, _count(header, "feature_columns")))
        return GlobalSpatialGraph(traj_ids, user_ids, _adjacency(*upper, nodes), features)
