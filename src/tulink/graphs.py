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

On-disk format is a checked file (``container``) whose body is
line-oriented text: a small header, the node roster, then one or two
integer COO sections in row-major order. An adjacency section lists each
undirected edge once, as row < col, and the reader mirrors it. Weights are
integers throughout, so round-trips are exact.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import container
from .errors import reading
from .mobility import SequenceColumns
from .tensor import csr_rows

_FORMAT = container.Format("tulink graph file", "tulink-graph 3", "tulink-graph ")


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
    adj = (upper + upper.T).tocsr()
    adj.sort_indices()
    return LocalSpatialGraph(n_grids, cells, adj)


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

def _write_coo(fh, name: str, m: sp.spmatrix) -> None:
    """One ``matrix`` header line, then one "row col weight" line per entry in
    row-major order, formatted as one string."""
    coo = m.tocoo()
    order = np.lexsort((coo.col, coo.row))
    entries = np.column_stack((coo.row[order], coo.col[order], coo.data[order]))
    fh.write(f"matrix {name} {m.shape[0]} {m.shape[1]} {coo.nnz}\n")
    fh.write(("%d %d %d\n" * coo.nnz) % tuple(entries.astype(np.int64).ravel().tolist()))


def _read_coo(lines, expect_name: str, nodes: int) -> sp.csr_matrix:
    """One matrix section with ``nodes`` rows, its entries strictly ascending
    in (row, col). An adjacency is square and lists each edge once above the
    diagonal with a positive weight; it is returned mirrored."""
    tag, name, rows, cols, nnz = next(lines).split()
    if tag != "matrix" or name != expect_name:
        raise ValueError(f"expected matrix section {expect_name!r}, found {name!r}")
    if int(rows) != nodes or (name == "adjacency" and int(cols) != nodes):
        raise ValueError(f"matrix {name} is {rows} x {cols}, but the header has {nodes} nodes")
    nnz = int(nnz)
    entries = np.empty((0, 3), dtype=np.int64)
    if nnz:  # loadtxt warns on an empty section
        entries = np.loadtxt(itertools.islice(lines, nnz), dtype=np.int64, ndmin=2)
    r, c, w = entries.T
    if name == "adjacency":
        if np.any(w <= 0):
            raise ValueError("adjacency holds a weight that is not positive")
        if np.any(r == c):
            raise ValueError("adjacency has a nonzero diagonal")
        if np.any(r > c):
            raise ValueError("adjacency holds an entry below the diagonal")
    dr, dc = np.diff(r), np.diff(c)
    if np.any((dr < 0) | ((dr == 0) & (dc <= 0))):
        raise ValueError(f"matrix {name} lists an entry out of order or twice")
    if name == "adjacency":
        r, c, w = np.r_[r, c], np.r_[c, r], np.r_[w, w]
    out = sp.coo_matrix((w, (r, c)), shape=(int(rows), int(cols))).tocsr()
    out.sort_indices()
    return out


def _save_graph(path: str | Path, header: dict, roster, sections: dict) -> None:
    """A graph file, a checked file whose body is the ``header`` fields,
    the node roster, one COO section per matrix of ``sections``, then
    ``end``."""
    body = io.StringIO()
    body.write("".join(f"{key} {value}\n" for key, value in header.items()))
    body.write(f"roster {len(roster)}\n")
    body.write("".join(f"{node}\n" for node in roster))
    for name, m in sections.items():
        _write_coo(body, name, m)
    body.write("end\n")
    with container.writing(path, _FORMAT) as fh:
        fh.write(body.getvalue().encode("utf-8"))


def _load_graph(path: str | Path, kind: str, sections: Sequence[str]):
    """Header fields, node roster and matrix sections of a ``kind`` graph file
    whose checksum matches; the roster and each section must fit the
    header's ``nodes``."""
    lines = iter(container.read(path, _FORMAT).read().decode("utf-8").split("\n"))
    header: dict = {}
    for line in lines:
        key, value = line.split(maxsplit=1)
        if key == "roster":
            break
        header[key] = value
    if header["kind"] != kind:
        raise ValueError(f"holds a {header['kind']} graph, not a {kind} one")
    nodes = int(header["nodes"])
    if int(value) != nodes:
        raise ValueError(f"roster lists {value} nodes, but the header has {nodes}")
    roster = [next(lines) for _ in range(nodes)]
    matrices = [_read_coo(lines, name, nodes) for name in sections]
    if next(lines) != "end":
        raise ValueError("matrix sections do not match their sizes")
    return header, roster, matrices


def save_local_graph(g: LocalSpatialGraph, path: str | Path) -> None:
    header = {"kind": "local", "n_grids": g.n_grids, "nodes": len(g.cells),
              "edges": g.n_edges, "max_weight": g.max_weight}
    _save_graph(path, header, g.cells.tolist(), {"adjacency": sp.triu(g.adjacency, k=1)})


def load_local_graph(path: str | Path) -> LocalSpatialGraph:
    with reading(path, "build-graphs"):
        header, roster, (adj,) = _load_graph(path, "local", ("adjacency",))
        n_grids = int(header["n_grids"])
        cells = np.array(roster, dtype=np.int64)
        if np.any(np.diff(cells) <= 0) or (cells.size and (cells[0] < 0 or cells[-1] >= n_grids)):
            raise ValueError(f"roster is not ascending cell ids below n_grids {n_grids}")
        return LocalSpatialGraph(n_grids, cells, adj)


def save_global_graph(g: GlobalSpatialGraph, path: str | Path) -> None:
    header = {"kind": "global", "nodes": g.n_nodes, "trajectories": len(g.traj_ids),
              "users": len(g.user_ids), "edges": g.n_edges, "max_weight": g.max_weight}
    _save_graph(path, header, [*g.traj_ids, *g.user_ids],
                {"adjacency": sp.triu(g.adjacency, k=1), "features": g.features})


def load_global_graph(path: str | Path) -> GlobalSpatialGraph:
    with reading(path, "build-graphs"):
        header, roster, (adj, features) = _load_graph(path, "global", ("adjacency", "features"))
        if np.any(features.data != 1):
            raise ValueError("features hold an entry other than 1")
        n_traj = int(header["trajectories"])
        return GlobalSpatialGraph(roster[:n_traj], roster[n_traj:], adj, features)
