"""Spatial graphs over grids (local) and over trajectories + users (global).

The local graph connects grid cells by consecutive-transition counts across
all trajectories. The global graph is heterogeneous: trajectory nodes for
every split (the model predicts from a node's embedding, so test
trajectories must be present), user nodes attached only to training
trajectories. Both are sparse products of the trajectory-by-grid incidence
C and the user-by-trajectory training-label matrix A, not pairwise scans.
The grid features of the local graph are one-hot, so none are stored.

On-disk format is a line-oriented text file: a small header, the node
roster, then one or two integer COO sections in row-major order. Weights
are integers throughout, so round-trips are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DataError, reading
from .mobility import SequenceColumns

FORMAT_VERSION = 1


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
    n_grids: int
    adjacency: sp.csr_matrix  # int64 weights


@dataclass
class GlobalSpatialGraph(_Weighted):
    traj_ids: list[str]
    user_ids: list[str]
    adjacency: sp.csr_matrix  # (T+U) x (T+U)
    features: sp.csr_matrix   # (T+U) x n_grids multi-hot

    @property
    def n_nodes(self) -> int:
        return len(self.traj_ids) + len(self.user_ids)


def build_local_graph(sequences: SequenceColumns, n_grids: int) -> LocalSpatialGraph:
    """Grid graph weighted by how many trajectories make each transition.

    An unordered grid pair (g, h), g != h, gains weight one per trajectory
    containing at least one consecutive step between g and h in either
    direction. Consecutive repeats of the same grid contribute nothing.
    """
    rows, a, b = sequences.point_rows(), sequences.grid[:-1], sequences.grid[1:]
    step = (rows[1:] == rows[:-1]) & (a != b)  # no step across a sequence boundary
    t, a, b = rows[1:][step], a[step], b[step]
    # one count per trajectory and unordered pair
    _, lo, hi = np.unique([t, np.minimum(a, b), np.maximum(a, b)], axis=1)
    upper = sp.coo_matrix((np.ones(len(lo), dtype=np.int64), (lo, hi)), shape=(n_grids, n_grids))
    adj = (upper + upper.T).tocsr()
    adj.sort_indices()
    return LocalSpatialGraph(n_grids, adj)


def build_grid_incidence(sequences: SequenceColumns, n_grids: int) -> sp.csr_matrix:
    """Binary trajectories-by-grids visitation matrix, rows in sequence order."""
    inc = sp.csr_matrix((np.ones(len(sequences.grid), dtype=np.int64),
                         (sequences.point_rows(), sequences.grid)),
                        shape=(len(sequences), n_grids))
    inc.data[:] = 1  # a revisited grid is still one visit
    inc.sort_indices()
    return inc


def build_global_graph(
    incidence: sp.csr_matrix,
    traj_ids: Sequence[str],
    train_labels: Mapping[str, str],
) -> GlobalSpatialGraph:
    """Heterogeneous trajectory + user graph from the visitation incidence C.

    With A the (users x trajectories) training-label matrix and w the largest
    off-diagonal entry of C C^T (1 when there is none), the adjacency is
    [[C C^T - diag, w A^T], [w A, 0]]: trajectories weigh their shared grids
    (a trajectory's own grid count is self-similarity, not an edge), each
    training trajectory links to its user with weight w, and users get no
    edges among themselves. User feature rows are (A C) > 0, the union of
    their training trajectories' visitation rows, stacked under C.
    """
    n_traj = len(traj_ids)
    if incidence.shape[0] != n_traj:
        raise ValueError(
            f"incidence has {incidence.shape[0]} rows for {n_traj} trajectories"
        )
    index_of = {tid: i for i, tid in enumerate(traj_ids)}
    for tid in train_labels:
        if tid not in index_of:
            raise DataError(f"label references unknown trajectory {tid!r}")
    user_ids = sorted(set(train_labels.values()))
    user_index = {u: k for k, u in enumerate(user_ids)}
    labels = sp.csr_matrix(
        (np.ones(len(train_labels), dtype=np.int64),
         ([user_index[u] for u in train_labels.values()], [index_of[t] for t in train_labels])),
        shape=(len(user_ids), n_traj),
    )

    shared = incidence @ incidence.T
    shared = shared - sp.diags(shared.diagonal(), dtype=np.int64)
    w = int(shared.data.max(initial=0)) or 1
    adj = sp.bmat([[shared, w * labels.T], [w * labels, None]], format="csr", dtype=np.int64)
    adj.sort_indices()
    features = sp.vstack([incidence, labels @ incidence > 0], format="csr", dtype=np.int64)
    features.sort_indices()
    return GlobalSpatialGraph(list(traj_ids), user_ids, adj, features)


def symmetric_normalize(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Self-loop-augmented symmetric normalization D^-1/2 (A + I) D^-1/2.

    Row sums of A + I are at least one, so the result is always finite. The
    per-entry scale is computed as dinv[i] * dinv[j] before multiplying by
    the weight, which keeps the stored matrix exactly symmetric bit for bit.
    """
    n, m = adjacency.shape
    if n != m:
        raise ValueError(f"adjacency must be square, got {n}x{m}")
    if (adjacency != adjacency.T).nnz != 0:
        raise ValueError("adjacency must be symmetric")
    a_tilde = (adjacency.astype(np.float64) + sp.identity(n, format="csr")).tocoo()
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    dinv = 1.0 / np.sqrt(deg)
    data = a_tilde.data * (dinv[a_tilde.row] * dinv[a_tilde.col])
    out = sp.coo_matrix((data, (a_tilde.row, a_tilde.col)), shape=(n, n)).tocsr()
    out.sort_indices()
    return out


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
    """One matrix section with ``nodes`` rows; an adjacency is square."""
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
    out = sp.coo_matrix((w, (r, c)), shape=(int(rows), int(cols))).tocsr()
    out.sort_indices()
    return out


def _save_graph(path: str | Path, header: dict, roster, sections: dict) -> None:
    """A graph file: version line, ``header`` fields, the node roster, one COO
    section per matrix of ``sections``, then ``end``."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"tulink-graph {FORMAT_VERSION}\n")
        fh.write("".join(f"{key} {value}\n" for key, value in header.items()))
        fh.write("symmetric 1\n")
        fh.write(f"roster {len(roster)}\n")
        fh.write("".join(f"{node}\n" for node in roster))
        for name, m in sections.items():
            _write_coo(fh, name, m)
        fh.write("end\n")


def _load_graph(path: str | Path, kind: str, sections: Sequence[str]):
    """Header fields, node roster and matrix sections of a ``kind`` graph file;
    the roster and each section must fit the header's ``nodes``."""
    text = Path(path).read_text(encoding="utf-8")
    if not text.endswith("\nend\n"):  # a cut anywhere loses the closing line
        raise StopIteration
    lines = iter(text.splitlines())
    if next(lines) != f"tulink-graph {FORMAT_VERSION}":
        raise ValueError(f"not a version-{FORMAT_VERSION} graph file")
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
    header = {"kind": "local", "nodes": g.n_grids, "edges": g.n_edges,
              "max_weight": g.max_weight}
    _save_graph(path, header, range(g.n_grids), {"adjacency": g.adjacency})


def load_local_graph(path: str | Path) -> LocalSpatialGraph:
    with reading(path, "build-graphs"):
        header, _, (adj,) = _load_graph(path, "local", ("adjacency",))
        return LocalSpatialGraph(int(header["nodes"]), adj)


def save_global_graph(g: GlobalSpatialGraph, path: str | Path) -> None:
    header = {"kind": "global", "nodes": g.n_nodes, "trajectories": len(g.traj_ids),
              "users": len(g.user_ids), "edges": g.n_edges, "max_weight": g.max_weight}
    _save_graph(path, header, [*g.traj_ids, *g.user_ids],
                {"adjacency": g.adjacency, "features": g.features})


def load_global_graph(path: str | Path) -> GlobalSpatialGraph:
    with reading(path, "build-graphs"):
        header, roster, (adj, features) = _load_graph(path, "global", ("adjacency", "features"))
        n_traj = int(header["trajectories"])
        return GlobalSpatialGraph(roster[:n_traj], roster[n_traj:], adj, features)
