"""Shared builders for desk-scale model scenarios."""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from tulink import container, graphs, mobility, model
from tulink.graphs import build_global_graph, build_grid_incidence, build_local_graph
from tulink.mobility import GridSequence, SequenceColumns, chronological_split, save_sequences
from tulink.model import ModelConfig, ModelParams, build_model_inputs, parameter_shapes
from tulink.config import seeded_rng
from tulink.train import train
from tulink.tensor import Tape, Tensor, recording

from oracles import columns_from_records, matmul, reshape

# To print a failing example, hypothesis imports libcst, whose import of
# mypy_extensions.TypedDict warns of a deprecation; under the error filter of
# pyproject.toml that ends the run in an INTERNALERROR hiding the example.
# Importing it here once, with that warning silenced, keeps the report.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def make_sequence(user, interval, grids, states=None, windows=None):
    """GridSequence with defaulted annotations for hand-built scenarios, on day
    ``interval``: point i lies i minutes into window ``windows[i]`` of a day
    of 4 windows (i % 4 by default). So its times need not ascend, which no
    stage after preprocess reads."""
    m = len(grids)
    windows = windows if windows is not None else [i % 4 for i in range(m)]
    return GridSequence(
        user_id=user,
        interval_index=interval,
        t=[interval * 86_400.0 + w * 21_600.0 + 60.0 * i for i, w in enumerate(windows)],
        grid=list(grids),
        state=list(states) if states is not None else [0] * m,
    )


def graphs_from_sequences(sequences, n_grids):
    """(columns of the sorted sequences, local graph, global graph, split) for
    hand-built sequences, labelled by the chronological training split."""
    columns = columns_from_records(sorted(sequences, key=lambda s: (s.user_id, s.interval_index)))
    split = chronological_split(columns.user)
    local = build_local_graph(columns, n_grids)
    incidence = build_grid_incidence(columns)
    global_g = build_global_graph(incidence, columns.traj_ids, columns.roster, split.train,
                                  columns.user[split.train])
    return columns, local, global_g, split


def inputs_from_sequences(sequences, n_grids):
    """Graphs, labels and normalized matrices for hand-built sequences."""
    sequences, local, global_g, split = graphs_from_sequences(sequences, n_grids)
    return build_model_inputs(sequences, local, global_g), split


def fresh_params(config, inputs, seed, local=None):
    """The parameters the train stage starts from at ``seed``: drawn for
    ``local``'s cells in its bounding box or, by default, for grid rows that
    are the whole box."""
    n = inputs.m_local.shape[0]
    n_grids, cells = (local.n_grids, local.cells) if local is not None else (n, np.arange(n))
    return ModelParams.drawn(config, n_grids, cells, inputs.n_users, seeded_rng(seed, "init"))


def fit(inputs, split, config, train_config, local=None):
    """``train`` from the parameters the train stage draws
    (``fresh_params``)."""
    return train(fresh_params(config, inputs, train_config.seed, local), inputs, split,
                 train_config)


def toy_nine_sequences(rng=None, n_grids=9):
    """Three users with three sub-trajectories each over a 3x3 grid strip.

    Each user circulates within their own three-grid column, with a little
    cross-user overlap so the global graph is connected.
    """
    rng = rng or np.random.default_rng(0)
    sequences = []
    for u in range(3):
        base = 3 * u
        for j in range(3):
            grids = [base, base + 1, (base + 2) % n_grids, base]
            states = [int(rng.integers(0, 9)) for _ in grids]
            windows = [int(rng.integers(0, 4)) for _ in grids]
            sequences.append(
                make_sequence(f"u{u}", j, grids, states, windows)
            )
    return sequences


def on_odd_cells(sequences):
    """The sequences with grid g moved to cell 2g + 1, so that cell 0 and
    every even cell go unvisited."""
    for s in sequences:
        s.grid = [2 * g + 1 for g in s.grid]
    return sequences


def gcn_and_grads(gcn, m, features, weights, rows, upstream):
    """Output values and every weight's gradient under an upstream gradient
    that reaches the output exactly as given."""
    ws = [Tensor(w.copy(), requires_grad=True) for w in weights]
    tape = Tape()
    with recording(tape):
        out = gcn(m, features, ws, rows)
        loss = matmul(reshape(out, (1, out.values.size)), Tensor(upstream.reshape(-1, 1)))
    tape.backward(loss)
    return out.values, [w.grad for w in ws]


def checked_body(data):
    """The body of a checked file's bytes as ``container.read_records``
    parses it, its first line and its checksum left unchecked."""
    body = container.Body(data)
    body.seek(data.index(b"\n", data.index(b"\n") + 1) + 1)
    return body


def reframe(path, fmt, edit):
    """Rewrite the body of the checked file of format ``fmt`` at ``path``,
    and its checksum with it, so that its loader reads the edit itself:
    ``edit`` takes the body's bytes and returns the new ones."""
    body = edit(checked_body(path.read_bytes()).read())
    with container.writing(path, fmt) as fh:
        fh.write(body)


def _header_and_records(body):
    header = json.loads(body.readline())
    records = []
    while body.left:
        records.append(body.record())
    return header, records


def checkpoint_parts(data):
    """A checkpoint's magic line, its header dict and its records (arrays),
    read without any of the loader's checks but the records' own bounds."""
    return (data[: data.index(b"\n")], *_header_and_records(checked_body(data)))


# Where each model-input record stands in a checkpoint's records, after the
# parameter arena: each CSR matrix's parts, then the other arrays.
CHECKPOINT_RECORDS = {name: 1 + k for k, name in enumerate(
    [f"{matrix}.{part}" for matrix in ("m_local", "m_global", "x_global")
     for part in ("data", "indices", "indptr")]
    + ["traj_rows", "grid_idx", "state_idx", "times", "lengths", "labels"])}


def rewrite_records(path, fmt, edit):
    """Rewrite the header and records of the checked file of format ``fmt``
    at ``path`` under a renewed checksum, so that its loader reads the edit
    itself: ``edit`` takes the header dict and the list of records and
    changes them in place. A record given as bytes is written as it is."""
    def rewrite(body):
        header, records = _header_and_records(container.Body(body))
        edit(header, records)
        fh = io.BytesIO()
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for record in records:
            if isinstance(record, bytes):
                fh.write(record)
            else:
                np.lib.format.write_array(fh, record, allow_pickle=False)
        return fh.getvalue()
    reframe(path, fmt, rewrite)


def rewrite_checkpoint(path, edit):
    """``rewrite_records`` on a checkpoint."""
    rewrite_records(path, model._FORMAT, edit)


def rewrite_graph(path, edit):
    """``rewrite_records`` on a graph file."""
    rewrite_records(path, graphs._FORMAT, edit)


def rewrite_sequences(path, edit):
    """``rewrite_records`` on a sequence file."""
    rewrite_records(path, mobility._FORMAT, edit)


# A sequence file's records, in file order.
SEQUENCE_RECORDS = list(mobility._RECORDS)


def sequence_parts(data):
    """A sequence file's bytes as the SequenceColumns its header and records
    hold, read without any of the loader's checks but the records' own
    bounds."""
    header, records = _header_and_records(checked_body(data))
    return SequenceColumns(header["roster"], *records)


def edit_trajectories(path, edit):
    """Rewrite the sequence file at ``path`` as a list of GridSequence
    records: ``edit`` changes the list in place, and ``save_sequences``
    writes what it leaves, in its order and with no check."""
    sequences = list(sequence_parts(path.read_bytes()))
    edit(sequences)
    save_sequences(columns_from_records(sequences), path)


def graph_parts(data):
    """A graph file's header dict and its records, read without any of the
    loader's checks but the records' own bounds."""
    return _header_and_records(checked_body(data))


# Each graph file's records, in file order, by the graph's kind.
GRAPH_RECORDS = {
    "local": ["cells", "adjacency.data", "adjacency.indices", "adjacency.indptr"],
    "global": ["adjacency.data", "adjacency.indices", "adjacency.indptr", "features.indices",
               "features.indptr"],
}


def edit_graph_matrix(path, matrix, edit):
    """Rewrite one matrix of a graph file: ``edit`` takes a dict of its CSR
    records by part ("indices", "indptr" and, for an adjacency, "data") and
    changes or replaces them in place."""
    def rewrite(header, records):
        at = {name.split(".")[1]: k for k, name in enumerate(GRAPH_RECORDS[header["kind"]])
              if name.startswith(f"{matrix}.")}
        parts = {part: records[k] for part, k in at.items()}
        edit(parts)
        for part, k in at.items():
            records[k] = parts[part]
    rewrite_graph(path, rewrite)


def npy_record(array, shape, fortran_order=False):
    """``array``'s data under a .npy header that declares ``shape`` and
    ``fortran_order``."""
    fh = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        fh, {"descr": np.lib.format.dtype_to_descr(array.dtype), "fortran_order": fortran_order,
             "shape": shape})
    return fh.getvalue() + array.tobytes()


def parameter_views(header, records):
    """Each parameter's view of a checkpoint's arena, its first record, by
    name, laid out as the loader lays it out: by the header's model settings,
    the rows of m_local (an indptr entry each, but the last) and the
    users."""
    shapes = list(parameter_shapes(ModelConfig(**header["model"]),
                                   len(records[CHECKPOINT_RECORDS["m_local.indptr"]]) - 1,
                                   len(header["user_ids"])))
    cuts = np.cumsum([math.prod(shape) for _, shape in shapes])
    return {name: values.reshape(shape) for (name, shape), values in
            zip(shapes, np.split(records[0], cuts[:-1]))}


def _row_start(indptr, least=1, first_row=0):
    """The first entry of the first row from ``first_row`` on that holds at
    least ``least`` entries, and that row."""
    counts = np.diff(indptr)
    row = next(r for r in range(first_row, len(counts)) if counts[r] >= least)
    return indptr[row], row


def _set_first_weight(weight):
    def edit(m):
        m["data"][0] = weight
    return edit


def _to_column(offset):
    """The first entry of a row past the first moved to the column of its
    row plus ``offset``, below every other entry of the row."""
    def edit(m):
        at, row = _row_start(m["indptr"], first_row=1)
        m["indices"][at] = row + offset
    return edit


def _repeat_in_row(m):
    at, _ = _row_start(m["indptr"], least=2)
    m["indices"][at + 1] = m["indices"][at]


def _swap_in_row(m):
    at, _ = _row_start(m["indptr"], least=2)
    m["indices"][[at, at + 1]] = m["indices"][[at + 1, at]]


def _past_the_columns(m):
    m["indices"][-1] = 10**6


# Corruptions of a graph file's matrices that its loader rejects, as
# (matrix, edit, the ValueError's words). An adjacency holds each edge once,
# above the diagonal, so a pair's weight is its one entry's. The features
# store no values, so an entry of two is a column listed twice in its row.
# Each edit rewrites the checksum.
GRAPH_CORRUPTIONS = {
    "asymmetric": ("adjacency", _to_column(-1), "below the diagonal"),
    "negative_pair": ("adjacency", _set_first_weight(-9), "not positive"),
    "zero_pair": ("adjacency", _set_first_weight(0), "not positive"),
    "self_loop": ("adjacency", _to_column(0), "on or below the diagonal"),
    "repeated_edge": ("adjacency", _repeat_in_row, "out of order or twice"),
    "edges_out_of_order": ("adjacency", _swap_in_row, "out of order or twice"),
    "feature_of_two": ("features", _repeat_in_row, "out of order or twice"),
    "features_out_of_order": ("features", _swap_in_row, "out of order or twice"),
    "feature_past_the_columns": ("features", _past_the_columns, "indices must be <"),
}


# Tape ops of one training step (forward_batch and model_loss, dropout on)
# per variant, as (fixed, per attention layer).
STEP_OPS = {"": (19, 5), "tul-ea": (19, 5), "tul-ts": (17, 5), "tul-g": (16, 5),
            "tul-sa": (18, 0), "tul-l": (9, 0)}


def small_config(**overrides):
    base = dict(
        embed_dim=8,
        heads=2,
        gcn_layers=2,
        attn_layers=1,
        dropout_rate=0.0,
        lambda_l2=5e-4,
        time_vocab=4,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def toy_model_setup():
    """(params, config, inputs, split) for a 3-user, 9-trajectory scenario."""
    config = small_config()
    inputs, split = inputs_from_sequences(toy_nine_sequences(), n_grids=9)
    return fresh_params(config, inputs, 123), config, inputs, split
