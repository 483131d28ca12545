"""Shared builders for desk-scale model scenarios."""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from tulink import container, graphs, model
from tulink.graphs import build_global_graph, build_grid_incidence, build_local_graph
from tulink.mobility import GridSequence, chronological_split
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
    """The body of a checked file's bytes as ``container.read`` hands it
    out, its first line and its checksum left unchecked."""
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


def rewrite_graph(path, edit):
    """Rewrite a graph file's body lines under a renewed checksum: ``edit``
    takes the lines (each with its newline) and returns the new ones."""
    reframe(path, graphs._FORMAT,
            lambda body: "".join(edit(body.decode().splitlines(keepends=True))).encode())


def edit_graph_section(path, section, edit):
    """Rewrite one matrix section of a graph file: ``edit`` takes the
    section's [row, col, weight] entries and returns the new ones."""
    def rewrite(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(f"matrix {section} "))
        tag, name, rows, cols, nnz = lines[i].split()
        end = i + 1 + int(nnz)
        entries = edit([[int(v) for v in line.split()] for line in lines[i + 1 : end]])
        lines[i : end] = [f"{tag} {name} {rows} {cols} {len(entries)}\n",
                          *(f"{r} {c} {w}\n" for r, c, w in entries)]
        return lines
    rewrite_graph(path, rewrite)


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


def rewrite_checkpoint(path, edit):
    """Rewrite a checkpoint's header and records under a renewed checksum,
    so that its loader reads the edit itself: ``edit`` takes the header dict
    and the list of records and changes them in place. A record given as
    bytes is written as it is."""
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
    reframe(path, model._FORMAT, rewrite)


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


def _set_first(weight):
    def edit(entries):
        entries[0][2] = weight
        return entries
    return edit


def _bump_first(entries):
    entries[0][2] += 1
    return entries


def _mirror_first(entries):
    """The first edge listed as its mirror image, below the diagonal."""
    (r, c, w), *rest = entries
    return [[c, r, w], *rest]


def _swap_first_two(entries):
    return [entries[1], entries[0], *entries[2:]]


# Corruptions of a graph file's sections that its loader rejects, as
# (section, edit, the ValueError's words). An adjacency section lists each
# edge once, above the diagonal, so a pair's weight is its one entry's. Each
# edit rewrites the checksum.
GRAPH_CORRUPTIONS = {
    "asymmetric": ("adjacency", _mirror_first, "below the diagonal"),
    "negative_pair": ("adjacency", _set_first(-9), "not positive"),
    "zero_pair": ("adjacency", _set_first(0), "not positive"),
    "self_loop": ("adjacency", lambda e: [[e[0][0], e[0][0], 1], *e], "nonzero diagonal"),
    "repeated_edge": ("adjacency", lambda e: [e[0], *e], "out of order or twice"),
    "edges_out_of_order": ("adjacency", _swap_first_two, "out of order or twice"),
    "feature_of_two": ("features", _bump_first, "other than 1"),
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
