"""Shared builders for desk-scale model scenarios."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from tulink.graphs import build_global_graph, build_grid_incidence, build_local_graph
from tulink.mobility import GridSequence, chronological_split
from tulink.model import ModelConfig, ModelParams, build_model_inputs
from tulink.config import seeded_rng
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
    incidence = build_grid_incidence(columns, n_grids)
    global_g = build_global_graph(incidence, columns.traj_ids, columns.roster, split.train,
                                  columns.user[split.train])
    return columns, local, global_g, split


def inputs_from_sequences(sequences, n_grids):
    """Graphs, labels and normalized matrices for hand-built sequences."""
    sequences, local, global_g, split = graphs_from_sequences(sequences, n_grids)
    return build_model_inputs(sequences, local, global_g), split


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


def rewrite_graph(path, edit):
    """Rewrite a graph file's lines after its checksum line, and the
    checksum with them, so that its loader reads the edit itself:
    ``edit`` takes the lines (each with its newline) and returns the new
    ones."""
    version, _, body = path.read_bytes().split(b"\n", 2)
    body = "".join(edit(body.decode().splitlines(keepends=True))).encode()
    path.write_bytes(b"%s\nsha256 %s\n%s" % (version, hashlib.sha256(body).hexdigest().encode(),
                                             body))


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


def checkpoint_parts(data):
    """A checkpoint's magic line, its header dict and its records (arrays),
    read without any of the loader's checks."""
    magic, _, body = data.split(b"\n", 2)
    fh = io.BytesIO(body)
    header = json.loads(fh.readline())
    records = []
    while fh.tell() < len(body):
        records.append(np.lib.format.read_array(fh, allow_pickle=False))
    return magic, header, records


# Where each model-input record stands in a checkpoint's records, after the
# parameter arena: each CSR matrix's parts, then the other arrays.
CHECKPOINT_RECORDS = {name: 1 + k for k, name in enumerate(
    [f"{matrix}.{part}" for matrix in ("m_local", "m_global", "x_global")
     for part in ("data", "indices", "indptr")]
    + ["traj_rows", "grid_idx", "state_idx", "times", "lengths", "labels", "grid_rows"])}


def rewrite_checkpoint(path, edit):
    """Rewrite a checkpoint's header and records, and its checksum with them,
    so that its loader reads the edit itself: ``edit`` takes the header dict
    and the list of records and changes them in place. A record given as
    bytes is written as it is."""
    magic, header, records = checkpoint_parts(path.read_bytes())
    edit(header, records)
    fh = io.BytesIO()
    fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
    for record in records:
        if isinstance(record, bytes):
            fh.write(record)
        else:
            np.lib.format.write_array(fh, record, allow_pickle=False)
    body = fh.getvalue()
    path.write_bytes(b"%s\n%s\n%s" % (magic, hashlib.sha256(body).hexdigest().encode(), body))


def npy_record(array, shape, fortran_order=False):
    """``array``'s data under a .npy header that declares ``shape`` and
    ``fortran_order``."""
    fh = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        fh, {"descr": np.lib.format.dtype_to_descr(array.dtype), "fortran_order": fortran_order,
             "shape": shape})
    return fh.getvalue() + array.tobytes()


def parameter_views(header, arena):
    """Each parameter's view of a checkpoint's arena, by name, as its header
    lists them."""
    cuts = np.cumsum([math.prod(shape) for _, shape in header["parameters"]])
    return {name: values.reshape(shape) for (name, shape), values in
            zip(header["parameters"], np.split(arena, cuts[:-1]))}


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
    params = ModelParams.drawn(
        config,
        n_grids=inputs.n_grids,
        grid_rows=inputs.grid_rows,
        n_users=inputs.n_users,
        rng=seeded_rng(123, "init"),
    )
    return params, config, inputs, split
