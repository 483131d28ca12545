"""Shared builders for desk-scale model scenarios."""

from __future__ import annotations

import contextlib
import warnings

import numpy as np
import pytest

from tulink.graphs import build_global_graph, build_grid_incidence, build_local_graph
from tulink.mobility import GridSequence, chronological_split
from tulink.model import ModelConfig, ModelParams, build_model_inputs
from tulink.config import seeded_rng

from oracles import columns_from_records

# To print a failing example, hypothesis imports libcst, whose import of
# mypy_extensions.TypedDict warns of a deprecation; under the error filter of
# pyproject.toml that ends the run in an INTERNALERROR hiding the example.
# Importing it here once, with that warning silenced, keeps the report.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def make_sequence(user, interval, grids, states=None, windows=None, t0=None, step=600.0):
    """GridSequence with defaulted annotations for hand-built scenarios."""
    m = len(grids)
    if t0 is None:
        t0 = interval * 21_600.0
    return GridSequence(
        user_id=user,
        interval_index=interval,
        t=[t0 + i * step for i in range(m)],
        grid=list(grids),
        state=list(states) if states is not None else [0] * m,
        window=list(windows) if windows is not None else [i % 4 for i in range(m)],
    )


def graphs_from_sequences(sequences, n_grids):
    """(columns of the sorted sequences, local graph, global graph, split) for
    hand-built sequences, labelled by the chronological training split."""
    columns = columns_from_records(sorted(sequences, key=lambda s: (s.user_id, s.interval_index)))
    split = chronological_split(columns)
    local = build_local_graph(columns, n_grids)
    incidence = build_grid_incidence(columns, n_grids)
    global_g = build_global_graph(incidence, columns.traj_ids, columns.roster, split.train,
                                  columns.user[split.train])
    return columns, local, global_g, split


def inputs_from_sequences(sequences, n_grids):
    """Graphs, labels and normalized matrices for hand-built sequences."""
    sequences, local, global_g, split = graphs_from_sequences(sequences, n_grids)
    return build_model_inputs(sequences, local, global_g), split


def toy_nine_sequences(rng=None, n_grids=9, time_vocab=4):
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
            windows = [int(rng.integers(0, time_vocab)) for _ in grids]
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
    params = ModelParams(
        config,
        n_grids=inputs.n_grids,
        grid_rows=inputs.grid_rows,
        n_users=inputs.n_users,
        max_seq_len=inputs.max_seq_len,
        rng=seeded_rng(123, "init"),
    )
    return params, config, inputs, split
