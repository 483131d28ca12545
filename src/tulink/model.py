"""The trajectory-user linking network.

Two graph convolution encoders produce grid embeddings (local graph) and
trajectory/user embeddings (global graph); the global one runs once per
twin class of nodes with equal graph and feature rows, which gives every
node its full-graph row. Each trajectory point is encoded by fusing its
time-window and motion-state embeddings with its grid embedding, the
window being its time of day in ``ModelConfig.time_vocab`` windows; a stack
of multi-head self-attention layers with sinusoidal position encoding
summarizes the sequence, max-pooled into the local representation. The
global representation is a sparsemax-weighted sum of all trajectory
embeddings scored by cosine similarity, computed over the trajectories'
twin classes, each weighted by its count of trajectories. Both halves
concatenate into an affine linking layer over users, trained with softmax
cross entropy plus L2 on the weight matrices.

``ModelConfig.ablation`` names one of the paper's variants in ``ABLATIONS``,
each of which removes one component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from . import tensor as T
from .errors import ConfigError, DataError
from .graphs import GlobalSpatialGraph, LocalSpatialGraph, symmetric_normalize, twin_quotient
from .mobility import (MOTION_STATES, SECONDS_PER_DAY, SequenceColumns, time_window_vocab,
                       time_windows)
from .tensor import Tensor

COSINE_EPS = 1e-12

# The paper's ablation variants by name, each with what it removes.
ABLATIONS = {
    "tul-l": "the local branch",
    "tul-g": "the global branch",
    "tul-sa": "the self-attention stack (a pass-through instead)",
    "tul-ea": "sparsemax from global attention (softmax instead)",
    "tul-ts": "the time and motion-state encoders (zero sub-vectors instead)",
}


@dataclass
class ModelConfig:
    embed_dim: int = 128
    gcn_layers: int = 2
    attn_layers: int = 3
    heads: int = 4
    lambda_l2: float = 5e-4
    dropout_rate: float = 0.5
    time_vocab: int = 12
    ablation: str = ""  # the full model, or a name in ABLATIONS

    def validate(self) -> None:
        if self.heads < 1:
            raise ConfigError(f"heads must be at least 1, got {self.heads}")
        if self.embed_dim <= 0 or self.embed_dim % self.heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} must be a positive multiple of heads {self.heads}"
            )
        if self.gcn_layers < 1 or self.attn_layers < 1:
            raise ConfigError("gcn_layers and attn_layers must be at least 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not (math.isfinite(self.lambda_l2) and self.lambda_l2 >= 0.0):
            raise ConfigError(f"lambda_l2 must be finite and >= 0, got {self.lambda_l2}")
        if self.time_vocab < 1 or (time_window_vocab(SECONDS_PER_DAY / self.time_vocab)
                                   != self.time_vocab):
            raise ConfigError(f"time_vocab {self.time_vocab} is no count of windows a day")
        if self.ablation and self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}; valid names: "
                              + ", ".join(sorted(ABLATIONS)))


def positional_encoding(max_len: int, d: int) -> np.ndarray:
    """Fixed sinusoidal position table: sin on even columns, cos on odd."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    even = np.arange(0, d, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, even / d)
    p = np.zeros((max_len, d))
    p[:, 0::2] = np.sin(angles)
    p[:, 1::2] = np.cos(angles[:, : d // 2])
    return p


def _xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


class ModelParams:
    """All learnable tensors, plus the fixed position table.

    Tensors live in a single insertion-ordered dict so initialization,
    checkpoints and the optimizer all walk them in one deterministic order.
    Each views its slice of two flat arenas, ``values`` and ``grad``, which
    whole-model updates write in place; nothing rebinds a tensor's arrays.
    The first GCN layers hold one row per visited grid: ``grid_rows`` are
    those grids' ascending ids among the ``n_grids`` bounding-box cells.
    """

    def __init__(
        self,
        config: ModelConfig,
        n_grids: int,
        grid_rows: np.ndarray,
        n_users: int,
        max_seq_len: int,
        rng: np.random.Generator | None,
    ):
        """Without ``rng`` every value is zero, for a checkpoint's to replace."""
        config.validate()
        self.config = config
        d = config.embed_dim
        dh = d // config.heads
        shapes = dict(parameter_shapes(config, len(grid_rows), n_users))
        draws = {name: np.zeros(shape) for name, shape in shapes.items()} if rng is None else {}
        for name, shape in shapes.items():
            if name in draws:  # k and v come with their q; everything without rng
                continue
            if len(shape) == 1:
                draws[name] = np.full(shape, 1.0 if name.endswith("_ln_gain") else 0.0)
            elif name in ("gcn_local_0", "gcn_global_0"):
                # The first layer is drawn over the whole bounding box, with its
                # Xavier limit, and keeps the visited rows only. So every later
                # draw and every kept value equal a bounding-box-sized layer's,
                # whose unvisited rows would never reach a logit.
                draws[name] = _xavier(rng, n_grids, d)[grid_rows]
            elif name.endswith("_q"):
                # Drawn head by head (q, k, v each), so head h owns columns
                # h*dh:(h+1)*dh of the fused (d, d) projections.
                heads = [[_xavier(rng, d, dh) for _ in "qkv"] for _ in range(config.heads)]
                for j, kind in enumerate("qkv"):
                    draws[name[:-1] + kind] = np.hstack([head[j] for head in heads])
            else:
                draws[name] = _xavier(rng, *shape)

        self.values = np.concatenate([a.ravel() for a in draws.values()])
        self.grad = np.zeros_like(self.values)
        cuts = np.cumsum([a.size for a in draws.values()])[:-1]
        self.tensors = {
            name: Tensor(v.reshape(a.shape), requires_grad=True, grad=g.reshape(a.shape))
            for (name, a), v, g in zip(draws.items(), np.split(self.values, cuts),
                                       np.split(self.grad, cuts))
        }

        self.pos_encoding = positional_encoding(max(max_seq_len, 1), d)

    @classmethod
    def for_inputs(cls, config: ModelConfig, inputs: "ModelInputs",
                   rng: np.random.Generator | None) -> "ModelParams":
        """Parameters sized for ``inputs``' grids, users and sequence length."""
        return cls(config, n_grids=inputs.n_grids, grid_rows=inputs.grid_rows,
                   n_users=inputs.n_users, max_seq_len=inputs.max_seq_len, rng=rng)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def zero_grads(self) -> None:
        self.grad.fill(0.0)

    def active_names(self) -> list[str]:
        """Names of parameters reachable by the forward pass under the config."""
        cfg = self.config
        names: list[str] = []
        if cfg.ablation != "tul-l":
            names += [f"gcn_local_{i}" for i in range(cfg.gcn_layers)]
            if cfg.ablation != "tul-ts":
                names += ["time_w", "time_b", "state_w", "state_b"]
            names += ["loc_w", "loc_b"]
            if cfg.ablation != "tul-sa":
                for layer in range(cfg.attn_layers):
                    names += [f"attn{layer}_{part}" for part in
                              ("q", "k", "v", "out_w", "out_b", "ln_gain", "ln_bias")]
        if cfg.ablation != "tul-g":
            names += [f"gcn_global_{i}" for i in range(cfg.gcn_layers)]
        names += ["link_w", "link_b"]
        return names

    def active_parameter_count(self) -> int:
        return sum(self.tensors[n].values.size for n in self.active_names())

    def l2_tensors(self) -> list[Tensor]:
        """Active weight matrices; biases, layer-norm affines and the fixed
        position table never enter the regularizer."""
        return [
            self.tensors[n]
            for n in self.active_names()
            if self.tensors[n].values.ndim == 2
        ]

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        check_records(values, ((name, t.values.shape) for name, t in self.items()))
        for name, t in self.tensors.items():
            t.values[...] = values[name]


def parameter_shapes(config: ModelConfig, n_rows: int,
                     n_users: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape, in the order initialization,
    checkpoints and the optimizer walk them; the first GCN layers hold
    ``n_rows`` rows, one per visited grid."""
    d = config.embed_dim
    for branch in ("local", "global"):
        for i in range(config.gcn_layers):
            yield f"gcn_{branch}_{i}", (n_rows if i == 0 else d, d)
    yield from [("time_w", (config.time_vocab, d)), ("time_b", (d,)),
                ("state_w", (MOTION_STATES, d)), ("state_b", (d,)),
                ("loc_w", (3 * d, d)), ("loc_b", (d,))]
    for layer in range(config.attn_layers):
        for part in ("q", "k", "v", "out_w", "out_b", "ln_gain", "ln_bias"):
            yield f"attn{layer}_{part}", (d, d) if part in ("q", "k", "v", "out_w") else (d,)
    yield from [("link_w", (n_users, 2 * d)), ("link_b", (n_users,))]


def check_records(values: dict[str, np.ndarray],
                  shapes: Iterable[tuple[str, tuple[int, ...]]]) -> None:
    """DataError unless ``values`` holds exactly the named parameters, each of
    its shape. Stops at the first that is missing, so a lazy ``shapes`` naming
    a billion layers is never built."""
    names = set()
    for name, shape in shapes:
        if name not in values:
            raise DataError(f"checkpoint is missing parameter {name!r}")
        if values[name].shape != shape:
            raise DataError(f"checkpoint shape {values[name].shape} for {name!r} "
                            f"does not match model shape {shape}")
        names.add(name)
    extra = sorted(set(values) - names)
    if extra:
        raise DataError(f"checkpoint holds parameters the model lacks: {extra}")


@dataclass
class ModelInputs:
    """Everything the forward pass consumes, prepared once per run."""

    m_local: sp.csr_matrix
    m_global: sp.csr_matrix  # over the global graph's twin classes
    x_global: sp.csr_matrix  # one feature row per twin class
    traj_rows: np.ndarray  # each trajectory's twin class, all in [0, K)
    traj_ids: list[str]
    grid_idx: np.ndarray  # (n_traj, max_seq_len) rows of grid_rows, zero past each length
    state_idx: np.ndarray
    times: np.ndarray  # float64 point times, 0.0 past each length
    lengths: np.ndarray
    labels: np.ndarray
    user_ids: list[str]
    n_grids: int  # bounding-box cells
    grid_rows: np.ndarray  # ascending bounding-box ids of the visited grids
    max_seq_len: int

    @property
    def n_traj(self) -> int:
        return len(self.traj_ids)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def class_counts(self) -> np.ndarray:
        """Trajectories per trajectory class, the first K twin classes."""
        return np.bincount(self.traj_rows)


def build_model_inputs(
    sequences: SequenceColumns,
    local_graph: LocalSpatialGraph,
    global_graph: GlobalSpatialGraph,
) -> ModelInputs:
    """Normalize adjacencies and label every sequence by its user code; the
    global graph must list the same trajectories and users, or a ValueError.

    Only the grids some sequence visits get a row: ``grid_idx`` holds dense
    row numbers into ``grid_rows``, the local adjacency keeps those rows and
    columns, and the global features those columns. An unvisited cell is an
    isolated self-loop node and an all-zero feature column, so dropping it
    changes no embedding of a visited grid, trajectory or user.

    The global graph enters as its twin quotient: nodes with equal rows of
    the normalized adjacency and of the features get equal rows from every
    GCN layer, so the GCN computes one row per class. Classes are numbered
    by their first member and trajectories are the first nodes, so the
    trajectory classes are the first K: ``traj_rows`` gives each
    trajectory's. On check-in data, one-cell trajectories at the same cell
    with the same training user, or with none, are twins.
    """
    ids = sequences.traj_ids
    if ids != list(global_graph.traj_ids):
        raise ValueError("sequence order does not match the global graph roster")
    if sequences.roster != list(global_graph.user_ids):
        raise ValueError("sequence users do not match the global graph's user roster")

    lengths, rows = sequences.lengths, sequences.point_rows()
    at = rows, np.arange(len(rows)) - sequences.start[rows]  # (sequence, position) per point

    def padded(values):
        out = np.zeros((len(sequences), lengths.max()), dtype=values.dtype)
        out[at] = values
        return out

    grid_rows = np.unique(sequences.grid)
    m_global, x_global, classes = twin_quotient(
        symmetric_normalize(global_graph.adjacency),
        global_graph.features.astype(np.float64).tocsr()[:, grid_rows])
    return ModelInputs(
        m_local=symmetric_normalize(local_graph.adjacency)[grid_rows][:, grid_rows],
        m_global=m_global,
        x_global=x_global,
        traj_rows=classes[: len(ids)],  # trajectories are the first nodes
        traj_ids=ids,
        # Padding is grid 0, at or below every visited id, so it maps to row 0.
        grid_idx=np.searchsorted(grid_rows, padded(sequences.grid)),
        state_idx=padded(sequences.state),
        times=padded(sequences.t),
        lengths=lengths,
        labels=sequences.user,
        user_ids=sequences.roster,
        n_grids=local_graph.n_grids,
        grid_rows=grid_rows,
        max_seq_len=int(lengths.max()),
    )


def gcn_forward(m_norm: sp.csr_matrix, features: sp.csr_matrix | None,
                weights: Sequence[Tensor], n_rows: int | None = None) -> Tensor:
    """Stacked propagation H <- ReLU(M (H W)) from node features X (one-hot
    when None), once per layer weight; the first n_rows node rows, or all."""
    return T.gcn(m_norm, features, weights, n_rows)


def encode_locations(params: ModelParams, h_local: Tensor, grid_idx: np.ndarray,
                     state_idx: np.ndarray, times: np.ndarray) -> Tensor:
    """Per-point fusion Tanh(FC([time ; state ; grid])) -> (..., m, d), the
    time entering as its time-of-day window."""
    g_emb = T.embedding(h_local, grid_idx)
    if params.config.ablation == "tul-ts":
        zeros = Tensor(np.zeros((*np.shape(grid_idx), params.config.embed_dim)))
        t_emb, s_emb = zeros, zeros
    else:
        windows = time_windows(times, SECONDS_PER_DAY / params.config.time_vocab)
        t_emb = T.embedding(params["time_w"], windows, params["time_b"])
        s_emb = T.embedding(params["state_w"], state_idx, params["state_b"])
    fused = T.concat([t_emb, s_emb, g_emb], axis=-1)
    return T.tanh(T.matmul(fused, params["loc_w"], params["loc_b"]))


def self_attention_stack(params: ModelParams, x: Tensor, lengths: np.ndarray,
                         rng: np.random.Generator, training: bool) -> Tensor:
    """Position-encoded multi-head self-attention with post-norm residuals.

    x is (B, m, d), row i padded past lengths[i]; padded keys get exactly
    zero weight, so no real position ever sees padding.
    """
    _, m, d = x.shape
    config = params.config
    if m == 0:
        raise ValueError("cannot attend over an empty sequence")
    inv_scale = 1.0 / math.sqrt(d // config.heads)
    state = T.add(x, Tensor(np.broadcast_to(params.pos_encoding[:m], x.shape)))
    for layer in range(config.attn_layers):
        merged = T.masked_attention(state, *(params[f"attn{layer}_{kind}"] for kind in "qkv"),
                                    lengths, config.heads, inv_scale)
        z = T.matmul(merged, params[f"attn{layer}_out_w"], params[f"attn{layer}_out_b"])
        z = T.dropout(z, config.dropout_rate, training, rng)
        state = T.layer_norm(T.add(state, z),
                             params[f"attn{layer}_ln_gain"],
                             params[f"attn{layer}_ln_bias"])
    return state


def global_attention(
    h_class: Tensor,
    class_norms: Tensor,
    counts: np.ndarray,
    classes: np.ndarray,
    use_softmax: bool,
) -> Tensor:
    """Cosine-scored attention over every trajectory embedding, one row per
    batched trajectory, given by its twin class.

    Twin trajectories share one embedding, so the (B, K) score matrix has a
    column per trajectory class, counted as often as the class has
    trajectories. Each row is normalized with sparsemax so irrelevant
    trajectories receive exactly zero weight, or with softmax under the
    tul-ea ablation; the output is the weighted sum of trajectory embeddings.
    """
    return T.cosine_attention(h_class, class_norms, counts, classes, COSINE_EPS, use_softmax)


def encode_graphs(params: ModelParams,
                  inputs: ModelInputs) -> tuple[Tensor | None, Tensor | None, Tensor | None]:
    """Both GCN encoders, once per pass: (grid embeddings, trajectory class
    embeddings, their row norms), None where an ablation removes a branch."""
    config = params.config
    h_local = h_class = class_norms = None
    if config.ablation != "tul-l":
        # Grid features are one-hot, so X W0 is W0 itself.
        h_local = gcn_forward(inputs.m_local, None,
                              [params[f"gcn_local_{i}"] for i in range(config.gcn_layers)])
    if config.ablation != "tul-g":
        # One row per trajectory class: the first rows of the quotient.
        h_class = gcn_forward(inputs.m_global, inputs.x_global,
                              [params[f"gcn_global_{i}"] for i in range(config.gcn_layers)],
                              inputs.traj_rows.max() + 1)
        class_norms = T.row_norms(h_class)
    return h_local, h_class, class_norms


def fused_representations(params: ModelParams, inputs: ModelInputs, batch: np.ndarray,
                          rng: np.random.Generator, training: bool,
                          graphs: tuple | None = None) -> Tensor:
    """Concatenated [local ; global] vectors, one row per batched trajectory.

    ``graphs`` is encode_graphs' output for these parameters, computed here
    when omitted. Sequences are padded to the longest in the batch.
    """
    config = params.config
    h_local, h_class, class_norms = graphs or encode_graphs(params, inputs)
    z_local = z_global = Tensor(np.zeros((len(batch), config.embed_dim)))
    if config.ablation != "tul-l":
        lengths = inputs.lengths[batch]
        m = int(lengths.max())
        x = encode_locations(
            params, h_local,
            inputs.grid_idx[batch, :m], inputs.state_idx[batch, :m], inputs.times[batch, :m],
        )
        x = T.dropout(x, config.dropout_rate, training, rng)
        z = x if config.ablation == "tul-sa" else self_attention_stack(
            params, x, lengths, rng, training
        )
        z_local = T.max_pool_positions(z, lengths)
    if config.ablation != "tul-g":
        z_global = global_attention(h_class, class_norms, inputs.class_counts,
                                    inputs.traj_rows[batch], config.ablation == "tul-ea")
    return T.concat([z_local, z_global], axis=-1)


def forward_batch(params: ModelParams, inputs: ModelInputs, batch: np.ndarray,
                  rng: np.random.Generator, training: bool, graphs: tuple | None = None) -> Tensor:
    """Logits over users for a batch of trajectory roster indices."""
    stacked = fused_representations(params, inputs, batch, rng, training, graphs)
    return T.matmul(stacked, T.transpose(params["link_w"]), params["link_b"])


def model_loss(logits: Tensor, targets: np.ndarray, params: ModelParams) -> Tensor:
    """Batch-mean cross entropy plus (lambda/2) * sum of squared weights."""
    return T.add(T.cross_entropy(logits, targets),
                 T.sum_squares(params.l2_tensors(), 0.5 * params.config.lambda_l2))
