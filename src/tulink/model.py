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

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from . import tensor as T
from .errors import ConfigError, reading
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
        for name in ("heads", "embed_dim", "gcn_layers", "attn_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.embed_dim % self.heads:
            raise ConfigError(f"heads {self.heads} must divide the embedding size {self.embed_dim}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout_rate}")
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


def _xavier_rows(rng: np.random.Generator, rows: int, cols: int,
                 kept: np.ndarray) -> np.ndarray:
    """``_xavier(rng, rows, cols)[kept]`` for ascending ``kept``, drawing only
    those rows. Each value takes one 64-bit output of the bit generator (so
    PCG64, numpy's default), so the bit generator advances past the other
    rows, and the stream ends where the whole draw would end. Each run of
    consecutive rows is one draw."""
    limit = math.sqrt(6.0 / (rows + cols))
    out = np.empty((len(kept), cols))
    starts = np.flatnonzero(np.r_[True, kept[1:] != kept[:-1] + 1][:len(kept)]).tolist()
    at = 0  # the row the stream stands at
    for lo, hi in zip(starts, [*starts[1:], len(kept)]):
        rng.bit_generator.advance((int(kept[lo]) - at) * cols)
        out[lo:hi] = rng.uniform(-limit, limit, size=(hi - lo, cols))
        at = int(kept[lo]) + hi - lo
    rng.bit_generator.advance((rows - at) * cols)
    return out


class ModelParams:
    """All learnable tensors.

    Tensors live in a single insertion-ordered dict, in ``parameter_shapes``
    order, so initialization, checkpoints and the optimizer all walk them in
    one deterministic order. Each views its slice of two flat arenas,
    ``values`` and ``grad``, which whole-model updates write in place;
    nothing rebinds a tensor's arrays. The first GCN layers hold one row per
    visited grid, ``n_rows`` of them.
    """

    def __init__(self, config: ModelConfig, values: np.ndarray, n_rows: int, n_users: int):
        """The parameters whose values are the flat arena ``values``, laid
        out one at a time: a ValueError names the first that runs past the
        arena, so a config of a billion layers lays out no more than the
        arena holds."""
        config.validate()
        if values.ndim != 1:
            raise ValueError(f"an arena of shape {values.shape} is not flat")
        self.config = config
        self.values = values
        self.grad = np.zeros_like(values)
        self.tensors = {}
        at = 0
        for name, shape in parameter_shapes(config, n_rows, n_users):
            end = at + math.prod(shape)
            if end > len(values):
                raise ValueError(f"parameter {name!r} of shape {shape} runs past an arena of "
                                 f"{len(values)} values")
            self.tensors[name] = Tensor(values[at:end].reshape(shape), requires_grad=True,
                                        grad=self.grad[at:end].reshape(shape))
            at = end
        if at != len(values):
            raise ValueError(f"an arena of {len(values)} values for {at} parameter values")

    @classmethod
    def drawn(cls, config: ModelConfig, n_grids: int, grid_rows: np.ndarray, n_users: int,
              rng: np.random.Generator) -> "ModelParams":
        """Freshly initialized parameters: Xavier weights, zero biases and
        unit layer-norm gains. ``grid_rows`` are the visited grids' ascending
        ids among the ``n_grids`` bounding-box cells."""
        config.validate()
        d = config.embed_dim
        dh = d // config.heads
        shapes = dict(parameter_shapes(config, len(grid_rows), n_users))
        draws = {}
        for name, shape in shapes.items():
            if name in draws:  # k and v come with their q
                continue
            if len(shape) == 1:
                draws[name] = np.full(shape, 1.0 if name.endswith("_ln_gain") else 0.0)
            elif name in ("gcn_local_0", "gcn_global_0"):
                # The visited rows of a bounding-box-sized layer, whose
                # unvisited rows would never reach a logit.
                draws[name] = _xavier_rows(rng, n_grids, d, grid_rows)
            elif name.endswith("_q"):
                # Drawn head by head (q, k, v each), so head h owns columns
                # h*dh:(h+1)*dh of the fused (d, d) projections.
                heads = [[_xavier(rng, d, dh) for _ in "qkv"] for _ in range(config.heads)]
                for j, kind in enumerate("qkv"):
                    draws[name[:-1] + kind] = np.hstack([head[j] for head in heads])
            else:
                draws[name] = _xavier(rng, *shape)
        return cls(config, np.concatenate([draws[name].ravel() for name in shapes]),
                   len(grid_rows), n_users)

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

    def l2_tensors(self) -> list[Tensor]:
        """Active weight matrices; biases and layer-norm affines never enter
        the regularizer."""
        return [
            self.tensors[n]
            for n in self.active_names()
            if self.tensors[n].values.ndim == 2
        ]


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


@dataclass
class ModelInputs:
    """Everything the forward pass consumes, prepared once per run. Each
    point is one entry of the per-point columns, trajectory after trajectory
    in roster order: trajectory i holds the ``lengths[i]`` entries from
    ``starts[i]``."""

    m_local: sp.csr_matrix
    m_global: sp.csr_matrix  # over the global graph's twin classes
    x_global: sp.csr_matrix  # one feature row per twin class
    traj_rows: np.ndarray  # each trajectory's twin class, all in [0, K)
    traj_ids: list[str]
    grid_idx: np.ndarray  # each point's cell, as its local graph node row
    state_idx: np.ndarray  # each point's motion state
    times: np.ndarray  # each point's float64 time
    lengths: np.ndarray  # points per trajectory, each at least 1
    labels: np.ndarray
    user_ids: list[str]

    @property
    def n_traj(self) -> int:
        return len(self.traj_ids)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def starts(self) -> np.ndarray:
        """Each trajectory's first point in the per-point columns."""
        return np.cumsum(self.lengths) - self.lengths

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
    global graph must list the same trajectories and users, and the local
    graph the cells the sequences visit, or a ValueError.

    Only the grids some sequence visits get a row: ``grid_idx`` holds each
    point's row among the local graph's nodes, the rows the global features'
    columns already are. An unvisited cell would be an isolated self-loop
    node and an all-zero feature column, so leaving it out changes no
    embedding of a visited grid, trajectory or user.

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

    if not np.array_equal(local_graph.cells, np.unique(sequences.grid)):
        raise ValueError("the local graph's cells are not the cells the sequences visit")
    m_global, x_global, classes = twin_quotient(symmetric_normalize(global_graph.adjacency),
                                                global_graph.features.astype(np.float64))
    return ModelInputs(
        m_local=symmetric_normalize(local_graph.adjacency),
        m_global=m_global,
        x_global=x_global,
        traj_rows=classes[: len(ids)],  # trajectories are the first nodes
        traj_ids=ids,
        grid_idx=np.searchsorted(local_graph.cells, sequences.grid),
        state_idx=sequences.state,
        times=sequences.t,
        lengths=sequences.lengths,
        labels=sequences.user,
        user_ids=sequences.roster,
    )


_MAGIC = b"TLNKCKP5\n"
_CHECKSUM_END = len(_MAGIC) + 65  # the hex sha256 and its newline
# A checkpoint's records after the parameter arena, in file order: each CSR
# matrix as its data, indices and indptr, then the dense arrays. A matrix has
# a row per indptr entry but the last; m_local and m_global are square, and
# x_global has a column per m_local row.
_CSR_FIELDS = ("m_local", "m_global", "x_global")
_ARRAY_FIELDS = ("traj_rows", "grid_idx", "state_idx", "times", "lengths", "labels")


def _checksum(fh) -> bytes:
    """The checksum line of an open checkpoint: the hex sha256 of everything
    after it. Read in blocks, so no copy of the file is held."""
    fh.seek(_CHECKSUM_END)
    digest = hashlib.sha256()
    for block in iter(lambda: fh.read(1 << 16), b""):
        digest.update(block)
    return digest.hexdigest().encode("ascii") + b"\n"


def save_checkpoint(params: ModelParams, inputs: ModelInputs, sources: dict[str, str],
                    path: str | Path) -> None:
    """Everything evaluate and embed run on, with ``sources`` (the sha256 of
    each file the inputs were built from, by name), in deterministic bytes:
    the magic line, the checksum line, a sorted-key JSON header line (the
    model settings, the sources and the ids), then one ``.npy`` record for
    the parameter arena and one per input array, in a fixed order. Nothing
    the rest gives is stored: the matrix shapes follow from their records,
    the parameter layout from the settings and the shapes
    (``parameter_shapes``), and the split is
    ``chronological_split(inputs.labels)``."""
    header = {"model": asdict(params.config), "sources": sources,
              "traj_ids": inputs.traj_ids, "user_ids": inputs.user_ids}
    arrays = [params.values]
    arrays += [getattr(getattr(inputs, name), part) for name in _CSR_FIELDS
               for part in ("data", "indices", "indptr")]
    arrays += [getattr(inputs, name) for name in _ARRAY_FIELDS]
    with Path(path).open("w+b") as fh:
        fh.write(_MAGIC + bytes(_CHECKSUM_END - len(_MAGIC)))  # filled in last
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for array in arrays:
            np.lib.format.write_array(fh, array, allow_pickle=False)
        checksum = _checksum(fh)
        fh.seek(len(_MAGIC))
        fh.write(checksum)


def _header_config(header) -> ModelConfig:
    """The ModelConfig a checkpoint header holds: exactly its fields, each of
    its exact type (an int is no bool), with valid values."""
    types = {f.name: {"int": int, "float": float, "str": str}[f.type] for f in fields(ModelConfig)}
    try:
        if type(header) is not dict:
            raise ConfigError("not a JSON object")
        for key in sorted(header.keys() | types.keys()):
            if type(header.get(key)) is not types.get(key):
                raise ConfigError(f"no {key}" if key not in header else f"unknown {key!r}"
                                  if key not in types else
                                  f"{key} {header[key]!r} is not {types[key].__name__}")
        config = ModelConfig(**header)
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"invalid model header ({exc})") from None
    return config


def _read_record(fh, size: int) -> np.ndarray:
    """The next ``.npy`` record of an open checkpoint of ``size`` bytes. Its
    declared shape is checked against the bytes left before anything is
    allocated, so a corrupt shape cannot request a huge array."""
    version = np.lib.format.read_magic(fh)
    if version != (1, 0):
        raise ValueError(f"holds a .npy record of format version {version}")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    if min(shape, default=0) < 0:
        raise ValueError(f"holds a record with a negative dimension {shape}")
    count = math.prod(shape)
    left = size - fh.tell()
    if dtype.hasobject or fortran_order or count * dtype.itemsize > left:
        raise ValueError(f"holds a record of shape {shape} and type {dtype} in {left} bytes")
    return np.fromfile(fh, dtype, count).reshape(shape)


def _check_index(name: str, values: np.ndarray, limit: int, length: int) -> None:
    """ValueError unless ``values`` are ``length`` int64 entries, each in
    [0, limit)."""
    if values.dtype != np.int64 or values.shape != (length,):
        raise ValueError(f"holds {name} of shape {values.shape} and type {values.dtype} where "
                         f"{length} int64 entries belong")
    bad = values[(values < 0) | (values >= limit)]
    if bad.size:
        raise ValueError(f"holds {name} {int(bad[0])}, outside [0, {limit})")


def _check_inputs(inputs: ModelInputs) -> None:
    """ValueError unless every trajectory holds 1 to N points, N finite point
    times in all, every index lies in the range of what it indexes, each
    matrix is canonical CSR (each row's column indices ascending and
    distinct) with finite entries and x_global has a row per m_global row.
    So the longest sequence, which sizes a batch's position table, is
    bounded by the file's own bytes, and no native product reads past a
    matrix. The rest of what the writer guarantees is checked too: the ids
    are lists of distinct str, ``traj_rows`` numbers the trajectory classes
    by first appearance (so no class is empty) and the labels are in user
    order, so that their chronological split is the one ``preprocess``
    wrote."""
    for name in ("traj_ids", "user_ids"):
        ids = getattr(inputs, name)
        if type(ids) is not list or set(map(type, ids)) - {str} or len(set(ids)) != len(ids):
            raise ValueError(f"holds {name} that are not a list of distinct str")
    n_rows, k = inputs.m_local.shape[0], inputs.m_global.shape[0]
    if inputs.x_global.shape[0] != k:
        raise ValueError(f"holds x_global of {inputs.x_global.shape[0]} rows where m_global has "
                         f"{k}")
    for name in _CSR_FIELDS:
        matrix = getattr(inputs, name)
        matrix.check_format(full_check=True)  # its indices and indptr, or a ValueError
        if not matrix.has_canonical_format:
            raise ValueError(f"holds {name} with a row whose column indices are not ascending "
                             "and distinct")
        if not np.isfinite(matrix.data).all():
            raise ValueError(f"{name} holds a non-finite entry")
    times, n = inputs.times, len(inputs.times)
    if times.dtype != np.float64 or times.ndim != 1 or not np.isfinite(times).all():
        raise ValueError(f"holds point times of shape {times.shape} and type {times.dtype} that "
                         "are not all finite")
    _check_index("lengths", inputs.lengths, n + 1, inputs.n_traj)
    if not inputs.n_traj or inputs.lengths.min() < 1 or inputs.lengths.sum() != n:
        raise ValueError(f"holds {inputs.n_traj} trajectory lengths that are not each at least 1 "
                         f"with {n} points in all")
    _check_index("grid_idx", inputs.grid_idx, n_rows, n)
    _check_index("state_idx", inputs.state_idx, MOTION_STATES, n)
    _check_index("traj_rows", inputs.traj_rows, k, inputs.n_traj)
    rows = inputs.traj_rows
    if rows[0] != 0 or (rows[1:] > np.maximum.accumulate(rows)[:-1] + 1).any():
        raise ValueError("holds traj_rows that do not number the trajectory classes by first "
                         "appearance")
    _check_index("labels", inputs.labels, inputs.n_users, inputs.n_traj)
    if (inputs.labels[1:] < inputs.labels[:-1]).any():
        raise ValueError("holds labels out of user order")


def load_checkpoint(path: str | Path) -> tuple[ModelParams, ModelInputs, dict[str, str]]:
    """What ``save_checkpoint`` wrote: (params, inputs, sources), the
    parameters viewing the arena read from the file, laid out by the header's
    model settings and the records' shapes. A foreign or older file, one
    whose checksum does not match (a cut or a changed byte anywhere), an
    invalid header, a record larger than the bytes left, an arena that the
    layout does not fill exactly or a non-finite value is refused through
    ``errors.reading``, naming the file and the train stage, and so are
    sequences, indices or ids that do not fit or that break what
    ``save_checkpoint`` guarantees (``_check_inputs``)."""
    with reading(path, "train"), Path(path).open("rb") as fh:
        size = Path(path).stat().st_size
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError("was written by an earlier version of tulink"
                             if magic.startswith(b"TLNK") else "not a tulink checkpoint")
        if fh.read(_CHECKSUM_END - len(_MAGIC)) != _checksum(fh):
            raise ValueError("does not match its checksum, so it is truncated or corrupt")
        fh.seek(_CHECKSUM_END)
        header = json.loads(fh.readline())
        config = _header_config(header["model"])

        def read() -> np.ndarray:
            return _read_record(fh, size)

        values = read()
        if values.dtype != np.float64:
            raise ValueError(f"holds a parameter arena of type {values.dtype}")
        parts = [(read(), read(), read()) for _ in _CSR_FIELDS]
        n_rows, k, n_x = (len(indptr) - 1 for _, _, indptr in parts)
        csr = {name: sp.csr_matrix(part, shape=shape) for name, part, shape in
               zip(_CSR_FIELDS, parts, [(n_rows, n_rows), (k, k), (n_x, n_rows)])}
        inputs = ModelInputs(**csr, **{name: read() for name in _ARRAY_FIELDS},
                             traj_ids=header["traj_ids"], user_ids=header["user_ids"])
        _check_inputs(inputs)
        if fh.tell() != size:
            raise ValueError(f"holds {size - fh.tell()} bytes after its last record")
        params = ModelParams(config, values, n_rows, inputs.n_users)
        if not np.isfinite(values).all():
            name = next(n for n, t in params.items() if not np.isfinite(t.values).all())
            raise ValueError(f"parameter {name!r} holds a non-finite value")
        return params, inputs, dict(header["sources"])


def gcn_forward(m_norm: sp.csr_matrix, features: sp.csr_matrix | None,
                weights: Sequence[Tensor], n_rows: int | None = None) -> Tensor:
    """Stacked propagation H <- ReLU(M (H W)) from node features X (one-hot
    when None), once per layer weight; the first n_rows node rows, or all."""
    return T.gcn(m_norm, features, weights, n_rows)


def encode_locations(params: ModelParams, h_local: Tensor, grid_idx: np.ndarray,
                     state_idx: np.ndarray, times: np.ndarray) -> Tensor:
    """Per-point fusion Tanh(FC([time ; state ; grid])), one (d,) row per
    point, the time entering as its time-of-day window."""
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


def self_attention_stack(params: ModelParams, x: Tensor, packing: T.Packing,
                         rng: np.random.Generator, training: bool) -> Tensor:
    """Position-encoded multi-head self-attention with post-norm residuals.

    x holds the (d,) rows of a batch's points, packed by ``packing``; each
    point attends over its own sequence's points only, and no padded
    position enters a product.
    """
    config = params.config
    inv_scale = 1.0 / math.sqrt(x.shape[-1] // config.heads)
    state = T.add(x, Tensor(positional_encoding(packing.m, x.shape[-1])[packing.pos]))
    for layer in range(config.attn_layers):
        merged = T.masked_attention(state, *(params[f"attn{layer}_{kind}"] for kind in "qkv"),
                                    packing, config.heads, inv_scale)
        z = T.matmul(merged, params[f"attn{layer}_out_w"], params[f"attn{layer}_out_b"])
        z = T.dropout(z, config.dropout_rate, training, rng, packing)
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
    when omitted. The local branch runs on the batch's points packed one row
    each (``T.Packing``), up to the max pool.
    """
    config = params.config
    h_local, h_class, class_norms = graphs or encode_graphs(params, inputs)
    z_local = z_global = Tensor(np.zeros((len(batch), config.embed_dim)))
    if config.ablation != "tul-l":
        packing = T.Packing(inputs.lengths[batch])
        at = inputs.starts[batch][packing.seq] + packing.pos
        x = encode_locations(params, h_local,
                             inputs.grid_idx[at], inputs.state_idx[at], inputs.times[at])
        x = T.dropout(x, config.dropout_rate, training, rng, packing)
        z = x if config.ablation == "tul-sa" else self_attention_stack(
            params, x, packing, rng, training
        )
        z_local = T.max_pool_positions(z, packing)
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
