"""Independent reference implementations used only by tests."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

from tulink import tensor as T
from tulink.graphs import symmetric_normalize
from tulink.mobility import MOTION_STATES
from tulink.model import (COSINE_EPS, ModelParams, build_model_inputs, encode_graphs,
                          encode_locations)
from tulink.tensor import Tensor
from tulink.train import ADAM_EPS, BETA1, BETA2


def simplex_projection_oracle(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex by support search.

    Tries every candidate support size over the descending-sorted
    coordinates and keeps those satisfying the projection's optimality
    conditions: supported coordinates sit above the threshold, excluded ones
    at or below it (the shifted support then sums to one by construction).
    The projection is unique, so all surviving candidates must coincide.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    order = np.argsort(-x, kind="stable")
    xs = x[order]
    taus = (np.cumsum(xs) - 1.0) / np.arange(1, n + 1)
    support_ok = xs - taus >= -1e-12
    excluded_ok = np.append(xs[1:] - taus[:-1] <= 1e-12, True)
    valid = np.flatnonzero(support_ok & excluded_ok)
    if valid.size == 0:
        raise AssertionError("no support size satisfies the projection conditions")
    candidates = [np.maximum(x - taus[k], 0.0) for k in valid]
    for c in candidates[1:]:
        np.testing.assert_allclose(c, candidates[0], atol=1e-10)
    return candidates[0]


def sorted_sparsemax_oracle(x: np.ndarray) -> np.ndarray:
    """Sparsemax of each last-axis row from a full descending sort of the row."""
    z = np.asarray(x, dtype=np.float64)
    z_sorted = np.flip(np.sort(z, axis=-1), axis=-1)
    cumulative = np.cumsum(z_sorted, axis=-1)
    k = np.arange(1, z.shape[-1] + 1)
    support_size = np.count_nonzero(1.0 + k * z_sorted > cumulative, axis=-1, keepdims=True)
    tau = (np.take_along_axis(cumulative, support_size - 1, axis=-1) - 1.0) / support_size
    return np.maximum(z - tau, 0.0)


def confusion_matrix_oracle(true_labels, predicted_labels):
    """Macro P/R/F1 by explicit confusion counting over present classes."""
    true_labels = list(true_labels)
    predicted_labels = list(predicted_labels)
    classes = sorted(set(true_labels))
    ps, rs, f1s = [], [], []
    for c in classes:
        tp = sum(1 for t, p in zip(true_labels, predicted_labels) if t == c and p == c)
        fp = sum(1 for t, p in zip(true_labels, predicted_labels) if t != c and p == c)
        fn = sum(1 for t, p in zip(true_labels, predicted_labels) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn)
        ps.append(precision)
        rs.append(recall)
        f1s.append(
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return sum(ps) / len(ps), sum(rs) / len(rs), sum(f1s) / len(f1s)


def global_graph_oracle(incidence, traj_ids, train_labels):
    """(adjacency, features) of the global graph from Python lists and a
    row-by-row user union: every trajectory pair sharing grids, one edge
    pair per training label at the largest trajectory weight (1 if none)."""
    n_traj = len(traj_ids)
    index_of = {tid: i for i, tid in enumerate(traj_ids)}
    user_ids = sorted(set(train_labels.values()))
    user_index = {u: k for k, u in enumerate(user_ids)}
    n_users = len(user_ids)
    n_nodes = n_traj + n_users

    traj_block = (incidence @ incidence.T).tocoo()
    keep = traj_block.row != traj_block.col
    rows = list(traj_block.row[keep])
    cols = list(traj_block.col[keep])
    data = list(traj_block.data[keep])
    w_max = int(max(data)) if data else 0
    if w_max == 0:
        w_max = 1

    for tid, user in train_labels.items():
        ti = index_of[tid]
        uj = n_traj + user_index[user]
        rows.extend((ti, uj))
        cols.extend((uj, ti))
        data.extend((w_max, w_max))

    adj = sp.coo_matrix(
        (np.asarray(data, dtype=np.int64), (rows, cols)), shape=(n_nodes, n_nodes)
    ).tocsr()
    adj.sort_indices()

    user_rows = sp.lil_matrix((n_users, incidence.shape[1]), dtype=np.int64)
    for tid, user in train_labels.items():
        user_rows[user_index[user]] = user_rows[user_index[user]].maximum(
            incidence[index_of[tid]]
        )
    features = sp.vstack([incidence.astype(np.int64), user_rows.tocsr()]).tocsr()
    features.sort_indices()
    return adj, features


# ---------------------------------------------------------------------------
# The linking model one trajectory and one head at a time
# ---------------------------------------------------------------------------

def _columns(w: Tensor, lo: int, hi: int) -> Tensor:
    return T.transpose(T.slice_rows(T.transpose(w), lo, hi))


def per_head_attention_oracle(params, config, x, rng, training):
    """Self-attention over one unpadded (m, d) sequence, head h using columns
    h*dh:(h+1)*dh of the fused projections."""
    m, d = x.shape
    dh = d // config.heads
    inv_scale = 1.0 / math.sqrt(dh)
    state = T.add(x, Tensor(params.pos_encoding[:m]))
    for layer in range(config.attn_layers):
        heads = []
        for h in range(config.heads):
            q, k, v = (T.matmul(state, _columns(params[f"attn{layer}_{kind}"],
                                                h * dh, (h + 1) * dh)) for kind in "qkv")
            weights = T.softmax(T.scale(T.matmul(q, T.transpose(k)), inv_scale), axis=-1)
            heads.append(T.matmul(weights, v))
        z = T.add_bias(T.matmul(T.concat(heads, axis=-1), params[f"attn{layer}_out_w"]),
                       params[f"attn{layer}_out_b"])
        z = T.dropout(z, config.dropout_rate, training, rng)
        state = T.layer_norm(T.add(state, z),
                             params[f"attn{layer}_ln_gain"],
                             params[f"attn{layer}_ln_bias"])
    return state


def per_row_global_attention_oracle(h_traj, traj_norms, index, use_softmax):
    """Cosine scores of one trajectory against the roster, one vector."""
    n_traj, d = h_traj.shape
    hi = T.slice_rows(h_traj, index, index + 1)
    dots = T.reshape(T.matmul(h_traj, T.transpose(hi)), (n_traj,))
    denom = T.matmul(T.reshape(traj_norms, (n_traj, 1)), T.reshape(T.row_norms(hi), (1, 1)))
    scores = T.div(dots, T.add_scalar(T.reshape(denom, (n_traj,)), COSINE_EPS))
    weights = T.softmax(scores) if use_softmax else T.sparsemax(scores)
    return T.reshape(T.matmul(T.reshape(weights, (1, n_traj)), h_traj), (d,))


def dense_global_attention_oracle(h_traj, traj_norms, batch, eps, use_softmax):
    """Cosine attention composed of taped primitives, every backward step
    over dense (B, n_traj) buffers. The batch rows' norms are gathered from
    traj_norms, so gradients reach h_traj and traj_norms as they do in
    T.cosine_attention."""
    n_traj = h_traj.shape[0]
    rows = T.embedding(h_traj, batch)
    dots = T.matmul(rows, T.transpose(h_traj))
    row_norms = T.embedding(T.reshape(traj_norms, (n_traj, 1)), batch)
    norms = T.matmul(row_norms, T.reshape(traj_norms, (1, n_traj)))
    scores = T.div(dots, T.add_scalar(norms, eps))
    weights = T.softmax(scores, axis=-1) if use_softmax else T.sparsemax(scores)
    return T.matmul(weights, h_traj)


def dense_gcn_oracle(m_norm, features, weights, n_rows=None):
    """Stacked GCN composed of taped spmm, matmul and relu, every backward
    step over the whole graph; features None means one-hot, so X W0 is W0."""
    xw = weights[0] if features is None else T.spmm(features, weights[0])
    h = T.relu(T.spmm(m_norm, xw))
    for w in weights[1:]:
        h = T.relu(T.spmm(m_norm, T.matmul(h, w)))
    return h if n_rows is None else T.slice_rows(h, 0, n_rows)


def per_trajectory_logits_oracle(params, config, inputs, batch, rng, training):
    """Logits with a Python loop over the batch: each trajectory attends over
    its own unpadded sequence and scores the roster on its own."""
    h_local, h_traj, traj_norms = encode_graphs(params, config, inputs)
    zeros_d = Tensor(np.zeros(config.embed_dim))
    rows = []
    for idx in batch:
        z_local = z_global = zeros_d
        if config.ablation != "tul-l":
            m = inputs.lengths[idx]
            x = encode_locations(params, config, h_local, inputs.grid_idx[idx, :m],
                                 inputs.state_idx[idx, :m], inputs.time_idx[idx, :m])
            x = T.dropout(x, config.dropout_rate, training, rng)
            z = x if config.ablation == "tul-sa" else per_head_attention_oracle(
                params, config, x, rng, training)
            z_local = T.max_pool_positions(z)
        if config.ablation != "tul-g":
            z_global = per_row_global_attention_oracle(
                h_traj, traj_norms, int(idx), config.ablation == "tul-ea")
        rows.append(T.reshape(T.concat([z_local, z_global], axis=-1), (1, -1)))
    stacked = T.concat(rows, axis=0)
    return T.add_bias(T.matmul(stacked, T.transpose(params["link_w"])), params["link_b"])


# ---------------------------------------------------------------------------
# The linking model with a first-layer GCN row for every bounding-box cell
# ---------------------------------------------------------------------------

def bounding_box_inputs_oracle(sequences, local_graph, global_graph):
    """Model inputs indexed by bounding-box cell: the whole normalized local
    adjacency, every feature column, raw grid ids padded with grid 0."""
    inputs = build_model_inputs(sequences, local_graph, global_graph)

    grid_idx = np.zeros_like(inputs.grid_idx)
    for row, s in zip(grid_idx, sequences):
        row[: len(s)] = s.grid
    return dataclasses.replace(
        inputs,
        m_local=symmetric_normalize(local_graph.adjacency),
        x_global=global_graph.features.astype(np.float64).tocsr(),
        grid_idx=grid_idx,
        grid_rows=np.arange(local_graph.n_grids),
    )


def bounding_box_initial_values(config, n_grids, n_users, rng):
    """Every initial parameter in declaration order, each first GCN layer an
    (n_grids, d) Xavier draw kept whole."""
    d = config.embed_dim
    dh = d // config.heads
    values = {}

    def xavier(rows, cols):
        limit = math.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    for branch in ("local", "global"):
        for i in range(config.gcn_layers):
            values[f"gcn_{branch}_{i}"] = xavier(n_grids if i == 0 else d, d)
    for name, vocab in (("time", config.time_vocab), ("state", MOTION_STATES)):
        values[f"{name}_w"] = xavier(vocab, d)
        values[f"{name}_b"] = np.zeros(d)
    values["loc_w"] = xavier(3 * d, d)
    values["loc_b"] = np.zeros(d)
    for layer in range(config.attn_layers):
        draws = [[xavier(d, dh) for _ in "qkv"] for _ in range(config.heads)]
        for j, kind in enumerate("qkv"):
            values[f"attn{layer}_{kind}"] = np.hstack([head[j] for head in draws])
        values[f"attn{layer}_out_w"] = xavier(d, d)
        values[f"attn{layer}_out_b"] = np.zeros(d)
        values[f"attn{layer}_ln_gain"] = np.ones(d)
        values[f"attn{layer}_ln_bias"] = np.zeros(d)
    values["link_w"] = xavier(n_users, 2 * d)
    values["link_b"] = np.zeros(n_users)
    return values


def bounding_box_params_oracle(config, n_grids, n_users, max_seq_len, rng):
    """ModelParams holding bounding_box_initial_values: one first-layer row
    per bounding-box cell, for bounding_box_inputs_oracle."""
    params = ModelParams(config, n_grids, np.arange(n_grids), n_users, max_seq_len,
                         np.random.default_rng(0))
    params.load_values(bounding_box_initial_values(config, n_grids, n_users, rng))
    return params


# ---------------------------------------------------------------------------
# The optimizer and the regularizer one tensor at a time
# ---------------------------------------------------------------------------

def per_tensor_adam_oracle(params, m, v, step, learning_rate):
    """One bias-corrected Adam update written out whole for each tensor, with
    moments in per-name dicts ``m`` and ``v`` (updated in place); ``step`` is
    the 1-based step number."""
    c1 = 1.0 - BETA1 ** step
    c2 = 1.0 - BETA2 ** step
    for name, t in params.items():
        g = t.grad
        m[name] *= BETA1
        m[name] += (1.0 - BETA1) * g
        v[name] *= BETA2
        v[name] += (1.0 - BETA2) * (g * g)
        t.values -= learning_rate * (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)


def l2_chain_oracle(tensors):
    """Sum of squares as one single-argument sum_squares per tensor, joined by
    a chain of taped adds."""
    penalty = None
    for t in tensors:
        term = T.sum_squares(t)
        penalty = term if penalty is None else T.add(penalty, term)
    return penalty
