"""Independent reference implementations used only by tests."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from tulink import tensor as T
from tulink.errors import ConfigError, DataError, reading
from tulink.graphs import symmetric_normalize
from tulink.mobility import (_SEQUENCE_KEYS, MAX_FAILURE_RATE, METERS_PER_DEGREE, MOTION_STATES,
                             SECONDS_PER_DAY, SPEED_RATIO_EPS, TURN_TAN, GridMap,
                             GridSequence, ParseReport, SequenceColumns, split_sizes,
                             time_window_vocab)
from tulink.model import (COSINE_EPS, ModelInputs, ModelParams, build_model_inputs,
                          encode_graphs, encode_locations, global_attention)
from tulink.tensor import Tape, Tensor, _record, _result, recording
from tulink.train import ADAM_EPS, BETA1, BETA2

# Denominator floor when turning absolute gradient deviations into relative
# ones; deviations below floor * tolerance are indistinguishable from
# finite-difference roundoff.
_REL_FLOOR = 1e-3


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class GradCheckReport:
    max_rel_error: float
    max_abs_error: float
    worst_index: tuple
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def finite_difference_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare the taped gradient of scalar-valued f against central differences.

    f must be deterministic. The relative error of each coordinate uses a
    denominator floored at a small constant so coordinates whose true
    gradient is negligible are judged on the absolute scale of
    finite-difference noise instead of blowing up.
    """
    x.requires_grad = True
    if x.grad is None:
        x.grad = np.zeros_like(x.values)
    x.grad.fill(0.0)
    tape = Tape()
    with recording(tape):
        out = f(x)
    tape.backward(out)
    analytic = x.grad.copy()

    numeric = np.zeros_like(x.values)
    flat = x.values.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x).values.item()
        flat[i] = orig - h
        fm = f(x).values.item()
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * h)

    abs_err = np.abs(numeric - analytic)
    denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), _REL_FLOOR)
    rel = abs_err / denom
    worst = int(np.argmax(rel))
    return GradCheckReport(
        max_rel_error=float(rel.reshape(-1)[worst]),
        max_abs_error=float(abs_err.max()),
        worst_index=np.unravel_index(worst, x.values.shape),
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Taped primitives the model no longer calls, kept for the compositions below
# ---------------------------------------------------------------------------

def add_scalar(x: Tensor, c: float) -> Tensor:
    out = _result(x.values + c, x)
    if out.requires_grad:
        def backward():
            x.grad += out.grad
        _record(backward)
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"div shape mismatch: {a.shape} vs {b.shape}")
    out = _result(a.values / b.values, a, b)
    if out.requires_grad:
        def backward():
            if a.requires_grad:
                a.grad += out.grad / b.values
            if b.requires_grad:
                b.grad -= out.grad * a.values / (b.values * b.values)
        _record(backward)
    return out


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Reorder axes (a view of x); output axis i is input axis axes[i]."""
    out = _result(np.transpose(x.values, axes), x)
    if out.requires_grad:
        inverse = tuple(np.argsort(axes))
        def backward():
            x.grad += np.transpose(out.grad, inverse)
        _record(backward)
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """A view of x where numpy can give one; output values are never written."""
    out = _result(x.values.reshape(shape), x)
    if out.requires_grad:
        def backward():
            x.grad += out.grad.reshape(x.shape)
        _record(backward)
    return out


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    out = _result(x.values[start:stop].copy(), x)
    if out.requires_grad:
        def backward():
            x.grad[start:stop] += out.grad
        _record(backward)
    return out


def relu(x: Tensor) -> Tensor:
    out = _result(np.maximum(x.values, 0.0), x)
    if out.requires_grad:
        mask = x.values > 0.0  # subgradient at exactly zero is zero
        def backward():
            x.grad += out.grad * mask
        _record(backward)
    return out


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., :] + b with b broadcast over all leading axes."""
    if b.values.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ValueError(f"add_bias shape mismatch: {x.shape} vs {b.shape}")
    out = _result(x.values + b.values, x, b)
    if out.requires_grad:
        def backward():
            if x.requires_grad:
                x.grad += out.grad
            if b.requires_grad:
                b.grad += out.grad.reshape(-1, b.shape[0]).sum(axis=0)
        _record(backward)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    out = _result(x.values * c, x)
    if out.requires_grad:
        def backward():
            x.grad += out.grad * c
        _record(backward)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., m, k) @ (k, n), or (..., m, k) @ (..., k, n) with equal batch axes."""
    if (a.values.ndim < 2 or b.values.ndim not in (2, a.values.ndim)
            or a.shape[-1] != b.shape[-2] or (b.values.ndim > 2 and a.shape[:-2] != b.shape[:-2])):
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = _result(a.values @ b.values, a, b)
    if out.requires_grad:
        def backward():
            if a.requires_grad:
                a.grad += out.grad @ np.swapaxes(b.values, -1, -2)
            if b.requires_grad and b.values.ndim == 2:  # shared weight: sum over the batch
                k, n = b.shape
                b.grad += a.values.reshape(-1, k).T @ out.grad.reshape(-1, n)
            elif b.requires_grad:
                b.grad += np.swapaxes(a.values, -1, -2) @ out.grad
        _record(backward)
    return out


def softmax(x: Tensor) -> Tensor:
    """T.softmax with its Jacobian recorded."""
    p = T.softmax(x).values
    out = _result(p, x)
    if out.requires_grad:
        def backward():
            g = out.grad
            x.grad += (g - (g * p).sum(axis=-1, keepdims=True)) * p
        _record(backward)
    return out


def sparsemax(x: Tensor) -> Tensor:
    """T.sparsemax with its Jacobian recorded, which acts only on each row's
    support: the centred upstream gradient there, zero elsewhere."""
    p = T.sparsemax(x).values
    out = _result(p, x)
    if out.requires_grad:
        support = p > 0.0
        support_size = np.count_nonzero(support, axis=-1, keepdims=True)
        def backward():
            g = np.where(support, out.grad, 0.0)
            x.grad += np.where(support, g - g.sum(axis=-1, keepdims=True) / support_size, 0.0)
        _record(backward)
    return out


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


# ---------------------------------------------------------------------------
# Ranking metrics one prediction object at a time
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Prediction:
    true_class: int
    ranking: np.ndarray  # permutation of all classes, best first


def rank_classes(logits_row: np.ndarray) -> np.ndarray:
    """Descending-logit ranking; stable sort keeps ties in ascending order."""
    return np.argsort(-logits_row, kind="stable")


def build_predictions(logits: np.ndarray, true_classes) -> list[Prediction]:
    if logits.shape[0] != len(true_classes):
        raise ValueError(f"{logits.shape[0]} logit rows for {len(true_classes)} labels")
    return [Prediction(int(c), rank_classes(row)) for row, c in zip(logits, true_classes)]


def acc_at_k(predictions, k: int) -> float:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not predictions:
        raise ValueError("cannot score an empty prediction set")
    hits = sum(p.true_class in p.ranking[:k] for p in predictions)
    return hits / len(predictions)


def macro_metrics(predictions):
    """Unweighted per-class precision/recall/F1 over classes present in truth,
    plus ``per_class``: class -> (precision, recall)."""
    true = np.asarray([p.true_class for p in predictions])
    top1 = np.asarray([p.ranking[0] for p in predictions])
    per_class: dict[int, tuple[float, float]] = {}
    f1s = []
    for c in sorted(set(true.tolist())):
        tp = int(np.sum((top1 == c) & (true == c)))
        n_pred = int(np.sum(top1 == c))
        n_true = int(np.sum(true == c))
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_true
        per_class[c] = (precision, recall)
        f1s.append(
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    macro_p = float(np.mean([pr[0] for pr in per_class.values()]))
    macro_r = float(np.mean([pr[1] for pr in per_class.values()]))
    macro_f1 = float(np.mean(f1s))
    return macro_p, macro_r, macro_f1, per_class


def report_oracle(logits, labels, ks=(1, 5)):
    """(acc_at, macro_p, macro_r, macro_f1) through one Prediction per row."""
    predictions = build_predictions(logits, labels)
    macro_p, macro_r, macro_f1, _ = macro_metrics(predictions)
    return {k: acc_at_k(predictions, k) for k in ks}, macro_p, macro_r, macro_f1


def global_graph_oracle(incidence, traj_ids, user_ids, train_labels):
    """(adjacency, features) of the global graph from Python lists, a dict
    from training trajectory id to user id and a row-by-row user union:
    every trajectory pair sharing grids, one edge pair per training label at
    the largest trajectory weight (1 if none)."""
    n_traj = len(traj_ids)
    index_of = {tid: i for i, tid in enumerate(traj_ids)}
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
# The local branch over batches zero-padded to their longest sequence
# ---------------------------------------------------------------------------

def padded_masked_attention(state: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, lengths,
                            heads: int, inv_scale: float) -> Tensor:
    """T.masked_attention over a padded batch: multi-head self-attention of
    each (m, d) row of the (B, m, d) state over its first lengths[i]
    positions, the heads merged back to (B, m, d). Every product runs over
    all B·m positions, each projection as one (B, m, d) @ (d, d) product."""
    x = state.values
    lens = np.asarray(lengths, dtype=np.int64)
    if (x.ndim != 3 or heads < 1 or x.shape[2] % heads or lens.shape != x.shape[:1]
            or any(w.shape != (x.shape[2],) * 2 for w in (wq, wk, wv))):
        raise ValueError(f"masked_attention shape mismatch: state {state.shape}, {heads} heads, "
                         f"weights {[w.shape for w in (wq, wk, wv)]}, lengths {lens.shape}")
    b, m, d = x.shape
    if lens.size and (lens.min() < 1 or lens.max() > m):
        raise ValueError(f"masked_attention lengths must lie in [1, {m}], "
                         f"got {int(lens.min())}..{int(lens.max())}")
    dh = d // heads
    q, k, v = ((x @ w.values).reshape(b, m, heads, dh).transpose(0, 2, 1, 3)
               for w in (wq, wk, wv))
    p = (q @ np.swapaxes(k, -1, -2)) * inv_scale
    p += np.where(np.arange(m) < lens[:, None], 0.0, -np.inf)[:, None, None, :]
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = _result((p @ v).transpose(0, 2, 1, 3).reshape(b, m, d), state, wq, wk, wv)
    if out.requires_grad:
        def backward():
            g = out.grad.reshape(b, m, heads, dh).transpose(0, 2, 1, 3)
            g_p = g @ np.swapaxes(v, -1, -2)
            g_s = (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * p
            g_s *= inv_scale
            g_k = np.swapaxes(np.swapaxes(q, -1, -2) @ g_s, -1, -2)
            flat = x.reshape(-1, d)
            for w, g_head in ((wv, np.swapaxes(p, -1, -2) @ g), (wk, g_k), (wq, g_s @ k)):
                g_w = np.ascontiguousarray(g_head.transpose(0, 2, 1, 3)).reshape(b, m, d)
                if w.requires_grad:
                    w.grad += flat.T @ g_w.reshape(-1, d)
                if state.requires_grad:
                    state.grad += g_w @ w.values.T
        _record(backward)
    return out


def padded_max_pool_positions(z: Tensor, lengths) -> Tensor:
    """T.max_pool_positions over a padded batch: the max over axis -2 of an
    (..., m, d) array, each (m, d) matrix over its first lengths[...] rows
    only; ties resolve to the first row. The rest are padding: they get -inf
    added, so the pooled value is z + 0.0."""
    lens = np.asarray(lengths, dtype=np.int64)
    if z.values.ndim < 2 or lens.shape != z.shape[:-2]:
        raise ValueError(f"max_pool_positions shape mismatch: {z.shape}, lengths {lens.shape}")
    m = z.shape[-2]
    if lens.size and (lens.min() < 1 or lens.max() > m):
        raise ValueError(f"max_pool_positions lengths must lie in [1, {m}], "
                         f"got {int(lens.min())}..{int(lens.max())}")
    masked = z.values + np.where(np.arange(m) < lens[..., None], 0.0, -np.inf)[..., None]
    winners = np.argmax(masked, axis=-2)
    lead = np.indices(winners.shape, sparse=True)
    index = (*lead[:-1], winners, lead[-1])  # one (row, column) per output entry
    out = _result(masked[index], z)
    if out.requires_grad:
        def backward():
            z.grad[index] += out.grad
        _record(backward)
    return out


def padded_self_attention_stack(params, x, lengths, rng, training):
    """model.self_attention_stack over a (B, m, d) batch padded past each
    lengths[i]: the position table broadcast over the batch and dropout
    drawn over every position."""
    _, m, d = x.shape
    config = params.config
    inv_scale = 1.0 / math.sqrt(d // config.heads)
    state = T.add(x, Tensor(np.broadcast_to(params.pos_encoding[:m], x.shape)))
    for layer in range(config.attn_layers):
        merged = padded_masked_attention(
            state, *(params[f"attn{layer}_{kind}"] for kind in "qkv"), lengths, config.heads,
            inv_scale)
        z = T.matmul(merged, params[f"attn{layer}_out_w"], params[f"attn{layer}_out_b"])
        z = T.dropout(z, config.dropout_rate, training, rng)
        state = T.layer_norm(T.add(state, z),
                             params[f"attn{layer}_ln_gain"],
                             params[f"attn{layer}_ln_bias"])
    return state


def padded_fused_representations(params, inputs, batch, rng, training, graphs=None):
    """model.fused_representations with the local branch over the batch
    padded to its longest sequence, every per-point layer over all B·m
    positions."""
    config = params.config
    h_local, h_class, class_norms = graphs or encode_graphs(params, inputs)
    z_local = z_global = Tensor(np.zeros((len(batch), config.embed_dim)))
    if config.ablation != "tul-l":
        lengths = inputs.lengths[batch]
        m = int(lengths.max())
        x = encode_locations(params, h_local, inputs.grid_idx[batch, :m],
                             inputs.state_idx[batch, :m], inputs.times[batch, :m])
        x = T.dropout(x, config.dropout_rate, training, rng)
        z = x if config.ablation == "tul-sa" else padded_self_attention_stack(
            params, x, lengths, rng, training)
        z_local = padded_max_pool_positions(z, lengths)
    if config.ablation != "tul-g":
        z_global = global_attention(h_class, class_norms, inputs.class_counts,
                                    inputs.traj_rows[batch], config.ablation == "tul-ea")
    return T.concat([z_local, z_global], axis=-1)


# ---------------------------------------------------------------------------
# The linking model one trajectory and one head at a time
# ---------------------------------------------------------------------------

def _columns(w: Tensor, lo: int, hi: int) -> Tensor:
    return T.transpose(slice_rows(T.transpose(w), lo, hi))


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
            q, k, v = (matmul(state, _columns(params[f"attn{layer}_{kind}"],
                                              h * dh, (h + 1) * dh)) for kind in "qkv")
            weights = softmax(scale(matmul(q, T.transpose(k)), inv_scale))
            heads.append(matmul(weights, v))
        z = add_bias(matmul(T.concat(heads, axis=-1), params[f"attn{layer}_out_w"]),
                     params[f"attn{layer}_out_b"])
        z = T.dropout(z, config.dropout_rate, training, rng)
        state = T.layer_norm(T.add(state, z),
                             params[f"attn{layer}_ln_gain"],
                             params[f"attn{layer}_ln_bias"])
    return state


def masked_attention_oracle(state, wq, wk, wv, lengths, heads, inv_scale):
    """Masked multi-head self-attention composed of taped primitives: the
    heads split by reshape and permute, an additive -inf key mask broadcast
    to (B, heads, m, m), softmax, and the heads merged back to (B, m, d)."""
    b, m, d = state.shape
    dh = d // heads
    bias = np.where(np.arange(m) < np.asarray(lengths)[:, None], 0.0, -np.inf)
    key_mask = Tensor(np.broadcast_to(bias[:, None, None, :], (b, heads, m, m)))
    q, k, v = (permute(reshape(matmul(state, w), (b, m, heads, dh)), (0, 2, 1, 3))
               for w in (wq, wk, wv))
    scores = T.add(scale(matmul(q, T.transpose(k)), inv_scale), key_mask)
    return reshape(permute(matmul(softmax(scores), v), (0, 2, 1, 3)), (b, m, d))


def per_row_global_attention_oracle(h_traj, traj_norms, index, use_softmax):
    """Cosine scores of one trajectory against the roster, one vector."""
    n_traj, d = h_traj.shape
    hi = slice_rows(h_traj, index, index + 1)
    dots = reshape(matmul(h_traj, T.transpose(hi)), (n_traj,))
    denom = matmul(reshape(traj_norms, (n_traj, 1)), reshape(T.row_norms(hi), (1, 1)))
    scores = div(dots, add_scalar(reshape(denom, (n_traj,)), COSINE_EPS))
    weights = softmax(scores) if use_softmax else sparsemax(scores)
    return reshape(matmul(reshape(weights, (1, n_traj)), h_traj), (d,))


def trajectory_attention_oracle(h_traj: Tensor, traj_norms: Tensor, batch, eps: float,
                                use_softmax: bool) -> Tensor:
    """The fused cosine attention over every trajectory row, one column per
    trajectory: T.cosine_attention as it was before it ran over twin
    classes, its normalizers the unweighted T.softmax and T.sparsemax."""
    idx = np.asarray(batch, dtype=np.int64)
    h = h_traj.values
    n = h.shape[0]
    rows = h[idx]
    nh = traj_norms.values
    nr = nh[idx]
    dots = rows @ np.swapaxes(h, -1, -2)
    denom = nr[:, None] * nh
    denom += eps
    scores = Tensor(np.divide(dots, denom, out=denom))
    p = (T.softmax(scores) if use_softmax else T.sparsemax(scores)).values
    out = _result(p @ h, h_traj, traj_norms)
    if out.requires_grad:
        r, c = np.nonzero(p > 0.0)
        kept, col = np.unique(c, return_inverse=True)
        b = len(idx)
        w = p[r, c] if use_softmax else np.ones(len(r))
        w_sum = np.bincount(r, w, b)
        weights = p[:, kept]
        dots_s, denom_s = dots[r, c], nr[r] * nh[c] + eps

        def backward():
            g = out.grad
            h_kept = h[kept]
            g_p = (g @ h_kept.T)[r, col]
            mean = np.bincount(r, w * g_p, b) / w_sum
            mean += np.bincount(r, w * (g_p - mean[r]), b) / w_sum
            g_scores = w * (g_p - mean[r])
            g_dots = g_scores / denom_s
            g_denom = -g_scores * dots_s / (denom_s * denom_s)
            if h_traj.requires_grad:
                d_dots = np.zeros(weights.shape)
                d_dots[r, col] = g_dots
                h_traj.grad[kept] += weights.T @ g + d_dots.T @ rows
                np.add.at(h_traj.grad, idx, d_dots @ h_kept)
            if traj_norms.requires_grad:
                traj_norms.grad += np.bincount(
                    np.concatenate((c, idx[r])),
                    np.concatenate((g_denom * nr[r], g_denom * nh[c])), minlength=n)
        _record(backward)
    return out


def dense_global_attention_oracle(h_traj, traj_norms, batch, eps, use_softmax):
    """Cosine attention composed of taped primitives, every backward step
    over dense (B, n_traj) buffers. The batch rows' norms are gathered from
    traj_norms, so gradients reach h_traj and traj_norms as they do in
    T.cosine_attention."""
    n_traj = h_traj.shape[0]
    rows = T.embedding(h_traj, batch)
    dots = matmul(rows, T.transpose(h_traj))
    row_norms = T.embedding(reshape(traj_norms, (n_traj, 1)), batch)
    norms = matmul(row_norms, reshape(traj_norms, (1, n_traj)))
    scores = div(dots, add_scalar(norms, eps))
    weights = softmax(scores) if use_softmax else sparsemax(scores)
    return matmul(weights, h_traj)


def dense_gcn_oracle(m_norm, features, weights, n_rows=None):
    """Stacked GCN composed of taped spmm, matmul and relu, every backward
    step over the whole graph, then the first n_rows node rows (every
    node's when None); features None means one-hot, so X W0 is W0."""
    xw = weights[0] if features is None else T.spmm(features, weights[0])
    h = relu(T.spmm(m_norm, xw))
    for w in weights[1:]:
        h = relu(T.spmm(m_norm, matmul(h, w)))
    return h if n_rows is None else slice_rows(h, 0, n_rows)


def gcn_rows_oracle(gcn, m_norm, features, weights, rows):
    """``gcn``'s node rows[i] row for each i, rows repeating nodes as twin
    trajectories read their class's row: a taped gather, whose backward adds
    the repeated reads into their node."""
    return T.embedding(gcn(m_norm, features, weights), rows)


def twin_quotient_oracle(m, x):
    """graphs.twin_quotient by a loop over the nodes: a dict from each row's
    entries to its class, and each quotient entry summed column by column."""
    m, x = m.tocsr(), x.tocsr()

    def row(a, i):
        lo, hi = a.indptr[i], a.indptr[i + 1]
        return tuple(a.indices[lo:hi].tolist()), tuple(a.data[lo:hi].tolist())

    seen, classes, members = {}, [], []
    for i in range(m.shape[0]):
        key = (row(m, i), row(x, i))
        if key not in seen:
            seen[key] = len(members)
            members.append(i)
        classes.append(seen[key])
    k = len(members)
    m_q = sp.lil_matrix((k, k))
    for c, i in enumerate(members):
        sums = {}
        for j, v in zip(*row(m, i)):
            sums[classes[j]] = sums.get(classes[j], 0.0) + v
        for cj, v in sums.items():
            m_q[c, cj] = v
    return m_q.tocsr(), x[members], np.asarray(classes, dtype=np.int64)


def per_trajectory_logits_oracle(params, inputs, batch, rng, training):
    """Logits with a Python loop over the batch: each trajectory attends over
    its own unpadded sequence and scores the roster on its own."""
    config = params.config
    h_local, h_class, class_norms = encode_graphs(params, inputs)
    if config.ablation != "tul-g":  # each trajectory's row and norm, read from its class
        h_traj, traj_norms = (T.embedding(t, inputs.traj_rows) for t in (h_class, class_norms))
    zeros_d = Tensor(np.zeros(config.embed_dim))
    rows = []
    for idx in batch:
        z_local = z_global = zeros_d
        if config.ablation != "tul-l":
            m = inputs.lengths[idx]
            x = encode_locations(params, h_local, inputs.grid_idx[idx, :m],
                                 inputs.state_idx[idx, :m], inputs.times[idx, :m])
            x = T.dropout(x, config.dropout_rate, training, rng)
            z = x if config.ablation == "tul-sa" else per_head_attention_oracle(
                params, config, x, rng, training)
            z_local = padded_max_pool_positions(z, m)
        if config.ablation != "tul-g":
            z_global = per_row_global_attention_oracle(
                h_traj, traj_norms, int(idx), config.ablation == "tul-ea")
        rows.append(reshape(T.concat([z_local, z_global], axis=-1), (1, -1)))
    stacked = T.concat(rows, axis=0)
    return add_bias(matmul(stacked, T.transpose(params["link_w"])), params["link_b"])


def evaluate_rows_oracle(params, inputs, indices, forward, chunk=16):
    """Evaluation-mode ``forward`` rows in request order, one pass per
    ``chunk`` consecutive requested indices: the training batch's shape,
    with no reordering and no scatter."""
    rng = np.random.default_rng(0)
    graphs = encode_graphs(params, inputs)
    return np.concatenate([
        forward(params, inputs, indices[lo : lo + chunk], rng, False, graphs).values
        for lo in range(0, len(indices), chunk)
    ], axis=0)


# ---------------------------------------------------------------------------
# The linking model with a first-layer GCN row for every bounding-box cell
# ---------------------------------------------------------------------------

def bounding_box_adjacency(local_graph):
    """A local graph's adjacency over every bounding-box cell: the visited
    cells' rows and columns at their ids, the rest empty."""
    coo = local_graph.adjacency.tocoo()
    cells, n = local_graph.cells, local_graph.n_grids
    out = sp.coo_matrix((coo.data, (cells[coo.row], cells[coo.col])), shape=(n, n)).tocsr()
    out.sort_indices()
    return out


def bounding_box_inputs_oracle(sequences, local_graph, global_graph):
    """Model inputs indexed by bounding-box cell and by global node: the whole
    normalized local and global adjacencies, every feature row and column,
    raw grid ids padded with grid 0, and no twin classes."""
    inputs = build_model_inputs(sequences, local_graph, global_graph)

    grid_idx = np.zeros_like(inputs.grid_idx)
    for row, s in zip(grid_idx, sequences):
        row[: len(s)] = s.grid
    return dataclasses.replace(
        inputs,
        m_local=symmetric_normalize(bounding_box_adjacency(local_graph)),
        m_global=symmetric_normalize(global_graph.adjacency),
        x_global=global_graph.features.astype(np.float64).tocsr(),
        traj_rows=np.arange(inputs.n_traj),
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
    values = bounding_box_initial_values(config, n_grids, n_users, rng)
    return ModelParams(config, np.concatenate([v.ravel() for v in values.values()]), n_grids,
                       n_users, max_seq_len)


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
        term = T.sum_squares([t], 1.0)
        penalty = term if penalty is None else T.add(penalty, term)
    return penalty


# ---------------------------------------------------------------------------
# Artifact formats one record at a time
# ---------------------------------------------------------------------------

def load_report(path):
    """metrics.txt as a {key: value} dict."""
    out = {}
    for line in Path(path).read_text().splitlines():
        key, value = line.split("=")
        out[key] = float(value)
    return out


def write_coo_oracle(fh, name, m):
    """A graph file's matrix section written one entry per call."""
    coo = m.tocoo()
    order = np.lexsort((coo.col, coo.row))
    fh.write(f"matrix {name} {m.shape[0]} {m.shape[1]} {coo.nnz}\n")
    for r, c, w in zip(coo.row[order], coo.col[order], coo.data[order]):
        fh.write(f"{r} {c} {int(w)}\n")


def export_embeddings_oracle(representations, traj_ids, user_ids, path):
    """embeddings.tsv written one row and one repr per float at a time."""
    representations = np.asarray(representations)
    with Path(path).open("w", encoding="utf-8") as fh:
        for tid, uid, row in zip(traj_ids, user_ids, representations):
            vals = "\t".join(repr(float(v)) for v in row)
            fh.write(f"{tid}\t{uid}\t{vals}\n")


def save_sequences_oracle(sequences, path):
    """sequences.jsonl written with one json.dumps per record."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for s in sequences:
            fh.write(json.dumps({"user": s.user_id, "interval": s.interval_index,
                                 "t": s.t, "grid": s.grid, "state": s.state},
                                sort_keys=True) + "\n")


def load_sequences_oracle(path):
    """sequences.jsonl read with one json.loads per line and per-record checks;
    it does not look at the order of the records, nor for a (user, interval)
    listed twice."""
    out = []
    with reading(path, "preprocess"), Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            if type(d) is not dict or d.keys() != _SEQUENCE_KEYS:
                raise ValueError(f"a record's keys are not {sorted(_SEQUENCE_KEYS)}")
            t, grid, state = d["t"], d["grid"], d["state"]
            if not (type(t) is type(grid) is type(state) is list
                    and 0 < len(t) == len(grid) == len(state)):
                raise ValueError("t, grid and state must be lists of one non-zero length")
            for field, ids in (("grid", grid), ("state", state)):
                for i in ids:
                    if type(i) is not int:
                        raise ValueError(f"{field} id {i!r} is not an integer")
                    if not -2**63 <= i < 2**63:
                        raise ValueError(f"{field} id {i!r} is outside the int64 range")
            for v in t:
                if type(v) is not float:
                    raise ValueError(f"t {v!r} is not a float")
            if type(d["user"]) is not str:
                raise ValueError(f"user {d['user']!r} is not a str")
            if type(d["interval"]) is not int:
                raise ValueError(f"interval {d['interval']!r} is not an integer")
            if not -2**63 <= d["interval"] < 2**63:
                raise ValueError(f"interval {d['interval']!r} is outside the int64 range")
            out.append(GridSequence(d["user"], d["interval"], t, grid, state))
    return out


# ---------------------------------------------------------------------------
# Sequence stages one GridSequence record at a time
# ---------------------------------------------------------------------------

def columns_from_records(records):
    """SequenceColumns holding GridSequence records in their given order."""
    roster = sorted({s.user_id for s in records})
    code = {u: k for k, u in enumerate(roster)}
    lengths = [len(s.t) for s in records]

    def flat(field, dtype):
        return np.array([v for s in records for v in getattr(s, field)], dtype=dtype)

    return SequenceColumns(
        roster, np.array([code[s.user_id] for s in records], dtype=np.int64),
        np.array([s.interval_index for s in records], dtype=np.int64),
        np.cumsum([0, *lengths], dtype=np.int64)[:-1], flat("t", np.float64),
        flat("grid", np.int64), flat("state", np.int64))


def chronological_split_oracle(sequences):
    """Per-user 60/20/20 split of records in any order, as lists of
    trajectory ids keyed by part: regrouped per user in a dict and sorted by
    interval."""
    per_user = {}
    for s in sequences:
        per_user.setdefault(s.user_id, []).append(s)
    split = {"train": [], "validation": [], "test": []}
    for user in sorted(per_user):
        items = sorted(per_user[user], key=lambda s: s.interval_index)
        n_train, n_val, _ = (int(n) for n in split_sizes(len(items)))
        ids = [s.traj_id for s in items]
        split["train"].extend(ids[:n_train])
        split["validation"].extend(ids[n_train : n_train + n_val])
        split["test"].extend(ids[n_train + n_val :])
    return split


def build_local_graph_oracle(sequences, n_grids):
    """Local adjacency over every bounding-box cell from a list of
    (trajectory, grid, next grid) steps."""
    steps = [(i, a, b) for i, seq in enumerate(sequences)
             for a, b in zip(seq.grid, seq.grid[1:]) if a != b]
    t, a, b = np.array(steps, dtype=np.int64).reshape(-1, 3).T
    _, lo, hi = np.unique([t, np.minimum(a, b), np.maximum(a, b)], axis=1)
    upper = sp.coo_matrix((np.ones(len(lo), dtype=np.int64), (lo, hi)), shape=(n_grids, n_grids))
    adj = (upper + upper.T).tocsr()
    adj.sort_indices()
    return adj


def build_grid_incidence_oracle(sequences, n_grids):
    """Incidence from a list of (trajectory, grid) visits."""
    visits = [(i, g) for i, seq in enumerate(sequences) for g in seq.grid]
    rows, cols = np.array(visits, dtype=np.int64).reshape(-1, 2).T
    inc = sp.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)),
                        shape=(len(sequences), n_grids))
    inc.data[:] = 1
    inc.sort_indices()
    return inc


def model_inputs_oracle(sequences, local_graph, global_graph):
    """Labels and padded id and time matrices of records filled one row at a time,
    and the rest of ModelInputs from the records' grids."""
    user_index = {u: k for k, u in enumerate(global_graph.user_ids)}
    lengths = np.asarray([len(s) for s in sequences], dtype=np.int64)

    def padded(field, dtype=np.int64):
        out = np.zeros((len(sequences), lengths.max()), dtype=dtype)
        for row, s in zip(out, sequences):
            row[: len(s)] = getattr(s, field)
        return out

    grid_rows = np.unique(np.concatenate([s.grid for s in sequences]).astype(np.int64))
    m_global, x_global, classes = twin_quotient_oracle(
        symmetric_normalize(global_graph.adjacency),
        global_graph.features.astype(np.float64).tocsr()[:, grid_rows])
    return ModelInputs(
        m_local=symmetric_normalize(bounding_box_adjacency(local_graph))[grid_rows][:, grid_rows],
        m_global=m_global,
        x_global=x_global,
        traj_rows=classes[: len(sequences)],
        traj_ids=[s.traj_id for s in sequences],
        grid_idx=np.searchsorted(grid_rows, padded("grid")),
        state_idx=padded("state"),
        times=padded("t", np.float64),
        lengths=lengths,
        labels=np.asarray([user_index[s.user_id] for s in sequences], dtype=np.int64),
        user_ids=list(global_graph.user_ids),
        n_grids=local_graph.n_grids,
        grid_rows=grid_rows,
        max_seq_len=int(lengths.max()),
    )


# ---------------------------------------------------------------------------
# Preprocessing one point and one sub-trajectory at a time
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SpatioTemporalPoint:
    """A single timestamped coordinate."""

    t: float
    lon: float
    lat: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"timestamp must be finite, got {self.t}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")


@dataclasses.dataclass(frozen=True)
class RawTrajectory:
    """All points of one user, in chronological order."""

    user_id: str
    points: tuple[SpatioTemporalPoint, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("trajectory must contain at least one point")
        ts = [p.t for p in self.points]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"timestamps not non-decreasing for user {self.user_id!r}")


@dataclasses.dataclass(frozen=True)
class SubTrajectory:
    """The slice of a user's points falling into one time interval."""

    user_id: str
    interval_index: int
    points: tuple[SpatioTemporalPoint, ...]


def parse_dataset_oracle(path):
    """``(trajectories, report)``: one SpatioTemporalPoint per parsed line,
    users sorted by id and each user's points sorted by time."""
    path = Path(path)
    per_user: dict[str, list[SpatioTemporalPoint]] = {}
    report = ParseReport()
    first_content_line = True
    with path.open("r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if first_content_line:
                first_content_line = False
                if len(fields) >= 2:
                    try:
                        float(fields[1])
                    except ValueError:
                        continue  # header line
            report.data_lines += 1
            try:
                if len(fields) != 4:
                    raise ValueError("expected 4 comma-separated fields")
                user, t_s, lat_s, lon_s = (f.strip() for f in fields)
                if "\t" in user:
                    raise DataError(f"{path} line {number}: user id {user!r} holds a tab, "
                                    "which would split its rows of embeddings.tsv")
                point = SpatioTemporalPoint(t=float(t_s), lon=float(lon_s), lat=float(lat_s))
            except ValueError:
                report.failed += 1
                continue
            per_user.setdefault(user, []).append(point)
            report.parsed += 1
    if report.data_lines == 0:
        raise DataError(f"no records found in {path}")
    if report.failed > MAX_FAILURE_RATE * report.data_lines:
        raise DataError(
            f"{report.failed} of {report.data_lines} lines failed to parse "
            f"(more than {MAX_FAILURE_RATE:.0%}); aborting"
        )
    trajectories = [
        RawTrajectory(user, tuple(sorted(pts, key=lambda p: p.t)))
        for user, pts in sorted(per_user.items())
    ]
    return trajectories, report


def build_grid_map_oracle(points, cell_size):
    """The grid map over the points' bounds, taken with Python's min and max."""
    if cell_size <= 0:
        raise ValueError(f"cell_size must be positive, got {cell_size}")
    pts = list(points)
    if not pts:
        raise DataError("cannot build a grid map from zero points")
    min_lon = min(p.lon for p in pts)
    max_lon = max(p.lon for p in pts)
    min_lat = min(p.lat for p in pts)
    max_lat = max(p.lat for p in pts)
    mid_lat = 0.5 * (min_lat + max_lat)
    width_m = (max_lon - min_lon) * METERS_PER_DEGREE * math.cos(math.radians(mid_lat))
    height_m = (max_lat - min_lat) * METERS_PER_DEGREE
    spans = [max(1.0, (extent - 1e-6) / cell_size) for extent in (width_m, height_m)]
    cols, rows = (math.ceil(s) if s < 2.0 ** 63 else 2 ** 63 for s in spans)
    if cols * rows > 2 ** 63:
        raise ConfigError(f"cell_size {cell_size} m gives a grid of {spans[0]:.3g} x "
                          f"{spans[1]:.3g} cells, too many for int64 grid ids")
    return GridMap(min_lon, min_lat, max_lon, max_lat, cell_size, cols, rows)


def map_point_to_grid(p, gm):
    """Cell index of one point with Python floats and ints, or the DataError
    naming its longitude (checked first) or latitude."""
    x_m = (p.lon - gm.min_lon) * gm.meters_per_deg_lon
    y_m = (p.lat - gm.min_lat) * gm.meters_per_deg_lat
    if not -gm.cell_size <= x_m <= gm.cols * gm.cell_size + gm.cell_size:
        raise DataError(f"longitude {p.lon} outside the expanded grid bounding box")
    if not -gm.cell_size <= y_m <= gm.rows * gm.cell_size + gm.cell_size:
        raise DataError(f"latitude {p.lat} outside the expanded grid bounding box")
    col = min(max(math.floor(x_m / gm.cell_size), 0), gm.cols - 1)
    row = min(max(math.floor(y_m / gm.cell_size), 0), gm.rows - 1)
    return row * gm.cols + col


def split_trajectory_by_interval(tr, tau):
    """A point with timestamp t lands in interval floor(t / tau). Empty
    intervals are omitted; within-interval point order is preserved. An id
    outside the int64 range is a ConfigError naming tau."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    buckets: dict[int, list[SpatioTemporalPoint]] = {}
    for p in tr.points:
        index = p.t / tau
        if not abs(index) < 2.0 ** 63:
            raise ConfigError(f"tau {tau} s gives interval ids beyond the int64 range")
        buckets.setdefault(math.floor(index), []).append(p)
    return [
        SubTrajectory(tr.user_id, idx, tuple(buckets[idx]))
        for idx in sorted(buckets)
    ]


def planar_xy(points):
    mid_lat = 0.5 * (min(p.lat for p in points) + max(p.lat for p in points))
    mx = METERS_PER_DEGREE * math.cos(math.radians(mid_lat))
    return [(p.lon * mx, p.lat * METERS_PER_DEGREE) for p in points]


def segment_pair(st, i, xy):
    """Planar components, lengths and durations of the segments a and b
    ending at points i - 1 and i."""
    ts = [p.t for p in st.points]
    a = (xy[i - 1][0] - xy[i - 2][0], xy[i - 1][1] - xy[i - 2][1])
    b = (xy[i][0] - xy[i - 1][0], xy[i][1] - xy[i - 1][1])
    return a, b, math.hypot(*a), math.hypot(*b), ts[i - 1] - ts[i - 2], ts[i] - ts[i - 1]


# The angle rule's own threshold; mobility.TURN_TAN is its tangent.
TURN_THRESHOLD_DEG = 15.0


def heading_change(a, b):
    """b's heading minus a's by math.atan2, wrapped to (-pi, pi]."""
    dtheta = math.atan2(b[1], b[0]) - math.atan2(a[1], a[0])
    while dtheta <= -math.pi:
        dtheta += 2 * math.pi
    while dtheta > math.pi:
        dtheta -= 2 * math.pi
    return dtheta


def angle_turn(a, b):
    """Left (1) / right (2) / straight (0) by the heading change against 15
    degrees: the reference rule, which rounds differently near +-pi."""
    dtheta = heading_change(a, b)
    theta0 = math.radians(TURN_THRESHOLD_DEG)
    return 1 if dtheta > theta0 else 2 if dtheta < -theta0 else 0


def sign_turn(a, b):
    """The turn class from the signs of the cross and dot products, with the
    products and sums mobility.motion_states rounds, one Python float at a
    time, each segment first scaled by the power of two that puts its larger
    component in [0.5, 1); an exact reversal is a left turn."""
    a, b = ([math.ldexp(c, -math.frexp(max(map(abs, v)))[1]) for c in v] for v in (a, b))
    cross = a[0] * b[1] - a[1] * b[0]
    dot = a[0] * b[0] + a[1] * b[1]
    if dot <= 0 or abs(cross) > TURN_TAN * dot:
        return 2 if cross < 0 else 1
    return 0


def encode_motion_states(st, turn=angle_turn):
    """Nine-state motion codes per point, one Python float at a time, with
    turn classes by ``turn``."""
    n = len(st.points)
    states = [0] * n
    if n < 3:
        return states
    xy = planar_xy(st.points)
    for i in range(2, n):
        a, b, da, db, dta, dtb = segment_pair(st, i, xy)

        speed_class = 0
        if dta > 0 and dtb > 0:
            va = da / dta
            vb = db / dtb
            if vb > (1.0 + SPEED_RATIO_EPS) * va:
                speed_class = 1
            elif vb < (1.0 - SPEED_RATIO_EPS) * va:
                speed_class = 2

        turn_class = turn(a, b) if da > 0 and db > 0 else 0
        states[i] = 3 * speed_class + turn_class
    return states


def motion_margin(st, i):
    """How near point i's speed ratio lies to its class thresholds, relative
    to the compared values. Only within a few ulps can numpy's hypot give
    another speed class than math's."""
    _, _, da, db, dta, dtb = segment_pair(st, i, planar_xy(st.points))
    margins = [math.inf]
    if dta > 0 and dtb > 0:
        va, vb = da / dta, db / dtb
        for factor in (1.0 + SPEED_RATIO_EPS, 1.0 - SPEED_RATIO_EPS):
            bound = factor * va
            margins.append(abs(vb - bound) / max(abs(vb), abs(bound), 5e-324))
    return min(margins)


def encode_time_windows(st, window_len):
    """Time-of-day window per point; a time that rounds to a whole day is in
    the last window."""
    vocab = time_window_vocab(window_len)
    return [min(int((p.t % SECONDS_PER_DAY) // window_len), vocab - 1) for p in st.points]


def build_grid_sequences_oracle(subtrajectories, gm):
    return [
        GridSequence(
            user_id=st.user_id,
            interval_index=st.interval_index,
            t=[p.t for p in st.points],
            grid=[map_point_to_grid(p, gm) for p in st.points],
            state=encode_motion_states(st),
        )
        for st in subtrajectories
    ]


def preprocess_oracle(path, cell_size, tau):
    """``(report, roster, grid map, sub-trajectories, sequences)`` of a CSV
    file through the point objects, with sub-trajectories sorted by (user,
    interval). Errors come in the order of the column path: parse, grid
    map, interval ids."""
    trajectories, report = parse_dataset_oracle(path)
    all_points = [p for tr in trajectories for p in tr.points]
    gm = build_grid_map_oracle(all_points, cell_size)
    subtrajs = [st for tr in trajectories for st in split_trajectory_by_interval(tr, tau)]
    subtrajs.sort(key=lambda s: (s.user_id, s.interval_index))
    sequences = build_grid_sequences_oracle(subtrajs, gm)
    return report, [tr.user_id for tr in trajectories], gm, subtrajs, sequences
