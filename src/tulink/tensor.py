"""Minimal reverse-mode autodiff over float64 numpy arrays.

A :class:`Tensor` wraps a row-major float64 array plus an optional gradient
accumulator. Operations executed while a :class:`Tape` is active append one
backward closure each; replaying the tape in reverse accumulates gradients
into every tracked input exactly once per use. With no active tape (the
evaluation path) operations are plain numpy calls with no bookkeeping.

The operation set is exactly what the linking model needs: dense and
sparse-by-dense matmul, a fused stacked GCN whose backward visits only the
graph rows its gradient reaches, elementwise arithmetic,
gather/concat/permute shape plumbing, relu/tanh, softmax and sparsemax, a
fused cosine-scored attention under either, layer norm, inverted dropout,
positional max-pooling, and a fused log-space cross entropy. Every
differentiable primitive is validated against central finite differences by
:func:`finite_difference_check`.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DataError

LAYER_NORM_EPS = 1e-5
# Entries per row that sparsemax sorts first; trained score rows over a
# roster of thousands keep a few dozen.
SPARSEMAX_WIDTH = 128
# Denominator floor when turning absolute gradient deviations into relative
# ones; deviations below floor * tolerance are indistinguishable from
# finite-difference roundoff.
_REL_FLOOR = 1e-3
# Share of a graph's nodes above which a GCN backward layer runs full-graph
# products: gathering that many rows costs more than it saves.
GCN_DENSE_SHARE = 0.5
_ALL = slice(None)


class Tensor:
    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False, grad: np.ndarray | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.values) if requires_grad and grad is None else grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return self.values.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of backward closures for one forward pass."""

    __slots__ = ("_ops",)

    def __init__(self):
        self._ops: list[Callable[[], None]] = []

    def __len__(self) -> int:
        return len(self._ops)

    def backward(self, root: Tensor) -> None:
        """Seed the scalar root with gradient one and replay in reverse."""
        if root.values.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {root.shape}")
        if root.grad is None:
            raise ValueError("backward root is not tracked by this tape")
        root.grad.fill(0.0)
        root.grad += 1.0
        for op in reversed(self._ops):
            op()


_TAPES: list[Tape] = []


@contextmanager
def recording(tape: Tape):
    _TAPES.append(tape)
    try:
        yield tape
    finally:
        _TAPES.pop()


def _result(values: np.ndarray, *inputs: Tensor) -> Tensor:
    """Output tensor, tracked iff a tape is active and any input is."""
    out = Tensor.__new__(Tensor)
    out.values = values
    out.requires_grad = bool(_TAPES) and any(t.requires_grad for t in inputs)
    out.grad = np.zeros_like(values) if out.requires_grad else None
    return out


def _record(fn: Callable[[], None]) -> None:
    _TAPES[-1]._ops.append(fn)


# ---------------------------------------------------------------------------
# Arithmetic and shape plumbing
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = _result(a.values + b.values, a, b)
    if out.requires_grad:
        def backward():
            if a.requires_grad:
                a.grad += out.grad
            if b.requires_grad:
                b.grad += out.grad
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


def spmm(s: sp.spmatrix, x: Tensor) -> Tensor:
    """Constant sparse matrix times dense tensor; gradient flows into x."""
    out = _result(np.asarray(s @ x.values), x)
    if out.requires_grad:
        st = s.T
        def backward():
            x.grad += np.asarray(st @ out.grad)
        _record(backward)
    return out


def _csr_rows(m: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """m[rows] for ascending rows, gathered from m's index arrays; scipy's
    fancy row indexing costs several times as much on graphs this size."""
    starts = m.indptr[rows]
    lengths = m.indptr[rows + 1] - starts
    indptr = np.zeros(len(rows) + 1, dtype=m.indptr.dtype)
    np.cumsum(lengths, out=indptr[1:])
    pos = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
    return sp.csr_matrix((m.data[pos], m.indices[pos], indptr), shape=(len(rows), m.shape[1]))


def gcn(m_norm: sp.spmatrix, features: sp.spmatrix | None, weights: Sequence[Tensor],
        n_rows: int | None = None) -> Tensor:
    """Stacked graph convolution H <- ReLU(M (H W)), one layer per weight,
    from H = features (the identity when None, so X W0 is W0); the result
    keeps the first n_rows node rows, all of them by default.

    The forward makes the same float operations in the same order as the
    composition of spmm, matmul and relu. The backward starts from the
    nonzero rows of the result's gradient and carries them back one hop per
    layer: a layer's gradient reaches only the nodes adjacent to the rows it
    starts from, so every product runs over those rows and nodes alone. From
    the layer whose rows exceed GCN_DENSE_SHARE of the nodes, it runs the
    full-graph products instead.
    """
    m = m_norm.tocsr()
    n = m.shape[0]
    w0 = weights[0].values
    width = n if features is None else features.shape[1]
    if (m.shape != (n, n) or (features is not None and features.shape[0] != n)
            or w0.ndim != 2 or w0.shape[0] != width
            or any(w.shape != (w0.shape[1], w0.shape[1]) for w in weights[1:])):
        raise ValueError(f"gcn shape mismatch: {m.shape} graph, "
                         f"{None if features is None else features.shape} features, "
                         f"weights {[w.shape for w in weights]}")
    # Each layer's output; its positive entries are the layer's ReLU mask.
    hs = [np.maximum(np.asarray(m @ (w0 if features is None else np.asarray(features @ w0))), 0.0)]
    for w in weights[1:]:
        hs.append(np.maximum(np.asarray(m @ (hs[-1] @ w.values)), 0.0))
    out = _result(hs[-1][:n_rows], *weights)
    if out.requires_grad:
        x = None if features is None else features.tocsr()

        def backward():
            g = out.grad
            rows = np.flatnonzero(np.abs(g) @ np.ones(g.shape[1]))
            if not rows.size:
                return
            g = g[rows]
            for i in range(len(weights) - 1, -1, -1):
                dense = rows is _ALL or rows.size > GCN_DENSE_SHARE * n
                if dense and rows is not _ALL:  # widen to every node
                    full = np.zeros((n, g.shape[1]))
                    full[rows] = g
                    g, rows = full, _ALL
                g *= hs[i][rows] > 0.0
                if dense:
                    cols, gp = _ALL, np.asarray(m.T @ g)
                else:
                    sub = _csr_rows(m, rows)
                    reached = np.zeros(n, dtype=bool)
                    reached[sub.indices] = True
                    cols = np.flatnonzero(reached)
                    gp = np.asarray(sub.T @ g)[cols]  # (Mᵀ g)[cols]; zero elsewhere
                w = weights[i]
                if i > 0:
                    if w.requires_grad:
                        w.grad += hs[i - 1][cols].T @ gp
                    g = gp @ w.values.T
                    rows = cols
                elif w.requires_grad and x is None:
                    w.grad[cols] += gp
                elif w.requires_grad:
                    w.grad += np.asarray((x if dense else _csr_rows(x, cols)).T @ gp)
        _record(backward)
    return out


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.values.ndim < 2:
        raise ValueError(f"transpose expects a matrix, got {x.shape}")
    out = _result(np.swapaxes(x.values, -1, -2), x)
    if out.requires_grad:
        def backward():
            x.grad += np.swapaxes(out.grad, -1, -2)
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


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    out = _result(np.concatenate([p.values for p in parts], axis=axis), *parts)
    if out.requires_grad:
        sizes = [p.shape[axis] for p in parts]
        offsets = np.cumsum([0] + sizes)
        def backward():
            g = np.moveaxis(out.grad, axis, -1)
            for p, lo, hi in zip(parts, offsets, offsets[1:]):
                if p.requires_grad:
                    p.grad += np.moveaxis(g[..., lo:hi], -1, axis)
        _record(backward)
    return out


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    out = _result(x.values[start:stop].copy(), x)
    if out.requires_grad:
        def backward():
            x.grad[start:stop] += out.grad
        _record(backward)
    return out


def embedding(table: Tensor, indices) -> Tensor:
    """Gather rows of a matrix; repeated indices accumulate on backward."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(
            f"embedding index out of range [0, {table.shape[0]}): "
            f"{int(idx.min())}..{int(idx.max())}"
        )
    out = _result(table.values[idx], table)
    if out.requires_grad:
        def backward():
            np.add.at(table.grad, idx, out.grad)
        _record(backward)
    return out


# ---------------------------------------------------------------------------
# Nonlinear primitives
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    out = _result(np.maximum(x.values, 0.0), x)
    if out.requires_grad:
        mask = x.values > 0.0  # subgradient at exactly zero is zero
        def backward():
            x.grad += out.grad * mask
        _record(backward)
    return out


def tanh(x: Tensor) -> Tensor:
    vals = np.tanh(x.values)
    out = _result(vals, x)
    if out.requires_grad:
        def backward():
            x.grad += out.grad * (1.0 - vals * vals)
        _record(backward)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.values - x.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    out = _result(p, x)
    if out.requires_grad:
        def backward():
            g = out.grad
            x.grad += (g - (g * p).sum(axis=axis, keepdims=True)) * p
        _record(backward)
    return out


def sparsemax(x: Tensor) -> Tensor:
    """Euclidean projection of each last-axis row onto the probability simplex.

    Sort-and-threshold: with z sorted descending, the support size is the
    largest k with 1 + k * z_(k) > sum_{j<=k} z_(j); the threshold is
    tau = (sum_{j<=k} z_(j) - 1) / k and p_i = max(z_i - tau, 0). Only each
    row's top w entries are sorted (w widened x4 while some row's support
    reaches w): they and their cumulative sums are the full sort's prefix,
    so the result is the full sort's to the bit. The Jacobian acts only on
    the support: centered upstream gradient there, zero elsewhere.
    """
    if x.values.ndim == 0 or x.shape[-1] == 0:
        raise ValueError(f"sparsemax expects non-empty rows, got {x.shape}")
    if not np.all(np.isfinite(x.values)):
        raise ValueError("sparsemax input must be finite")
    z = x.values
    n = z.shape[-1]
    width = SPARSEMAX_WIDTH
    while True:
        if width >= n:
            z_sorted = np.sort(z, axis=-1)
        else:  # the top width entries of each row, ascending
            z_sorted = np.sort(np.partition(z, n - width, axis=-1)[..., n - width:], axis=-1)
        z_sorted = np.flip(z_sorted, axis=-1)
        cumulative = np.cumsum(z_sorted, axis=-1)
        k = np.arange(1, z_sorted.shape[-1] + 1)
        inside = 1.0 + k * z_sorted > cumulative
        if width >= n or not inside[..., -1].any():
            break
        width *= 4
    support_size = np.count_nonzero(inside, axis=-1, keepdims=True)
    tau = (np.take_along_axis(cumulative, support_size - 1, axis=-1) - 1.0) / support_size
    p = z - tau
    np.maximum(p, 0.0, out=p)
    out = _result(p, x)
    if out.requires_grad:
        support = p > 0.0
        def backward():
            g = np.where(support, out.grad, 0.0)
            x.grad += np.where(support, g - g.sum(axis=-1, keepdims=True) / support_size, 0.0)
        _record(backward)
    return out


def cosine_attention(h_traj: Tensor, traj_norms: Tensor, batch, eps: float,
                     use_softmax: bool) -> Tensor:
    """Cosine-scored attention of the rows h_traj[batch] over every row of
    h_traj: sparsemax(scores) @ h_traj, or softmax if use_softmax, with scores
    the (B, n) matrix (rows @ h_trajᵀ) / (traj_norms[batch] ⊗ traj_norms + eps).

    The forward makes the same float operations in the same order as the
    taped composition of those steps. Both Jacobians are diag(w) - w wᵀ / Σw
    on a row's support, the pairs of nonzero weight p: w = p for softmax, 1
    for sparsemax. The backward visits only the support: its products run
    over the columns of the trajectories some row keeps.
    """
    idx = np.asarray(batch, dtype=np.int64)
    h = h_traj.values
    n = h.shape[0]
    if h.ndim != 2 or traj_norms.shape != (n,) or idx.ndim != 1:
        raise ValueError(f"cosine_attention shape mismatch: {h_traj.shape}, "
                         f"{traj_norms.shape}, batch {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"cosine_attention index out of range [0, {n}): "
                         f"{int(idx.min())}..{int(idx.max())}")
    rows = h[idx]
    nh = traj_norms.values
    nr = nh[idx]
    dots = rows @ np.swapaxes(h, -1, -2)
    denom = nr.reshape(-1, 1) @ nh.reshape(1, n)
    denom += eps
    scores = Tensor(dots / denom)
    p = (softmax(scores, axis=-1) if use_softmax else sparsemax(scores)).values
    out = _result(p @ h, h_traj, traj_norms)
    if out.requires_grad:
        r, c = np.nonzero(p > 0.0)  # the support, row-major
        kept, col = np.unique(c, return_inverse=True)  # trajectories some row keeps
        b = len(idx)
        w = p[r, c] if use_softmax else np.ones(len(r))
        w_sum = np.bincount(r, w, b)  # positive: every row keeps at least one
        weights = p[:, kept]
        dots_s, denom_s = dots[r, c], denom[r, c]

        def backward():
            g = out.grad
            h_kept = h[kept]
            g_p = (g @ h_kept.T)[r, col]
            # Centre each row on its w-weighted mean. The second pass sums the
            # residuals, so a row of nearly equal gradients centres accurately.
            mean = np.bincount(r, w * g_p, b) / w_sum
            mean += np.bincount(r, w * (g_p - mean[r]), b) / w_sum
            g_scores = w * (g_p - mean[r])
            g_dots = g_scores / denom_s
            g_denom = -g_scores * dots_s / (denom_s * denom_s)
            if h_traj.requires_grad:
                # A kept pair (i, j) reaches h[j] through the weighted sum and
                # the dot product, and h[batch[i]] through the dot product.
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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"layer_norm affine shapes {gain.shape}/{bias.shape} != ({d},)")
    mu = x.values.mean(axis=-1, keepdims=True)
    xc = x.values - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = _result(xhat * gain.values + bias.values, x, gain, bias)
    if out.requires_grad:
        def backward():
            g = out.grad
            if gain.requires_grad:
                gain.grad += (g * xhat).reshape(-1, d).sum(axis=0)
            if bias.requires_grad:
                bias.grad += g.reshape(-1, d).sum(axis=0)
            if x.requires_grad:
                dxhat = g * gain.values
                x.grad += (inv / d) * (
                    d * dxhat
                    - dxhat.sum(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
                )
        _record(backward)
    return out


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales survivors at train time, identity in eval."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out = _result(x.values * mask, x)
    if out.requires_grad:
        def backward():
            x.grad += out.grad * mask
        _record(backward)
    return out


def max_pool_positions(z: Tensor) -> Tensor:
    """Max over axis -2 of an (..., m, d) array; ties resolve to the first row."""
    if z.values.ndim < 2 or z.shape[-2] == 0:
        raise ValueError(f"max_pool_positions needs a non-empty matrix, got {z.shape}")
    winners = np.argmax(z.values, axis=-2)
    lead = np.indices(winners.shape, sparse=True)
    index = (*lead[:-1], winners, lead[-1])  # one (row, column) per output entry
    out = _result(z.values[index], z)
    if out.requires_grad:
        def backward():
            z.grad[index] += out.grad
        _record(backward)
    return out


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-softmax likelihood, computed in log space."""
    idx = np.asarray(targets, dtype=np.int64)
    b, c = logits.shape
    if idx.shape != (b,):
        raise ValueError(f"targets shape {idx.shape} does not match batch {b}")
    if idx.size and (idx.min() < 0 or idx.max() >= c):
        raise ValueError(f"target class out of range [0, {c})")
    m = logits.values.max(axis=1, keepdims=True)
    log_z = m + np.log(np.exp(logits.values - m).sum(axis=1, keepdims=True))
    log_p = logits.values - log_z
    loss = -log_p[np.arange(b), idx].mean()
    out = _result(np.asarray(loss), logits)
    if out.requires_grad:
        def backward():
            p = np.exp(log_p)
            p[np.arange(b), idx] -= 1.0
            logits.grad += p * (out.grad / b)
        _record(backward)
    return out


def sum_squares(*xs: Tensor) -> Tensor:
    """Sum of squared entries, summed per argument and then in argument order."""
    out = _result(np.asarray(sum((np.sum(x.values * x.values) for x in xs), 0.0)), *xs)
    if out.requires_grad:
        def backward():
            for x in xs:
                if x.requires_grad:
                    x.grad += 2.0 * x.values * out.grad
        _record(backward)
    return out


def row_norms(x: Tensor) -> Tensor:
    """Euclidean norm of each row; an all-zero row gets gradient zero. The
    backward visits only the rows whose norm has a nonzero gradient."""
    if x.values.ndim != 2:
        raise ValueError(f"row_norms expects a matrix, got {x.shape}")
    norms = np.sqrt(np.sum(x.values * x.values, axis=1))
    out = _result(norms, x)
    if out.requires_grad:
        safe = np.where(norms > 0.0, norms, 1.0)
        def backward():
            rows = np.flatnonzero(out.grad)
            x.grad[rows] += (out.grad[rows] / safe[rows])[:, None] * x.values[rows]
        _record(backward)
    return out


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

@dataclass
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
# Parameter checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"TLNKPRM1"


def save_tensors(path: str | Path, named: Sequence[tuple[str, np.ndarray]]) -> None:
    """Versioned binary checkpoint: (name, shape, row-major float64) records."""
    with Path(path).open("wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(named)))
        for name, values in named:
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(values, dtype="<f8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
            fh.write(arr.tobytes())


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint; a foreign or truncated file raises DataError."""
    size = Path(path).stat().st_size
    with Path(path).open("rb") as fh:
        def read(n: int) -> bytes:  # checked first: a corrupt length must not allocate
            if not 0 <= n <= size - fh.tell():
                raise DataError(f"checkpoint {path} is truncated; rerun the 'train' stage")
            return fh.read(n)

        if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise DataError(f"{path} is not a tulink parameter checkpoint; "
                            "rerun the 'train' stage")
        (count,) = struct.unpack("<I", read(4))
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2))
            name = read(name_len).decode("utf-8", "replace")
            (ndim,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{ndim}q", read(8 * ndim))
            values = np.frombuffer(read(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
            out[name] = values
    return out
