"""Minimal reverse-mode autodiff over float64 numpy arrays.

A :class:`Tensor` wraps a row-major float64 array plus an optional gradient
accumulator. Operations executed while a :class:`Tape` is active append one
backward closure each; replaying the tape in reverse accumulates gradients
into every tracked input exactly once per use. With no active tape (the
evaluation path) operations are plain numpy calls with no bookkeeping.

The operation set is exactly what the linking model records: add, a
dense matmul with its bias, a fused stacked GCN that keeps its first rows
and whose backward visits only the graph rows its gradient reaches,
transpose, concat, row gathers with an optional bias, tanh, a fused
multi-head self-attention within each sequence, a fused cosine-scored
attention under either normalizer over rows that each stand for a count
of equal rows (the global attention runs over twin classes of
trajectories, weighted by class size), layer norm, inverted dropout,
per-sequence max-pooling, a fused log-space cross entropy, the scaled
sum-of-squares penalty and the row-norm reduction; ``spmm`` stays while
perfbench's tracer wraps it. A batch's sequences of points are packed, one
row per point and no padding, as a :class:`Packing` lays them out; the
attention, dropout and the pool take the packing, and only the attention
scores see the padded (B, m) layout.
``softmax`` and ``sparsemax``, both over the last axis and weighted by
counts, are forward-only: cosine_attention reads their values and records
nothing for them. The tests check every taped primitive against central
finite differences (``finite_difference_check`` in ``tests/oracles.py``),
which also keeps the taped versions of the primitives the model no longer
records.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp


LAYER_NORM_EPS = 1e-5
# Entries per row that sparsemax sorts first; trained score rows over a
# roster of thousands keep a few dozen.
SPARSEMAX_WIDTH = 128


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


def matmul(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """(..., k) @ (k, n) + b: one fully connected layer, the (k, n) weight
    and the (n,) bias shared over every leading axis."""
    if (x.values.ndim < 1 or w.values.ndim != 2 or x.shape[-1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ValueError(f"matmul shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    k, n = w.shape
    out = _result(x.values @ w.values + b.values, x, w, b)
    if out.requires_grad:
        def backward():
            g = out.grad.reshape(-1, n)
            if b.requires_grad:
                b.grad += g.sum(axis=0)
            if x.requires_grad:
                x.grad += out.grad @ w.values.T
            if w.requires_grad:
                w.grad += x.values.reshape(-1, k).T @ g
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


def _gathered(m: sp.csr_matrix, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """(data, indices, indptr) of m[rows] for ascending rows, gathered from
    m's index arrays; scipy's fancy row indexing costs several times as
    much on graphs this size."""
    starts = m.indptr[rows]
    lengths = m.indptr[rows + 1] - starts
    indptr = np.zeros(len(rows) + 1, dtype=m.indptr.dtype)
    np.cumsum(lengths, out=indptr[1:])
    pos = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
    return m.data[pos], m.indices[pos], indptr


def csr_rows(m: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """m[rows] for ascending rows."""
    return sp.csr_matrix(_gathered(m, rows), shape=(len(rows), m.shape[1]))


def _csr_rows_transposed(m: sp.csr_matrix, rows: np.ndarray) -> sp.csc_matrix:
    """m[rows]ᵀ for ascending rows: the CSC matrix over m[rows]'s three
    arrays, which is what scipy's transpose of csr_rows(m, rows) builds,
    without the CSR object in between."""
    return sp.csc_matrix(_gathered(m, rows), shape=(m.shape[1], len(rows)))


def gcn(m_norm: sp.spmatrix, features: sp.spmatrix | None, weights: Sequence[Tensor],
        n_rows: int | None = None) -> Tensor:
    """Stacked graph convolution H <- ReLU(M (H W)), one layer per weight,
    from H = features (the identity when None, so X W0 is W0); the result
    keeps the first n_rows node rows, all of them by default. The global
    GCN runs over twin classes of nodes (``graphs.twin_quotient``), whose
    trajectory classes are its first rows.

    The forward makes the same float operations in the same order as the
    composition of spmm, matmul and relu. The backward starts from the
    nonzero rows of the result's gradient and carries them back one hop per
    layer: a layer's gradient reaches only the nodes adjacent to the rows it
    starts from, so every product runs over those rows and nodes alone.
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
    if n_rows is not None and not 0 <= n_rows <= n:
        raise ValueError(f"gcn n_rows {n_rows} outside [0, {n}]")
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
                g *= hs[i][rows] > 0.0
                sub_t = _csr_rows_transposed(m, rows)
                reached = np.zeros(n, dtype=bool)
                reached[sub_t.indices] = True
                cols = np.flatnonzero(reached)
                gp = np.asarray(sub_t @ g)[cols]  # (Mᵀ g)[cols]; zero elsewhere
                w = weights[i]
                if i > 0:
                    if w.requires_grad:
                        w.grad += hs[i - 1][cols].T @ gp
                    g = gp @ w.values.T
                    rows = cols
                elif w.requires_grad and x is None:
                    w.grad[cols] += gp
                elif w.requires_grad:
                    w.grad += np.asarray(_csr_rows_transposed(x, cols) @ gp)
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


def _add_rows_at(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """np.add.at(out, rows, values) through a flat 1-D view of a C-ordered
    out: every element is added in the same order, so the sums are the
    row-wise scatter's to the bit, and numpy's 1-D scatter is several times
    faster."""
    if not out.flags.c_contiguous:
        np.add.at(out, rows, values)
        return
    flat = out.reshape(-1)
    assert np.may_share_memory(flat, out), "the flat scatter target is a copy"
    width = flat.size // max(len(out), 1)
    cells = rows.reshape(-1, 1) * width + np.arange(width)
    np.add.at(flat, cells.ravel(), values.reshape(-1))


def embedding(table: Tensor, indices, bias: Tensor | None = None) -> Tensor:
    """Gather rows of a matrix, plus a bias row when given; repeated indices
    accumulate on backward."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(
            f"embedding index out of range [0, {table.shape[0]}): "
            f"{int(idx.min())}..{int(idx.max())}"
        )
    if bias is None:
        out = _result(table.values[idx], table)
    elif table.values.ndim != 2 or bias.shape != table.shape[1:]:
        raise ValueError(f"embedding bias shape {bias.shape} does not match table {table.shape}")
    else:
        out = _result(table.values[idx] + bias.values, table, bias)
    if out.requires_grad:
        def backward():
            if bias is not None and bias.requires_grad:
                bias.grad += out.grad.reshape(-1, bias.shape[0]).sum(axis=0)
            if table.requires_grad:
                _add_rows_at(table.grad, idx, out.grad)
        _record(backward)
    return out


# ---------------------------------------------------------------------------
# Nonlinear primitives
# ---------------------------------------------------------------------------

def tanh(x: Tensor) -> Tensor:
    vals = np.tanh(x.values)
    out = _result(vals, x)
    if out.requires_grad:
        def backward():
            x.grad += out.grad * (1.0 - vals * vals)
        _record(backward)
    return out


def _counts(counts, n: int) -> np.ndarray:
    """Counts of the n entries along the last axis, one each when None."""
    c = np.ones(n) if counts is None else np.asarray(counts, dtype=np.float64)
    if c.shape != (n,) or not np.all(c >= 1.0):
        raise ValueError(f"counts must be {n} values of at least 1, got shape {c.shape}")
    return c


def softmax(x: Tensor, counts=None) -> Tensor:
    """Max-shifted softmax along the last axis, each entry counted counts[j]
    times (once by default): the weight of one copy, so the row's copies
    sum to one. Forward-only: it records nothing."""
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return Tensor(e / np.sum(e * _counts(counts, e.shape[-1]), axis=-1, keepdims=True))


def sparsemax(x: Tensor, counts=None) -> Tensor:
    """Euclidean projection of each last-axis row onto the probability
    simplex, entry j of the row counted counts[j] times (once by default):
    the weight of one copy in the projection of the row with every entry
    repeated (Martins & Astudillo, 2016).

    Sort-and-threshold: with z sorted descending, S_k = sum_{j<=k} c_j z_j
    and C_k = sum_{j<=k} c_j, the support is the largest k with
    1 + C_k z_k > S_k; the threshold is tau = (S_k - 1) / C_k and
    p_i = max(z_i - tau, 0). Only each row's top w entries are sorted (w
    widened x4 while some row's support reaches w): they and their
    cumulative sums are the full sort's prefix, so the result is the full
    sort's to the bit. Every product by a count of one is exact, so unit
    counts give the unweighted projection's bits. Forward-only: it records
    nothing.
    """
    if x.values.ndim == 0 or x.shape[-1] == 0:
        raise ValueError(f"sparsemax expects non-empty rows, got {x.shape}")
    if not np.all(np.isfinite(x.values)):
        raise ValueError("sparsemax input must be finite")
    n = x.shape[-1]
    c = _counts(counts, n)
    z = x.values.reshape(-1, n)
    r = np.arange(len(z))[:, None]
    width = SPARSEMAX_WIDTH
    while True:
        if width >= n:
            order = np.argsort(z, axis=-1)
        else:  # the top width entries of each row, ascending
            order = np.argpartition(z, n - width, axis=-1)[:, n - width:]
            order = order[r, np.argsort(z[r, order], axis=-1)]
        order = order[:, ::-1]
        z_sorted = z[r, order]
        c_sorted = c[order]
        cumulative = np.cumsum(c_sorted * z_sorted, axis=-1)
        count = np.cumsum(c_sorted, axis=-1)
        inside = 1.0 + count * z_sorted > cumulative
        if width >= n or not inside[:, -1].any():
            break
        width *= 4
    rows, last = r[:, 0], np.count_nonzero(inside, axis=-1) - 1
    tau = (cumulative[rows, last] - 1.0) / count[rows, last]
    p = z - tau[:, None]
    np.maximum(p, 0.0, out=p)
    return Tensor(p.reshape(x.shape))


def cosine_attention(h: Tensor, norms: Tensor, counts, batch, eps: float,
                     use_softmax: bool) -> Tensor:
    """Cosine-scored attention of the rows h[batch] over every row of h, row
    j standing for counts[j] equal rows: (p * counts) @ h, with p the
    sparsemax (or, if use_softmax, the softmax) of the (B, n) scores
    (rows @ hᵀ) / (norms[batch] ⊗ norms + eps), each column counted
    counts[j] times. The model's rows are twin classes of trajectories, so
    this is the attention over every trajectory at class size. Batch rows
    of one class attend alike, so each distinct index is scored once, in
    order of first appearance, and its output row copied to the others.

    The forward makes the same float operations in the same order as the
    taped composition of those steps over the distinct batch indices. Both
    Jacobians of p * counts are diag(w) - w wᵀ / Σw on a row's support, the
    pairs of nonzero weight p: w = counts * p for softmax, counts for
    sparsemax. The backward visits only the support: its products run over
    the columns some batch row keeps.
    """
    idx = np.asarray(batch, dtype=np.int64)
    hv = h.values
    n = hv.shape[0]
    if hv.ndim != 2 or norms.shape != (n,) or idx.ndim != 1:
        raise ValueError(f"cosine_attention shape mismatch: {h.shape}, "
                         f"{norms.shape}, batch {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"cosine_attention index out of range [0, {n}): "
                         f"{int(idx.min())}..{int(idx.max())}")
    c = _counts(counts, n)
    _, first, inverse = np.unique(idx, return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct indices by first appearance
    copies = np.argsort(order)[inverse]  # each batch row's distinct index
    idx = idx[first[order]]
    rows = hv[idx]
    nh = norms.values
    nr = nh[idx]
    dots = rows @ np.swapaxes(hv, -1, -2)
    denom = nr[:, None] * nh
    denom += eps
    scores = Tensor(np.divide(dots, denom, out=denom))  # into denom, not read again
    p = (softmax(scores, counts=c) if use_softmax else sparsemax(scores, c)).values
    p *= c  # each row's weight on all copies of each column
    out = _result((p @ hv)[copies], h, norms)
    if out.requires_grad:
        r, j = np.nonzero(p > 0.0)  # the support, row-major
        kept, col = np.unique(j, return_inverse=True)  # columns some row keeps
        b = len(idx)
        w = p[r, j] if use_softmax else c[j]
        w_sum = np.bincount(r, w, b)  # positive: every row keeps at least one
        weights = p[:, kept]
        # denom's own two float operations at the kept pairs, so the same bits.
        dots_s, denom_s = dots[r, j], nr[r] * nh[j] + eps

        def backward():
            g = np.zeros((b, hv.shape[1]))
            _add_rows_at(g, copies, out.grad)
            h_kept = hv[kept]
            g_p = (g @ h_kept.T)[r, col]
            # Centre each row on its w-weighted mean. The second pass sums the
            # residuals, so a row of nearly equal gradients centres accurately.
            mean = np.bincount(r, w * g_p, b) / w_sum
            mean += np.bincount(r, w * (g_p - mean[r]), b) / w_sum
            g_scores = w * (g_p - mean[r])
            g_dots = g_scores / denom_s
            g_denom = -g_scores * dots_s / (denom_s * denom_s)
            if h.requires_grad:
                # A kept pair (i, j) reaches h[j] through the weighted sum and
                # the dot product, and h[batch[i]] through the dot product.
                d_dots = np.zeros(weights.shape)
                d_dots[r, col] = g_dots
                h.grad[kept] += weights.T @ g + d_dots.T @ rows
                h.grad[idx] += d_dots @ h_kept  # idx holds no repeats
            if norms.requires_grad:
                norms.grad += np.bincount(
                    np.concatenate((j, idx[r])),
                    np.concatenate((g_denom * nr[r], g_denom * nh[j])), minlength=n)
        _record(backward)
    return out


class Packing:
    """The packed layout of a batch of B sequences, lengths[i] >= 1 points
    each: row r of an (N, ...) packed array is position pos[r] of sequence
    seq[r], N = lengths.sum(). Each sequence's rows are consecutive and in
    position order, from row starts[i]. Padded to the longest, m points,
    the same points are the (B, m, ...) array whose row index[r] of the
    flattened (B·m, ...) is packed row r; when ``dense``, every length is m
    and the padded array is a reshape of the packed one."""

    __slots__ = ("lengths", "m", "starts", "seq", "pos", "index", "dense")

    def __init__(self, lengths):
        lens = np.asarray(lengths, dtype=np.int64)
        if lens.ndim != 1:
            raise ValueError(f"cannot pack lengths of shape {lens.shape}: one per sequence")
        if not lens.size or lens.min() < 1:
            raise ValueError(f"cannot pack an empty batch or sequence: lengths {lens.tolist()}")
        self.lengths = lens
        self.m = int(lens.max())
        self.starts = np.cumsum(lens) - lens
        self.seq = np.repeat(np.arange(len(lens)), lens)
        self.pos = np.arange(len(self.seq)) - self.starts[self.seq]
        self.index = self.seq * self.m + self.pos
        self.dense = len(self.seq) == len(lens) * self.m

    def __len__(self) -> int:
        return len(self.seq)

    def padded(self, rows: np.ndarray, fill: float) -> np.ndarray:
        """The (B, m, ...) array of the packed (N, ...) rows, padded with fill."""
        if self.dense:
            return rows.reshape(len(self.lengths), self.m, *rows.shape[1:])
        out = np.full((len(self.lengths) * self.m, *rows.shape[1:]), fill)
        out[self.index] = rows
        return out.reshape(len(self.lengths), self.m, *rows.shape[1:])


def masked_attention(state: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, packing: Packing,
                     heads: int, inv_scale: float) -> Tensor:
    """Multi-head self-attention of each sequence's points over its own
    points: state holds one (d,) row per point, packed by ``packing``, and so
    does the result. Head h uses columns h*dh:(h+1)*dh of the (d, d)
    projections.

    Each projection is one (N, d) @ (d, d) product over the points. Only q,
    k and v are scattered into the zero-padded (B, heads, m, dh) layout for
    (q @ kᵀ) * inv_scale plus -inf on each sequence's padded keys, a
    max-shifted softmax and p @ v, which is gathered back to the points; a
    batch without padding reshapes instead. The backward is the
    softmax-attention gradient written out (Vaswani et al., 2017): the
    softmax Jacobian per head, gathered back to the points, then the
    projection gradients.
    """
    x = state.values
    if (x.ndim != 2 or heads < 1 or x.shape[1] % heads or len(x) != len(packing)
            or any(w.shape != (x.shape[1],) * 2 for w in (wq, wk, wv))):
        raise ValueError(f"masked_attention shape mismatch: state {state.shape} for "
                         f"{len(packing)} points, {heads} heads, "
                         f"weights {[w.shape for w in (wq, wk, wv)]}")
    n, d = x.shape
    b, m, dh = len(packing.lengths), packing.m, d // heads

    def split_heads(y):  # packed (N, d) -> (B, heads, m, dh), padded with zeros
        return packing.padded(y, 0.0).reshape(b, m, heads, dh).transpose(0, 2, 1, 3)

    def merge_heads(y):  # (B, heads, m, dh) -> packed (N, d)
        if packing.dense:
            return np.ascontiguousarray(y.transpose(0, 2, 1, 3)).reshape(n, d)
        return y[packing.seq, :, packing.pos].reshape(n, d)

    q, k, v = (split_heads(x @ w.values) for w in (wq, wk, wv))
    p = (q @ np.swapaxes(k, -1, -2)) * inv_scale
    if not packing.dense:
        p += np.where(np.arange(m) < packing.lengths[:, None], 0.0, -np.inf)[:, None, None, :]
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = _result(merge_heads(p @ v), state, wq, wk, wv)
    if out.requires_grad:
        def backward():
            g = split_heads(out.grad)
            g_p = g @ np.swapaxes(v, -1, -2)
            g_s = (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * p
            g_s *= inv_scale
            g_k = np.swapaxes(np.swapaxes(q, -1, -2) @ g_s, -1, -2)
            # v, k, q: the composition's order of adds into state.
            for w, g_head in ((wv, np.swapaxes(p, -1, -2) @ g), (wk, g_k), (wq, g_s @ k)):
                g_w = merge_heads(g_head)
                if w.requires_grad:
                    w.grad += x.T @ g_w
                if state.requires_grad:
                    state.grad += g_w @ w.values.T
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


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator,
            packing: Packing | None = None) -> Tensor:
    """Inverted dropout: scales survivors at train time, identity in eval.
    With a packing, x holds packed rows and the mask is drawn over their
    padded (B, m, ...) layout, of which the packed rows' draws are kept: the
    generator advances as for the padded array."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if packing is not None and x.shape[:1] != (len(packing),):
        raise ValueError(f"dropout over rows of shape {x.shape}, packed as "
                         f"{len(packing)} points")
    if not training or rate == 0.0:
        return x
    if packing is None:
        draw = rng.random(x.shape)
    else:
        draw = rng.random((len(packing.lengths) * packing.m, *x.shape[1:]))
        draw = draw if packing.dense else draw[packing.index]
    mask = (draw >= rate) / (1.0 - rate)
    out = _result(x.values * mask, x)
    if out.requires_grad:
        def backward():
            x.grad += out.grad * mask
        _record(backward)
    return out


def max_pool_positions(z: Tensor, packing: Packing) -> Tensor:
    """Max over each sequence's points of the packed (N, d) rows of z, one
    (d,) row per sequence; ties resolve to the first point. The pooled value
    is z + 0.0, as if the padding had -inf added."""
    if z.values.ndim != 2 or len(z.values) != len(packing):
        raise ValueError(f"max_pool_positions shape mismatch: {z.shape} for "
                         f"{len(packing)} points")
    winners = np.argmax(packing.padded(z.values, -np.inf), axis=1)
    index = (packing.starts[:, None] + winners, np.arange(z.shape[1]))  # per output entry
    out = _result(z.values[index] + 0.0, z)
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


def sum_squares(xs: Sequence[Tensor], c: float) -> Tensor:
    """c times the sum of squared entries, summed per tensor and then in
    order."""
    out = _result(np.asarray(sum((np.sum(x.values * x.values) for x in xs), 0.0) * c), *xs)
    if out.requires_grad:
        def backward():
            g = out.grad * c
            for x in xs:
                if x.requires_grad:
                    x.grad += 2.0 * x.values * g
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
