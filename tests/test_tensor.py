"""Autodiff core: forward values, backward rules, gradient checks."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tulink import tensor as T
from tulink.tensor import Tape, Tensor, recording

from tulink.graphs import symmetric_normalize

from conftest import gcn_and_grads
from oracles import (GradCheckReport, add_bias, add_scalar, dense_gcn_oracle,
                     dense_global_attention_oracle, div, finite_difference_check, gcn_rows_oracle,
                     l2_chain_oracle, masked_attention_oracle, matmul, padded_masked_attention,
                     padded_max_pool_positions, permute, relu, reshape, scale,
                     simplex_projection_oracle, slice_rows, softmax, sorted_sparsemax_oracle,
                     sparsemax, trajectory_attention_oracle)

RNG = np.random.default_rng(20_240_817)


def scalarize(t, weights):
    """Reduce any tensor to a scalar via a fixed linear functional."""
    flat = reshape(t, (1, t.values.size))
    return matmul(flat, Tensor(np.asarray(weights).reshape(-1, 1)))


def check_grad(f, x_values, tol=1e-6, h=1e-5):
    report = finite_difference_check(f, Tensor(np.asarray(x_values, float)), h=h, tolerance=tol)
    assert report.passed, (
        f"gradient check failed: max rel err {report.max_rel_error:.3e} "
        f"at {report.worst_index} (tolerance {tol})"
    )
    return report


def values_and_grads(f, *inputs):
    """f's output values and the gradient of a fixed functional of them
    with respect to each input, all leaves."""
    leaves = [Tensor(np.array(x, dtype=float), requires_grad=True) for x in inputs]
    tape = Tape()
    with recording(tape):
        out = f(*leaves)
        loss = scalarize(out, np.random.default_rng(3).normal(size=out.values.size))
    tape.backward(loss)
    return out.values, [t.grad for t in leaves]


def assert_same_bits(a, b):
    (out_a, grads_a), (out_b, grads_b) = a, b
    np.testing.assert_array_equal(out_a, out_b)
    for ga, gb in zip(grads_a, grads_b, strict=True):
        np.testing.assert_array_equal(ga, gb)


class TestMatmul:
    """T.matmul is one fully connected layer, x @ w + b."""

    def test_identity(self):
        x = RNG.normal(size=(4, 4))
        out = T.matmul(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.values, x)

    def test_hand_case(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]), Tensor([0.5]))
        np.testing.assert_array_equal(out.values, [[3.5], [7.5]])

    def test_shape_error_names_every_shape(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) @ \(2, 3\) \+ \(3,\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ValueError, match="mismatch"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))

    def test_weight_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="mismatch"):
            T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4, 5))),
                     Tensor(np.zeros(5)))

    @pytest.mark.parametrize("lead", [(7,), (2, 3)], ids=["matrix", "batched"])
    def test_gradients_every_operand(self, lead):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(*lead, 5))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        c = rng.normal(size=math.prod(lead) * 3)
        check_grad(lambda t: scalarize(T.matmul(t, Tensor(w), Tensor(b)), c), x)
        check_grad(lambda t: scalarize(T.matmul(Tensor(x), t, Tensor(b)), c), w)
        check_grad(lambda t: scalarize(T.matmul(Tensor(x), Tensor(w), t), c), b)

    @pytest.mark.parametrize("lead", [(7,), (2, 3)], ids=["matrix", "batched"])
    def test_matches_the_product_then_the_bias_to_the_bit(self, lead):
        rng = np.random.default_rng(12)
        x, w, b = rng.normal(size=(*lead, 5)), rng.normal(size=(5, 3)), rng.normal(size=3)
        assert_same_bits(values_and_grads(T.matmul, x, w, b),
                         values_and_grads(lambda x, w, b: add_bias(matmul(x, w), b), x, w, b))


class TestOracleMatmul:
    """The bias-free product of tests/oracles.py, with a shared or a batched
    right operand."""

    def test_gradients_both_sides(self):
        a = RNG.normal(size=(7, 5))
        b = RNG.normal(size=(5, 3))
        c = RNG.normal(size=21)
        check_grad(lambda x: scalarize(matmul(x, Tensor(b)), c), a)
        check_grad(lambda x: scalarize(matmul(Tensor(a), x), c), b)

    def test_batched_against_shared_and_batched_right_operand(self):
        a = RNG.normal(size=(2, 3, 4))
        shared = RNG.normal(size=(4, 5))
        batched = RNG.normal(size=(2, 4, 5))
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(shared)).values,
                                   np.stack([a[i] @ shared for i in range(2)]), atol=1e-14)
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(batched)).values,
                                   np.stack([a[i] @ batched[i] for i in range(2)]), atol=1e-14)
        c = RNG.normal(size=30)
        for b in (shared, batched):
            check_grad(lambda x: scalarize(matmul(x, Tensor(b)), c), a)
            check_grad(lambda x: scalarize(matmul(Tensor(a), x), c), b)

    def test_batch_axes_must_match(self):
        with pytest.raises(ValueError, match="mismatch"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
        with pytest.raises(ValueError, match="mismatch"):
            matmul(Tensor(np.zeros((4, 3))), Tensor(np.zeros((2, 3, 5))))


class TestElementwise:
    def test_add_div_gradients(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(3, 4)) + 3.0  # keep divisors away from zero
        c = RNG.normal(size=12)
        check_grad(lambda x: scalarize(T.add(x, Tensor(b)), c), a)
        check_grad(lambda x: scalarize(div(x, Tensor(b)), c), a)
        check_grad(lambda x: scalarize(div(Tensor(a), x), c), b)

    def test_scale_and_add_scalar(self):
        a = RNG.normal(size=6)
        c = RNG.normal(size=6)
        check_grad(lambda x: scalarize(scale(x, -2.5), c), a)
        check_grad(lambda x: scalarize(add_scalar(x, 1.75), c), a)

    def test_add_bias_broadcast(self):
        x = RNG.normal(size=(4, 3))
        b = RNG.normal(size=3)
        c = RNG.normal(size=12)
        np.testing.assert_allclose(
            add_bias(Tensor(x), Tensor(b)).values, x + b
        )
        check_grad(lambda t: scalarize(add_bias(t, Tensor(b)), c), x)
        check_grad(lambda t: scalarize(add_bias(Tensor(x), t), c), b)


class TestShapePlumbing:
    def test_transpose_reshape_concat_slice(self):
        a = RNG.normal(size=(3, 4))
        c12 = RNG.normal(size=12)
        check_grad(lambda x: scalarize(T.transpose(x), c12), a)
        check_grad(lambda x: scalarize(reshape(x, (2, 6)), c12), a)
        other = Tensor(RNG.normal(size=(3, 2)))
        c18 = RNG.normal(size=18)
        check_grad(lambda x: scalarize(T.concat([x, other], axis=-1), c18), a)
        c8 = RNG.normal(size=8)
        check_grad(lambda x: scalarize(slice_rows(x, 1, 3), c8), a)

    def test_permute_and_batched_transpose(self):
        x = RNG.normal(size=(2, 3, 4))
        np.testing.assert_array_equal(permute(Tensor(x), (1, 2, 0)).values,
                                      np.transpose(x, (1, 2, 0)))
        np.testing.assert_array_equal(T.transpose(Tensor(x)).values, np.swapaxes(x, 1, 2))
        c = RNG.normal(size=24)
        check_grad(lambda t: scalarize(permute(t, (1, 2, 0)), c), x)
        check_grad(lambda t: scalarize(permute(t, (0, 2, 1)), c), x)
        check_grad(lambda t: scalarize(T.transpose(t), c), x)

    def test_embedding_gather_and_accumulate(self):
        table = RNG.normal(size=(6, 3))
        idx = np.array([1, 1, 4, 0])
        out = T.embedding(Tensor(table), idx)
        np.testing.assert_array_equal(out.values, table[idx])
        c = RNG.normal(size=12)
        check_grad(lambda x: scalarize(T.embedding(x, idx), c), table)

    def test_embedding_with_bias(self):
        rng = np.random.default_rng(13)
        table = rng.normal(size=(6, 3))
        bias = rng.normal(size=3)
        idx = np.array([[1, 1], [4, 0]])
        np.testing.assert_array_equal(T.embedding(Tensor(table), idx, Tensor(bias)).values,
                                      table[idx] + bias)
        c = rng.normal(size=12)
        check_grad(lambda x: scalarize(T.embedding(x, idx, Tensor(bias)), c), table)
        check_grad(lambda b: scalarize(T.embedding(Tensor(table), idx, b), c), bias)
        assert_same_bits(
            values_and_grads(lambda t, b: T.embedding(t, idx, b), table, bias),
            values_and_grads(lambda t, b: add_bias(T.embedding(t, idx), b), table, bias))
        with pytest.raises(ValueError, match="bias"):
            T.embedding(Tensor(table), idx, Tensor(np.zeros(4)))

    def test_embedding_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            T.embedding(Tensor(np.zeros((3, 2))), [0, 3])

    @pytest.mark.parametrize("table_shape, idx_shape", [
        ((7, 5), (40,)), ((7,), (40,)), ((7, 2, 3), (8, 5)), ((3, 4), (0,))])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_scatter_add_is_the_row_wise_one_to_the_bit(self, table_shape, idx_shape, order):
        """The flat scatter adds each element in the order np.add.at over
        rows does, so repeated indices sum to the same bits, from upstream
        values of mixed magnitudes; a target that is not C-ordered takes the
        row-wise scatter."""
        rng = np.random.default_rng(14)
        idx = rng.integers(0, table_shape[0], size=idx_shape)
        values = rng.normal(size=(*idx_shape, *table_shape[1:]))
        values *= 10.0 ** rng.integers(-8, 8, size=values.shape)
        out = np.asarray(rng.normal(size=table_shape), order=order)
        expected = out.copy()
        np.add.at(expected, idx, values)
        T._add_rows_at(out, idx, values)
        np.testing.assert_array_equal(out, expected)

    def test_embedding_backward_is_the_row_wise_scatter(self):
        rng = np.random.default_rng(15)
        idx = rng.integers(0, 6, size=50)
        upstream = rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-8, 8, size=(50, 1))
        table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        tape = Tape()
        with recording(tape):
            loss = scalarize(T.embedding(table, idx), upstream)
        tape.backward(loss)
        expected = np.zeros((6, 4))
        np.add.at(expected, idx, upstream)
        np.testing.assert_array_equal(table.grad, expected)

    def test_sparse_matmul(self):
        s = sp.random(6, 4, density=0.5, random_state=3, format="csr")
        x = RNG.normal(size=(4, 3))
        np.testing.assert_allclose(T.spmm(s, Tensor(x)).values, s @ x)
        c = RNG.normal(size=18)
        check_grad(lambda t: scalarize(T.spmm(s, t), c), x)


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_tanh_at_zero(self):
        assert T.tanh(Tensor([0.0])).values[0] == 0.0

    def test_gradients_away_from_kinks(self):
        x = RNG.normal(size=(4, 3))
        x[np.abs(x) < 0.05] = 0.5  # keep clear of the relu kink
        c = RNG.normal(size=12)
        check_grad(lambda t: scalarize(relu(t), c), x)
        check_grad(lambda t: scalarize(T.tanh(t), c), x)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(T.softmax(Tensor([0.0, 0.0])).values, [0.5, 0.5])

    def test_large_inputs_stay_finite(self):
        out = T.softmax(Tensor([1000.0, 0.0])).values
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)

    def test_rows_sum_to_one(self):
        x = RNG.normal(size=(10, 7)) * 5
        out = T.softmax(Tensor(x)).values
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out >= 0)

    def test_gradient(self):
        x = RNG.normal(size=(3, 5))
        c = RNG.normal(size=15)
        check_grad(lambda t: scalarize(softmax(t), c), x)


@pytest.mark.parametrize("normalize", [T.softmax, T.sparsemax], ids=["softmax", "sparsemax"])
def test_normalizers_record_nothing(normalize):
    """cosine_attention reads only their values, so neither is taped."""
    x = Tensor(np.random.default_rng(14).normal(size=(3, 5)), requires_grad=True)
    tape = Tape()
    with recording(tape):
        out = normalize(x)
    assert len(tape) == 0 and not out.requires_grad and out.grad is None


def sparsemax_values(x):
    return T.sparsemax(Tensor(np.asarray(x, float))).values


class TestSparsemax:
    def test_uniform_for_constant_inputs(self):
        np.testing.assert_array_equal(sparsemax_values([0.0, 0.0, 0.0]),
                                      np.full(3, 1.0 / 3.0))
        for c in (5.0, -2.5, 0.125):
            np.testing.assert_allclose(sparsemax_values([c, c, c]),
                                       np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_hand_cases(self):
        np.testing.assert_array_equal(sparsemax_values([2.0, 0.0]), [1.0, 0.0])
        np.testing.assert_array_equal(sparsemax_values([0.5, 0.0]), [0.75, 0.25])

    def test_matches_projection_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            n = int(rng.integers(2, 17))
            x = rng.normal(size=n) * rng.uniform(0.1, 5.0)
            np.testing.assert_allclose(
                sparsemax_values(x), simplex_projection_oracle(x), atol=1e-10
            )

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.normal(size=8)
            shift = rng.normal() * 100
            np.testing.assert_allclose(
                sparsemax_values(x), sparsemax_values(x + shift), atol=1e-12
            )

    def test_unit_gap_forces_a_zero(self):
        """If max - min >= 1 the minimum coordinate projects to exactly 0."""
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = rng.normal(size=6)
            x[rng.integers(6)] = x.max() + rng.uniform(1.0, 3.0)
            p = sparsemax_values(x)
            assert p[np.argmin(x)] == 0.0

    def test_simplex_membership(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = sparsemax_values(rng.normal(size=10) * 3)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            sparsemax_values([np.nan, 0.0])

    def test_backward_constant_gradient_is_zero(self):
        x = Tensor([0.2, 0.1, 0.15], requires_grad=True)
        tape = Tape()
        with recording(tape):
            out = scalarize(sparsemax(x), np.ones(3))  # g = 1 on full support
        tape.backward(out)
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-15)

    def test_backward_singleton_support(self):
        x = Tensor([2.0, 0.0], requires_grad=True)
        tape = Tape()
        with recording(tape):
            out = scalarize(sparsemax(x), np.array([3.0, 7.0]))
        tape.backward(out)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_rows_match_projection_oracle_including_ties(self):
        rng = np.random.default_rng(101)
        rows = [[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, -1.0], [2.0, 2.0, 2.0, -0.5],
                [0.3, 0.3, 0.1, 0.1], [5.0, -5.0, 5.0, 0.0]]
        rows += [rng.normal(size=4) * rng.uniform(0.1, 5.0) for _ in range(50)]
        x = np.array(rows)
        p = T.sparsemax(Tensor(x)).values
        for row, out in zip(x, p):
            np.testing.assert_allclose(out, simplex_projection_oracle(row), atol=1e-10)
        cube = x[:54].reshape(3, 18, 4)
        np.testing.assert_array_equal(T.sparsemax(Tensor(cube)).values, p[:54].reshape(3, 18, 4))

    def test_row_gradient_away_from_support_boundaries(self):
        rng = np.random.default_rng(34)
        rows = []
        while len(rows) < 4:
            x = rng.normal(size=5)
            p = sparsemax_values(x)
            tau = (x[p > 0].sum() - 1.0) / np.count_nonzero(p > 0)
            if np.min(np.abs(x - tau)) > 1e-3:
                rows.append(x)
        c = rng.normal(size=20)
        check_grad(lambda t: scalarize(sparsemax(t), c), np.array(rows), tol=1e-5)

    def test_gradient_away_from_support_boundaries(self):
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 10:
            x = rng.normal(size=6)
            p = sparsemax_values(x)
            support = p > 0
            tau = (x[support].sum() - 1.0) / support.sum()
            margin = np.min(np.abs(x - tau))
            if margin < 1e-3:  # support could flip within the FD step
                continue
            c = rng.normal(size=6)
            check_grad(lambda t: scalarize(sparsemax(t), c), x, tol=1e-5)
            checked += 1


WIDTH = T.SPARSEMAX_WIDTH


class TestSparsemaxSelection:
    """Sorting only each row's top entries gives the full sort's output to
    the bit."""

    def _same(self, x):
        p = T.sparsemax(Tensor(x)).values
        np.testing.assert_array_equal(p, sorted_sparsemax_oracle(x))
        return p

    def test_tied_rows(self):
        rng = np.random.default_rng(40)
        x = np.round(rng.normal(size=(6, 3 * WIDTH)), 1)
        x[0] = 0.0
        x[1] = np.where(np.arange(3 * WIDTH) < WIDTH + 10, 1.0, 0.0)  # ties across the cut
        x[2, :WIDTH] = 2.0
        self._same(x)

    def test_supports_wider_than_the_first_width(self):
        rng = np.random.default_rng(41)
        near_flat = rng.normal(size=(3, 5 * WIDTH)) * 1e-4  # full support: sorts every entry
        kept = rng.uniform(0.0, 1e-3, size=(3, 2 * WIDTH))  # support 2 * WIDTH of 20 * WIDTH
        rest = rng.uniform(-10.0, -9.0, size=(3, 18 * WIDTH))
        p = self._same(near_flat)
        assert np.all(np.count_nonzero(p, axis=-1) == 5 * WIDTH)
        p = self._same(rng.permuted(np.hstack([kept, rest]), axis=-1))
        assert np.all(np.count_nonzero(p, axis=-1) == 2 * WIDTH)

    def test_rows_no_longer_than_the_width(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, WIDTH // 2, WIDTH):
            self._same(rng.normal(size=(4, n)) * 3)

    def test_vector_and_cube(self):
        rng = np.random.default_rng(43)
        scales = np.array([[1e-4, 1.0, 3.0], [0.01, 1e-3, 5.0]])[:, :, None]
        x = rng.normal(size=(2, 3, 4 * WIDTH)) * scales
        p = self._same(x)
        assert np.count_nonzero(p, axis=-1).max() > WIDTH
        for row in x.reshape(-1, 4 * WIDTH):
            self._same(row)


@st.composite
def counted_rows(draw, max_n=24):
    """(rows, counts): a few rows of n scores over few levels, so ties are
    common, scaled by 0.1 to 10, and each column's count."""
    n = draw(st.integers(1, max_n))
    levels = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(st.sampled_from(levels), min_size=n, max_size=n),
                         min_size=1, max_size=3))
    counts = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    return np.array(rows) * draw(st.floats(0.1, 10.0)), np.array(counts, dtype=float)


class TestWeightedNormalizers:
    """Column j counted counts[j] times: each weight is that of one copy in
    the normalizer of the row with every column repeated."""

    def _expanded(self, normalize, x, counts):
        copies = np.repeat(np.arange(x.shape[-1]), counts.astype(int))
        got = normalize(Tensor(x), counts=counts).values
        want = normalize(Tensor(x[..., copies])).values
        np.testing.assert_allclose(got[..., copies], want, rtol=0, atol=1e-12)
        np.testing.assert_allclose((got * counts).sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        return got

    @settings(max_examples=300, deadline=None)
    @given(xc=counted_rows())
    def test_sparsemax_is_the_expanded_row_s(self, xc):
        self._expanded(T.sparsemax, *xc)

    @settings(max_examples=100, deadline=None)
    @given(xc=counted_rows())
    def test_softmax_is_the_expanded_row_s(self, xc):
        self._expanded(T.softmax, *xc)

    def test_counts_push_the_support_past_the_width(self):
        """Counts spread over more than WIDTH kept columns, so the weighted
        sort widens as the expanded one does."""
        rng = np.random.default_rng(46)
        n = 3 * WIDTH
        x = np.vstack([rng.normal(size=n) * 1e-4, rng.uniform(0.0, 1e-3, size=n)])
        x[1, rng.permutation(n)[: n // 2]] -= 10.0  # half the columns drop out
        counts = rng.integers(1, 4, size=n).astype(float)
        p = self._expanded(T.sparsemax, x, counts)
        kept = np.count_nonzero(p, axis=-1)
        assert np.all(kept > WIDTH) and kept[1] < n and (counts[p[1] > 0] > 1).any()

    @pytest.mark.parametrize("n", [1, 7, WIDTH, 3 * WIDTH])
    def test_unit_counts_give_the_unweighted_bits(self, n):
        rng = np.random.default_rng(47)
        x = np.round(rng.normal(size=(5, n)), 1)  # ties across the selection cut
        x[0] = 0.0
        ones = np.ones(n)
        np.testing.assert_array_equal(T.sparsemax(Tensor(x), ones).values,
                                      sorted_sparsemax_oracle(x))
        np.testing.assert_array_equal(T.softmax(Tensor(x), counts=ones).values,
                                      T.softmax(Tensor(x)).values)

    @pytest.mark.parametrize("normalize", [T.softmax, T.sparsemax], ids=["softmax", "sparsemax"])
    @pytest.mark.parametrize("counts", [[1.0, 0.5, 2.0], [1.0, 0.0, 1.0], [1.0, np.nan, 1.0],
                                        [1.0, 1.0], [[1.0, 1.0, 1.0]]])
    def test_bad_counts_rejected(self, normalize, counts):
        with pytest.raises(ValueError, match="counts must be 3 values of at least 1"):
            normalize(Tensor(np.zeros((2, 3))), counts=np.array(counts))


def attention_and_grads(attend, h, norms, batch, weights, use_softmax):
    """Output values and the gradients of a fixed linear functional of the
    output with respect to h and norms, both leaves."""
    ht, nt = Tensor(h.copy(), requires_grad=True), Tensor(norms.copy(), requires_grad=True)
    tape = Tape()
    with recording(tape):
        out = attend(ht, nt, batch, 1e-12, use_softmax)
        loss = scalarize(out, weights)
    tape.backward(loss)
    return out.values, ht.grad, nt.grad


def assert_rel_close(actual, expected, tol=1e-12):
    assert np.max(np.abs(actual - expected)) <= tol * np.max(np.abs(expected))


def unit_count_attention(h, norms, batch, eps, use_softmax):
    """T.cosine_attention with every row counted once."""
    return T.cosine_attention(h, norms, np.ones(h.shape[0]), batch, eps, use_softmax)


@pytest.mark.parametrize("use_softmax", [False, True], ids=["sparsemax", "softmax"])
class TestCosineAttention:
    """The fused primitive against the dense composition in tests/oracles.py,
    under either normalizer: the same forward to the bit, gradients summed in
    another order."""

    def _case(self, h, batch, use_softmax):
        norms = T.row_norms(Tensor(h)).values
        np.testing.assert_array_equal(norms[batch], T.row_norms(Tensor(h[batch])).values)
        weights = np.random.default_rng(44).normal(size=len(batch) * h.shape[1])
        out, grad_h, grad_norms = attention_and_grads(
            unit_count_attention, h, norms, batch, weights, use_softmax)
        ref, ref_h, ref_norms = attention_and_grads(
            dense_global_attention_oracle, h, norms, batch, weights, use_softmax)
        np.testing.assert_array_equal(out, ref)
        assert_rel_close(grad_h, ref_h)
        if np.any(ref_norms):
            assert_rel_close(grad_norms, ref_norms)
        else:
            np.testing.assert_array_equal(grad_norms, ref_norms)
        return out

    def test_random_roster(self, use_softmax):
        h = RNG.normal(size=(40, 5))
        self._case(h, np.array([0, 7, 39, 12, 5]), use_softmax)

    def test_zero_norm_row(self, use_softmax):
        h = RNG.normal(size=(6, 4))
        h[2] = 0.0
        self._case(h, np.array([2, 0, 4]), use_softmax)

    def test_one_row_roster(self, use_softmax):
        h = RNG.normal(size=(1, 3))
        np.testing.assert_array_equal(self._case(h, np.array([0]), use_softmax), h)

    def test_identical_embeddings_keep_every_row(self, use_softmax):
        h = np.tile(RNG.normal(size=4), (5, 1))
        out = self._case(h, np.array([0, 4]), use_softmax)
        np.testing.assert_allclose(out, h[:2], rtol=1e-12)

    def test_support_wider_than_the_first_width(self, use_softmax):
        rng = np.random.default_rng(0)
        h = rng.normal(size=4) + rng.normal(size=(2 * WIDTH, 4)) * 0.05
        batch = np.array([0, 2 * WIDTH - 1])
        self._case(h, batch, use_softmax)
        norms = np.linalg.norm(h, axis=1)
        p = sorted_sparsemax_oracle(h[batch] @ h.T / np.outer(norms[batch], norms))
        assert np.all(np.count_nonzero(p, axis=-1) > WIDTH)
        assert np.all(np.count_nonzero(p, axis=-1) < 2 * WIDTH)

    def test_repeated_batch_index(self, use_softmax):
        h = RNG.normal(size=(9, 3))
        self._case(h, np.array([3, 3, 1, 3]), use_softmax)

    def test_finite_differences_both_inputs(self, use_softmax):
        rng = np.random.default_rng(45)
        batch = np.array([1, 4, 4, 0])
        while True:  # a draw whose sparsemax support cannot flip within the FD step
            h = rng.normal(size=(7, 3)) + 0.5
            norms = np.linalg.norm(h, axis=1)
            scores = (h[batch] @ h.T) / (np.outer(norms[batch], norms) + 1e-12)
            p = sorted_sparsemax_oracle(scores)
            tau = np.max(scores - p, axis=-1, keepdims=True)
            if np.min(np.abs(scores - tau)) > 1e-3 and np.count_nonzero(p) > len(batch):
                break
        c = rng.normal(size=len(batch) * 3)

        def attend(t, u):
            return scalarize(unit_count_attention(t, u, batch, 1e-12, use_softmax), c)
        check_grad(lambda t: attend(t, Tensor(norms)), h, tol=1e-5)
        check_grad(lambda t: attend(Tensor(h), t), norms, tol=1e-5)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_batch_index_out_of_range(self, bad, use_softmax):
        h = Tensor(RNG.normal(size=(6, 3)))
        with pytest.raises(ValueError, match="out of range"):
            unit_count_attention(h, T.row_norms(h), np.array([0, bad]), 1e-12, use_softmax)

    @pytest.mark.parametrize("counts", [[1, 2, 0, 1, 1, 1], [1, 2, 0.99, 1, 1, 1],
                                        [1, 2, -3, 1, 1, 1], [1, 2, 1, 1, 1],
                                        [1, 2, 1, 1, 1, 1, 1], [[1, 2, 1, 1, 1, 1]]])
    def test_bad_counts_rejected(self, counts, use_softmax):
        h = Tensor(RNG.normal(size=(6, 3)))
        with pytest.raises(ValueError, match="counts must be 6 values of at least 1"):
            T.cosine_attention(h, T.row_norms(h), np.array(counts, dtype=float),
                               np.array([0, 2]), 1e-12, use_softmax)

    def test_twin_free_is_the_trajectory_op_to_the_bit(self, use_softmax):
        """With every count one, the class-level op is the trajectory-level
        one it replaced, forward and backward."""
        rng = np.random.default_rng(48)
        for h, batch in ((rng.normal(size=(40, 5)), np.array([0, 7, 39, 12, 5])),
                         (rng.normal(size=4) + rng.normal(size=(3 * WIDTH, 4)) * 0.05,
                          np.array([0, 3 * WIDTH - 1]))):
            norms = T.row_norms(Tensor(h)).values
            weights = rng.normal(size=len(batch) * h.shape[1])
            assert_same_bits(*(
                (out, [g_h, g_n]) for out, g_h, g_n in (
                    attention_and_grads(attend, h, norms, batch, weights, use_softmax)
                    for attend in (unit_count_attention, trajectory_attention_oracle))))


@pytest.mark.parametrize("use_softmax", [False, True], ids=["sparsemax", "softmax"])
class TestClassAttention:
    """Attention over classes weighted by their counts against the dense
    trajectory-level composition over the expanded rows h[classes]: the
    forward within 1e-12 relative, the gradients summed per class within
    1e-12 relative."""

    def _case(self, h, counts, batch, use_softmax, seed=49):
        rng = np.random.default_rng(seed)
        k, d = h.shape
        classes = rng.permutation(np.repeat(np.arange(k), counts))  # each trajectory's class
        # One trajectory of each batch row's class, in the batch's order.
        traj_batch = np.array([rng.choice(np.flatnonzero(classes == c)) for c in batch])
        norms = T.row_norms(Tensor(h)).values
        weights = rng.normal(size=len(batch) * d)

        def class_attention(ht, nt, b, eps, u):
            return T.cosine_attention(ht, nt, counts.astype(float), b, eps, u)
        out, grad_h, grad_norms = attention_and_grads(
            class_attention, h, norms, batch, weights, use_softmax)
        ref, ref_h, ref_norms = attention_and_grads(
            dense_global_attention_oracle, h[classes], norms[classes], traj_batch, weights,
            use_softmax)
        assert_rel_close(out, ref)
        for got, want in ((grad_h, ref_h), (grad_norms, ref_norms)):
            summed = np.zeros_like(got)
            np.add.at(summed, classes, want)
            if np.any(summed):
                assert_rel_close(got, summed)
            else:
                np.testing.assert_array_equal(got, summed)
        return out

    def test_random_classes(self, use_softmax):
        rng = np.random.default_rng(50)
        h = rng.normal(size=(30, 5))
        self._case(h, rng.integers(1, 6, size=30), np.array([0, 7, 29, 12, 7]), use_softmax)

    def test_zero_norm_class(self, use_softmax):
        rng = np.random.default_rng(51)
        h = rng.normal(size=(6, 4))
        h[2] = 0.0
        self._case(h, np.array([1, 3, 4, 1, 2, 1]), np.array([2, 0, 4]), use_softmax)

    def test_one_class(self, use_softmax):
        h = np.random.default_rng(52).normal(size=(1, 3))
        np.testing.assert_allclose(self._case(h, np.array([5]), np.array([0, 0]), use_softmax),
                                   np.vstack([h, h]), rtol=1e-12)

    def test_support_wider_than_the_first_width(self, use_softmax):
        rng = np.random.default_rng(53)
        h = rng.normal(size=4) + rng.normal(size=(2 * WIDTH, 4)) * 0.05
        counts = rng.integers(1, 4, size=2 * WIDTH)
        batch = np.array([0, 2 * WIDTH - 1])
        self._case(h, counts, batch, use_softmax)
        norms = np.linalg.norm(h, axis=1)
        p = T.sparsemax(Tensor(h[batch] @ h.T / np.outer(norms[batch], norms)), counts).values
        assert np.all(np.count_nonzero(p, axis=-1) > WIDTH)

    def test_repeated_classes_are_scored_once(self, use_softmax, monkeypatch):
        """Batch rows of one class get one scored row, in order of first
        appearance, copied to each of them."""
        rng = np.random.default_rng(57)
        h = rng.normal(size=(9, 4))
        counts = rng.integers(1, 4, size=9).astype(float)
        batch = np.array([5, 2, 5, 8, 2, 5])
        scored = []
        for name in ("softmax", "sparsemax"):
            normalize = getattr(T, name)

            def spy(x, *args, normalize=normalize, **kwargs):
                scored.append(x.values.copy())
                return normalize(x, *args, **kwargs)
            monkeypatch.setattr(T, name, spy)
        norms = T.row_norms(Tensor(h))
        out = T.cosine_attention(Tensor(h), norms, counts, batch, 1e-12, use_softmax).values
        alone = T.cosine_attention(Tensor(h), norms, counts, np.array([5, 2, 8]), 1e-12,
                                   use_softmax).values
        assert [x.shape for x in scored] == [(3, 9), (3, 9)]
        np.testing.assert_array_equal(scored[0], scored[1])
        np.testing.assert_array_equal(out, alone[[0, 1, 0, 2, 1, 0]])
        self._case(h, counts.astype(int), batch, use_softmax)

    def test_finite_differences_both_inputs(self, use_softmax):
        rng = np.random.default_rng(54)
        batch = np.array([1, 4, 4, 0])
        counts = np.array([1.0, 3.0, 1.0, 2.0, 4.0, 1.0, 2.0])
        while True:  # a draw whose sparsemax support cannot flip within the FD step
            h = rng.normal(size=(7, 3)) + 0.5
            norms = np.linalg.norm(h, axis=1)
            scores = (h[batch] @ h.T) / (np.outer(norms[batch], norms) + 1e-12)
            p = T.sparsemax(Tensor(scores), counts).values
            tau = np.max(scores - p, axis=-1, keepdims=True)
            if np.min(np.abs(scores - tau)) > 1e-3 and np.count_nonzero(p) > len(batch):
                break
        c = rng.normal(size=len(batch) * 3)

        def attend(t, u):
            return scalarize(T.cosine_attention(t, u, counts, batch, 1e-12, use_softmax), c)
        check_grad(lambda t: attend(t, Tensor(norms)), h, tol=1e-5)
        check_grad(lambda t: attend(Tensor(h), t), norms, tol=1e-5)


class TestPacking:
    def test_layout(self):
        packing = T.Packing([2, 3, 1])
        np.testing.assert_array_equal(packing.seq, [0, 0, 1, 1, 1, 2])
        np.testing.assert_array_equal(packing.pos, [0, 1, 0, 1, 2, 0])
        np.testing.assert_array_equal(packing.starts, [0, 2, 5])
        np.testing.assert_array_equal(packing.index, [0, 1, 3, 4, 5, 6])
        assert (len(packing), packing.m, packing.dense) == (6, 3, False)
        assert T.Packing([3, 3]).dense and T.Packing([1]).dense

    @pytest.mark.parametrize("lengths", [[2, 3, 1], [4, 4]])
    def test_padded_scatters_the_rows(self, lengths):
        packing = T.Packing(lengths)
        rows = RNG.normal(size=(len(packing), 2))
        padded = packing.padded(rows, -7.0)
        assert padded.shape == (len(lengths), packing.m, 2)
        np.testing.assert_array_equal(padded[packing.seq, packing.pos], rows)
        real = np.arange(packing.m) < np.asarray(lengths)[:, None]
        assert np.all(padded[~real] == -7.0)

    @pytest.mark.parametrize("lengths", [[0, 3], [-1, 1], [], [[2]]])
    def test_empty_batch_or_sequence_rejected(self, lengths):
        with pytest.raises(ValueError, match="cannot pack"):
            T.Packing(lengths)


def masked_attention_and_grads(attend, state, weights, layout, heads, upstream):
    """Output values and the gradients of state and of each projection under
    a fixed linear functional of the output, every input a leaf."""
    st = Tensor(state.copy(), requires_grad=True)
    ws = [Tensor(w.copy(), requires_grad=True) for w in weights]
    inv_scale = 1.0 / math.sqrt(state.shape[-1] // heads)
    tape = Tape()
    with recording(tape):
        out = attend(st, *ws, layout, heads, inv_scale)
        loss = scalarize(out, upstream)
    tape.backward(loss)
    return out.values, [st.grad] + [w.grad for w in ws]


@pytest.mark.parametrize("heads", [1, 4])
class TestMaskedAttention:
    """The packed primitive against two padded references in
    tests/oracles.py: the fused padded primitive it replaced, and the
    composition of reshape, permute, scale, the key mask and softmax. Every
    point's output and every gradient agree within 1e-12 relative, and the
    padded references give their padding zero gradient. The packed
    projections are one 2-D product each, which BLAS may sum in another
    order than the padded (B, m, d) ones, so the bits may differ."""

    def _case(self, lengths, m, heads, seed=0):
        rng = np.random.default_rng(seed)
        d = 8
        state = rng.normal(size=(len(lengths), m, d))
        weights = [rng.normal(size=(d, d)) * 0.5 for _ in "qkv"]
        upstream = rng.normal(size=state.shape)
        packing = T.Packing(lengths)
        at = packing.seq, packing.pos
        real = np.arange(m) < np.asarray(lengths)[:, None]
        out, grads = masked_attention_and_grads(
            T.masked_attention, state[at], weights, packing, heads, upstream[at])
        for reference in (padded_masked_attention, masked_attention_oracle):
            ref, ref_grads = masked_attention_and_grads(
                reference, state, weights, lengths, heads, upstream * real[..., None])
            assert_rel_close(out, ref[at])
            assert not ref_grads[0][~real].any()
            assert_rel_close(grads[0], ref_grads[0][at])
            for g, ref_g in zip(grads[1:], ref_grads[1:]):
                assert_rel_close(g, ref_g)
        return state[at], weights, out

    def test_padded_rows_of_length_one_and_m(self, heads):
        self._case(np.array([1, 5, 3, 1, 5, 2]), 5, heads)

    def test_every_row_full(self, heads):
        self._case(np.array([4, 4]), 4, heads, seed=1)

    def test_single_position(self, heads):
        """Each query sees only itself, so the output is its own value row."""
        state, (_, _, wv), out = self._case(np.array([1, 1]), 1, heads, seed=2)
        np.testing.assert_allclose(out, state @ wv, rtol=1e-14)

    def test_padded_keys_change_nothing(self, heads):
        """A sequence's points read only its own points, whichever longer
        sequences pad it in the batch."""
        rng = np.random.default_rng(3)
        state = rng.normal(size=(9, 8))
        ws = [Tensor(rng.normal(size=(8, 8))) for _ in "qkv"]
        batched = T.masked_attention(Tensor(state), *ws, T.Packing([3, 6]), heads, 0.5).values
        alone = T.masked_attention(Tensor(state[:3]), *ws, T.Packing([3]), heads, 0.5).values
        np.testing.assert_allclose(batched[:3], alone, rtol=1e-13)

    def test_finite_differences_every_input(self, heads):
        rng = np.random.default_rng(4)
        state = rng.normal(size=(7, 8))
        weights = [rng.normal(size=(8, 8)) * 0.5 for _ in "qkv"]
        packing = T.Packing([1, 4, 2])
        c = rng.normal(size=state.size)

        def attend(i):
            def f(t):
                args = [Tensor(state)] + [Tensor(w) for w in weights]
                args[i] = t
                return scalarize(T.masked_attention(*args, packing, heads, 0.5), c)
            return f
        for i, x in enumerate([state] + weights):
            check_grad(attend(i), x, tol=1e-6)

    @pytest.mark.parametrize("state_shape, w_shape, lengths, n_heads", [
        ((5, 8), (8, 8), [1, 2, 3], None),  # one point too few
        ((6, 8), (8, 4), [1, 2, 3], None),  # a projection not (d, d)
        ((2, 3, 8), (8, 8), [3, 3], None),  # padded, not packed
        ((3, 8), (8, 8), [1, 2], 3),  # heads do not divide d
        ((3, 8), (8, 8), [1, 2], 0),
    ])
    def test_shape_mismatch(self, heads, state_shape, w_shape, lengths, n_heads):
        ws = [Tensor(np.zeros((8, 8))), Tensor(np.zeros(w_shape)), Tensor(np.zeros((8, 8)))]
        with pytest.raises(ValueError, match="shape mismatch"):
            T.masked_attention(Tensor(np.zeros(state_shape)), *ws, T.Packing(lengths),
                               heads if n_heads is None else n_heads, 0.5)


def graph_with_isolated_nodes(rng, n=14, isolated=(3, 10)):
    """A normalized weighted graph in which the isolated nodes keep only
    their self-loops."""
    upper = np.triu(rng.integers(1, 4, size=(n, n)) * (rng.random((n, n)) < 0.25), k=1)
    upper[list(isolated), :] = 0
    upper[:, list(isolated)] = 0
    return symmetric_normalize(sp.csr_matrix(upper + upper.T))


class TestGCN:
    """The fused GCN against the composition of spmm, matmul and relu in
    tests/oracles.py: the same forward to the bit, gradients summed in
    another order."""

    N, D, FEATS = 14, 4, 6

    def _inputs(self, seed, one_hot, layers):
        rng = np.random.default_rng(seed)
        m = graph_with_isolated_nodes(rng, self.N)
        features = None if one_hot else sp.csr_matrix(
            rng.integers(0, 2, size=(self.N, self.FEATS)).astype(float))
        first = self.N if one_hot else self.FEATS
        weights = [rng.normal(size=(first if i == 0 else self.D, self.D)) for i in range(layers)]
        return rng, m, features, weights

    def _case(self, m, features, weights, n_rows, upstream, gcn=T.gcn, ref_gcn=dense_gcn_oracle):
        out, grads = gcn_and_grads(gcn, m, features, weights, n_rows, upstream)
        ref, ref_grads = gcn_and_grads(ref_gcn, m, features, weights, n_rows, upstream)
        np.testing.assert_array_equal(out, ref)
        for grad, ref_grad in zip(grads, ref_grads):
            assert_rel_close(grad, ref_grad)
        return grads

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("one_hot", [True, False], ids=["one_hot", "sparse_features"])
    @pytest.mark.parametrize("rows", ["one_row", "every_row"])
    def test_matches_dense_oracle(self, layers, one_hot, rows):
        rng, m, features, weights = self._inputs(7 + layers, one_hot, layers)
        n_rows = None if one_hot else self.N - 3
        upstream = rng.normal(size=(self.N if n_rows is None else n_rows, self.D))
        if rows == "one_row":  # the output row with the most live units
            out = T.gcn(m, features, [Tensor(w) for w in weights], n_rows).values
            upstream[np.arange(len(upstream)) != np.argmax(np.count_nonzero(out, axis=1))] = 0.0
        grads = self._case(m, features, weights, n_rows, upstream)
        assert all(np.any(g) for g in grads)

    @pytest.mark.parametrize("one_hot", [True, False], ids=["one_hot", "sparse_features"])
    def test_repeated_rows_sum_into_their_node(self, one_hot):
        """Rows read many times, as twin trajectories read their class's
        row, reach the fused GCN as one gradient per node, the reads summed."""
        rng, m, features, weights = self._inputs(5, one_hot, 2)
        rows = np.array([4, 0, 4, 9, 3, 4, 0, 12, 9])  # node 3 is isolated
        upstream = rng.normal(size=(len(rows), self.D))
        upstream[1] = 0.0  # one read of node 0 carries no gradient

        def read(gcn):
            return lambda m, features, ws, rows: gcn_rows_oracle(gcn, m, features, ws, rows)
        grads = self._case(m, features, weights, rows, upstream,
                           gcn=read(T.gcn), ref_gcn=read(dense_gcn_oracle))
        assert all(np.any(g) for g in grads)

    @pytest.mark.parametrize("n_rows", [-1, 15])
    def test_rows_outside_the_graph(self, n_rows):
        _, m, features, weights = self._inputs(1, False, 2)
        with pytest.raises(ValueError, match=rf"gcn n_rows {n_rows} outside \[0, 14\]"):
            T.gcn(m, features, [Tensor(w) for w in weights], n_rows)

    def test_prefix_is_the_full_output_s_first_rows(self):
        _, m, features, weights = self._inputs(2, False, 2)
        ws = [Tensor(w) for w in weights]
        full = T.gcn(m, features, ws).values
        for n_rows in (0, 5, self.N):
            np.testing.assert_array_equal(T.gcn(m, features, ws, n_rows).values, full[:n_rows])

    def test_isolated_node_reaches_only_its_own_row(self):
        rng, m, _, weights = self._inputs(3, True, 2)
        upstream = np.zeros((self.N, self.D))
        upstream[3] = rng.normal(size=self.D)
        first = self._case(m, None, weights, None, upstream)[0]
        assert not np.any(np.delete(first, 3, axis=0))

    @pytest.mark.parametrize("one_hot", [True, False], ids=["one_hot", "sparse_features"])
    def test_finite_differences_every_weight(self, one_hot):
        seed = 20
        while True:  # weights with no pre-activation within the FD step of ReLU's kink
            rng, m, features, weights = self._inputs(seed, one_hot, 2)
            pre = m @ (weights[0] if one_hot else features @ weights[0])
            nonzero_rows = np.any(pre != 0.0, axis=1)  # featureless nodes stay at zero
            pre2 = m @ (np.maximum(pre, 0.0) @ weights[1])
            if (np.min(np.abs(pre[nonzero_rows])) > 1e-3
                    and np.min(np.abs(pre2[np.any(pre2 != 0.0, axis=1)])) > 1e-3):
                break
            seed += 1
        upstream = np.zeros((self.N, self.D))
        upstream[[0, 3, 8]] = rng.normal(size=(3, self.D))  # node 3 is isolated
        for i in range(len(weights)):
            def f(t):
                ws = [t if j == i else Tensor(w) for j, w in enumerate(weights)]
                return scalarize(T.gcn(m, features, ws), upstream)
            check_grad(f, weights[i])

    def test_zero_upstream_leaves_every_grad_bit_unchanged(self):
        rng, m, features, weights = self._inputs(11, False, 3)
        ws = []
        for w in weights:
            grad = rng.normal(size=w.shape)
            grad[0] = -0.0
            ws.append(Tensor(w, requires_grad=True, grad=grad))
        before = [w.grad.copy() for w in ws]
        tape = Tape()
        with recording(tape):
            out = T.gcn(m, features, ws, self.N - 3)
            loss = scalarize(out, np.zeros(out.values.size))
        tape.backward(loss)
        for w, b in zip(ws, before):
            np.testing.assert_array_equal(w.grad.view(np.int64), b.view(np.int64))

    def test_shape_mismatch_names_every_shape(self):
        _, m, features, weights = self._inputs(1, False, 2)
        with pytest.raises(ValueError, match=r"gcn shape mismatch: \(14, 14\) graph"):
            T.gcn(m, features, [Tensor(np.zeros((self.FEATS + 1, self.D))), Tensor(weights[1])])


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        out = T.layer_norm(Tensor([[3.0, 3.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_standardized_row_unchanged(self):
        x = RNG.normal(size=(1, 64))
        x = (x - x.mean()) / x.std()
        out = T.layer_norm(Tensor(x), Tensor(np.ones(64)), Tensor(np.zeros(64)))
        np.testing.assert_allclose(out.values, x, atol=1e-5 * 64)
        # variance floor only: agreement tightens as eps/var -> 0
        assert np.max(np.abs(out.values - x)) < 1e-4

    def test_gradients(self):
        x = RNG.normal(size=(3, 6))
        gain = RNG.normal(size=6) + 1.0
        bias = RNG.normal(size=6)
        c = RNG.normal(size=18)
        check_grad(lambda t: scalarize(T.layer_norm(t, Tensor(gain), Tensor(bias)), c),
                   x, tol=1e-5)
        check_grad(lambda t: scalarize(T.layer_norm(Tensor(x), t, Tensor(bias)), c),
                   gain, tol=1e-5)
        check_grad(lambda t: scalarize(T.layer_norm(Tensor(x), Tensor(gain), t), c),
                   bias, tol=1e-5)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(RNG.normal(size=(5, 5)))
        out = T.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        assert out is x

    def test_eval_mode_is_identity(self):
        x = Tensor(RNG.normal(size=(5, 5)))
        out = T.dropout(x, 0.9, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_survivor_fraction_and_mean(self):
        x = np.full(1_000_000, 2.0)
        out = T.dropout(Tensor(x), 0.5, training=True, rng=np.random.default_rng(8))
        survivors = np.count_nonzero(out.values) / x.size
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.values.mean() - 2.0) / 2.0 < 0.01

    @pytest.mark.parametrize("lengths", [[1, 4, 2], [3, 3]])
    def test_packed_mask_is_the_padded_draw_at_the_points(self, lengths):
        """Over packed rows the mask is the padded array's, drawn over every
        (B, m, d) position, at the points: the generator ends where the
        padded draw ends."""
        packing = T.Packing(lengths)
        padded = RNG.normal(size=(len(lengths), packing.m, 3))
        rng_packed, rng_padded = np.random.default_rng(9), np.random.default_rng(9)
        out = T.dropout(Tensor(padded[packing.seq, packing.pos]), 0.5, True, rng_packed, packing)
        ref = T.dropout(Tensor(padded), 0.5, True, rng_padded)
        np.testing.assert_array_equal(out.values, ref.values[packing.seq, packing.pos])
        assert rng_packed.random() == rng_padded.random()

    def test_packed_rows_must_match(self):
        with pytest.raises(ValueError, match="packed as 3 points"):
            T.dropout(Tensor(np.ones((4, 2))), 0.5, True, np.random.default_rng(0),
                      T.Packing([1, 2]))

    def test_gradient_with_fixed_mask(self):
        x = RNG.normal(size=(4, 4))
        c = RNG.normal(size=16)

        def f(t):
            rng = np.random.default_rng(77)  # same mask on every evaluation
            return scalarize(T.dropout(t, 0.5, training=True, rng=rng), c)

        check_grad(f, x)


class TestMaxPool:
    def test_hand_case(self):
        out = T.max_pool_positions(Tensor([[1.0, 4.0], [3.0, 2.0]]), T.Packing([2]))
        np.testing.assert_array_equal(out.values, [[3.0, 4.0]])

    def test_single_row_identity(self):
        row = RNG.normal(size=(1, 5))
        np.testing.assert_array_equal(T.max_pool_positions(Tensor(row), T.Packing([1])).values,
                                      row)

    def test_dominates_every_row(self):
        z = RNG.normal(size=(6, 4))
        out = T.max_pool_positions(Tensor(z), T.Packing([6])).values
        assert np.all(out >= z)

    def test_tie_routes_to_first_row(self):
        z = Tensor(np.array([[1.0, 0.0], [1.0, 0.5]]), requires_grad=True)
        tape = Tape()
        with recording(tape):
            out = scalarize(T.max_pool_positions(z, T.Packing([2])), np.array([1.0, 1.0]))
        tape.backward(out)
        np.testing.assert_array_equal(z.grad, [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("shape, lengths", [
        ((5, 4), [2, 2]),  # one point too many
        ((3, 4), [2, 2]),  # one point too few
        ((2, 3, 4), [3, 3]),  # padded, not packed
        ((4,), [4]),  # no column axis
    ])
    def test_points_not_matching_the_packing_rejected(self, shape, lengths):
        with pytest.raises(ValueError, match="shape mismatch"):
            T.max_pool_positions(Tensor(np.zeros(shape)), T.Packing(lengths))

    def test_gradient_away_from_ties(self):
        z = RNG.normal(size=(5, 3))
        c = RNG.normal(size=3)
        check_grad(lambda t: scalarize(T.max_pool_positions(t, T.Packing([5])), c), z)

    def test_batched_pools_each_sequence(self):
        z = RNG.normal(size=(10, 3))
        np.testing.assert_array_equal(T.max_pool_positions(Tensor(z), T.Packing([5, 5])).values,
                                      z.reshape(2, 5, 3).max(axis=1))
        c = RNG.normal(size=6)
        check_grad(lambda t: scalarize(T.max_pool_positions(t, T.Packing([5, 5])), c), z)

    def test_batched_tie_routes_to_first_row(self):
        z = Tensor(np.array([[1.0, 0.0], [1.0, 0.5], [0.0, 2.0], [3.0, 2.0]]),
                   requires_grad=True)
        tape = Tape()
        with recording(tape):
            out = scalarize(T.max_pool_positions(z, T.Packing([2, 2])), np.ones(4))
        tape.backward(out)
        np.testing.assert_array_equal(z.grad, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("lengths", [[1, 4, 2], [3, 3]])
    def test_matches_the_padded_reference_to_the_bit(self, lengths):
        """The padded reference in tests/oracles.py, its padding the largest
        entries: the same pooled bits, -0.0 pooled as 0.0 (z + 0.0), and the
        same gradient at every point, none at the padding."""
        packing = T.Packing(lengths)
        at = packing.seq, packing.pos
        z = np.random.default_rng(15).normal(size=(len(lengths), packing.m, 5))
        z[0, 0, 1] = -0.0
        z[np.arange(packing.m) >= np.asarray(lengths)[:, None]] = 100.0
        out, (grad,) = values_and_grads(lambda t: T.max_pool_positions(t, packing), z[at])
        ref, (ref_grad,) = values_and_grads(lambda t: padded_max_pool_positions(t, lengths), z)
        assert_same_bits((out, [grad]), (ref, [ref_grad[at]]))
        assert not ref_grad[np.arange(packing.m) >= np.asarray(lengths)[:, None]].any()
        assert np.signbit(out[0, 1]) == np.signbit(-0.0 + 0.0)
        c = np.random.default_rng(16).normal(size=out.size)
        check_grad(lambda t: scalarize(T.max_pool_positions(t, packing), c), z[at])


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        logits = Tensor(np.zeros((4, 7)))
        out = T.cross_entropy(logits, [0, 1, 2, 3])
        np.testing.assert_allclose(out.item(), math.log(7), atol=1e-12)

    def test_saturated_logit_gives_near_zero_loss(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 30.0
        out = T.cross_entropy(Tensor(logits), [2])
        assert out.item() < 1e-9

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            T.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_gradient(self):
        logits = RNG.normal(size=(6, 4))
        targets = RNG.integers(0, 4, size=6)
        check_grad(lambda t: T.cross_entropy(t, targets), logits)


class TestReductions:
    def test_sum_squares_gradient(self):
        x = RNG.normal(size=(3, 5))
        other = Tensor(np.random.default_rng(17).normal(size=(1, 5)))
        check_grad(lambda t: T.sum_squares([t], 1.0), x)
        check_grad(lambda t: T.sum_squares([other, t, t], -0.75), x)

    def test_sum_squares_matches_the_add_chain_to_the_bit(self):
        # A leading term of 1e16 absorbs each small one alone but not their
        # sum, so any other summation order gives another float.
        xs = [Tensor(np.array([[1e8]]), requires_grad=True)] + [
            Tensor(RNG.normal(size=(rows, 3)), requires_grad=rows != 5)
            for rows in (7, 5, 40, 1, 13, 2, 29, 3)]
        results = []
        for penalty in (lambda: T.sum_squares(xs, 2.5e-4),
                        lambda: scale(l2_chain_oracle(xs), 2.5e-4)):
            for x in xs:
                if x.requires_grad:
                    x.grad.fill(0.0)
            tape = Tape()
            with recording(tape):
                out = penalty()
            tape.backward(out)
            results.append((out.item(), [x.grad.copy() for x in xs if x.requires_grad]))
        (fused, fused_grads), (chain, chain_grads) = results
        assert fused == chain
        for a, b in zip(fused_grads, chain_grads):
            np.testing.assert_array_equal(a, b)

    def test_row_norms_values_and_gradient(self):
        x = RNG.normal(size=(4, 3)) + 2.0
        np.testing.assert_allclose(
            T.row_norms(Tensor(x)).values, np.linalg.norm(x, axis=1)
        )
        c = RNG.normal(size=4)
        check_grad(lambda t: scalarize(T.row_norms(t), c), x)

    def test_row_norms_zero_row_gets_zero_gradient(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        tape = Tape()
        with recording(tape):
            out = scalarize(T.row_norms(x), np.ones(2))
        tape.backward(out)
        assert np.all(np.isfinite(x.grad))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))


class TestCheckReport:
    def test_quadratic_is_essentially_exact(self):
        x = np.ones(4)
        report = check_grad(lambda t: T.sum_squares([t], 1.0), x, tol=1e-10)
        assert report.max_rel_error <= 1e-10

    def test_linear_is_exact_to_rounding(self):
        x = RNG.normal(size=5)
        c = RNG.normal(size=5)
        report = check_grad(lambda t: scalarize(t, c), x, tol=1e-9)
        assert isinstance(report, GradCheckReport)

    def test_failure_is_reported(self):
        def half_detached(t):
            # forward is 2t but only one addend is tracked: analytic gradient
            # comes out half the numeric one, which the check must flag
            return scalarize(T.add(t, Tensor(t.values.copy())), np.ones(4))

        report = finite_difference_check(half_detached, Tensor(RNG.normal(size=4)))
        assert not report.passed
        assert report.max_rel_error > 0.4


class TestTape:
    def test_reuse_accumulates_once_per_use(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        tape = Tape()
        with recording(tape):
            out = T.sum_squares([T.add(x, x)], 1.0)  # d/dx (2x)^2 = 8x
        tape.backward(out)
        np.testing.assert_allclose(x.grad, [24.0])

    def test_unused_tensor_keeps_zero_gradient(self):
        used = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        unused = Tensor(np.array([5.0]), requires_grad=True)
        tape = Tape()
        with recording(tape):
            out = T.sum_squares([used], 1.0)
        tape.backward(out)
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_no_tape_means_no_tracking(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = T.tanh(x)
        assert out.grad is None and not out.requires_grad

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        tape = Tape()
        with recording(tape):
            out = T.tanh(x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(out)
