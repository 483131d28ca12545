"""End-to-end acceptance suite.

One test per criterion, each printing a PASS line with its headline numbers
(run with ``pytest tests/test_acceptance.py -v -s`` to see them). Budgets
and tolerances are asserted inside the tests themselves.
"""

import hashlib
import inspect
import itertools
import os
import subprocess
import sys
import time
import typing
from pathlib import Path

import numpy as np

import tulink
from tulink import synth
from tulink import tensor as T
from tulink.cli import StagePaths, _load_model_inputs, main, run_build_graphs, run_preprocess
from tulink.config import RunConfig, seeded_rng
from tulink.graphs import (
    build_global_graph,
    build_grid_incidence,
    build_local_graph,
    symmetric_normalize,
)
from tulink.metrics import compute_report
from tulink.model import ModelParams, forward_batch, model_loss
from tulink.tensor import Tensor
from tulink.train import evaluate_on_split

from conftest import fit, inputs_from_sequences, make_sequence, small_config, toy_nine_sequences
import oracles
from oracles import (columns_from_records, confusion_matrix_oracle, finite_difference_check,
                     simplex_projection_oracle)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


class TestCriterion1Sparsemax:
    def test_oracle_equivalence_and_examples(self):
        rng = np.random.default_rng(1001)
        t0 = time.perf_counter()
        max_err = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 17))
            x = rng.normal(size=n) * rng.uniform(0.1, 10.0)
            p = T.sparsemax(Tensor(x)).values
            err = float(np.max(np.abs(p - simplex_projection_oracle(x))))
            max_err = max(max_err, err)
        elapsed = time.perf_counter() - t0
        assert max_err <= 1e-10
        assert elapsed < 1.0

        np.testing.assert_array_equal(
            T.sparsemax(Tensor([0.0, 0.0, 0.0])).values, np.full(3, 1.0 / 3.0)
        )
        for c in (4.0, -1.5):
            np.testing.assert_allclose(
                T.sparsemax(Tensor([c, c, c])).values, np.full(3, 1.0 / 3.0), atol=1e-12
            )
        np.testing.assert_array_equal(T.sparsemax(Tensor([2.0, 0.0])).values, [1.0, 0.0])
        np.testing.assert_array_equal(
            T.sparsemax(Tensor([0.5, 0.0])).values, [0.75, 0.25]
        )
        report(1, f"1000 projections, max abs err {max_err:.2e}, {elapsed:.2f}s")


def scalar_functional(t, coeffs):
    flat = oracles.reshape(t, (1, t.values.size))
    return oracles.matmul(flat, Tensor(np.asarray(coeffs).reshape(-1, 1)))


def cosine_safe_roster(rng, batch, counts, margin=1e-3):
    """A roster of seven rows, each counted counts[j] times, whose sparsemax
    supports cannot flip within the FD step, and its row norms."""
    while True:
        h = rng.normal(size=(7, 3)) + 0.5
        norms = np.linalg.norm(h, axis=1)
        scores = (h[batch] @ h.T) / (np.outer(norms[batch], norms) + 1e-12)
        tau = np.max(scores - T.sparsemax(Tensor(scores), counts).values, axis=-1,
                     keepdims=True)
        if np.min(np.abs(scores - tau)) > margin:
            return h, norms


def primitive_checks(rng):
    """(name, f, x) triples covering every differentiable primitive.

    Inputs are sampled away from relu kinks, max-pooling ties, and sparsemax
    support boundaries so central differences see a smooth function.
    """
    def max_pool_safe(shape, lengths, margin=1e-3):
        """Real rows without near-ties; the padded rows hold the largest
        entries, which must neither win nor take a gradient."""
        while True:
            z = rng.normal(size=shape)
            real = np.arange(shape[-2]) < np.asarray(lengths)[..., None]
            top2 = np.sort(np.where(real[..., None], z, -np.inf), axis=-2)[..., -2:, :]
            gaps = top2[..., 1, :] - top2[..., 0, :]
            if np.min(gaps[np.isfinite(gaps)], initial=np.inf) > margin:
                return np.where(real[..., None], z, z + 10.0)

    import scipy.sparse as sp

    # every constant is drawn once, outside the functionals, so each f is a
    # deterministic function of its probe tensor
    a34 = rng.normal(size=(3, 4))
    b34 = rng.normal(size=(3, 4)) + 3.0
    c4 = rng.normal(size=4)
    c8 = rng.normal(size=8)
    c12 = rng.normal(size=12)
    c18 = rng.normal(size=18)
    mat43 = rng.normal(size=(4, 3))
    part32 = rng.normal(size=(3, 2))
    a234 = rng.normal(size=(2, 3, 4))
    c24 = rng.normal(size=24)
    c10 = rng.normal(size=10)
    c3 = rng.normal(size=3)
    sparse = sp.random(5, 3, density=0.6, random_state=7, format="csr")
    table_idx = np.array([0, 2, 2, 1])
    ln_gain = rng.normal(size=4) + 1.0
    ln_bias = rng.normal(size=4)
    targets = np.array([1, 0, 3])
    pool_lengths = np.array([2, 5, 1])
    pool_packing = T.Packing(pool_lengths)

    def dropout_f(t):
        return scalar_functional(
            T.dropout(t, 0.5, training=True, rng=np.random.default_rng(55)), c12
        )

    checks = [
        ("add", lambda t: scalar_functional(T.add(t, Tensor(b34)), c12), a34),
        ("matmul", lambda t: scalar_functional(T.matmul(t, Tensor(mat43), Tensor(c3)), c12),
         rng.normal(size=(4, 4))),
        ("matmul_batched", lambda t: scalar_functional(
            T.matmul(t, Tensor(mat43), Tensor(c3)), c18), a234),
        ("matmul_weight", lambda t: scalar_functional(
            T.matmul(Tensor(a234), t, Tensor(c3)), c18), mat43),
        ("matmul_bias", lambda t: scalar_functional(
            T.matmul(Tensor(a234), Tensor(mat43), t), c18), c3),
        ("spmm", lambda t: scalar_functional(T.spmm(sparse, t), c10),
         rng.normal(size=(3, 2))),
        ("transpose", lambda t: scalar_functional(T.transpose(t), c12), a34),
        ("transpose_batched", lambda t: scalar_functional(T.transpose(t), c24), a234),
        ("concat", lambda t: scalar_functional(
            T.concat([t, Tensor(part32)], axis=-1), c18), a34),
        ("embedding", lambda t: scalar_functional(T.embedding(t, table_idx), c8),
         rng.normal(size=(3, 2))),
        ("embedding_with_bias", lambda t: scalar_functional(
            T.embedding(t, table_idx, Tensor(c4[:2])), c8), rng.normal(size=(3, 2))),
        ("embedding_bias", lambda t: scalar_functional(
            T.embedding(Tensor(part32), table_idx, t), c8), c4[2:]),
        ("tanh", lambda t: scalar_functional(T.tanh(t), c12), a34),
        ("layer_norm", lambda t: scalar_functional(
            T.layer_norm(t, Tensor(ln_gain), Tensor(ln_bias)), c12), a34),
        ("dropout", dropout_f, a34),
        ("max_pool_positions", lambda t: scalar_functional(
            T.max_pool_positions(t, T.Packing([5])), c4), max_pool_safe((5, 4), 5)),
        ("max_pool_positions_batched", lambda t: scalar_functional(
            T.max_pool_positions(t, pool_packing), c12),
         max_pool_safe((3, 5, 4), pool_lengths)[pool_packing.seq, pool_packing.pos]),
        ("cross_entropy", lambda t: T.cross_entropy(t, targets), rng.normal(size=(3, 5))),
        ("sum_squares", lambda t: T.sum_squares([t], 1.0), a34),
        ("sum_squares_scaled", lambda t: T.sum_squares([t, Tensor(part32), t], -0.3), a34),
        ("row_norms", lambda t: scalar_functional(T.row_norms(t), c3),
         rng.normal(size=(3, 4)) + 1.5),
    ]
    batch = np.array([1, 4, 4, 0])
    # Every row counted once, and rows standing for several twin trajectories
    # (drawn from a generator of their own, so every other row keeps its data).
    for suffix, counts, gen in (("", np.ones(7), rng),
                                ("_counted", np.array([1.0, 3, 1, 2, 4, 1, 2]),
                                 np.random.default_rng(55))):
        roster, roster_norms = cosine_safe_roster(gen, batch, counts)
        for use_softmax in (False, True):
            checks.append((
                f"cosine_attention_{'softmax' if use_softmax else 'sparsemax'}{suffix}",
                lambda t, u=use_softmax, c=counts, n=roster_norms: scalar_functional(
                    T.cosine_attention(t, Tensor(n), c, batch, 1e-12, u), c12),
                roster))

    # A five-node graph whose last node is isolated, and weights drawn so no
    # pre-activation sits within the FD step of ReLU's kink.
    gcn_m = symmetric_normalize(sp.csr_matrix(np.array(
        [[0, 2, 0, 0, 0], [2, 0, 1, 1, 0], [0, 1, 0, 3, 0], [0, 1, 3, 0, 0], [0, 0, 0, 0, 0]])))
    gcn_x = sp.csr_matrix(np.array(
        [[1, 0, 1, 0], [0, 1, 0, 0], [1, 1, 0, 1], [0, 0, 0, 1], [0, 1, 1, 0]], dtype=float))

    def gcn_safe(features, shapes, margin=1e-3):
        while True:
            ws = [rng.normal(size=s) for s in shapes]
            pre = gcn_m @ (ws[0] if features is None else features @ ws[0])
            pres = [pre]
            for w in ws[1:]:
                pre = gcn_m @ (np.maximum(pre, 0.0) @ w)
                pres.append(pre)
            if min(np.min(np.abs(p)) for p in pres) > margin:
                return ws

    gcn_one_hot = gcn_safe(None, [(5, 3), (3, 3)])
    gcn_feats = gcn_safe(gcn_x, [(4, 3), (3, 3), (3, 3)])
    c9 = rng.normal(size=9)
    c15 = rng.normal(size=15)
    checks += [
        ("gcn", lambda t: scalar_functional(
            T.gcn(gcn_m, None, [t, Tensor(gcn_one_hot[1])]), c15), gcn_one_hot[0]),
        ("gcn_features", lambda t: scalar_functional(T.gcn(  # the first three rows
            gcn_m, gcn_x, [Tensor(gcn_feats[0]), t, Tensor(gcn_feats[2])], 3), c9), gcn_feats[1]),
    ]

    # The points of three sequences of up to four (one of length 1, one
    # full), and one weight at a time probed under a single head.
    attn_packing = T.Packing([1, 4, 2])
    attn_state = rng.normal(size=(3, 4, 4))[attn_packing.seq, attn_packing.pos]
    attn_w = [rng.normal(size=(4, 4)) * 0.5 for _ in range(3)]
    c48 = rng.normal(size=48)
    checks += [
        ("masked_attention", lambda t: scalar_functional(T.masked_attention(
            t, *map(Tensor, attn_w), attn_packing, 2, 0.5 ** 0.5), c48[:28]), attn_state),
        ("masked_attention_one_head", lambda t: scalar_functional(T.masked_attention(
            Tensor(attn_state), Tensor(attn_w[0]), t, Tensor(attn_w[2]), attn_packing, 1, 0.5),
            c48[:28]), attn_w[1]),
    ]
    # Two full sequences, which need no padding, and packed dropout, whose
    # mask is drawn over the padded layout.
    full_packing = T.Packing([3, 3])
    c_full = rng.normal(size=24)
    checks += [
        ("masked_attention_unpadded", lambda t: scalar_functional(T.masked_attention(
            t, *map(Tensor, attn_w), full_packing, 2, 0.5 ** 0.5), c_full),
         rng.normal(size=(6, 4))),
        ("dropout_packed", lambda t: scalar_functional(T.dropout(
            t, 0.5, True, np.random.default_rng(56), attn_packing), c48[:28]), attn_state),
    ]
    return checks


def oracle_primitive_checks(rng):
    """(name, f, x) triples for the taped primitives in tests/oracles.py,
    which the compositions there are built from."""
    def away_from_zero(shape, margin=0.2):
        x = rng.normal(size=shape)
        x[np.abs(x) < margin] += np.sign(x[np.abs(x) < margin] + 0.5) * margin
        return x

    def sparsemax_safe_vector(n=6, margin=1e-3):
        while True:
            x = rng.normal(size=n)
            p = T.sparsemax(Tensor(x)).values
            tau = (x[p > 0].sum() - 1.0) / np.count_nonzero(p > 0)
            if np.min(np.abs(x - tau)) > margin:
                return x

    a34 = rng.normal(size=(3, 4))
    b34 = rng.normal(size=(3, 4)) + 3.0
    a234 = rng.normal(size=(2, 3, 4))
    b245 = rng.normal(size=(2, 4, 5))
    mat43 = rng.normal(size=(4, 3))
    c4, c6, c8, c12, c24, c30 = (rng.normal(size=n) for n in (4, 6, 8, 12, 24, 30))
    # From a generator of their own, so every other row keeps its data.
    batch = np.array([1, 4, 4, 0])
    roster, roster_norms = cosine_safe_roster(np.random.default_rng(56), batch, np.ones(7))
    trajectory_attention = [
        (f"trajectory_attention_oracle_{'softmax' if u else 'sparsemax'}",
         lambda t, u=u: scalar_functional(oracles.trajectory_attention_oracle(
             t, Tensor(roster_norms), batch, 1e-12, u), c12), roster)
        for u in (False, True)]
    checks = trajectory_attention + [
        ("add_bias", lambda t: scalar_functional(oracles.add_bias(Tensor(a34), t), c12), c4),
        ("scale", lambda t: scalar_functional(oracles.scale(t, -1.3), c6), rng.normal(size=6)),
        ("matmul", lambda t: scalar_functional(oracles.matmul(t, Tensor(mat43)), c12),
         rng.normal(size=(4, 4))),
        ("matmul_batched", lambda t: scalar_functional(oracles.matmul(t, Tensor(b245)), c30),
         a234),
        ("matmul_batched_right", lambda t: scalar_functional(
            oracles.matmul(Tensor(a234), t), c30), b245),
        ("softmax", lambda t: scalar_functional(oracles.softmax(t), c12), a34),
        ("sparsemax", lambda t: scalar_functional(oracles.sparsemax(t), c6),
         sparsemax_safe_vector()),
        ("sparsemax_rows", lambda t: scalar_functional(oracles.sparsemax(t), c24),
         np.stack([sparsemax_safe_vector() for _ in range(4)])),
        ("add_scalar", lambda t: scalar_functional(oracles.add_scalar(t, 0.7), c6),
         rng.normal(size=6)),
        ("div", lambda t: scalar_functional(oracles.div(Tensor(a34), t), c12), b34),
        ("permute", lambda t: scalar_functional(oracles.permute(t, (1, 2, 0)), c24), a234),
        ("reshape", lambda t: scalar_functional(oracles.reshape(t, (2, 6)), c12), a34),
        ("slice_rows", lambda t: scalar_functional(oracles.slice_rows(t, 1, 3), c8), a34),
        ("relu", lambda t: scalar_functional(oracles.relu(t), c12), away_from_zero((3, 4))),
    ]
    # The padded local-branch references: two sequences of 1 and 3 points,
    # the padded rows the largest, and no near-ties among the real ones.
    attn_w = [Tensor(rng.normal(size=(4, 4)) * 0.5) for _ in "qkv"]
    while True:
        pool = rng.normal(size=(2, 3, 4))
        top2 = np.sort(pool[1], axis=0)[-2:]
        if np.min(top2[1] - top2[0]) > 1e-3:
            break
    pool[0, 1:] += 10.0
    return checks + [
        ("padded_masked_attention", lambda t: scalar_functional(
            oracles.padded_masked_attention(t, *attn_w, [1, 3], 2, 0.5), c24),
         rng.normal(size=(2, 3, 4))),
        ("padded_max_pool_positions", lambda t: scalar_functional(
            oracles.padded_max_pool_positions(t, [1, 3]), c8), pool),
    ]


# Tensor-valued functions of tulink.tensor that record nothing: cosine_attention
# reads only their values. Their taped versions are oracle primitives.
FORWARD_ONLY = {"softmax", "sparsemax"}


def taped_functions(module):
    """Public functions defined in ``module`` and annotated to return a Tensor."""
    return {name for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__ and not name.startswith("_")
            and typing.get_type_hints(fn).get("return") is Tensor}


def tensor_primitives():
    """The taped primitives of tulink.tensor: its Tensor-valued public
    functions, less the forward-only normalizers."""
    return taped_functions(T) - FORWARD_ONLY


def uncovered(primitives, checks):
    """Primitives without a row. Each row is named after its primitive, plus
    an optional variant suffix; the longest matching name is the one it checks."""
    covered = {max((p for p in primitives if row == p or row.startswith(p + "_")),
                   key=len, default=None)
               for row, _, _ in checks}
    return sorted(primitives - covered)


class TestCriterion2Gradients:
    def test_every_primitive_has_a_row(self):
        assert not uncovered(tensor_primitives(),
                             primitive_checks(np.random.default_rng(0)))
        assert not uncovered(taped_functions(oracles),
                             oracle_primitive_checks(np.random.default_rng(0)))

    def test_oracle_primitives(self):
        """The taped primitives that only tests/oracles.py keeps."""
        failures = []
        for name, f, x in oracle_primitive_checks(np.random.default_rng(2003)):
            rep = finite_difference_check(f, Tensor(np.asarray(x, float)),
                                          h=1e-5, tolerance=1e-4)
            if not rep.passed:
                failures.append((name, rep.max_rel_error))
        assert not failures, failures

    def test_primitives_and_full_model(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2002)
        failures = []
        for name, f, x in primitive_checks(rng):
            rep = finite_difference_check(f, Tensor(np.asarray(x, float)),
                                          h=1e-5, tolerance=1e-4)
            if not rep.passed:
                failures.append((name, rep.max_rel_error))
        assert not failures, failures

        config = small_config()
        inputs, _ = inputs_from_sequences(toy_nine_sequences(), 9)
        params = ModelParams.drawn(config, 9, np.arange(9), inputs.n_users,
                                   seeded_rng(123, "init"))
        batch = np.arange(9)
        targets = inputs.labels[batch]
        worst = 0.0
        for name in params.tensors:
            original = params[name]

            def f(t, name=name):
                params.tensors[name] = t
                try:
                    logits = forward_batch(params, inputs, batch,
                                           np.random.default_rng(0), training=False)
                    return model_loss(logits, targets, params)
                finally:
                    params.tensors[name] = original

            rep = finite_difference_check(f, Tensor(original.values.copy()),
                                          h=1e-5, tolerance=1e-4)
            assert rep.passed, (name, rep.max_rel_error, rep.worst_index)
            worst = max(worst, rep.max_rel_error)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        report(2, f"all primitives + full model ({sum(t.values.size for t in params.tensors.values())} "
                  f"coords), worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion3GraphOracles:
    def test_incidence_product_and_local_counts(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3003)
        n_grids, n_traj = 100, 200
        grid_lists = [
            rng.integers(0, n_grids, size=rng.integers(1, 15)).tolist()
            for _ in range(n_traj)
        ]
        sequences = [make_sequence(f"u{i % 10}", i // 10, g)
                     for i, g in enumerate(grid_lists)]
        ids = [s.traj_id for s in sequences]

        incidence = build_grid_incidence(columns_from_records(sequences))
        train = np.arange(0, n_traj, 2)  # trajectory i belongs to user u{i % 10}
        global_g = build_global_graph(incidence, ids, [f"u{k}" for k in range(10)], train,
                                      train % 10)
        block = global_g.adjacency.toarray()[:n_traj, :n_traj]
        grid_sets = [set(g) for g in grid_lists]
        for i in range(n_traj):
            for j in range(n_traj):
                expected = 0 if i == j else len(grid_sets[i] & grid_sets[j])
                assert block[i, j] == expected

        local = build_local_graph(columns_from_records(sequences), n_grids)
        brute = np.zeros((n_grids, n_grids), dtype=np.int64)
        for grids in grid_lists:
            pairs = {(min(a, b), max(a, b))
                     for a, b in zip(grids, grids[1:]) if a != b}
            for a, b in pairs:
                brute[a, b] += 1
                brute[b, a] += 1
        np.testing.assert_array_equal(local.adjacency.toarray(), brute)

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        report(3, f"200 trajectories x 100 grids, exact match, {elapsed:.1f}s")


class TestCriterion4Normalization:
    def test_hand_case_and_extended_precision(self):
        import mpmath
        import scipy.sparse as sp

        out = symmetric_normalize(sp.csr_matrix(np.array([[0, 1], [1, 0]]))).toarray()
        np.testing.assert_allclose(out, np.full((2, 2), 0.5), atol=1e-12, rtol=0)

        rng = np.random.default_rng(4004)
        worst = 0.0
        for _ in range(50):
            k = int(rng.integers(2, 16))
            upper = np.triu(rng.integers(0, 6, size=(k, k)), k=1)
            dense = upper + upper.T
            mine = symmetric_normalize(sp.csr_matrix(dense)).toarray()
            with mpmath.workdps(50):
                a = [
                    [mpmath.mpf(int(dense[i, j])) + (1 if i == j else 0) for j in range(k)]
                    for i in range(k)
                ]
                deg = [sum(row) for row in a]
                dinv = [1 / mpmath.sqrt(d) for d in deg]
                oracle = np.array(
                    [[float(dinv[i] * a[i][j] * dinv[j]) for j in range(k)]
                     for i in range(k)]
                )
            worst = max(worst, float(np.max(np.abs(mine - oracle))))
        assert worst <= 1e-12
        report(4, f"hand case + 50 random matrices, max abs err {worst:.2e}")


class TestCriterion5SyntheticAccuracy:
    def test_disjoint_regions_reach_95_percent(self, tmp_path):
        t0 = time.perf_counter()
        data = tmp_path / "data.csv"
        data.write_text(synth.disjoint_regions(n_users=10, subtrajs_per_user=30, seed=7))
        cfg = RunConfig(dataset=str(data), output_dir=str(tmp_path / "out"), seed=42)
        run_preprocess(cfg)
        run_build_graphs(cfg)
        inputs, split, local = _load_model_inputs(StagePaths(cfg.output_dir))
        result = fit(inputs, split, cfg.model_config(), cfg.train_config(), local)
        rep = evaluate_on_split(result.params, inputs, split.test)
        elapsed = time.perf_counter() - t0
        assert len(result.history) <= 80
        assert rep.acc_at[1] >= 0.95
        assert elapsed < 300.0
        report(5, f"test acc@1 {rep.acc_at[1]:.3f} after {len(result.history)} epochs, "
                  f"{elapsed:.0f}s")


class TestCriterion6AblationOrdering:
    def test_full_model_not_worse_than_global_only(self, tmp_path):
        """Users share one ring of cells and differ only in visit order; the
        variant with the local path removed must not come out ahead."""
        data = tmp_path / "data.csv"
        data.write_text(synth.shared_ring_orders(n_users=4, subtrajs_per_user=24))
        base = dict(dataset=str(data), output_dir=str(tmp_path / "out"),
                    embed_dim=32, heads=2, attn_layers=1, gcn_layers=2,
                    epochs_max=60, batch_size=8, patience=12,
                    learning_rate=5e-3, dropout=0.2)
        cfg = RunConfig(**base)
        run_preprocess(cfg)
        run_build_graphs(cfg)
        inputs, split, local = _load_model_inputs(StagePaths(cfg.output_dir))

        pairs = []
        for seed in (1, 2, 3, 4, 5):
            accs = {}
            for ablation in ("", "tul-g"):
                c = RunConfig(**base, ablation=ablation, seed=seed)
                result = fit(inputs, split, c.model_config(), c.train_config(), local)
                rep = evaluate_on_split(result.params, inputs, split.test)
                accs[ablation or "full"] = rep.acc_at[1]
            pairs.append((accs["full"], accs["tul-g"]))
        violations = sum(full < ablated for full, ablated in pairs)
        mean_full = float(np.mean([p[0] for p in pairs]))
        mean_ablated = float(np.mean([p[1] for p in pairs]))
        assert violations <= 1, pairs
        assert mean_full >= mean_ablated, pairs
        report(6, f"mean acc@1 full {mean_full:.3f} vs tul-g {mean_ablated:.3f}, "
                  f"{violations} of 5 seeds violating")


class TestCriterion7Metrics:
    def test_macro_exhaustive_hand_case_and_monotonicity(self):
        cases = 0
        for n_classes in range(2, 6):
            for n_items in range(1, 7):
                true = [i % n_classes for i in range(n_items)]
                for assignment in itertools.product(range(n_classes), repeat=n_items):
                    # each class scores minus its position in a ranking led by the top-1
                    logits = np.array([
                        -np.argsort([p] + [c for c in range(n_classes) if c != p])
                        for p in assignment
                    ], dtype=float)
                    r = compute_report(logits, true, ks=(1,))
                    oracle = confusion_matrix_oracle(true, list(assignment))
                    np.testing.assert_allclose((r.macro_p, r.macro_r, r.macro_f1), oracle,
                                               atol=1e-12)
                    cases += 1

        # rankings [0, 1], [1, 0], [1, 0] for true classes 0, 0, 1
        hand_logits = np.array([[0.0, -1.0], [-1.0, 0.0], [-1.0, 0.0]])
        hand = compute_report(hand_logits, [0, 0, 1], ks=(1,))
        oracle_p, oracle_r, oracle_f1, per_class = oracles.macro_metrics(
            oracles.build_predictions(hand_logits, [0, 0, 1]))
        assert per_class[0] == (1.0, 0.5) and per_class[1] == (0.5, 1.0)
        assert (hand.macro_p, hand.macro_r, hand.macro_f1) == (oracle_p, oracle_r, oracle_f1)
        assert hand.macro_f1 == 2.0 / 3.0

        rng = np.random.default_rng(7007)
        ranked = compute_report(rng.normal(size=(1000, 9)), rng.integers(0, 9, 1000),
                                ks=range(1, 10))
        accs = [ranked.acc_at[k] for k in range(1, 10)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 1.0
        report(7, f"{cases} exhaustive assignments, hand F1 = 2/3 exact, "
                  f"acc@k monotone on 1000 rankings")


def run_pipeline(data, out, seed):
    args = ["--dataset", str(data), "--output", str(out),
            "--embed-dim", "16", "--heads", "2", "--attn-layers", "1",
            "--epochs", "4", "--batch-size", "8", "--patience", "4",
            "--seed", str(seed)]
    for cmd in ("preprocess", "build-graphs", "train", "evaluate", "embed"):
        assert main([cmd] + args) == 0, cmd


def strip_wall_clock(history_text):
    return ["\t".join(line.split("\t")[:3]) for line in history_text.splitlines()]


class TestCriterion8Determinism:
    def test_same_seed_pipelines_are_bit_identical(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text(synth.disjoint_regions(n_users=4, subtrajs_per_user=8, seed=3))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(data, out_a, seed=17)
        run_pipeline(data, out_b, seed=17)
        capsys.readouterr()

        identical = [
            "manifest.json", "grid_map.json", "sequences.jsonl", "splits.json",
            "local_graph.txt", "global_graph.txt",
            "checkpoint.bin", "metrics.txt", "embeddings.tsv",
        ]
        for name in identical:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        # the history file's wall-clock column is the one legitimately
        # nondeterministic field; every recorded quantity matches bit for bit
        assert strip_wall_clock((out_a / "history.tsv").read_text()) == \
            strip_wall_clock((out_b / "history.tsv").read_text())
        report(8, f"{len(identical)} artifacts byte-identical; history identical "
                  f"up to wall-clock")

    def test_outputs_do_not_follow_the_blas_thread_count(self, tmp_path):
        """The same seed gives the same bytes with one or two OpenBLAS threads,
        because the CLI pins numpy's OpenBLAS to one thread. Without the pin
        this instance's checkpoint differs after one epoch on a two-CPU host;
        on a one-CPU host the two runs agree either way, so the test passes
        trivially there."""
        data = tmp_path / "data.csv"
        data.write_text(synth.checkin_style(n_users=80, seed=1))
        env = dict(os.environ)
        src = str(Path(tulink.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads{threads}"
            args = ["--dataset", str(data), "--output", str(out), "--embed-dim", "32",
                    "--heads", "2", "--attn-layers", "1", "--epochs", "1"]
            for cmd in ("preprocess", "build-graphs", "train", "embed"):
                proc = subprocess.run([sys.executable, "-m", "tulink.cli", cmd, *args],
                                      env=env, capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, (threads, cmd, proc.stderr)
            outputs.append(out)
        for name in ("checkpoint.bin", "embeddings.tsv"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name
        report(8, "checkpoint and embeddings byte-identical at 1 and 2 BLAS threads")


# sha256 of the setup artifacts under the default configuration, as every
# version since the format was fixed writes them: disjoint_regions(3, 4, seed=3),
# then a check-in instance where 47 of 59 sequences are one point long. The
# sequences.jsonl digests are those of version 1 of the sequence file: the
# roster as a JSON header line, then the SequenceColumns arrays as .npy
# records. The graph files' digests are those of version 4 of the graph
# format: a JSON header line and int64 .npy records, each edge once in the
# adjacency's strict upper triangle, the local graph's visited cells and the
# global features by local graph node row.
SETUP_DIGESTS = {
    "grid_map.json": "291642cdd47538b55b8c3ad0ea044ce9d1b13c77bb60d294fba530719175c261",
    "sequences.jsonl": "6c1b0a6ba7f7fa0ed2c266c633491fc5a9af2d4a546274186b88e104df66509e",
    "splits.json": "e84be6670893c31df40100e6755a2019da1c9b030d3a5d8ddd8c23780530d892",
    "manifest.json": "838ca252bc1c212fa32a5b8262532d686f1d407935bfdd55dbf80748f786f5fd",
    "local_graph.txt": "6b5dae7ab689e080b36489221bef563970154054455444de177e21d753f3128b",
    "global_graph.txt": "bcdbe44328878a15e64c16f0e3b1efa20c2524d3b25cfabd36ff90c46cfb7b42",
}
CHECKIN_SETUP_DIGESTS = {
    "grid_map.json": "e70cf10c29ea9c44038c50230411aa4c293fe10b6b977acb084b4645413f0194",
    "sequences.jsonl": "6ebe7e11fc4d1457aee42d0a67fd5b65fda2de4acf99d0770441ee8b7ac7f0fc",
    "splits.json": "7824173a0df41e379426c902a96f3d0d515cf1cfe18d2acd1968762c3c2fe8ce",
    "manifest.json": "7a43c7d6f0fd1d47dbbc5d7d9dc0d5535e4f61447771340d7921934c9e80f205",
    "local_graph.txt": "18cd67210de504ca283ea798986aa66827c37d3c0688b0d7179b374f96a32362",
    "global_graph.txt": "349ff43d1b47738e3c94d0d32d017852a077a8b9f7b666525a5e4f6b004e7e1b",
}


class TestCriterion8ArtifactFormat:
    def test_setup_artifacts_match_pinned_digests(self, tmp_path, capsys):
        """Same-seed reruns agree with each other; these digests also hold the
        bytes still against earlier versions, the graph files against those
        since version 4 of their format and the sequence file against those
        since version 1 of its own."""
        instances = [
            (synth.disjoint_regions(3, 4, seed=3), SETUP_DIGESTS),
            (synth.checkin_style(n_users=12, checkins_per_user=6, n_days=4, seed=5),
             CHECKIN_SETUP_DIGESTS),
        ]
        for k, (text, pinned) in enumerate(instances):
            data = tmp_path / f"data{k}.csv"
            data.write_text(text)
            out = tmp_path / f"out{k}"
            for cmd in ("preprocess", "build-graphs"):
                assert main([cmd, "--dataset", str(data), "--output", str(out)]) == 0, cmd
            capsys.readouterr()
            digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                       for name in pinned}
            assert digests == pinned, k
        report(8, f"{len(instances)} x {len(SETUP_DIGESTS)} setup artifacts match their "
                  "pinned sha256")


class TestCriterion9CheckinSmokeRun:
    def test_twenty_user_checkin_subset_completes(self, tmp_path, capsys):
        """Check-in-style smoke run: must finish and report metrics; no
        accuracy threshold applies at this scale."""
        data = tmp_path / "checkins.csv"
        data.write_text(synth.checkin_style(n_users=20))
        out = tmp_path / "out"
        args = ["--dataset", str(data), "--output", str(out),
                "--embed-dim", "32", "--heads", "2", "--attn-layers", "1",
                "--epochs", "10", "--patience", "5", "--seed", "9"]
        for cmd in ("preprocess", "build-graphs", "train", "evaluate"):
            assert main([cmd] + args) == 0, cmd
        capsys.readouterr()
        metrics = (out / "metrics.txt").read_text().splitlines()
        keys = [line.split("=")[0] for line in metrics]
        assert keys == ["acc@1", "acc@5", "macro_p", "macro_r", "macro_f1"]
        values = {line.split("=")[0]: float(line.split("=")[1]) for line in metrics}
        assert all(0.0 <= v <= 1.0 for v in values.values())
        report(9, f"20-user check-in run complete, acc@1 {values['acc@1']:.3f} "
                  f"(no threshold)")
