"""Model components against straight-line dense re-implementations."""

import hashlib
import json
import math
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tulink import synth
from tulink import tensor as T
from tulink.config import RunConfig, seeded_rng
from tulink.errors import ConfigError, DataError
from tulink.graphs import (build_global_graph, build_grid_incidence, build_local_graph,
                           symmetric_normalize, twin_quotient)
from tulink.mobility import (build_grid_map, build_grid_sequences, chronological_split,
                             parse_dataset)
from tulink.model import (
    ABLATIONS,
    ModelConfig,
    ModelInputs,
    ModelParams,
    _xavier,
    _xavier_rows,
    build_model_inputs,
    encode_graphs,
    encode_locations,
    forward_batch,
    fused_representations,
    gcn_forward,
    global_attention,
    load_checkpoint,
    model_loss,
    positional_encoding,
    save_checkpoint,
    self_attention_stack,
)
from tulink.tensor import Tape, Tensor, recording

from conftest import CHECKPOINT_RECORDS as RECORD
from conftest import (STEP_OPS, checkpoint_parts, gcn_and_grads, graphs_from_sequences,
                      fresh_params, inputs_from_sequences, make_sequence, npy_record,
                      on_odd_cells, rewrite_checkpoint, small_config, toy_nine_sequences)
from oracles import (bounding_box_initial_values, bounding_box_inputs_oracle,
                     bounding_box_params_oracle, dense_gcn_oracle, finite_difference_check,
                     l2_chain_oracle, matmul, padded_fused_representations,
                     padded_self_attention_stack, per_trajectory_logits_oracle, reshape, scale)

RNG = np.random.default_rng(4242)
# The full model ("") and every ablation.
VARIANTS = ("", *ABLATIONS)


class TestPositionalEncoding:
    def test_row_zero_alternates_zero_one(self):
        p = positional_encoding(3, 6)
        np.testing.assert_array_equal(p[0], [0, 1, 0, 1, 0, 1])

    def test_bounded(self):
        p = positional_encoding(50, 16)
        assert np.all(p >= -1.0) and np.all(p <= 1.0)

    def test_row_one_matches_direct_formula(self):
        p = positional_encoding(2, 4)
        expected = [
            math.sin(1.0),
            math.cos(1.0),
            math.sin(1.0 / 10000 ** (2 / 4)),
            math.cos(1.0 / 10000 ** (2 / 4)),
        ]
        np.testing.assert_allclose(p[1], expected, atol=1e-15)

    @pytest.mark.parametrize("d", [4, 6, 32, 128, 256])
    def test_a_shorter_table_is_a_prefix(self, d):
        """A batch builds the table for its own longest sequence: the first
        rows of any longer table, bit for bit."""
        longer = positional_encoding(5000, d)
        for m in (1, 2, 7, 40):
            assert positional_encoding(m, d).tobytes() == longer[:m].tobytes()

    def test_never_trained(self, toy_model_setup):
        params, _, _, _ = toy_model_setup
        assert not any(name.startswith("pos") for name in params.tensors)


class TestConfigValidation:
    def test_dim_must_divide_heads(self):
        with pytest.raises(ConfigError, match="^heads 4 must divide the embedding size 10$"):
            ModelConfig(embed_dim=10, heads=4).validate()

    def test_unknown_ablation_lists_the_valid_names(self):
        with pytest.raises(ConfigError, match="unknown ablation") as err:
            ModelConfig(ablation="tul-l,tul-g").validate()
        for name in ABLATIONS:
            assert name in str(err.value)


def checkin_graphs(tmp_path, n_users=12, seed=5):
    """(sequence columns, local graph, global graph) of a check-in-style
    dataset under the default run settings."""
    path = tmp_path / "data.csv"
    path.write_text(synth.checkin_style(n_users=n_users, seed=seed))
    points, _ = parse_dataset(path)
    cfg = RunConfig()
    gm = build_grid_map(points.lon, points.lat, cfg.cell_size)
    columns = build_grid_sequences(points, gm, cfg.tau)
    split = chronological_split(columns.user)
    global_g = build_global_graph(build_grid_incidence(columns), columns.traj_ids,
                                  columns.roster, split.train, columns.user[split.train])
    return columns, build_local_graph(columns, gm.n_grids), global_g


def random_graph_inputs(n_nodes, n_feats, rng):
    import scipy.sparse as sp

    from tulink.graphs import symmetric_normalize

    upper = np.triu(rng.integers(0, 3, size=(n_nodes, n_nodes)), k=1)
    m = symmetric_normalize(sp.csr_matrix(upper + upper.T))
    feats = sp.csr_matrix(rng.integers(0, 2, size=(n_nodes, n_feats)).astype(float))
    return m, feats


class TestGCN:
    def test_zero_weights_give_zero_embeddings(self):
        rng = np.random.default_rng(1)
        m, feats = random_graph_inputs(6, 4, rng)
        weights = [Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 3)))]
        out = gcn_forward(m, feats, weights)
        np.testing.assert_array_equal(out.values, np.zeros((6, 3)))

    def test_single_node_identity_feature(self):
        import scipy.sparse as sp

        from tulink.graphs import symmetric_normalize

        m = symmetric_normalize(sp.csr_matrix((1, 1)))  # -> [[1]]
        w = RNG.normal(size=(1, 4))
        out = gcn_forward(m, None, [Tensor(w)])
        np.testing.assert_allclose(out.values, np.maximum(w, 0.0))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        m, feats = random_graph_inputs(5, 5, rng)
        w0 = rng.normal(size=(5, 4))
        w1 = rng.normal(size=(4, 4))
        out = gcn_forward(m, feats, [Tensor(w0), Tensor(w1)], 3)

        h = feats.toarray()
        for w in (w0, w1):
            h = np.maximum(m.toarray() @ (h @ w), 0.0)
        np.testing.assert_allclose(out.values, h[:3], atol=1e-10)

    def test_model_graphs_equal_their_transposes_bit_for_bit(self):
        """Both GCNs propagate over undirected graphs: the normalized local
        adjacency and the normalized global one, which the twin quotient
        starts from, are symmetric to the last bit."""
        rng = np.random.default_rng(8)
        sequences = [make_sequence(f"u{k % 5}", k // 5,
                                   rng.integers(0, 40, size=rng.integers(1, 9)))
                     for k in range(40)]
        columns, local, global_g, _ = graphs_from_sequences(sequences, 40)
        inputs = build_model_inputs(columns, local, global_g)
        for m in (inputs.m_local, symmetric_normalize(global_g.adjacency)):
            assert len(np.unique(m.data)) > 10  # many distinct degree products
            np.testing.assert_array_equal(m.toarray(), m.T.toarray())

    def test_twin_quotient_matches_the_full_graph(self, tmp_path):
        """On check-in data the global GCN over twin classes gives every
        trajectory its class's row, the full graph's, and every weight its
        gradient when each class's rows take the sum of its trajectories'."""
        columns, local, global_g = checkin_graphs(tmp_path)
        inputs = build_model_inputs(columns, local, global_g)
        assert inputs.m_global.shape[0] < 0.8 * global_g.n_nodes  # 321 classes of 472 nodes
        counts = inputs.class_counts
        assert len(counts) < inputs.n_traj and counts.min() >= 1
        m = symmetric_normalize(global_g.adjacency)
        x = global_g.features.astype(float).tocsr()
        d = 8
        rng = np.random.default_rng(3)
        weights = [rng.normal(size=(x.shape[1], d)), rng.normal(size=(d, d))]
        upstream = rng.normal(size=(inputs.n_traj, d))
        upstream[rng.random(inputs.n_traj) < 0.7] = 0.0  # a row-sparse gradient
        class_upstream = np.zeros((len(counts), d))
        np.add.at(class_upstream, inputs.traj_rows, upstream)
        out, grads = gcn_and_grads(T.gcn, inputs.m_global, inputs.x_global, weights,
                                   len(counts), class_upstream)
        ref, ref_grads = gcn_and_grads(dense_gcn_oracle, m, x, weights, inputs.n_traj, upstream)
        assert np.count_nonzero(ref) > ref.size / 4
        assert max_rel(out[inputs.traj_rows], ref) <= 1e-12
        for g, r in zip(grads, ref_grads):
            assert np.any(r) and max_rel(g, r) <= 1e-12

    def test_feature_width_mismatch(self, toy_model_setup):
        _, _, inputs, _ = toy_model_setup
        config = small_config(ablation="tul-l")
        params = make_params(config, n_grids=inputs.m_local.shape[0] + 1)
        with pytest.raises(ValueError, match="mismatch"):
            encode_graphs(params, inputs)


def make_params(config, n_grids=9, n_users=3, seed=123, grid_rows=None):
    """Parameters with first GCN rows for ``grid_rows``, by default every cell."""
    rows = np.arange(n_grids) if grid_rows is None else grid_rows
    return ModelParams.drawn(config, n_grids, rows, n_users, seeded_rng(seed, "init"))


class TestLocationEncoder:
    def test_zero_parameters_give_zero_vector(self):
        cfg = small_config()
        params = make_params(cfg)
        for name in ("time_w", "time_b", "state_w", "state_b", "loc_w", "loc_b"):
            params[name].values[:] = 0.0
        h_local = Tensor(RNG.normal(size=(9, cfg.embed_dim)))
        out = encode_locations(params, h_local,
                               np.array([0, 1]), np.array([2, 3]), np.array([0, 1]))
        np.testing.assert_array_equal(out.values, np.zeros((2, cfg.embed_dim)))

    def test_disable_time_state_equals_zeroed_encoders(self):
        cfg_on = small_config()
        cfg_off = small_config(ablation="tul-ts")
        params_on, params_off = make_params(cfg_on), make_params(cfg_off)
        for name in ("time_w", "time_b", "state_w", "state_b"):
            params_on[name].values[:] = 0.0
        h_local = Tensor(RNG.normal(size=(9, cfg_on.embed_dim)))
        args = (np.array([0, 4, 7]), np.array([1, 8, 0]), np.array([3, 2, 1]))
        a = encode_locations(params_on, h_local, *args)
        b = encode_locations(params_off, h_local, *args)
        np.testing.assert_array_equal(a.values, b.values)

    def test_no_windows_without_the_time_encoder(self, monkeypatch):
        """Under tul-ts the point times are never mapped to windows."""
        def fail(*args):
            raise AssertionError("time_windows called")
        monkeypatch.setattr("tulink.model.time_windows", fail)
        params = make_params(small_config(ablation="tul-ts"))
        h_local = Tensor(RNG.normal(size=(9, params.config.embed_dim)))
        encode_locations(params, h_local, np.array([0, 4]), np.array([1, 8]),
                         np.array([0.0, 9e4]))

    def test_matches_closed_form_and_is_bounded(self):
        cfg = small_config()
        params = make_params(cfg)
        h_local = Tensor(RNG.normal(size=(9, cfg.embed_dim)))
        g = np.array([0, 5, 8, 5])
        s = np.array([1, 0, 8, 4])
        times = np.array([600.0, 3 * 21_600.0, 2 * 21_600.0 + 86_400.0, -1.0])
        out = encode_locations(params, h_local, g, s, times).values

        windows = np.array([0, 3, 2, 3])  # a day of cfg.time_vocab = 4 windows
        fused = np.concatenate(
            [
                params["time_w"].values[windows] + params["time_b"].values,
                params["state_w"].values[s] + params["state_b"].values,
                h_local.values[g],
            ],
            axis=-1,
        )
        expected = np.tanh(fused @ params["loc_w"].values + params["loc_b"].values)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert np.all(np.abs(out) < 1.0)

    def test_out_of_vocabulary_index_rejected(self):
        cfg = small_config()
        params = make_params(cfg)
        h_local = Tensor(np.zeros((9, cfg.embed_dim)))
        with pytest.raises(ValueError, match="out of range"):
            encode_locations(params, h_local,
                             np.array([0]), np.array([99]), np.array([0.0]))


def head_weight(params, layer, kind, h, dh):
    """Head h's block of a fused projection: columns h*dh:(h+1)*dh."""
    return params[f"attn{layer}_{kind}"].values[:, h * dh:(h + 1) * dh]


def dense_attention_oracle(params, cfg, x):
    """Straight-line numpy re-implementation of the attention stack."""
    d = cfg.embed_dim
    dh = d // cfg.heads
    scale = 1.0 / math.sqrt(dh)
    state = x + positional_encoding(*x.shape)
    for layer in range(cfg.attn_layers):
        outs = []
        for h in range(cfg.heads):
            q = state @ head_weight(params, layer, "q", h, dh)
            k = state @ head_weight(params, layer, "k", h, dh)
            v = state @ head_weight(params, layer, "v", h, dh)
            scores = (q @ k.T) * scale
            e = np.exp(scores)
            outs.append((e / e.sum(axis=1, keepdims=True)) @ v)
        z = np.concatenate(outs, axis=-1) @ params[f"attn{layer}_out_w"].values
        z = z + params[f"attn{layer}_out_b"].values
        y = state + z
        mu = y.mean(axis=-1, keepdims=True)
        var = ((y - mu) ** 2).mean(axis=-1, keepdims=True)
        state = (y - mu) / np.sqrt(var + 1e-5)
        state = state * params[f"attn{layer}_ln_gain"].values \
            + params[f"attn{layer}_ln_bias"].values
    return state


class TestSelfAttention:
    def _run(self, params, cfg, x):
        return self_attention_stack(
            params, Tensor(x), T.Packing([len(x)]), np.random.default_rng(0), training=False,
        ).values

    def test_single_position(self):
        """With one row the attention matrix is [[1]] so the output is the
        layer-normed residual transform of that row."""
        cfg = small_config()
        params = make_params(cfg)
        x = RNG.normal(size=(1, cfg.embed_dim))
        np.testing.assert_allclose(
            self._run(params, cfg, x), dense_attention_oracle(params, cfg, x), atol=1e-10
        )

    def test_identical_rows_stay_identical(self):
        cfg = small_config()
        params = make_params(cfg)
        row = RNG.normal(size=cfg.embed_dim)
        # minus the position table, so both rows see identical inputs end to end
        x = row - positional_encoding(2, cfg.embed_dim)
        out = self._run(params, cfg, x)
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_matches_dense_oracle(self):
        cfg = small_config(attn_layers=2)
        params = make_params(cfg)
        x = RNG.normal(size=(6, cfg.embed_dim))
        np.testing.assert_allclose(
            self._run(params, cfg, x), dense_attention_oracle(params, cfg, x), atol=1e-10
        )

    def test_attention_rows_sum_to_one(self):
        """Per-head weight rows are a distribution at every layer."""
        cfg = small_config(attn_layers=2)
        params = make_params(cfg)
        x = RNG.normal(size=(5, cfg.embed_dim))
        dh = cfg.embed_dim // cfg.heads
        state = x + positional_encoding(*x.shape)
        for layer in range(cfg.attn_layers):
            outs = []
            for h in range(cfg.heads):
                q = state @ head_weight(params, layer, "q", h, dh)
                k = state @ head_weight(params, layer, "k", h, dh)
                v = state @ head_weight(params, layer, "v", h, dh)
                weights = T.softmax(Tensor((q @ k.T) / math.sqrt(dh))).values
                np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
                outs.append(weights @ v)
            z = np.concatenate(outs, -1) @ params[f"attn{layer}_out_w"].values \
                + params[f"attn{layer}_out_b"].values
            y = state + z
            mu = y.mean(axis=-1, keepdims=True)
            var = ((y - mu) ** 2).mean(axis=-1, keepdims=True)
            state = (y - mu) / np.sqrt(var + 1e-5) \
                * params[f"attn{layer}_ln_gain"].values \
                + params[f"attn{layer}_ln_bias"].values

    def test_empty_sequence_rejected(self):
        cfg = small_config()
        params = make_params(cfg)
        with pytest.raises(ValueError, match="empty"):
            self._run(params, cfg, np.zeros((0, cfg.embed_dim)))

    def test_gradient_through_stack(self):
        cfg = small_config()
        params = make_params(cfg)
        c = RNG.normal(size=3 * cfg.embed_dim)

        def f(t):
            out = self_attention_stack(params, t, T.Packing([3]),
                                       np.random.default_rng(0), False)
            flat = reshape(out, (1, out.values.size))
            return matmul(flat, Tensor(c.reshape(-1, 1)))

        report = finite_difference_check(f, Tensor(RNG.normal(size=(3, cfg.embed_dim))),
                                         tolerance=1e-4)
        assert report.passed, report

    @pytest.mark.parametrize("layers", [1, 3])
    def test_tape_ops_per_taped_forward(self, layers):
        """The position add, then per layer one masked attention, the output
        projection with its bias, dropout, the residual add and layer norm."""
        cfg = small_config(attn_layers=layers, dropout_rate=0.5)
        params = make_params(cfg)
        tape = Tape()
        with recording(tape):
            x = Tensor(np.random.default_rng(0).normal(size=(7, cfg.embed_dim)),
                       requires_grad=True)
            self_attention_stack(params, x, T.Packing([1, 4, 2]), np.random.default_rng(0),
                                 training=True)
        assert len(tape) == 1 + 5 * layers


class TestGlobalAttention:
    def _z(self, h, index, use_softmax=False, counts=None):
        ht = Tensor(np.asarray(h, float))
        norms = T.row_norms(ht)
        counts = np.ones(len(h)) if counts is None else counts
        return global_attention(ht, norms, counts, np.array([index]), use_softmax).values[0]

    def test_identical_embeddings_average_to_common_vector(self):
        row = RNG.normal(size=6)
        h = np.stack([row] * 5)
        np.testing.assert_allclose(self._z(h, 2), row, atol=1e-12)

    def test_antipodal_embedding_gets_exact_zero_weight(self):
        """Cosine gap of 2 (score max - min) exceeds 1, forcing sparsity.

        Rescaling the antipodal row keeps every cosine score identical, so
        the output can only change if that row carries nonzero weight.
        """
        base = RNG.normal(size=4)
        other = RNG.normal(size=4) + base
        z1 = self._z(np.stack([base, other, -base]), 0)
        z2 = self._z(np.stack([base, other, -5.0 * base]), 0)
        np.testing.assert_array_equal(z1, z2)

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(12)
        h = rng.normal(size=(7, 5))
        for idx in range(7):
            dots = h @ h[idx]
            scores = dots / (np.linalg.norm(h, axis=1) * np.linalg.norm(h[idx]) + 1e-12)
            expected = simplex_weights(scores) @ h
            np.testing.assert_allclose(self._z(h, idx), expected, atol=1e-10)

    @pytest.mark.parametrize("use_softmax", [False, True], ids=["sparsemax", "softmax"])
    def test_classes_weigh_as_their_trajectories(self, use_softmax):
        """A class of c twin trajectories weighs as c equal rows."""
        rng = np.random.default_rng(15)
        h = rng.normal(size=(5, 4))
        counts = np.array([1, 3, 1, 2, 4])
        expanded = np.repeat(h, counts, axis=0)
        for idx in range(5):
            scores = expanded @ h[idx] / (np.linalg.norm(expanded, axis=1)
                                          * np.linalg.norm(h[idx]) + 1e-12)
            e = np.exp(scores - scores.max())
            weights = e / e.sum() if use_softmax else simplex_weights(scores)
            np.testing.assert_allclose(self._z(h, idx, use_softmax, counts), weights @ expanded,
                                       atol=1e-10)

    def test_softmax_variant(self):
        rng = np.random.default_rng(13)
        h = rng.normal(size=(4, 3))
        dots = h @ h[1]
        scores = dots / (np.linalg.norm(h, axis=1) * np.linalg.norm(h[1]) + 1e-12)
        e = np.exp(scores - scores.max())
        np.testing.assert_allclose(
            self._z(h, 1, use_softmax=True), (e / e.sum()) @ h, atol=1e-10
        )

    def test_zero_norm_row_stays_finite_both_directions(self):
        """The epsilon denominator keeps a dead embedding row from producing
        NaN: scores collapse to zero (uniform weights) and gradients remain
        finite whether the dead row is scored or does the scoring."""
        rng = np.random.default_rng(14)
        h = rng.normal(size=(5, 4))
        h[2] = 0.0
        for idx in (0, 2):
            ht = Tensor(h.copy(), requires_grad=True)
            tape = Tape()
            with recording(tape):
                norms = T.row_norms(ht)
                z = global_attention(ht, norms, np.ones(5), np.array([idx]), use_softmax=False)
                out = T.sum_squares([z], 1.0)
            tape.backward(out)
            assert np.all(np.isfinite(z.values))
            assert np.all(np.isfinite(ht.grad))
        np.testing.assert_allclose(self._z(h, 2), h.mean(axis=0), atol=1e-12)


def simplex_weights(scores):
    from oracles import simplex_projection_oracle

    return simplex_projection_oracle(scores)


class TestLinking:
    def test_zero_representations_give_bias(self, toy_model_setup):
        params, cfg, inputs, _ = toy_model_setup
        for name, t in params.items():
            if name.endswith("ln_gain"):
                continue
            t.values[:] = 0.0
        params["link_b"].values[:] = np.array([0.5, -1.0, 2.0])
        logits = forward_batch(params, inputs, np.array([0, 4]),
                               np.random.default_rng(0), training=False)
        np.testing.assert_allclose(logits.values,
                                   np.tile([0.5, -1.0, 2.0], (2, 1)), atol=1e-12)

    def test_single_user_scalar_logit(self):
        cfg = small_config()
        sequences = [s for s in toy_nine_sequences() if s.user_id == "u0"]
        inputs, _ = inputs_from_sequences(sequences, n_grids=9)
        params = make_params(cfg, n_users=1, grid_rows=np.arange(inputs.m_local.shape[0]))
        logits = forward_batch(params, inputs, np.array([0]),
                               np.random.default_rng(0), training=False)
        assert logits.values.shape == (1, 1)

    def test_affine_oracle(self, toy_model_setup):
        params, cfg, inputs, _ = toy_model_setup
        from tulink.model import fused_representations

        batch = np.array([1, 3, 7])
        reps = fused_representations(params, inputs, batch,
                                     np.random.default_rng(0), training=False).values
        logits = forward_batch(params, inputs, batch,
                               np.random.default_rng(0), training=False).values
        expected = reps @ params["link_w"].values.T + params["link_b"].values
        np.testing.assert_allclose(logits, expected, atol=1e-12)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("ablation", VARIANTS, ids=["full", *ABLATIONS])
def test_tape_ops_per_training_step(ablation, layers):
    """Full model: two GCNs, row norms, the grid gather, the time and state
    gathers with their biases, concat, the location layer, tanh, dropout and
    the position add; per attention layer five ops; masked max pooling,
    cosine attention, concat, the linking layer on the transposed weight,
    cross entropy, the scaled penalty and the loss add."""
    cfg = small_config(attn_layers=layers, dropout_rate=0.5, ablation=ablation)
    inputs, _ = inputs_from_sequences(toy_nine_sequences(), 9)
    params = make_params(cfg)
    batch = np.array([0, 4, 7])
    tape = Tape()
    with recording(tape):
        logits = forward_batch(params, inputs, batch, np.random.default_rng(0),
                               training=True)
        model_loss(logits, inputs.labels[batch], params)
    fixed, per_layer = STEP_OPS[ablation]
    assert len(tape) == fixed + per_layer * layers


class TestModelLoss:
    def test_lambda_zero_equals_cross_entropy(self, toy_model_setup):
        _, _, inputs, _ = toy_model_setup
        params = fresh_params(small_config(lambda_l2=0.0), inputs, 123)
        batch = np.array([0, 3, 6])
        logits = forward_batch(params, inputs, batch,
                               np.random.default_rng(0), training=False)
        loss = model_loss(logits, inputs.labels[batch], params)
        ce = T.cross_entropy(Tensor(logits.values), inputs.labels[batch])
        assert loss.item() == ce.item()

    def test_zero_weights_zero_penalty(self, toy_model_setup):
        params, cfg, inputs, _ = toy_model_setup
        for t in params.l2_tensors():
            t.values[:] = 0.0
        batch = np.array([0, 1])
        logits = forward_batch(params, inputs, batch,
                               np.random.default_rng(0), training=False)
        loss = model_loss(logits, inputs.labels[batch], params)
        ce = T.cross_entropy(Tensor(logits.values), inputs.labels[batch])
        np.testing.assert_allclose(loss.item(), ce.item(), atol=1e-15)

    def test_penalty_matches_independent_accumulation(self, toy_model_setup):
        params, cfg, inputs, _ = toy_model_setup
        batch = np.array([2, 5])
        logits = forward_batch(params, inputs, batch,
                               np.random.default_rng(0), training=False)
        loss = model_loss(logits, inputs.labels[batch], params)
        ce = T.cross_entropy(Tensor(logits.values), inputs.labels[batch]).item()
        penalty = sum(
            float(np.sum(np.square(t.values))) for t in params.l2_tensors()
        )
        np.testing.assert_allclose(
            loss.item(), ce + 0.5 * cfg.lambda_l2 * penalty, atol=1e-10
        )


    def test_loss_and_gradients_match_the_add_chain_to_the_bit(self, toy_model_setup):
        params, cfg, inputs, _ = toy_model_setup
        batch = np.array([1, 4, 8])

        def chain_loss(logits, targets, params):
            ce = T.cross_entropy(logits, targets)
            return T.add(ce, scale(l2_chain_oracle(params.l2_tensors()),
                                   0.5 * params.config.lambda_l2))

        runs = []
        for loss_fn in (model_loss, chain_loss):
            params.zero_grads()
            tape = Tape()
            with recording(tape):
                logits = forward_batch(params, inputs, batch,
                                       np.random.default_rng(0), training=False)
                loss = loss_fn(logits, inputs.labels[batch], params)
            tape.backward(loss)
            runs.append((loss.item(), params.grad.copy()))
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])


def grads_after_backward(params, inputs, batch):
    params.zero_grads()
    tape = Tape()
    with recording(tape):
        logits = forward_batch(params, inputs, batch,
                               np.random.default_rng(0), training=False)
        loss = model_loss(logits, inputs.labels[batch], params)
    tape.backward(loss)
    return {name: t.grad.copy() for name, t in params.items()}


class TestForwardFull:
    def test_same_inputs_bit_identical(self, toy_model_setup):
        params, cfg, inputs, _ = toy_model_setup
        batch = np.arange(9)
        a = forward_batch(params, inputs, batch, np.random.default_rng(9), False)
        b = forward_batch(params, inputs, batch, np.random.default_rng(9), False)
        assert np.array_equal(a.values, b.values)

    def test_training_mode_reproducible_under_same_stream(self, toy_model_setup):
        _, _, inputs, _ = toy_model_setup
        params = fresh_params(small_config(dropout_rate=0.5), inputs, 123)
        batch = np.arange(4)
        a = forward_batch(params, inputs, batch, np.random.default_rng(3), True)
        b = forward_batch(params, inputs, batch, np.random.default_rng(3), True)
        c = forward_batch(params, inputs, batch, np.random.default_rng(4), True)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)  # dropout draws from the stream

    def test_batch_permutation_equivariance(self, toy_model_setup):
        params, cfg, inputs, _ = toy_model_setup
        batch = np.array([0, 2, 5, 8])
        perm = np.array([2, 0, 3, 1])
        straight = forward_batch(params, inputs, batch,
                                 np.random.default_rng(0), False).values
        permuted = forward_batch(params, inputs, batch[perm],
                                 np.random.default_rng(0), False).values
        np.testing.assert_array_equal(straight[perm], permuted)

    def test_local_path_gradients_vanish_under_local_ablation(self, toy_model_setup):
        params, cfg, inputs, _ = toy_model_setup
        batch = np.array([0, 3, 6])
        full = grads_after_backward(params, inputs, batch)
        local_names = [n for n in params.tensors
                       if n.startswith(("gcn_local", "time", "state", "loc", "attn"))]
        assert any(np.any(full[n] != 0) for n in local_names)

        cfg_abl = small_config(ablation="tul-l")
        params_abl = fresh_params(cfg_abl, inputs, 123)
        ablated = grads_after_backward(params_abl, inputs, batch)
        for name in local_names:
            np.testing.assert_array_equal(ablated[name], 0.0)
        assert np.any(ablated["link_w"] != 0)
        for i in range(cfg.gcn_layers):
            assert np.any(ablated[f"gcn_global_{i}"] != 0)

    def test_variant_parameter_counts_match_closed_form(self, toy_model_setup):
        params, cfg, inputs, _ = toy_model_setup
        d, L, H, tv = cfg.embed_dim, cfg.gcn_layers, cfg.heads, cfg.time_vocab
        n_rows, n_users = inputs.m_local.shape[0], 3
        gcn = n_rows * d + (L - 1) * d * d
        time_state = tv * d + d + 9 * d + d
        loc = 3 * d * d + d
        attn = cfg.attn_layers * (3 * d * d + d * d + 3 * d)
        link = n_users * 2 * d + n_users
        expected_full = 2 * gcn + time_state + loc + attn + link

        def active_count(p):
            return sum(p[name].values.size for name in p.active_names())

        assert active_count(params) == expected_full

        variants = {
            "tul-l": expected_full - gcn - time_state - loc - attn,
            "tul-g": expected_full - gcn,
            "tul-sa": expected_full - attn,
            "tul-ea": expected_full,
            "tul-ts": expected_full - time_state,
        }
        assert set(variants) == set(ABLATIONS)
        for name, count in variants.items():
            variant = fresh_params(small_config(ablation=name), inputs, 0)
            assert active_count(variant) == count, name

    def test_full_model_gradient_spot_check(self, toy_model_setup):
        """Finite differences on representative parameters of every path."""
        params, cfg, inputs, _ = toy_model_setup
        batch = np.arange(9)
        targets = inputs.labels[batch]

        for name in ("gcn_local_1", "gcn_global_0", "attn0_q", "link_w", "time_b"):
            original = params[name]

            def f(t, name=name):
                params.tensors[name] = t
                try:
                    logits = forward_batch(params, inputs, batch,
                                           np.random.default_rng(0), training=False)
                    return model_loss(logits, targets, params)
                finally:
                    params.tensors[name] = original

            probe = Tensor(original.values.copy())
            report = finite_difference_check(f, probe, tolerance=1e-4)
            assert report.passed, (name, report)


def ragged_sequences(repeats=1):
    """Three users, 4 * repeats sub-trajectories each, of 1 to 6 points."""
    rng = np.random.default_rng(5)
    sequences = []
    for u in range(3):
        for j, m in enumerate(((1, 6, 3, 2) if u != 1 else (4, 1, 5, 6)) * repeats):
            sequences.append(make_sequence(
                f"u{u}", j, [int(g) for g in (3 * u + rng.integers(0, 4, size=m)) % 9],
                [int(rng.integers(0, 9)) for _ in range(m)],
                [int(rng.integers(0, 4)) for _ in range(m)],
            ))
    return sequences


def logits_and_grads(forward, params, inputs, batch):
    params.zero_grads()
    tape = Tape()
    with recording(tape):
        logits = forward(params, inputs, batch, np.random.default_rng(0), False)
        loss = model_loss(logits, inputs.labels[batch], params)
    tape.backward(loss)
    return logits.values, {name: t.grad.copy() for name, t in params.items()}


def max_rel(a, b):
    scale = np.max(np.abs(b))
    return 0.0 if scale == 0.0 else float(np.max(np.abs(a - b)) / scale)


class TestBatchedMatchesPerTrajectoryOracle:
    @pytest.mark.parametrize("ablation", VARIANTS, ids=["full", *ABLATIONS])
    # repeats=16 makes a roster of 192 whose sparsemax supports outgrow the
    # first selection width, so the widening runs inside the check.
    @pytest.mark.parametrize("dims", [dict(), dict(embed_dim=16, heads=4, attn_layers=3),
                                      dict(repeats=16)])
    def test_logits_and_every_gradient(self, ablation, dims, monkeypatch):
        dims = dict(dims)
        repeats = dims.pop("repeats", 1)
        cfg = small_config(**dims, ablation=ablation)
        inputs, _ = inputs_from_sequences(ragged_sequences(repeats), 9)
        assert len(set(inputs.lengths)) > 3
        params = make_params(cfg, seed=1)
        supports = [0]
        sparsemax = T.sparsemax

        def counting_sparsemax(x, counts=None):
            out = sparsemax(x, counts)
            supports.append(np.count_nonzero(out.values, axis=-1).max())
            return out
        monkeypatch.setattr(T, "sparsemax", counting_sparsemax)
        batch = np.array([0, 3, 5, 7, 11, 2, 4])
        logits, grads = logits_and_grads(forward_batch, params, inputs, batch)
        ref_logits, ref_grads = logits_and_grads(per_trajectory_logits_oracle,
                                                 params, inputs, batch)
        assert max_rel(logits, ref_logits) <= 1e-12
        for name in params.tensors:
            assert max_rel(grads[name], ref_grads[name]) <= 1e-12, name
        assert any(np.any(g != 0) for g in grads.values())
        global_sparsemax = ablation not in ("tul-g", "tul-ea")
        assert (max(supports) > T.SPARSEMAX_WIDTH) == (repeats > 1 and global_sparsemax)

    def test_padding_leaves_a_trajectory_row_unchanged(self):
        cfg = small_config(attn_layers=2)
        inputs, _ = inputs_from_sequences(ragged_sequences(), 9)
        params = make_params(cfg)
        short = [i for i in range(inputs.n_traj) if inputs.lengths[i] <= 2]
        longest = int(np.argmax(inputs.lengths))
        for i in short:
            alone = fused_representations(params, inputs, np.array([i]),
                                          np.random.default_rng(0), False).values[0]
            padded = fused_representations(params, inputs, np.array([longest, i, 0]),
                                           np.random.default_rng(0), False).values[1]
            np.testing.assert_allclose(padded, alone, rtol=1e-12, atol=1e-15)


class TestPackedLocalBranch:
    """The local branch on packed points against the padded one in
    tests/oracles.py, forward and every gradient within 1e-12 relative,
    with dropout off and with one fixed mask: the same generator state for
    both, whose draws cover the padded layout either way."""

    @pytest.mark.parametrize("training", [False, True], ids=["dropout-off", "fixed-mask"])
    def test_self_attention_stack(self, training):
        cfg = small_config(embed_dim=16, heads=4, attn_layers=3, dropout_rate=0.3)
        params = make_params(cfg)
        lengths = np.array([2, 6, 1, 4])
        packing = T.Packing(lengths)
        at = packing.seq, packing.pos
        real = (np.arange(6) < lengths[:, None])[..., None]
        rng = np.random.default_rng(8)
        x, c = rng.normal(size=(4, 6, 16)), rng.normal(size=(4, 6, 16))

        def run(stack, x_values, layout, coeffs):
            params.zero_grads()
            xt = Tensor(x_values, requires_grad=True)
            tape = Tape()
            with recording(tape):
                out = stack(params, xt, layout, np.random.default_rng(9), training)
                loss = matmul(reshape(out, (1, out.values.size)),
                              Tensor(coeffs.reshape(-1, 1)))
            tape.backward(loss)
            return out.values, xt.grad, {name: t.grad.copy() for name, t in params.items()}

        out, grad_x, grads = run(self_attention_stack, x[at], packing, c[at])
        ref, ref_grad_x, ref_grads = run(padded_self_attention_stack, x, lengths, c * real)
        assert max_rel(out, ref[at]) <= 1e-12
        assert max_rel(grad_x, ref_grad_x[at]) <= 1e-12
        assert not (ref_grad_x * ~real).any()
        for name in params.tensors:
            assert max_rel(grads[name], ref_grads[name]) <= 1e-12, name
        assert any(np.any(g != 0) for g in grads.values())

    @pytest.mark.parametrize("ablation", VARIANTS, ids=["full", *ABLATIONS])
    @pytest.mark.parametrize("training", [False, True], ids=["dropout-off", "fixed-mask"])
    def test_logits_and_every_gradient(self, ablation, training):
        cfg = small_config(embed_dim=16, heads=4, attn_layers=2, dropout_rate=0.3,
                           ablation=ablation)
        inputs, _ = inputs_from_sequences(ragged_sequences(), 9)
        params = make_params(cfg, seed=2)
        batch = np.array([0, 3, 5, 7, 11, 2, 4])

        def linked(fused):
            def forward(params, inputs, batch, rng, _):
                stacked = fused(params, inputs, batch, np.random.default_rng(7), training)
                return T.matmul(stacked, T.transpose(params["link_w"]), params["link_b"])
            return forward

        logits, grads = logits_and_grads(linked(fused_representations), params, inputs, batch)
        ref_logits, ref_grads = logits_and_grads(linked(padded_fused_representations),
                                                 params, inputs, batch)
        assert max_rel(logits, ref_logits) <= 1e-12
        for name in params.tensors:
            assert max_rel(grads[name], ref_grads[name]) <= 1e-12, name

    def test_no_padded_row_reaches_a_dense_product(self, monkeypatch):
        """A taped training step on a batch of mixed lengths: each per-point
        product of T.matmul and T.masked_attention runs over one row per
        point, and the linking layer over one row per trajectory."""
        rows = []
        for name in ("matmul", "masked_attention"):
            def recorded(x, *args, _name=name, _original=getattr(T, name)):
                rows.append((_name, math.prod(x.shape[:-1])))
                return _original(x, *args)
            monkeypatch.setattr(T, name, recorded)
        cfg = small_config(attn_layers=2, dropout_rate=0.5)
        inputs, _ = inputs_from_sequences(ragged_sequences(), 9)
        params = make_params(cfg)
        batch = np.array([0, 1, 2, 3, 6])
        points = int(inputs.lengths[batch].sum())
        assert points < len(batch) * inputs.lengths[batch].max()
        tape = Tape()
        with recording(tape):
            logits = forward_batch(params, inputs, batch, np.random.default_rng(0), True)
            loss = model_loss(logits, inputs.labels[batch], params)
        tape.backward(loss)
        assert rows == ([("matmul", points)]
                        + [("masked_attention", points), ("matmul", points)] * 2
                        + [("matmul", len(batch))])


# ragged_sequences on odd cells: cells 0, 2, ..., 18 and 19-24 go unvisited.
SPARSE_BBOX = 25


class TestVisitedGridRows:
    """Only visited grids get first-layer GCN rows; the bounding-box layout
    in tests/oracles.py is the reference."""

    def _both(self):
        sequences, local, global_g, _ = graphs_from_sequences(on_odd_cells(ragged_sequences()),
                                                              SPARSE_BBOX)
        return (build_model_inputs(sequences, local, global_g),
                bounding_box_inputs_oracle(sequences, local, global_g), sequences, local.cells)

    def test_inputs_keep_visited_rows(self):
        cfg = small_config()
        inputs, full, sequences, rows = self._both()
        assert rows.tolist() == sorted({g for s in sequences for g in s.grid})
        assert rows[0] > 0 and len(rows) < SPARSE_BBOX
        for i, s in enumerate(sequences):
            lo = inputs.starts[i]
            assert rows[inputs.grid_idx[lo : lo + len(s)]].tolist() == s.grid
        assert len(inputs.grid_idx) == inputs.lengths.sum()
        np.testing.assert_array_equal(inputs.m_local.toarray(),
                                      full.m_local.toarray()[np.ix_(rows, rows)])
        _, _, classes = twin_quotient(full.m_global, full.x_global)
        first_members = np.unique(classes, return_index=True)[1]
        np.testing.assert_array_equal(inputs.x_global.toarray(),
                                      full.x_global.toarray()[np.ix_(first_members, rows)])
        # What makes the dropped rows dead: isolated self-loop nodes of the
        # local graph, all-zero feature columns of the global one.
        dropped = np.setdiff1d(np.arange(SPARSE_BBOX), rows)
        m_full = full.m_local.toarray()
        np.testing.assert_array_equal(m_full[dropped][:, dropped], np.eye(len(dropped)))
        assert not m_full[np.ix_(dropped, rows)].any()
        assert not full.x_global.toarray()[:, dropped].any()
        params = make_params(cfg, n_grids=SPARSE_BBOX, grid_rows=rows)
        for branch in ("local", "global"):
            assert params[f"gcn_{branch}_0"].shape == (len(rows), cfg.embed_dim)

    @pytest.mark.parametrize("ablation", VARIANTS, ids=["full", *ABLATIONS])
    def test_matches_bounding_box_layout(self, ablation):
        cfg = small_config(ablation=ablation)
        inputs, full, _, rows = self._both()
        params = make_params(cfg, n_grids=SPARSE_BBOX, grid_rows=rows, seed=7)
        oracle = bounding_box_params_oracle(cfg, SPARSE_BBOX, inputs.n_users,
                                            seeded_rng(7, "init"))
        reference = bounding_box_initial_values(cfg, SPARSE_BBOX, inputs.n_users,
                                                seeded_rng(7, "init"))
        assert list(params.tensors) == list(reference)
        first = {"gcn_local_0", "gcn_global_0"}
        for name, t in params.items():
            expected = reference[name][rows] if name in first else reference[name]
            np.testing.assert_array_equal(t.values, expected, err_msg=name)

        batch = np.array([0, 3, 5, 7, 11, 2, 4])
        logits, grads = logits_and_grads(forward_batch, params, inputs, batch)
        ref_logits, ref_grads = logits_and_grads(forward_batch, oracle, full, batch)
        assert max_rel(logits, ref_logits) <= 1e-12
        for name in params.tensors:
            ref = ref_grads[name][rows] if name in first else ref_grads[name]
            assert max_rel(grads[name], ref) <= 1e-12, name

        dropped = np.setdiff1d(np.arange(SPARSE_BBOX), rows)
        active = oracle.active_names()
        for name in first:
            w = oracle[name].values[dropped]
            l2_only = cfg.lambda_l2 * w if name in active else np.zeros_like(w)
            np.testing.assert_array_equal(ref_grads[name][dropped], l2_only, err_msg=name)


class TestFirstLayerDraw:
    """The first GCN layers draw only their visited rows of a bounding-box
    Xavier matrix, skipping the others with ``bit_generator.advance``."""

    def test_parameters_draw_from_pcg64(self):
        """Each value of the skipped rows is one 64-bit output of PCG64;
        another bit generator would need its own proof."""
        assert type(seeded_rng(7, "init").bit_generator) is np.random.PCG64

    @pytest.mark.parametrize("kept", [
        [], [0], [39], [0, 1, 2], [37, 38, 39], [3, 4, 9, 20, 21, 22, 39], list(range(40)),
        sorted(np.random.default_rng(4).choice(40, 17, replace=False).tolist())])
    def test_rows_and_stream_equal_the_whole_draw(self, kept):
        kept = np.array(kept, dtype=np.int64)
        whole, visited = seeded_rng(7, "init"), seeded_rng(7, "init")
        expected = _xavier(whole, 40, 8)[kept]
        got = _xavier_rows(visited, 40, 8, kept)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert visited.bit_generator.state == whole.bit_generator.state
        assert visited.random(16).tobytes() == whole.random(16).tobytes()

    def test_huge_box_draws_only_its_visited_rows(self):
        """A box of 10**15 cells: the whole draw could not be held, and the
        stream still ends where it would."""
        rng, ref = seeded_rng(7, "init"), seeded_rng(7, "init")
        got = _xavier_rows(rng, 10**15, 8, np.array([5, 10**14]))
        limit = np.sqrt(6.0 / (10**15 + 8))
        ref.bit_generator.advance(5 * 8)
        assert got[0].tobytes() == ref.uniform(-limit, limit, 8).tobytes()
        ref.bit_generator.advance((10**14 - 6) * 8)
        assert got[1].tobytes() == ref.uniform(-limit, limit, 8).tobytes()
        ref.bit_generator.advance((10**15 - 10**14 - 1) * 8)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestBuildModelInputs:
    @settings(max_examples=12, deadline=None)
    @given(n_users=st.integers(2, 10), seed=st.integers(0, 10_000))
    def test_trajectory_classes_are_a_prefix(self, n_users, seed):
        """Classes are numbered by first member and trajectories are the
        first nodes, so the trajectory classes are exactly [0, K), each
        holding at least one trajectory."""
        with tempfile.TemporaryDirectory() as tmp:
            columns, local, global_g = checkin_graphs(Path(tmp), n_users, seed)
        _, _, classes = twin_quotient(symmetric_normalize(global_g.adjacency),
                                      global_g.features.astype(float).tocsr())
        n_traj = len(global_g.traj_ids)
        k = len(np.unique(classes[:n_traj]))
        np.testing.assert_array_equal(np.unique(classes[:n_traj]), np.arange(k))
        inputs = build_model_inputs(columns, local, global_g)
        np.testing.assert_array_equal(inputs.traj_rows, classes[:n_traj])
        counts = inputs.class_counts
        assert counts.shape == (k,) and counts.min() >= 1 and counts.sum() == n_traj

    def test_labels_are_user_codes(self):
        sequences, local, global_g, _ = graphs_from_sequences(toy_nine_sequences(), 9)
        inputs = build_model_inputs(sequences, local, global_g)
        assert inputs.user_ids == ["u0", "u1", "u2"] == global_g.user_ids
        np.testing.assert_array_equal(inputs.labels, np.repeat(np.arange(3), 3))

    @pytest.mark.parametrize("user_ids", [["u0", "u1"], ["u0", "u2", "u1"],
                                          ["u0", "u1", "u2", "u3"]],
                             ids=["missing", "reordered", "extra"])
    def test_other_user_roster_rejected(self, user_ids):
        sequences, local, global_g, _ = graphs_from_sequences(toy_nine_sequences(), 9)
        global_g.user_ids = user_ids
        with pytest.raises(ValueError, match="user roster"):
            build_model_inputs(sequences, local, global_g)


SOURCES = {"grid_map.json": "0" * 64, "sequences.jsonl": "1" * 64}


@pytest.fixture
def saved_checkpoint(toy_model_setup, tmp_path):
    """The toy model and inputs, saved; and the path."""
    params, _, inputs, _ = toy_model_setup
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(params, inputs, SOURCES, path)
    return params, inputs, path


class TestCheckpoint:
    def test_round_trip_bit_exact(self, saved_checkpoint):
        params, inputs, path = saved_checkpoint
        loaded, loaded_inputs, sources = load_checkpoint(path)
        assert loaded.config == params.config and sources == SOURCES
        assert loaded.values.tobytes() == params.values.tobytes()
        assert [(n, t.values.shape) for n, t in loaded.items()] == \
            [(n, t.values.shape) for n, t in params.items()]
        assert all(np.shares_memory(t.values, loaded.values) for _, t in loaded.items())
        for f in fields(ModelInputs):
            got, expected = getattr(loaded_inputs, f.name), getattr(inputs, f.name)
            if isinstance(expected, np.ndarray):
                assert got.dtype == expected.dtype and np.array_equal(got, expected), f.name
            elif hasattr(expected, "tocsr"):
                assert (got != expected).nnz == 0 and got.shape == expected.shape, f.name
            else:
                assert got == expected, f.name

    def test_layout(self, saved_checkpoint):
        """The magic line, the sha256 of the rest, a sorted-key JSON header
        holding the model settings, the sources and the ids and no fact the
        records or the settings give, then the parameter arena as the first
        .npy record, then the model inputs and no split."""
        params, inputs, path = saved_checkpoint
        data = path.read_bytes()
        magic, checksum, rest = data.split(b"\n", 2)
        assert magic == b"TLNKCKP5" and checksum == hashlib.sha256(rest).hexdigest().encode()
        line = rest.split(b"\n", 1)[0]
        header = json.loads(line)
        assert line == json.dumps(header, sort_keys=True).encode()
        assert header == {"model": asdict(params.config), "sources": SOURCES,
                          "traj_ids": inputs.traj_ids, "user_ids": inputs.user_ids}
        records = checkpoint_parts(data)[2]
        assert records[0].tobytes() == params.values.tobytes()
        assert len(records) == 1 + 3 * 3 + 6

    def test_no_record_is_sized_by_the_longest_sequence(self, tmp_path):
        """One 10,000-point trajectory among one-point ones: no input array
        and no checkpoint record holds more entries than there are points or
        trajectories."""
        sequences = [make_sequence("u0", 0, [0, 1, 2, 3] * 2500)]
        sequences += [make_sequence(f"u{u}", j, [4 + 3 * u + j])
                      for u in range(5) for j in range(1, 4)]
        inputs, _ = inputs_from_sequences(sequences, 20)
        bound = max(inputs.lengths.sum(), inputs.n_traj)
        assert bound == 10_015
        for f in fields(ModelInputs):
            value = getattr(inputs, f.name)
            parts = (value.data, value.indices, value.indptr) if sp.issparse(value) else (value,)
            assert max(map(np.size, parts)) <= bound, f.name
        params = fresh_params(small_config(), inputs, 1)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(params, inputs, SOURCES, path)
        assert max(record.size for record in checkpoint_parts(path.read_bytes())[2]) <= bound
        assert load_checkpoint(path)[1].lengths.max() == 10_000

    def test_rewrite_is_byte_identical(self, saved_checkpoint, tmp_path):
        _, _, path = saved_checkpoint
        params, inputs, sources = load_checkpoint(path)
        save_checkpoint(params, inputs, sources, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_cut_anywhere_is_refused(self, saved_checkpoint):
        _, _, path = saved_checkpoint
        data = path.read_bytes()
        for cut in [*range(0, 200), *range(200, len(data), 97)]:
            path.write_bytes(data[:cut])
            with pytest.raises(DataError, match=r"checkpoint\.bin.*'train'"):
                load_checkpoint(path)

    @pytest.mark.parametrize("line", [b"[1, 2]", b"{'model': {}}", b"\xff\xfe", b""])
    def test_header_that_is_no_json_object(self, saved_checkpoint, line):
        _, _, path = saved_checkpoint
        magic, _, rest = path.read_bytes().split(b"\n", 2)
        body = line + b"\n" + rest.split(b"\n", 1)[1]
        path.write_bytes(b"%s\n%s\n%s" % (magic, hashlib.sha256(body).hexdigest().encode(), body))
        with pytest.raises(DataError, match=r"checkpoint\.bin.*'train'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda header, records: header.pop("traj_ids"),
        lambda header, records: header.update(sources=[1, 2]),
        lambda header, records: records.__setitem__(RECORD["m_local.indptr"],
                                                    records[RECORD["m_local.indptr"]][:0]),
        lambda header, records: records[RECORD["lengths"]].__setitem__(0, 10 ** 12),
        lambda header, records: header.update(traj_ids=[]),
        lambda header, records: records.pop(),
        lambda header, records: records.__setitem__(0, records[0].astype(np.float32)),
        lambda header, records: records.__setitem__(
            3, npy_record(records[3].astype(object), records[3].shape)),
        lambda header, records: records.__setitem__(RECORD["grid_idx"], npy_record(
            records[RECORD["grid_idx"]], records[RECORD["grid_idx"]].shape, fortran_order=True)),
        lambda header, records: records.__setitem__(
            RECORD["labels"], records[RECORD["labels"]].astype(np.float64)),
        lambda header, records: records[RECORD["times"]].__setitem__(0, np.nan),
        lambda header, records: records.__setitem__(RECORD["times"],
                                                    records[RECORD["times"]][:-1]),
        lambda header, records: records[RECORD["m_local.indices"]].__setitem__(0, 10 ** 6),
        lambda header, records: records[RECORD["m_global.indices"]].__setitem__(0, -1),
        lambda header, records: records[RECORD["x_global.data"]].__setitem__(0, np.inf),
        lambda header, records: records.__setitem__(
            RECORD["x_global.indptr"], np.append(records[RECORD["x_global.indptr"]],
                                                 records[RECORD["x_global.indptr"]][-1])),
        lambda header, records: records.__setitem__(RECORD["m_local.indptr"],
                                                    records[RECORD["m_local.indptr"]][:-1]),
    ], ids=["no-ids", "sources-not-a-dict", "no-shape", "longer-sequences", "no-trajectories",
            "a-record-short",
            "float32-arena", "object-record", "fortran-order", "float-labels", "nan-time",
            "a-point-short", "column-past-the-matrix", "negative-column",
            "infinite-matrix-entry", "x-global-rows-unlike-m-global", "matrix-of-other-shape"])
    def test_malformed_header_or_record(self, saved_checkpoint, edit):
        """Under a renewed checksum: the loader's own checks, not a traceback."""
        _, _, path = saved_checkpoint
        rewrite_checkpoint(path, edit)
        with pytest.raises(DataError, match=r"checkpoint\.bin.*'train'"):
            load_checkpoint(path)

