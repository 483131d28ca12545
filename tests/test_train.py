"""Optimizer behavior, the training loop, and its stopping rules."""

import types

import numpy as np
import pytest

from tulink.config import seeded_rng
from tulink.errors import ConfigError, TrainingError
from tulink.model import (ABLATIONS, ModelParams, build_model_inputs, forward_batch,
                          fused_representations, load_checkpoint, save_checkpoint)
from tulink.train import (
    EVAL_CHUNK,
    AdamState,
    TrainConfig,
    adam_step,
    evaluate_on_split,
    evaluate_rows,
    predict_logits,
    save_history,
    train,
)

from conftest import (fit, fresh_params, graphs_from_sequences, inputs_from_sequences,
                      make_sequence, on_odd_cells, small_config, toy_nine_sequences)
from oracles import bounding_box_inputs_oracle, evaluate_rows_oracle, per_tensor_adam_oracle


def tiny_params(seed=0):
    cfg = small_config(gcn_layers=1, attn_layers=1)
    return cfg, ModelParams.drawn(cfg, n_grids=4, grid_rows=np.arange(4), n_users=2,
                                  rng=seeded_rng(seed, "init"))


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        cfg, params = tiny_params()
        state = AdamState(params)
        tc = TrainConfig()
        before = {n: t.values.copy() for n, t in params.items()}

        # one real step to seed the moments, then a zero-gradient step
        params.zero_grads()
        params["link_w"].grad += 1.0
        adam_step(params, state, tc)
        m_after_first = state.m.copy()
        moved = {n: t.values.copy() for n, t in params.items()}
        assert not np.array_equal(moved["link_w"], before["link_w"])

        params.zero_grads()
        adam_step(params, state, tc)
        for name, t in params.items():
            if name == "link_w":
                continue  # this one has nonzero moments now
            np.testing.assert_array_equal(t.values, moved[name])
        np.testing.assert_allclose(state.m, 0.9 * m_after_first)

    def test_first_step_magnitude(self):
        """Scalar g=1: bias-corrected update is lr / (1 + eps)."""
        cfg, params = tiny_params()
        state = AdamState(params)
        tc = TrainConfig(learning_rate=1e-3)
        params.zero_grads()
        params["link_b"].grad[:] = 1.0
        before = params["link_b"].values.copy()
        adam_step(params, state, tc)
        delta = before - params["link_b"].values
        np.testing.assert_allclose(delta, 1e-3 / (1.0 + 1e-8), rtol=1e-12)

    def test_non_finite_gradient_aborts_with_name(self):
        cfg, params = tiny_params()
        state = AdamState(params)
        params.zero_grads()
        params["loc_w"].grad[0, 0] = np.nan
        with pytest.raises(TrainingError, match="loc_w"):
            adam_step(params, state, TrainConfig())

    def test_blocks_match_the_per_tensor_update_to_the_bit(self, monkeypatch):
        """Blocks of 7 entries cut through every tensor; values and moments
        still equal the per-tensor formula's bit for bit, step after step."""
        import tulink.train as train_module
        monkeypatch.setattr(train_module, "ADAM_BLOCK", 7)
        _, params = tiny_params(seed=3)
        _, reference = tiny_params(seed=3)
        state = AdamState(params)
        m = {n: np.zeros_like(t.values) for n, t in reference.items()}
        v = {n: np.zeros_like(t.values) for n, t in reference.items()}
        rng = np.random.default_rng(9)
        for step in range(1, 6):
            params.zero_grads()
            params.grad += rng.normal(size=params.grad.shape) * 10.0 ** rng.integers(-6, 3)
            params["time_b"].grad[:] = 0.0  # one tensor whose gradient stays zero
            reference.grad[:] = params.grad
            adam_step(params, state, TrainConfig(learning_rate=3e-3))
            per_tensor_adam_oracle(reference, m, v, step, 3e-3)
            np.testing.assert_array_equal(params.values, reference.values)
            np.testing.assert_array_equal(state.m, np.concatenate([a.ravel() for a in m.values()]))
            np.testing.assert_array_equal(state.v, np.concatenate([a.ravel() for a in v.values()]))

    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            cfg, params = tiny_params(seed=5)
            state = AdamState(params)
            tc = TrainConfig(learning_rate=5e-3)
            rng = np.random.default_rng(3)
            for _ in range(10):
                params.zero_grads()
                for t in params.tensors.values():
                    t.grad += rng.normal(size=t.grad.shape)
                adam_step(params, state, tc)
            results.append({n: t.values.copy() for n, t in params.items()})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])


def assert_views_arena(params):
    assert sum(t.values.size for _, t in params.items()) == params.values.size
    for name, t in params.items():
        assert np.shares_memory(t.values, params.values), name
        assert np.shares_memory(t.grad, params.grad), name


class TestParameterArena:
    def test_tensors_view_the_arena_after_init_training_and_loading(self, tmp_path):
        config, inputs, split = toy_training_setup()
        params = fresh_params(config, inputs, 0)
        assert_views_arena(params)
        result = fit(inputs, split, config,
                     TrainConfig(epochs_max=3, patience=10, batch_size=4, seed=1))
        assert_views_arena(result.params)
        save_checkpoint(result.params, inputs, {}, tmp_path / "checkpoint.bin")
        loaded = load_checkpoint(tmp_path / "checkpoint.bin")[0]
        assert_views_arena(loaded)
        assert loaded.config == config
        np.testing.assert_array_equal(loaded.values, result.params.values)

    def test_arena_of_another_size_is_refused(self):
        config, params = tiny_params()
        for size in (params.values.size - 1, params.values.size + 1):
            with pytest.raises(ValueError, match="arena"):
                ModelParams(config, np.zeros(size), n_rows=4, n_users=2)


class TestTrainConfig:
    def test_learning_rate_range_enforced(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=0.5).validate()
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=1e-5).validate()

    def test_patience_floor(self):
        with pytest.raises(ConfigError, match="patience"):
            TrainConfig(patience=0).validate()


def toy_training_setup(**cfg_overrides):
    config = small_config(**cfg_overrides)
    inputs, split = inputs_from_sequences(toy_nine_sequences(), 9)
    return config, inputs, split


class TestTrainLoop:
    def test_loss_decreases_on_separable_toy(self):
        config, inputs, split = toy_training_setup(dropout_rate=0.0)
        tc = TrainConfig(learning_rate=1e-2, epochs_max=20, patience=20,
                         batch_size=4, seed=0)
        result = fit(inputs, split, config, tc)
        assert result.history[-1].mean_train_loss < result.history[0].mean_train_loss

    def test_constant_validation_stops_after_two_epochs(self):
        """Two users with equal sequences give equal validation rows, whose
        one prediction is right for one user's half: validation acc@1 stays
        at 0.5, so with patience 1 the second epoch is the last."""
        config = small_config()
        sequences = [make_sequence(user, j, [j, j + 1, 2], [0, 1, 2], [0, 1, 2])
                     for user in ("a", "b") for j in range(3)]
        columns, local, global_g, split = graphs_from_sequences(sequences, 9)
        inputs = build_model_inputs(columns, local, global_g)
        tc = TrainConfig(epochs_max=30, patience=1, batch_size=2, seed=0)
        result = fit(inputs, split, config, tc, local)
        assert [h.val_acc1 for h in result.history] == [0.5, 0.5]
        assert result.stopped_by == "patience"

    @pytest.mark.parametrize("instance, seed, k", [("one-user", 0, 1), ("three-users", 7, 4)])
    def test_stops_at_the_first_perfect_validation(self, instance, seed, k):
        """Validation acc@1 first reaches 1.0 at epoch k, which no later epoch
        can beat: training stops there, with the parameters and history of a
        run capped at k epochs."""
        config = small_config()
        sequences = toy_nine_sequences()
        if instance == "one-user":
            sequences = [s for s in sequences if s.user_id == "u0"]
        columns, local, global_g, split = graphs_from_sequences(sequences, 9)
        inputs = build_model_inputs(columns, local, global_g)
        stopped, capped = (fit(inputs, split, config,
                               TrainConfig(learning_rate=1e-2, epochs_max=epochs,
                                           patience=epochs, batch_size=4, seed=seed), local)
                           for epochs in (80, k))
        accs = [h.val_acc1 for h in stopped.history]
        assert accs == [h.val_acc1 for h in capped.history]
        assert accs.index(1.0) == len(accs) - 1 == k - 1
        assert stopped.best_epoch == capped.best_epoch == k
        assert [h.mean_train_loss for h in stopped.history] == \
               [h.mean_train_loss for h in capped.history]
        assert np.array_equal(stopped.params.values, capped.params.values)
        assert stopped.stopped_by == "validation acc@1 1.0"

    def test_same_seed_identical_history_and_parameters(self):
        runs = []
        for _ in range(2):
            config, inputs, split = toy_training_setup(dropout_rate=0.3)
            tc = TrainConfig(epochs_max=4, patience=10, batch_size=4, seed=11)
            result = fit(inputs, split, config, tc)
            runs.append(result)
        a, b = runs
        assert [(h.epoch, h.mean_train_loss, h.val_acc1) for h in a.history] == \
               [(h.epoch, h.mean_train_loss, h.val_acc1) for h in b.history]
        for name, t in a.params.items():
            assert np.array_equal(t.values, b.params[name].values)

    def test_unreached_parameters_keep_initial_bits(self):
        """Under the local ablation the entire local branch must stay put."""
        config, inputs, split = toy_training_setup(ablation="tul-l")
        tc = TrainConfig(epochs_max=3, patience=10, batch_size=4, seed=2)
        reference = fresh_params(config, inputs, 2)
        result = train(fresh_params(config, inputs, 2), inputs, split, tc)
        active = set(result.params.active_names())
        inactive = [n for n in result.params.tensors if n not in active]
        assert inactive, "ablation should leave some parameters untouched"
        for name in inactive:
            assert np.array_equal(result.params[name].values,
                                  reference[name].values), name
        assert not np.array_equal(result.params["link_w"].values,
                                  reference["link_w"].values)

    def test_visited_rows_train_like_the_bounding_box_layout(self):
        """Training on visited-grid rows gives the bounding-box layout's
        validation history and, on the rows both hold, its parameters."""
        config = small_config(dropout_rate=0.3)
        sequences, local, global_g, split = graphs_from_sequences(
            on_odd_cells(toy_nine_sequences()), 20)
        inputs = build_model_inputs(sequences, local, global_g)
        full = bounding_box_inputs_oracle(sequences, local, global_g)
        tc = TrainConfig(learning_rate=1e-2, epochs_max=4, patience=10, batch_size=4, seed=8)
        # The reference draws a first-layer row for every bounding-box cell.
        compact, reference = fit(inputs, split, config, tc, local), fit(full, split, config, tc)
        assert [h.val_acc1 for h in compact.history] == \
               [h.val_acc1 for h in reference.history]
        assert compact.best_epoch == reference.best_epoch
        rows = local.cells
        for name, t in compact.params.items():
            ref = reference.params[name].values
            ref = ref[rows] if name in ("gcn_local_0", "gcn_global_0") else ref
            np.testing.assert_allclose(t.values, ref, rtol=1e-9, atol=1e-12, err_msg=name)

    def test_best_checkpoint_dominates_later_epochs(self):
        config, inputs, split = toy_training_setup()
        tc = TrainConfig(learning_rate=1e-2, epochs_max=10, patience=10,
                         batch_size=4, seed=4)
        result = fit(inputs, split, config, tc)
        accs = [h.val_acc1 for h in result.history]
        assert len(accs) == 10 and max(accs) < 1.0  # no epoch stops the run early
        assert result.stopped_by == "epochs_max"
        assert result.best_val_acc1 == max(accs)
        assert all(result.best_val_acc1 >= a for a in accs[result.best_epoch:])

    def test_history_is_finite(self):
        config, inputs, split = toy_training_setup()
        tc = TrainConfig(epochs_max=5, patience=10, batch_size=4, seed=6)
        result = fit(inputs, split, config, tc)
        for row in result.history:
            assert np.isfinite(row.mean_train_loss)
            assert np.isfinite(row.val_acc1)

    def test_empty_split_rejected(self):
        config, inputs, split = toy_training_setup()
        split.validation = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="non-empty"):
            fit(inputs, split, config, TrainConfig())


class TestEvaluate:
    def test_report_matches_manual_top1(self):
        config, inputs, split = toy_training_setup()
        tc = TrainConfig(learning_rate=1e-2, epochs_max=8, patience=10,
                         batch_size=4, seed=1)
        result = fit(inputs, split, config, tc)
        report = evaluate_on_split(result.params, inputs, split.test)
        logits = predict_logits(result.params, inputs, split.test)
        manual = float(np.mean(np.argmax(logits, axis=1) == inputs.labels[split.test]))
        assert report.acc_at[1] == manual

    def test_acc_at_full_user_count_is_one(self):
        config, inputs, split = toy_training_setup()
        tc = TrainConfig(epochs_max=2, patience=10, batch_size=4, seed=1)
        result = fit(inputs, split, config, tc)
        report = evaluate_on_split(result.params, inputs, split.test,
                                   ks=(1, inputs.n_users))
        assert report.acc_at[inputs.n_users] == 1.0


def mixed_length_inputs():
    """4 users' 80 sequences of 1 to 6 points over 12 grids, in no length
    order, so that sorting by length moves rows and two blocks run."""
    rng = np.random.default_rng(0)
    sequences = []
    for u in range(4):
        for j in range(20):
            m = int(rng.integers(1, 7))
            grids = [int(g) for g in rng.integers(0, 12, m)]
            sequences.append(make_sequence(f"u{u}", j, grids,
                                           [int(x) for x in rng.integers(0, 9, m)],
                                           [int(x) for x in rng.integers(0, 4, m)]))
    inputs, _ = inputs_from_sequences(sequences, 12)
    return inputs


class TestEvaluateRows:
    """Length-sorted blocks scattered back to request order agree with the
    16-row chunks in request order, whatever the request."""

    @pytest.mark.parametrize("forward", [forward_batch, fused_representations],
                             ids=["logits", "fused"])
    @pytest.mark.parametrize("ablation", ["", *ABLATIONS], ids=["full", *ABLATIONS])
    def test_blocks_match_request_order_chunks(self, forward, ablation):
        inputs = mixed_length_inputs()
        n = inputs.n_traj
        assert n > EVAL_CHUNK + 1 and len(set(inputs.lengths.tolist())) > 1
        config = small_config(ablation=ablation, dropout_rate=0.5)
        params = fresh_params(config, inputs, 3)
        rng = np.random.default_rng(1)
        shuffled = rng.permutation(n)
        shuffled[-1] = shuffled[0]
        requests = {
            "roster": np.arange(n),
            "reversed": np.arange(n)[::-1].copy(),
            "shuffled with a repeat": shuffled,
            "single": np.array([int(np.argmax(inputs.lengths))]),
            "crossing a block": rng.permutation(n)[: EVAL_CHUNK + 1],
        }
        for name, indices in requests.items():
            got = evaluate_rows(params, inputs, indices, forward)
            want = evaluate_rows_oracle(params, inputs, indices, forward)
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


class TestHistoryFile:
    def test_four_tab_separated_columns(self, tmp_path):
        config, inputs, split = toy_training_setup()
        tc = TrainConfig(epochs_max=2, patience=10, batch_size=4, seed=1)
        result = fit(inputs, split, config, tc)
        path = tmp_path / "history.tsv"
        save_history(result.history, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(result.history)
        for line, row in zip(lines, result.history):
            epoch, loss, acc, secs = line.split("\t")
            assert int(epoch) == row.epoch
            assert float(loss) == row.mean_train_loss
            assert float(acc) == row.val_acc1
            assert float(secs) >= 0.0


def test_tulink_train_is_the_submodule():
    import tulink
    import tulink.train

    assert isinstance(tulink.train, types.ModuleType)
    assert tulink.train.train is train
