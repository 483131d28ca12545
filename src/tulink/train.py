"""Adam training loop with validation-accuracy early stopping."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import metrics as M
from . import tensor as T
from .errors import ConfigError, DataError, TrainingError
from .mobility import DatasetSplit
from .model import ModelConfig, ModelInputs, ModelParams, encode_graphs, forward_batch, model_loss

# Rows per evaluation forward pass; the (rows, n_traj) global-attention
# temporaries grow with it.
EVAL_CHUNK = 16


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs_max: int = 80
    batch_size: int = 16
    patience: int = 10
    seed: int = 42
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    early_stop_on_loss: bool = False  # default criterion is validation ACC@1

    def validate(self) -> None:
        if not 1e-4 <= self.learning_rate <= 1e-2:
            raise ConfigError(
                f"learning_rate {self.learning_rate} outside the search range [1e-4, 1e-2]"
            )
        if self.patience < 1:
            raise ConfigError(f"patience must be at least 1, got {self.patience}")
        if self.batch_size < 1 or self.epochs_max < 1:
            raise ConfigError("batch_size and epochs_max must be positive")


class AdamState:
    """First/second moment accumulators mirroring the parameter shapes."""

    def __init__(self, params: ModelParams):
        self.step = 0
        self.m = {name: np.zeros_like(t.values) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.values) for name, t in params.items()}


def adam_step(params: ModelParams, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update from the accumulated gradients.

    A parameter whose gradient stayed zero keeps its exact bit pattern: its
    moments remain zero and the update is 0 / (0 + eps).
    """
    state.step += 1
    b1, b2 = config.beta1, config.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, t in params.items():
        g = t.grad
        if not np.all(np.isfinite(g)):
            raise TrainingError(
                f"non-finite gradient in parameter {name!r} at step {state.step}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        t.values -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.eps)


@dataclass
class EpochStats:
    epoch: int
    mean_train_loss: float
    val_acc1: float
    seconds: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_acc1: float = 0.0


def evaluate_rows(
    params: ModelParams,
    config: ModelConfig,
    inputs: ModelInputs,
    indices: np.ndarray,
    forward,
) -> np.ndarray:
    """Evaluation-mode ``forward`` rows (dropout off, no tape) for roster
    indices, in chunks of EVAL_CHUNK with the GCNs encoded once."""
    rng = np.random.default_rng(0)  # never drawn in evaluation mode
    graphs = encode_graphs(params, config, inputs)
    return np.concatenate([
        forward(params, config, inputs, indices[lo : lo + EVAL_CHUNK], rng, False, graphs).values
        for lo in range(0, len(indices), EVAL_CHUNK)
    ], axis=0)


def predict_logits(params: ModelParams, config: ModelConfig, inputs: ModelInputs,
                   indices: np.ndarray) -> np.ndarray:
    """Evaluation-mode logits for roster indices."""
    return evaluate_rows(params, config, inputs, indices, forward_batch)


def evaluate_on_split(
    params: ModelParams,
    config: ModelConfig,
    inputs: ModelInputs,
    traj_ids: Sequence[str],
    ks: Sequence[int] = (1, 5),
) -> M.MetricsReport:
    indices = inputs.indices_for(traj_ids)
    logits = predict_logits(params, config, inputs, indices)
    preds = M.build_predictions(logits, inputs.labels[indices])
    ks = [min(k, inputs.n_users) for k in ks]
    return M.compute_report(preds, ks=sorted(set(ks)))


def train(
    inputs: ModelInputs,
    split: DatasetSplit,
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> TrainResult:
    """Optimize from a seeded initialization, keeping the best-validation state.

    Stops when the validation criterion has not improved for ``patience``
    consecutive epochs, or at ``epochs_max``. Randomness (parameter init,
    epoch shuffling, dropout) flows from the run seed through named
    sub-streams so identical seeds give identical histories.
    """
    model_config.validate()
    train_config.validate()
    if not split.train or not split.validation:
        raise ValueError("training requires non-empty train and validation splits")

    from .config import seeded_rng

    params = ModelParams(
        model_config,
        n_grids=inputs.n_grids,
        grid_rows=inputs.grid_rows,
        n_users=inputs.n_users,
        max_seq_len=inputs.max_seq_len,
        rng=seeded_rng(train_config.seed, "init"),
    )
    rng_shuffle = seeded_rng(train_config.seed, "shuffle")
    rng_dropout = seeded_rng(train_config.seed, "dropout")

    train_idx = inputs.indices_for(split.train)
    val_idx = inputs.indices_for(split.validation)
    state = AdamState(params)
    result = TrainResult(params=params)
    best_values = params.values_dict()
    best_score = -math.inf
    epochs_without_improvement = 0

    for epoch in range(1, train_config.epochs_max + 1):
        t0 = time.perf_counter()
        order = rng_shuffle.permutation(train_idx)
        losses = []
        for lo in range(0, len(order), train_config.batch_size):
            batch = order[lo : lo + train_config.batch_size]
            params.zero_grads()
            tape = T.Tape()
            with T.recording(tape):
                logits = forward_batch(params, model_config, inputs, batch,
                                       rng_dropout, training=True)
                loss = model_loss(logits, inputs.labels[batch], params, model_config)
            if not math.isfinite(loss.item()):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            tape.backward(loss)
            adam_step(params, state, train_config)
            losses.append(loss.item())

        val_logits = predict_logits(params, model_config, inputs, val_idx)
        val_acc = float(np.mean(np.argmax(val_logits, axis=1) == inputs.labels[val_idx]))
        if train_config.early_stop_on_loss:
            score = -T.cross_entropy(T.Tensor(val_logits), inputs.labels[val_idx]).item()
        else:
            score = val_acc
        result.history.append(
            EpochStats(epoch, float(np.mean(losses)), val_acc, time.perf_counter() - t0)
        )
        if score > best_score:
            best_score = score
            best_values = params.values_dict()
            result.best_epoch = epoch
            result.best_val_acc1 = val_acc
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= train_config.patience:
                break

    params.load_values(best_values)
    return result


def save_history(history: Sequence[EpochStats], path: str | Path) -> None:
    """Tab-separated epoch log: index, mean train loss, val ACC@1, seconds."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in history:
            fh.write(
                f"{row.epoch}\t{row.mean_train_loss!r}\t{row.val_acc1!r}"
                f"\t{row.seconds:.3f}\n"
            )


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    T.save_tensors(path, [(name, t.values) for name, t in params.items()])


def load_checkpoint(params: ModelParams, path: str | Path) -> ModelParams:
    """Restore parameters; a checkpoint that does not fit the model raises DataError."""
    values = T.load_tensors(path)
    try:
        params.load_values(values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}; it was written by an earlier version or "
                        "different settings, rerun the 'train' stage") from None
    return params
