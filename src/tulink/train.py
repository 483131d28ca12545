"""Adam training loop with validation-accuracy early stopping."""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import metrics as M
from . import tensor as T
from .errors import ConfigError, TrainingError
from .mobility import DatasetSplit
from .model import (ModelConfig, ModelInputs, ModelParams, encode_graphs, forward_batch,
                    model_loss)

# Rows per evaluation forward pass. Fewer, larger blocks pay the fixed cost
# of each pass less often, but each (rows, classes) global-attention
# temporary grows with it: at most 0.7 MB at 64 rows over the 1,436
# trajectory classes of seed-1 checkin-80u, which still fits in cache where
# several hundred rows do not.
EVAL_CHUNK = 64
# Adam (Kingma & Ba, 2015) decay rates and denominator floor.
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
# Arena entries per Adam update block.
ADAM_BLOCK = 1 << 15


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs_max: int = 80
    batch_size: int = 16
    patience: int = 10
    seed: int = 42

    def validate(self) -> None:
        if not 1e-4 <= self.learning_rate <= 1e-2:
            raise ConfigError(
                f"learning_rate {self.learning_rate} outside the search range [1e-4, 1e-2]"
            )
        for name in ("patience", "batch_size", "epochs_max"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")


def seeded_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent, reproducible generator for one named randomness stream."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(stream.encode("utf-8"))])
    )


class AdamState:
    """First/second moment accumulators, flat like the parameter arena."""

    def __init__(self, params: ModelParams):
        self.step = 0
        self.m = np.zeros_like(params.values)
        self.v = np.zeros_like(params.values)


def adam_step(params: ModelParams, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update from the accumulated gradients.

    Runs in place over the arena, ADAM_BLOCK entries at a time, so each
    temporary is one block.
    A parameter whose gradient stayed zero keeps its exact bit pattern: its
    moments remain zero and the update is 0 / (0 + eps).
    """
    state.step += 1
    if not np.isfinite(params.grad).all():
        name = next(n for n, t in params.items() if not np.isfinite(t.grad).all())
        raise TrainingError(f"non-finite gradient in parameter {name!r} at step {state.step}")
    c1 = 1.0 - BETA1 ** state.step
    c2 = 1.0 - BETA2 ** state.step
    for lo in range(0, params.values.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        g, m, v = params.grad[block], state.m[block], state.v[block]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        params.values[block] -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


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


def evaluate_rows(params: ModelParams, inputs: ModelInputs, indices: np.ndarray,
                  forward) -> np.ndarray:
    """Evaluation-mode ``forward`` rows (dropout off, no tape) for roster
    indices, in request order, with the GCNs encoded once.

    The rows run in blocks of EVAL_CHUNK in order of sequence length (a
    stable sort), so most blocks hold sequences of one length, whose
    attention needs no padding. A block's point count (its row count for
    the linking layer) picks the BLAS kernels, so a row may differ from a
    lone forward of it in the last bits.
    """
    rng = np.random.default_rng(0)  # never drawn in evaluation mode
    graphs = encode_graphs(params, inputs)
    order = np.argsort(inputs.lengths[indices], kind="stable")
    blocks = np.concatenate([
        forward(params, inputs, indices[order[lo : lo + EVAL_CHUNK]], rng, False, graphs).values
        for lo in range(0, len(order), EVAL_CHUNK)
    ], axis=0)
    rows = np.empty_like(blocks)
    rows[order] = blocks
    return rows


def predict_logits(params: ModelParams, inputs: ModelInputs, indices: np.ndarray) -> np.ndarray:
    """Evaluation-mode logits for roster indices."""
    return evaluate_rows(params, inputs, indices, forward_batch)


def evaluate_on_split(params: ModelParams, inputs: ModelInputs, indices: np.ndarray,
                      ks: Sequence[int] = (1, 5)) -> M.MetricsReport:
    """Metrics of the linking predictions for roster indices."""
    logits = predict_logits(params, inputs, indices)
    ks = [min(k, inputs.n_users) for k in ks]
    return M.compute_report(logits, inputs.labels[indices], ks=sorted(set(ks)))


def train(
    inputs: ModelInputs,
    split: DatasetSplit,
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> TrainResult:
    """Optimize from a seeded initialization, keeping the best-validation state.

    Stops when validation acc@1 has not improved for ``patience``
    consecutive epochs, or at ``epochs_max``. Randomness (parameter init,
    epoch shuffling, dropout) flows from the run seed through named
    sub-streams so identical seeds give identical histories.
    """
    model_config.validate()
    train_config.validate()
    if not len(split.train) or not len(split.validation):
        raise ValueError("training requires non-empty train and validation splits")

    params = ModelParams.for_inputs(model_config, inputs, seeded_rng(train_config.seed, "init"))
    rng_shuffle = seeded_rng(train_config.seed, "shuffle")
    rng_dropout = seeded_rng(train_config.seed, "dropout")

    state = AdamState(params)
    result = TrainResult(params=params)
    best_values = params.values.copy()
    epochs_without_improvement = 0

    for epoch in range(1, train_config.epochs_max + 1):
        t0 = time.perf_counter()
        order = rng_shuffle.permutation(split.train)
        losses = []
        for lo in range(0, len(order), train_config.batch_size):
            batch = order[lo : lo + train_config.batch_size]
            params.zero_grads()
            tape = T.Tape()
            with T.recording(tape):
                logits = forward_batch(params, inputs, batch, rng_dropout, training=True)
                loss = model_loss(logits, inputs.labels[batch], params)
            if not math.isfinite(loss.item()):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            tape.backward(loss)
            adam_step(params, state, train_config)
            losses.append(loss.item())

        val_logits = predict_logits(params, inputs, split.validation)
        val_ranks = M.true_ranks(val_logits, inputs.labels[split.validation])
        val_acc = float(np.count_nonzero(val_ranks == 0) / len(val_ranks))
        result.history.append(
            EpochStats(epoch, float(np.mean(losses)), val_acc, time.perf_counter() - t0)
        )
        if result.best_epoch == 0 or val_acc > result.best_val_acc1:
            best_values = params.values.copy()
            result.best_epoch = epoch
            result.best_val_acc1 = val_acc
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= train_config.patience:
                break

    params.values[:] = best_values
    return result


def save_history(history: Sequence[EpochStats], path: str | Path) -> None:
    """Tab-separated epoch log: index, mean train loss, val ACC@1, seconds."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in history:
            fh.write(
                f"{row.epoch}\t{row.mean_train_loss!r}\t{row.val_acc1!r}"
                f"\t{row.seconds:.3f}\n"
            )
