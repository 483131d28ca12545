"""Run configuration: defaults, flat key=value files, and seed streams.

Precedence is command-line flags over config file over defaults. Unknown
keys in a config file are rejected; values are checked by the stage that
reads them (see ``cli``). All randomness in a run derives from
the single ``seed`` through named sub-streams (``seeded_rng``, defined in
``train`` and re-exported here), so each pipeline stage is reproducible on
its own.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .mobility import time_window_vocab
from .model import ModelConfig
from .train import TrainConfig, seeded_rng

@dataclass
class RunConfig:
    dataset: str = ""
    output_dir: str = ""
    cell_size: float = 40.0          # meters
    tau: float = 21600.0             # sub-trajectory interval, seconds
    time_window: float = 7200.0      # time-of-day window, seconds
    embed_dim: int = ModelConfig.embed_dim
    gcn_layers: int = ModelConfig.gcn_layers
    attn_layers: int = ModelConfig.attn_layers
    heads: int = ModelConfig.heads
    lambda_l2: float = ModelConfig.lambda_l2
    dropout: float = ModelConfig.dropout_rate
    learning_rate: float = TrainConfig.learning_rate
    epochs_max: int = TrainConfig.epochs_max
    batch_size: int = TrainConfig.batch_size
    patience: int = TrainConfig.patience
    seed: int = TrainConfig.seed
    ablation: str = ModelConfig.ablation

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            embed_dim=self.embed_dim,
            gcn_layers=self.gcn_layers,
            attn_layers=self.attn_layers,
            heads=self.heads,
            lambda_l2=self.lambda_l2,
            dropout_rate=self.dropout,
            time_vocab=time_window_vocab(self.time_window),
            ablation=self.ablation,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            epochs_max=self.epochs_max,
            batch_size=self.batch_size,
            patience=self.patience,
            seed=self.seed,
        )


# Each setting's parser, which is also its type, by field name.
FIELD_TYPES = {f.name: {"int": int, "float": float, "str": str}[f.type]
               for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        return FIELD_TYPES[key](raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={raw!r}: {exc}") from None


def load_config_file(path: str | Path) -> dict:
    """Parse a flat key=value file; '#' starts a comment, unknown keys fail."""
    values: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


def resolve_config(file_path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then config file, then explicit overrides."""
    cfg = RunConfig()
    if file_path:
        for key, value in load_config_file(file_path).items():
            setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    return cfg
