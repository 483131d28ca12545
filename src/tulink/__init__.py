"""Trajectory-user linking with hierarchical graph and attention encoders."""

from .config import RunConfig, seeded_rng
from .errors import ConfigError, DataError, TrainingError
from .graphs import (
    GlobalSpatialGraph,
    LocalSpatialGraph,
    build_global_graph,
    build_grid_incidence,
    build_local_graph,
    symmetric_normalize,
)
from .metrics import MetricsReport, compute_report
from .mobility import (
    DatasetSplit,
    GridMap,
    GridSequence,
    PointColumns,
    SequenceColumns,
    build_grid_map,
    build_grid_sequences,
    chronological_split,
    parse_dataset,
)
from .model import (
    ModelConfig,
    ModelInputs,
    ModelParams,
    build_model_inputs,
    forward_batch,
    model_loss,
    positional_encoding,
)
from .tensor import Tape, Tensor, finite_difference_check, recording
from .train import TrainConfig, TrainResult, evaluate_on_split

__version__ = "0.1.0"
