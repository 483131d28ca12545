"""Command-line pipeline: preprocess, build-graphs, train, evaluate, embed.

Every command takes ``--config PATH`` (flat key=value file) plus flag
overrides; flags win over the file, the file wins over defaults. Every
command accepts every setting, and each checks only the settings it reads,
before it reads any input: preprocess reads the dataset, the cell size and
tau; build-graphs reads only the output directory; train reads the model
and training settings, the time-of-day window length included; evaluate
and embed read only the output directory, and take the model, windows
included, from the header of the checkpoint. Stage outputs land under the
configured output directory and later stages refuse to run until their
inputs exist. Train saves the model with the inputs it built and the sha256
of each file it built them from, all in one checkpoint; evaluate and embed
load it while every file still has those bytes, and refuse to run on files
changed since. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import graphs as G
from . import metrics as M
from . import mobility as mob
from .config import FIELD_TYPES, RunConfig, resolve_config
from .errors import ConfigError, DataError, TrainingError
from .model import build_model_inputs, fused_representations, load_checkpoint, save_checkpoint
from .train import evaluate_on_split, evaluate_rows, save_history, train


@dataclass
class StagePaths:
    root: Path

    def __post_init__(self):
        self.root = Path(self.root)
        self.grid_map = self.root / "grid_map.json"
        self.sequences = self.root / "sequences.jsonl"
        self.splits = self.root / "splits.json"
        self.manifest = self.root / "manifest.json"
        self.local_graph = self.root / "local_graph.txt"
        self.global_graph = self.root / "global_graph.txt"
        self.checkpoint = self.root / "checkpoint.bin"
        self.history = self.root / "history.tsv"
        self.metrics = self.root / "metrics.txt"
        self.embeddings = self.root / "embeddings.tsv"


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise DataError(f"missing artifact {path.name}; run the {stage!r} stage first")
    if not path.is_file():
        raise DataError(f"artifact {path.name} is not a file; rerun the {stage!r} stage")
    return path


def _check_ids(paths: StagePaths, sequences, field: str, limit: int) -> None:
    """Every ``field`` id of the sequences is in [0, limit), or a DataError
    naming the first that is not."""
    ids = getattr(sequences, field)
    if ids.size and (ids.min() < 0 or ids.max() >= limit):
        bad = int(ids[(ids < 0) | (ids >= limit)][0])
        raise DataError(f"{paths.sequences.name} holds {field} id {bad!r}, not in "
                        f"[0, {limit}); rerun the 'preprocess' stage")


def _load_preprocessed(paths: StagePaths):
    _require(paths.grid_map, "preprocess")
    _require(paths.sequences, "preprocess")
    _require(paths.splits, "preprocess")
    gm = mob.load_grid_map(paths.grid_map)
    sequences = mob.load_sequences(paths.sequences)
    saved = mob.load_split(paths.splits)
    _check_ids(paths, sequences, "grid", gm.n_grids)
    split = mob.chronological_split(sequences.user)
    if saved != split.named(sequences.traj_ids):
        raise DataError(f"{paths.splits.name} is not the chronological split of "
                        f"{paths.sequences.name}; rerun the 'preprocess' stage")
    return gm, sequences, split


def run_preprocess(cfg: RunConfig) -> dict:
    if not cfg.dataset:
        raise ConfigError("no dataset path configured")
    for name in ("cell_size", "tau"):
        value = getattr(cfg, name)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and positive, got {value}")
    paths = StagePaths(cfg.output_dir or ".")
    try:
        paths.root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {paths.root} "
                          f"({exc.strerror or exc})") from None

    points, report = mob.parse_dataset(cfg.dataset)
    gm = mob.build_grid_map(points.lon, points.lat, cfg.cell_size)
    sequences = mob.build_grid_sequences(points, gm, cfg.tau)
    split = mob.chronological_split(sequences.user)

    manifest = {
        "users": len(points.roster),
        "user_roster": points.roster,
        "trajectories": len(sequences),
        "points": len(points.t),
        "grids": gm.n_grids,
        "split_sizes": {
            "train": len(split.train),
            "validation": len(split.validation),
            "test": len(split.test),
        },
        "parse_lines": report.data_lines,
        "parse_failures": report.failed,
    }
    mob.save_grid_map(gm, paths.grid_map)
    mob.save_sequences(sequences, paths.sequences)
    mob.save_split(split, sequences.traj_ids, paths.splits)
    paths.manifest.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def run_build_graphs(cfg: RunConfig) -> dict:
    paths = StagePaths(cfg.output_dir or ".")
    gm, sequences, split = _load_preprocessed(paths)

    local = G.build_local_graph(sequences, gm.n_grids)
    incidence = G.build_grid_incidence(sequences, gm.n_grids)
    global_g = G.build_global_graph(incidence, sequences.traj_ids, sequences.roster,
                                    split.train, sequences.user[split.train])

    G.save_local_graph(local, paths.local_graph)
    G.save_global_graph(global_g, paths.global_graph)
    return {
        "local": {"nodes": len(local.cells), "edges": local.n_edges,
                  "max_weight": local.max_weight},
        "global": {"nodes": global_g.n_nodes, "edges": global_g.n_edges,
                   "max_weight": global_g.max_weight},
    }


def _sources(paths: StagePaths) -> dict[str, str]:
    """The sha256 of each artifact the model inputs are built from, by file
    name; a missing one names the stage that writes it."""
    writers = {"preprocess": (paths.grid_map, paths.sequences, paths.splits),
               "build-graphs": (paths.local_graph, paths.global_graph)}
    return {path.name: _digest(_require(path, stage))
            for stage, group in writers.items() for path in group}


def _digest(path: Path) -> str:
    """The hex sha256 of a file, read in blocks, so no copy of it is held."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_model_inputs(paths: StagePaths):
    gm, sequences, split = _load_preprocessed(paths)
    _require(paths.local_graph, "build-graphs")
    _require(paths.global_graph, "build-graphs")
    local = G.load_local_graph(paths.local_graph)
    global_g = G.load_global_graph(paths.global_graph)
    if local.n_grids != gm.n_grids:
        raise DataError(f"{paths.local_graph.name} has {local.n_grids} grids but "
                        f"{paths.grid_map.name} has {gm.n_grids}; rerun the 'build-graphs' stage")
    if not np.array_equal(local.cells, np.unique(sequences.grid)):
        raise DataError(f"{paths.local_graph.name} and {paths.sequences.name} list different "
                        "visited cells; rerun the 'build-graphs' stage")
    if global_g.traj_ids != sequences.traj_ids:
        raise DataError(f"{paths.global_graph.name} and {paths.sequences.name} list different "
                        "trajectories; rerun the 'build-graphs' stage")
    if global_g.user_ids != sequences.roster:  # every user has a training trajectory
        raise DataError(f"{paths.global_graph.name} and {paths.sequences.name} list different "
                        "users; rerun the 'build-graphs' stage")
    _check_ids(paths, sequences, "state", mob.MOTION_STATES)
    return build_model_inputs(sequences, local, global_g), split


def run_train(cfg: RunConfig) -> dict:
    model_config, train_config = cfg.model_config(), cfg.train_config()
    model_config.validate()
    train_config.validate()
    paths = StagePaths(cfg.output_dir or ".")
    # Hashed before they are parsed: a file rewritten in between reads as
    # changed to evaluate and embed, never as the bytes the inputs came from.
    sources = _sources(paths)
    inputs, split = _load_model_inputs(paths)
    if not len(split.validation):
        raise DataError(f"{paths.splits.name} has an empty validation split: validation "
                        "needs a user with at least 3 sub-trajectories")
    result = train(inputs, split, model_config, train_config)
    save_checkpoint(result.params, inputs, sources, paths.checkpoint)
    save_history(result.history, paths.history)
    return {
        "epochs": len(result.history),
        "best_epoch": result.best_epoch,
        "best_val_acc1": result.best_val_acc1,
        "stopped_by": result.stopped_by,
    }


def _restore(paths: StagePaths):
    """The checkpoint's model, whose header gives every setting, with the
    inputs it runs on, which the train stage saved with it, while every file
    they were built from keeps the bytes train read."""
    sources = _sources(paths)
    params, inputs, built_from = load_checkpoint(_require(paths.checkpoint, "train"))
    changed = [name for name, digest in sources.items() if built_from.get(name) != digest]
    if changed:
        _load_model_inputs(paths)  # a malformed file names itself and the stage writing it
        raise DataError(f"{', '.join(changed)} changed since the 'train' stage wrote "
                        f"{paths.checkpoint.name}; rerun the 'train' stage")
    return params, inputs


def run_evaluate(cfg: RunConfig, split_name: str = "test") -> M.MetricsReport:
    paths = StagePaths(cfg.output_dir or ".")
    params, inputs = _restore(paths)
    indices = getattr(mob.chronological_split(inputs.labels), split_name)
    if not len(indices):
        raise DataError(f"split {split_name!r} is empty")
    report = evaluate_on_split(params, inputs, indices)
    M.save_report(report, paths.metrics)
    return report


def run_embed(cfg: RunConfig) -> Path:
    paths = StagePaths(cfg.output_dir or ".")
    params, inputs = _restore(paths)
    reps = evaluate_rows(params, inputs, np.arange(inputs.n_traj), fused_representations)
    users = [inputs.user_ids[i] for i in inputs.labels]
    M.export_embeddings(reps, inputs.traj_ids, users, paths.embeddings)
    return paths.embeddings


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# Flags spelled other than their field's name in kebab case.
_FLAG_NAMES = {"output_dir": "--output", "epochs_max": "--epochs"}


def _add_common(sub: argparse.ArgumentParser) -> None:
    """``--config`` plus one flag per RunConfig field."""
    sub.add_argument("--config", help="flat key=value config file")
    for f in fields(RunConfig):
        sub.add_argument(_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")),
                         dest=f.name, type=FIELD_TYPES[f.name])


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="tulink", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("preprocess", "build-graphs", "train", "evaluate", "embed"):
        sub = commands.add_parser(name, help=f"run the {name} stage")
        _add_common(sub)
        if name == "evaluate":
            sub.add_argument("--split", choices=("train", "validation", "test"),
                             default="test")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config", "split") and value is not None
    }
    return resolve_config(args.config, overrides)


@functools.cache
def _keep_freed_memory() -> None:
    """Fix glibc's malloc thresholds: blocks up to 4 MB come from the heap and
    up to 32 MB of freed heap is kept. Under its adaptive defaults a training
    step's arrays of a few hundred KB can fault their pages in again on every
    use (see README). Without glibc this does nothing. A process-wide
    setting, so it runs once per process."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD


@functools.cache
def _pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread. How a product is split
    over threads changes its sums in the last bits, so without the pin the
    outputs would follow the host's CPU count (see README). Where numpy
    bundles no such library this does nothing. A process-wide setting, so it
    runs once per process."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            set_threads = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (AttributeError, OSError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)
        return


def main(argv=None) -> int:
    _keep_freed_memory()
    _pin_blas_threads()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        if args.command == "preprocess":
            manifest = run_preprocess(cfg)
            print(
                f"preprocessed {manifest['points']} points into "
                f"{manifest['trajectories']} sub-trajectories of "
                f"{manifest['users']} users over {manifest['grids']} grids"
            )
        elif args.command == "build-graphs":
            stats = run_build_graphs(cfg)
            for kind, s in stats.items():
                print(
                    f"{kind} graph: {s['nodes']} nodes, {s['edges']} edges, "
                    f"max weight {s['max_weight']}"
                )
        elif args.command == "train":
            summary = run_train(cfg)
            print(
                f"trained {summary['epochs']} epochs; best epoch "
                f"{summary['best_epoch']} with validation acc@1 "
                f"{summary['best_val_acc1']:.4f}; stopped by {summary['stopped_by']}"
            )
        elif args.command == "evaluate":
            print(M.format_report(run_evaluate(cfg, args.split)), end="")
        elif args.command == "embed":
            out = run_embed(cfg)
            print(f"wrote embeddings to {out}")
    except ConfigError as exc:
        print(f"tulink: config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, TrainingError) as exc:
        print(f"tulink: data error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
