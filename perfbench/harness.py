"""Workloads, the five-stage pipeline, output checks and metrics.

Every stage runs through ``tulink.cli.main`` in this process, exactly as
the command line would run it; the program sees only the generated CSV and
the stage flags of the workload. One stage call is one operation: it fails
when it exits nonzero, raises, or leaves an output that fails its check.

Stages are timed by ``clock.timed``: CPU seconds at a reference host speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tulink import cli, synth
from tulink import graphs as G
from tulink import mobility as mob

import clock
from spans import Tracer

STAGES = ("preprocess", "build-graphs", "train", "evaluate", "embed")
SETUP_STAGES = STAGES[:2]
# These stages last 0.1 s to 2 s, too short for one reading to be steady on
# a shared machine. The untraced run sets up on its own until both set-up
# minimums are met and reports the median of those set-ups and that of its
# first pipeline; the linking stages (evaluate + embed) of an untraced
# pipeline repeat likewise and report trajectories over the median pass.
SETUP_REPS = 2
SETUP_SECONDS = 5.0
LINK_STAGES = STAGES[3:]
LINK_REPS = 3
LINK_SECONDS = 12.0


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int], str]
    flags: tuple[str, ...]
    min_acc1: float = 0.0


# Why each workload is here: see README.md in this directory. regions-pub is
# the criterion-5 instance (data seed 7) whatever the seed.
WORKLOADS = {
    "regions-pub": Workload(
        lambda seed: synth.disjoint_regions(n_users=10, subtrajs_per_user=30, seed=7),
        flags=(),
        min_acc1=0.95,
    ),
    "checkin-80u": Workload(
        lambda seed: synth.checkin_style(n_users=80, seed=seed),
        flags=("--embed-dim", "32", "--heads", "2", "--attn-layers", "1", "--epochs", "3"),
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "train_traj_per_s": "traj/s",
    "link_traj_per_s": "traj/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "test_acc1": "ratio",
}


class Session:
    """Runs stages for one workload and counts operations and failures."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.dataset = workdir / "data.csv"
        self.dataset.write_text(workload.generate(seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.readings: list[dict] = []
        self._runs = 0
        self._first_report: str | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def _stage(self, stage: str, out: Path, tracer: Tracer | None) -> tuple[float, bool]:
        argv = [stage, "--dataset", str(self.dataset), "--output", str(out),
                *self.workload.flags]
        if stage == "evaluate":
            argv += ["--split", "test"]
        self.attempted += 1
        scope = tracer.span(f"cli.{stage.replace('-', '_')}") if tracer else contextlib.nullcontext()
        captured = io.StringIO()
        try:
            with clock.timed() as reading, scope, contextlib.redirect_stdout(captured):
                code = cli.main(argv)
        except Exception:
            code = "exception"
            traceback.print_exc(file=sys.stderr)
        self.readings.append({"stage": stage, "seconds": reading.seconds,
                              "cpu_s": reading.cpu_s, "wall_s": reading.wall_s,
                              "speed": reading.speed, "probes": len(reading.probes)})
        seconds = reading.seconds
        if code != 0:
            self.fail(f"{stage} exited with {code} in {out.name}")
            return seconds, False
        return seconds, True

    def _fresh_dir(self, kind: str) -> Path:
        self._runs += 1
        return self.workdir / f"{kind}-{self._runs}"

    def setups(self, reps: int, seconds: float) -> list[float]:
        """Wall times of preprocess + build-graphs, each into a fresh directory,
        repeated until there are ``reps`` and they add up to ``seconds``."""
        times: list[float] = []
        while len(times) < reps or sum(times) < seconds:
            out = self._fresh_dir("setup")
            total = 0.0
            for stage in SETUP_STAGES:
                elapsed, ok = self._stage(stage, out, None)
                if not ok:
                    return times
                total += elapsed
            times.append(total)
        return times

    def pipeline(self, tracer: Tracer | None = None, repeat_link: bool = False) -> dict | None:
        """All five stages into a fresh directory; with ``repeat_link``, the
        linking stages again until LINK_REPS and LINK_SECONDS are met. Each
        pass is checked."""
        out = self._fresh_dir("pipeline")
        times = {}
        for stage in STAGES:
            times[stage], ok = self._stage(stage, out, tracer)
            if not ok:
                return None
        facts = self._check(out)
        if facts is None:
            return None
        link_s = [times["evaluate"] + times["embed"]]
        while repeat_link and (len(link_s) < LINK_REPS or sum(link_s) < LINK_SECONDS):
            elapsed = 0.0
            for stage in LINK_STAGES:
                seconds, ok = self._stage(stage, out, tracer)
                if not ok:
                    return None
                elapsed += seconds
            if self._check(out) is None:
                return None
            link_s.append(elapsed)
        facts.update(times=times, link_s=link_s, out=out)
        return facts

    def _check(self, out: Path) -> dict | None:
        try:
            return self._read_outputs(out)
        except (OSError, ValueError, KeyError) as exc:
            self.fail(f"outputs in {out.name} are missing or unreadable: {exc!r}")
            return None

    def _read_outputs(self, out: Path) -> dict | None:
        manifest = json.loads((out / "manifest.json").read_text())
        sizes = manifest["split_sizes"]
        epochs = len((out / "history.tsv").read_text().splitlines())

        report_text = (out / "metrics.txt").read_text()
        report = {}
        for line in report_text.splitlines():
            key, _, value = line.partition("=")
            report[key] = float(value)
        expected = {"acc@1", "acc@5", "macro_p", "macro_r", "macro_f1"}
        ok = True
        if not expected <= report.keys() or not all(
                0.0 <= report[k] <= 1.0 for k in expected):
            self.fail(f"evaluate: metrics.txt lacks {sorted(expected)} in [0, 1]: {report}")
            ok = False
        elif report["acc@1"] < self.workload.min_acc1:
            self.fail(f"evaluate: acc@1 {report['acc@1']} below {self.workload.min_acc1}")
            ok = False
        elif self._first_report is None:
            self._first_report = report_text
        elif report_text != self._first_report:
            self.fail("evaluate: metrics.txt differs from the first pass of this run")
            ok = False

        split = json.loads((out / "splits.json").read_text())
        roster = set(split["train"]) | set(split["validation"]) | set(split["test"])
        width = 2 * _flag(self.workload.flags, "--embed-dim", 128)
        seen = set()
        bad_row = None
        for row in (out / "embeddings.tsv").read_text().splitlines():
            fields = row.split("\t")
            values = [float(v) for v in fields[2:]]
            if len(values) != width or not all(map(math.isfinite, values)):
                bad_row = fields[0]
                break
            seen.add(fields[0])
        if bad_row is not None or seen != roster or len(seen) != manifest["trajectories"]:
            self.fail(f"embed: embeddings.tsv is not one finite row of width {width} "
                      f"per roster trajectory (bad row {bad_row}, {len(seen)} ids "
                      f"for {manifest['trajectories']} trajectories)")
            ok = False
        if not ok:
            return None
        return {"epochs": epochs, "sizes": sizes, "n_traj": manifest["trajectories"],
                "acc1": report["acc@1"]}


def _flag(flags: tuple[str, ...], name: str, default: int) -> int:
    return int(flags[flags.index(name) + 1]) if name in flags else default


def end_to_end(setups: list[float], runs: list[dict]) -> dict[str, float]:
    """Medians over the run's set-ups and pipelines."""
    per_run = {name: [] for name in END_TO_END_UNITS if name not in ("setup_s", "peak_rss_mb")}
    for r in runs:
        t = r["times"]
        per_run["train_s"].append(t["train"])
        per_run["train_traj_per_s"].append(r["epochs"] * r["sizes"]["train"] / t["train"])
        per_run["link_traj_per_s"].append(
            (r["sizes"]["test"] + r["n_traj"]) / statistics.median(r["link_s"]))
        per_run["pipeline_s"].append(sum(t.values()))
        per_run["test_acc1"].append(r["acc1"])
    metrics = {name: statistics.median(values) for name, values in per_run.items()}
    first_setup = sum(runs[0]["times"][stage] for stage in SETUP_STAGES)
    metrics["setup_s"] = statistics.median(setups + [first_setup])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: metrics[name] for name in END_TO_END_UNITS}


def _self(summary, name):
    return summary.get(name, {}).get("self_s", 0.0)


def _calls(summary, name):
    return summary.get(name, {}).get("calls", 0)


def per_layer(s: dict, c: dict, run: dict) -> dict[str, tuple[float, str]]:
    """Per-layer self times and counts of one traced pipeline, from its span
    summary ``s`` and probe counts ``c``."""
    m: dict[str, tuple[float, str]] = {}
    for stage in STAGES:
        key = stage.replace("-", "_")
        m[f"cli.{key}_s"] = (_self(s, f"cli.{key}"), "s")
    for fn in ("parse_dataset", "build_grid_map", "build_grid_sequences", "load_sequences"):
        m[f"mobility.{fn}_s"] = (_self(s, f"mobility.{fn}"), "s")
    m["mobility.load_calls"] = (sum(_calls(s, f"mobility.{fn}") for fn in
                                    ("load_grid_map", "load_sequences", "load_split")), "count")
    for fn in ("build_local_graph", "build_grid_incidence", "build_global_graph",
               "symmetric_normalize"):
        m[f"graphs.{fn}_s"] = (_self(s, f"graphs.{fn}"), "s")
    graph_loads = ("graphs.load_local_graph", "graphs.load_global_graph")
    m["graphs.load_s"] = (sum(_self(s, n) for n in graph_loads), "s")
    m["graphs.load_calls"] = (sum(_calls(s, n) for n in graph_loads), "count")
    for fn in ("gcn_forward", "encode_locations", "self_attention_stack", "global_attention",
               "forward_batch", "model_loss"):
        m[f"model.{fn}_s"] = (_self(s, f"model.{fn}"), "s")
    m["model.gcn_forward_calls"] = (_calls(s, "model.gcn_forward"), "count")
    m["model.forward_batch_calls"] = (_calls(s, "model.forward_batch"), "count")
    for fn in ("matmul", "spmm", "sparsemax", "backward"):
        m[f"tensor.{fn}_s"] = (_self(s, f"tensor.{fn}"), "s")
    m["tensor.matmul_calls"] = (_calls(s, "tensor.matmul"), "count")
    m["tensor.tape_ops_per_step"] = (c["tape_ops"] / max(_calls(s, "tensor.backward"), 1),
                                     "ops/step")
    m["tensor.sparsemax_support_ratio"] = (
        c["sparsemax_nonzero"] / max(c["sparsemax_outputs"], 1), "ratio")
    for fn in ("adam_step", "predict_logits"):
        m[f"train.{fn}_s"] = (_self(s, f"train.{fn}"), "s")
    m["train.steps"] = (_calls(s, "train.adam_step"), "count")
    m["train.epochs"] = (run["epochs"], "count")
    m["train.predict_logits_calls"] = (_calls(s, "train.predict_logits"), "count")
    for fn in ("compute_report", "export_embeddings"):
        m[f"metrics.{fn}_s"] = (_self(s, f"metrics.{fn}"), "s")

    # Read back after the tracer is removed, so these loads are not counted.
    out = run["out"]
    grids = G.load_local_graph(out / "local_graph.txt").n_grids
    visited = {g for seq in mob.load_sequences(out / "sequences.jsonl") for g in seq.grid}
    m["mobility.grids_visited_ratio"] = (len(visited) / grids, "ratio")
    m["graphs.global_edges"] = (G.load_global_graph(out / "global_graph.txt").n_edges, "count")
    return m
