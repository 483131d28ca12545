"""The benchmark's uses of the package still work.

perfbench/spans.py wraps functions of tulink by name; a renamed or deleted
one makes ``Tracer.install`` fail. perfbench/harness.py reads the artifacts
of a traced run back through the package. These tests load both files as
they are, so such a change fails here first.
"""

import dataclasses
import sys
import types
from pathlib import Path

import numpy as np

import tulink.cli  # noqa: F401  (imports every module the tracer wraps)
from tulink import mobility as mob
from tulink import synth

from conftest import STEP_OPS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
HARNESS = PERFBENCH / "harness.py"


def load_spans():
    """spans.py as a module, read from its source and never written."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def load_harness():
    """harness.py as a module, read from its source. Its plain imports of
    clock and spans find perfbench/ on sys.path during this call only, and
    write no bytecode there; its dataclasses need it in sys.modules while
    they are made."""
    module = types.ModuleType("perfbench_harness")
    module.__file__ = str(HARNESS)
    loaded = set(sys.modules)
    sys.modules[module.__name__] = module
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode, writes_bytecode = True, sys.dont_write_bytecode
    try:
        exec(compile(HARNESS.read_text(), str(HARNESS), "exec"), module.__dict__)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = writes_bytecode
        for name in {module.__name__, "clock", "spans"} - loaded:
            sys.modules.pop(name, None)
    return module


def test_harness_reads_back_the_visited_grids(tmp_path):
    """per_layer iterates load_sequences' result for the share of visited
    cells; it must count the distinct grids of the columns."""
    harness = load_harness()
    data, out = tmp_path / "data.csv", tmp_path / "out"
    data.write_text(synth.disjoint_regions(n_users=4, subtrajs_per_user=8, seed=3))
    for stage in ("preprocess", "build-graphs"):
        assert tulink.cli.main([stage, "--dataset", str(data), "--output", str(out)]) == 0
    metrics = harness.per_layer(
        {}, {"tape_ops": 0, "sparsemax_nonzero": 0, "sparsemax_outputs": 0},
        {"epochs": 1, "out": out})
    grids = np.unique(mob.load_sequences(out / "sequences.jsonl").grid)
    n_grids = mob.load_grid_map(out / "grid_map.json").n_grids
    assert 0 < len(grids) < n_grids
    assert metrics["mobility.grids_visited_ratio"] == (len(grids) / n_grids, "ratio")


def test_workload_flags_pass_on_every_stage(tmp_path):
    """The harness passes a workload's model flags to all five stages;
    evaluate and embed take the model from the checkpoint but must still
    accept them."""
    harness = load_harness()
    workload = dataclasses.replace(harness.WORKLOADS["checkin-80u"],
                                   generate=lambda seed: synth.checkin_style(n_users=6, seed=seed))
    session = harness.Session(workload, 1, tmp_path)
    assert session.pipeline() is not None, session.problems
    assert (session.attempted, session.failed) == (5, 0), session.problems


def test_every_target_is_wrapped_and_restored():
    spans = load_spans()
    originals = {}
    for module_name, names in spans.TARGETS.items():
        module = sys.modules[f"tulink.{module_name}"]
        for name in names:
            owner, attr = ((module.Tape, "backward") if name == "Tape.backward"
                           else (module, name))
            originals[f"{module_name}.{name}"] = (owner, attr, getattr(owner, attr))

    tracer = spans.Tracer()
    tracer.install()
    try:
        unwrapped = [key for key, (owner, attr, fn) in originals.items()
                     if getattr(owner, attr) is fn]
    finally:
        tracer.remove()
    assert not unwrapped, unwrapped
    restored = [key for key, (owner, attr, fn) in originals.items()
                if getattr(owner, attr) is fn]
    assert sorted(restored) == sorted(originals)


def test_tracer_counts_a_training_run(tmp_path):
    """The tracer's probes over a small train stage: sparsemax, which records
    nothing, still reports its support through the wrapped module function,
    and every step's tape holds the pinned op count."""
    spans = load_spans()
    data, out = tmp_path / "data.csv", tmp_path / "out"
    data.write_text(synth.disjoint_regions(n_users=4, subtrajs_per_user=8, seed=3))
    flags = ["--dataset", str(data), "--output", str(out), "--embed-dim", "8", "--heads", "2",
             "--attn-layers", "2", "--epochs", "2"]
    for stage in ("preprocess", "build-graphs"):
        assert tulink.cli.main([stage, *flags]) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tulink.cli.main(["train", *flags]) == 0
    finally:
        tracer.remove()
    steps = tracer.summarize()["train.adam_step"]["calls"]
    fixed, per_layer = STEP_OPS[""]
    assert steps > 0
    assert tracer.counts["tape_ops"] == (fixed + 2 * per_layer) * steps
    assert 0 < tracer.counts["sparsemax_nonzero"] <= tracer.counts["sparsemax_outputs"]
