"""Benchmark of the tulink pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload regions-pub --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it repeats the set-up (preprocess + build-graphs), then
runs whole five-stage pipelines, one at least and more while the next would
end within ``--seconds``, repeating the linking stages (evaluate + embed) of
each, and reports the end-to-end metrics as medians.
With ``--trace 1`` it runs pairs of one untraced and one traced pipeline the
same way, and reports the per-layer metrics of the traced ones plus the
tracing overhead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the machine and the host speed the clock measured (see clock.py).
``--detail PATH`` also writes the stamp, every stage reading, the per-span
summary and the deterministic counts to PATH.

The program is imported from ``src/`` of the current directory and from
nowhere else; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One process, one client, single-threaded BLAS: the pipeline is sequential
# and its matrices are small, and one thread keeps timings steady on a
# shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", type=Path, help="write the run's details as JSON here")
    return parser.parse_args(argv)


def machine_stamp(readings: list[dict]) -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    speeds = [r["speed"] for r in readings]
    return {
        "host_speed": statistics.median(speeds) if speeds else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": min(BLAS_THREADS, nproc),
        "processes": 1,
        "clients": 1,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "tulink" / "__init__.py").is_file():
        print(f"perfbench: no tulink sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    import harness
    from spans import Tracer

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(harness.WORKLOADS), file=sys.stderr)
        return 2

    scratch = Path.cwd() / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        session = harness.Session(harness.WORKLOADS[args.workload], args.seed, workdir)
        start = time.perf_counter()
        if args.trace:
            # One untimed set-up, so that the first untraced pipeline does
            # not pay the process's first-call costs alone.
            setups = session.setups(1, 0.0)
        else:
            setups = session.setups(harness.SETUP_REPS, harness.SETUP_SECONDS)
        plain, traced = [], []
        while not session.failed:
            begun = time.perf_counter()
            run = session.pipeline(repeat_link=not args.trace)
            if run is None:
                break
            plain.append(run)
            if args.trace:
                tracer = Tracer()
                tracer.install()
                try:
                    run = session.pipeline(tracer)
                finally:
                    tracer.remove()
                if run is None:
                    break
                run["spans"] = tracer.summarize()
                run["layers"] = harness.per_layer(run["spans"], tracer.counts, run)
                traced.append(run)
            # Start another round only if it would end within --seconds.
            now = time.perf_counter()
            if now + (now - begun) > start + args.seconds:
                break

        correct = session.failed == 0 and bool(plain)
        metrics = {}
        detail = {"workload": args.workload, "seed": args.seed, "problems": session.problems}
        if correct and args.trace:
            for name, (_, unit) in traced[0]["layers"].items():
                value = statistics.median(r["layers"][name][0] for r in traced)
                metrics[name] = {"value": value, "unit": unit}
            overhead = (statistics.median(sum(r["times"].values()) for r in traced)
                        - statistics.median(sum(r["times"].values()) for r in plain))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            detail["spans"] = traced[0]["spans"]
            detail["stage_s"] = {"untraced": plain[0]["times"], "traced": traced[0]["times"]}
            detail["test_acc1"] = traced[0]["acc1"]
        elif correct:
            for name, value in harness.end_to_end(setups, plain).items():
                metrics[name] = {"value": value, "unit": harness.END_TO_END_UNITS[name]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamp = machine_stamp(session.readings)
    detail.update(machine=stamp, pipelines=len(plain) + len(traced), metrics=metrics,
                  readings=session.readings)
    if args.detail:
        args.detail.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for problem in session.problems:
        print(f"perfbench: failed: {problem}", file=sys.stderr)
    print("machine " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
