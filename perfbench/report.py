"""Run every workload and print each metric by name with its unit.

    python3 perfbench/report.py [--seed 1] [--trace] [--json PATH]

Run from the repository root. Each workload runs in a fresh process through
run.py, with the run length from BENCHMARK.json, so the output checks run
too and each workload reports its failed operations against attempted ones.
``--trace`` adds the traced run and its per-layer metrics; ``--json`` writes
every result, with the machine stamp, to PATH.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    result["machine"] = json.loads(lines[-2].removeprefix("machine "))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    results = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            r = run_one(workload, args.seed, spec["run_seconds"], trace)
            results[f"{workload}/trace{trace}"] = r
            ok &= r["correct"]
            print(f"{workload:12s} trace={trace} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}")
            for name, m in r["metrics"].items():
                print(f"{workload:12s} {name:34s} {m['value']:14.6g} {m['unit']}")
    if args.json:
        args.json.write_text(json.dumps({"seed": args.seed, "results": results},
                                        indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
