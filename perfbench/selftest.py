"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--workload regions-pub] [--seed 1]

Run from the repository root. Two traced runs with one seed must give
identical deterministic counts, an untraced run must give the same test
acc@1, and run.py must report exactly the metrics BENCHMARK.json names.
Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNTS = ("tensor.tape_ops_per_step", "model.gcn_forward_calls", "train.steps",
          "train.epochs", "tensor.sparsemax_support_ratio")


def run(workload: str, seed: int, trace: int, detail: Path) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--detail", str(detail)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py --trace {trace} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(detail.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="regions-pub")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    scratch = Path.cwd() / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tmp = Path(tmp)
        first, first_detail = run(args.workload, args.seed, 1, tmp / "a.json")
        second, second_detail = run(args.workload, args.seed, 1, tmp / "b.json")
        plain, _ = run(args.workload, args.seed, 0, tmp / "c.json")

    problems = []
    for name in COUNTS:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name}: {a} then {b}")
    accs = (first_detail["test_acc1"], second_detail["test_acc1"],
            plain["metrics"]["test_acc1"]["value"])
    if len(set(accs)) != 1:
        problems.append(f"test_acc1 differs between runs: {accs}")
    for trace, result, kind in ((1, first, "per_layer"), (0, plain, "end_to_end")):
        named = {m["name"]: m["unit"] for m in spec[kind]}
        reported = {k: m["unit"] for k, m in result["metrics"].items()}
        if named != reported:
            problems.append(f"--trace {trace} reports {sorted(reported.items())}, "
                            f"BENCHMARK.json names {sorted(named.items())}")

    for line in problems:
        print(f"selftest: FAIL {line}")
    if not problems:
        counts = ", ".join(f"{n}={first['metrics'][n]['value']}" for n in COUNTS)
        print(f"selftest: PASS {args.workload} seed {args.seed}: {counts}, "
              f"test_acc1={accs[0]}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
