"""Properties that must hold across related inputs of the whole pipeline,
and across the SIMD levels numpy can dispatch on.

Each example runs the five stages in process on a small check-in instance,
so hypothesis draws only a few.
"""

import json
import math
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tulink
from tulink import synth
from tulink.cli import main
from tulink.config import RunConfig
from tulink.mobility import SECONDS_PER_DAY

from conftest import checkpoint_parts, parameter_views

FLAGS = ("--embed-dim", "16", "--heads", "2", "--attn-layers", "1", "--epochs", "3")
ARTIFACTS = ("grid_map.json", "sequences.jsonl", "splits.json", "manifest.json",
             "local_graph.txt", "global_graph.txt", "checkpoint.bin", "metrics.txt",
             "embeddings.tsv")
HEADER, *LINES = synth.checkin_style(n_users=12, seed=5).splitlines()
USERS = sorted({line.split(",")[0] for line in LINES})
TAU = RunConfig().tau


def pipeline(lines, root):
    """Every artifact's bytes after the five stages on the CSV ``lines``;
    history.tsv without its seconds column."""
    data, out = root / "data.csv", root / "out"
    data.write_text("\n".join([HEADER, *lines]) + "\n")
    for stage in ("preprocess", "build-graphs", "train", "evaluate", "embed"):
        assert main([stage, "--dataset", str(data), "--output", str(out), *FLAGS]) == 0, stage
    artifacts = {name: (out / name).read_bytes() for name in ARTIFACTS}
    artifacts["history.tsv"] = [row.split("\t")[:3]
                                for row in (out / "history.tsv").read_text().splitlines()]
    return artifacts


@pytest.fixture(scope="module")
def in_file_order(tmp_path_factory):
    return pipeline(LINES, tmp_path_factory.mktemp("ordered"))


def test_times_are_distinct_within_each_user():
    """The precondition of line-order invariance: equal times of one user
    keep their file order, so a shuffle could reorder them."""
    times = defaultdict(list)
    for line in LINES:
        user, t, _, _ = line.split(",")
        times[user].append(float(t))
    assert len(times) == 12
    assert all(len(set(ts)) == len(ts) for ts in times.values())


@settings(max_examples=5, deadline=None)
@given(shuffled=st.permutations(LINES))
def test_line_order_changes_no_artifact(in_file_order, tmp_path_factory, shuffled):
    """Points are sorted by user and time and users by id, so the order of
    the data lines reaches no artifact."""
    assert pipeline(shuffled, tmp_path_factory.mktemp("shuffled")) == in_file_order


def with_ids(artifacts, users=None, interval=0):
    """The artifacts with every user id u read as ``users[u]`` and every
    trajectory id's interval moved by ``interval``: sequences.jsonl,
    splits.json and manifest.json parsed, the global graph's roster and the
    first two columns of embeddings.tsv rewritten, and the global graph's
    checksum line dropped. checkpoint.bin becomes its header, ids rewritten
    and without the sha256 of files that hold the ids, and its parameter
    arena's bytes; its input records are left out, since they hold the point
    times and otherwise what the files compared here hold."""
    users = users or {}

    def traj(tid):
        user, _, k = tid.rpartition(":")
        return f"{users.get(user, user)}:{int(k) + interval}"

    out = dict(artifacts)
    _, header, records = checkpoint_parts(artifacts["checkpoint.bin"])
    header.update(traj_ids=list(map(traj, header["traj_ids"])),
                  user_ids=[users.get(u, u) for u in header["user_ids"]])
    del header["sources"]
    out["checkpoint.bin"] = header, records[0].tobytes()
    out["sequences.jsonl"] = [json.loads(line) for line in
                              artifacts["sequences.jsonl"].decode().splitlines()]
    for record in out["sequences.jsonl"]:
        record.update(user=users.get(record["user"], record["user"]),
                      interval=record["interval"] + interval)
    out["splits.json"] = {part: list(map(traj, ids)) for part, ids in
                          json.loads(artifacts["splits.json"]).items()}
    manifest = out["manifest.json"] = json.loads(artifacts["manifest.json"])
    manifest["user_roster"] = [users.get(u, u) for u in manifest["user_roster"]]
    lines = out["global_graph.txt"] = artifacts["global_graph.txt"].decode().splitlines()
    n_traj = next(int(line.split()[1]) for line in lines if line.startswith("trajectories "))
    r = next(k for k, line in enumerate(lines) if line.startswith("roster ")) + 1
    n = int(lines[r - 1].split()[1])
    lines[r : r + n] = [*map(traj, lines[r : r + n_traj]),
                        *(users.get(u, u) for u in lines[r + n_traj : r + n])]
    del lines[1]  # the checksum, over the ids too
    out["embeddings.tsv"] = [[traj(tid), users.get(user, user), *values] for tid, user, *values
                             in (line.split("\t") for line in
                                 artifacts["embeddings.tsv"].decode().splitlines())]
    return out


@settings(max_examples=5, deadline=None)
@given(names=st.lists(st.text(st.sampled_from("AZ_9\u00e9\u65e5"), min_size=1, max_size=4),
                      min_size=len(USERS), max_size=len(USERS), unique=True).map(sorted))
def test_order_preserving_renames_change_no_artifact(in_file_order, tmp_path_factory, names):
    """Users are coded by their place in the sorted roster, so renames that
    keep the sort order leave every artifact equal once the names are mapped
    back. A rename that reorders users changes their codes, and with them
    which rows the linking layer draws for whom: that is no invariance."""
    rename = dict(zip(USERS, names))
    lines = [rename[user] + "," + rest for user, rest in
             (line.split(",", 1) for line in LINES)]
    renamed = pipeline(lines, tmp_path_factory.mktemp("renamed"))
    assert with_ids(renamed, dict(zip(names, USERS))) == with_ids(in_file_order)


@settings(max_examples=5, deadline=None)
@given(days=st.integers(-400, 400).filter(bool))
def test_whole_interval_time_shifts_change_no_model_output(in_file_order, tmp_path_factory,
                                                           days):
    """A shift by whole days that are also whole intervals keeps every
    point's time of day, its interval's place among the user's and the gaps
    between points. So the model and its scores are unchanged, and only the
    trajectory ids and the stored times move."""
    shift = days * SECONDS_PER_DAY
    assert shift % TAU == 0
    lines = []
    for line in LINES:
        user, t, lat, lon = line.split(",")
        lines.append(f"{user},{float(t) + shift!r},{lat},{lon}")
    shifted = with_ids(pipeline(lines, tmp_path_factory.mktemp("shifted")),
                       interval=-int(shift // TAU))
    expected = with_ids(in_file_order)
    for got, record in zip(shifted["sequences.jsonl"], expected["sequences.jsonl"]):
        assert all(math.isclose(a - shift, b, rel_tol=0, abs_tol=1e-6)
                   for a, b in zip(got.pop("t"), record.pop("t")))
    assert shifted == expected


# numpy's SIMD tables: the features it has loops for, those this CPU has
# (and that NPY_DISABLE_CPU_FEATURES left on), and those every build assumes.
_CPU = (getattr(np, "_core", None) or np.core)._multiarray_umath
DISPATCHED = [f for f in _CPU.__cpu_dispatch__
              if _CPU.__cpu_features__.get(f) and f not in _CPU.__cpu_baseline__]
# A trained value may move between SIMD levels by this share of its
# tensor's largest entry (1.4e-14 measured on an AVX-512 host), since
# numpy's exp and log loops differ in the last bit.
SIMD_BOUND = 1e-11
_LOWER_LEVEL_RUN = """
import json, sys
import numpy as np
from tulink.cli import main
data, out, features, *flags = sys.argv[1:]
cpu = (getattr(np, "_core", None) or np.core)._multiarray_umath
assert not any(map(cpu.__cpu_features__.get, json.loads(features)))
for stage in ("preprocess", "build-graphs", "train", "evaluate", "embed"):
    assert main([stage, "--dataset", data, "--output", out, *flags]) == 0, stage
"""


def _relative_deviation(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 5e-324))


@pytest.mark.skipif(not DISPATCHED, reason="numpy dispatches no loop above its baseline here")
def test_simd_level_changes_no_setup_artifact(in_file_order, tmp_path):
    """The five stages in a child process with every SIMD feature above
    numpy's baseline switched off for that process alone. Every setup
    artifact, metrics.txt, the checkpoint's header and its input records keep
    their bytes, since preprocess and build-graphs call no loop whose result
    follows the SIMD level and those records hold no trained value; the
    checkpoint's parameters and the embeddings stay within SIMD_BOUND of the
    in-process run."""
    data, out = tmp_path / "data.csv", tmp_path / "out"
    data.write_text("\n".join([HEADER, *LINES]) + "\n")
    src = str(Path(tulink.__file__).parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(DISPATCHED),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _LOWER_LEVEL_RUN, str(data), str(out),
                    json.dumps(DISPATCHED), *FLAGS], env=env, check=True)
    for name in ARTIFACTS[:6] + ("metrics.txt",):
        assert (out / name).read_bytes() == in_file_order[name], name
    (_, header, records), (_, child_header, child_records) = (
        checkpoint_parts(data) for data in (in_file_order["checkpoint.bin"],
                                            (out / "checkpoint.bin").read_bytes()))
    assert child_header == header and len(child_records) == len(records)
    for got, expected in zip(child_records[1:], records[1:]):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    here, there = (parameter_views(header, parts) for parts in (records, child_records))
    assert max(_relative_deviation(here[k], there[k]) for k in here) <= SIMD_BOUND
    rows = [[line.split("\t") for line in text.decode().splitlines()] for text in
            (in_file_order["embeddings.tsv"], (out / "embeddings.tsv").read_bytes())]
    assert [row[:2] for row in rows[1]] == [row[:2] for row in rows[0]]
    values = (np.array([row[2:] for row in table], dtype=np.float64) for table in rows)
    assert _relative_deviation(*values) <= SIMD_BOUND
