"""Properties that must hold across related inputs of the whole pipeline.

Each example runs the five stages in process on a small check-in instance,
so hypothesis draws only a few.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tulink import synth
from tulink.cli import main

FLAGS = ("--embed-dim", "16", "--heads", "2", "--attn-layers", "1", "--epochs", "3")
ARTIFACTS = ("grid_map.json", "sequences.jsonl", "splits.json", "manifest.json",
             "local_graph.txt", "global_graph.txt", "checkpoint.bin", "metrics.txt",
             "embeddings.tsv")
HEADER, *LINES = synth.checkin_style(n_users=12, seed=5).splitlines()


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
