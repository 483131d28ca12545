"""Command-line pipeline: stage wiring, idempotence, exit codes."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import traceback
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import tulink
from tulink import cli
from tulink import graphs as G
from tulink import metrics as M
from tulink import mobility as mob
from tulink import synth
from tulink.cli import (_FLAG_NAMES, StagePaths, _config_from_args, _load_model_inputs,
                        _restore, build_parser, main, run_train)
from tulink.config import FIELD_TYPES, RunConfig, load_config_file, resolve_config
from tulink.errors import ConfigError
from tulink.mobility import DatasetSplit
from tulink.model import (ABLATIONS, ModelConfig, ModelInputs, fused_representations,
                          load_checkpoint, parameter_shapes)
from tulink.train import TrainConfig, evaluate_on_split, evaluate_rows

from conftest import (CHECKPOINT_RECORDS, GRAPH_CORRUPTIONS, GRAPH_RECORDS, SEQUENCE_RECORDS,
                      checkpoint_parts, edit_graph_matrix, edit_trajectories, npy_record,
                      parameter_views, rewrite_checkpoint, rewrite_graph, rewrite_sequences)
from oracles import export_embeddings_oracle
from test_fuzz import datasets as fuzz_datasets


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small dataset plus a config file sized for fast end-to-end runs."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    data.write_text(synth.disjoint_regions(n_users=4, subtrajs_per_user=6, seed=3))
    out = root / "out"
    config = root / "run.cfg"
    config.write_text(
        "\n".join(
            [
                f"dataset={data}",
                f"output_dir={out}",
                "# desk-scale model",
                "embed_dim=16",
                "heads=2",
                "attn_layers=1",
                "gcn_layers=2",
                "epochs_max=2",
                "batch_size=8",
                "patience=2",
                "seed=5",
            ]
        )
        + "\n"
    )
    return {"root": root, "data": data, "out": out, "config": str(config)}


def run(args):
    return main(args)


class TestPipeline:
    def test_preprocess_counts_match_line_oracle(self, workspace, capsys):
        assert run(["preprocess", "--config", workspace["config"]]) == 0
        capsys.readouterr()
        manifest = json.loads((workspace["out"] / "manifest.json").read_text())
        raw_lines = workspace["data"].read_text().strip().splitlines()[1:]  # drop header
        assert manifest["points"] == len(raw_lines)
        assert manifest["users"] == len({l.split(",")[0] for l in raw_lines})
        assert manifest["trajectories"] == 4 * 6
        sizes = manifest["split_sizes"]
        assert sizes["train"] + sizes["validation"] + sizes["test"] == 24

    def test_preprocess_rerun_is_byte_identical(self, workspace, capsys):
        files = ["grid_map.json", "sequences.jsonl", "splits.json", "manifest.json"]
        before = {f: (workspace["out"] / f).read_bytes() for f in files}
        assert run(["preprocess", "--config", workspace["config"]]) == 0
        capsys.readouterr()
        for f in files:
            assert (workspace["out"] / f).read_bytes() == before[f], f

    def test_build_graphs_and_rerun(self, workspace, capsys):
        assert run(["build-graphs", "--config", workspace["config"]]) == 0
        stdout = capsys.readouterr().out
        assert "local graph:" in stdout and "global graph:" in stdout
        files = ["local_graph.txt", "global_graph.txt"]
        before = {f: (workspace["out"] / f).read_bytes() for f in files}
        assert run(["build-graphs", "--config", workspace["config"]]) == 0
        capsys.readouterr()
        for f in files:
            assert (workspace["out"] / f).read_bytes() == before[f], f

    def test_train_then_evaluate_and_embed(self, workspace, capsys):
        assert run(["train", "--config", workspace["config"]]) == 0
        assert (workspace["out"] / "checkpoint.bin").exists()
        history = (workspace["out"] / "history.tsv").read_text().splitlines()
        assert len(history) == 2  # epochs_max
        assert run(["evaluate", "--config", workspace["config"]]) == 0
        out = capsys.readouterr().out
        assert "acc@1=" in out and "macro_f1=" in out
        report = (workspace["out"] / "metrics.txt").read_text().splitlines()
        assert report[0].startswith("acc@1=")

        assert run(["embed", "--config", workspace["config"]]) == 0
        capsys.readouterr()
        lines = (workspace["out"] / "embeddings.tsv").read_text().splitlines()
        assert len(lines) == 24
        assert len(lines[0].split("\t")) == 2 + 2 * 16  # id, user, 2d values

    def test_embed_reexport_identical(self, workspace, capsys):
        before = (workspace["out"] / "embeddings.tsv").read_bytes()
        assert run(["embed", "--config", workspace["config"]]) == 0
        capsys.readouterr()
        assert (workspace["out"] / "embeddings.tsv").read_bytes() == before


class TestExitCodes:
    def test_missing_stage_artifact_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text(synth.disjoint_regions(n_users=2, subtrajs_per_user=3))
        code = run(["train", "--dataset", str(data), "--output", str(tmp_path / "o")])
        assert code == 2
        assert "preprocess" in capsys.readouterr().err

    def test_missing_checkpoint_names_train_stage(self, workspace, tmp_path, capsys):
        out = tmp_path / "fresh"
        code = run(["preprocess", "--config", workspace["config"], "--output", str(out)])
        assert code == 0
        code = run(["build-graphs", "--config", workspace["config"], "--output", str(out)])
        assert code == 0
        capsys.readouterr()
        code = run(["evaluate", "--config", workspace["config"], "--output", str(out)])
        assert code == 2
        assert "train" in capsys.readouterr().err

    def test_tab_in_a_user_id_is_data_error(self, tmp_path, capsys):
        """embeddings.tsv separates fields with tabs, so such an id would
        give that user's rows extra fields."""
        data = tmp_path / "d.csv"
        text = synth.checkin_style(n_users=6, seed=3).replace("user00,", "us\ter00,")
        data.write_text(text)
        code = run(["preprocess", "--dataset", str(data), "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{data} line 2: user id 'us\\ter00' holds a tab" in err
        assert not (tmp_path / "o" / "sequences.jsonl").exists()

    def test_invalid_ablation_is_usage_error_listing_names(self, workspace, capsys):
        code = run(["train", "--config", workspace["config"], "--ablation", "bogus"])
        assert code == 1
        err = capsys.readouterr().err
        for name in ABLATIONS:
            assert name in err

    def test_instant_before_midnight_trains(self, tmp_path, capsys):
        """-1e-13 s rounds to a whole day in time of day; the model puts it in
        the day's last window, not one past its vocabulary."""
        lines = synth.disjoint_regions(3, 5, seed=3).splitlines()
        user, _, lat, lon = lines[1].split(",")
        lines[1] = f"{user},-1e-13,{lat},{lon}"
        data = tmp_path / "d.csv"
        data.write_text("\n".join(lines) + "\n")
        args = ["--dataset", str(data), "--output", str(tmp_path / "o"), "--embed-dim", "8",
                "--heads", "1", "--attn-layers", "1", "--epochs", "1"]
        for stage in ("preprocess", "build-graphs", "train"):
            assert run([stage, *args]) == 0, capsys.readouterr().err
        params, inputs = _restore(StagePaths(tmp_path / "o"))
        k = next(k for k, tid in enumerate(inputs.traj_ids) if tid.endswith(":-1"))
        at = inputs.starts[k]
        assert inputs.lengths[k] == 1 and inputs.times[at] == -1e-13
        window_len = mob.SECONDS_PER_DAY / params.config.time_vocab
        assert mob.time_windows(inputs.times[at : at + 1], window_len).tolist() == [11]

    @pytest.mark.parametrize("under", ["", "sub"], ids=["a-file", "under-a-file"])
    def test_output_that_cannot_be_a_directory_is_usage_error(self, workspace, tmp_path, capsys,
                                                              under):
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        out = afile / under if under else afile
        code = run(["preprocess", "--config", workspace["config"], "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert f"output directory {out}" in err and "Traceback" not in err
        assert afile.read_text() == "not a directory\n"

    def test_empty_dataset_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = run(["preprocess", "--dataset", str(empty), "--output",
                    str(tmp_path / "o")])
        assert code == 2
        assert "no records" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key=1\n")
        assert run(["preprocess", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1
        capsys.readouterr()

    def test_empty_validation_split_is_data_error(self, tmp_path, capsys):
        # Three users with two one-point sub-trajectories each: every user
        # splits 1/0/1, so no trajectory is left for validation.
        data = tmp_path / "d.csv"
        data.write_text("user_id,timestamp,lat,lon\n" + "".join(
            f"{u},{t},{40 + 0.01 * k},{116 + 0.01 * k}\n"
            for k, u in enumerate("abc") for t in (0, 86_400)))
        flags = ["--dataset", str(data), "--output", str(tmp_path / "o"),
                 "--embed-dim", "8", "--heads", "2", "--attn-layers", "1"]
        assert run(["preprocess", *flags]) == 0
        assert run(["build-graphs", *flags]) == 0
        capsys.readouterr()
        assert run(["train", *flags]) == 2
        err = capsys.readouterr().err
        assert "splits.json" in err and "at least 3 sub-trajectories" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    """A finished train stage of the workspace config in its own directory."""
    out = tmp_path_factory.mktemp("trained")
    for stage in ("preprocess", "build-graphs", "train"):
        assert run([stage, "--config", workspace["config"], "--output", str(out)]) == 0
    return out


DEEPER_FLAGS = ("--attn-layers", "2", "--gcn-layers", "2")


@pytest.fixture(scope="module")
def trained_deeper(workspace, tmp_path_factory):
    """The workspace config trained with two attention and two GCN layers."""
    out = tmp_path_factory.mktemp("deeper")
    for stage in ("preprocess", "build-graphs", "train"):
        assert run([stage, "--config", workspace["config"], "--output", str(out),
                    *DEEPER_FLAGS]) == 0
    return out


@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_each_ablation_trains_evaluates_and_embeds(workspace, trained, tmp_path, capsys, name):
    out = tmp_path / name
    shutil.copytree(trained, out)
    for stage in ("train", "evaluate", "embed"):
        code = run([stage, "--config", workspace["config"], "--output", str(out),
                    "--ablation", name])
        assert code == 0, (stage, capsys.readouterr().err)
    assert len((out / "embeddings.tsv").read_text().splitlines()) == 24


CHECKIN_FLAGS = ("--embed-dim", "16", "--heads", "2", "--attn-layers", "1", "--epochs", "3")


@pytest.mark.parametrize("ablation, zero_half", [("tul-l", 0), ("tul-g", 1)])
def test_embed_with_one_half_all_zeros_writes_the_oracle_bytes(tmp_path, ablation, zero_half):
    """On the 12-user check-in instance, an ablation that leaves one half of
    every fused vector zero still gets the per-float writer's bytes."""
    data, out = tmp_path / "data.csv", tmp_path / "out"
    data.write_text(synth.checkin_style(n_users=12, seed=5))
    for stage in ("preprocess", "build-graphs", "train", "embed"):
        assert run([stage, "--dataset", str(data), "--output", str(out), *CHECKIN_FLAGS,
                    "--ablation", ablation]) == 0, stage
    params, inputs = _restore(StagePaths(out))
    reps = evaluate_rows(params, inputs, np.arange(inputs.n_traj), fused_representations)
    halves = np.hsplit(reps, 2)
    assert not np.any(halves[zero_half]) and np.any(halves[1 - zero_half])
    users = [inputs.user_ids[i] for i in inputs.labels]
    export_embeddings_oracle(reps, inputs.traj_ids, users, tmp_path / "oracle.tsv")
    assert (out / "embeddings.tsv").read_bytes() == (tmp_path / "oracle.tsv").read_bytes()


def test_empty_ablation_flag_selects_the_full_model(workspace, trained, tmp_path, capsys):
    """Flags win over the file for the ablation too: '' is the full model."""
    config = tmp_path / "tul-g.cfg"
    config.write_text(Path(workspace["config"]).read_text() + "ablation=tul-g\n")
    out = tmp_path / "run"
    shutil.copytree(trained, out)
    for flags, ablation in (((), "tul-g"), (("--ablation", ""), "")):
        assert run(["train", "--config", str(config), "--output", str(out), *flags]) == 0
        header = checkpoint_parts((out / "checkpoint.bin").read_bytes())[1]
        assert header["model"]["ablation"] == ablation
    capsys.readouterr()


@pytest.mark.parametrize("flags, line", [
    ((), "trained 2 epochs; best epoch 1 with validation acc@1 0.2500; stopped by epochs_max"),
    (("--epochs", "30", "--patience", "1"),
     "trained 2 epochs; best epoch 1 with validation acc@1 0.2500; stopped by patience"),
    (("--epochs", "80", "--patience", "80", "--learning-rate", "0.01"),
     "trained 5 epochs; best epoch 5 with validation acc@1 1.0000; "
     "stopped by validation acc@1 1.0"),
], ids=["epochs-max", "patience", "perfect-validation"])
def test_train_says_which_rule_stopped_it(workspace, trained, tmp_path, capsys, flags, line):
    out = tmp_path / "run"
    shutil.copytree(trained, out)
    capsys.readouterr()
    assert run(["train", "--config", workspace["config"], "--output", str(out), *flags]) == 0
    assert capsys.readouterr().out == line + "\n"
    assert len((out / "history.tsv").read_text().splitlines()) == int(line.split()[1])


@pytest.mark.parametrize("part", ["train", "validation"])
def test_evaluate_scores_the_chosen_split(workspace, trained, tmp_path, part):
    """``--split`` scores the trajectories that splits.json lists under it."""
    out = tmp_path / part
    shutil.copytree(trained, out)
    assert run(["evaluate", "--config", workspace["config"], "--output", str(out),
                "--split", part]) == 0
    params, inputs = _restore(StagePaths(out))
    ids = json.loads((out / "splits.json").read_text())[part]
    indices = np.array([inputs.traj_ids.index(tid) for tid in ids])
    report = evaluate_on_split(params, inputs, indices)
    M.save_report(report, tmp_path / "expected.txt")
    assert (out / "metrics.txt").read_bytes() == (tmp_path / "expected.txt").read_bytes()


# Characters at which str.splitlines breaks a line, though no artifact ends
# a line with one.
SPLITLINES_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", SPLITLINES_BREAKS,
                         ids=[f"U+{ord(c):04X}" for c in SPLITLINES_BREAKS])
def test_user_ids_may_hold_what_splitlines_breaks_at(tmp_path, capsys, char):
    """Only a newline ends a line of an artifact, so a user id holding one of
    these characters runs through all five stages and keeps it."""
    data, out = tmp_path / "data.csv", tmp_path / "out"
    data.write_text(synth.disjoint_regions(3, 6, seed=3).replace("user0", f"us{char}er0"),
                    encoding="utf-8")
    for stage in ("preprocess", "build-graphs", "train", "evaluate", "embed"):
        code = run([stage, "--dataset", str(data), "--output", str(out), "--embed-dim", "8",
                    "--heads", "2", "--attn-layers", "1", "--epochs", "1"])
        assert code == 0, (stage, capsys.readouterr().err)
    rows = (out / "embeddings.tsv").read_text(encoding="utf-8").split("\n")[:-1]
    assert len(rows) == 18 and {row.split("\t")[1] for row in rows} == \
        {f"us{char}er0{u}" for u in range(3)}


class TestCheckpointErrors:
    """A checkpoint that does not fit is a data error naming the file and the
    train stage, not a traceback; one that fits is the model, whatever the
    model flags say."""

    def _evaluate(self, workspace, trained, tmp_path, capsys, corrupt, *flags,
                  stage="evaluate"):
        out = tmp_path / stage
        shutil.copytree(trained, out)
        corrupt(out / "checkpoint.bin")
        capsys.readouterr()
        code = run([stage, "--config", workspace["config"], "--output", str(out), *flags])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "checkpoint.bin" in err and "'train'" in err
        assert "Traceback" not in err
        return err

    def test_truncated_checkpoint(self, workspace, trained, tmp_path, capsys):
        def truncate(path):
            path.write_bytes(path.read_bytes()[:-100])
        assert "truncated" in self._evaluate(workspace, trained, tmp_path, capsys, truncate)

    def test_negative_dimensions(self, workspace, trained, tmp_path, capsys):
        """A record of shape (-1, -n) holds as many values as one of (n,)."""
        def negate_point_times(header, records):
            k = CHECKPOINT_RECORDS["times"]
            records[k] = npy_record(records[k], (-1, -len(records[k])))
        err = self._evaluate(workspace, trained, tmp_path, capsys,
                             lambda path: rewrite_checkpoint(path, negate_point_times))
        assert "negative dimension" in err

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    @pytest.mark.parametrize("name, value, words", [
        ("grid_idx", 10 ** 6, "grid_idx 1000000"), ("state_idx", 10 ** 6, "state_idx 1000000"),
        ("labels", 10 ** 6, "labels 1000000"), ("traj_rows", 10 ** 6, "traj_rows 1000000"),
        ("lengths", 0, "trajectory lengths"), ("lengths", 10 ** 6, "lengths 1000000")])
    def test_index_out_of_range(self, workspace, trained, tmp_path, capsys, stage, name, value,
                                words):
        """Under a renewed checksum, an index record's first entry set past
        what it indexes, or a length to 0 or past the points, exits 2."""
        def set_first(header, records):
            records[CHECKPOINT_RECORDS[name]][0] = value
        err = self._evaluate(workspace, trained, tmp_path, capsys,
                             lambda path: rewrite_checkpoint(path, set_first), stage=stage)
        assert words in err

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    @pytest.mark.parametrize("name, edit, words", [
        ("traj_rows", lambda r: r.__setitem__(1, r[0]), "traj_rows that do not number"),
        ("traj_rows", lambda r: r.__setitem__(0, r.max()), "traj_rows that do not number"),
        ("traj_rows", lambda r: r.__setitem__(slice(0, 2), r[1::-1]),
         "traj_rows that do not number"),
        ("labels", lambda r: r.__setitem__(slice(None), r[::-1]), "labels out of user order"),
    ], ids=["class-repeated", "class-set-to-max", "classes-swapped", "labels-reversed"])
    def test_record_breaks_what_the_writer_guarantees(self, workspace, trained, tmp_path,
                                                       capsys, stage, name, edit, words):
        """Under a renewed checksum, a record edited within the ranges the
        index checks allow but against the writer's numbering or order
        exits 2, where it gave a traceback or wrong numbers."""
        def apply(header, records):
            edit(records[CHECKPOINT_RECORDS[name]])
        err = self._evaluate(workspace, trained, tmp_path, capsys,
                             lambda path: rewrite_checkpoint(path, apply), stage=stage)
        assert words in err

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    @pytest.mark.parametrize("edit", [
        lambda cols: cols.__setitem__(slice(0, 2), cols[1::-1]),
        lambda cols: cols.__setitem__(1, cols[0]),
    ], ids=["columns-swapped", "column-repeated"])
    def test_global_matrix_that_is_not_canonical(self, workspace, trained, tmp_path, capsys,
                                                 stage, edit):
        """Under a renewed checksum, the first row of m_global with two or
        more entries with its first two column indices swapped, or its first
        one repeated, exits 2: the writer sorts each row's distinct columns,
        and scipy's own format check accepts both edits."""
        def apply(header, records):
            indptr = records[CHECKPOINT_RECORDS["m_global.indptr"]]
            start = indptr[np.flatnonzero(np.diff(indptr) >= 2)[0]]
            edit(records[CHECKPOINT_RECORDS["m_global.indices"]][start:])
        err = self._evaluate(workspace, trained, tmp_path, capsys,
                             lambda path: rewrite_checkpoint(path, apply), stage=stage)
        assert "m_global lists an entry out of order or twice" in err

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    @pytest.mark.parametrize("name", ["traj_ids", "user_ids"])
    @pytest.mark.parametrize("edit", [
        lambda ids: ids.__setitem__(1, ids[0]),
        lambda ids: ids.__setitem__(slice(None), range(len(ids))),
    ], ids=["repeated", "ints"])
    def test_ids_that_are_not_distinct_str(self, workspace, trained, tmp_path, capsys, stage,
                                           name, edit):
        def apply(header, records):
            edit(header[name])
        err = self._evaluate(workspace, trained, tmp_path, capsys,
                             lambda path: rewrite_checkpoint(path, apply), stage=stage)
        assert f"{name} that are not a list of distinct str" in err

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    def test_record_larger_than_the_file(self, workspace, trained, tmp_path, capsys, stage):
        """A parameter arena whose header declares 10**11 values (745 GiB),
        under a renewed checksum, exits before anything is allocated."""
        def enlarge_arena(header, records):
            records[0] = npy_record(records[0], (10 ** 11,))
        err = self._evaluate(workspace, trained, tmp_path, capsys,
                             lambda path: rewrite_checkpoint(path, enlarge_arena), stage=stage)
        assert "(100000000000,)" in err

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    @pytest.mark.parametrize("run_dir, flags", [
        ("trained", ("--embed-dim", "32")),
        ("trained", ("--heads", "1")),
        ("trained", ("--ablation", "tul-l")),
        ("trained", ("--heads", "4", "--ablation", "tul-ea")),
        ("trained", ("--dropout", "0.1")),
        ("trained", ("--lambda-l2", "0.01")),
        ("trained", ("--embed-dim", "32", "--gcn-layers", "3", "--attn-layers", "2",
                     "--heads", "4", "--ablation", "tul-ea", "--time-window", "3600",
                     "--cell-size", "80", "--tau", "3600", "--dropout", "0.1",
                     "--lambda-l2", "0.01", "--learning-rate", "0.005", "--epochs", "9",
                     "--batch-size", "4", "--patience", "1", "--seed", "9",
                     "--dataset", "missing.csv")),
        ("trained_deeper", ("--attn-layers", "1")),
        ("trained_deeper", ("--gcn-layers", "1")),
        ("trained_deeper", ("--attn-layers", "1", "--gcn-layers", "1")),
    ], ids=["dimension", "heads", "ablation", "heads-and-ablation", "dropout", "lambda",
            "every-setting", "fewer-attn-layers", "fewer-gcn-layers", "fewer-layers"])
    def test_other_settings_give_the_training_flags_bytes(self, workspace, request, tmp_path,
                                                         stage, run_dir, flags):
        """The checkpoint's header is the model: under any other valid model,
        training or preprocess settings a stage writes the bytes it writes
        under the flags the checkpoint was trained with."""
        out = tmp_path / stage
        shutil.copytree(request.getfixturevalue(run_dir), out)
        train_flags = {"trained": (), "trained_deeper": DEEPER_FLAGS}[run_dir]
        name = "metrics.txt" if stage == "evaluate" else "embeddings.tsv"
        assert run([stage, "--config", workspace["config"], "--output", str(out),
                    *train_flags]) == 0
        expected = (out / name).read_bytes()
        (out / name).unlink()
        assert run([stage, "--config", workspace["config"], "--output", str(out), *flags]) == 0
        assert (out / name).read_bytes() == expected

    @pytest.mark.parametrize("change", [
        lambda h: h.pop("heads"),
        lambda h: h.update(seed=5),
        lambda h: h.update(heads=2.0),
        lambda h: h.update(heads=True),
        lambda h: h.update(heads=0),
        lambda h: h.update(heads=3),
        lambda h: h.update(ablation="tul-x"),
        lambda h: h.update(time_vocab=7),
    ], ids=["missing-key", "extra-key", "float", "bool", "zero-heads", "not-a-multiple",
            "unknown-ablation", "no-whole-window"])
    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    def test_invalid_header(self, workspace, trained, tmp_path, capsys, stage, change):
        err = self._evaluate(workspace, trained, tmp_path, capsys,
                             lambda path: rewrite_checkpoint(path, lambda h, _: change(h["model"])),
                             stage=stage)
        assert "invalid model header" in err

    @pytest.mark.parametrize("setting, value, family", [
        ("embed_dim", 10 ** 12, "gcn_local_0"), ("gcn_layers", 10 ** 12, "gcn_local_"),
        ("attn_layers", 10 ** 12, "attn"), ("time_vocab", 86400 * 2 ** 20, "time_w")])
    def test_header_sizes_the_records_do_not_bear_out(self, workspace, trained, tmp_path, capsys,
                                                      setting, value, family):
        """A header that would size a huge model exits at the first parameter
        that runs past the arena, having laid out no more than the arena
        holds: the one whose end, in the model's order, passes the arena's
        size."""
        def enlarge(header, records):
            header["model"][setting] = value
        _, header, records = checkpoint_parts((trained / "checkpoint.bin").read_bytes())
        enlarge(header, records)
        end = 0
        for name, shape in parameter_shapes(
                ModelConfig(**header["model"]),
                len(records[CHECKPOINT_RECORDS["m_local.indptr"]]) - 1, len(header["user_ids"])):
            end += math.prod(shape)
            if end > records[0].size:
                break
        assert name.startswith(family)
        err = self._evaluate(workspace, trained, tmp_path, capsys,
                             lambda path: rewrite_checkpoint(path, enlarge))
        assert f"parameter {name!r} of shape" in err and "runs past an arena" in err

    @pytest.mark.parametrize("window", ["600", "3600", "86400"])
    def test_windows_come_from_the_model(self, workspace, trained, tmp_path, window):
        """Sequences preprocessed under more, other or fewer time windows,
        then run through every later stage under two-hour windows, give the
        bytes of a run preprocessed under two-hour windows: the model maps
        point times to its own windows, and preprocess stores none."""
        out, expected = tmp_path / "run", tmp_path / "expected"
        for stage in ("preprocess", "build-graphs", "train", "evaluate", "embed"):
            seconds = window if stage == "preprocess" else "7200"
            assert run([stage, "--config", workspace["config"], "--output", str(out),
                        "--time-window", seconds]) == 0
        shutil.copytree(trained, expected)  # trained under the default 7200 s windows
        for stage in ("evaluate", "embed"):
            assert run([stage, "--config", workspace["config"], "--output", str(expected)]) == 0
        for name in ("checkpoint.bin", "metrics.txt", "embeddings.tsv"):
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    # The parameter records of earlier versions with and without model
    # settings, the model inputs they were saved beside, the checkpoint whose
    # sequence records were padded to the longest trajectory, the one that
    # stored the split, the one that stored the visited cells' ids, the one
    # that listed each parameter's shape and each matrix's and the one whose
    # checksum line was the bare hex digest.
    @pytest.mark.parametrize("magic", [b"TLNKPRM1", b"TLNKPRM2", b"TLNKINP1\n", b"TLNKCKP1\n",
                                       b"TLNKCKP2\n", b"TLNKCKP3\n", b"TLNKCKP4\n",
                                       b"TLNKCKP5\n"])
    def test_checkpoint_of_an_earlier_version(self, workspace, trained, tmp_path, capsys,
                                              magic):
        def overwrite_magic(path):
            path.write_bytes(magic + path.read_bytes()[len(magic):])
        err = self._evaluate(workspace, trained, tmp_path, capsys, overwrite_magic)
        assert "another version" in err and "rerun the 'train' stage" in err

    def test_foreign_file(self, workspace, trained, tmp_path, capsys):
        err = self._evaluate(workspace, trained, tmp_path, capsys,
                             lambda path: path.write_bytes(b"not a checkpoint"))
        assert "not a tulink checkpoint" in err

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    def test_bounding_box_rows_of_earlier_versions(self, workspace, trained, tmp_path,
                                                   capsys, stage):
        """First GCN layers of one row per bounding-box cell, as earlier
        versions trained them, leave the arena longer than the layout that
        one row per visited cell gives."""
        n_cells = mob.load_grid_map(trained / "grid_map.json").n_grids
        rows = sorted({g for s in mob.load_sequences(trained / "sequences.jsonl")
                       for g in s.grid})
        assert len(rows) < n_cells
        _, header, records = checkpoint_parts((trained / "checkpoint.bin").read_bytes())
        widened = records[0].size + 2 * (n_cells - len(rows)) * header["model"]["embed_dim"]

        def widen_first_gcn_layers(header, records):
            arena = []
            for name, values in parameter_views(header, records).items():
                if name in ("gcn_local_0", "gcn_global_0"):
                    wide = np.zeros((n_cells, values.shape[1]))
                    wide[rows] = values
                    values = wide
                arena.append(values.ravel())
            records[0] = np.concatenate(arena)
        err = self._evaluate(workspace, trained, tmp_path, capsys,
                             lambda path: rewrite_checkpoint(path, widen_first_gcn_layers),
                             stage=stage)
        assert (f"an arena of {widened} values for {records[0].size} parameter values"
                in err)

    def test_checkpoint_holds_a_parameter_the_model_lacks(self, workspace, trained, tmp_path,
                                                          capsys):
        """A further attention layer's query weights after the arena's last
        parameter: the model's layout ends before the arena does."""
        _, header, records = checkpoint_parts((trained / "checkpoint.bin").read_bytes())
        n_attn1_q = header["model"]["embed_dim"] ** 2

        def add_a_layer(header, records):
            attn0_q = parameter_views(header, records)["attn0_q"]
            records[0] = np.concatenate([records[0], attn0_q.ravel()])
        err = self._evaluate(workspace, trained, tmp_path, capsys,
                             lambda path: rewrite_checkpoint(path, add_a_layer))
        assert (f"an arena of {records[0].size + n_attn1_q} values for {records[0].size} "
                "parameter values" in err)

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value(self, workspace, trained, tmp_path, capsys, stage, value):
        def poison_link_bias(header, records):
            parameter_views(header, records)["link_b"][0] = value
        err = self._evaluate(workspace, trained, tmp_path, capsys,
                             lambda path: rewrite_checkpoint(path, poison_link_bias), stage=stage)
        assert "'link_b'" in err and "non-finite" in err


class TestConfigResolution:
    def test_flags_beat_file_beat_defaults(self, workspace):
        cfg = resolve_config(workspace["config"], {"embed_dim": 32})
        assert cfg.embed_dim == 32          # flag wins
        assert cfg.batch_size == 8          # file wins
        assert cfg.tau == 21600.0           # default

    def test_defaults_match_published_settings(self):
        cfg = RunConfig()
        assert cfg.embed_dim == 128
        assert cfg.cell_size == 40.0
        assert cfg.tau == 21600.0
        assert cfg.time_window == 7200.0
        assert cfg.gcn_layers == 2
        assert cfg.attn_layers == 3
        assert cfg.heads == 4
        assert cfg.lambda_l2 == 5e-4
        assert cfg.dropout == 0.5
        assert cfg.epochs_max == 80
        assert cfg.batch_size == 16
        assert cfg.patience == 10

    def test_every_ablation_name_round_trips(self):
        for name in ABLATIONS:
            assert RunConfig(ablation=name).model_config().ablation == name

    def test_config_file_comments_and_types(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=9  # comment\nablation=tul-g\ndropout=0.25\n")
        values = load_config_file(cfg)
        assert values == {"seed": 9, "ablation": "tul-g", "dropout": 0.25}

    def test_defaults_are_the_model_and_training_defaults(self):
        assert RunConfig().model_config() == ModelConfig(time_vocab=12)
        assert RunConfig().train_config() == TrainConfig()

    def test_time_window_divisor_enforced(self, tmp_path):
        """By train, which reads the setting, before it reads any artifact."""
        cfg = resolve_config(None, {"time_window": 7000.0, "output_dir": str(tmp_path)})
        with pytest.raises(ConfigError, match="time_window 7000.0 must divide"):
            run_train(cfg)


STAGES = ("preprocess", "build-graphs", "train", "evaluate", "embed")
REMOVED_SETTINGS = ("binarize_adjacency", "scale_full_d", "early_stop_on_loss",
                    "motion_speed_eps", "motion_turn_deg")


def stage_parsers():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return {stage: commands.choices[stage] for stage in STAGES}


def sample_value(name):
    """A valid non-default value of a setting, as typed on the command line."""
    if name == "ablation":
        return "tul-g"
    default = getattr(RunConfig(), name)
    if isinstance(default, str):
        return "x"
    return repr(default // 2 if isinstance(default, int) else default / 2)


class TestFlags:
    """One flag per RunConfig field on every stage, typed from the field."""

    def test_every_field_has_exactly_one_flag_per_stage(self):
        for stage, sub in stage_parsers().items():
            dests = [a.dest for a in sub._actions if a.dest != "help"]
            extra = {"config", "split"} if stage == "evaluate" else {"config"}
            assert sorted(dests) == sorted([f.name for f in fields(RunConfig)] + [*extra])
            for a in sub._actions:
                if a.dest in FIELD_TYPES:
                    assert len(a.option_strings) == 1, a.dest

    @pytest.mark.parametrize("stage", STAGES)
    def test_each_flag_lands_in_its_field_with_its_type(self, stage):
        sub = stage_parsers()[stage]
        for action in sub._actions:
            name = action.dest
            if name not in FIELD_TYPES:
                continue
            raw = sample_value(name)
            args = build_parser().parse_args([stage, action.option_strings[0], raw])
            value = getattr(args, name)
            assert type(value) is FIELD_TYPES[name] and value == FIELD_TYPES[name](raw)
            assert getattr(_config_from_args(args), name) == value
            assert value != getattr(RunConfig(), name), name

    def test_benchmark_flag_spellings(self):
        for stage, sub in stage_parsers().items():
            options = {a.option_strings[0]: a.dest for a in sub._actions}
            for flag, dest in (("--dataset", "dataset"), ("--output", "output_dir"),
                               ("--embed-dim", "embed_dim"), ("--heads", "heads"),
                               ("--attn-layers", "attn_layers"), ("--epochs", "epochs_max")):
                assert options[flag] == dest, (stage, flag)

    @pytest.mark.parametrize("name", REMOVED_SETTINGS)
    def test_removed_setting_is_a_usage_error(self, name, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{name}=1\n")
        assert run(["train", "--config", str(cfg)]) == 1
        assert f"unknown config key {name!r}" in capsys.readouterr().err
        assert run(["train", "--" + name.replace("_", "-"), "1"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


# An invalid value of each setting, under the one stage that reads it. A
# cell size too small for the data's extent or a tau too small for its times
# shows only once preprocess reads the data (1e-305 puts the times past the
# float range, 1e-300 gives interval ids near 1e305).
BAD_SETTINGS = {
    "preprocess": [("cell_size", "nan"), ("cell_size", "inf"), ("cell_size", "1e-300"),
                   ("tau", "nan"), ("tau", "inf"), ("tau", "1e-305"), ("tau", "1e-300")],
    "train": [("time_window", "7000"), ("embed_dim", "0"), ("gcn_layers", "0"),
              ("attn_layers", "0"), ("heads", "0"), ("heads", "-4"), ("heads", "3"),
              ("lambda_l2", "nan"), ("lambda_l2", "-1"), ("dropout", "1"),
              ("learning_rate", "0.5"), ("batch_size", "0"), ("epochs_max", "0"),
              ("patience", "0"), ("seed", "-1"), ("ablation", "bogus")],
}
STAGE_OUTPUTS = {
    "preprocess": ("grid_map.json", "sequences.jsonl", "splits.json", "manifest.json"),
    "build-graphs": ("local_graph.txt", "global_graph.txt"),
    "train": ("checkpoint.bin", "history.tsv"),
    "evaluate": ("metrics.txt",),
    "embed": ("embeddings.tsv",),
}


@pytest.fixture(scope="module")
def linked(trained, workspace, tmp_path_factory):
    """Every stage's outputs under the workspace config's valid settings."""
    out = tmp_path_factory.mktemp("linked") / "out"
    shutil.copytree(trained, out)
    for stage in ("evaluate", "embed"):
        assert run([stage, "--config", workspace["config"], "--output", str(out)]) == 0
    return out


def artifact_bytes(out):
    """Each file's bytes; history.tsv without its seconds column."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    files["history.tsv"] = b"\n".join(line.rsplit(b"\t", 1)[0]
                                      for line in files["history.tsv"].splitlines())
    return files


class TestSettingsPerStage:
    """Each stage checks the settings it reads, before it reads any input,
    and runs as under valid flags whatever the settings it does not read."""

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("reader, name, value", [
        (reader, name, value) for reader, bad in BAD_SETTINGS.items() for name, value in bad])
    def test_invalid_setting(self, workspace, linked, tmp_path, capsys,
                             stage, reader, name, value):
        flag = _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        out = tmp_path / "out"
        if stage == reader:  # no input artifact in the output directory
            code = run([stage, "--config", workspace["config"], "--output", str(out),
                        flag, value])
            err = capsys.readouterr().err
            assert code == 1, err
            assert "config error: " in err, err
            named = set(re.findall(r"\w+", err.split("config error: ")[1])) & set(FIELD_TYPES)
            assert named == {name}, err
            assert "Traceback" not in err
            return
        shutil.copytree(linked, out)
        for artifact in STAGE_OUTPUTS[stage]:
            (out / artifact).unlink()
        code = run([stage, "--config", workspace["config"], "--output", str(out), flag, value])
        assert code == 0, capsys.readouterr().err
        assert artifact_bytes(out) == artifact_bytes(linked)

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("config, flags, message", [
        ("not_a_key=1\n", (), "unknown config key 'not_a_key'"),
        ("heads=two\n", (), "config error: cannot parse heads='two'"),
        ("", ("--tau", "long"), "argument --tau: invalid float value: 'long'"),
    ], ids=["unknown_key", "unparsable_value", "unparsable_flag"])
    def test_usage_error(self, linked, tmp_path, capsys, stage, config, flags, message):
        """Whether the stage reads the setting or not."""
        path = tmp_path / "run.cfg"
        path.write_text(config)
        out = tmp_path / "out"
        shutil.copytree(linked, out)
        assert run([stage, "--config", str(path), "--output", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert artifact_bytes(out) == artifact_bytes(linked)


class TestUnreadableInputs:
    """A missing file, a directory or bytes that are not UTF-8 where a stage
    reads a file end in an error that names the file, never a traceback:
    exit 2 for the dataset or an artifact, exit 1 for a config file."""

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize("stage, role, code", [
        ("preprocess", "dataset", 2),
        ("preprocess", "config", 1),
        ("build-graphs", "sequences.jsonl", 2),
        ("evaluate", "checkpoint.bin", 2),
        ("embed", "checkpoint.bin", 2),
    ])
    def test_exit_code_names_the_file(self, workspace, trained, tmp_path, capsys,
                                      stage, role, code, kind):
        out = tmp_path / "out"
        shutil.copytree(trained, out)
        bad = out / role if "." in role else tmp_path / f"unreadable.{role}"
        if bad.exists():
            bad.unlink()
        if kind == "directory":
            bad.mkdir()
        elif kind == "not-utf8":
            bad.write_bytes(b"user,t,lat,lon\n\xff\xfe,1,2,3\n")
        argv = [stage, "--output", str(out),
                "--config", str(bad) if role == "config" else workspace["config"]]
        if role == "dataset":
            argv += ["--dataset", str(bad)]
        capsys.readouterr()
        assert run(argv) == code
        err = capsys.readouterr().err
        assert bad.name in err and "Traceback" not in err, err


def cut_mid_line(path):
    """Keep the first half of the file, moved off any line boundary."""
    data = path.read_bytes()
    n = len(data) // 2
    while data[n - 1:n] == b"\n":
        n += 1
    path.write_bytes(data[:n])


class TestArtifactErrors:
    """A truncated, corrupt or stale pipeline artifact is a data error naming
    the file and the stage to rerun, not a traceback."""

    def _run(self, workspace, trained, tmp_path, capsys, stage, corrupt, *flags):
        out = tmp_path / "run"
        shutil.copytree(trained, out)
        corrupt(out)
        capsys.readouterr()
        code = run([stage, "--config", workspace["config"], "--output", str(out), *flags])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("name", ["local_graph.txt", "global_graph.txt"])
    def test_truncated_graph_file(self, workspace, trained, tmp_path, capsys, name):
        err = self._run(workspace, trained, tmp_path, capsys, "train",
                        lambda out: cut_mid_line(out / name))
        assert name in err and "'build-graphs'" in err

    @pytest.mark.parametrize("name", ["sequences.jsonl", "splits.json"])
    def test_preprocess_file_cut_mid_line(self, workspace, trained, tmp_path, capsys, name):
        err = self._run(workspace, trained, tmp_path, capsys, "build-graphs",
                        lambda out: cut_mid_line(out / name))
        assert name in err and "'preprocess'" in err

    def test_grid_map_without_fields(self, workspace, trained, tmp_path, capsys):
        err = self._run(workspace, trained, tmp_path, capsys, "build-graphs",
                        lambda out: (out / "grid_map.json").write_text("{}\n"))
        assert "grid_map.json" in err and "'preprocess'" in err

    @pytest.mark.parametrize("key, value", [
        ("cols", "20"), ("cols", 20.5), ("cols", -3), ("cols", True), ("rows", 0),
        ("rows", None), ("cols", 2**70), ("min_lon", "116"), ("max_lat", float("nan")),
        ("min_lat", False), ("cell_size", float("inf")), ("cell_size", 0), ("cell_size", [40]),
    ])
    def test_grid_map_field_of_wrong_type_or_range(self, workspace, trained, tmp_path, capsys,
                                                   key, value):
        def edit(out):
            path = out / "grid_map.json"
            d = json.loads(path.read_text())
            d[key] = value
            path.write_text(json.dumps(d))
        err = self._run(workspace, trained, tmp_path, capsys, "build-graphs", edit)
        assert "grid_map.json" in err and "'preprocess'" in err and key in err
        assert "sequences.jsonl" not in err

    def test_checkpoint_names_a_parameter_twice(self, workspace, trained, tmp_path, capsys):
        """link_w's values stored a second time, after the arena's last
        parameter, are values that no parameter of the model views."""
        def repeat_link_w(header, records):
            shape = parameter_views(header, records)["link_w"].shape
            values = np.random.default_rng(0).normal(size=shape)
            records[0] = np.concatenate([records[0], values.ravel()])
        err = self._run(workspace, trained, tmp_path, capsys, "evaluate",
                        lambda out: rewrite_checkpoint(out / "checkpoint.bin", repeat_link_w))
        assert "checkpoint.bin" in err and "'train'" in err and "parameter values" in err

    def test_bytes_after_the_last_checkpoint_record(self, workspace, trained, tmp_path,
                                                    capsys):
        err = self._run(workspace, trained, tmp_path, capsys, "evaluate",
                        lambda out: rewrite_checkpoint(out / "checkpoint.bin",
                                                       lambda _, records: records.append(bytes(16))))
        assert "checkpoint.bin" in err and "'train'" in err and "16 bytes after" in err

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    def test_checkpoint_entries_past_the_index_pointer(self, workspace, trained, tmp_path,
                                                       capsys, stage):
        """One more entry in m_global's data and indices than its index
        pointer counts, which scipy's own format check drops without a
        word."""
        err = self._run(workspace, trained, tmp_path, capsys, stage,
                        lambda out: rewrite_checkpoint(out / "checkpoint.bin",
                                                       _entry_past_the_index_pointer))
        assert "checkpoint.bin" in err and "'train'" in err
        assert "m_global holds" in err and "but its index pointer ends at" in err

    @pytest.mark.parametrize("stage", ["build-graphs", "train"])
    def test_sequences_without_their_last_trajectories(self, workspace, trained, tmp_path,
                                                       capsys, stage):
        """The last three trajectories left out, under a renewed checksum."""
        def drop_last_three(seqs):
            del seqs[-3:]
        err = self._run(workspace, trained, tmp_path, capsys, stage,
                        lambda out: edit_trajectories(out / "sequences.jsonl", drop_last_three))
        assert "splits.json" in err and "sequences.jsonl" in err and "'preprocess'" in err

    @pytest.mark.parametrize("stage", ["build-graphs", "train"])
    def test_split_moves_a_user_out_of_training(self, workspace, trained, tmp_path, capsys,
                                                stage):
        def move_first_user_to_test(out):
            path = out / "splits.json"
            split = json.loads(path.read_text())
            user = split["train"][0].rsplit(":", 1)[0]
            moved = [t for t in split["train"] if t.rsplit(":", 1)[0] == user]
            split["train"] = [t for t in split["train"] if t not in moved]
            split["test"] += moved
            path.write_text(json.dumps(split))
        err = self._run(workspace, trained, tmp_path, capsys, stage, move_first_user_to_test)
        assert "splits.json" in err and "sequences.jsonl" in err and "'preprocess'" in err

    @pytest.mark.parametrize("stage", ["build-graphs", "train", "evaluate", "embed"])
    def test_split_tests_a_training_trajectory(self, workspace, trained, tmp_path, capsys,
                                               stage):
        def also_test_first_training_id(out):
            path = out / "splits.json"
            split = json.loads(path.read_text())
            split["test"].append(split["train"][0])
            path.write_text(json.dumps(split))
        err = self._run(workspace, trained, tmp_path, capsys, stage,
                        also_test_first_training_id)
        assert "splits.json" in err and "sequences.jsonl" in err and "'preprocess'" in err

    @pytest.mark.parametrize("stage", ["train", "evaluate"])
    @pytest.mark.parametrize("name, section", [
        ("global_graph.txt", "adjacency"), ("global_graph.txt", "features"),
        ("local_graph.txt", "adjacency")])
    def test_graph_section_larger_than_header(self, workspace, trained, tmp_path, capsys,
                                              stage, name, section):
        """One more row, empty, than the roster has nodes."""
        def widen(m):
            m["indptr"] = np.r_[m["indptr"], m["indptr"][-1]]
        err = self._run(workspace, trained, tmp_path, capsys, stage,
                        lambda out: edit_graph_matrix(out / name, section, widen))
        assert name in err and "'build-graphs'" in err and f"{section} has" in err
        assert "but the roster has" in err

    @pytest.mark.parametrize("stage", ["train", "evaluate", "embed"])
    @pytest.mark.parametrize("name, corruption", [
        (name, corruption) for name in ("global_graph.txt", "local_graph.txt")
        for corruption, (matrix, _, _) in GRAPH_CORRUPTIONS.items()
        if name == "global_graph.txt" or matrix == "adjacency"])
    def test_malformed_graph(self, workspace, trained, tmp_path, capsys, stage, name,
                             corruption):
        """A graph file whose checksum matches but that breaks the graph's
        invariants, such as an edge below the diagonal or a negative weight."""
        matrix, edit, words = GRAPH_CORRUPTIONS[corruption]
        err = self._run(workspace, trained, tmp_path, capsys, stage,
                        lambda out: edit_graph_matrix(out / name, matrix, edit))
        assert name in err and words in err and "'build-graphs'" in err

    @pytest.mark.parametrize("name", ["local_graph.txt", "global_graph.txt"])
    def test_graph_file_of_an_earlier_version(self, workspace, trained, tmp_path, capsys, name):
        """Version 3 held each matrix as COO text."""
        def relabel(out):
            path = out / name
            path.write_bytes(b"tulink-graph 3\n" + path.read_bytes().split(b"\n", 1)[1])
        err = self._run(workspace, trained, tmp_path, capsys, "train", relabel)
        assert name in err and "graph file of another version" in err and "'build-graphs'" in err

    @pytest.mark.parametrize("stage", ["train", "evaluate"])
    def test_global_features_wider_than_the_local_graph(self, workspace, trained, tmp_path,
                                                        capsys, stage):
        """One more feature column than the local graph has nodes, empty and
        under a renewed checksum: the columns are no longer its node rows."""
        def widen(header, records):
            header["feature_columns"] += 1
        err = self._run(workspace, trained, tmp_path, capsys, stage,
                        lambda out: rewrite_graph(out / "global_graph.txt", widen))
        assert "global_graph.txt" in err and "local_graph.txt" in err
        assert "feature columns" in err and "'build-graphs'" in err

    def test_graphs_older_than_sequences(self, workspace, trained, tmp_path, capsys):
        def resplit(out):
            assert run(["preprocess", "--config", workspace["config"], "--output", str(out),
                        "--tau", "7200"]) == 0
        err = self._run(workspace, trained, tmp_path, capsys, "train", resplit, "--tau", "7200")
        assert "global_graph.txt" in err and "sequences.jsonl" in err
        assert "'build-graphs'" in err

    def test_graphs_older_than_grid_map(self, workspace, trained, tmp_path, capsys):
        def regrid(out):
            assert run(["preprocess", "--config", workspace["config"], "--output", str(out),
                        "--cell-size", "80"]) == 0
        err = self._run(workspace, trained, tmp_path, capsys, "train", regrid,
                        "--cell-size", "80")
        assert "local_graph.txt" in err and "grid_map.json" in err
        assert "'build-graphs'" in err

    @pytest.mark.parametrize("stage", ["train", "evaluate"])
    def test_graphs_older_than_visited_cells(self, workspace, trained, tmp_path, capsys, stage):
        """sequences.jsonl with one point moved to a cell no trajectory
        visited, so that the local graph's roster is no longer its cells."""
        def move_a_point(out):
            visited = set(G.load_local_graph(out / "local_graph.txt").cells.tolist())
            unvisited = min(set(range(len(visited) + 1)) - visited)
            rewrite_sequences(out / "sequences.jsonl", lambda header, records: records[
                SEQUENCE_RECORDS.index("grid")].__setitem__(0, unvisited))
        err = self._run(workspace, trained, tmp_path, capsys, stage, move_a_point)
        assert "local_graph.txt" in err and "sequences.jsonl" in err
        assert "different visited cells" in err and "'build-graphs'" in err

    @pytest.mark.parametrize("stage", ["train", "evaluate", "embed"])
    def test_graph_user_roster_differs(self, workspace, trained, tmp_path, capsys, stage):
        def rename_a_user(header, records):
            users = header["user_ids"]
            users[users.index("user03")] = "userXX"
        err = self._run(workspace, trained, tmp_path, capsys, stage,
                        lambda out: rewrite_graph(out / "global_graph.txt", rename_a_user))
        assert "global_graph.txt" in err and "different users" in err
        assert "'build-graphs'" in err

    @pytest.mark.parametrize("stage, field, value", [
        ("build-graphs", "grid", 1_000_000), ("build-graphs", "grid", -1),
        ("build-graphs", "grid", 2**62), ("train", "state", 99), ("train", "state", -2**63)])
    def test_bad_id_in_sequences(self, workspace, trained, tmp_path, capsys,
                                 stage, field, value):
        k = SEQUENCE_RECORDS.index(field)
        err = self._run(workspace, trained, tmp_path, capsys, stage,
                        lambda out: rewrite_sequences(out / "sequences.jsonl", lambda h, r:
                                                      r[k].__setitem__(-1, value)))
        assert "sequences.jsonl" in err and "'preprocess'" in err
        assert f"{field} id {value!r}" in err

    @pytest.mark.parametrize("stage", ["build-graphs", "train"])
    def test_duplicated_record_in_sequences(self, workspace, trained, tmp_path, capsys, stage):
        err = self._run(workspace, trained, tmp_path, capsys, stage,
                        lambda out: edit_trajectories(out / "sequences.jsonl",
                                                      lambda seqs: seqs.append(seqs[0])))
        first = next(iter(mob.load_sequences(trained / "sequences.jsonl")))
        assert "sequences.jsonl" in err and "'preprocess'" in err
        assert f"'{first.traj_id}'" in err

    @pytest.mark.parametrize("stage", ["build-graphs", "evaluate"])
    def test_swapped_records_in_sequences(self, workspace, trained, tmp_path, capsys, stage):
        err = self._run(workspace, trained, tmp_path, capsys, stage,
                        lambda out: edit_trajectories(out / "sequences.jsonl",
                                                      lambda seqs: seqs.insert(0, seqs.pop(1))))
        first, second = mob.load_sequences(trained / "sequences.jsonl").traj_ids[:2]
        assert "sequences.jsonl" in err and "'preprocess'" in err
        assert f"trajectory '{first}' is not after '{second}'" in err

    @pytest.mark.parametrize("dtype", ["float64", "int32", "uint64", "bool", ">i8"])
    @pytest.mark.parametrize("stage", ["build-graphs", "evaluate"])
    def test_interval_not_an_int64(self, workspace, trained, tmp_path, capsys, stage, dtype):
        """The interval record as another type, its values unchanged where
        the type holds them."""
        k = SEQUENCE_RECORDS.index("interval")
        err = self._run(workspace, trained, tmp_path, capsys, stage,
                        lambda out: rewrite_sequences(out / "sequences.jsonl", lambda h, r:
                                                      r.__setitem__(k, r[k].astype(dtype))))
        assert "sequences.jsonl" in err and "'preprocess'" in err
        assert "interval of shape" in err and "where int64 entries belong" in err

    @pytest.mark.parametrize("stage, change", [
        ("build-graphs", lambda h, r: r.__setitem__(4, r[4].reshape(1, -1))),
        ("train", lambda h, r: r.__setitem__(5, r[5][:-1])),
        ("train", lambda h, r: r.__setitem__(3, r[3][:-1])),
        ("build-graphs", lambda h, r: r.clear()),
        ("build-graphs", lambda h, r: r[2].__setitem__(1, 0)),
        ("build-graphs", lambda h, r: r.append(np.zeros_like(r[4]))),
    ], ids=["grid-not-a-list", "state-short", "t-short", "empty-record", "no-points",
            "stored-windows"])
    def test_misshapen_record_in_sequences(self, workspace, trained, tmp_path, capsys,
                                           stage, change):
        """A two-dimensional grid record, a state or time short, no record,
        a sequence of no point, or a further record per point (as earlier
        versions stored windows), under a renewed checksum."""
        err = self._run(workspace, trained, tmp_path, capsys, stage,
                        lambda out: rewrite_sequences(out / "sequences.jsonl", change))
        assert "sequences.jsonl" in err and "'preprocess'" in err

    @pytest.mark.parametrize("stage", ["build-graphs", "train"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_time_that_is_not_finite(self, workspace, trained, tmp_path, value, stage):
        """The first point's time: before it was checked, NaN and either
        infinity passed build-graphs, and train died with a traceback when
        it cast the time to a window. Run forked, so a signal fails the
        test alone."""
        out = tmp_path / "run"
        shutil.copytree(trained, out)
        rewrite_sequences(out / "sequences.jsonl", lambda header, records:
                          records[SEQUENCE_RECORDS.index("t")].__setitem__(0, value))
        result = run_forked([[stage, "--config", workspace["config"], "--output", str(out)]])
        assert isinstance(result, list), result
        [(code, err)] = result
        assert code == 2 and "Traceback" not in err, err
        assert "sequences.jsonl" in err and "'preprocess'" in err
        assert f"t {value!r} is not a finite time" in err

    @pytest.mark.parametrize("stage", ["build-graphs", "train"])
    def test_json_lines_of_earlier_versions(self, workspace, trained, tmp_path, capsys, stage):
        """The trajectories as earlier versions wrote them, a JSON record per
        line."""
        def as_json_lines(out):
            path = out / "sequences.jsonl"
            path.write_text("".join(
                json.dumps({"user": s.user_id, "interval": s.interval_index, "t": s.t,
                            "grid": s.grid, "state": s.state}, sort_keys=True) + "\n"
                for s in mob.load_sequences(path)))
        err = self._run(workspace, trained, tmp_path, capsys, stage, as_json_lines)
        assert "sequences.jsonl" in err and "'preprocess'" in err
        assert "is not a tulink sequence file" in err


def reformat_json(path):
    """The same JSON value in other bytes."""
    path.write_text(json.dumps(json.loads(path.read_text())))


def shift_first_time(path):
    def shift(header, records):
        records[SEQUENCE_RECORDS.index("t")][0] += 1.0
    rewrite_sequences(path, shift)


def double_weights(path):
    edit_graph_matrix(path, "adjacency", lambda m: m["data"].__imul__(2))


# A rewrite of each file the model inputs are built from that still parses
# and passes every check, but changes the file's bytes.
STALE_REWRITES = {
    "grid_map.json": reformat_json,
    "sequences.jsonl": shift_first_time,
    "splits.json": reformat_json,
    "local_graph.txt": double_weights,
    "global_graph.txt": double_weights,
}


class TestStaleInputs:
    """evaluate and embed run on the model inputs train saved, and only while
    every file they were built from keeps the bytes train read."""

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    @pytest.mark.parametrize("name", sorted(STALE_REWRITES))
    def test_rewrite_that_parses_is_refused(self, workspace, trained, tmp_path, capsys,
                                            stage, name):
        out = tmp_path / "run"
        shutil.copytree(trained, out)
        STALE_REWRITES[name](out / name)
        _load_model_inputs(StagePaths(out))  # parses as before
        code = run([stage, "--config", workspace["config"], "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert name in err and "'train'" in err and "Traceback" not in err
        assert not any((out / f).exists() for f in ("metrics.txt", "embeddings.tsv"))

    def test_byte_identical_rerun_of_the_setup_stages(self, workspace, linked, tmp_path,
                                                      capsys):
        out = tmp_path / "run"
        shutil.copytree(linked, out)
        for stage in ("preprocess", "build-graphs", "evaluate", "embed"):
            assert run([stage, "--config", workspace["config"], "--output", str(out)]) == 0
        capsys.readouterr()
        assert artifact_bytes(out) == artifact_bytes(linked)

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    def test_deleted_checkpoint(self, workspace, trained, tmp_path, capsys, stage):
        out = tmp_path / "run"
        shutil.copytree(trained, out)
        (out / "checkpoint.bin").unlink()
        assert run([stage, "--config", workspace["config"], "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "checkpoint.bin" in err and "run the 'train' stage first" in err

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    def test_checkpoint_of_other_data_is_refused(self, workspace, trained, tmp_path, capsys,
                                                 stage):
        """A checkpoint trained on data with one point's time shifted has the
        same parameter shapes; copied beside this run's files, it is not
        scored against them."""
        other = tmp_path / "other"
        shutil.copytree(trained, other)
        shift_first_time(other / "sequences.jsonl")
        assert run(["train", "--config", workspace["config"], "--output", str(other)]) == 0
        out = tmp_path / "run"
        shutil.copytree(trained, out)
        shutil.copy(other / "checkpoint.bin", out / "checkpoint.bin")
        capsys.readouterr()
        assert run([stage, "--config", workspace["config"], "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sequences.jsonl changed" in err and "checkpoint.bin" in err
        assert "'train'" in err and "Traceback" not in err
        assert not any((out / f).exists() for f in ("metrics.txt", "embeddings.tsv"))

    def test_evaluate_and_embed_parse_no_upstream_file(self, workspace, linked, tmp_path,
                                                       capsys, monkeypatch):
        """The saved inputs serve both stages: no sequence or graph parse and
        no model-input build, and the bytes of the full parse."""
        out = tmp_path / "run"
        shutil.copytree(linked, out)
        for name in ("metrics.txt", "embeddings.tsv"):
            (out / name).unlink()

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate and embed must not build the model inputs")

        for module, name in ((mob, "load_sequences"), (G, "load_local_graph"),
                             (G, "load_global_graph"), (cli, "build_model_inputs")):
            monkeypatch.setattr(module, name, refuse)
        for stage in ("evaluate", "embed"):
            assert run([stage, "--config", workspace["config"], "--output", str(out)]) == 0
        capsys.readouterr()
        assert artifact_bytes(out) == artifact_bytes(linked)


def assert_same_arrays(got, expected, what):
    assert type(got) is type(expected), what
    if isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype and got.shape == expected.shape, what
        assert np.array_equal(got, expected), what
    elif sp.issparse(expected):
        assert got.shape == expected.shape, what
        for part in ("data", "indices", "indptr"):
            assert_same_arrays(getattr(got, part), getattr(expected, part), f"{what}.{part}")
    else:
        assert got == expected, what
        if isinstance(expected, list):
            assert list(map(type, got)) == list(map(type, expected)), what


@pytest.mark.parametrize("text, twins", [
    (synth.checkin_style(n_users=12, seed=5), True),
    (synth.disjoint_regions(n_users=4, subtrajs_per_user=6, seed=3), False),
], ids=["checkin-12u", "regions"])
def test_saved_model_inputs_equal_the_built_ones(tmp_path, text, twins):
    """Field by field, dtypes and CSR arrays included, with the sha256 of
    each file they were built from; the split derived from the saved labels
    is the one train ran on."""
    data, out = tmp_path / "data.csv", tmp_path / "out"
    data.write_text(text)
    for stage in ("preprocess", "build-graphs", "train"):
        assert run([stage, "--dataset", str(data), "--output", str(out), "--embed-dim", "8",
                    "--heads", "2", "--attn-layers", "1", "--epochs", "1"]) == 0, stage
    built, split, _ = _load_model_inputs(StagePaths(out))
    _, saved, sources = load_checkpoint(out / "checkpoint.bin")
    saved_split = mob.chronological_split(saved.labels)
    assert (built.traj_rows.max() + 1 < built.n_traj) == twins
    for f in fields(ModelInputs):
        assert_same_arrays(getattr(saved, f.name), getattr(built, f.name), f.name)
    for f in fields(DatasetSplit):
        assert_same_arrays(getattr(saved_split, f.name), getattr(split, f.name), f.name)
    names = ("grid_map.json", "sequences.jsonl", "splits.json", "local_graph.txt",
             "global_graph.txt")
    assert sources == {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


def built_model_inputs(text, root, *flags):
    """The model inputs that train builds from a dataset, through the files
    preprocess and build-graphs write, or None when either stage exits
    other than 0."""
    data, out = root / "data.csv", root / "out"
    data.write_text(text)
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        for stage in ("preprocess", "build-graphs"):
            if run([stage, "--dataset", str(data), "--output", str(out), *flags]):
                return None
    return _load_model_inputs(StagePaths(out))[0]


def assert_canonical_csr(inputs):
    """Each CSR matrix holds each row's column indices ascending and
    distinct, by scipy's test on a matrix built afresh from the arrays, so
    no flag cached by the writer answers for it."""
    for name in ("m_local", "m_global", "x_global"):
        m = getattr(inputs, name)
        assert sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape).has_canonical_format, name


@pytest.mark.parametrize("text", [
    synth.disjoint_regions(n_users=4, subtrajs_per_user=6, seed=3),
    synth.checkin_style(n_users=12, seed=5),
    synth.checkin_style(n_users=40, seed=1),
], ids=["regions", "checkin-12u", "checkin-40u"])
def test_built_matrices_are_canonical_csr(tmp_path, text):
    """What load_checkpoint requires, the writer guarantees:
    symmetric_normalize, twin_quotient and build_global_graph sort each
    row's indices, and ``csr_rows`` keeps their order."""
    inputs = built_model_inputs(text, tmp_path)
    assert inputs is not None and inputs.traj_rows.max() + 1 <= inputs.n_traj
    assert_canonical_csr(inputs)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dataset=fuzz_datasets())
def test_built_matrices_are_canonical_csr_on_odd_data(dataset):
    """The same on the odd datasets of test_fuzz.py: poles, the
    antimeridian, repeated times and places, extreme cells and intervals."""
    text, flags = dataset
    with tempfile.TemporaryDirectory() as tmp:
        inputs = built_model_inputs(text, Path(tmp), *flags)
    if inputs is not None:
        assert_canonical_csr(inputs)


# The first stage that reads each artifact.
FIRST_READER = {
    "grid_map.json": "build-graphs",
    "sequences.jsonl": "build-graphs",
    "splits.json": "build-graphs",
    "local_graph.txt": "train",
    "global_graph.txt": "train",
    "checkpoint.bin": "evaluate",
}


class TestTruncationFaults:
    """An artifact cut at any offset makes the first stage reading it exit 2
    naming the file. Only cuts that drop a non-whitespace byte count: a cut
    trailing newline changes nothing."""

    @pytest.mark.parametrize("name", sorted(FIRST_READER))
    @settings(max_examples=10, deadline=None)
    @given(fraction=st.floats(0.0, 1.0, exclude_max=True))
    def test_cut_at_random_offset(self, workspace, trained, name, fraction):
        data = (trained / name).read_bytes()
        offset = int(fraction * len(data))
        assume(data[offset:].strip())
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            shutil.copytree(trained, out)
            (out / name).write_bytes(data[:offset])
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run([FIRST_READER[name], "--config", workspace["config"],
                            "--output", str(out)])
        assert code == 2, err.getvalue()
        assert name in err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestByteFlipFaults:
    """Any one byte of checkpoint.bin changed makes evaluate and embed exit 2
    naming the file, and any one byte of a graph file makes train do so:
    most flips leave a file that would still parse, so the checksum catches
    them."""

    @pytest.mark.parametrize("name", ["local_graph.txt", "global_graph.txt"])
    @settings(max_examples=10, deadline=None)
    @given(fraction=st.floats(0.0, 1.0, exclude_max=True), mask=st.integers(1, 255))
    # In the workspace's 4.1 and 3.7 kB files: the version line, the checksum
    # line, the header (n_grids; the checksum), a record (a trajectory id) and
    # a record.
    @example(fraction=0.0, mask=1)
    @example(fraction=0.02, mask=1)
    @example(fraction=0.025, mask=1)
    @example(fraction=0.065, mask=1)
    @example(fraction=0.5, mask=1)
    def test_flip_one_byte_of_a_graph_file(self, workspace, trained, name, fraction, mask):
        data = bytearray((trained / name).read_bytes())
        data[int(fraction * len(data))] ^= mask
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            shutil.copytree(trained, out)
            (out / name).write_bytes(data)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(["train", "--config", workspace["config"], "--output", str(out)])
        assert code == 2, err.getvalue()
        assert name in err.getvalue() and "'build-graphs'" in err.getvalue()
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=10, deadline=None)
    @given(fraction=st.floats(0.0, 1.0, exclude_max=True), mask=st.integers(1, 255))
    # In the workspace's 5.5 kB file: the version line, the checksum line, the
    # roster, the user record, a time and the last record, state.
    @example(fraction=0.0, mask=1)
    @example(fraction=0.01, mask=1)
    @example(fraction=0.02, mask=1)
    @example(fraction=0.05, mask=1)
    @example(fraction=0.5, mask=1)
    @example(fraction=0.999, mask=1)
    def test_flip_one_byte_of_the_sequence_file(self, workspace, trained, fraction, mask):
        data = bytearray((trained / "sequences.jsonl").read_bytes())
        data[int(fraction * len(data))] ^= mask
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            shutil.copytree(trained, out)
            (out / "sequences.jsonl").write_bytes(data)
            for stage in ("build-graphs", "train"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = run([stage, "--config", workspace["config"], "--output", str(out)])
                assert code == 2, (stage, err.getvalue())
                assert "sequences.jsonl" in err.getvalue() and "'preprocess'" in err.getvalue()
                assert "Traceback" not in err.getvalue()

    @settings(max_examples=10, deadline=None)
    @given(fraction=st.floats(0.0, 1.0, exclude_max=True), mask=st.integers(1, 255))
    # In the workspace's 66 kB file: the magic line, the checksum, a source
    # digest, a trajectory id ("user01:0" read as "user00:0"), a parameter
    # value and the last record, labels.
    @example(fraction=0.0, mask=1)
    @example(fraction=0.0005, mask=1)
    @example(fraction=0.0042, mask=1)
    @example(fraction=0.01171, mask=1)
    @example(fraction=0.1, mask=1)
    @example(fraction=0.999, mask=1)
    def test_flip_one_byte(self, workspace, trained, fraction, mask):
        data = bytearray((trained / "checkpoint.bin").read_bytes())
        data[int(fraction * len(data))] ^= mask
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            shutil.copytree(trained, out)
            (out / "checkpoint.bin").write_bytes(data)
            for stage in ("evaluate", "embed"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = run([stage, "--config", workspace["config"], "--output", str(out)])
                assert code == 2, (stage, err.getvalue())
                assert "checkpoint.bin" in err.getvalue() and "'train'" in err.getvalue()
                assert "Traceback" not in err.getvalue()


def _reverse(r):
    r[:] = r[::-1].copy()


def _repeat_first(r):
    r[1] = r[0]


def _swap_first_two(r):
    r[:2] = r[1::-1].copy()


def _first_to_max(r):
    r[0] = r.max()


def _first_to_0(r):
    r[0] = 0


RECORD_EDITS = {"reversed": _reverse, "first-repeated": _repeat_first,
                "first-two-swapped": _swap_first_two, "first-set-to-max": _first_to_max,
                "first-set-to-0": _first_to_0}
ID_EDITS = {"repeated": lambda ids: ids.__setitem__(1, ids[0]),
            "as-ints": lambda ids: ids.__setitem__(slice(None), range(len(ids))),
            "reversed": lambda ids: ids.reverse()}


def _edit_record(k, edit, header, records):
    edit(records[k])


def _edit_ids(field, edit, header, records):
    edit(header[field])


def _entry_past_the_index_pointer(header, records):
    """A checkpoint's m_global with its first entry repeated after its last,
    past the end of its index pointer."""
    for part in ("data", "indices"):
        k = CHECKPOINT_RECORDS[f"m_global.{part}"]
        records[k] = np.r_[records[k], records[k][:1]]


# Each edit of a checkpoint's header and records, by name: every edit of
# RECORD_EDITS on every record, the parameter arena included, then the
# header edits.
CHECKPOINT_EDITS = {
    **{f"{record}-{name}": functools.partial(_edit_record, k, edit)
       for record, k in {"arena": 0, **CHECKPOINT_RECORDS}.items()
       for name, edit in RECORD_EDITS.items()},
    **{f"{field}-{name}": functools.partial(_edit_ids, field, edit)
       for field in ("traj_ids", "user_ids") for name, edit in ID_EDITS.items()},
    "sources-zeroed": lambda header, records: header.update(
        sources=dict.fromkeys(header["sources"], "0" * 64)),
    "m_global-entry-past-the-index-pointer": _entry_past_the_index_pointer,
}


def broken_invariant(header, records):
    """The first fact that save_checkpoint guarantees and ``_check_inputs``
    documents which a checkpoint's header and records break, found by plain
    loops, or None: distinct str ids, canonical CSR matrices with finite
    entries, finite point times, trajectory lengths of at least 1 adding up
    to the points, every index within what it indexes, trajectory classes
    numbered by first appearance and labels in user order. Each matrix's
    shape is derived as the loader derives it: a row per indptr entry but
    the last, m_local and m_global square, x_global as wide as m_local and
    with m_global's rows."""
    for name in ("traj_ids", "user_ids"):
        if any(type(i) is not str for i in header[name]) or \
                len(set(header[name])) != len(header[name]):
            return name
    r = {name: records[k].tolist() for name, k in CHECKPOINT_RECORDS.items()}
    n_local, k = len(r["m_local.indptr"]) - 1, len(r["m_global.indptr"]) - 1
    shapes = {"m_local": (n_local, n_local), "m_global": (k, k), "x_global": (k, n_local)}
    for name, (n_rows, n_cols) in shapes.items():
        indptr, indices = r[f"{name}.indptr"], r[f"{name}.indices"]
        if (len(indptr) != n_rows + 1 or indptr[0] != 0 or indptr[-1] != len(indices)
                or any(a > b for a, b in zip(indptr, indptr[1:]))):
            return f"{name}.indptr"
        for a, b in zip(indptr, indptr[1:]):
            row = indices[a:b]
            if row != sorted(set(row)) or any(not 0 <= c < n_cols for c in row):
                return f"{name}.indices"
        if not all(math.isfinite(v) for v in r[f"{name}.data"]):
            return f"{name}.data"
    if not all(math.isfinite(t) for t in r["times"]):
        return "times"
    if min(r["lengths"]) < 1 or sum(r["lengths"]) != len(r["times"]):
        return "lengths"
    limits = {"grid_idx": n_local, "state_idx": mob.MOTION_STATES, "traj_rows": k,
              "labels": len(header["user_ids"])}
    for name, limit in limits.items():
        if any(not 0 <= v < limit for v in r[name]):
            return name
    classes = r["traj_rows"]
    if classes[0] != 0 or any(c > max(classes[:i]) + 1 for i, c in enumerate(classes) if i):
        return "traj_rows"
    if r["labels"] != sorted(r["labels"]):
        return "labels"
    return None


def run_forked(argvs, seconds=60):
    """``main`` on each argument list in turn, in a child forked from this
    process: [(exit code, standard error)] per run, or the text of an
    exception that escaped. Raises AssertionError when a signal ends the
    child, so that a segmentation fault fails one test and not the run; an
    alarm ends a child still running after ``seconds``."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child
        signal.alarm(seconds)
        os.close(read_end)
        try:
            result = []
            for argv in argvs:
                err = io.StringIO()
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    result.append([main(argv), err.getvalue()])
        # Reported, not raised: the child must reach os._exit, never the
        # test runner's frames it inherited.
        except BaseException:
            result = traceback.format_exc()
        with os.fdopen(write_end, "w") as fh:
            json.dump(result, fh)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    assert not os.WIFSIGNALED(status), f"signal {os.WTERMSIG(status)}"
    return json.loads(text)


class TestCheckpointRecordFuzz:
    """Each of a fixed set of edits to a checkpoint's header or records,
    under a renewed checksum, then evaluate and embed in a forked child:
    each exits 0, or 2 naming the checkpoint and the train stage, with no
    traceback and no signal, and an edit that breaks what the writer
    guarantees (``broken_invariant``) exits 2."""

    @pytest.mark.parametrize("edit", CHECKPOINT_EDITS.values(), ids=CHECKPOINT_EDITS.keys())
    def test_edit_exits_0_or_2(self, workspace, trained, tmp_path, edit):
        out = tmp_path / "run"
        shutil.copytree(trained, out)
        rewrite_checkpoint(out / "checkpoint.bin", edit)
        broken = broken_invariant(*checkpoint_parts((out / "checkpoint.bin").read_bytes())[1:])
        result = run_forked([[stage, "--config", workspace["config"], "--output", str(out)]
                             for stage in ("evaluate", "embed")])
        assert isinstance(result, list), result
        for code, err in result:
            assert code in (0, 2) and "Traceback" not in err, err
            assert code == 0 or ("checkpoint.bin" in err and "'train'" in err), err
            assert code == 2 or broken is None, broken


def _edit_field(field, edit, header, records):
    header[field] = edit(header[field])


COUNT_EDITS = {"doubled": lambda v: 2 * v, "set-to-0": lambda v: 0, "as-float": float}
# Each edit of a graph file's header and records, as (file, edit) by name:
# every edit of RECORD_EDITS on every record, of ID_EDITS on the ids and of
# COUNT_EDITS on the header's count, then the other kind.
GRAPH_EDITS = {
    **{f"{name}-{record}-{edit_name}": (name, functools.partial(_edit_record, k, edit))
       for name in ("local_graph.txt", "global_graph.txt")
       for k, record in enumerate(GRAPH_RECORDS[name.split("_")[0]])
       for edit_name, edit in RECORD_EDITS.items()},
    **{f"global_graph.txt-{field}-{name}": ("global_graph.txt",
                                            functools.partial(_edit_ids, field, edit))
       for field in ("traj_ids", "user_ids") for name, edit in ID_EDITS.items()},
    **{f"{name}-{field}-{edit_name}": (name, functools.partial(_edit_field, field, edit))
       for name, field in (("local_graph.txt", "n_grids"), ("global_graph.txt", "feature_columns"))
       for edit_name, edit in COUNT_EDITS.items()},
    **{f"{name}-kind-swapped": (name, functools.partial(
        _edit_field, "kind", {"local": "global", "global": "local"}.get))
       for name in ("local_graph.txt", "global_graph.txt")},
}


class TestGraphRecordFuzz:
    """Each of a fixed set of edits to a graph file's header or records,
    under a renewed checksum, then train in a forked child: it exits 0, or 2
    naming the file and the build-graphs stage, with no traceback and no
    signal."""

    @pytest.mark.parametrize("name, edit", GRAPH_EDITS.values(), ids=GRAPH_EDITS.keys())
    def test_edit_exits_0_or_2(self, workspace, trained, tmp_path, name, edit):
        out = tmp_path / "run"
        shutil.copytree(trained, out)
        rewrite_graph(out / name, edit)
        result = run_forked([["train", "--config", workspace["config"], "--output", str(out)]])
        assert isinstance(result, list), result
        [(code, err)] = result
        assert code in (0, 2) and "Traceback" not in err, err
        assert code == 0 or (name in err and "'build-graphs'" in err), err


# Each edit of a sequence file's header and records, by name: every edit of
# RECORD_EDITS on every record, then of ID_EDITS on the roster.
SEQUENCE_EDITS = {
    **{f"{record}-{name}": functools.partial(_edit_record, k, edit)
       for k, record in enumerate(SEQUENCE_RECORDS) for name, edit in RECORD_EDITS.items()},
    **{f"roster-{name}": functools.partial(_edit_ids, "roster", edit)
       for name, edit in ID_EDITS.items()},
}


class TestSequenceRecordFuzz:
    """Each of a fixed set of edits to the sequence file's header or
    records, under a renewed checksum, then build-graphs and train in a
    forked child: each exits 0, or 2 naming the file and the preprocess
    stage, with no traceback and no signal."""

    @pytest.mark.parametrize("edit", SEQUENCE_EDITS.values(), ids=SEQUENCE_EDITS.keys())
    def test_edit_exits_0_or_2(self, workspace, trained, tmp_path, edit):
        out = tmp_path / "run"
        shutil.copytree(trained, out)
        rewrite_sequences(out / "sequences.jsonl", edit)
        result = run_forked([[stage, "--config", workspace["config"], "--output", str(out)]
                             for stage in ("build-graphs", "train")])
        assert isinstance(result, list), result
        for code, err in result:
            assert code in (0, 2) and "Traceback" not in err, err
            assert code == 0 or ("sequences.jsonl" in err and "'preprocess'" in err), err


def test_process_settings_are_made_once(workspace, trained, tmp_path, monkeypatch, capsys):
    """The malloc thresholds and the BLAS thread pin hold for the whole
    process, so only the first stage run in a process opens a library for
    them; a second stage in the same process opens none."""
    out = tmp_path / "run"
    shutil.copytree(trained, out)
    assert run(["evaluate", "--config", workspace["config"], "--output", str(out)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a stage opened a shared library again")

    monkeypatch.setattr(cli.ctypes, "CDLL", refuse)
    assert run(["embed", "--config", workspace["config"], "--output", str(out)]) == 0
    capsys.readouterr()


# Runs the five stages on a dataset in one process whose address space is
# capped at 1 GB, stopping at the first stage that does not exit 0.
CAPPED_PIPELINE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from tulink.cli import main
data, out = sys.argv[1:]
for stage in ("preprocess", "build-graphs", "train", "evaluate", "embed"):
    code = main([stage, "--dataset", data, "--output", out, "--embed-dim", "4",
                 "--heads", "2", "--epochs", "2"])
    if code:
        sys.exit(f"{stage} exited {code}")
"""


def far_user_lines(lat, lon):
    """Seven check-ins of one more user around (lat, lon), a week apart."""
    return [f"userfar,{86_400.0 * 7 * k + 3_600.0:.1f},{lat + 1e-4 * k:.10f},"
            f"{lon + 2e-4 * (k % 3):.10f}" for k in range(7)]


@pytest.mark.parametrize("lat, lon", [
    (synth.BASE_LAT + 6.36, synth.BASE_LON + 8.31),  # about 1,000 km north-east
    (-synth.BASE_LAT, synth.BASE_LON - 180.0),  # the antipode
], ids=["1000km", "antipode"])
def test_far_apart_users_run_in_a_memory_ceiling(tmp_path, lat, lon):
    """One user far from the other twelve stretches the bounding box to up
    to 10**11 cells; no stage allocates by the box, so each runs under a
    1 GB address-space cap. One child process runs at a time."""
    data = tmp_path / "data.csv"
    data.write_text(synth.checkin_style(12, seed=5) + "\n".join(far_user_lines(lat, lon)) + "\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(tulink.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CAPPED_PIPELINE, str(data), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    grids = json.loads((tmp_path / "out" / "manifest.json").read_text())["grids"]
    assert grids > 10**8
