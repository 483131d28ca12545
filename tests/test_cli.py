"""Command-line pipeline: stage wiring, idempotence, exit codes."""

import argparse
import contextlib
import io
import json
import shutil
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tulink import metrics as M
from tulink import mobility as mob
from tulink import synth
from tulink.cli import (StagePaths, _config_from_args, _restore,
                        build_parser, main)
from tulink.config import FIELD_TYPES, RunConfig, load_config_file, resolve_config
from tulink.errors import ConfigError
from tulink.model import ABLATIONS, ModelConfig
from tulink.train import TrainConfig, evaluate_on_split
from tulink.tensor import load_tensors, save_tensors


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

    @pytest.mark.parametrize("flag, value, name", [
        ("--heads", "0", "heads"), ("--heads", "-4", "heads"), ("--seed", "-1", "seed"),
        ("--cell-size", "nan", "cell_size"), ("--tau", "nan", "tau"),
        ("--lambda-l2", "nan", "lambda_l2"), ("--lambda-l2", "-1", "lambda_l2"),
        ("--cell-size", "inf", "cell_size"), ("--tau", "inf", "tau"),
        ("--cell-size", "1e-300", "cell_size"), ("--tau", "1e-305", "tau"),
        ("--tau", "1e-300", "tau"),
    ])
    def test_bad_setting_is_usage_error_naming_it(self, workspace, capsys, tmp_path,
                                                  flag, value, name):
        """From the first stage, which is where a cell size too small for the
        data's extent or a tau too small for its times shows (1e-305 puts the
        times past the float range, 1e-300 gives interval ids near 1e305);
        every other value fails when the config loads."""
        assert run(["preprocess", "--config", workspace["config"],
                    "--output", str(tmp_path / "out"), flag, value]) == 1
        err = capsys.readouterr().err
        assert f"config error: {name} " in err and "Traceback" not in err

    def test_instant_before_midnight_trains(self, tmp_path, capsys):
        """-1e-13 s rounds to a whole day in time of day; it is in the day's
        last window, not one past the vocabulary that train checks."""
        lines = synth.disjoint_regions(3, 5, seed=3).splitlines()
        user, _, lat, lon = lines[1].split(",")
        lines[1] = f"{user},-1e-13,{lat},{lon}"
        data = tmp_path / "d.csv"
        data.write_text("\n".join(lines) + "\n")
        args = ["--dataset", str(data), "--output", str(tmp_path / "o"), "--embed-dim", "8",
                "--heads", "1", "--attn-layers", "1", "--epochs", "1"]
        for stage in ("preprocess", "build-graphs", "train"):
            assert run([stage, *args]) == 0, capsys.readouterr().err
        records = [json.loads(line) for line in
                   (tmp_path / "o" / "sequences.jsonl").read_text().splitlines()]
        assert [(r["t"], r["window"]) for r in records if r["interval"] == -1] == [([-1e-13], [11])]

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


def test_empty_ablation_flag_selects_the_full_model(workspace, trained, tmp_path, capsys):
    """Flags win over the file for the ablation too: '' is the full model."""
    config = tmp_path / "tul-g.cfg"
    config.write_text(Path(workspace["config"]).read_text() + "ablation=tul-g\n")
    out = tmp_path / "run"
    shutil.copytree(trained, out)
    for flags, ablation in (((), "tul-g"), (("--ablation", ""), "")):
        assert run(["train", "--config", str(config), "--output", str(out), *flags]) == 0
        assert load_tensors(out / "checkpoint.bin")[0]["ablation"] == ablation
    capsys.readouterr()


@pytest.mark.parametrize("part", ["train", "validation"])
def test_evaluate_scores_the_chosen_split(workspace, trained, tmp_path, part):
    """``--split`` scores the trajectories that splits.json lists under it."""
    out = tmp_path / part
    shutil.copytree(trained, out)
    assert run(["evaluate", "--config", workspace["config"], "--output", str(out),
                "--split", part]) == 0
    params, inputs, _ = _restore(StagePaths(out))
    ids = json.loads((out / "splits.json").read_text())[part]
    indices = np.array([inputs.traj_ids.index(tid) for tid in ids])
    report = evaluate_on_split(params, inputs, indices)
    M.save_report(report, tmp_path / "expected.txt")
    assert (out / "metrics.txt").read_bytes() == (tmp_path / "expected.txt").read_bytes()


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
        """A record of shape (-r, -c) holds as many values as one of (r, c)."""
        def negate_first_matrix(path):
            name, values = next((n, v) for n, v in load_tensors(path)[1].items() if v.ndim == 2)
            header = name.encode() + struct.pack("<B2q", 2, *values.shape)
            negated = name.encode() + struct.pack("<B2q", 2, *(-n for n in values.shape))
            path.write_bytes(path.read_bytes().replace(header, negated, 1))
        err = self._evaluate(workspace, trained, tmp_path, capsys, negate_first_matrix)
        assert "negative dimension" in err

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
        def rewrite_header(path):
            header, tensors = load_tensors(path)
            change(header)
            save_tensors(path, tensors.items(), header)
        err = self._evaluate(workspace, trained, tmp_path, capsys, rewrite_header, stage=stage)
        assert "invalid model header" in err

    @pytest.mark.parametrize("setting, value, record", [
        ("embed_dim", 10 ** 12, "gcn_local_0"), ("gcn_layers", 10 ** 12, "gcn_local_2"),
        ("attn_layers", 10 ** 12, "attn1_q"), ("time_vocab", 86400 * 2 ** 20, "time_w")])
    def test_header_sizes_the_records_do_not_bear_out(self, workspace, trained, tmp_path, capsys,
                                                      setting, value, record):
        """A header that would size a huge model exits at the first record
        that does not fit it, before anything is drawn or allocated."""
        def enlarge(path):
            header, tensors = load_tensors(path)
            header[setting] = value
            save_tensors(path, tensors.items(), header)
        err = self._evaluate(workspace, trained, tmp_path, capsys, enlarge)
        assert repr(record) in err

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    @pytest.mark.parametrize("trained_window, window", [(None, "600"), ("3600", "7200")],
                             ids=["more-windows", "fewer-windows"])
    def test_sequences_of_other_time_windows(self, workspace, trained, tmp_path, capsys, stage,
                                             trained_window, window):
        """Sequences re-preprocessed into other time windows after training:
        into more than the checkpoint's time_vocab, or into fewer, whose ids
        all lie below it."""
        def repreprocess(path):
            runs = [("preprocess", window), ("build-graphs", window)]
            if trained_window:
                runs[:0] = [(name, trained_window)
                            for name in ("preprocess", "build-graphs", "train")]
            for name, seconds in runs:
                assert run([name, "--config", workspace["config"], "--output", str(path.parent),
                            "--time-window", seconds]) == 0
        err = self._evaluate(workspace, trained, tmp_path, capsys, repreprocess, stage=stage)
        assert "window id" in err and "s windows" in err

    def test_checkpoint_of_an_earlier_version(self, workspace, trained, tmp_path, capsys):
        def drop_header(path):
            raw = path.read_bytes()
            (meta_len,) = struct.unpack("<I", raw[8:12])
            path.write_bytes(b"TLNKPRM1" + raw[12 + meta_len:])
        err = self._evaluate(workspace, trained, tmp_path, capsys, drop_header)
        assert "earlier version" in err and "rerun the 'train' stage" in err

    def test_per_head_parameter_names_of_earlier_versions(self, workspace, trained,
                                                          tmp_path, capsys):
        def split_heads(path):
            named = []
            header, tensors = load_tensors(path)
            for name, values in tensors.items():
                layer, _, kind = name.partition("_")
                if layer.startswith("attn") and kind in ("q", "k", "v"):
                    named += [(f"{name}{h}", block)
                              for h, block in enumerate(np.split(values, 2, axis=1))]
                else:
                    named.append((name, values))
            save_tensors(path, named, header)
        err = self._evaluate(workspace, trained, tmp_path, capsys, split_heads)
        assert "'attn0_q'" in err

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    def test_bounding_box_rows_of_earlier_versions(self, workspace, trained, tmp_path,
                                                   capsys, stage):
        n_cells = mob.load_grid_map(trained / "grid_map.json").n_grids
        rows = sorted({g for s in mob.load_sequences(trained / "sequences.jsonl")
                       for g in s.grid})
        assert len(rows) < n_cells

        def widen_first_gcn_layers(path):
            named = []
            header, tensors = load_tensors(path)
            for name, values in tensors.items():
                if name in ("gcn_local_0", "gcn_global_0"):
                    wide = np.zeros((n_cells, values.shape[1]))
                    wide[rows] = values
                    values = wide
                named.append((name, values))
            save_tensors(path, named, header)
        err = self._evaluate(workspace, trained, tmp_path, capsys, widen_first_gcn_layers,
                             stage=stage)
        assert "'gcn_local_0'" in err and "shape" in err

    @pytest.mark.parametrize("stage", ["evaluate", "embed"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value(self, workspace, trained, tmp_path, capsys, stage, value):
        def poison_link_bias(path):
            header, tensors = load_tensors(path)
            tensors["link_b"][0] = value
            save_tensors(path, tensors.items(), header)
        err = self._evaluate(workspace, trained, tmp_path, capsys, poison_link_bias,
                             stage=stage)
        assert "'link_b'" in err and "non-finite" in err

    def test_checkpoint_holds_a_parameter_the_model_lacks(self, workspace, trained, tmp_path,
                                                          capsys):
        def add_a_layer(path):
            header, tensors = load_tensors(path)
            save_tensors(path, [*tensors.items(), ("attn1_q", tensors["attn0_q"])], header)
        assert "lacks" in self._evaluate(workspace, trained, tmp_path, capsys, add_a_layer)


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

    def test_time_window_divisor_enforced(self):
        with pytest.raises(ConfigError, match="divide"):
            resolve_config(None, {"time_window": 7000.0})


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


def cut_mid_line(path):
    """Keep the first half of the file, moved off any line boundary."""
    data = path.read_bytes()
    n = len(data) // 2
    while data[n - 1:n] == b"\n":
        n += 1
    path.write_bytes(data[:n])


def drop_last_lines(path, count=3):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-count]))


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
        def repeat_link_w(out):
            path = out / "checkpoint.bin"
            header, tensors = load_tensors(path)
            values = np.random.default_rng(0).normal(size=tensors["link_w"].shape)
            save_tensors(path, [*tensors.items(), ("link_w", values)], header)
        err = self._run(workspace, trained, tmp_path, capsys, "evaluate", repeat_link_w)
        assert "checkpoint.bin" in err and "'train'" in err and "'link_w' twice" in err

    def test_bytes_after_the_last_checkpoint_record(self, workspace, trained, tmp_path,
                                                    capsys):
        def append(out):
            path = out / "checkpoint.bin"
            path.write_bytes(path.read_bytes() + bytes(16))
        err = self._run(workspace, trained, tmp_path, capsys, "evaluate", append)
        assert "checkpoint.bin" in err and "'train'" in err and "16 bytes after" in err

    @pytest.mark.parametrize("stage", ["build-graphs", "train"])
    def test_sequences_cut_at_line_boundary(self, workspace, trained, tmp_path, capsys,
                                            stage):
        err = self._run(workspace, trained, tmp_path, capsys, stage,
                        lambda out: drop_last_lines(out / "sequences.jsonl"))
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
        def widen(out):
            path = out / name
            lines = path.read_text().splitlines(keepends=True)
            i = next(i for i, line in enumerate(lines) if line.startswith(f"matrix {section} "))
            tag, _, rows, cols, nnz = lines[i].split()
            lines[i] = f"{tag} {section} {int(rows) + 1} {int(cols) + 1} {nnz}\n"
            path.write_text("".join(lines))
        err = self._run(workspace, trained, tmp_path, capsys, stage, widen)
        assert name in err and "'build-graphs'" in err and f"matrix {section}" in err

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

    @pytest.mark.parametrize("stage", ["train", "evaluate", "embed"])
    def test_graph_user_roster_differs(self, workspace, trained, tmp_path, capsys, stage):
        def rename_a_user(out):
            path = out / "global_graph.txt"
            lines = path.read_text().splitlines(keepends=True)
            lines[lines.index("user03\n")] = "userXX\n"
            path.write_text("".join(lines))
        err = self._run(workspace, trained, tmp_path, capsys, stage, rename_a_user)
        assert "global_graph.txt" in err and "different users" in err
        assert "'build-graphs'" in err

    @pytest.mark.parametrize("stage, field, value", [
        ("build-graphs", "grid", 1_000_000), ("build-graphs", "grid", -1),
        ("build-graphs", "grid", 3.5), ("build-graphs", "grid", 2**70), ("train", "state", 99),
        ("train", "window", 99), ("train", "window", None)])
    def test_bad_id_in_sequences(self, workspace, trained, tmp_path, capsys,
                                 stage, field, value):
        def edit(out):
            path = out / "sequences.jsonl"
            lines = path.read_text().splitlines(keepends=True)
            record = json.loads(lines[0])
            record[field][-1] = value
            lines[0] = json.dumps(record, sort_keys=True) + "\n"
            path.write_text("".join(lines))
        err = self._run(workspace, trained, tmp_path, capsys, stage, edit)
        assert "sequences.jsonl" in err and "'preprocess'" in err
        assert f"{field} id {value!r}" in err

    def test_sequences_of_other_time_windows_at_train(self, workspace, trained, tmp_path,
                                                      capsys):
        """Sequences of two-hour windows trained under one-hour windows: every
        id lies below the 24 windows, but not every one is its time's."""
        err = self._run(workspace, trained, tmp_path, capsys, "train", lambda out: None,
                        "--time-window", "3600")
        assert "sequences.jsonl" in err and "'preprocess'" in err
        assert "window id" in err and "3600.0 s windows" in err

    @pytest.mark.parametrize("stage", ["build-graphs", "train"])
    def test_duplicated_record_in_sequences(self, workspace, trained, tmp_path, capsys, stage):
        def duplicate_first(out):
            path = out / "sequences.jsonl"
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines + lines[:1]))
        err = self._run(workspace, trained, tmp_path, capsys, stage, duplicate_first)
        first = json.loads((trained / "sequences.jsonl").read_text().splitlines()[0])
        assert "sequences.jsonl" in err and "'preprocess'" in err
        assert f"'{first['user']}:{first['interval']}'" in err

    @pytest.mark.parametrize("stage", ["build-graphs", "evaluate"])
    def test_swapped_records_in_sequences(self, workspace, trained, tmp_path, capsys, stage):
        def swap_first_two(out):
            path = out / "sequences.jsonl"
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join([lines[1], lines[0], *lines[2:]]))
        err = self._run(workspace, trained, tmp_path, capsys, stage, swap_first_two)
        first, second = (json.loads(line) for line in
                         (trained / "sequences.jsonl").read_text().splitlines()[:2])
        assert "sequences.jsonl" in err and "'preprocess'" in err
        assert (f"trajectory '{first['user']}:{first['interval']}' is not after "
                f"'{second['user']}:{second['interval']}'") in err

    @pytest.mark.parametrize("text, shown", [
        ('"7"', "'7'"), ("null", "None"), ("1e400", "inf"), ("2.0", "2.0"), ("true", "True"),
        ("9223372036854775808", "9223372036854775808")])
    @pytest.mark.parametrize("stage", ["build-graphs", "evaluate"])
    def test_interval_not_an_int64(self, workspace, trained, tmp_path, capsys, stage, text,
                                   shown):
        """The last record's interval, renamed in splits.json too, so that
        only the interval's type or range is wrong."""
        def edit(out):
            path = out / "sequences.jsonl"
            lines = path.read_text().splitlines(keepends=True)
            record = json.loads(lines[-1])
            lines[-1] = lines[-1].replace(f'"interval": {record["interval"]}',
                                          f'"interval": {text}')
            path.write_text("".join(lines))
            old, new = (f"{record['user']}:{i}" for i in (record["interval"], json.loads(text)))
            splits = out / "splits.json"
            splits.write_text(splits.read_text().replace(json.dumps(old), json.dumps(new)))
        err = self._run(workspace, trained, tmp_path, capsys, stage, edit)
        assert "sequences.jsonl" in err and "'preprocess'" in err
        assert f"interval {shown} is" in err

    @pytest.mark.parametrize("stage, change", [
        ("build-graphs", lambda r: r.update(grid=5)),
        ("train", lambda r: r["state"].pop()),
        ("train", lambda r: r["t"].pop()),
        ("build-graphs", lambda r: r.clear()),
        ("build-graphs", lambda r: r.update(t=[], grid=[], state=[], window=[])),
    ], ids=["grid-not-a-list", "state-short", "t-short", "empty-record", "no-points"])
    def test_misshapen_record_in_sequences(self, workspace, trained, tmp_path, capsys,
                                           stage, change):
        def edit(out):
            path = out / "sequences.jsonl"
            lines = path.read_text().splitlines(keepends=True)
            record = json.loads(lines[0])
            change(record)
            lines[0] = json.dumps(record, sort_keys=True) + "\n"
            path.write_text("".join(lines))
        err = self._run(workspace, trained, tmp_path, capsys, stage, edit)
        assert "sequences.jsonl" in err and "'preprocess'" in err


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
