import csv
import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mprim import checkpoint, kinematics, training
from mprim.cli import _build_parser, main
from mprim.dataset import (encode_f64, generate_rtp, generate_wpp, load_jsonl,
                           save_jsonl)
from mprim.kinematics import DEFAULT_CHAIN, fk_position
from mprim.regressor import MlpParams
from mprim.training import Model, PrompHead, ResidualHead


def run(args):
    return main([str(a) for a in args])


def without(doc, *path):
    """`doc` as JSON text, with the field at the key `path` removed."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return json.dumps(doc)


def replaced(doc, value, *path):
    """`doc` as JSON text, with the field at the key `path` set to
    `value`."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc)


@pytest.fixture()
def small_dataset(tmp_path):
    path = tmp_path / "demos.jsonl"
    save_jsonl(generate_rtp(seed=13, counts=(12, 6, 4, 4)), path)
    return path


class TestGenerate:
    def test_rtp_defaults_write_545_records(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert run(["generate", "--kind", "rtp", "--seed", "7",
                    "--out", out]) == 0
        assert len(load_jsonl(out)) == 545
        manifest = json.loads(
            (tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert str(out) in manifest["outputs"]

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["generate", "--kind", "rtp"])
        assert err.value.code == 2

    def test_same_flags_same_checksum(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(["generate", "--kind", "rtp", "--seed", "3", "--counts",
             "8,4,2,2", "--out", a])
        run(["generate", "--kind", "rtp", "--seed", "3", "--counts",
             "8,4,2,2", "--out", b])
        ma = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
        mb = json.loads((tmp_path / "b.jsonl.manifest.json").read_text())
        assert ma["outputs"][str(a)] == mb["outputs"][str(b)]

    def test_wpp_trials(self, tmp_path):
        out = tmp_path / "w.jsonl"
        assert run(["generate", "--kind", "wpp", "--seed", "1", "--trials",
                    "2", "--out", out]) == 0
        assert len(load_jsonl(out)) == 56

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MPRIM_SEED", "17")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(["generate", "--kind", "rtp", "--counts", "4,2,2,2",
             "--out", a])
        run(["generate", "--kind", "rtp", "--seed", "17", "--counts",
             "4,2,2,2", "--out", b])
        assert load_jsonl(a).seed == load_jsonl(b).seed == 17

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_noise_for_wpp_is_usage_error(self, tmp_path, capsys, via):
        out = tmp_path / "w.jsonl"
        argv = ["generate", "--kind", "wpp", "--trials", "1", "--out", out]
        if via == "flag":
            argv += ["--noise", "0.5"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"noise": 0.5}))
            argv = ["--config", config, *argv]
        with pytest.raises(SystemExit) as exit_info:
            run(argv)
        assert exit_info.value.code == 2
        assert "argument --noise: applies to --kind rtp only" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("kind,flags,config", [
        ("rtp", ["--counts", "4,2,2,2", "--noise", "0.01"],
         {"kind": "rtp", "counts": [4, 2, 2, 2], "noise": 0.01}),
        ("rtp", [], {"kind": "rtp", "counts": [292, 128, 73, 52],
                     "noise": 0.0}),
        ("wpp", ["--trials", "1", "--noise", "0"],
         {"kind": "wpp", "trials": 1}),
    ])
    def test_manifest_config_holds_what_the_generator_read(
            self, tmp_path, kind, flags, config):
        out = tmp_path / "d.jsonl"
        assert run(["generate", "--kind", kind, *flags, "--out", out]) == 0
        manifest = json.loads(
            (tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["config"] == config


class TestTrain:
    def test_residual_on_two_demo_dataset(self, tmp_path):
        data = tmp_path / "two.jsonl"
        ds = generate_rtp(seed=2, counts=(1, 1, 1, 1))
        save_jsonl(dataclasses.replace(
            ds, contexts=ds.contexts[:2], trajectories=ds.trajectories[:2],
            tags=ds.tags[:2]), data)
        ckpt = tmp_path / "ck.json"
        assert run(["train", "--data", data, "--method", "residual",
                    "--epochs", "1", "--seed", "0", "--out", ckpt]) == 0
        assert type(checkpoint.load(ckpt).head) is ResidualHead

    def test_ddmp_rtp_head_excludes_start(self, small_dataset, tmp_path):
        ckpt = tmp_path / "ck.json"
        assert run(["train", "--data", small_dataset, "--method", "ddmp",
                    "--task", "rtp", "--epochs", "1", "--seed", "0",
                    "--n-basis-dmp", "10", "--out", ckpt]) == 0
        model = checkpoint.load(ckpt)
        assert model.mlp.layer_sizes[-1] == 7 * (10 + 1)

    @pytest.mark.parametrize("flag", [["--task", "wpp"], ["--split", "WPP1"]],
                             ids=["task", "split"])
    def test_flag_against_data_kind_names_flag_file_and_kind(
            self, small_dataset, tmp_path, capsys, flag):
        ckpt = tmp_path / "ck.json"
        capsys.readouterr()
        assert run(["train", "--data", small_dataset, "--method", "ddmp",
                    "--epochs", "1", *flag, "--out", ckpt]) == 1
        err = capsys.readouterr().err
        assert (f"error: {' '.join(flag)}: {small_dataset} holds rtp demos"
                in err)
        assert not ckpt.exists()

    @pytest.mark.parametrize("method", ["deep-mp", "ddmp"])
    def test_task_equal_to_data_kind_changes_nothing(self, small_dataset,
                                                     tmp_path, method):
        argv = ["train", "--data", small_dataset, "--method", method,
                "--epochs", "2", "--seed", "0", "--n-basis-dmp", "10"]
        plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
        assert run(argv + ["--out", plain]) == 0
        assert run(argv + ["--task", "rtp", "--out", flagged]) == 0
        assert flagged.read_bytes() == plain.read_bytes()
        assert ((tmp_path / "flagged_losses.csv").read_bytes()
                == (tmp_path / "plain_losses.csv").read_bytes())

    @pytest.mark.parametrize("method", ["deep-mp", "ddmp"])
    def test_diverged_run_exits_1_and_writes_nothing(
            self, small_dataset, tmp_path, capsys, method):
        ckpt = tmp_path / "ck.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["train", "--data", small_dataset, "--method", method,
                        "--epochs", "3", "--lr", "1e300", "--out",
                        ckpt]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: training diverged at epoch 0: the "
                              f"{method} loss is not finite at learning "
                              f"rate 1e+300")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            small_dataset.name]

    def test_zero_epochs_empty_curve(self, small_dataset, tmp_path):
        ckpt = tmp_path / "ck.json"
        assert run(["train", "--data", small_dataset, "--method", "deep-mp",
                    "--epochs", "0", "--seed", "0", "--out", ckpt]) == 0
        curve = tmp_path / "ck_losses.csv"
        rows = list(csv.reader(curve.open()))
        assert rows == [["epoch", "train_batch_loss", "val_loss"]]
        meta = json.loads(ckpt.read_text())["meta"]
        assert meta["final_epoch"] == 0
        assert meta["final_train_batch_loss"] is None

    def test_unknown_method_usage_error(self, small_dataset, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["train", "--data", small_dataset, "--method", "magic",
                 "--out", tmp_path / "x.json"])
        assert err.value.code == 2

    def test_unknown_split_runtime_error(self, small_dataset, tmp_path):
        code = run(["train", "--data", small_dataset, "--method", "deep-mp",
                    "--epochs", "1", "--split", "WPP99",
                    "--out", tmp_path / "x.json"])
        assert code == 1

    def test_missing_data_file(self, tmp_path):
        code = run(["train", "--data", tmp_path / "absent.jsonl",
                    "--method", "deep-mp", "--out", tmp_path / "x.json"])
        assert code == 1

    def test_defaults_resolved_into_the_config(self, small_dataset,
                                               tmp_path):
        ckpt = tmp_path / "ck.json"
        assert run(["train", "--data", small_dataset, "--method", "ddmp",
                    "--epochs", "1", "--out", ckpt]) == 0
        config = json.loads(ckpt.read_text())["meta"]["config"]
        assert config["hidden"] == list(training.DEFAULT_HIDDEN)
        assert config["n_basis_dmp"] == training.DEFAULT_N_BASIS_DMP
        manifest = json.loads(
            (tmp_path / "ck.json.manifest.json").read_text())
        assert manifest["config"] == config

    def test_manifest_lists_everything(self, small_dataset, tmp_path):
        ckpt = tmp_path / "ck.json"
        run(["train", "--data", small_dataset, "--method", "deep-mp",
             "--epochs", "1", "--seed", "4", "--out", ckpt])
        manifest = json.loads(
            (tmp_path / "ck.json.manifest.json").read_text())
        assert manifest["seed"] == 4
        assert str(small_dataset) in manifest["inputs"]
        assert str(ckpt) in manifest["outputs"]
        assert str(tmp_path / "ck_losses.csv") in manifest["outputs"]


# recorded before the plot writers moved to `.tolist()` rows and the one
# FK call
SAMPLE_FILE_SHA256 = {
    "sample_1_ee_path.csv":
        "8d8ca8d8172b31b26500071c9876a9e5c32e4d54ae9b98812ef33bef1a754d06",
    "sample_1_joints.csv":
        "e9860239d94464258a2d1670f4ea27b746c0f62a1722919d61ed40aa0147657d",
    "sample_1_overlay.svg":
        "365822d9415e83c19179ae65d8681e605be521506e8fa8e016a48111efad4d0e",
    "sample_9_ee_path.csv":
        "7cdbea95b554d5fa952a7322417d3ef43e6ea47dc0793fe2f5df7b30ddc0b9b9",
    "sample_9_joints.csv":
        "450f79776a67ef75421ecee36965edbe642ae0794435dd6fb16ee6f11daa4ce2",
    "sample_9_overlay.svg":
        "91565742de3a7e12bdf321cb5ed652102bb0ce10cb8fc9f26e3b6497d4edec01",
}


class TestEval:
    def test_perfect_oracle_checkpoint_scores_zero(self, tmp_path):
        # constant dataset plus a bias-only network that emits the exact
        # fitted weights: every metrics row must be zero
        ds = generate_rtp(seed=5, counts=(4, 2, 2, 2))
        ds.contexts[:] = ds.contexts[0]
        ds.trajectories[:] = ds.trajectories[0]
        data = tmp_path / "const.jsonl"
        save_jsonl(ds, data)
        head = PrompHead("rtp", 7, 150, 8)
        targets = head.weights(ds.trajectories)
        mlp = MlpParams((3, 56), np.r_[np.zeros(3 * 56), targets[0]])
        model = Model(head, mlp, np.zeros(3), np.ones(3),
                      test_indices=tuple(range(len(ds))))
        ckpt = tmp_path / "oracle.json"
        checkpoint.save(model, ckpt)
        outdir = tmp_path / "out"
        assert run(["eval", "--data", data, "--checkpoint", ckpt,
                    "--outdir", outdir, "--plot-samples", "1"]) == 0
        rows = list(csv.DictReader((outdir / "metrics.csv").open()))
        assert all(float(r["ave_mse_rad2"]) == 0.0 for r in rows)
        assert all(float(r["ave_ed_mm"]) == 0.0 for r in rows)

    def test_full_pipeline_artifacts(self, small_dataset, tmp_path):
        ckpt = tmp_path / "ck.json"
        run(["train", "--data", small_dataset, "--method", "deep-mp",
             "--epochs", "2", "--seed", "0", "--out", ckpt])
        outdir = tmp_path / "evalout"
        assert run(["eval", "--data", small_dataset, "--checkpoint", ckpt,
                    "--outdir", outdir, "--plot-samples", "1"]) == 0
        rows = list(csv.DictReader((outdir / "metrics.csv").open()))
        assert rows[-1]["group"] == "overall"
        # plot CSV has one row per trajectory sample
        model = checkpoint.load(ckpt)
        i = model.test_indices[0]
        joint_rows = list(csv.reader(
            (outdir / f"sample_{i}_joints.csv").open()))
        assert len(joint_rows) == 1 + 150
        assert (outdir / f"sample_{i}_overlay.svg").read_text().startswith(
            "<svg")
        ee_rows = list(csv.reader(
            (outdir / f"sample_{i}_ee_path.csv").open()))
        assert len(ee_rows) == 1 + 150
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert str(outdir / "metrics.csv") in manifest["outputs"]

    def test_sample_files_are_pinned(self, small_dataset, tmp_path):
        # the sample files of a small seeded deep-mp eval, byte for byte:
        # the writers format every number themselves, and the plotted
        # samples share one FK call. The hashes hold within the
        # reproducibility envelope that the `cli` docstring states.
        ckpt = tmp_path / "ck.json"
        assert run(["train", "--data", small_dataset, "--method", "deep-mp",
                    "--epochs", "1", "--seed", "0", "--out", ckpt]) == 0
        outdir = tmp_path / "evalout"
        assert run(["eval", "--data", small_dataset, "--checkpoint", ckpt,
                    "--outdir", outdir, "--plot-samples", "2"]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in outdir.glob("sample_*")}
        assert digests == SAMPLE_FILE_SHA256

    def test_wrong_checkpoint_kind(self, small_dataset, tmp_path, capsys):
        # checkpoints hold trained models only; any other kind is refused
        ckpt = tmp_path / "raw.json"
        ckpt.write_text(json.dumps({"schema": 1, "kind": "mlp_params",
                                    "payload": {}, "meta": {}}))
        assert run(["eval", "--data", small_dataset, "--checkpoint", ckpt,
                    "--outdir", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert "unknown checkpoint kind 'mlp_params'" in err

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: without(doc, "payload", "n_samples_per_traj"),
         "payload lacks field 'n_samples_per_traj'"),
        (lambda doc: without(doc, "payload", "task"),
         "payload lacks field 'task'"),
        (lambda doc: without(doc, "payload"), "missing field 'payload'"),
        (lambda doc: json.dumps([doc]), "expected a JSON object, got a list"),
        (lambda doc: "{", "invalid JSON at line 1 column 2"),
        (lambda doc: replaced(doc, 5, "payload", "theta"),
         "payload field 'theta' is malformed (ValueError: not a base64 "
         "string of float64 ("),
        (lambda doc: replaced(doc, [3, 64, 56], "payload", "layer_sizes"),
         "payload field 'theta' is malformed (ValueError: theta has shape "
         "(8056,); layer_sizes (3, 64, 56) need (3896,))"),
        (lambda doc: replaced(doc, encode_f64([0.0]), "payload", "ctx_mean"),
         "payload field 'ctx_mean' is malformed (ValueError: expected 3 "
         "float64 values, got 1)"),
        (lambda doc: replaced(doc, [0.5], "payload", "test_indices"),
         "payload field 'test_indices' is malformed (ValueError: expected "
         "a list of integer demo indices)"),
        (lambda doc: replaced(doc, [True], "payload", "train_indices"),
         "payload field 'train_indices' is malformed"),
        (lambda doc: replaced(doc, "deep_mp", "payload", "method"),
         "payload field 'method' is malformed (KeyError: 'deep_mp')"),
        (lambda doc: replaced(doc, "xyz", "payload", "task"),
         "payload field 'task' is malformed (ValueError: expected 'rtp' or "
         "'wpp', got 'xyz')"),
        (lambda doc: replaced(doc, 7, "payload", "n_basis"),
         "payload field 'layer_sizes' is malformed (ValueError: the net's "
         "last layer has 56 outputs; its head takes 49)"),
        (lambda doc: b'{"payload": "\xff"}', "not UTF-8 text at byte 13"),
    ], ids=["no_phase_cfg", "no_task", "no_payload", "list", "bad_json",
            "mlp_number", "mlp_layer_shape", "ctx_mean_width",
            "fractional_index", "bool_index", "method_unknown",
            "task_unknown", "head_width", "not_utf8"])
    def test_malformed_checkpoint_names_file(self, small_dataset, tmp_path,
                                             capsys, edit, message):
        ckpt = tmp_path / "ck.json"
        assert run(["train", "--data", small_dataset, "--method", "deep-mp",
                    "--epochs", "1", "--seed", "0", "--out", ckpt]) == 0
        content = edit(json.loads(ckpt.read_text()))
        ckpt.write_bytes(content if isinstance(content, bytes)
                         else content.encode())
        capsys.readouterr()
        assert run(["eval", "--data", small_dataset, "--checkpoint", ckpt,
                    "--outdir", tmp_path / "o"]) == 1
        assert f"error: {ckpt}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["residual", "ddmp"])
    def test_dataset_that_does_not_fit_checkpoint(self, small_dataset,
                                                  tmp_path, capsys, method):
        # an rtp checkpoint (3 context features) evaluated on wpp data
        # (10) fails with both widths named, not deep in numpy
        ckpt = tmp_path / "ck.json"
        assert run(["train", "--data", small_dataset, "--method", method,
                    "--epochs", "1", "--seed", "0", "--n-basis-dmp", "5",
                    "--out", ckpt]) == 0
        wpp = tmp_path / "wpp.jsonl"
        save_jsonl(generate_wpp(seed=1, trials_per_cell=1), wpp)
        capsys.readouterr()
        assert run(["eval", "--data", wpp, "--checkpoint", ckpt,
                    "--outdir", tmp_path / "o"]) == 1
        assert ("error: dataset contexts have 10 features, checkpoint "
                "expects 3") in capsys.readouterr().err

    @pytest.mark.parametrize("index", [None, -1],
                             ids=["past_end", "negative"])
    def test_test_index_outside_dataset(self, small_dataset, tmp_path,
                                        capsys, index):
        # a checkpoint's held-out indices must lie inside the dataset it is
        # evaluated on; a negative one would score some other demo
        ckpt = tmp_path / "ck.json"
        assert run(["train", "--data", small_dataset, "--method", "residual",
                    "--epochs", "1", "--seed", "0", "--out", ckpt]) == 0
        doc = json.loads(ckpt.read_text())
        if index is not None:
            doc["payload"]["test_indices"] = [0, index]
            ckpt.write_text(json.dumps(doc))
        bad = index if index is not None else next(
            i for i in doc["payload"]["test_indices"] if i >= 5)
        few = tmp_path / "few.jsonl"
        save_jsonl(generate_rtp(seed=2, counts=(2, 1, 1, 1)), few)
        capsys.readouterr()
        assert run(["eval", "--data", few, "--checkpoint", ckpt,
                    "--outdir", tmp_path / "o"]) == 1
        assert (f"error: demo index {bad} is outside the dataset, which has "
                "5 demos") in capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        ("[1, 2]", "is not a kinematic chain config"),
        (json.dumps({"kind": "kinematic_chain", "a": [0.1] * 7,
                     "alpha": [0.0] * 7, "theta_offset": [0.0] * 7}),
         "field 'd' must be a list of numbers, got null"),
        (json.dumps({"kind": "kinematic_chain", "a": [0.1] * 7,
                     "d": ["0.1"] * 7, "alpha": [0.0] * 7,
                     "theta_offset": [0.0] * 7}),
         "field 'd' must be a list of numbers"),
        (json.dumps({"kind": "kinematic_chain", "a": [10 ** 400] + [0.1] * 6,
                     "d": [0.0] * 7, "alpha": [0.0] * 7,
                     "theta_offset": [0.0] * 7}),
         "field 'a' must be a list of numbers"),
        ("{bad", "invalid JSON at line 1 column 2"),
        (b'{"kind": "\xff"}', "not UTF-8 text at byte 10"),
    ], ids=["list", "no_d", "d_text", "a_too_large", "bad_json", "not_utf8"])
    def test_malformed_chain_names_file(self, small_dataset, tmp_path,
                                        capsys, content, message):
        ckpt, chain = tmp_path / "ck.json", tmp_path / "chain.json"
        assert run(["train", "--data", small_dataset, "--method", "deep-mp",
                    "--epochs", "1", "--seed", "0", "--out", ckpt]) == 0
        chain.write_bytes(content if isinstance(content, bytes)
                          else content.encode())
        capsys.readouterr()
        assert run(["eval", "--data", small_dataset, "--checkpoint", ckpt,
                    "--outdir", tmp_path / "o", "--chain", chain]) == 1
        err = capsys.readouterr().err
        assert f"error: {chain}" in err and message in err

    def test_chain_joint_count_checked_first(self, small_dataset, tmp_path,
                                             capsys):
        # a 2-joint chain on 7-joint data fails before anything is
        # evaluated or written
        ckpt, chain = tmp_path / "ck.json", tmp_path / "chain.json"
        assert run(["train", "--data", small_dataset, "--method", "deep-mp",
                    "--epochs", "1", "--seed", "0", "--out", ckpt]) == 0
        chain.write_text(json.dumps({
            "kind": "kinematic_chain", "a": [0.3, 0.2], "d": [0.0, 0.0],
            "alpha": [0.0, 0.0], "theta_offset": [0.0, 0.0]}))
        capsys.readouterr()
        outdir = tmp_path / "o"
        assert run(["eval", "--data", small_dataset, "--checkpoint", ckpt,
                    "--outdir", outdir, "--chain", chain]) == 1
        assert (f"error: kinematic chain {chain} has 2 joints, but the "
                f"dataset's trajectories have 7") in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("method", ["deep-mp", "residual", "ddmp"])
    def test_sample_csvs_are_numeric(self, small_dataset, tmp_path, method):
        ckpt = tmp_path / "ck.json"
        assert run(["train", "--data", small_dataset, "--method", method,
                    "--epochs", "1", "--seed", "0", "--n-basis-dmp", "5",
                    "--out", ckpt]) == 0
        outdir = tmp_path / "evalout"
        assert run(["eval", "--data", small_dataset, "--checkpoint", ckpt,
                    "--outdir", outdir, "--plot-samples", "2"]) == 0
        files = sorted(outdir.glob("sample_*_joints.csv")) + sorted(
            outdir.glob("sample_*_ee_path.csv"))
        assert len(files) == 4
        for path in files:
            rows = list(csv.reader(path.open()))
            assert len(rows) == 1 + 150
            for row in rows[1:]:
                for cell in row:
                    float(cell)   # raises on text like np.float64(0.1)

    @pytest.mark.parametrize("method", ["deep-mp", "ddmp"])
    def test_plotted_samples_are_the_scored_rows(self, small_dataset,
                                                 tmp_path, monkeypatch,
                                                 method):
        # the sample CSVs show the first rows of the prediction that
        # `evaluate` scored, not a second prediction of those demos
        ckpt = tmp_path / "ck.json"
        assert run(["train", "--data", small_dataset, "--method", method,
                    "--epochs", "1", "--seed", "0", "--n-basis-dmp", "5",
                    "--out", ckpt]) == 0
        calls, fk = [], kinematics.fk_position
        monkeypatch.setattr(kinematics, "fk_position",
                            lambda chain, q: calls.append(q.shape)
                            or fk(chain, q))
        outdir = tmp_path / "evalout"
        assert run(["eval", "--data", small_dataset, "--checkpoint", ckpt,
                    "--outdir", outdir, "--plot-samples", "3"]) == 0
        # one call per side for the final distances, one for the plots
        assert calls[-1] == (2, 3, 150, 7) and len(calls) == 3
        model = checkpoint.load(ckpt)
        dataset = load_jsonl(small_dataset)
        idx = np.asarray(model.test_indices)
        _, _, pred = training.evaluate(model, dataset, idx)
        assert len(list(outdir.glob("sample_*_joints.csv"))) == 3
        for i, rows in zip(idx[:3], pred):
            joints = np.loadtxt(outdir / f"sample_{i}_joints.csv",
                                delimiter=",", skiprows=1)
            np.testing.assert_array_equal(joints[:, 1::2],
                                          dataset.trajectories[i])
            np.testing.assert_array_equal(joints[:, 2::2], rows)
            ee = np.loadtxt(outdir / f"sample_{i}_ee_path.csv",
                            delimiter=",", skiprows=1)
            np.testing.assert_array_equal(
                ee[:, 4:], fk_position(DEFAULT_CHAIN, rows))


class TestNumericFlags:
    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command,dest,value", [
        ("train", "lr", "nan"),
        ("train", "lr", "-1"),
        ("train", "hidden", "-3"),
        ("train", "hidden", "0"),
        ("train", "tau", "inf"),
        ("generate", "noise", "-1"),
        ("generate", "noise", "nan"),
        ("train", "n_basis", "-2"),
        ("train", "n_basis_dmp", "0"),
        ("train", "epochs", "-1"),
        ("train", "epochs", "2.5"),
        ("train", "batch_size", "-1"),
        ("train", "patience", "0"),
        ("generate", "trials", "0"),
        ("generate", "counts", "2,0,1,1"),
        ("generate", "seed", "-1"),
        ("train", "seed", "-1"),
        ("train", "seed", "1.5"),
        ("eval", "plot_samples", "-3"),
    ])
    def test_bad_value_is_usage_error(self, small_dataset, tmp_path, capsys,
                                      via, command, dest, value):
        argv = {"train": ["train", "--data", small_dataset, "--method", "ddmp",
                          "--epochs", "1", "--n-basis-dmp", "5"],
                "generate": ["generate", "--kind", "rtp", "--counts",
                             "2,1,1,1"],
                "eval": ["eval", "--data", small_dataset, "--checkpoint",
                         tmp_path / "ck.json"]}[command]
        argv += ["--outdir" if command == "eval" else "--out",
                 tmp_path / "out"]
        flag = "--" + dest.replace("_", "-")
        if via == "flag":
            argv += [flag, value]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({dest: value}))
            argv = ["--config", config, *argv]
        with pytest.raises(SystemExit) as exit_info:
            run(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert (f"argument {flag}: " if via == "flag"
                else f"bad value for {dest!r}: ") in err

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize("value", ["abc", "-4", "1.5"])
    def test_bad_env_seed_is_usage_error(self, small_dataset, tmp_path,
                                         capsys, monkeypatch, command, value):
        # MPRIM_SEED stands in for --seed and is checked like it
        monkeypatch.setenv("MPRIM_SEED", value)
        out = tmp_path / "out.json"
        argv = (["train", "--data", small_dataset, "--method", "deep-mp",
                 "--epochs", "1"] if command == "train"
                else ["generate", "--kind", "rtp", "--counts", "2,1,1,1"])
        with pytest.raises(SystemExit) as exit_info:
            run([*argv, "--out", out])
        assert exit_info.value.code == 2
        assert not out.exists()
        assert (f"environment variable MPRIM_SEED: expected an integer >= 0, "
                f"got {value!r}") in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "rtp", "counts": [4, 2, 2, 2],
                                   "seed": 9}))
        out = tmp_path / "d.jsonl"
        assert run(["--config", cfg, "generate", "--out", out]) == 0
        ds = load_jsonl(out)
        # counts are demos per region: 4 + 2 + 2 + 2
        assert len(ds) == 10 and ds.seed == 9
        assert Counter(t["region"] for t in ds.tags) == {
            "A": 4, "B": 2, "C": 2, "D": 2}
        manifest = json.loads(
            (tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["inputs"] == {
            str(cfg): hashlib.sha256(cfg.read_bytes()).hexdigest()}

    def test_shared_config_train_and_eval(self, small_dataset, tmp_path):
        # one file serves both subcommands: `epochs` is train's alone, and
        # an explicit --seed beats the file's seed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(small_dataset), "epochs": 1,
                                   "seed": 0}))
        ckpt = tmp_path / "ck.json"
        assert run(["--config", cfg, "train", "--method", "deep-mp",
                    "--seed", "4", "--out", ckpt]) == 0
        manifest = json.loads(
            (tmp_path / "ck.json.manifest.json").read_text())
        assert manifest["seed"] == 4
        assert set(manifest["inputs"]) == {str(small_dataset), str(cfg)}
        outdir = tmp_path / "evalout"
        assert run(["--config", cfg, "eval", "--checkpoint", ckpt,
                    "--outdir", outdir, "--plot-samples", "0"]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {str(small_dataset), str(ckpt),
                                           str(cfg)}

    @staticmethod
    def usage_error(tmp_path, capsys, content, *flags):
        """Run generate with a config file holding `content`, text or bytes
        (no file if None); assert a usage error naming the file and return
        its message."""
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_bytes(content.encode() if isinstance(content, str)
                            else content)
        out = tmp_path / "d.jsonl"
        with pytest.raises(SystemExit) as err:
            run(["--config", cfg, "generate", *flags, "--out", out])
        assert err.value.code == 2
        assert not out.exists()
        message = capsys.readouterr().err
        assert str(cfg) in message
        return message

    def test_bad_choice_is_usage_error(self, tmp_path, capsys):
        message = self.usage_error(tmp_path, capsys,
                                   json.dumps({"kind": "xyz"}))
        assert "'kind'" in message and "'xyz'" in message

    def test_three_counts_is_usage_error(self, tmp_path, capsys):
        message = self.usage_error(
            tmp_path, capsys, json.dumps({"counts": [4, 2, 2]}),
            "--kind", "rtp")
        assert "'counts'" in message and "4 integers" in message

    @pytest.mark.parametrize("value", [None, True, {"a": 1}, [[1, 2]]])
    def test_non_scalar_value_is_usage_error(self, tmp_path, capsys, value):
        message = self.usage_error(tmp_path, capsys,
                                   json.dumps({"seed": value}), "--kind", "rtp")
        assert "'seed'" in message and "expected a string" in message

    @pytest.mark.parametrize("key", ["bogus", "batchsize", "help"])
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, key):
        message = self.usage_error(tmp_path, capsys, json.dumps({key: 1}),
                                   "--kind", "rtp")
        assert f"unknown key '{key}'" in message

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        message = self.usage_error(tmp_path, capsys, None, "--kind", "rtp")
        assert "cannot read" in message

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        message = self.usage_error(tmp_path, capsys, '{"seed": 1,\n{not json',
                                   "--kind", "rtp")
        assert "line 2 column 1" in message

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        message = self.usage_error(tmp_path, capsys, b'{"kind": "\xff"}',
                                   "--kind", "rtp")
        assert "not UTF-8" in message

    def test_non_object_json_is_usage_error(self, tmp_path, capsys):
        message = self.usage_error(tmp_path, capsys, "[1, 2]",
                                   "--kind", "rtp")
        assert "JSON object" in message and "list" in message


def test_benchmark_command_lines_parse():
    # perfbench/run.py passes these command lines to every stage; a flag
    # it passes that the parser no longer knows would fail only the
    # benchmark run, so it is checked here (the file is read, not changed)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    parser = _build_parser()
    for workload in bench.WORKLOADS.values():
        for tiny in (False, True):
            argvs = [bench.generate_argv(workload.kind, 1, tiny)]
            for method in workload.methods:
                argvs += [bench.train_argv(workload, method, 1, tiny),
                          bench.train_argv(workload, method, 1, tiny, True),
                          bench.eval_argv(method)]
            for argv in argvs:
                assert parser.parse_args(argv).command == argv[0], argv


def test_benchmark_accepts_the_outputs(tmp_path, monkeypatch):
    # perfbench/run.py checks every stage's outputs with these functions
    # and refuses a run whose outputs fail them; run each workload's stages
    # at the benchmark's tiny size and apply the same checks
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for name, workload in bench.WORKLOADS.items():
        cwd = tmp_path / name
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(bench.generate_argv(workload.kind, 1, True)) == 0
        assert bench.manifest_ok(cwd, "data.jsonl.manifest.json")
        for method in workload.methods:
            assert main(bench.train_argv(workload, method, 1, True)) == 0
            assert bench.manifest_ok(cwd, f"{method}.json.manifest.json")
            epochs, fit_size = bench.fit_samples_per_epoch(
                cwd / f"{method}.json")
            assert epochs == bench.TINY_EPOCHS and fit_size > 0
            assert main(bench.eval_argv(method)) == 0
            assert bench.manifest_ok(cwd, f"eval-{method}/manifest.json")
            assert bench.read_overall(
                cwd / f"eval-{method}" / "metrics.csv") is not None, method


# every subcommand in one fresh interpreter; prints the mprim modules
# loaded after importing the CLI and after each subcommand
_FOOTPRINT = """
import json, sys
import mprim.cli
def loaded():
    return sorted(m for m in sys.modules if m.startswith("mprim"))
seen = {"import": loaded()}
for stage, argv in [
        ("rtp", ["generate", "--kind", "rtp", "--counts", "6,3,2,2",
                 "--out", "rtp.jsonl"]),
        ("wpp", ["generate", "--kind", "wpp", "--trials", "1",
                 "--out", "wpp.jsonl"]),
        ("train", ["train", "--data", "rtp.jsonl", "--method", "deep-mp",
                   "--epochs", "2", "--out", "ck.json"]),
        ("eval", ["eval", "--data", "rtp.jsonl", "--checkpoint", "ck.json",
                  "--outdir", "ev", "--plot-samples", "1"])]:
    assert mprim.cli.main(argv) == 0, argv
    seen[stage] = loaded()
print(json.dumps(seen))
"""


def test_generate_imports_only_the_dataset_modules(tmp_path):
    # a subcommand imports what it runs; generate needs none of the
    # trainer's modules, and train and eval still find theirs
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    trainer_modules = {f"mprim.{name}" for name in (
        "training", "checkpoint", "plots", "kinematics", "dmp", "regressor",
        "basis", "promp", "metrics", "kernels")}
    for stage in ("import", "rtp", "wpp"):
        assert not trainer_modules & set(seen[stage]), stage
    assert {"mprim.training", "mprim.checkpoint"} <= set(seen["train"])
    assert trainer_modules <= set(seen["eval"])
    assert (tmp_path / "ck.json").is_file()
    assert (tmp_path / "ev" / "metrics.csv").is_file()
