import csv
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from mprim import checkpoint
from mprim.basis import PhaseConfig, default_basis
from mprim.cli import main
from mprim.dataset import generate_rtp, generate_wpp, load_jsonl, save_jsonl
from mprim.regressor import MlpParams
from mprim.training import Model, PrompHead


def run(args):
    return main([str(a) for a in args])


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


class TestTrain:
    def test_residual_on_two_demo_dataset(self, tmp_path):
        data = tmp_path / "two.jsonl"
        ds = generate_rtp(seed=2, counts=(1, 1, 1, 1))
        ds.samples = ds.samples[:2]
        save_jsonl(ds, data)
        ckpt = tmp_path / "ck.json"
        assert run(["train", "--data", data, "--method", "residual",
                    "--epochs", "1", "--seed", "0", "--out", ckpt]) == 0
        assert checkpoint.load(ckpt).head.kind == "residual_deep_mp"

    def test_ddmp_rtp_head_excludes_start(self, small_dataset, tmp_path):
        ckpt = tmp_path / "ck.json"
        assert run(["train", "--data", small_dataset, "--method", "ddmp",
                    "--task", "rtp", "--epochs", "1", "--seed", "0",
                    "--n-basis-dmp", "10", "--out", ckpt]) == 0
        model = checkpoint.load(ckpt)
        assert model.mlp.n_outputs == 7 * (10 + 1)

    def test_zero_epochs_empty_curve(self, small_dataset, tmp_path):
        ckpt = tmp_path / "ck.json"
        assert run(["train", "--data", small_dataset, "--method", "deep-mp",
                    "--epochs", "0", "--seed", "0", "--out", ckpt]) == 0
        curve = tmp_path / "ck_losses.csv"
        rows = list(csv.reader(curve.open()))
        assert rows == [["epoch", "train_loss", "val_loss"]]
        meta = json.loads(ckpt.read_text())["meta"]
        assert meta["final_epoch"] == 0

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


class TestEval:
    def test_perfect_oracle_checkpoint_scores_zero(self, tmp_path):
        # constant dataset plus a bias-only network that emits the exact
        # fitted weights: every metrics row must be zero
        ds = generate_rtp(seed=5, counts=(4, 2, 2, 2))
        base = ds.samples[0]
        for s in ds.samples:
            s.context[:] = base.context
            s.trajectory.values[:] = base.trajectory.values
        data = tmp_path / "const.jsonl"
        save_jsonl(ds, data)
        pc = PhaseConfig(150.0, 150)
        head = PrompHead("rtp", 7, pc, default_basis(pc, 8))
        targets = head.weights(ds, range(len(ds)))
        mlp = MlpParams((3, 56), (np.zeros((3, 56)),), (targets[0].copy(),))
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

    def test_wrong_checkpoint_kind(self, small_dataset, tmp_path, capsys):
        # checkpoints hold trained models only; any other kind is refused
        ckpt = tmp_path / "raw.json"
        ckpt.write_text(json.dumps({"schema": 1, "kind": "mlp_params",
                                    "payload": {}, "meta": {}}))
        assert run(["eval", "--data", small_dataset, "--checkpoint", ckpt,
                    "--outdir", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert "unknown checkpoint kind 'mlp_params'" in err

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
        assert Counter(s.tags["region"] for s in ds.samples) == {
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
