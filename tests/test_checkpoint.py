import json

import numpy as np
import pytest

from mprim import checkpoint
from mprim.dataset import generate_rtp, generate_wpp
from mprim.regressor import MlpParams, init_mlp
from mprim.training import DmpHead, Model, TrainConfig, train


def test_mlp_round_trip(tmp_path):
    # net parameters go through JSON bit for bit
    params = init_mlp((3, 8, 4), seed=3)
    path = tmp_path / "mlp.json"
    path.write_text(json.dumps(params.to_dict()))
    back = MlpParams.from_dict(json.loads(path.read_text()))
    assert back.layer_sizes == params.layer_sizes
    assert back.seed == params.seed
    for a, b in zip(params.weights + params.biases,
                    back.weights + back.biases):
        np.testing.assert_array_equal(a, b)


def test_dmp_model_round_trip(tmp_path):
    ds = generate_rtp(seed=4, counts=(6, 3, 2, 2))
    model, _ = train("ddmp", ds, TrainConfig(epochs=1, seed=2),
                     n_basis_dmp=6, tau=5.0)
    path = tmp_path / "ddmp.json"
    checkpoint.save(model, path)
    back = checkpoint.load(path)
    assert isinstance(back.head, DmpHead)
    head = back.head
    assert (head.task, head.n_basis_dmp, head.tau) == ("rtp", 6, 5.0)
    np.testing.assert_array_equal(back.head.home, model.head.home)
    idx = np.asarray(model.test_indices)
    np.testing.assert_array_equal(back.predict(ds, idx),
                                  model.predict(ds, idx))


def test_trained_model_round_trip_preserves_predictions(tmp_path):
    ds = generate_rtp(seed=3, counts=(6, 3, 2, 2))
    model, _ = train("residual", ds, TrainConfig(epochs=2, seed=1))
    path = tmp_path / "model.json"
    checkpoint.save(model, path, meta={"note": "test"})
    back = checkpoint.load(path)
    assert isinstance(back, Model)
    assert back.head.kind == model.head.kind == "residual_deep_mp"
    np.testing.assert_array_equal(back.predict(ds, np.arange(len(ds))),
                                  model.predict(ds, np.arange(len(ds))))
    assert back.test_indices == model.test_indices
    assert json.loads(path.read_text())["meta"]["note"] == "test"


@pytest.mark.parametrize("method", ["deep-mp", "residual", "ddmp"])
def test_save_of_loaded_model_is_byte_identical(tmp_path, method):
    ds = generate_wpp(seed=5, trials_per_cell=1)
    model, _ = train(method, ds, TrainConfig(epochs=1, seed=0),
                     n_basis_dmp=5)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    checkpoint.save(model, first)
    checkpoint.save(checkpoint.load(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_payload_lists_every_head_field_in_schema_order(tmp_path):
    # schema 1 keeps one field list for every model kind; fields a head
    # does not use hold their empty values
    ds = generate_rtp(seed=3, counts=(6, 3, 2, 2))
    model, _ = train("deep-mp", ds, TrainConfig(epochs=1, seed=1))
    path = tmp_path / "model.json"
    checkpoint.save(model, path)
    payload = json.loads(path.read_text())["payload"]
    assert list(payload) == [
        "model_kind", "task", "mlp", "ctx_mean", "ctx_std", "n_joint",
        "phase_cfg", "basis_cfg", "mean_weights", "mean_source_indices",
        "n_basis_dmp", "dmp_tau", "home", "train_indices", "test_indices"]
    assert (payload["model_kind"], payload["mean_weights"],
            payload["mean_source_indices"], payload["n_basis_dmp"],
            payload["dmp_tau"], payload["home"]) == ("deep_mp", None, [], 0,
                                                     0.0, None)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1, "kind": "mystery", "payload": {}}\n')
    with pytest.raises(ValueError, match="unknown checkpoint kind"):
        checkpoint.load(path)


def test_unsupported_schema(tmp_path):
    path = tmp_path / "old.json"
    path.write_text('{"schema": 0, "kind": "trained_model", "payload": {}}\n')
    with pytest.raises(ValueError, match="schema"):
        checkpoint.load(path)


def test_uncheckpointable_type(tmp_path):
    with pytest.raises(TypeError):
        checkpoint.save(init_mlp((2, 3), seed=0), tmp_path / "nope.json")


@pytest.mark.parametrize("method,field,value,why", [
    ("residual", "mean_weights", {"A": [0.0] * 56}, "KeyError: '__global__'"),
    ("residual", "mean_weights", {"__global__": [0.0]},
     "expected 56 numbers, got shape (1,)"),
    ("residual", "mean_source_indices", [1.5], "integer demo indices"),
    ("ddmp", "home", None, "expected 7 numbers, got shape ()"),
    ("ddmp", "n_basis_dmp", [5], "TypeError"),
    ("ddmp", "n_basis_dmp", 0, "expected an integer >= 1, got 0"),
    ("ddmp", "n_basis_dmp", 5.0, "TypeError: expected an integer"),
    ("ddmp", "dmp_tau", -1.0, "expected a finite number > 0, got -1.0"),
    ("ddmp", "dmp_tau", float("inf"), "expected a finite number > 0"),
    ("ddmp", "dmp_tau", "1.0", "TypeError: expected a number, got str"),
    ("ddmp", "dmp_tau", True, "TypeError: expected a number, got bool"),
], ids=["means_without_global", "means_width", "mean_source_fraction",
        "rtp_without_home", "n_basis_dmp_list", "n_basis_dmp_zero",
        "n_basis_dmp_float", "tau_negative", "tau_inf", "tau_text",
        "tau_bool"])
def test_malformed_head_field_names_file_and_field(tmp_path, method, field,
                                                   value, why):
    # a head field of the wrong type or shape would otherwise broadcast
    # silently or fail later with a message naming neither
    ds = generate_rtp(seed=3, counts=(6, 3, 2, 2))
    model, _ = train(method, ds, TrainConfig(epochs=1, seed=1),
                     n_basis_dmp=5)
    path = tmp_path / "model.json"
    checkpoint.save(model, path)
    doc = json.loads(path.read_text())
    doc["payload"][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        checkpoint.load(path)
    assert str(err.value).startswith(
        f"{path}: payload field {field!r} is malformed (")
    assert why in str(err.value)
