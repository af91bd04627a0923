import inspect
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mprim import checkpoint, training
from mprim.checkpoint import decode_f64, encode_f64
from mprim.cli import main
from mprim.dataset import generate_rtp, generate_wpp, save_jsonl
from mprim.regressor import MlpParams, init_mlp
from mprim.training import (DmpHead, Model, PrompHead, ResidualHead,
                            TrainConfig, train)

METHODS = ("deep-mp", "residual", "ddmp")


def _trained(method, ds, epochs, seed, n_basis_dmp):
    """The model of `method` trained on `ds` on a random split, at `mprim
    train`'s batch size, rate, patience, hidden layers and basis size."""
    cfg = TrainConfig(epochs=epochs, batch_size=32, learning_rate=1e-3,
                      seed=seed, early_stop_patience=20)
    return train(method, ds, cfg, n_basis={"rtp": 8, "wpp": 10}[ds.kind],
                 hidden=(64, 64), n_basis_dmp=n_basis_dmp, split=None)[0]


def _predicted(model, ds, idx):
    """The trajectories `model` predicts for the demos at `idx`."""
    return model.head.decode(model.outputs(ds, idx), idx)


def test_dmp_model_round_trip(tmp_path):
    ds = generate_rtp(seed=4, counts=(6, 3, 2, 2), noise_std=0.0)
    model = _trained("ddmp", ds, epochs=1, seed=2, n_basis_dmp=6)
    path = tmp_path / "ddmp.json"
    checkpoint.save(model, path, meta={})
    back = checkpoint.load(path)
    assert isinstance(back.head, DmpHead)
    head = back.head
    assert (head.task, head.n_basis_dmp) == ("rtp", 6)
    np.testing.assert_array_equal(back.head.home, model.head.home)
    idx = np.asarray(model.test_indices)
    np.testing.assert_array_equal(_predicted(back, ds, idx),
                                  _predicted(model, ds, idx))


def test_trained_model_round_trip_preserves_predictions(tmp_path):
    ds = generate_rtp(seed=3, counts=(6, 3, 2, 2), noise_std=0.0)
    model = _trained("residual", ds, epochs=2, seed=1, n_basis_dmp=25)
    path = tmp_path / "model.json"
    checkpoint.save(model, path, meta={"note": "test"})
    back = checkpoint.load(path)
    assert isinstance(back, Model)
    assert type(back.head) is type(model.head) is ResidualHead
    idx = np.arange(len(ds))
    np.testing.assert_array_equal(_predicted(back, ds, idx),
                                  _predicted(model, ds, idx))
    assert back.test_indices == model.test_indices
    assert json.loads(path.read_text())["meta"]["note"] == "test"


@pytest.mark.parametrize("method", ["deep-mp", "residual", "ddmp"])
def test_save_of_loaded_model_is_byte_identical(tmp_path, method):
    ds = generate_wpp(seed=5, trials_per_cell=1)
    model = _trained(method, ds, epochs=1, seed=0, n_basis_dmp=5)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    checkpoint.save(model, first, meta={})
    checkpoint.save(checkpoint.load(first), second, meta={})
    assert first.read_bytes() == second.read_bytes()


def test_payload_lists_every_head_field_in_schema_order(tmp_path):
    # schema 2: the fields every model has, then only its own head's
    common = ["method", "task", "n_joint", "n_samples_per_traj",
              "layer_sizes", "theta", "ctx_mean", "ctx_std", "train_indices",
              "test_indices"]
    own = {"deep-mp": ["n_basis"], "residual": ["n_basis"],
           "ddmp": ["n_basis_dmp", "home"]}
    # the net's inputs and outputs per task: 3 or 10 context features;
    # 7 joints x 8 or 10 basis weights, and for ddmp 7 x 5 forcing
    # weights, the goal and, on wpp only, the start
    inputs = {"rtp": 3, "wpp": 10}
    width = {"rtp": {"deep-mp": 56, "residual": 56, "ddmp": 42},
             "wpp": {"deep-mp": 70, "residual": 70, "ddmp": 49}}
    path = tmp_path / "model.json"
    for ds in (generate_rtp(seed=3, counts=(6, 3, 2, 2), noise_std=0.0),
               generate_wpp(seed=5, trials_per_cell=1)):
        for method in METHODS:
            model = _trained(method, ds, epochs=1, seed=1, n_basis_dmp=5)
            checkpoint.save(model, path, meta={})
            payload = json.loads(path.read_text())["payload"]
            assert list(payload) == common + own[method]
            assert (payload["method"], payload["task"]) == (method, ds.kind)
            assert payload["layer_sizes"] == [inputs[ds.kind], 64, 64,
                                              width[ds.kind][method]]
            if method == "ddmp":
                assert (payload["home"] is None) == (ds.kind == "wpp")


@pytest.mark.parametrize("method", METHODS)
def test_checkpoint_with_time_scales_still_loads(tmp_path, method):
    # checkpoints written while the basis took a sampling rate and the
    # attractor a time constant hold those fields; both cancelled out of
    # every prediction, so such a checkpoint predicts what it did
    ds = generate_wpp(seed=5, trials_per_cell=1)
    model = _trained(method, ds, epochs=1, seed=0, n_basis_dmp=5)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    checkpoint.save(model, new, meta={})
    doc = json.loads(new.read_text())
    doc["payload"]["sampling_frequency"] = 150.0
    if method == "ddmp":
        doc["payload"]["dmp_tau"] = 7.6
    old.write_text(json.dumps(doc))
    idx = np.arange(len(ds))
    np.testing.assert_array_equal(_predicted(checkpoint.load(old), ds, idx),
                                  _predicted(checkpoint.load(new), ds, idx))


def test_schema_1_names_file_and_rerun(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": 1, "kind": "trained_model",
                                "payload": {"model_kind": "deep_mp"},
                                "meta": {}}))
    with pytest.raises(ValueError) as err:
        checkpoint.load(path)
    assert str(err.value) == (
        f"{path}: unsupported checkpoint schema 1; re-run `mprim train` "
        f"with the arguments in {path}.manifest.json to rewrite it")


def test_residual_mean_weights_names_file_and_rerun(tmp_path):
    # residual checkpoints held the training mean their net's outputs were
    # added to; the output bias holds it now, so such a net would load and
    # predict without its mean
    ds = generate_rtp(seed=3, counts=(6, 3, 2, 2), noise_std=0.0)
    path = tmp_path / "old.json"
    checkpoint.save(_trained("residual", ds, epochs=1, seed=1,
                             n_basis_dmp=5), path, meta={})
    doc = json.loads(path.read_text())
    doc["payload"]["mean_weights"] = {"__global__": encode_f64([0.0] * 56)}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        checkpoint.load(path)
    assert str(err.value) == (
        f"{path}: payload field 'mean_weights' is malformed (OutdatedError: "
        f"it holds a residual net's training mean, which its output bias "
        f"now holds); re-run `mprim train` with the arguments in "
        f"{path}.manifest.json to rewrite it")


def test_fields_the_benchmark_reads(tmp_path):
    # perfbench/run.py `fit_samples_per_epoch` reloads every checkpoint
    # the train stage writes and counts the samples trained on from these
    # fields; a checkpoint without them fails the benchmark's reload check
    data, ckpt = tmp_path / "d.jsonl", tmp_path / "ck.json"
    save_jsonl(generate_rtp(seed=2, counts=(4, 2, 2, 2), noise_std=0.0), data)
    assert main(["train", "--data", str(data), "--method", "deep-mp",
                 "--epochs", "3", "--seed", "0", "--out", str(ckpt)]) == 0
    assert list(inspect.signature(checkpoint.load).parameters) == ["path"]
    train_indices = checkpoint.load(ckpt).train_indices
    assert len(train_indices) == 8
    assert all(type(i) is int for i in train_indices)
    with open(ckpt) as fh:
        assert json.load(fh)["meta"]["final_epoch"] == 3
    val_fraction = training.TrainConfig.val_fraction_of_train
    assert isinstance(val_fraction, float) and 0.0 < val_fraction < 1.0


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
        checkpoint.save(init_mlp((2, 3), seed=0), tmp_path / "nope.json",
                        meta={})


_OUTDATED_MEANS = ("(OutdatedError: it holds a residual net's training "
                   "mean, which its output bias now holds); re-run `mprim "
                   "train` with the arguments in ")


@pytest.mark.parametrize("task,method,field,value,why", [
    ("rtp", "residual", "mean_weights", {"A": encode_f64([0.0] * 56)},
     _OUTDATED_MEANS),
    ("rtp", "residual", "mean_weights",
     {"__global__": encode_f64([0.0] * 56), "A": encode_f64([0.0] * 56)},
     _OUTDATED_MEANS),
    ("rtp", "residual", "mean_weights", {}, _OUTDATED_MEANS),
    ("rtp", "residual", "mean_weights", {"__global__": encode_f64([0.0])},
     _OUTDATED_MEANS),
    ("rtp", "ddmp", "home", None, "not a base64 string of float64"),
    ("rtp", "ddmp", "n_basis_dmp", [5],
     "(ValueError: n_basis_dmp must be an integer >= 1, got [5])"),
    ("rtp", "ddmp", "n_basis_dmp", 0,
     "(ValueError: n_basis_dmp must be an integer >= 1, got 0)"),
    ("rtp", "ddmp", "n_basis_dmp", 5.0,
     "(ValueError: n_basis_dmp must be an integer >= 1, got 5.0)"),
    ("rtp", "deep-mp", "theta", lambda old: _with(old, 5, np.nan),
     "ValueError: value 5 is nan; expected finite numbers)"),
    ("rtp", "deep-mp", "ctx_mean", encode_f64([np.inf, 0.0, 0.0]),
     "ValueError: value 0 is inf; expected finite numbers)"),
    ("rtp", "deep-mp", "ctx_std", encode_f64([0.0, 1.0, 1.0]),
     "ValueError: value 0 is 0.0; expected finite numbers > 0)"),
    ("rtp", "residual", "ctx_std", encode_f64([1.0, -2.0, 1.0]),
     "ValueError: value 1 is -2.0; expected finite numbers > 0)"),
    ("rtp", "residual", "ctx_std", encode_f64([1.0, 1.0, np.inf]),
     "ValueError: value 2 is inf; expected finite numbers > 0)"),
    ("rtp", "residual", "mean_weights",
     {"__global__": encode_f64([0.0] * 55 + [-np.inf])}, _OUTDATED_MEANS),
    ("rtp", "ddmp", "home", encode_f64([0.0] * 6 + [np.nan]),
     "ValueError: value 6 is nan; expected finite numbers)"),
    ("wpp", "ddmp", "home", encode_f64([0.0] * 7),
     "ValueError: expected null, got a str)"),
], ids=["means_without_global", "means_with_region", "means_empty",
        "means_width", "rtp_without_home",
        "n_basis_dmp_list", "n_basis_dmp_zero", "n_basis_dmp_float",
        "theta_nan", "ctx_mean_inf", "ctx_std_zero", "ctx_std_negative",
        "ctx_std_inf", "means_inf", "home_nan", "wpp_with_home"])
def test_malformed_head_field_names_file_and_field(tmp_path, task, method,
                                                   field, value, why):
    # a field of the wrong type, shape or value would otherwise broadcast
    # silently, evaluate to NaN or nonsense, or fail later with a message
    # naming neither; `value` may be a function of the saved value. A wpp
    # head has no home: its net predicts the starts. No head has a
    # `mean_weights` field any more: whatever it holds, the training mean
    # residual checkpoints held is refused with the hint to rewrite the file
    ds = (generate_rtp(seed=3, counts=(6, 3, 2, 2), noise_std=0.0)
          if task == "rtp" else generate_wpp(seed=5, trials_per_cell=1))
    model = _trained(method, ds, epochs=1, seed=1, n_basis_dmp=5)
    path = tmp_path / "model.json"
    checkpoint.save(model, path, meta={})
    doc = json.loads(path.read_text())
    old = doc["payload"].get(field)
    doc["payload"][field] = value(old) if callable(value) else value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        checkpoint.load(path)
    assert str(err.value).startswith(
        f"{path}: payload field {field!r} is malformed (")
    assert why in str(err.value)


def _with(blob, k, value):
    """The `encode_f64` vector `blob` with entry `k` set to `value`."""
    values = decode_f64(blob).copy()
    values[k] = value
    return encode_f64(values)


@pytest.mark.parametrize("method,field,value,named,why", [
    ("deep-mp", "n_basis", 7, "layer_sizes",
     "ValueError: the net's last layer has 56 outputs; its head takes 49"),
    ("residual", "task", "xyz", "task",
     "ValueError: expected 'rtp' or 'wpp', got 'xyz'"),
    ("ddmp", "task", "xyz", "task",
     "ValueError: expected 'rtp' or 'wpp', got 'xyz'"),
    ("ddmp", "task", "wpp", "layer_sizes",
     "ValueError: the net's last layer has 42 outputs; its head takes 49"),
    ("ddmp", "n_basis_dmp", 6, "layer_sizes",
     "ValueError: the net's last layer has 42 outputs; its head takes 49"),
], ids=["n_basis_width", "residual_task", "ddmp_task", "ddmp_task_width",
        "n_basis_dmp_width"])
def test_head_that_does_not_fit_net_names_file_and_field(
        tmp_path, method, field, value, named, why):
    # an unknown task or a head whose width is not the net's output used
    # to load, then evaluate silently (residual) or fail deep in numpy
    ds = generate_rtp(seed=1, counts=(6, 3, 2, 2), noise_std=0.0)
    model = _trained(method, ds, epochs=1, seed=1, n_basis_dmp=5)
    path = tmp_path / "model.json"
    checkpoint.save(model, path, meta={})
    doc = json.loads(path.read_text())
    doc["payload"][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        checkpoint.load(path)
    assert str(err.value) == (f"{path}: payload field {named!r} is "
                              f"malformed ({why})")


@pytest.mark.parametrize("train_indices,test_indices,field,why", [
    ([0, 2, 3], [3, 5], "test_indices",
     "demo 3 is on both the train and the test side of the split"),
    ([0, 2], [1, 4, 1], "test_indices",
     "demo 1 is on the test side of the split more than once"),
    ([0, 2, 0], [1], "train_indices",
     "demo 0 is on the train side of the split more than once"),
    ([], [0, 1, 2], "train_indices", "the split's train side is empty"),
], ids=["overlap", "repeat", "train_repeat", "empty_train"])
def test_split_that_train_rejects_names_file_and_field(
        tmp_path, train_indices, test_indices, field, why):
    # such a split loaded, and `mprim eval` then scored training demos,
    # or one demo twice, as held-out ones
    path = tmp_path / "model.json"
    checkpoint.save(_linear_model("deep-mp"), path, meta={})
    doc = json.loads(path.read_text())
    doc["payload"].update(train_indices=train_indices,
                          test_indices=test_indices)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        checkpoint.load(path)
    assert str(err.value) == (f"{path}: payload field {field!r} is "
                              f"malformed (ValueError: {why})")


def test_non_utf8_checkpoint_names_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"kind": "\xff"}\n')
    with pytest.raises(ValueError) as err:
        checkpoint.load(path)
    assert str(err.value) == f"{path}: not UTF-8 text at byte 10"


def _linear_model(method):
    return _model(method, lambda n: np.linspace(-1.0, 1.0, n),
                  lambda n: np.linspace(0.5, 1.5, n))


@pytest.mark.parametrize("method,field,value,why", [
    ("deep-mp", "theta", np.nan, "value 1 is nan; expected finite numbers"),
    ("deep-mp", "ctx_mean", np.inf, "value 1 is inf; expected finite"),
    ("deep-mp", "ctx_std", 0.0, "value 1 is 0.0; expected finite numbers > 0"),
    ("residual", "ctx_std", -1.0, "value 1 is -1.0; expected finite"),
    ("ddmp", "home", np.nan, "value 1 is nan; expected finite numbers"),
], ids=["theta_nan", "ctx_mean_inf", "ctx_std_zero", "ctx_std_negative",
        "home_nan"])
def test_save_refuses_what_load_rejects(tmp_path, method, field, value, why):
    model = _linear_model(method)
    path = tmp_path / "model.json"
    checkpoint.save(model, path, meta={})
    before = path.read_bytes()
    head = model.head
    array = {"theta": model.mlp.theta, "ctx_mean": model.ctx_mean,
             "ctx_std": model.ctx_std,
             "home": getattr(head, "home", None)}[field]
    array[1] = value
    with pytest.raises(ValueError) as err:
        checkpoint.save(model, path, meta={})
    assert str(err.value).startswith(
        f"cannot write checkpoint {path}: payload field {field!r} is "
        f"malformed (")
    assert why in str(err.value)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]


@pytest.mark.parametrize("meta,error", [
    ({"final_val_loss": float("nan")}, ValueError),
    ({"final_val_loss": float("-inf")}, ValueError),
    ({"best_epoch": np.int64(3)}, TypeError),
], ids=["nan", "inf", "numpy_int"])
def test_save_refuses_meta_that_is_not_standard_json(tmp_path, meta, error):
    model = _linear_model("deep-mp")
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    checkpoint.save(model, kept, meta={"note": "first"})
    before = kept.read_bytes()
    for path in (kept, fresh):
        with pytest.raises(error):
            checkpoint.save(model, path, meta=meta)
    assert kept.read_bytes() == before
    assert os.listdir(tmp_path) == ["kept.json"]


# every finite float64, with the edge values named; `ctx_std` draws
# from the positive ones, the only ones a checkpoint holds there
_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-310, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
_POSITIVE = st.one_of(
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-310,
                     1.7976931348623157e308]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
_N_SAMPLES = 8


def _model(method, floats, positive):
    """A small model of `method` whose arrays come from `floats(n)`, and
    its `ctx_std` from `positive(n)`."""
    n_joint, n_basis = 2, 3
    if method == "ddmp":
        head = DmpHead("rtp", n_joint, _N_SAMPLES, n_basis, floats(n_joint))
        width = n_joint * (n_basis + 1)
    else:
        width = n_joint * n_basis
        head = {"deep-mp": PrompHead, "residual": ResidualHead}[method](
            "rtp", n_joint, _N_SAMPLES, n_basis)
    sizes = (3, 4, width)
    mlp = MlpParams(sizes, floats(4 * 4 + 5 * width))
    return Model(head, mlp, floats(3), positive(3), (0, 2), (1,))


def _arrays(model):
    home = getattr(model.head, "home", None)
    return [model.mlp.theta, model.ctx_mean, model.ctx_std,
            *([] if home is None else [home])]


class TestFormatProperties:
    @settings(max_examples=60, deadline=None)
    @given(method=st.sampled_from(METHODS), data=st.data())
    def test_finite_arrays_round_trip_bit_for_bit(self, method, data):
        def arrays(elements):
            return lambda n: data.draw(
                hnp.arrays(np.float64, n, elements=elements))

        model = _model(method, arrays(_FINITE), arrays(_POSITIVE))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = (os.path.join(tmp, name)
                             for name in ("a.json", "b.json"))
            checkpoint.save(model, first, meta={})
            back = checkpoint.load(first)
            checkpoint.save(back, second, meta={})
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()
        assert type(back.head) is type(model.head)
        for want, got in zip(_arrays(model), _arrays(back), strict=True):
            assert got.dtype == np.float64
            assert got.flags.owndata and got.flags.writeable
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(method=st.sampled_from(METHODS), data=st.data(),
           any_float=st.booleans())
    def test_save_writes_what_load_returns_or_nothing(self, method, data,
                                                      any_float):
        # arrays from every float64, NaN and infinities included, or from
        # the values a checkpoint holds; a save either raises and leaves
        # the file as it was or writes what a load returns bit for bit
        def arrays(elements):
            return lambda n: data.draw(hnp.arrays(
                np.float64, n, elements=st.floats() if any_float
                else elements))

        model = _model(method, arrays(_FINITE), arrays(_POSITIVE))
        loadable = (all(np.isfinite(a).all() for a in _arrays(model))
                    and (model.ctx_std > 0).all())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            with open(path, "w") as fh:
                fh.write("an earlier file\n")
            try:
                checkpoint.save(model, path, meta={})
            except ValueError:
                assert not loadable
                with open(path) as fh:
                    assert fh.read() == "an earlier file\n"
                assert os.listdir(tmp) == ["model.json"]
                return
            assert loadable
            back = checkpoint.load(path)
        for want, got in zip(_arrays(model), _arrays(back), strict=True):
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(method=st.sampled_from(METHODS), data=st.data(),
           corruption=st.sampled_from(["char", "truncate", "length"]))
    def test_corrupt_array_names_file_and_field(self, method, data,
                                                corruption):
        model = _model(method, lambda n: np.linspace(-1.0, 1.0, n),
                       lambda n: np.linspace(0.5, 1.5, n))
        fields = ["theta", "ctx_mean", "ctx_std",
                  *(["home"] if method == "ddmp" else [])]
        field = data.draw(st.sampled_from(fields))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            checkpoint.save(model, path, meta={})
            with open(path) as fh:
                doc = json.load(fh)
            payload = doc["payload"]
            blob = payload[field]
            if corruption == "length":
                values = decode_f64(blob)
                payload[field] = encode_f64(
                    values[:-1] if data.draw(st.booleans())
                    else np.append(values, 0.0))
            else:
                at = data.draw(st.integers(0, len(blob) - 1))
                payload[field] = (blob[:at] if corruption == "truncate" else
                                  blob[:at] + data.draw(st.sampled_from(
                                      "!*-_.:@~ \u00e9")) + blob[at + 1:])
            with open(path, "w") as fh:
                json.dump(doc, fh)
            with pytest.raises(ValueError) as err:
                checkpoint.load(path)
        assert str(err.value).startswith(
            f"{path}: payload field {field!r} is malformed (")
