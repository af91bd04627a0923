"""Versioned JSON checkpoints of trained models.

A checkpoint holds one `training.Model` in one JSON object {"schema": 2,
"kind": "trained_model", "payload": {...}, "meta": {free-form}}. Its
float arrays are this module's `encode_f64` strings ("enc" below),
base64 of little-endian float64, so they round-trip bit-exactly. The
payload (schema 2) holds
  {"method": "deep-mp"|"residual"|"ddmp", "task": "rtp"|"wpp",
   "n_joint": J, "n_samples_per_traj": T,
   "layer_sizes": [int, ...], "theta": enc of every weight and bias,
   layer by layer, "ctx_mean": enc, "ctx_std": enc,
   "train_indices": [int, ...], "test_indices": [int, ...]}
and then only its head's own fields, the head's dataclass fields after
`task`, `n_joint` and `n_samples` in declaration order:
  deep-mp   "n_basis": int (`promp.build_phi` sets the basis from it
            and T)
  residual  "n_basis": int (the training mean it starts from is in the
            trained output bias, part of "theta")
  ddmp      "n_basis_dmp": int, "home": enc of J (rtp) or null (wpp)
Every array value must be finite, and every `ctx_std` entry > 0. J,
each layer size, `n_basis` and `n_basis_dmp` are integers >= 1 and T one
>= 2, by the rule of `jsonio.integer`; "task" passes
`dataset.check_task`. The two index lists form a split that
`dataset.check_split` accepts. Other
payload fields are ignored: checkpoints written while the models still
took a sampling rate and a DMP time constant hold one field for each,
and they load as before.
Schema 1 (nested decimal lists) is no longer read. Nor is a payload
holding "mean_weights", the training mean that residual checkpoints
held while their net predicted the deviation from it: such a net would
predict without its mean, so the field is refused, not ignored. Re-run
`mprim train` with the arguments in the checkpoint's manifest to
rewrite either.
"""

import base64
import dataclasses
import json

import numpy as np

from mprim.dataset import check_split, check_task
from mprim.jsonio import integer, read_json_object, replace_on_success
from mprim.regressor import MlpParams
from mprim.training import HEADS, Model

SCHEMA_VERSION = 2
KIND = "trained_model"


class OutdatedError(ValueError):
    """A payload field in a form that only an earlier version wrote."""


def save(model: Model, path, meta):
    """Write a checkpoint; `meta` is a free-form metadata dict.

    Only what `load` reads back is written. The payload goes through the
    reader's checks first: a non-finite `theta`, scaler or `home` entry,
    or a `ctx_std` entry <= 0, raises ValueError naming the field.
    A meta value that standard JSON cannot hold (NaN, infinity, a numpy
    scalar) raises ValueError or TypeError. A failed save leaves the file
    at `path` as it was: only a complete checkpoint replaces it."""
    if not isinstance(model, Model):
        raise TypeError(f"cannot checkpoint object of type "
                        f"{type(model).__name__}; only trained models")
    payload = _payload(model)
    try:
        _model(payload)
    except ValueError as err:
        raise ValueError(f"cannot write checkpoint {path}: {err}") from None
    doc = {"schema": SCHEMA_VERSION, "kind": KIND, "payload": payload,
           "meta": meta}
    with replace_on_success(path) as fh:
        json.dump(doc, fh, allow_nan=False)
        fh.write("\n")


def load(path) -> Model:
    """Read a checkpoint back into the trained model it was saved from.

    Text that is not UTF-8 or not JSON, a document that is not an object,
    a schema-1 checkpoint and a payload field that is missing, outdated or
    of the wrong type or shape raise ValueError naming the file and the
    byte, the JSON line or the field, and how to rewrite an outdated
    one."""
    doc = read_json_object(path)
    if doc.get("kind") != KIND:
        raise ValueError(f"{path}: unknown checkpoint kind "
                         f"{doc.get('kind')!r}; expected {KIND!r}")
    schema = doc.get("schema")
    rerun = (f"; re-run `mprim train` with the arguments in {path}"
             f".manifest.json to rewrite it")
    if schema != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint schema "
                         f"{schema!r}{rerun if schema == 1 else ''}")
    if not isinstance(doc.get("payload"), dict):
        raise ValueError(f"{path}: missing field 'payload' (an object)")
    try:
        return _model(doc["payload"])
    except ValueError as err:
        hint = rerun if isinstance(err, OutdatedError) else ""
        raise ValueError(f"{path}: {err}{hint}") from None


def encode_f64(values) -> str:
    """Base64 of `values` as little-endian float64, row-major."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def decode_f64(text) -> np.ndarray:
    """Inverse of `encode_f64`: a flat read-only view, else ValueError."""
    try:
        return np.frombuffer(base64.b64decode(text, validate=True), "<f8")
    except (TypeError, ValueError) as err:   # binascii.Error, odd length
        raise ValueError(f"not a base64 string of float64 ({err})") from None


# ---------------------------------------------------------------------------
# payload writer and reader

def _payload(model):
    """The checkpoint payload of `model`, fields in schema order."""
    head = model.head
    return {"method": next(m for m, cls in HEADS.items() if type(head) is cls),
            "task": head.task, "n_joint": head.n_joint,
            "n_samples_per_traj": head.n_samples,
            "layer_sizes": list(model.mlp.layer_sizes),
            "theta": encode_f64(model.mlp.theta),
            "ctx_mean": encode_f64(model.ctx_mean),
            "ctx_std": encode_f64(model.ctx_std),
            "train_indices": list(model.train_indices),
            "test_indices": list(model.test_indices),
            **{f.name: _HEAD_FIELDS[f.name][0](getattr(head, f.name))
               for f in dataclasses.fields(head)[3:]}}


def _model(d):
    """Inverse of `_payload`. ValueError names the first field, in payload
    order, that is missing or malformed (a wpp `home` after `layer_sizes`)."""
    cls = _field(d, "method", HEADS.__getitem__)
    if "mean_weights" in d:
        raise OutdatedError("payload field 'mean_weights' is malformed "
                            "(OutdatedError: it holds a residual net's "
                            "training mean, which its output bias now "
                            "holds)")
    head = {"task": _field(d, "task", check_task),
            "n_joint": _field(d, "n_joint", integer, 1, "n_joint"),
            "n_samples": _field(d, "n_samples_per_traj", integer, 2,
                                "n_samples_per_traj")}
    for f in dataclasses.fields(cls)[3:]:
        head[f.name] = _field(d, f.name, _HEAD_FIELDS[f.name][1], head)
    head = cls(**head)
    sizes = _field(d, "layer_sizes", _layer_sizes, head)
    if head.task == "wpp" and getattr(head, "home", None) is not None:
        _field(d, "home", _null)  # after layer_sizes: that names a wrong task
    mlp = _field(d, "theta", lambda v: MlpParams(sizes, _floats(v)))
    return Model(head, mlp, _field(d, "ctx_mean", _floats, mlp.n_inputs),
                 _field(d, "ctx_std",
                        lambda v: _floats(v, mlp.n_inputs, positive=True)),
                 train := _field(d, "train_indices", _indices, None),
                 _field(d, "test_indices", _indices, train))


def _field(d, name, parse, *args):
    """Payload field `name`, through `parse(value, *args)`; a missing field
    or one that `parse` rejects raises ValueError naming it."""
    if name not in d:
        raise ValueError(f"payload lacks field {name!r}")
    try:
        return parse(d[name], *args)
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"payload field {name!r} is malformed "
                         f"({type(err).__name__}: {err})") from None


def _indices(value, train):
    """The split's train side, or with `train` its test side, as a tuple."""
    if not isinstance(value, list) or any(type(i) is not int for i in value):
        raise ValueError("expected a list of integer demo indices")
    check_split(*((value, ()) if train is None else (train, value)))
    return tuple(value)


def _layer_sizes(value, head):
    """`layer_sizes` as a tuple of counts whose last is `head`'s width."""
    sizes = tuple(integer(size, 1, f"layer_sizes[{k}]")
                  for k, size in enumerate(value))
    if sizes[-1:] != (head.width,):
        raise ValueError(f"the net's last layer has "
                         f"{sizes[-1] if sizes else 0} outputs; its head "
                         f"takes {head.width}")
    return sizes


def _floats(value, n=None, positive=False):
    """An `encode_f64` vector of finite values (`n` of them, each > 0 when
    `positive`) as an array of its own."""
    out = decode_f64(value).astype(float)
    if n is not None and len(out) != n:
        raise ValueError(f"expected {n} float64 values, got {len(out)}")
    bad = np.flatnonzero(~np.isfinite(out) | (positive & (out <= 0.0)))
    if len(bad):
        raise ValueError(f"value {bad[0]} is {float(out[bad[0]])}; expected "
                         f"finite numbers{' > 0' if positive else ''}")
    return out


def _home(value, head):
    return (None if value is None and head["task"] == "wpp"
            else _floats(value, head["n_joint"]))


def _null(value):
    raise ValueError(f"expected null, got a {type(value).__name__}")


# a head's own field (a dataclass field after task, n_joint and n_samples)
# -> (writer, reader of (value, the head's fields read so far))
_HEAD_FIELDS = {
    "n_basis": (lambda n: n, lambda value, head: integer(value, 1, "n_basis")),
    "n_basis_dmp": (lambda n: n,
                    lambda value, head: integer(value, 1, "n_basis_dmp")),
    "home": (lambda home: None if home is None else encode_f64(home), _home),
}
