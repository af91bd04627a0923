"""Versioned JSON checkpoints of trained models.

A checkpoint holds one `training.Model` in one JSON object {"schema": 2,
"kind": "trained_model", "payload": {...}, "meta": {free-form}}. Its
float arrays are `dataset.encode_f64` strings ("enc" below), as in
datasets, so they round-trip bit-exactly. The payload (schema 2) holds
  {"method": "deep-mp"|"residual"|"ddmp", "task": "rtp"|"wpp",
   "n_joint": J, "n_samples_per_traj": T,
   "layer_sizes": [int, ...], "theta": enc of every weight and bias,
   layer by layer, "ctx_mean": enc, "ctx_std": enc,
   "train_indices": [int, ...], "test_indices": [int, ...]}
and then only the fields of its method's head:
  deep-mp   "n_basis": int (`basis.build_phi` sets the basis from it
            and T)
  residual  "n_basis": int, "mean_weights": {region: enc of J*n_basis}
  ddmp      "n_basis_dmp": int, "home": enc of J or null
Every array value must be finite, and every `ctx_std` entry > 0. Other
payload fields are ignored: checkpoints written while the models still
took a sampling rate and a DMP time constant hold one field for each,
and they load as before.
Schema 1 (nested decimal lists) is no longer read: re-run `mprim train`
with the arguments in the checkpoint's manifest to rewrite it.
"""

import json

from mprim.jsonio import read_json_object, replace_on_success
from mprim.training import Model

SCHEMA_VERSION = 2
KIND = "trained_model"


def save(model: Model, path, meta=None):
    """Write a checkpoint; `meta` is an optional free-form metadata dict.

    Only what `load` reads back is written. The payload goes through
    `Model.from_dict`, the reader's checks, first: a non-finite `theta`,
    scaler, mean or `home` entry, or a `ctx_std` entry <= 0, raises
    ValueError naming the field. A meta value that standard JSON cannot
    hold (NaN, infinity, a numpy scalar) raises ValueError or TypeError.
    The file at `path` is replaced only by a complete checkpoint: a
    failed save leaves it as it was."""
    if not isinstance(model, Model):
        raise TypeError(f"cannot checkpoint object of type "
                        f"{type(model).__name__}; only trained models")
    payload = model.to_dict()
    try:
        Model.from_dict(payload)
    except ValueError as err:
        raise ValueError(f"cannot write checkpoint {path}: {err}") from None
    doc = {"schema": SCHEMA_VERSION, "kind": KIND, "payload": payload,
           "meta": meta or {}}
    with replace_on_success(path) as fh:
        json.dump(doc, fh, allow_nan=False)
        fh.write("\n")


def load(path) -> Model:
    """Read a checkpoint back into the trained model it was saved from.

    Text that is not UTF-8 or not JSON, a document that is not an object,
    a schema-1 checkpoint and a payload field that is missing or of the
    wrong type or shape raise ValueError naming the file and the byte,
    the JSON line or the field."""
    doc = read_json_object(path)
    if doc.get("kind") != KIND:
        raise ValueError(f"{path}: unknown checkpoint kind "
                         f"{doc.get('kind')!r}; expected {KIND!r}")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        rerun = (f"; re-run `mprim train` with the arguments in {path}"
                 f".manifest.json to rewrite it" if schema == 1 else "")
        raise ValueError(f"{path}: unsupported checkpoint schema "
                         f"{schema!r}{rerun}")
    if not isinstance(doc.get("payload"), dict):
        raise ValueError(f"{path}: missing field 'payload' (an object)")
    try:
        return Model.from_dict(doc["payload"])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
