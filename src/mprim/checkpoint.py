"""Versioned JSON checkpoints of trained models.

A checkpoint holds one trained `training.Model` and nothing else: a JSON
object with "schema" (1), "kind" ("trained_model"), the model's payload
(`Model.to_dict`, which includes its head's fields) and a free-form
"meta" dict. Arrays are stored as nested lists with full repr precision
(bit-exact round trip).
"""

import json

from mprim.training import Model

SCHEMA_VERSION = 1
KIND = "trained_model"


def save(model: Model, path, meta=None):
    """Write a checkpoint; `meta` is an optional free-form metadata dict."""
    if not isinstance(model, Model):
        raise TypeError(f"cannot checkpoint object of type "
                        f"{type(model).__name__}; only trained models")
    doc = {"schema": SCHEMA_VERSION, "kind": KIND,
           "payload": model.to_dict(), "meta": meta or {}}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load(path) -> Model:
    """Read a checkpoint back into the trained model it was saved from.

    Invalid JSON, a document that is not an object, and a payload field
    that is missing or of the wrong type or shape raise ValueError naming
    the file and the JSON line or the field."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: invalid JSON at line {err.lineno} "
                             f"column {err.colno}: {err.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got a "
                         f"{type(doc).__name__}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint schema "
                         f"{doc.get('schema')!r}")
    if doc.get("kind") != KIND:
        raise ValueError(f"{path}: unknown checkpoint kind "
                         f"{doc.get('kind')!r}; expected {KIND!r}")
    if not isinstance(doc.get("payload"), dict):
        raise ValueError(f"{path}: missing field 'payload' (an object)")
    try:
        return Model.from_dict(doc["payload"])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
