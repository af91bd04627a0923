"""Versioned JSON checkpoints of trained models.

A checkpoint holds one `training.Model` in one JSON object {"schema": 3,
"kind": "trained_model", "payload": {...}, "meta": {free-form}}. Its
float arrays are this module's `encode_f64` strings ("enc" below),
base64 of little-endian float64, so they round-trip bit-exactly. The
payload (schema 3) holds the head's fields, then the net's, then the
split:
  {"method": "deep-mp"|"residual"|"ddmp", "task": "rtp"|"wpp",
   "n_joint": J, "n_samples_per_traj": T, "n_basis": K,
   ddmp only: "home": enc of J (rtp) or null (wpp),
   "layer_sizes": [int, ...], "theta": enc of every weight and bias,
   layer by layer, "ctx_mean": enc, "ctx_std": enc,
   "train_indices": [int, ...], "test_indices": [int, ...]}
K is the head's number of basis parameters per joint
(`training.Head.n_basis`); `promp.build_phi` sets the ProMP basis from K
and T. A residual net's training mean is in its trained output bias,
part of "theta". Every array value must be finite, and every `ctx_std`
entry > 0. J, K and each layer size are integers >= 1 and T one >= 2,
by the rule of `jsonio.integer`; "task" passes `dataset.check_task`.
The two index lists form a split that `dataset.check_split` accepts, so
neither is empty. Any other payload field is ignored.

A change of this layout bumps `SCHEMA_VERSION`, and `load` refuses every
older schema with the hint to re-run `mprim train` with the arguments in
the checkpoint's manifest: a field that changes what a loaded model
predicts is never read from a file written without it. Schema 1 held
nested decimal lists, and schema 2 named ddmp's basis size apart from
the ProMP heads'.
"""

import base64
import json

import numpy as np

from mprim.dataset import check_split, check_task
from mprim.jsonio import integer, read_json_object, replace_on_success
from mprim.regressor import MlpParams
from mprim.training import HEADS, DmpHead, Model

SCHEMA_VERSION = 3
KIND = "trained_model"


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
    a checkpoint of another schema and a payload field that is missing or
    of the wrong type or shape raise ValueError naming the file and the
    byte, the JSON line or the field; an older schema's also says how to
    rewrite the file."""
    doc = read_json_object(path)
    if doc.get("kind") != KIND:
        raise ValueError(f"{path}: unknown checkpoint kind "
                         f"{doc.get('kind')!r}; expected {KIND!r}")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        older = type(schema) is int and 0 < schema < SCHEMA_VERSION
        rerun = (f"; re-run `mprim train` with the arguments in {path}"
                 f".manifest.json to rewrite it")
        raise ValueError(f"{path}: unsupported checkpoint schema "
                         f"{schema!r}{rerun if older else ''}")
    if not isinstance(doc.get("payload"), dict):
        raise ValueError(f"{path}: missing field 'payload' (an object)")
    try:
        return _model(doc["payload"])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


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
    home = ({"home": None if head.home is None else encode_f64(head.home)}
            if type(head) is DmpHead else {})
    return {"method": next(m for m, cls in HEADS.items() if type(head) is cls),
            "task": head.task, "n_joint": head.n_joint,
            "n_samples_per_traj": head.n_samples, "n_basis": head.n_basis,
            **home,
            "layer_sizes": list(model.mlp.layer_sizes),
            "theta": encode_f64(model.mlp.theta),
            "ctx_mean": encode_f64(model.ctx_mean),
            "ctx_std": encode_f64(model.ctx_std),
            "train_indices": list(model.train_indices),
            "test_indices": list(model.test_indices)}


def _model(d):
    """Inverse of `_payload`. ValueError names the first field, in payload
    order, that is missing or malformed (a wpp `home` after `layer_sizes`)."""
    cls = _field(d, "method", HEADS.__getitem__)
    head = [_field(d, "task", check_task),
            _field(d, "n_joint", integer, 1, "n_joint"),
            _field(d, "n_samples_per_traj", integer, 2, "n_samples_per_traj"),
            _field(d, "n_basis", integer, 1, "n_basis")]
    if cls is DmpHead:
        head.append(_field(d, "home", _home, *head[:2]))
    head = cls(*head)
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
    check_split(value) if train is None else check_split(train, value)
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


def _home(value, task, n_joint):
    return None if value is None and task == "wpp" else _floats(value, n_joint)


def _null(value):
    raise ValueError(f"expected null, got a {type(value).__name__}")
