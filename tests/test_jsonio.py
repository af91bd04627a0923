"""The integer rule of `jsonio.integer`, as each file boundary states it."""

import dataclasses
import json

import pytest

from mprim import checkpoint
from mprim.dataset import (TRAIN_FRACTION, generate_rtp, load_jsonl,
                           random_split, save_jsonl)
from mprim.training import TrainConfig, train


def _demos():
    return generate_rtp(seed=1, counts=(2, 1, 1, 1), noise_std=0.0)


def _dataset_header(path, value):
    """Load a dataset file whose header's n_joint is `value`."""
    save_jsonl(_demos(), path)
    header, rest = path.read_bytes().split(b"\n", 1)
    header = json.dumps({**json.loads(header), "n_joint": value})
    path.write_bytes(header.encode() + b"\n" + rest)
    load_jsonl(path)


def _checkpoint(path, value):
    """Load a deep-mp checkpoint whose n_basis is `value`."""
    cfg = TrainConfig(epochs=0, batch_size=32, learning_rate=1e-3, seed=1,
                      early_stop_patience=20)
    demos = _demos()
    model, _ = train("deep-mp", demos, cfg, basis=8, hidden=(4,),
                     split=random_split(len(demos), TRAIN_FRACTION, 1))
    checkpoint.save(model, path, meta={})
    doc = json.loads(path.read_text())
    doc["payload"]["n_basis"] = value
    path.write_text(json.dumps(doc))
    checkpoint.load(path)


# site -> (call of (path, value), the field's name there, its least value,
# the text before and after the rule in the site's message)
SITES = {
    "dataset_header": (_dataset_header, "n_joint", 1, "{path}: line 1: ", ""),
    "checkpoint": (_checkpoint, "n_basis", 1,
                   "{path}: payload field 'n_basis' is malformed "
                   "(ValueError: ", ")"),
    "generate_rtp": (lambda path, value: generate_rtp(
        seed=1, counts=(2, value, 1, 1), noise_std=0.0),
        "region B count", 1, "", ""),
    "save_jsonl_seed": (lambda path, value: save_jsonl(
        dataclasses.replace(_demos(), seed=value), path), "seed", 0, "", ""),
}


@pytest.mark.parametrize("value", [True, 1.5, "3", None, "low - 1"],
                         ids=["bool", "float", "str", "null", "below"])
@pytest.mark.parametrize("site", SITES)
def test_integer_rule_reads_the_same_at_every_boundary(tmp_path, site,
                                                       value):
    call, name, low, before, after = SITES[site]
    value = low - 1 if value == "low - 1" else value
    path = tmp_path / "file"
    with pytest.raises(ValueError) as err:
        call(path, value)
    assert str(err.value) == (
        f"{before.format(path=path)}{name} must be an integer >= {low}, "
        f"got {json.dumps(value)}{after}")
