"""Fixed-seed golden metrics: the behaviour contract of train + evaluate.

Small seeded rtp and wpp datasets, every method trained for a fixed number
of epochs (patience equal to the epoch count, so no early stop), then the
`overall` row of `evaluate` pinned to 6 significant digits. A refactor of
the trainer, the heads or the evaluation must leave these figures alone.
"""

import pytest

from mprim.dataset import (TRAIN_FRACTION, WPP_SPLITS, apply_split,
                           generate_rtp, generate_wpp, random_split)
from mprim.kinematics import DEFAULT_CHAIN
from mprim.training import TrainConfig, evaluate, train

EPOCHS = 60

# (task, method) -> (ave_mse rad^2, ave_ed mm, test demos)
GOLDEN = {
    ("rtp", "deep-mp"): ("0.0115672", "30.2162", 8),
    ("rtp", "residual"): ("0.00158175", "10.9755", 8),
    ("rtp", "ddmp"): ("0.107718", "40.0512", 8),
    ("wpp", "deep-mp"): ("0.306317", "251.066", 16),
    ("wpp", "residual"): ("0.0787784", "148.343", 16),
    ("wpp", "ddmp"): ("0.10179", "83.5469", 16),
}


@pytest.fixture(scope="module")
def datasets():
    rtp = generate_rtp(seed=31, counts=(24, 12, 8, 6), noise_std=0.0)
    wpp = generate_wpp(seed=32, trials_per_cell=2)
    # the random split is the one `mprim train` draws at the train seed
    return {"rtp": (rtp, random_split(len(rtp), TRAIN_FRACTION, 5)),
            "wpp": (wpp, apply_split(wpp, WPP_SPLITS["WPP1"], 32))}


@pytest.mark.parametrize("task,method", sorted(GOLDEN))
def test_overall_metrics_are_pinned(datasets, task, method):
    dataset, split = datasets[task]
    cfg = TrainConfig(epochs=EPOCHS, batch_size=32, learning_rate=5e-3,
                      seed=5, early_stop_patience=EPOCHS)
    basis = 25 if method == "ddmp" else {"rtp": 8, "wpp": 10}[task]
    model, report = train(method, dataset, cfg, basis=basis,
                          hidden=(64, 64), split=split)
    assert report.final_epoch == EPOCHS
    _, overall, _ = evaluate(model, dataset, model.test_indices,
                             DEFAULT_CHAIN)
    mse, ed, count = GOLDEN[task, method]
    assert (f"{overall.ave_mse:.6g}", f"{overall.ave_ed_mm:.6g}",
            overall.count) == (mse, ed, count)
