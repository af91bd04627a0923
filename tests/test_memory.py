"""Memory budget of the passes over a whole stack of demos.

A stage holds the dataset, one split's prediction and truth, and
temporaries of at most a chunk of demos; no generate, save, load, fit or
score makes a second copy of the stack, and the training loop allocates
its arrays once per run. `ru_maxrss` covers the whole process, so these
tests trace one call with tracemalloc, which sees numpy's array
buffers.
"""

import tracemalloc

import pytest

from mprim.dataset import (WPP_DEFAULT_TRIALS, WPP_SPLITS, apply_split,
                           generate_wpp, load_jsonl, save_jsonl)
from mprim.kinematics import DEFAULT_CHAIN
from mprim.training import HEADS, TrainConfig, evaluate, train

# what a generate, a save, a load or a fit may allocate beyond what it
# returns, as a share of the bytes of the stack it works through: a
# chunk's temporaries and arrays of the targets' size (on this stack:
# 0.096 for the ddmp fit and 0.086 for deep-mp and residual, whose fits
# read the training demos one chunk at a time; 0.072 for the wpp
# generator, tags included; 0.048 for a save and 0.055 for a load)
STACK_SHARE = 0.10
# evaluate holds besides the prediction and truth at most one chunk's
# temporaries and arrays of the fitted parameters' size (on this stack:
# 0.12 for ddmp, 0.08 for deep-mp and residual)
EVALUATE_SHARE = 0.15
# what the epochs of a `train` allocate beyond a run of 0 epochs, which
# already holds every array the loop reuses: the loss temporaries of one
# minibatch or validation chunk (on this stack: 0.054 for ddmp, 0.029
# for deep-mp and residual; 0.198 and 0.094 when each epoch checked the
# whole (155, width) validation side in one pass)
EPOCH_SHARE = 0.08


@pytest.fixture(scope="module")
def paper_wpp():
    """The paper-sized palpation stack (868 demos, about 7 MB) and its
    WPP1 split."""
    ds = generate_wpp(seed=23, trials_per_cell=WPP_DEFAULT_TRIALS)
    return ds, apply_split(ds, WPP_SPLITS["WPP1"], seed=0)


def traced_peak(call):
    """(call(), the peak bytes allocated while it ran beyond those
    allocated when it began)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_generate_writes_each_cell_into_the_stack():
    generate_wpp(seed=1, trials_per_cell=1)   # fills what a first call fills
    ds, peak = traced_peak(lambda: generate_wpp(
        seed=23, trials_per_cell=WPP_DEFAULT_TRIALS))
    returned = ds.trajectories.nbytes + ds.contexts.nbytes
    assert peak - returned < STACK_SHARE * ds.trajectories.nbytes


def test_save_writes_the_stack_from_its_own_buffer(paper_wpp, tmp_path):
    ds, _ = paper_wpp
    path = tmp_path / "wpp.jsonl"
    save_jsonl(ds, path)
    _, peak = traced_peak(lambda: save_jsonl(ds, path))
    assert peak < STACK_SHARE * ds.trajectories.nbytes


def test_load_reads_the_stack_into_the_array_it_returns(paper_wpp,
                                                        tmp_path):
    ds, _ = paper_wpp
    path = tmp_path / "wpp.jsonl"
    save_jsonl(ds, path)
    back, peak = traced_peak(lambda: load_jsonl(path))
    returned = back.trajectories.nbytes + back.contexts.nbytes
    assert peak - returned < STACK_SHARE * ds.trajectories.nbytes


@pytest.mark.parametrize("method", sorted(HEADS))
def test_head_fit_holds_no_copy_of_the_stack(paper_wpp, method):
    ds, (train_idx, _) = paper_wpp

    def fit():   # at the basis sizes `mprim train` uses on wpp data
        return HEADS[method].fit(ds, train_idx,
                                 25 if method == "ddmp" else 10)

    fit()   # fills the caches a first call fills
    (_, targets), peak = traced_peak(fit)
    assert peak - targets.nbytes < STACK_SHARE * ds.trajectories.nbytes


@pytest.mark.parametrize("method", sorted(HEADS))
def test_evaluate_holds_prediction_truth_and_a_chunk(paper_wpp, method):
    ds, (train_idx, test_idx) = paper_wpp
    cfg = TrainConfig(epochs=0, batch_size=32, learning_rate=1e-3, seed=0,
                      early_stop_patience=20)
    model, _ = train(method, ds, cfg, n_basis=10, hidden=(64, 64),
                     n_basis_dmp=25, split=(train_idx, test_idx))
    evaluate(model, ds, test_idx, DEFAULT_CHAIN)
    (*_, pred), peak = traced_peak(
        lambda: evaluate(model, ds, test_idx, DEFAULT_CHAIN))
    # besides the prediction it returns, it holds the split's truth
    assert peak - 2 * pred.nbytes < EVALUATE_SHARE * ds.trajectories.nbytes


@pytest.mark.parametrize("method", sorted(HEADS))
def test_epochs_allocate_one_chunk_of_loss_temporaries(paper_wpp, method):
    ds, split = paper_wpp

    def run(epochs):   # at the sizes `mprim train` uses on wpp data
        cfg = TrainConfig(epochs=epochs, batch_size=32, learning_rate=1e-3,
                          seed=0, early_stop_patience=20)
        return train(method, ds, cfg, n_basis=10, hidden=(64, 64),
                     n_basis_dmp=25, split=split)

    run(3)   # fills the caches a first call fills
    _, setup = traced_peak(lambda: run(0))
    (_, report), peak = traced_peak(lambda: run(3))
    assert report.final_epoch == 3
    assert peak - setup < EPOCH_SHARE * ds.trajectories.nbytes
