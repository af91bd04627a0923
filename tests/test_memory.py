"""Memory budget of the passes over a whole stack of demos.

A stage holds the dataset, one split's prediction and truth, and
temporaries of at most a chunk of demos; no fit or score makes a second
copy of the stack. `ru_maxrss` covers the whole process, so these tests
trace one call with tracemalloc, which sees numpy's array buffers.
"""

import tracemalloc

import pytest

from mprim.dataset import WPP_SPLITS, apply_split, generate_wpp
from mprim.training import HEADS, TrainConfig, evaluate, train

# what a fit may allocate beyond what it returns, as a share of the bytes
# of the stack it works through: a chunk's temporaries and arrays of the
# targets' size (on this stack: 0.086 for ddmp, 0.069 for deep-mp and
# residual)
STACK_SHARE = 0.10
# evaluate holds besides the prediction and truth at most one chunk's
# temporaries and arrays of the fitted parameters' size (on this stack:
# 0.12 for ddmp, 0.08 for deep-mp and residual)
EVALUATE_SHARE = 0.15


@pytest.fixture(scope="module")
def paper_wpp():
    """The paper-sized palpation stack (868 demos, about 7 MB) and its
    WPP1 split."""
    ds = generate_wpp(seed=23)
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


@pytest.mark.parametrize("method", sorted(HEADS))
def test_head_fit_holds_no_copy_of_the_stack(paper_wpp, method):
    ds, (train_idx, _) = paper_wpp

    def fit():
        return HEADS[method].fit(ds, train_idx)

    fit()   # fills the caches a first call fills
    (_, targets), peak = traced_peak(fit)
    assert peak - targets.nbytes < STACK_SHARE * ds.trajectories.nbytes


@pytest.mark.parametrize("method", sorted(HEADS))
def test_evaluate_holds_prediction_truth_and_a_chunk(paper_wpp, method):
    ds, (train_idx, test_idx) = paper_wpp
    model, _ = train(method, ds, TrainConfig(epochs=0),
                     split=(train_idx, test_idx))
    evaluate(model, ds, test_idx)
    (*_, pred), peak = traced_peak(lambda: evaluate(model, ds, test_idx))
    # besides the prediction it returns, it holds the split's truth
    assert peak - 2 * pred.nbytes < EVALUATE_SHARE * ds.trajectories.nbytes
