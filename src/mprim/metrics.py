"""Joint-space evaluation metrics."""

from dataclasses import dataclass

import numpy as np

from mprim.kernels import CHUNK_DEMOS


@dataclass(frozen=True)
class EvalRecord:
    """One metrics row: a sample group with its error averages."""

    group: str
    ave_mse: float      # rad^2
    ave_ed_mm: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("a metrics row needs at least one sample")
        if self.ave_mse < 0 or self.ave_ed_mm < 0:
            raise ValueError("metrics must be nonnegative")


def squared_trajectory_loss(pred, truth) -> np.ndarray:
    """Each demo's squared trajectory error, the term AveMSE averages.

    `pred` and `truth` are (B, T, n_joint) trajectories; per demo the
    squared error is averaged over time and summed over joints. Returns
    shape (B,). The demos are scored CHUNK_DEMOS at a time into the
    result, so the only temporary is one chunk's squared error, and each
    demo's term is bit for bit its B = 1 value. The inputs are not
    modified.
    """
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 3:
        raise ValueError(f"prediction {pred.shape} and ground truth "
                         f"{truth.shape} must be equal (B, T, n_joint)")
    out = np.empty(len(pred))
    for lo in range(0, len(pred), CHUNK_DEMOS):
        rows = slice(lo, lo + CHUNK_DEMOS)
        sq = np.subtract(pred[rows], truth[rows])
        sq *= sq
        np.sum(np.mean(sq, axis=1), axis=1, out=out[rows])
        del sq   # before the next chunk's is made
    return out
