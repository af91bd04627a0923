"""Joint-space evaluation metrics."""

import math
from dataclasses import dataclass

import numpy as np


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
        # a NaN fails every comparison
        if not all(0 <= v < math.inf for v in (self.ave_mse, self.ave_ed_mm)):
            raise ValueError("metrics must be finite and nonnegative")


def squared_trajectory_loss(pred, truth) -> np.ndarray:
    """Each demo's squared trajectory error, the term AveMSE averages.

    `pred` and `truth` are (B, T, n_joint) trajectories; per demo the
    squared error is averaged over time and summed over joints. Returns
    shape (B,). Callers pass at most one chunk of demos, so the one
    temporary, their squared error, has a fixed size; each demo's term is
    bit for bit its B = 1 value. The inputs are not modified.
    """
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 3:
        raise ValueError(f"prediction {pred.shape} and ground truth "
                         f"{truth.shape} must be equal (B, T, n_joint)")
    sq = np.subtract(pred, truth)
    sq *= sq
    return np.sum(np.mean(sq, axis=1), axis=1)
