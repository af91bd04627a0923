"""Probabilistic movement primitives over the normalized Gaussian basis.

A joint trajectory q, a (T, n_joint) array of joint positions, is
modelled as q_t = psi_t . theta. `fit_weights` fits the basis weights
theta by ridge-regularized least squares, one shared normal matrix for
every joint and demo. Decoding weights back into trajectories is one
batched product with the basis matrix, done by the heads in
`mprim.training`.
"""

import numpy as np

from mprim.basis import PhiMatrix
from mprim.errors import SingularSystemError

DEFAULT_RIDGE = 1e-6
_MAX_CONDITION = 1e12


def fit_weights(values, phi: PhiMatrix, ridge: float = DEFAULT_RIDGE):
    """Ridge least-squares basis weights of trajectory columns.

    `values` is one column (T,) or m columns side by side (T, m), e.g.
    every joint of a trajectory or of many demos. All columns share one
    normal matrix: (ridge*I + Phi^T Phi) theta = Phi^T q is solved once
    for all of them. Returns (n_basis,) for one column, else
    (m, n_basis). With ridge == 0 a rank-deficient basis matrix is
    rejected instead of silently producing garbage.
    """
    q = np.asarray(values, dtype=float)
    if q.ndim not in (1, 2) or q.shape[0] != phi.n_samples:
        raise ValueError(
            f"trajectory shape {q.shape} does not match basis matrix rows "
            f"{phi.n_samples}")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    gram = phi.gram + ridge * np.eye(phi.n_basis)
    if ridge == 0.0:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > _MAX_CONDITION:
            raise SingularSystemError(
                f"normal matrix condition number {cond:.3e} exceeds "
                f"{_MAX_CONDITION:.0e} with ridge=0; the basis matrix is "
                "rank deficient, use a positive ridge")
    return np.linalg.solve(gram, phi.values.T @ q).T
