"""Probabilistic movement primitives over the normalized Gaussian basis.

A joint trajectory q, a (T, n_joint) array of joint positions, is
modelled as q_t = psi_t . theta. `fit_weights` fits the basis weights
theta by ridge-regularized least squares, one shared normal matrix for
every joint and demo, reading a stack of demos where it lies. Decoding
weights back into trajectories is one batched product with the basis
matrix, done by the heads in `mprim.training`.
"""

import numpy as np

from mprim.basis import PhiMatrix
from mprim.errors import SingularSystemError

DEFAULT_RIDGE = 1e-6
_MAX_CONDITION = 1e12


def fit_weights(values, phi: PhiMatrix, ridge: float = DEFAULT_RIDGE):
    """Ridge least-squares basis weights of trajectory columns.

    `values` is one column (T,), m columns side by side (T, m), e.g. every
    joint of one demo, or a stack of B such demos (B, T, m). All columns
    share one normal matrix: (ridge*I + Phi^T Phi) theta = Phi^T q. The
    right-hand side Phi^T q is one stacked product read from `values`
    where it lies, so no copy of `values` is made and only arrays of the
    weights' size are allocated. Returns (n_basis,), (m, n_basis) or
    (B, m, n_basis). A demo of a stack is solved alone, so each row of a
    stack's weights is bit for bit the fit of its (T, m) demo. With
    ridge == 0 a rank-deficient basis matrix is rejected instead of
    silently producing garbage.
    """
    q = np.asarray(values, dtype=float)
    n_samples = q.shape[1] if q.ndim == 3 else q.shape[0]
    if q.ndim not in (1, 2, 3) or n_samples != phi.n_samples:
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
    weights = np.linalg.solve(gram, np.matmul(phi.values.T, q))
    return weights if q.ndim == 1 else np.swapaxes(weights, -1, -2)
