"""Probabilistic movement primitives over the normalized Gaussian basis.

A joint trajectory q, a (T, n_joint) array of joint positions, is
modelled as q_t = psi_t . theta. `fit_weights` fits the basis weights
theta of a stack of demos by least squares with the fixed ridge `RIDGE`,
one shared normal matrix for every joint and demo, reading the stack
where it lies. Decoding weights back into trajectories is one batched
product with the basis matrix, done by the heads in `mprim.training`.
"""

import numpy as np

from mprim.basis import PhiMatrix

RIDGE = 1e-6


def fit_weights(values, phi: PhiMatrix):
    """Ridge least-squares basis weights of a (B, T, m) stack of B demos
    of m columns each, e.g. every joint of a demo.

    All columns share one normal matrix: (RIDGE*I + Phi^T Phi) theta =
    Phi^T q. The right-hand side Phi^T q is one stacked product read from
    `values` where it lies, so no copy of `values` is made and only arrays
    of the weights' size are allocated. Returns (B, m, n_basis). A demo of
    a stack is solved alone, so each row of a stack's weights is bit for
    bit the fit of that demo as a stack of one.
    """
    q = np.asarray(values, dtype=float)
    if q.ndim != 3 or q.shape[1] != phi.n_samples:
        raise ValueError(
            f"trajectory stack shape {q.shape} is not (B, "
            f"{phi.n_samples}, m) for the basis matrix's rows")
    gram = phi.gram + RIDGE * np.eye(phi.n_basis)
    return np.swapaxes(np.linalg.solve(gram, np.matmul(phi.values.T, q)),
                       -1, -2)
