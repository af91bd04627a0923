"""Probabilistic movement primitives over the normalized Gaussian basis:
the phase, the basis, the ridge fit and the reconstruction. `mprim.dmp`
is its twin for the goal-attractor primitives.

Every demo and every rollout spans one nominal duration, so a trajectory
of T samples is expressed over the phase s_k = k/(T-1) in [0, 1]; the
sampling frequency does not enter. The basis is the T x N matrix Phi
whose row k holds the normalized Gaussian activations at s_k; rows sum to
one, and T and the basis size N alone set it (`build_phi`). A joint
trajectory q, a (T, n_joint) array of joint positions, is modelled as
q_t = psi_t . theta. `fit_weights` fits the basis weights theta of a
stack of demos by least squares with the fixed ridge `RIDGE`, one shared
normal matrix for every joint and demo, reading the stack where it lies;
`reconstruct` decodes weights back into trajectories in one batched
product with Phi.
"""

from dataclasses import dataclass

import numpy as np

from mprim import kernels

RIDGE = 1e-6


@dataclass(frozen=True, eq=False)
class PhiMatrix:
    """T x N basis matrix; row k is the activation vector at phase s_k.

    `gram` is the N x N Gram matrix values.T @ values, computed once. It is
    the normal matrix of the ridge fit and, since |Phi d|^2 = d^T gram d,
    it lets the trajectory loss score weight residuals without building
    trajectories.
    """

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise ValueError("basis matrix must be 2-D")
        if not np.all(np.isfinite(v)):
            raise ValueError("basis matrix has non-finite entries")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("basis matrix entries must lie in [0, 1]")
        if np.max(np.abs(v.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("basis matrix rows must sum to 1")
        object.__setattr__(self, "gram", v.T @ v)

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def n_basis(self):
        return self.values.shape[1]


def build_phi(n_samples: int, n_basis: int) -> PhiMatrix:
    """Basis matrix of `n_basis` normalized Gaussians over the phase
    s_k = k/(n_samples-1), k = 0..n_samples-1.

    The centers lie evenly over [0, 1], ends included. The shared width is
    the squared center spacing (1.0 for a single basis), which puts the
    crossing point of adjacent bases around 0.6 and keeps the Gram matrix
    well-conditioned.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if n_basis < 1:
        raise ValueError(f"n_basis must be >= 1, got {n_basis}")
    s = np.arange(n_samples) / (n_samples - 1)
    centers = np.linspace(0.0, 1.0, n_basis)
    width = (centers[1] - centers[0]) ** 2 if n_basis > 1 else 1.0
    return PhiMatrix(kernels.basis_matrix(s, centers, float(width)))


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


def reconstruct(weights, phi: PhiMatrix):
    """The (B, T, m) trajectories of (B, m, n_basis) basis weights, the
    inverse of `fit_weights` up to its residual: one stacked product with
    the basis matrix, each demo's rows computed alone."""
    return np.swapaxes(weights @ phi.values.T, 1, 2)
