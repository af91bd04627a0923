"""Normalized Gaussian basis matrix over the normalized phase.

Every demo and every rollout spans one nominal duration, so a trajectory
of T samples is expressed over the phase s_k = k/(T-1) in [0, 1]; the
sampling frequency does not enter. Every representation downstream works
through the T x N basis matrix whose row k holds the normalized Gaussian
activations at s_k; rows sum to one. The basis is set by T and its size N
alone (`build_phi`).
"""

from dataclasses import dataclass, field

import numpy as np

from mprim import kernels


@dataclass(frozen=True)
class PhiMatrix:
    """T x N basis matrix; row k is the activation vector at phase s_k.

    `gram` is the N x N Gram matrix values.T @ values, computed once. It is
    the normal matrix of the ridge fit and, since |Phi d|^2 = d^T gram d,
    it lets the trajectory loss score weight residuals without building
    trajectories.
    """

    values: np.ndarray
    gram: np.ndarray = field(init=False, repr=False, compare=False)

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
