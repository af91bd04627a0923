"""Phase grid and normalized Gaussian basis matrix.

Trajectories are expressed over a phase z(t) = t / f (no time modulation).
Every representation downstream works through the T x N basis matrix whose
row t holds the normalized Gaussian activations at z(t); rows sum to one.
The basis is set by the phase grid and its size N alone (`build_phi`).
"""

from dataclasses import dataclass, field

import numpy as np

from mprim import kernels


@dataclass(frozen=True)
class PhaseConfig:
    """Sampling grid of a trajectory: frequency in Hz and sample count."""

    sampling_frequency: float
    duration_samples: int

    def __post_init__(self):
        if not self.sampling_frequency > 0:
            raise ValueError("sampling_frequency must be > 0")
        if self.duration_samples < 2:
            raise ValueError("duration_samples must be >= 2")


@dataclass(frozen=True)
class PhiMatrix:
    """T x N basis matrix; row t is the activation vector at phase z(t).

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


def phase_grid(cfg: PhaseConfig) -> np.ndarray:
    """Phase values of all samples, shape (duration_samples,)."""
    return np.arange(cfg.duration_samples, dtype=float) / cfg.sampling_frequency


def build_phi(phase_cfg: PhaseConfig, n_basis: int) -> PhiMatrix:
    """Basis matrix of `n_basis` normalized Gaussians over the phase grid.

    The centers lie evenly over the realized span [0, (T-1)/f], ends
    included. The shared width is the squared center spacing (the squared
    span for a single basis), which puts the crossing point of adjacent
    bases around 0.6 and keeps the Gram matrix well-conditioned.
    """
    if n_basis < 1:
        raise ValueError(f"n_basis must be >= 1, got {n_basis}")
    z = phase_grid(phase_cfg)
    centers = np.linspace(0.0, z[-1], n_basis)
    spacing = centers[1] - centers[0] if n_basis > 1 else z[-1]
    return PhiMatrix(kernels.basis_matrix(z, centers, float(spacing ** 2)))
