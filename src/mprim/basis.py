"""Phase function and normalized Gaussian basis matrix.

Trajectories are expressed over a phase z(t) = t / f (no time modulation).
Every representation downstream works through the T x N basis matrix whose
row t holds the normalized Gaussian activations at z(t); rows sum to one.
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
class BasisConfig:
    """Normalized-Gaussian basis: center per basis plus one shared width.

    Centers are in phase units and must be strictly increasing; width is
    the (phase-units squared) denominator scale of the exponentials.
    """

    n_basis: int
    centers: tuple
    width: float

    def __post_init__(self):
        if self.n_basis < 1:
            raise ValueError("n_basis must be >= 1")
        if len(self.centers) != self.n_basis:
            raise ValueError("centers length must equal n_basis")
        if not self.width > 0:
            raise ValueError("width must be > 0")
        c = np.asarray(self.centers, dtype=float)
        if self.n_basis > 1 and not np.all(np.diff(c) > 0):
            raise ValueError("centers must be strictly increasing")

    @classmethod
    def evenly_spaced(cls, n_basis, z_end):
        """Default placement: centers evenly over [0, z_end] inclusive.

        Width is the squared center spacing, which puts the crossing point
        of adjacent bases around 0.6 and keeps the Gram matrix
        well-conditioned. With a single basis the spacing is undefined, so
        the width falls back to z_end**2 (or 1 for a degenerate span).
        """
        centers = np.linspace(0.0, float(z_end), n_basis)
        if n_basis > 1:
            width = float((centers[1] - centers[0]) ** 2)
        else:
            width = float(z_end) ** 2 if z_end > 0 else 1.0
        return cls(n_basis, tuple(float(c) for c in centers), width)


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


def phase(t, cfg: PhaseConfig) -> float:
    """Phase value of sample t, i.e. t / sampling_frequency."""
    if not 0 <= t < cfg.duration_samples:
        raise IndexError(
            f"sample index {t} outside [0, {cfg.duration_samples})")
    return t / cfg.sampling_frequency


def phase_grid(cfg: PhaseConfig) -> np.ndarray:
    """Phase values of all samples, shape (duration_samples,)."""
    return np.arange(cfg.duration_samples, dtype=float) / cfg.sampling_frequency


def default_basis(phase_cfg: PhaseConfig, n_basis: int) -> BasisConfig:
    """Evenly spaced basis over the realized phase span of phase_cfg."""
    z_end = phase(phase_cfg.duration_samples - 1, phase_cfg)
    return BasisConfig.evenly_spaced(n_basis, z_end)


def build_phi(phase_cfg: PhaseConfig, basis_cfg: BasisConfig) -> PhiMatrix:
    """Stack basis rows for every sample of the phase grid."""
    values = kernels.basis_matrix(
        phase_grid(phase_cfg), np.asarray(basis_cfg.centers), basis_cfg.width)
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(
            "basis activations underflowed on part of the phase grid")
    return PhiMatrix(values)
