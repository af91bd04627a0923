"""Probabilistic movement primitives over the normalized Gaussian basis.

A joint trajectory q is modelled as q_t = psi_t . theta (+ noise). Weights
are fit by ridge-regularized least squares, one shared normal matrix for
every joint and demo; a Gaussian over the weights gives a trajectory
distribution whose per-sample marginals and samples are available here.
"""

from dataclasses import dataclass

import numpy as np

from mprim.basis import PhaseConfig, PhiMatrix
from mprim.errors import SingularSystemError

DEFAULT_RIDGE = 1e-6
DEFAULT_OBS_NOISE_VAR = 1e-4  # rad^2, used for sampling only
_MAX_CONDITION = 1e12


@dataclass(frozen=True)
class Trajectory:
    """Joint positions over time, shape (T, n_joint), radians."""

    values: np.ndarray
    phase_cfg: PhaseConfig

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise ValueError("trajectory values must be (T, n_joint)")
        if v.shape[0] != self.phase_cfg.duration_samples:
            raise ValueError(
                f"trajectory has {v.shape[0]} samples but phase config "
                f"declares {self.phase_cfg.duration_samples}")
        if not np.all(np.isfinite(v)):
            raise ValueError("trajectory values must be finite")

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def n_joint(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class PrompWeights:
    """Basis weights for every joint, shape (n_joint, n_basis)."""

    per_joint: np.ndarray

    def __post_init__(self):
        if self.per_joint.ndim != 2:
            raise ValueError("weights must be (n_joint, n_basis)")

    @property
    def n_joint(self):
        return self.per_joint.shape[0]

    @property
    def n_basis(self):
        return self.per_joint.shape[1]


@dataclass(frozen=True)
class PrompDistribution:
    """Gaussian over one joint's weights plus scalar observation noise."""

    mean: np.ndarray
    covariance: np.ndarray
    obs_noise_var: float = DEFAULT_OBS_NOISE_VAR

    def __post_init__(self):
        c = self.covariance
        if c.shape != (self.mean.shape[0],) * 2:
            raise ValueError("covariance shape must match mean")
        if np.max(np.abs(c - c.T)) > 1e-10:
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(c).min() < -1e-10:
            raise ValueError("covariance must be positive semi-definite")
        if self.obs_noise_var < 0:
            raise ValueError("obs_noise_var must be >= 0")


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
    gram = phi.values.T @ phi.values + ridge * np.eye(phi.n_basis)
    if ridge == 0.0:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > _MAX_CONDITION:
            raise SingularSystemError(
                f"normal matrix condition number {cond:.3e} exceeds "
                f"{_MAX_CONDITION:.0e} with ridge=0; the basis matrix is "
                "rank deficient, use a positive ridge")
    return np.linalg.solve(gram, phi.values.T @ q).T


def reconstruct(weights: PrompWeights, phi: PhiMatrix,
                phase_cfg: PhaseConfig) -> Trajectory:
    """Noise-free trajectory generated by the weights: column j = Phi theta_j."""
    if weights.n_basis != phi.n_basis:
        raise ValueError(
            f"weights have {weights.n_basis} bases, matrix has {phi.n_basis}")
    # one matrix-vector product per joint, the same expression marginal_at
    # uses, so the marginal mean equals the reconstruction bit-for-bit
    columns = [phi.values @ theta for theta in weights.per_joint]
    return Trajectory(np.column_stack(columns), phase_cfg)


def mean_weights(all_weights):
    """Element-wise mean of a non-empty list of weight vectors."""
    if len(all_weights) == 0:
        raise ValueError("cannot average an empty list of weight vectors")
    stacked = np.stack([np.asarray(w, dtype=float) for w in all_weights])
    return stacked.mean(axis=0)


def fit_distribution(all_weights, obs_noise_var: float = DEFAULT_OBS_NOISE_VAR
                     ) -> PrompDistribution:
    """Gaussian over weights: sample mean and unbiased sample covariance."""
    if len(all_weights) < 2:
        raise ValueError("need at least 2 weight vectors for a covariance")
    stacked = np.stack([np.asarray(w, dtype=float) for w in all_weights])
    mean = stacked.mean(axis=0)
    cov = np.cov(stacked, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    cov = 0.5 * (cov + cov.T)
    return PrompDistribution(mean, cov, obs_noise_var)


def marginal_at(t, dist: PrompDistribution, phi: PhiMatrix):
    """Per-sample marginal (mean, variance) of the trajectory distribution."""
    psi = phi.values[t]
    mean = float((phi.values @ dist.mean)[t])
    var = float(dist.obs_noise_var + psi @ dist.covariance @ psi)
    return mean, max(var, 0.0)


def _covariance_factor(cov):
    # symmetric eigendecomposition; near-PSD inputs get their slightly
    # negative eigenvalues clamped to zero
    eigvals, eigvecs = np.linalg.eigh(cov)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def sample_trajectory(dist: PrompDistribution, phi: PhiMatrix, seed: int):
    """One trajectory draw: a single weight sample plus i.i.d. noise per step."""
    return sample_trajectories(dist, phi, 1, seed)[0]


def sample_trajectories(dist: PrompDistribution, phi: PhiMatrix, n: int,
                        seed: int):
    """n independent draws, shape (n, T). Deterministic per seed."""
    rng = np.random.default_rng(seed)
    factor = _covariance_factor(dist.covariance)
    thetas = dist.mean + rng.standard_normal((n, dist.mean.shape[0])) @ factor.T
    clean = thetas @ phi.values.T
    if dist.obs_noise_var > 0.0:
        clean += np.sqrt(dist.obs_noise_var) * rng.standard_normal(clean.shape)
    return clean
