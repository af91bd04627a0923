"""Discrete dynamic movement primitives (goal-attractor baseline).

One second-order spring-damper per joint, driven by a phase-gated forcing
term. The phase x decays exponentially in time, the forcing term is a
normalized mix of Gaussian kernels in x scaled by x*(g - q0), so the
system always settles on the goal once the phase has died out.

`rollout` and `rollout_matched` take one model or a sequence of models
that share tau, the gains and the kernels; a sequence is integrated as
one batch, and each model's trajectory is bit for bit the one it gets
alone.
"""

from dataclasses import dataclass

import numpy as np

from mprim import kernels
from mprim.basis import PhaseConfig
from mprim.errors import IntegrationError
from mprim.promp import Trajectory

DEFAULT_ALPHA_Z = 25.0
DEFAULT_BETA_Z = DEFAULT_ALPHA_Z / 4.0   # critical damping
DEFAULT_ALPHA_X = DEFAULT_ALPHA_Z / 3.0
# sharpening factor on the 1/spacing^2 kernel widths; 4 reproduces a
# 150-sample minimum-jerk demo to ~5e-3 rad RMSE with 25 kernels
KERNEL_WIDTH_SCALE = 4.0
ROLLOUT_OVERSAMPLE = 10


@dataclass(frozen=True)
class DmpModel:
    """Fitted parameters of a multi-joint DMP."""

    forcing_weights: np.ndarray   # (n_joint, n_basis)
    goal: np.ndarray              # (n_joint,) rad
    start: np.ndarray             # (n_joint,) rad
    tau: float
    alpha_z: float = DEFAULT_ALPHA_Z
    beta_z: float = DEFAULT_BETA_Z
    alpha_x: float = DEFAULT_ALPHA_X
    kernel_centers: np.ndarray = None
    kernel_widths: np.ndarray = None
    degenerate_joints: tuple = ()   # joints with g == q0, forcing zeroed

    def __post_init__(self):
        for name in ("tau", "alpha_z", "beta_z", "alpha_x"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.kernel_centers is None or self.kernel_widths is None:
            centers, widths = forcing_kernels(
                self.forcing_weights.shape[1], self.alpha_x)
            object.__setattr__(self, "kernel_centers", centers)
            object.__setattr__(self, "kernel_widths", widths)

    @property
    def n_joint(self):
        return self.forcing_weights.shape[0]

    @property
    def n_basis(self):
        return self.forcing_weights.shape[1]


def canonical(t, model: DmpModel) -> float:
    """Phase x(t) = exp(-alpha_x * t / tau); starts at 1, decays to 0."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return float(np.exp(-model.alpha_x * t / model.tau))


def forcing_kernels(n_basis, alpha_x=DEFAULT_ALPHA_X,
                    width_scale=KERNEL_WIDTH_SCALE):
    """Kernel centers/widths in phase space, evenly spaced in time.

    Centers follow the exponential phase at equal time steps over one
    nominal duration; widths scale with the inverse squared spacing so
    neighbouring kernels keep a constant overlap.
    """
    if n_basis < 1:
        raise ValueError("n_basis must be >= 1")
    centers = np.exp(-alpha_x * np.linspace(0.0, 1.0, n_basis))
    widths = np.empty(n_basis)
    if n_basis > 1:
        widths[:-1] = width_scale / np.diff(centers) ** 2
        widths[-1] = widths[-2]
    else:
        widths[0] = width_scale
    return centers, widths


def fit_dmp(traj: Trajectory, n_basis: int, tau: float,
            alpha_z=DEFAULT_ALPHA_Z, beta_z=DEFAULT_BETA_Z,
            alpha_x=DEFAULT_ALPHA_X) -> DmpModel:
    """Fit forcing weights to a demo by locally weighted regression.

    The demo is mapped onto the nominal duration tau, velocities and
    accelerations come from central finite differences (one-sided at the
    ends), and each kernel is regressed independently against the target
    forcing term. A joint whose demo starts on its goal has no
    start-to-goal span to scale the forcing term; its weights are set to
    zero and the joint index is recorded on the model.
    """
    q = traj.values
    T = q.shape[0]
    if T < 3:
        raise ValueError("need at least 3 samples to differentiate the demo")
    dt = tau / (T - 1)
    qd = np.gradient(q, dt, axis=0, edge_order=2)
    qdd = np.gradient(qd, dt, axis=0, edge_order=2)
    start, goal = q[0].copy(), q[-1].copy()

    x = np.exp(-alpha_x * np.arange(T) * dt / tau)
    centers, widths = forcing_kernels(n_basis, alpha_x)
    psi = np.exp(-widths[None, :] * (x[:, None] - centers[None, :]) ** 2)

    # f_target = tau^2 qdd - alpha_z (beta_z (g - q) - tau qd), per joint
    f_target = tau ** 2 * qdd - alpha_z * (beta_z * (goal - q) - tau * qd)

    weights = np.zeros((q.shape[1], n_basis))
    degenerate = []
    for j in range(q.shape[1]):
        span = goal[j] - start[j]
        if span == 0.0:
            degenerate.append(j)
            continue
        xi = x * span
        num = psi.T @ (xi * f_target[:, j])
        den = psi.T @ (xi * xi)
        weights[j] = np.where(den > 1e-300, num / np.where(den > 0, den, 1.0),
                              0.0)
    return DmpModel(weights, goal, start, tau, alpha_z, beta_z, alpha_x,
                    centers, widths, tuple(degenerate))


def _as_batch(models):
    """(list of models, whether a single model was given)."""
    single = isinstance(models, DmpModel)
    batch = [models] if single else list(models)
    if not batch:
        raise ValueError("need at least one model to roll out")
    return batch, single


def _check_shared(models):
    """Reject a batch whose models do not share tau, gains and kernels."""
    first = models[0]
    for b, m in enumerate(models[1:], start=1):
        for name in ("tau", "alpha_z", "beta_z", "alpha_x"):
            if getattr(m, name) != getattr(first, name):
                raise ValueError(
                    f"model {b} has {name}={getattr(m, name)}, model 0 "
                    f"{getattr(first, name)}; a batch shares one {name}")
        for name in ("kernel_centers", "kernel_widths"):
            if not np.array_equal(getattr(m, name), getattr(first, name)):
                raise ValueError(
                    f"model {b} has other {name} than model 0; a batch "
                    "shares one set of forcing kernels")


def _integrate(models, dt, steps, stride):
    """Positions at steps 0, stride, ... of a batch, one model per row.

    Shape (len(models), n_out, n_joint).
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    _check_shared(models)
    m = models[0]
    track = kernels.dmp_rollout(
        np.stack([b.start for b in models]),
        np.stack([b.goal for b in models]),
        np.stack([b.forcing_weights for b in models]),
        m.kernel_centers, m.kernel_widths, m.tau, m.alpha_z, m.beta_z,
        m.alpha_x, dt, steps, stride)
    bad = np.flatnonzero(~np.isfinite(track).all(axis=(1, 2)))
    if len(bad):
        raise IntegrationError(
            f"rollout diverged to a non-finite state in batch row(s) "
            f"{bad.tolist()}; reduce dt", rows=bad.tolist())
    return track


def rollout(models, dt: float, steps: int):
    """Integrate the attractor dynamics with explicit Euler.

    `models` is one DmpModel or a sequence of them that share tau, the
    gains and the forcing kernels; a sequence is integrated as one batch.
    Each trajectory has `steps` position samples at times 0, dt, ...,
    (steps-1)*dt, the first one being the start configuration. Returns a
    Trajectory for one model, a list of them for a sequence. A non-finite
    state raises IntegrationError naming the diverged batch rows.
    """
    batch, single = _as_batch(models)
    values = _integrate(batch, dt, steps, 1)
    cfg = PhaseConfig(1.0 / dt, steps)
    trajs = [Trajectory(v, cfg) for v in values]
    return trajs[0] if single else trajs


def rollout_matched(models, n_samples: int,
                    oversample: int = ROLLOUT_OVERSAMPLE):
    """Rollout resampled onto the n_samples grid a demo of that length uses.

    Integrates at `oversample` sub-steps per demo sample over one nominal
    duration tau and keeps every oversample-th point, so sample k lands
    exactly at time k*tau/(n_samples-1). `models` and the return value are
    as in `rollout`.
    """
    if n_samples < 2 or oversample < 1:
        raise ValueError("need n_samples >= 2 and oversample >= 1")
    batch, single = _as_batch(models)
    tau = batch[0].tau
    dt = tau / ((n_samples - 1) * oversample)
    values = _integrate(batch, dt, (n_samples - 1) * oversample + 1,
                        oversample)
    cfg = PhaseConfig((n_samples - 1) / tau, n_samples)
    trajs = [Trajectory(v, cfg) for v in values]
    return trajs[0] if single else trajs
