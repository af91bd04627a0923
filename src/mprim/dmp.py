"""Discrete dynamic movement primitives (goal-attractor baseline).

One second-order spring-damper per joint, driven by a phase-gated forcing
term. The phase x decays exponentially in time, the forcing term is a
normalized mix of Gaussian kernels in x scaled by x*(g - q0), so the
system always settles on the goal once the phase has died out.

The gains, the kernel placement and the rollout resolution are fixed
module constants. `fit_dmp` fits a (B, T, n_joint) stack of demos and
`rollout_matched` integrates a batch of systems given as stacked (B, ...)
arrays; in both, each row is bit for bit what it gets alone.
"""

import numpy as np

from mprim import kernels
from mprim.errors import IntegrationError

ALPHA_Z = 25.0
BETA_Z = ALPHA_Z / 4.0   # critical damping
ALPHA_X = ALPHA_Z / 3.0
# sharpening factor on the 1/spacing^2 kernel widths; 4 reproduces a
# 150-sample minimum-jerk demo to ~5e-3 rad RMSE with 25 kernels
KERNEL_WIDTH_SCALE = 4.0
ROLLOUT_OVERSAMPLE = 10


def forcing_kernels(n_basis):
    """Kernel centers/widths in phase space, evenly spaced in time.

    Centers follow the exponential phase at equal time steps over one
    nominal duration; widths scale with the inverse squared spacing so
    neighbouring kernels keep a constant overlap.
    """
    if n_basis < 1:
        raise ValueError("n_basis must be >= 1")
    centers = np.exp(-ALPHA_X * np.linspace(0.0, 1.0, n_basis))
    widths = np.empty(n_basis)
    if n_basis > 1:
        widths[:-1] = KERNEL_WIDTH_SCALE / np.diff(centers) ** 2
        widths[-1] = widths[-2]
    else:
        widths[0] = KERNEL_WIDTH_SCALE
    return centers, widths


def _check_tau(tau):
    if not tau > 0:
        raise ValueError("tau must be > 0")


def fit_dmp(trajectories, n_basis: int, tau: float):
    """Fit forcing weights to a stack of demos by locally weighted
    regression.

    `trajectories` is the (B, T, n_joint) joint positions of B demos.
    Each demo is mapped onto the nominal duration tau, velocities and
    accelerations come from central finite differences (one-sided at the
    ends), and each kernel is regressed independently against the target
    forcing term. Returns (forcing weights (B, n_joint, n_basis), goals
    (B, n_joint), starts (B, n_joint)). A joint whose demo starts on its
    goal has no start-to-goal span to scale the forcing term, so its
    regression has a zero denominator and its weights come out zero.

    The work loops over joints, not demos, and each (demo, joint)
    regression is its own matrix-vector product, so every row is bit for
    bit its B = 1 fit; one flat (B, T) x (T, n_basis) product would let
    BLAS round a row differently depending on its place in the stack.
    """
    _check_tau(tau)
    q = np.asarray(trajectories, dtype=float)
    if q.ndim != 3:
        raise ValueError(f"expected a (B, T, n_joint) stack of demos, got "
                         f"shape {q.shape}")
    T = q.shape[1]
    if T < 3:
        raise ValueError("need at least 3 samples to differentiate the demo")
    dt = tau / (T - 1)
    starts, goals = q[:, 0].copy(), q[:, -1].copy()

    x = np.exp(-ALPHA_X * np.arange(T) * dt / tau)
    centers, widths = forcing_kernels(n_basis)
    psi_t = np.exp(-widths[None, :] * (x[:, None] - centers[None, :]) ** 2).T

    weights = np.empty((q.shape[0], q.shape[2], n_basis))
    for j in range(q.shape[2]):
        # f_target = tau^2 qdd - alpha_z (beta_z (g - q) - tau qd), built
        # in place so that at most three (B, T) arrays live at a time
        qd = np.gradient(q[:, :, j], dt, axis=1, edge_order=2)
        qdd = np.gradient(qd, dt, axis=1, edge_order=2)
        f = goals[:, j, None] - q[:, :, j]
        f *= BETA_Z
        qd *= tau
        f -= qd
        f *= ALPHA_Z
        qdd *= tau ** 2
        np.subtract(qdd, f, out=f)
        del qd, qdd
        xi = x * (goals[:, j] - starts[:, j])[:, None]
        f *= xi
        xi *= xi
        num = np.matmul(psi_t, f[..., None])[..., 0]
        den = np.matmul(psi_t, xi[..., None])[..., 0]
        del f, xi
        weights[:, j] = np.where(den > 1e-300,
                                 num / np.where(den > 0, den, 1.0), 0.0)
    return weights, goals, starts


def rollout_matched(start, goal, forcing_weights, tau: float,
                    n_samples: int):
    """Rollouts of a batch, on the n_samples grid a demo of that length uses.

    `start` and `goal` are (B, n_joint), `forcing_weights` is
    (B, n_joint, n_basis); every row shares tau. Integrates with explicit
    Euler at ROLLOUT_OVERSAMPLE sub-steps per demo sample over one nominal
    duration tau and keeps every ROLLOUT_OVERSAMPLE-th point, so sample k
    lands exactly at time k*tau/(n_samples-1). Returns (B, n_samples,
    n_joint), sample 0 of each row being its start. A non-finite state
    raises IntegrationError naming the diverged rows.
    """
    _check_tau(tau)
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    # a contiguous stack: a strided view can make BLAS round the forcing
    # mix of a row differently from its B = 1 rollout
    w = np.ascontiguousarray(forcing_weights, dtype=float)
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if w.ndim != 3 or not start.shape == goal.shape == w.shape[:2]:
        raise ValueError(
            f"start {start.shape}, goal {goal.shape} and forcing weights "
            f"{w.shape} do not form a (B, n_joint[, n_basis]) batch")
    if len(w) == 0:
        raise ValueError("need at least one system to roll out")
    centers, widths = forcing_kernels(w.shape[2])
    steps = (n_samples - 1) * ROLLOUT_OVERSAMPLE
    track = kernels.dmp_rollout(start, goal, w, centers, widths, tau,
                                ALPHA_Z, BETA_Z, ALPHA_X, tau / steps,
                                steps + 1, ROLLOUT_OVERSAMPLE)
    bad = np.flatnonzero(~np.isfinite(track).all(axis=(1, 2)))
    if len(bad):
        raise IntegrationError(
            f"rollout diverged to a non-finite state in batch row(s) "
            f"{bad.tolist()}", rows=bad.tolist())
    return track
