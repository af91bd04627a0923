"""Discrete dynamic movement primitives (goal-attractor baseline).

One second-order spring-damper per joint, driven by a phase-gated forcing
term, in unit time: every demo and every rollout spans t in [0, 1], so
dq/dt = v and dv/dt = alpha_z*(beta_z*(g - q) - v) + f(x). The phase
x = exp(-alpha_x t) decays exponentially, the forcing term is a
normalized mix of Gaussian kernels in x scaled by x*(g - q0), so the
system always settles on the goal once the phase has died out.

The gains, the kernel placement and the rollout resolution are fixed
module constants. `fit_dmp` fits chosen demos of a (N, T, n_joint) stack
and `rollout_matched` rolls out a batch of systems given as stacked
(B, ...) arrays; in both, each row is bit for bit what it gets alone.

Every system shares the gains, the kernels and the unit time span, so its
Euler recurrence is linear in its start, its goal and its forcing weights
times its start-to-goal span. `linear_responses` computes the responses to
unit inputs once per (n_basis, n_samples), advancing the recurrence one
sample interval at a time, and a rollout batch is then one matrix product
with those responses. Nothing here checks the result: an output that
overflows rolls out to a non-finite track, and `training.evaluate` refuses
its score, as it does for every head.
"""

import functools

import numpy as np

ALPHA_Z = 25.0
BETA_Z = ALPHA_Z / 4.0   # critical damping
ALPHA_X = ALPHA_Z / 3.0
# sharpening factor on the 1/spacing^2 kernel widths; 4 reproduces a
# 150-sample minimum-jerk demo to ~5e-3 rad RMSE with 25 kernels
KERNEL_WIDTH_SCALE = 4.0
ROLLOUT_OVERSAMPLE = 10


def forcing_kernels(n_basis):
    """Kernel centers/widths in phase space, evenly spaced in time.

    Centers follow the exponential phase at equal time steps over unit
    time; widths scale with the inverse squared spacing so neighbouring
    kernels keep a constant overlap.
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


def _gradient(f, dt, out):
    """`np.gradient(f, dt, axis=1, edge_order=2)` of a (B, T) array, bit
    for bit, into the C-contiguous `out` with no temporary of f's size:
    the interior differences run over the flat arrays (no ufunc buffer),
    and the edge formulas then overwrite each row's two ends, where a
    flat difference spans two rows."""
    flat, flat_out = f.reshape(-1), out.reshape(-1)
    np.subtract(flat[2:], flat[:-2], out=flat_out[1:-1])
    flat_out[1:-1] /= 2.0 * dt
    out[:, 0] = -1.5 / dt * f[:, 0] + 2.0 / dt * f[:, 1] + -0.5 / dt * f[:, 2]
    out[:, -1] = (0.5 / dt * f[:, -3] + -2.0 / dt * f[:, -2]
                  + 1.5 / dt * f[:, -1])


def fit_dmp(trajectories, indices, n_basis: int):
    """Fit forcing weights to the demos at `indices` of a stack by
    locally weighted regression.

    `trajectories` is the (N, T, n_joint) joint positions of N demos and
    `indices` a 1-D integer sequence of B of them. Each demo is mapped
    onto unit time, dt = 1/(T-1); velocities and accelerations come from
    central finite differences (one-sided at the ends, as `np.gradient`
    with `edge_order=2`), and each kernel is regressed independently
    against the target forcing term. Returns (forcing weights
    (B, n_joint, n_basis), goals (B, n_joint), starts (B, n_joint)), row
    b for demo `indices[b]`. A joint whose demo starts on its goal has no
    start-to-goal span to scale the forcing term, so its regression has a
    zero denominator and its weights come out zero.

    Callers pass at most one chunk of indices. The stack is read where
    it lies, one (B, T) joint column at a time, into at most three (B, T)
    arrays. Each (demo, joint) regression is its own matrix-vector
    product, so every row is bit for bit its B = 1 fit; one flat
    (B, T) x (T, n_basis) product would let BLAS round a row differently
    depending on its place in the stack.
    """
    q = np.asarray(trajectories, dtype=float)
    if q.ndim != 3:
        raise ValueError(f"expected a (B, T, n_joint) stack of demos, got "
                         f"shape {q.shape}")
    T = q.shape[1]
    if T < 3:
        raise ValueError("need at least 3 samples to differentiate the demo")
    dt = 1.0 / (T - 1)
    indices = np.asarray(indices)
    starts, goals = q[indices, 0], q[indices, -1]

    x = np.exp(-ALPHA_X * np.arange(T) * dt)
    centers, widths = forcing_kernels(n_basis)
    psi_t = np.exp(-widths[None, :] * (x[:, None] - centers[None, :]) ** 2).T

    weights = np.empty((len(indices), q.shape[2], n_basis))
    qd, qdd = np.empty((2, len(indices), T))
    for j in range(q.shape[2]):
        # f_target = qdd - alpha_z (beta_z (g - q) - qd), built in place
        # over the gathered joint column
        f, goal = q[indices, :, j], goals[:, j]
        _gradient(f, dt, out=qd)
        _gradient(qd, dt, out=qdd)
        np.subtract(goal[:, None], f, out=f)
        f *= BETA_Z
        f -= qd
        f *= ALPHA_Z
        np.subtract(qdd, f, out=f)
        xi = np.multiply(x, (goal - starts[:, j])[:, None], out=qd)
        f *= xi
        xi *= xi
        num = np.matmul(psi_t, f[..., None])[..., 0]
        den = np.matmul(psi_t, xi[..., None])[..., 0]
        weights[:, j] = np.where(den > 1e-300,
                                 num / np.where(den > 0, den, 1.0), 0.0)
    return weights, goals, starts


@functools.lru_cache(maxsize=None)
def linear_responses(n_basis: int, n_samples: int):
    """The responses a rollout on the n_samples grid is a mix of.

    Returns a read-only (n_basis + 1, n_samples) array. Row 0 is the
    offset response r0: the unforced system from start 1 to goal 0. Row
    1 + i is the response R_i to forcing weight i at a unit span, from
    rest on the goal. Both are the Euler recurrence of `rollout_matched`'s
    grid, advanced one sample interval at a time: one Euler step maps the
    error state (q - goal, v) to `step @ state + (0, dt*f)`, so the
    ROLLOUT_OVERSAMPLE steps of an interval are one product with the
    interval's power of `step` plus one kick, the interval's forcing
    carried to its end. The kicks of every interval come from one
    product, and the loop left runs once per sample on a
    (2, n_basis + 1) state. The array is computed once per
    (n_basis, n_samples) in a process.
    """
    steps = (n_samples - 1) * ROLLOUT_OVERSAMPLE
    dt = 1.0 / steps
    step = np.array([[1.0, dt],
                     [-dt * ALPHA_Z * BETA_Z, 1.0 - dt * ALPHA_Z]])
    # the forcing term of each unit weight at a unit span, at the start of
    # each Euler step
    x = np.exp(-ALPHA_X * (np.arange(steps) * dt))
    centers, widths = forcing_kernels(n_basis)
    psi = np.exp(-widths * (x[:, None] - centers) ** 2)
    forcing = psi / psi.sum(axis=1)[:, None] * x[:, None]
    # column i: how the forcing of an interval's step i reaches its end
    carry = np.empty((2, ROLLOUT_OVERSAMPLE))
    carry[:, -1] = (0.0, dt)
    for i in range(ROLLOUT_OVERSAMPLE - 1, 0, -1):
        carry[:, i - 1] = step @ carry[:, i]
    kicks = np.zeros((n_samples - 1, 2, n_basis + 1))
    np.matmul(carry, forcing.reshape(n_samples - 1, ROLLOUT_OVERSAMPLE,
                                     n_basis), out=kicks[:, :, 1:])
    interval = np.linalg.matrix_power(step, ROLLOUT_OVERSAMPLE)
    track = np.empty((n_samples, n_basis + 1))
    state = np.zeros((2, n_basis + 1))
    state[0, 0] = 1.0
    track[0] = state[0]
    for k in range(n_samples - 1):
        state = interval @ state + kicks[k]
        track[k + 1] = state[0]
    responses = np.ascontiguousarray(track.T)
    responses.flags.writeable = False
    return responses


def rollout_matched(start, goal, forcing_weights, n_samples: int):
    """Rollouts of a batch, on the n_samples grid a demo of that length uses.

    `start` and `goal` are (B, n_joint), `forcing_weights` is
    (B, n_joint, n_basis). The grid is that of explicit Euler at
    ROLLOUT_OVERSAMPLE sub-steps per demo sample over unit time, keeping
    every ROLLOUT_OVERSAMPLE-th point, so sample k lands exactly at time
    k/(n_samples-1). Each joint's track is
    goal + (start - goal)*r0 + (w*span) @ R with the `linear_responses`
    r0 and R, all joints of the batch in one stacked
    (B, n_joint, n_basis+1) x (n_basis+1, n_samples) product. It differs
    from the Euler loop by rounding only (about 1e-14 rad at wpp's
    scales). A joint that starts on its goal stays exactly on it, and each
    row is bit for bit its B = 1 result.

    Returns a contiguous (B, n_samples, n_joint) array, sample 0 of each
    row being its start. Inputs whose product overflows give a non-finite
    track, as a ProMP reconstruction does; `training.evaluate` names its
    demo.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    w = np.asarray(forcing_weights, dtype=float)
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if w.ndim != 3 or not start.shape == goal.shape == w.shape[:2]:
        raise ValueError(
            f"start {start.shape}, goal {goal.shape} and forcing weights "
            f"{w.shape} do not form a (B, n_joint[, n_basis]) batch")
    if len(w) == 0:
        raise ValueError("need at least one system to roll out")
    responses = linear_responses(w.shape[2], n_samples)
    mix = np.empty((*start.shape, w.shape[2] + 1))
    track = np.empty((len(w), n_samples, start.shape[1]))
    np.subtract(start, goal, out=mix[..., 0])
    np.multiply(w, (goal - start)[..., None], out=mix[..., 1:])
    # written straight into the (B, n_samples, n_joint) layout, so no
    # second copy of the tracks is made
    np.matmul(mix, responses, out=track.transpose(0, 2, 1))
    track += goal[:, None]
    return track
