"""The hot numerical kernels, in numpy.

Each function works on float64 arrays. `dmp_rollout` integrates a whole
batch of goal-attractor systems in one Euler loop; the other three are the
basis activations and the dense-net forward/backward passes.
"""

import numpy as np


def basis_matrix(z, centers, width):
    """Normalized Gaussian basis activations, one row per phase value.

    Rows are b_i(z)/sum_j b_j(z) with b_i(z) = exp(-(z - c_i)^2 / (2*width)).
    """
    z = np.asarray(z, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    diff = z[:, None] - centers[None, :]
    raw = np.exp(-(diff * diff) / (2.0 * width))
    return raw / raw.sum(axis=1)[:, None]


def mlp_forward_acts(x, weights, biases):
    """Forward pass of a dense net: tanh on hidden layers, identity output.

    Returns the list of layer activations, starting with the input batch
    and ending with the network output. The intermediate activations are
    what the backward pass needs.
    """
    acts = [np.ascontiguousarray(x, dtype=np.float64)]
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w + b
        acts.append(z if k == last else np.tanh(z))
    return acts


def mlp_backward_acts(acts, weights, delta_out, grads_w, grads_b):
    """Backpropagate an output gradient through the activations.

    `acts` is the list produced by mlp_forward_acts. Each layer's weight
    and bias gradient is written into the arrays `grads_w[k]` and
    `grads_b[k]`, which are typically views into one flat gradient buffer.
    """
    delta = np.ascontiguousarray(delta_out, dtype=np.float64)
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(acts[k].T, delta, out=grads_w[k])
        delta.sum(axis=0, out=grads_b[k])
        if k > 0:
            # tanh'(z) expressed through the stored activation
            delta = (delta @ weights[k].T) * (1.0 - acts[k] * acts[k])


def dmp_rollout(start, goal, forcing_weights, centers, widths, tau,
                alpha_z, beta_z, alpha_x, dt, steps, stride=1):
    """Explicit-Euler integration of a batch of goal-attractor systems.

    State per joint: position q and scaled velocity v, with
    tau*dq = v and tau*dv = alpha_z*(beta_z*(g - q) - v) + f(x).
    The forcing term f is the kernel-weighted mix scaled by the phase x
    and the start-to-goal span. All B systems share tau, the gains and the
    kernels, so the phase x and the kernel activations are computed once
    for every step; only the (B, n_joint) state is integrated.

    `start` and `goal` have shape (B, n_joint), `forcing_weights`
    (B, n_joint, n_basis). Returns the positions at steps 0, stride,
    2*stride, ... below `steps`, shape (B, n_out, n_joint): one contiguous
    trajectory per system, sample 0 being its start configuration. Only
    those samples are kept, so memory does not grow with the number of
    steps. A state that goes non-finite is returned as such, without a
    numpy warning; the caller rejects it.

    The forcing mix is a stacked product, one (n_joint, n_basis) matrix-
    vector product per system, so each system gets bit for bit the result
    it gets alone. One flat (B*n_joint, n_basis) product would let BLAS
    round a row differently depending on its place in the batch.
    """
    start = np.asarray(start, dtype=np.float64)
    goal = np.asarray(goal, dtype=np.float64)
    w = np.asarray(forcing_weights, dtype=np.float64)
    span = goal - start
    # phase and kernel activations at the start of each Euler step
    x = np.exp(-alpha_x * (np.arange(steps - 1) * dt) / tau)
    psi = np.exp(-widths * (x[:, None] - centers) ** 2)
    psi_sum = psi.sum(axis=1)
    out = np.empty((start.shape[0], (steps - 1) // stride + 1,
                    start.shape[1]))
    q = start.copy()
    v = np.zeros_like(q)
    out[:, 0] = q
    # a diverging row overflows quietly; the caller rejects non-finite rows
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, steps):
            f = (w @ psi[s - 1]) / psi_sum[s - 1] * x[s - 1] * span
            v_dot = (alpha_z * (beta_z * (goal - q) - v) + f) / tau
            q = q + dt * (v / tau)
            v = v + dt * v_dot
            if s % stride == 0:
                out[:, s // stride] = q
    return out
