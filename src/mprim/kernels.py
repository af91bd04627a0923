"""The hot numerical kernels, in numpy.

Each function works on float64 arrays: the basis activations and the
dense-net forward/backward passes. The two passes write into arrays the
caller allocates (`out` per layer, `work` per hidden layer) and reuses
from pass to pass, with at least as many rows as the largest batch.
"""

import numpy as np

# Code that works through a whole (B, T, n_joint) stack of demos, fitting,
# gathering or scoring it, takes at most this many demos per pass, so its
# temporaries have a fixed size whatever B is.
CHUNK_DEMOS = 64


def basis_matrix(z, centers, width):
    """Normalized Gaussian basis activations, one row per phase value.

    Rows are b_i(z)/sum_j b_j(z) with b_i(z) = exp(-(z - c_i)^2 / (2*width)).
    """
    z = np.asarray(z, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    diff = z[:, None] - centers[None, :]
    raw = np.exp(-(diff * diff) / (2.0 * width))
    return raw / raw.sum(axis=1)[:, None]


def mlp_forward_acts(x, weights, biases, out):
    """Forward pass of a dense net: tanh on hidden layers, identity output.

    Returns the list of layer activations, starting with the input batch
    and ending with the network output. The intermediate activations are
    what the backward pass needs. Layer k is computed in place in
    `out[k][:len(x)]`: `out` holds one C-contiguous (rows, d_out) array per
    layer with at least as many rows as `x`, so a caller that keeps `out`
    allocates nothing per pass. The returned activations are views into
    it, valid until the next pass into the same arrays.
    """
    acts = [np.ascontiguousarray(x, dtype=np.float64)]
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = out[k][:len(x)]
        np.matmul(acts[-1], w, out=z)
        z += b
        if k != last:
            np.tanh(z, out=z)
        acts.append(z)
    return acts


def mlp_backward_acts(acts, weights, delta_out, grads_w, grads_b, work):
    """Backpropagate an output gradient through the activations.

    `acts` is the list produced by mlp_forward_acts. Each layer's weight
    and bias gradient is written into the arrays `grads_w[k]` and
    `grads_b[k]`, which are typically views into one flat gradient buffer.
    `work[k - 1]` is a pair of C-contiguous arrays shaped like the hidden
    activation `acts[k]`'s buffer, (rows, d_k) with at least as many rows
    as the batch: the delta propagated to layer k and its tanh' factor are
    computed in them, so the pass allocates nothing.
    """
    delta = np.ascontiguousarray(delta_out, dtype=np.float64)
    n = len(delta)
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(acts[k].T, delta, out=grads_w[k])
        delta.sum(axis=0, out=grads_b[k])
        if k > 0:
            propagated, factor = (a[:n] for a in work[k - 1])
            np.matmul(delta, weights[k].T, out=propagated)
            # tanh'(z) expressed through the stored activation: 1 - a*a
            np.multiply(acts[k], acts[k], out=factor)
            np.subtract(1.0, factor, out=factor)
            propagated *= factor
            delta = propagated
