"""The hot numerical kernels, in numpy.

Each function works on float64 arrays: the basis activations and the
dense-net forward/backward passes.
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

