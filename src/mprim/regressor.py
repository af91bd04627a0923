"""The context-to-head regressor and the numeric code of its losses.

The regressor is a small dense network with tanh hidden layers, identity
output, analytic gradients and an Adam optimizer, all hand-rolled on
numpy/kernels. All its weights and biases live in one float64 vector
`theta`, layer by layer: [W0 row-major | b0 | W1 | b1 | ...]. The
per-layer arrays are views into it, and so are the per-layer gradients,
which the backward pass writes into one flat buffer of the same layout.
Adam keeps its two moments as vectors of that layout too, and one update
of the whole net runs in place through two preallocated vectors. From
step 356 on, the first moment's bias correction 1 - BETA1**step is
exactly 1.0, and the update skips dividing by it, with the same bits.

Each head chooses its loss (`training.Head.loss_and_grad`) and computes it
with `trajectory_loss` (the summed per-joint RMSE of the trajectories two
weight vectors generate through the basis matrix) or `rms_loss` (a scaled
RMS of a parameter residual). Both give per-sample losses and their
gradients w.r.t. the predictions. `trajectory_loss` works in Gram form:
a joint's weight residual d generates the trajectory residual Phi d, and
|Phi d|^2 / T = d^T (Phi^T Phi) d / T, so it needs the basis matrix's
n_basis-wide Gram matrix only, never the T-long trajectories.
"""

from dataclasses import dataclass

import numpy as np

from mprim import kernels

BETA1 = 0.9      # Adam first-moment decay
BETA2 = 0.999    # Adam second-moment decay
EPSILON = 1e-8   # Adam denominator guard


# ---------------------------------------------------------------------------
# dense network

def _n_parameters(layer_sizes):
    return sum((d_in + 1) * d_out
               for d_in, d_out in zip(layer_sizes, layer_sizes[1:]))


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Dense-net parameters: tanh hidden layers, identity output.

    `theta` holds every parameter; `weights` ((d_in, d_out) per layer) and
    `biases` ((d_out,) per layer) are views into it, so writing into
    `theta` changes the net.
    """

    layer_sizes: tuple
    theta: np.ndarray

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        n = _n_parameters(sizes)
        if self.theta.shape != (n,):
            raise ValueError(f"theta has shape {self.theta.shape}; "
                             f"layer_sizes {sizes} need ({n},)")
        weights, biases = self.views(self.theta)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    def views(self, flat):
        """Per-layer (weights, biases) views into a vector laid out like
        `theta`."""
        weights, biases, k = [], [], 0
        for d_in, d_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            weights.append(flat[k:k + d_in * d_out].reshape(d_in, d_out))
            k += d_in * d_out
            biases.append(flat[k:k + d_out])
            k += d_out
        return tuple(weights), tuple(biases)

    @property
    def n_inputs(self):
        return self.layer_sizes[0]


def init_mlp(layer_sizes, seed: int) -> MlpParams:
    """Scaled-uniform (Glorot bounds) initialization drawn from `seed`,
    zero biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    params = MlpParams(sizes, np.zeros(_n_parameters(sizes)))
    rng = np.random.default_rng(seed)
    for w in params.weights:
        d_in, d_out = w.shape
        limit = np.sqrt(6.0 / (d_in + d_out))
        w[...] = rng.uniform(-limit, limit, size=(d_in, d_out))
    return params


def mlp_forward(params: MlpParams, ctx):
    """Deterministic forward pass of a (B, n_inputs) batch of contexts."""
    x = np.asarray(ctx, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.n_inputs:
        raise ValueError(f"contexts have shape {x.shape}, network expects "
                         f"(B, {params.n_inputs})")
    out = [np.empty((len(x), d)) for d in params.layer_sizes[1:]]
    return kernels.mlp_forward_acts(x, params.weights, params.biases, out)[-1]


# ---------------------------------------------------------------------------
# losses (value + gradient w.r.t. the prediction)

def trajectory_loss(pred, gt, phi, n_joint):
    """Per-sample trajectory loss of (B, n_joint*n_basis) weight rows and
    its gradient w.r.t. `pred`.

    Per sample and joint, with d = pred - gt and G = phi.gram, the RMSE
    of the trajectory residual Phi d is r = sqrt(d^T G d / T) and its
    gradient is G d / (T r), taken as 0 where r == 0. The loss of a sample
    is the sum of r over its joints."""
    b, width = pred.shape
    t = phi.n_samples
    diff = (pred - gt).reshape(b * n_joint, width // n_joint)
    gd = diff @ phi.gram
    per_joint = np.sqrt(np.maximum((diff * gd).sum(axis=1), 0.0) / t)
    safe = np.where(per_joint > 0.0, per_joint, 1.0)
    grad = gd / (t * safe[:, None])
    grad[per_joint == 0.0] = 0.0                        # flat at the optimum
    return per_joint.reshape(b, n_joint).sum(axis=1), grad.reshape(b, width)


def rms_loss(delta, scale):
    """scale*RMS(gt - pred) per row of a (B, n) residual delta = pred - gt,
    and its gradient w.r.t. pred.

    The mean is np.mean's own arithmetic, a sum by `np.add.reduce` divided
    by n, without its Python wrapper, which costs about as much as the sum
    on a minibatch. The gradient is computed in the squares' array, and
    rows at the optimum (rare) are zeroed only when there are some."""
    n = delta.shape[-1]
    g = delta * delta
    r = np.add.reduce(g, axis=-1)
    r /= n
    np.sqrt(r, out=r)
    safe = np.where(r > 0.0, r, 1.0)
    np.multiply(delta, scale, out=g)
    g /= (n * safe)[:, None]
    zero = r == 0.0
    if zero.any():
        g[zero] = 0.0
    return scale * r, g


# ---------------------------------------------------------------------------
# Adam

@dataclass(eq=False)
class AdamState:
    """First and second moments, laid out like `theta`, the number of
    steps taken, and two work vectors of that layout that each update
    computes through, so that a step allocates nothing."""

    m: np.ndarray
    v: np.ndarray
    step: int
    learning_rate: float

    def __post_init__(self):
        self.buffers = (np.empty_like(self.m), np.empty_like(self.m))


def adam_init(params: MlpParams, learning_rate: float) -> AdamState:
    """Zero moments for `params` at step 0, stepping at `learning_rate`."""
    return AdamState(np.zeros_like(params.theta),
                     np.zeros_like(params.theta), 0, learning_rate)


def adam_step(state: AdamState, theta, grad):
    """One Adam update of `theta` by its gradient `grad`; `theta`,
    `state.m`, `state.v` and `state.step` change in place.

    The update is m <- BETA1*m + (1-BETA1)*g, v <- BETA2*v + (1-BETA2)*g*g
    and theta <- theta - lr*(m/c1) / (sqrt(v/c2) + EPSILON), with the bias
    corrections c = 1 - BETA**step, each operation written into the
    state's buffers. From step 356 on, BETA1**step is below half an ulp
    of 1, so c1 is exactly 1.0; m/1.0 is m in IEEE arithmetic, and the
    step then skips that divide with the same bits."""
    state.step += 1
    c1, c2 = 1.0 - BETA1 ** state.step, 1.0 - BETA2 ** state.step
    m, v = state.m, state.v
    a, b = state.buffers
    m *= BETA1
    np.multiply(grad, 1 - BETA1, out=a)
    m += a
    v *= BETA2
    np.multiply(grad, 1 - BETA2, out=a)
    a *= grad
    v += a
    if c1 == 1.0:
        np.multiply(m, state.learning_rate, out=a)
    else:
        np.divide(m, c1, out=a)
        a *= state.learning_rate
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += EPSILON
    a /= b
    theta -= a
