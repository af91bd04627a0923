"""The context-to-head regressor and its training losses.

The regressor is a small dense network with tanh hidden layers, identity
output, analytic gradients and an Adam optimizer, all hand-rolled on
numpy/kernels.

Head layouts are joint-major flat vectors:
  trajectory head   [theta_joint0 | theta_joint1 | ...]         (n_joint*n_basis)
  goal-attractor rtp [forcing w, joint-major | goal]            (n_joint*(n+1))
  goal-attractor wpp [forcing w, joint-major | goal | start]    (n_joint*(n+2))

`batch_loss_and_grad` gives per-sample losses and their gradients w.r.t.
the predictions for three loss kinds:
  trajectory  per-joint RMSE between the trajectories the two weight
              vectors generate through the basis matrix, summed over
              joints; its gradient chains through the fixed basis matrix
  ddmp_rtp    RMS of the forcing-weight residual plus goal_weight times
              the RMS of the goal residual
  ddmp_wpp    half the RMS of the whole parameter-vector residual
"""

from dataclasses import dataclass, replace

import numpy as np

from mprim import kernels
from mprim.basis import PhiMatrix

DEFAULT_GOAL_WEIGHT = 100.0   # relative importance of the goal residual

LOSS_KINDS = ("trajectory", "ddmp_rtp", "ddmp_wpp")


# ---------------------------------------------------------------------------
# dense network

@dataclass(frozen=True)
class MlpParams:
    """Dense-net parameters: tanh hidden layers, identity output."""

    layer_sizes: tuple
    weights: tuple   # (d_in, d_out) per layer
    biases: tuple    # (d_out,) per layer
    seed: int = 0

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[k], sizes[k + 1]) or b.shape != (sizes[k + 1],):
                raise ValueError(f"layer {k} parameter shapes do not match "
                                 f"layer_sizes {sizes}")

    @property
    def n_inputs(self):
        return self.layer_sizes[0]

    def to_dict(self):
        return {"layer_sizes": list(self.layer_sizes),
                "weights": [w.tolist() for w in self.weights],
                "biases": [b.tolist() for b in self.biases],
                "seed": int(self.seed)}

    @classmethod
    def from_dict(cls, d):
        return cls(tuple(d["layer_sizes"]),
                   tuple(np.asarray(w, float) for w in d["weights"]),
                   tuple(np.asarray(b, float) for b in d["biases"]),
                   int(d["seed"]))

    @property
    def n_outputs(self):
        return self.layer_sizes[-1]


def init_mlp(layer_sizes, seed: int = 0) -> MlpParams:
    """Scaled-uniform (Glorot bounds) initialization, zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-limit, limit, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return MlpParams(tuple(int(s) for s in layer_sizes),
                     tuple(weights), tuple(biases), seed)


def mlp_forward(params: MlpParams, ctx):
    """Deterministic forward pass; accepts one context or a batch."""
    x = np.asarray(ctx, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != params.n_inputs:
        raise ValueError(
            f"context has {x.shape[1]} features, network expects "
            f"{params.n_inputs}")
    out = kernels.mlp_forward_acts(x, list(params.weights),
                                   list(params.biases))[-1]
    return out[0] if single else out


# ---------------------------------------------------------------------------
# losses (value + gradient w.r.t. the prediction)

def _traj_batch(pred, gt, phi_values, n_joint):
    """Batched trajectory loss: per-sample loss and gradient w.r.t. pred."""
    b, width = pred.shape
    n_basis = width // n_joint
    t = phi_values.shape[0]
    diff = (pred - gt).reshape(b, n_joint, n_basis)
    traj_err = diff @ phi_values.T                      # (b, n_joint, T)
    per_joint = np.sqrt(np.mean(traj_err ** 2, axis=2))  # (b, n_joint)
    losses = per_joint.sum(axis=1)
    safe = np.where(per_joint > 0.0, per_joint, 1.0)
    grad = traj_err @ phi_values / (t * safe[:, :, None])
    grad[per_joint == 0.0] = 0.0                        # flat at the optimum
    return losses, grad.reshape(b, width)


def _rms_term_grad(delta, scale):
    """Gradient of scale*RMS(gt - pred) w.r.t. pred, with delta = pred - gt."""
    n = delta.shape[-1]
    r = np.sqrt(np.mean(delta * delta, axis=-1))
    safe = np.where(r > 0.0, r, 1.0)
    g = scale * delta / (n * safe[..., None])
    g[r == 0.0] = 0.0
    return scale * r, g


def _ddmp_rtp_batch(pred, gt, n_joint, goal_weight):
    n_goal = n_joint
    lw, gw_ = _rms_term_grad(pred[:, :-n_goal] - gt[:, :-n_goal], 1.0)
    lg, gg_ = _rms_term_grad(pred[:, -n_goal:] - gt[:, -n_goal:], goal_weight)
    return lw + lg, np.hstack([gw_, gg_])


def _ddmp_wpp_batch(pred, gt):
    return _rms_term_grad(pred - gt, 0.5)


def batch_loss_and_grad(pred, gt, loss_kind, phi: PhiMatrix = None,
                        n_joint: int = None,
                        goal_weight: float = DEFAULT_GOAL_WEIGHT):
    """Per-sample losses and gradients w.r.t. the predictions.

    pred/gt are (batch, head_width). For the trajectory and rtp kinds the
    joint count fixes how the head splits into blocks.
    """
    pred = np.atleast_2d(np.asarray(pred, float))
    gt = np.atleast_2d(np.asarray(gt, float))
    if pred.shape != gt.shape:
        raise ValueError("prediction and target shapes differ")
    if loss_kind == "trajectory":
        if phi is None or n_joint is None:
            raise ValueError("trajectory loss needs phi and n_joint")
        return _traj_batch(pred, gt, phi.values, n_joint)
    if loss_kind == "ddmp_rtp":
        if n_joint is None:
            raise ValueError("ddmp_rtp loss needs n_joint")
        return _ddmp_rtp_batch(pred, gt, n_joint, goal_weight)
    if loss_kind == "ddmp_wpp":
        return _ddmp_wpp_batch(pred, gt)
    raise ValueError(f"unknown loss kind {loss_kind!r}; expected one of "
                     f"{LOSS_KINDS}")


# ---------------------------------------------------------------------------
# Adam

@dataclass(frozen=True)
class AdamState:
    """Moment accumulators shaped like the parameters, plus step count."""

    m_w: tuple
    v_w: tuple
    m_b: tuple
    v_b: tuple
    step: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def adam_init(params: MlpParams, learning_rate: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999,
              epsilon: float = 1e-8) -> AdamState:
    zw = tuple(np.zeros_like(w) for w in params.weights)
    zb = tuple(np.zeros_like(b) for b in params.biases)
    return AdamState(zw, tuple(np.zeros_like(w) for w in params.weights),
                     zb, tuple(np.zeros_like(b) for b in params.biases),
                     0, learning_rate, beta1, beta2, epsilon)


def adam_step(state: AdamState, params: MlpParams, grads_w, grads_b):
    """One Adam update; returns (new_params, new_state)."""
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t

    def upd(m, v, g, p):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - state.learning_rate * (m / c1) / (np.sqrt(v / c2)
                                                  + state.epsilon)
        return m, v, p

    new_mw, new_vw, new_w = [], [], []
    for m, v, g, p in zip(state.m_w, state.v_w, grads_w, params.weights):
        m, v, p = upd(m, v, g, p)
        new_mw.append(m); new_vw.append(v); new_w.append(p)
    new_mb, new_vb, new_b = [], [], []
    for m, v, g, p in zip(state.m_b, state.v_b, grads_b, params.biases):
        m, v, p = upd(m, v, g, p)
        new_mb.append(m); new_vb.append(v); new_b.append(p)

    new_params = replace(params, weights=tuple(new_w), biases=tuple(new_b))
    new_state = replace(state, m_w=tuple(new_mw), v_w=tuple(new_vw),
                        m_b=tuple(new_mb), v_b=tuple(new_vb), step=t)
    return new_params, new_state
