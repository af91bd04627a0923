"""One trainer for the three context-to-trajectory models.

The three learners differ only in what the network's output means, and
that meaning is a `Head`:

  PrompHead      deep-mp: every joint's ProMP basis weights, trained with
                 the trajectory-space loss
  ResidualHead   residual: the deviation of those weights from the
                 training-split mean (per region when region tags exist);
                 decoding adds the mean back
  DmpHead        ddmp: goal-attractor parameters, trained with the
                 parameter-space losses; the variant follows the dataset
                 kind, and the reach variant (rtp) leaves the known start
                 configuration out of the output

A head owns the method-specific decisions and nothing else: its targets,
fitted to the whole stack of demos in one call before training; its
loss, which it computes (`loss_and_grad`) with the numeric code of
`regressor`; the ground-truth trajectories of a split; decoding a batch
of network outputs into (B, T, n_joint) trajectories; and the checkpoint
fields only it has.

`train` runs one deterministic minibatch loop for every head (Adam, seeded
shuffling, best-validation checkpointing, early stopping on the
validation loss) and returns a `Model`: the net, its context scaler, its
split and its head. `evaluate` decodes a whole split in one call and
scores every head with the same expressions.

Memory rule: a stage holds the dataset, one split's prediction and truth,
and temporaries of at most one chunk of `kernels.CHUNK_DEMOS` demos (plus
arrays of the fitted parameters' size). The heads fit the dataset's
(N, T, n_joint) stack where it lies and gather a split's demos one chunk
at a time; `metrics` scores a split chunk by chunk. No stage makes a
second copy of the stack.
"""

import csv
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from mprim import dmp as dmp_mod
from mprim import kernels, metrics
from mprim.basis import build_phi
from mprim.dataset import TASKS, DemoDataset, decode_f64, encode_f64
from mprim.errors import IntegrationError, TrainingDivergedError
from mprim.kinematics import DEFAULT_CHAIN, KinematicChain, final_distances
from mprim.promp import fit_weights
from mprim.regressor import (MlpParams, adam_init, adam_step, init_mlp,
                             mlp_forward, rms_loss, trajectory_loss)

DEFAULT_EPOCHS_RTP = 150
DEFAULT_EPOCHS_WPP = 200
DEFAULT_HIDDEN = (64, 64)
DEFAULT_N_BASIS = {"rtp": 8, "wpp": 10}
DEFAULT_N_BASIS_DMP = 25
GOAL_WEIGHT = 100.0   # rtp attractor loss: weight of the goal residual
GLOBAL_GROUP = "__global__"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    early_stop_patience: int = 20
    train_fraction: ClassVar[float] = 0.85
    val_fraction_of_train: ClassVar[float] = 0.25

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")


@dataclass
class TrainReport:
    """Per-epoch loss curves and how the run ended.

    `train_batch_loss` is the mean of the epoch's per-sample minibatch
    losses, each taken before its batch's Adam step, so the weights move
    within the epoch it averages over. `val_loss` is the loss that model
    selection and early stopping use: a full pass over the validation
    side after the epoch, or over the fit set when the validation side
    is empty. `stopping_reason` is "zero_epochs", "max_epochs",
    "early_stopping" or "diverged".
    """

    train_batch_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = -1
    stopping_reason: str = "zero_epochs"

    @property
    def final_epoch(self):
        return len(self.train_batch_loss)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_batch_loss", "val_loss"])
            for e, (tr, va) in enumerate(zip(self.train_batch_loss,
                                             self.val_loss)):
                writer.writerow([e, repr(tr), repr(va)])


# ---------------------------------------------------------------------------
# splits

def random_split(n: int, train_fraction: float, seed: int):
    """Seeded shuffle split into (train_indices, test_indices)."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = min(n, max(1, int(round(train_fraction * n))))
    return np.sort(order[:n_train]), np.sort(order[n_train:])


def _demo_indices(indices, n, what):
    """`indices` as a 1-D int array. ValueError names the first entry that
    is not an integer (a float, a bool) or does not index one of `n`
    demos."""
    values = np.asarray(indices)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D sequence of {what} indices, got "
                         f"shape {values.shape}")
    if values.dtype.kind not in "iu":
        for v in values.tolist():
            if type(v) is not int:
                raise ValueError(f"{what} index {v!r} is not an integer")
    indices = values.astype(int)
    outside = indices[(indices < 0) | (indices >= n)]
    if len(outside):
        raise ValueError(f"{what} index {outside[0]} is outside the dataset, "
                         f"which has {n} demos")
    return indices


def _chunks(n):
    """Slices that cover positions 0..n-1 in order, `kernels.CHUNK_DEMOS`
    at a time: a split's demos are gathered one such chunk at a time,
    never the whole selection at once."""
    step = kernels.CHUNK_DEMOS
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _fit_scaler(contexts):
    mean = contexts.mean(axis=0)
    std = contexts.std(axis=0)
    std[std == 0.0] = 1.0   # constant features pass through unscaled
    return mean, std


# ---------------------------------------------------------------------------
# shared minibatch loop

def batch_loss_and_grad(head, pred, target):
    """Per-sample losses of `head` and their gradients w.r.t. the
    predictions; `pred` and `target` are (batch, head_width)."""
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} differs from target "
                         f"shape {target.shape}")
    return head.loss_and_grad(pred, target)


# a diverging run is caught by the finiteness check of each epoch's
# losses, not by numpy's overflow warnings
@np.errstate(over="ignore", invalid="ignore")
def _run_training(x_std, targets, train_idx, cfg: TrainConfig, hidden,
                  head):
    """Deterministic Adam loop; returns (best_params, report).

    An epoch records as its train loss the mean of the per-sample losses
    that its minibatch passes compute anyway, each before its batch's
    step (`TrainReport.train_batch_loss`). Its `val_loss` is the one full
    pass of the epoch: over the validation side, or over the fit set when
    that side is empty. Selection keeps the weights of the epoch with the
    lowest `val_loss`, and early stopping counts epochs since then.

    An epoch whose train or validation loss is not finite is not
    recorded. The run stops there with `stopping_reason` "diverged" and
    keeps the best weights so far; when there are none, `best_epoch`
    stays -1 and `train` raises TrainingDivergedError.
    """
    rng = np.random.default_rng(cfg.seed)
    local = rng.permutation(len(train_idx))
    n_val = int(len(train_idx) * cfg.val_fraction_of_train)
    val_idx = train_idx[local[:n_val]]
    fit_idx = train_idx[local[n_val:]]

    layer_sizes = (x_std.shape[1], *hidden, targets.shape[1])
    params = init_mlp(layer_sizes, cfg.seed)
    state = adam_init(params, cfg.learning_rate)
    grad = np.empty_like(params.theta)
    grads_w, grads_b = params.views(grad)
    batch_losses = np.empty(len(fit_idx))
    report = TrainReport()

    def mean_loss(idx):
        losses, _ = batch_loss_and_grad(
            head, mlp_forward(params, x_std[idx]), targets[idx])
        return float(np.mean(losses))

    best_theta, best_val, best_epoch = None, np.inf, -1
    reason = "zero_epochs" if cfg.epochs == 0 else "max_epochs"
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(fit_idx))
        for lo in range(0, len(order), cfg.batch_size):
            batch = fit_idx[order[lo:lo + cfg.batch_size]]
            acts = kernels.mlp_forward_acts(x_std[batch], params.weights,
                                            params.biases)
            losses, dpred = batch_loss_and_grad(head, acts[-1],
                                                targets[batch])
            batch_losses[lo:lo + len(batch)] = losses
            kernels.mlp_backward_acts(acts, params.weights,
                                      dpred / len(batch), grads_w, grads_b)
            adam_step(state, params.theta, grad)
        train_loss = float(np.mean(batch_losses))
        val = mean_loss(val_idx if len(val_idx) else fit_idx)
        if not np.isfinite([train_loss, val]).all():
            reason = "diverged"
            break
        report.train_batch_loss.append(train_loss)
        report.val_loss.append(val)
        if val < best_val:
            best_theta, best_val, best_epoch = params.theta.copy(), val, epoch
        elif epoch - best_epoch >= cfg.early_stop_patience:
            reason = "early_stopping"
            break
    report.best_epoch = best_epoch
    report.stopping_reason = reason
    if best_epoch >= 0:
        params.theta[:] = best_theta
    return params, report


# ---------------------------------------------------------------------------
# heads

def _field(d, name, parse):
    """Checkpoint payload field `name`, through `parse`; a missing field or
    one that `parse` rejects raises ValueError naming it."""
    if name not in d:
        raise ValueError(f"payload lacks field {name!r}")
    try:
        return parse(d[name])
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ValueError(f"payload field {name!r} is malformed "
                         f"({type(err).__name__}: {err})") from None


def _indices(value):
    if not isinstance(value, list) or any(type(i) is not int for i in value):
        raise ValueError("expected a list of integer demo indices")
    return tuple(value)


def _count(value, low=1):
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    if value < low:
        raise ValueError(f"expected an integer >= {low}, got {value}")
    return value


def _task(value):
    if value not in TASKS:
        raise ValueError(f"expected 'rtp' or 'wpp', got {value!r}")
    return value


def _layer_sizes(value, head):
    """`layer_sizes` as a tuple of counts whose last is `head`'s width."""
    sizes = tuple(map(_count, value))
    if sizes[-1:] != (head.width,):
        raise ValueError(f"the net's last layer has "
                         f"{sizes[-1] if sizes else 0} outputs; its head "
                         f"takes {head.width}")
    return sizes


def _floats(value, n=None, positive=False):
    """An `encode_f64` vector of finite values (`n` of them, each > 0 when
    `positive`) as an array of its own."""
    out = decode_f64(value).astype(float)
    if n is not None and len(out) != n:
        raise ValueError(f"expected {n} float64 values, got {len(out)}")
    bad = np.flatnonzero(~np.isfinite(out) | (positive & (out <= 0.0)))
    if len(bad):
        raise ValueError(f"value {bad[0]} is {float(out[bad[0]])}; expected "
                         f"finite numbers{' > 0' if positive else ''}")
    return out


@dataclass(frozen=True)
class Head:
    """What the network's output means, for one method.

    A subclass fits its targets (`fit`, whose one keyword is its basis
    size: `n_basis` or `n_basis_dmp`), computes its per-sample loss and
    the loss gradient w.r.t. a batch of network outputs (`loss_and_grad`),
    decodes such a batch (`decode`), gives the ground truth of a split
    (`truth`), says how many network outputs it takes (`width`), and
    writes and reads the checkpoint fields only its method has
    (`to_dict`, `from_dict`): `n_basis` for deep-mp, plus
    `mean_weights` for residual, and `n_basis_dmp` and `home` for ddmp
    (see `checkpoint`). Trajectories are (B, T, n_joint) arrays, with T =
    `n_samples`.
    """

    task: str                 # rtp | wpp
    n_joint: int
    n_samples: int


@dataclass(frozen=True)
class PrompHead(Head):
    """deep-mp: the net predicts every joint's ProMP basis weights."""

    n_basis: int

    def __post_init__(self):
        object.__setattr__(self, "phi", build_phi(self.n_samples,
                                                  self.n_basis))

    @classmethod
    def fit(cls, dataset, train_idx, n_basis=None):
        """(head, fitted weights of every demo)."""
        if n_basis is None:
            n_basis = DEFAULT_N_BASIS[dataset.kind]
        head = cls(dataset.kind, dataset.n_joint, dataset.n_samples_per_traj,
                   n_basis)
        return head, head.weights(dataset.trajectories)

    def weights(self, trajectories):
        """Flat fitted weights of (B, T, n_joint) trajectories, joint-major,
        shape (B, n_joint*n_basis). `fit_weights` reads the stack where it
        lies, so no copy of it is made, and each row is its demo's own
        fit bit for bit."""
        return fit_weights(trajectories, self.phi).reshape(
            len(trajectories), -1)

    def loss_and_grad(self, pred, target):
        """The trajectory-space loss of (B, n_joint*n_basis) weights."""
        return trajectory_loss(pred, target, self.phi, self.n_joint)

    @property
    def width(self):
        return self.n_joint * self.n_basis

    def decode(self, out, dataset, indices):
        return self._trajectories(out)

    def truth(self, dataset, indices):
        """The demos at `indices` decoded from their fitted weights; the
        demos are gathered one chunk at a time."""
        stack = dataset.trajectories
        return self._trajectories(np.concatenate(
            [self.weights(stack[indices[rows]])
             for rows in _chunks(len(indices))]))

    def _trajectories(self, flat):
        w = flat.reshape(len(flat), self.n_joint, -1)
        return np.swapaxes(w @ self.phi.values.T, 1, 2)

    def to_dict(self):
        return {"n_basis": self.n_basis}

    @classmethod
    def from_dict(cls, task, n_joint, n_samples, d):
        return cls(task, n_joint, n_samples, _field(d, "n_basis", _count))


@dataclass(frozen=True)
class ResidualHead(PrompHead):
    """residual: the net predicts the deviation from mean basis weights.

    The means come from the training split only: one per region when the
    demos carry region tags, plus a global one for every other demo.
    Decoding adds the demo's mean back.
    """

    mean_weights: dict             # region (or GLOBAL_GROUP) -> flat mean

    @classmethod
    def fit(cls, dataset, train_idx, n_basis=None):
        if len(train_idx) < 2:
            raise ValueError("residual variant needs at least 2 training "
                             "demos")
        base, weights = PrompHead.fit(dataset, train_idx, n_basis)
        regions = np.array(cls._regions(dataset, train_idx))
        means = {GLOBAL_GROUP: weights[train_idx].mean(axis=0)}
        for region in dict.fromkeys(r for r in regions if r is not None):
            means[region] = weights[train_idx[regions == region]].mean(axis=0)
        head = cls(base.task, base.n_joint, base.n_samples, base.n_basis,
                   means)
        # each demo's weights less its group's mean, in place
        for row, region in zip(weights,
                               cls._regions(dataset, range(len(dataset)))):
            row -= means.get(region, means[GLOBAL_GROUP])
        return head, weights

    @staticmethod
    def _regions(dataset, indices):
        """The region tag of each demo as a string, None where it has none."""
        regions = (dataset.tags[i].get("region") for i in indices)
        return [None if r is None else str(r) for r in regions]

    def _means(self, dataset, indices):
        fallback = self.mean_weights[GLOBAL_GROUP]
        return np.stack([self.mean_weights.get(r, fallback)
                         for r in self._regions(dataset, indices)])

    def decode(self, out, dataset, indices):
        return self._trajectories(out + self._means(dataset, indices))

    def to_dict(self):
        return {**super().to_dict(),
                "mean_weights": {k: encode_f64(v)
                                 for k, v in self.mean_weights.items()}}

    @classmethod
    def from_dict(cls, task, n_joint, n_samples, d):
        n_basis = _field(d, "n_basis", _count)

        def means(value):
            if GLOBAL_GROUP not in value:
                raise KeyError(GLOBAL_GROUP)
            return {k: _floats(v, n_joint * n_basis) for k, v in value.items()}

        return cls(task, n_joint, n_samples, n_basis,
                   _field(d, "mean_weights", means))


@dataclass(frozen=True)
class DmpHead(Head):
    """ddmp: the net predicts goal-attractor parameters.

    The output is [forcing weights, joint-major | goal | start]. The reach
    variant (task "rtp") leaves the start out of the output: every demo
    starts from the same pose, so rollouts start from `home`, the mean
    start of the training demos.
    """

    n_basis_dmp: int
    home: np.ndarray               # rtp only, None for wpp

    @classmethod
    def fit(cls, dataset, train_idx, n_basis_dmp=DEFAULT_N_BASIS_DMP):
        """(head, attractor parameters of every demo); the variant is the
        dataset kind."""
        home = None
        if dataset.kind == "rtp":
            home = dataset.trajectories[train_idx, 0].mean(axis=0)
        head = cls(dataset.kind, dataset.n_joint, dataset.n_samples_per_traj,
                   n_basis_dmp, home)
        # fitted one chunk of the stack at a time into the targets, so a
        # chunk's fit lives only while its rows are written
        stack = dataset.trajectories
        targets = np.empty((len(stack), head.width))
        for rows in _chunks(len(stack)):
            forcing, goals, starts = dmp_mod.fit_dmp(stack[rows], n_basis_dmp)
            targets[rows] = np.hstack(
                [forcing.reshape(len(forcing), -1), goals]
                + ([starts] if dataset.kind == "wpp" else []))
        return head, targets

    def loss_and_grad(self, pred, target):
        """rtp: the RMS of the forcing-weight residual plus GOAL_WEIGHT
        times the RMS of the goal residual; wpp: half the RMS of the whole
        parameter residual."""
        if self.task == "wpp":
            return rms_loss(pred - target, 0.5)
        j = self.n_joint
        lw, gw = rms_loss(pred[:, :-j] - target[:, :-j], 1.0)
        lg, gg = rms_loss(pred[:, -j:] - target[:, -j:], GOAL_WEIGHT)
        return lw + lg, np.hstack([gw, gg])

    @property
    def width(self):
        return self.n_joint * (self.n_basis_dmp
                               + (1 if self.task == "rtp" else 2))

    def decode(self, out, dataset, indices):
        j, n = self.n_joint, self.n_basis_dmp
        forcing = out[:, :j * n].reshape(len(out), j, n)
        goals = out[:, j * n:j * n + j]
        starts = (np.broadcast_to(self.home, goals.shape)
                  if self.task == "rtp" else out[:, j * n + j:])
        return self._rollouts(forcing, goals, starts, "prediction", indices)

    def truth(self, dataset, indices):
        """The rollouts of the demos at `indices` refitted; the demos are
        gathered and fitted one chunk at a time into arrays allocated
        once for the split, and a gathered chunk lives only during its
        fit."""
        n, j, k = len(indices), self.n_joint, self.n_basis_dmp
        fits = np.empty((n, j, k)), np.empty((n, j)), np.empty((n, j))
        for rows in _chunks(n):
            for whole, part in zip(fits, dmp_mod.fit_dmp(
                    dataset.trajectories[indices[rows]], k)):
                whole[rows] = part
        return self._rollouts(*fits, "ground-truth", indices)

    def _rollouts(self, forcing, goals, starts, what, indices):
        """One batched rollout; a divergence names the dataset indices."""
        try:
            return dmp_mod.rollout_matched(starts, goals, forcing,
                                           self.n_samples)
        except IntegrationError as err:
            rows = [int(indices[r]) for r in err.rows]
            raise IntegrationError(
                f"{what} rollout diverged to a non-finite state for dataset "
                f"indices {rows}", rows=rows) from err

    def to_dict(self):
        return {"n_basis_dmp": self.n_basis_dmp,
                "home": None if self.home is None else encode_f64(self.home)}

    @classmethod
    def from_dict(cls, task, n_joint, n_samples, d):
        return cls(task, n_joint, n_samples,
                   _field(d, "n_basis_dmp", _count),
                   _field(d, "home", lambda home: None
                          if home is None and task == "wpp"
                          else _floats(home, n_joint)))


HEADS = {"deep-mp": PrompHead, "residual": ResidualHead, "ddmp": DmpHead}


@dataclass(frozen=True)
class Model:
    """A trained net with everything needed to use it: the context
    scaler, the split it was trained on and the head that says what its
    output means."""

    head: Head
    mlp: MlpParams
    ctx_mean: np.ndarray
    ctx_std: np.ndarray
    train_indices: tuple = ()
    test_indices: tuple = ()

    def check_fits(self, dataset: DemoDataset):
        """Raise ValueError unless `dataset` has this model's shapes."""
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        for what, have, want in (
                ("contexts have {} features", dataset.context_dim,
                 self.mlp.n_inputs),
                ("trajectories have {} joints", dataset.n_joint,
                 self.head.n_joint),
                ("trajectories have {} samples", dataset.n_samples_per_traj,
                 self.head.n_samples)):
            if have != want:
                raise ValueError(f"dataset {what.format(have)}, checkpoint "
                                 f"expects {want}")

    def predict(self, dataset: DemoDataset, indices):
        """Predicted trajectories of the demos at `indices`, shape
        (B, T, n_joint). An index that is not an integer or lies outside
        the dataset raises ValueError."""
        self.check_fits(dataset)
        indices = _demo_indices(indices, len(dataset), "demo")
        ctx = dataset.contexts[indices]
        out = mlp_forward(self.mlp, (ctx - self.ctx_mean) / self.ctx_std)
        return self.head.decode(out, dataset, indices)

    def to_dict(self):
        """Checkpoint payload (schema 2; see `checkpoint`)."""
        head = self.head
        method = next(m for m, cls in HEADS.items() if type(head) is cls)
        return {"method": method, "task": head.task, "n_joint": head.n_joint,
                "n_samples_per_traj": head.n_samples,
                "layer_sizes": list(self.mlp.layer_sizes),
                "theta": encode_f64(self.mlp.theta),
                "ctx_mean": encode_f64(self.ctx_mean),
                "ctx_std": encode_f64(self.ctx_std),
                "train_indices": list(self.train_indices),
                "test_indices": list(self.test_indices), **head.to_dict()}

    @classmethod
    def from_dict(cls, d):
        """Inverse of `to_dict`. A field that is missing or of the wrong
        type or shape raises ValueError naming it. Fields it does not read
        are ignored."""
        head = _field(d, "method", HEADS.__getitem__).from_dict(
            _field(d, "task", _task), _field(d, "n_joint", _count),
            _field(d, "n_samples_per_traj", lambda v: _count(v, 2)), d)
        sizes = _field(d, "layer_sizes", lambda v: _layer_sizes(v, head))
        mlp = _field(d, "theta", lambda v: MlpParams(sizes, _floats(v)))
        return cls(head, mlp,
                   _field(d, "ctx_mean", lambda v: _floats(v, mlp.n_inputs)),
                   _field(d, "ctx_std",
                          lambda v: _floats(v, mlp.n_inputs, positive=True)),
                   _field(d, "train_indices", _indices),
                   _field(d, "test_indices", _indices))


# ---------------------------------------------------------------------------
# training and evaluation

def train(method: str, dataset: DemoDataset, cfg: TrainConfig, *,
          n_basis: int = None, hidden=DEFAULT_HIDDEN,
          n_basis_dmp: int = DEFAULT_N_BASIS_DMP, split=None):
    """Train the net of `method` (deep-mp, residual or ddmp).

    `n_basis` is the ProMP basis size (default 8 for rtp data, 10 for
    wpp); `n_basis_dmp` sets the attractor head, whose variant follows the
    dataset kind. `split` is (train, test) indices; by
    default a seeded random split. A split with no train demo, an index
    that is not an integer or lies outside the dataset, or a demo on both
    sides raises ValueError. A run whose loss is not finite before any
    epoch could be kept raises TrainingDivergedError. Returns (Model,
    TrainReport).
    """
    if method not in HEADS:
        raise ValueError(f"unknown method {method!r}; "
                         "expected deep-mp, residual or ddmp")
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if split is None:
        split = random_split(len(dataset), cfg.train_fraction, cfg.seed)
    train_idx, test_idx = (_demo_indices(idx, len(dataset), what)
                           for idx, what in zip(split, ("train", "test")))
    if not len(train_idx):   # an empty test side is allowed
        raise ValueError("the split's train side is empty")
    both = set(train_idx.tolist()) & set(test_idx.tolist())
    if both:
        raise ValueError(f"demo {min(both)} is on both the train and the "
                         f"test side of the split")
    size = ({"n_basis_dmp": n_basis_dmp} if method == "ddmp"
            else {"n_basis": n_basis})
    head, targets = HEADS[method].fit(dataset, train_idx, **size)
    contexts = dataset.contexts
    mean, std = _fit_scaler(contexts[train_idx])
    params, report = _run_training((contexts - mean) / std, targets,
                                   train_idx, cfg, hidden, head)
    if report.stopping_reason == "diverged" and report.best_epoch < 0:
        raise TrainingDivergedError(report.final_epoch, method,
                                    cfg.learning_rate)
    model = Model(head, params, mean, std, tuple(map(int, train_idx)),
                  tuple(map(int, test_idx)))
    return model, report


def group_keys(dataset: DemoDataset):
    """The evaluation group of every demo, an (N,) array of strings: its
    region tag (reach), else its configuration tag (palpation), else
    "all"."""
    return np.array([str(t["region"]) if "region" in t
                     else str(t["config"]) if "config" in t else "all"
                     for t in dataset.tags])


def evaluate(model: Model, dataset: DemoDataset, indices,
             chain: KinematicChain = DEFAULT_CHAIN):
    """Grouped metrics over a dataset subset.

    Returns (records, overall, pred): one EvalRecord per tag group
    (region or configuration), one covering every evaluated sample, and
    the (B, T, n_joint) predicted trajectories that they score, in the
    order of `indices`. The split is predicted and decoded in one call;
    its ground truth is each demo's fitted representation (basis weights
    or attractor parameters) decoded the same way, so a ddmp model rolls
    out the ground-truth refits as one batch and the predictions as
    another. A divergent rollout raises IntegrationError naming the
    dataset indices and which of the two it was. Each demo's squared
    error and end-effector distance are computed once, in one pass over
    the whole split, and averaged per group.
    """
    indices = _demo_indices(indices, len(dataset), "demo")
    if len(indices) == 0:
        raise ValueError("cannot evaluate an empty split")
    pred = model.predict(dataset, indices)
    truth = model.head.truth(dataset, indices)
    sq = metrics.squared_trajectory_loss(pred, truth)
    dist = final_distances(pred, truth, chain)
    keys = group_keys(dataset)[indices]

    def record(name, rows):
        return metrics.EvalRecord(name, float(np.mean(sq[rows])),
                                  float(np.mean(dist[rows])) * 1000.0,
                                  int(np.count_nonzero(rows)))

    records = [record(name, keys == name)
               for name in sorted(set(keys.tolist()))]
    return records, record("overall", np.ones(len(indices), bool)), pred
