"""One trainer for the three context-to-trajectory models.

The three learners differ only in what the network's output means, and
that meaning is a `Head`:

  PrompHead      deep-mp: every joint's ProMP basis weights, trained with
                 the trajectory-space loss
  ResidualHead   residual: deep-mp whose output bias starts at the mean
                 fitted weights of the training split, not at 0
  DmpHead        ddmp: goal-attractor parameters, trained with the
                 parameter-space losses; the variant follows the dataset
                 kind, and the reach variant (rtp) leaves the known start
                 configuration out of the output

A head owns the method-specific decisions and nothing else: its targets,
fitted to the training split's demos in one call before training; the
net's output bias before training (`initial_bias`); its loss, which it
computes (`loss_and_grad`) with the numeric code of `regressor`; the
ground-truth trajectories of a split; and decoding a batch of network
outputs into (B, T, n_joint) trajectories. The ProMP heads fit and
reconstruct through `promp`, ddmp through `dmp`. What a checkpoint holds
of a head, and how, is `checkpoint`'s alone.

`train` runs one deterministic minibatch loop for every head (Adam, seeded
shuffling, best-validation checkpointing, early stopping on the
validation loss) and returns a `Model`: the net, its context scaler, its
split and its head. `evaluate` runs the net over a whole split, scores
every head with the same expressions, and is the one place that checks
that a score is finite: no head's decode checks its own output. No
setting of a run has a default here, and no file is read or written:
`mprim.cli` states each one, the split and the head's one basis size
too, and writes the report's loss curves with `plots.write_table`.

Memory rule: a stage holds the dataset, arrays of the size of a split's
network outputs or fitted parameters, and temporaries of at most one
chunk of `CHUNK_DEMOS` demos. The passes over a split (`Head.fit`,
`evaluate`, the training loop) take one `_chunks` slice at a time, and
no code below them loops over chunks. No stage copies the stack or
holds a (B, T, n_joint) array of a whole split; an epoch of the
training loop allocates only the loss temporaries of a minibatch or chunk.
"""

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from mprim import dmp as dmp_mod
from mprim import kernels, metrics
from mprim.dataset import DemoDataset, check_split
from mprim.errors import NonFiniteScoreError, TrainingDivergedError
from mprim.kinematics import KinematicChain, final_distances
from mprim.promp import build_phi, fit_weights, reconstruct
from mprim.regressor import (MlpParams, adam_init, adam_step, init_mlp,
                             mlp_forward, rms_loss, trajectory_loss)

GOAL_WEIGHT = 100.0   # rtp attractor loss: weight of the goal residual
# a pass over a split takes at most this many demos at a time, so its
# temporaries have a fixed size whatever the split's size
CHUNK_DEMOS = 64


@dataclass(frozen=True)
class TrainConfig:
    """The settings of the minibatch loop; the validation share is fixed."""

    epochs: int
    batch_size: int
    learning_rate: float
    seed: int
    early_stop_patience: int
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


# ---------------------------------------------------------------------------
# splits

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
    """Slices that cover positions 0..n-1 in order, `CHUNK_DEMOS` at a
    time, so that a pass never gathers a whole selection at once."""
    return (slice(lo, lo + CHUNK_DEMOS) for lo in range(0, n, CHUNK_DEMOS))


def _fit_scaler(contexts):
    mean = contexts.mean(axis=0)
    std = contexts.std(axis=0)
    # constant features pass through unscaled (their std may be rounding)
    std[contexts.max(axis=0) == contexts.min(axis=0)] = 1.0
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
def _run_training(x, targets, cfg: TrainConfig, hidden, head):
    """Deterministic Adam loop over the training split's standardised
    contexts `x` and their `targets`, row for row; returns (best_params,
    report).

    An epoch records as its train loss the mean of the per-sample losses
    that its minibatch passes compute anyway, each before its batch's
    step (`TrainReport.train_batch_loss`). Its `val_loss` is the one full
    pass of the epoch: over the validation side, or over the fit set when
    that side is empty, one `_chunks` slice at a time. Selection keeps
    the weights of the epoch with the lowest `val_loss`, and early
    stopping counts epochs since then.

    Every array the passes write is allocated once per run: the layer and
    backward work buffers, the epoch's shuffled fit rows (gathered once
    per epoch, each minibatch a slice of them), the gathered check side,
    the per-sample losses of both and the best weights. What an epoch
    allocates is its permutation and the temporaries of the head's loss
    on one minibatch or one check chunk.

    An epoch whose train or validation loss is not finite is not
    recorded. The run stops there with `stopping_reason` "diverged" and
    keeps the best weights so far; when there are none, `best_epoch`
    stays -1 and `train` raises TrainingDivergedError.
    """
    rng = np.random.default_rng(cfg.seed)
    local = rng.permutation(len(x))
    n_val = int(len(x) * cfg.val_fraction_of_train)
    fit_pos = local[n_val:]
    # the side each epoch checks, gathered once for every epoch
    check_pos = local[:n_val] if n_val else fit_pos
    check_x, check_targets = x[check_pos], targets[check_pos]

    layer_sizes = (x.shape[1], *hidden, targets.shape[1])
    params = init_mlp(layer_sizes, cfg.seed)
    # after the seeded draw, so the draw is the same for every head
    params.biases[-1][:] = head.initial_bias(targets)
    state = adam_init(params, cfg.learning_rate)
    grad = np.empty_like(params.theta)
    grads_w, grads_b = params.views(grad)
    # rows of the largest pass: a minibatch or a check chunk
    rows = max(min(cfg.batch_size, len(fit_pos)),
               min(CHUNK_DEMOS, len(check_pos)))
    layers = [np.empty((rows, d)) for d in layer_sizes[1:]]
    work = [(np.empty((rows, d)), np.empty((rows, d))) for d in hidden]
    epoch_x = np.empty((len(fit_pos), x.shape[1]))
    epoch_targets = np.empty((len(fit_pos), targets.shape[1]))
    batch_losses = np.empty(len(fit_pos))
    check_losses = np.empty(len(check_pos))
    report = TrainReport()

    best_theta, best_val, best_epoch = np.empty_like(params.theta), np.inf, -1
    reason = "zero_epochs" if cfg.epochs == 0 else "max_epochs"
    for epoch in range(cfg.epochs):
        # the positions are rows of `x`, so "clip" clips nothing; it
        # writes straight into `out`, where "raise" buffers the copy
        order = fit_pos[rng.permutation(len(fit_pos))]
        np.take(x, order, axis=0, out=epoch_x, mode="clip")
        np.take(targets, order, axis=0, out=epoch_targets, mode="clip")
        for lo in range(0, len(order), cfg.batch_size):
            batch = slice(lo, lo + cfg.batch_size)
            acts = kernels.mlp_forward_acts(epoch_x[batch], params.weights,
                                            params.biases, layers)
            losses, dpred = batch_loss_and_grad(head, acts[-1],
                                                epoch_targets[batch])
            batch_losses[batch] = losses
            dpred /= len(losses)
            kernels.mlp_backward_acts(acts, params.weights, dpred, grads_w,
                                      grads_b, work)
            adam_step(state, params.theta, grad)
        train_loss = float(np.mean(batch_losses))
        for chunk in _chunks(len(check_pos)):
            acts = kernels.mlp_forward_acts(check_x[chunk], params.weights,
                                            params.biases, layers)
            losses, _ = batch_loss_and_grad(head, acts[-1],
                                            check_targets[chunk])
            check_losses[chunk] = losses
        val = float(np.mean(check_losses))
        if not np.isfinite([train_loss, val]).all():
            reason = "diverged"
            break
        report.train_batch_loss.append(train_loss)
        report.val_loss.append(val)
        if val < best_val:
            best_theta[:] = params.theta
            best_val, best_epoch = val, epoch
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

# compared by identity: DmpHead, which holds an array, inherits this ==
@dataclass(frozen=True, eq=False)
class Head:
    """What the network's output means, for one method.

    A subclass fits its targets (`fit(dataset, train_idx, n_basis)`),
    computes its per-sample loss and the loss gradient w.r.t. a batch of
    network outputs (`loss_and_grad`), decodes such a batch from the
    outputs alone (`decode`), gives the ground truth of a split (`truth`)
    and says how many network outputs it takes (`width`). Trajectories are
    (B, T, n_joint) arrays, with T = `n_samples`. `n_basis` is the
    number of basis parameters per joint: the ProMP basis count for
    deep-mp and residual, the forcing-kernel count for ddmp.
    """

    task: str                 # rtp | wpp
    n_joint: int
    n_samples: int
    n_basis: int

    def initial_bias(self, targets):
        """The net's output bias before training, from the targets."""
        return 0.0


@dataclass(frozen=True)
class PrompHead(Head):
    """deep-mp: the net predicts every joint's ProMP basis weights."""

    def __post_init__(self):
        object.__setattr__(self, "phi", build_phi(self.n_samples,
                                                  self.n_basis))

    @classmethod
    def fit(cls, dataset, train_idx, n_basis):
        """(head, fitted weights of the demos at `train_idx`, in that
        order)."""
        head = cls(dataset.kind, dataset.n_joint, dataset.n_samples_per_traj,
                   n_basis)
        return head, head._fitted(dataset, train_idx)

    def loss_and_grad(self, pred, target):
        """The trajectory-space loss of (B, n_joint*n_basis) weights."""
        return trajectory_loss(pred, target, self.phi, self.n_joint)

    @property
    def width(self):
        return self.n_joint * self.n_basis

    def decode(self, out):
        return self._trajectories(out)

    def truth(self, dataset, indices):
        """The demos at `indices` decoded from their fitted weights."""
        return self._trajectories(self._fitted(dataset, indices))

    def _fitted(self, dataset, indices):
        """Flat fitted weights of the demos at `indices`, joint-major,
        shape (B, n_joint*n_basis); the demos are gathered and fitted one
        chunk at a time into an array allocated once, and each row is its
        demo's own fit bit for bit."""
        stack, out = dataset.trajectories, np.empty((len(indices), self.width))
        for rows in _chunks(len(indices)):
            out[rows] = fit_weights(stack[indices[rows]], self.phi).reshape(
                -1, self.width)
        return out

    def _trajectories(self, flat):
        return reconstruct(flat.reshape(len(flat), self.n_joint, -1),
                           self.phi)


@dataclass(frozen=True)
class ResidualHead(PrompHead):
    """residual: the net predicts the deviation from the training
    split's mean basis weights, since its output bias starts there."""

    @classmethod
    def fit(cls, dataset, train_idx, n_basis):
        if len(train_idx) < 2:
            raise ValueError("residual variant needs at least 2 training "
                             "demos")
        return super().fit(dataset, train_idx, n_basis)

    def initial_bias(self, targets):
        return targets.mean(axis=0)


@dataclass(frozen=True, eq=False)
class DmpHead(Head):
    """ddmp: the net predicts goal-attractor parameters.

    The output is [forcing weights, joint-major | goal | start]. The reach
    variant (task "rtp") leaves the start out of the output: every demo
    starts from the same pose, so rollouts start from `home`, the mean
    start of the training demos.
    """

    home: np.ndarray               # rtp only, None for wpp

    @classmethod
    def fit(cls, dataset, train_idx, n_basis):
        """(head, attractor parameters of the demos at `train_idx`, in that
        order); the variant is the dataset kind."""
        home = None
        if dataset.kind == "rtp":
            home = dataset.trajectories[train_idx, 0].mean(axis=0)
        head = cls(dataset.kind, dataset.n_joint, dataset.n_samples_per_traj,
                   n_basis, home)
        # fitted one chunk at a time into the targets, so a chunk's fit
        # lives only while its rows are written
        targets = np.empty((len(train_idx), head.width))
        for rows in _chunks(len(train_idx)):
            forcing, goals, starts = dmp_mod.fit_dmp(
                dataset.trajectories, train_idx[rows], n_basis)
            np.concatenate([forcing.reshape(len(forcing), -1), goals]
                           + ([starts] if dataset.kind == "wpp" else []),
                           axis=1, out=targets[rows])
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
        return self.n_joint * (self.n_basis
                               + (1 if self.task == "rtp" else 2))

    def decode(self, out):
        j, n = self.n_joint, self.n_basis
        forcing = out[:, :j * n].reshape(len(out), j, n)
        goals = out[:, j * n:j * n + j]
        starts = (np.broadcast_to(self.home, goals.shape)
                  if self.task == "rtp" else out[:, j * n + j:])
        return dmp_mod.rollout_matched(starts, goals, forcing,
                                       self.n_samples)

    def truth(self, dataset, indices):
        """The rollouts of the demos at `indices` refitted, read from the
        stack where they lie."""
        forcing, goals, starts = dmp_mod.fit_dmp(dataset.trajectories,
                                                 indices, self.n_basis)
        return dmp_mod.rollout_matched(starts, goals, forcing,
                                       self.n_samples)


HEADS = {"deep-mp": PrompHead, "residual": ResidualHead, "ddmp": DmpHead}


@dataclass(frozen=True, eq=False)
class Model:
    """A trained net with everything needed to use it: the context
    scaler, the split it was trained on and the head that says what its
    output means."""

    head: Head
    mlp: MlpParams
    ctx_mean: np.ndarray
    ctx_std: np.ndarray
    train_indices: tuple
    test_indices: tuple

    def check_fits(self, dataset: DemoDataset):
        """Raise ValueError unless `dataset` has this model's shapes."""
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

    def outputs(self, dataset: DemoDataset, indices):
        """Network outputs of the demos at `indices`, shape
        (B, head.width), from one forward pass; `head.decode` makes them
        trajectories. An index that is not an integer or lies outside the
        dataset raises ValueError."""
        self.check_fits(dataset)
        indices = _demo_indices(indices, len(dataset), "demo")
        ctx = dataset.contexts[indices]
        return mlp_forward(self.mlp, (ctx - self.ctx_mean) / self.ctx_std)


# ---------------------------------------------------------------------------
# training and evaluation

def train(method: str, dataset: DemoDataset, cfg: TrainConfig, *,
          basis: int, hidden, split):
    """Train the net of `method` (deep-mp, residual or ddmp).

    `basis` is the head's one basis size: ProMP for deep-mp and residual,
    forcing for ddmp, whose attractor variant follows the dataset kind.
    `hidden` holds the hidden layer sizes, and `split` the (train, test)
    indices that the caller draws. An index that is not an integer or lies
    outside the dataset, or a split that `dataset.check_split` rejects,
    one that holds out no demo among them, raises ValueError. A run whose
    loss is not finite before any epoch could be kept raises
    TrainingDivergedError. Returns (Model, TrainReport).
    """
    if method not in HEADS:
        raise ValueError(f"unknown method {method!r}; "
                         "expected deep-mp, residual or ddmp")
    train_idx, test_idx = (_demo_indices(idx, len(dataset), what)
                           for idx, what in zip(split, ("train", "test")))
    check_split(train_idx.tolist(), test_idx.tolist())
    head, targets = HEADS[method].fit(dataset, train_idx, basis)
    contexts = dataset.contexts[train_idx]
    mean, std = _fit_scaler(contexts)
    params, report = _run_training((contexts - mean) / std, targets, cfg,
                                   hidden, head)
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


# an overflowing score is caught by the finiteness check below, not by
# numpy's overflow warnings
@np.errstate(over="ignore", invalid="ignore")
def evaluate(model: Model, dataset: DemoDataset, indices,
             chain: KinematicChain):
    """Grouped metrics over a dataset subset.

    Returns (records, overall, outputs): one EvalRecord per tag group
    (region or configuration), one covering every evaluated sample, and
    the (B, head.width) network outputs whose decoding they score, in the
    order of `indices`. The net runs over the whole split in one pass (a
    one-row pass would round differently); then each `_chunks` slice is
    decoded and scored against its ground truth, each demo's fitted
    representation decoded the same way (a ddmp model rolls out a chunk's
    refits as one batch and its predictions as another). Each demo's
    squared error and end-effector distance (on `chain`) are computed
    once and averaged per group. When any of them is not finite, because
    a decoded prediction or ground truth overflowed, whatever the head,
    NonFiniteScoreError names those demos' dataset indices.
    """
    indices = _demo_indices(indices, len(dataset), "demo")
    if len(indices) == 0:
        raise ValueError("cannot evaluate an empty split")
    out = model.outputs(dataset, indices)
    sq = np.empty(len(indices))
    # both sides' final samples: one FK call per side covers the split
    ends = np.empty((2, len(indices), 1, dataset.n_joint))
    for rows in _chunks(len(indices)):
        pred = model.head.decode(out[rows])
        truth = model.head.truth(dataset, indices[rows])
        sq[rows] = metrics.squared_trajectory_loss(pred, truth)
        ends[0, rows], ends[1, rows] = pred[:, -1:], truth[:, -1:]
        del pred, truth   # before the next chunk's are made
    dist = final_distances(ends[0], ends[1], chain)
    bad = indices[~(np.isfinite(sq) & np.isfinite(dist))]
    if len(bad):
        raise NonFiniteScoreError(
            f"the squared error or end distance of dataset indices "
            f"{bad.tolist()} is not finite: a decoded prediction or its "
            f"ground truth overflowed")
    keys = group_keys(dataset)[indices]

    def record(name, rows):
        return metrics.EvalRecord(name, float(np.mean(sq[rows])),
                                  float(np.mean(dist[rows])) * 1000.0,
                                  int(np.count_nonzero(rows)))

    records = [record(name, keys == name)
               for name in sorted(set(keys.tolist()))]
    return records, record("overall", np.ones(len(indices), bool)), out
