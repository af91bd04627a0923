"""One trainer for the three context-to-trajectory models.

The three learners differ only in what the network's output means, and
that meaning is a `Head`:

  PrompHead      deep-mp: every joint's ProMP basis weights, trained with
                 the trajectory-space loss
  ResidualHead   residual: the deviation of those weights from the
                 training-split mean (per region when region tags exist);
                 decoding adds the mean back
  DmpHead        ddmp: goal-attractor parameters, trained with the
                 parameter-space losses; the reach variant (task "rtp")
                 leaves the known start configuration out of the output

A head owns the method-specific decisions and nothing else: its targets,
fitted once per demo before training; its loss; the ground-truth
trajectories of a split; decoding a batch of network outputs into
(B, T, n_joint) trajectories; and its checkpoint fields.

`train` runs one deterministic minibatch loop for every head (Adam, seeded
shuffling, best-validation checkpointing, early stopping on the
validation loss) and returns a `Model`: the net, its context scaler, its
split and its head. `evaluate` decodes a whole split in one call and
scores every head with the same expressions.
"""

import csv
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from mprim import dmp as dmp_mod
from mprim import kernels, metrics
from mprim.basis import BasisConfig, PhaseConfig, build_phi, default_basis
from mprim.dataset import DemoDataset
from mprim.errors import IntegrationError
from mprim.kinematics import KinematicChain, default_chain, final_distances
from mprim.promp import fit_weights
from mprim.regressor import (MlpParams, adam_init, adam_step,
                             batch_loss_and_grad, init_mlp, mlp_forward)

DEFAULT_EPOCHS_RTP = 150
DEFAULT_EPOCHS_WPP = 200
DEFAULT_HIDDEN = (64, 64)
DEFAULT_N_BASIS = {"rtp": 8, "wpp": 10}
DEFAULT_N_BASIS_DMP = 25
DEFAULT_DMP_TAU = 7.6
GLOBAL_GROUP = "__global__"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 1e-3
    train_fraction: float = 0.85
    val_fraction_of_train: float = 0.25
    seed: int = 0
    early_stop_patience: int = 20

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if not 0.0 < self.val_fraction_of_train < 1.0:
            raise ValueError("val_fraction_of_train must be in (0, 1)")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")


@dataclass
class TrainReport:
    """Per-epoch loss curves and how the run ended."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = -1
    stopping_reason: str = "zero_epochs"

    @property
    def final_epoch(self):
        return len(self.train_loss)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss"])
            for e, (tr, va) in enumerate(zip(self.train_loss, self.val_loss)):
                writer.writerow([e, repr(tr), repr(va)])


# ---------------------------------------------------------------------------
# splits

def random_split(n: int, train_fraction: float, seed: int):
    """Seeded shuffle split into (train_indices, test_indices)."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = min(n, max(1, int(round(train_fraction * n))))
    return np.sort(order[:n_train]), np.sort(order[n_train:])


def _fit_scaler(contexts):
    mean = contexts.mean(axis=0)
    std = contexts.std(axis=0)
    std[std == 0.0] = 1.0   # constant features pass through unscaled
    return mean, std


def _check_dataset(dataset: DemoDataset):
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    t = dataset.samples[0].trajectory.n_samples
    j = dataset.samples[0].trajectory.n_joint
    for k, s in enumerate(dataset.samples):
        if s.trajectory.n_samples != t or s.trajectory.n_joint != j:
            raise ValueError(
                f"sample {k} has trajectory shape "
                f"{s.trajectory.values.shape}, expected ({t}, {j})")


# ---------------------------------------------------------------------------
# shared minibatch loop

def _run_training(x_std, targets, train_idx, cfg: TrainConfig, hidden,
                  loss_kind, loss_kwargs):
    """Deterministic Adam loop; returns (best_params, report)."""
    rng = np.random.default_rng(cfg.seed)
    local = rng.permutation(len(train_idx))
    n_val = int(len(train_idx) * cfg.val_fraction_of_train)
    val_idx = train_idx[local[:n_val]]
    fit_idx = train_idx[local[n_val:]]
    if len(fit_idx) == 0:
        fit_idx, val_idx = val_idx, fit_idx

    layer_sizes = (x_std.shape[1], *hidden, targets.shape[1])
    params = init_mlp(layer_sizes, cfg.seed)
    state = adam_init(params, cfg.learning_rate)
    report = TrainReport()

    def mean_loss(idx):
        losses, _ = batch_loss_and_grad(mlp_forward(params, x_std[idx]),
                                        targets[idx], loss_kind,
                                        **loss_kwargs)
        return float(np.mean(losses))

    best_params, best_val, best_epoch = params, np.inf, -1
    reason = "zero_epochs" if cfg.epochs == 0 else "max_epochs"
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(fit_idx))
        for lo in range(0, len(order), cfg.batch_size):
            batch = fit_idx[order[lo:lo + cfg.batch_size]]
            acts = kernels.mlp_forward_acts(
                x_std[batch], list(params.weights), list(params.biases))
            _, dpred = batch_loss_and_grad(acts[-1], targets[batch],
                                           loss_kind, **loss_kwargs)
            grads_w, grads_b = kernels.mlp_backward_acts(
                acts, list(params.weights), dpred / len(batch))
            params, state = adam_step(state, params, grads_w, grads_b)
        report.train_loss.append(mean_loss(fit_idx))
        val = mean_loss(val_idx) if len(val_idx) else report.train_loss[-1]
        report.val_loss.append(val)
        if val < best_val:
            best_params, best_val, best_epoch = params, val, epoch
        elif epoch - best_epoch >= cfg.early_stop_patience:
            reason = "early_stopping"
            break
    report.best_epoch = best_epoch
    report.stopping_reason = reason
    return (best_params if best_epoch >= 0 else params), report


# ---------------------------------------------------------------------------
# heads

def _arr(x):
    return np.asarray(x, dtype=float).tolist()


def _phase_cfg(dataset):
    return PhaseConfig(dataset.sampling_frequency, dataset.n_samples_per_traj)


def _region(sample):
    """The region tag of a demo as a string, None when it has none."""
    region = sample.tags.get("region")
    return None if region is None else str(region)


@dataclass(frozen=True)
class Head:
    """What the network's output means, for one method.

    `kind` is the method's name in checkpoints. A subclass fits its
    targets (`fit`), names its loss (`loss`), decodes a batch of network
    outputs (`decode`), gives the ground truth of a split (`truth`) and
    lists its checkpoint fields (`to_dict`/`from_dict`). Trajectories are
    (B, T, n_joint) arrays.
    """

    kind: ClassVar[str]
    task: str                 # rtp | wpp
    n_joint: int
    phase_cfg: PhaseConfig


@dataclass(frozen=True)
class PrompHead(Head):
    """deep-mp: the net predicts every joint's ProMP basis weights."""

    kind: ClassVar[str] = "deep_mp"
    basis_cfg: BasisConfig

    def __post_init__(self):
        object.__setattr__(self, "phi",
                           build_phi(self.phase_cfg, self.basis_cfg))

    @classmethod
    def fit(cls, dataset, train_idx, n_basis=None, **_):
        """(head, fitted weights of every demo)."""
        if n_basis is None:
            n_basis = DEFAULT_N_BASIS.get(dataset.kind, 8)
        phase_cfg = _phase_cfg(dataset)
        head = cls(dataset.kind, dataset.n_joint, phase_cfg,
                   default_basis(phase_cfg, n_basis))
        return head, head.weights(dataset, range(len(dataset)))

    def weights(self, dataset, indices):
        """Flat fitted weights of the demos at `indices`, joint-major,
        shape (B, n_joint*n_basis); one ridge solve covers them all."""
        values = np.concatenate(
            [dataset.samples[i].trajectory.values for i in indices], axis=1)
        return fit_weights(values, self.phi).reshape(len(indices), -1)

    def loss(self):
        return "trajectory", {"phi": self.phi, "n_joint": self.n_joint}

    def decode(self, out, dataset, indices):
        return self._trajectories(out)

    def truth(self, dataset, indices):
        return self._trajectories(self.weights(dataset, indices))

    def _trajectories(self, flat):
        w = flat.reshape(len(flat), self.n_joint, -1)
        return np.swapaxes(w @ self.phi.values.T, 1, 2)

    def to_dict(self):
        return {"basis_cfg": self.basis_cfg.to_dict()}

    @classmethod
    def from_dict(cls, task, n_joint, phase_cfg, d):
        return cls(task, n_joint, phase_cfg,
                   BasisConfig.from_dict(d["basis_cfg"]))


@dataclass(frozen=True)
class ResidualHead(PrompHead):
    """residual: the net predicts the deviation from mean basis weights.

    The means come from the training split only: one per region when the
    demos carry region tags, plus a global one for every other demo.
    Decoding adds the demo's mean back.
    """

    kind: ClassVar[str] = "residual_deep_mp"
    mean_weights: dict             # region (or GLOBAL_GROUP) -> flat mean
    mean_source_indices: tuple     # the demos the means average

    @classmethod
    def fit(cls, dataset, train_idx, n_basis=None, **_):
        if len(train_idx) < 2:
            raise ValueError("residual variant needs at least 2 training "
                             "demos")
        base, weights = PrompHead.fit(dataset, train_idx, n_basis)
        regions = np.array([_region(dataset.samples[i]) for i in train_idx])
        means = {GLOBAL_GROUP: weights[train_idx].mean(axis=0)}
        for region in dict.fromkeys(r for r in regions if r is not None):
            means[region] = weights[train_idx[regions == region]].mean(axis=0)
        head = cls(base.task, base.n_joint, base.phase_cfg, base.basis_cfg,
                   means, tuple(map(int, train_idx)))
        return head, weights - head._means(dataset, range(len(dataset)))

    def _means(self, dataset, indices):
        fallback = self.mean_weights[GLOBAL_GROUP]
        return np.stack([
            self.mean_weights.get(_region(dataset.samples[i]), fallback)
            for i in indices])

    def decode(self, out, dataset, indices):
        return self._trajectories(out + self._means(dataset, indices))

    def to_dict(self):
        return {**super().to_dict(),
                "mean_weights": {k: _arr(v)
                                 for k, v in self.mean_weights.items()},
                "mean_source_indices": list(self.mean_source_indices)}

    @classmethod
    def from_dict(cls, task, n_joint, phase_cfg, d):
        return cls(task, n_joint, phase_cfg,
                   BasisConfig.from_dict(d["basis_cfg"]),
                   {k: np.asarray(v, float)
                    for k, v in d["mean_weights"].items()},
                   tuple(d["mean_source_indices"]))


@dataclass(frozen=True)
class DmpHead(Head):
    """ddmp: the net predicts goal-attractor parameters.

    The output is [forcing weights, joint-major | goal | start]. The reach
    variant (task "rtp") leaves the start out of the output: every demo
    starts from the same pose, so rollouts start from `home`, the mean
    start of the training demos.
    """

    kind: ClassVar[str] = "ddmp"
    n_basis_dmp: int
    tau: float
    home: np.ndarray               # rtp only, None for wpp

    @classmethod
    def fit(cls, dataset, train_idx, task=None,
            n_basis_dmp=DEFAULT_N_BASIS_DMP, tau=DEFAULT_DMP_TAU, **_):
        """(head, attractor parameters of every demo)."""
        task = dataset.kind if task is None else task
        if task not in ("rtp", "wpp"):
            raise ValueError(f"unknown task {task!r}")
        home = None
        if task == "rtp":
            home = np.stack([dataset.samples[i].trajectory.values[0]
                             for i in train_idx]).mean(axis=0)
        head = cls(task, dataset.n_joint, _phase_cfg(dataset), n_basis_dmp,
                   tau, home)
        forcing, goals, starts = head._fits(dataset, range(len(dataset)))
        return head, np.concatenate(
            [forcing.reshape(len(forcing), -1), goals]
            + ([starts] if task == "wpp" else []), axis=1)

    def _fits(self, dataset, indices):
        """Stacked forcing weights, goals and starts fitted to the demos."""
        fits = [dmp_mod.fit_dmp(dataset.samples[i].trajectory.values,
                                self.n_basis_dmp, self.tau) for i in indices]
        return (np.stack([m.forcing_weights for m in fits]),
                np.stack([m.goal for m in fits]),
                np.stack([m.start for m in fits]))

    def loss(self):
        if self.task == "rtp":
            return "ddmp_rtp", {"n_joint": self.n_joint}
        return "ddmp_wpp", {}

    def decode(self, out, dataset, indices):
        j, n = self.n_joint, self.n_basis_dmp
        forcing = out[:, :j * n].reshape(len(out), j, n)
        goals = out[:, j * n:j * n + j]
        starts = (np.broadcast_to(self.home, goals.shape)
                  if self.task == "rtp" else out[:, j * n + j:])
        return self._rollouts(forcing, goals, starts, "prediction", indices)

    def truth(self, dataset, indices):
        return self._rollouts(*self._fits(dataset, indices), "ground-truth",
                              indices)

    def _rollouts(self, forcing, goals, starts, what, indices):
        """One batched rollout; a divergence names the dataset indices."""
        try:
            return dmp_mod.rollout_matched(starts, goals, forcing, self.tau,
                                           self.phase_cfg.duration_samples)
        except IntegrationError as err:
            rows = [int(indices[r]) for r in err.rows]
            raise IntegrationError(
                f"{what} rollout diverged to a non-finite state for dataset "
                f"indices {rows}", rows=rows) from err

    def to_dict(self):
        return {"n_basis_dmp": self.n_basis_dmp, "dmp_tau": self.tau,
                "home": None if self.home is None else _arr(self.home)}

    @classmethod
    def from_dict(cls, task, n_joint, phase_cfg, d):
        return cls(task, n_joint, phase_cfg, int(d["n_basis_dmp"]),
                   float(d["dmp_tau"]),
                   None if d["home"] is None else np.asarray(d["home"],
                                                             float))


HEADS = {"deep-mp": PrompHead, "residual": ResidualHead, "ddmp": DmpHead}
# checkpoint fields of every head, at the value a head without them writes
_HEAD_FIELDS = {"basis_cfg": None, "mean_weights": None,
                "mean_source_indices": [], "n_basis_dmp": 0, "dmp_tau": 0.0,
                "home": None}


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
                 self.head.phase_cfg.duration_samples)):
            if have != want:
                raise ValueError(f"dataset {what.format(have)}, checkpoint "
                                 f"expects {want}")

    def predict(self, dataset: DemoDataset, indices):
        """Predicted trajectories of the demos at `indices`, shape
        (B, T, n_joint). An index outside the dataset raises ValueError."""
        self.check_fits(dataset)
        indices = np.asarray(indices, dtype=int)
        outside = indices[(indices < 0) | (indices >= len(dataset))]
        if len(outside):
            raise ValueError(f"demo index {outside[0]} is outside the "
                             f"dataset, which has {len(dataset)} demos")
        ctx = np.stack([dataset.samples[i].context for i in indices])
        out = mlp_forward(self.mlp, (ctx - self.ctx_mean) / self.ctx_std)
        return self.head.decode(out, dataset, indices)

    def to_dict(self):
        """Checkpoint payload (schema 1)."""
        return {"model_kind": self.head.kind, "task": self.head.task,
                "mlp": self.mlp.to_dict(), "ctx_mean": _arr(self.ctx_mean),
                "ctx_std": _arr(self.ctx_std), "n_joint": self.head.n_joint,
                "phase_cfg": self.head.phase_cfg.to_dict(),
                **_HEAD_FIELDS, **self.head.to_dict(),
                "train_indices": list(self.train_indices),
                "test_indices": list(self.test_indices)}

    @classmethod
    def from_dict(cls, d):
        kinds = {head.kind: head for head in HEADS.values()}
        if d["model_kind"] not in kinds:
            raise ValueError(f"unknown model kind {d['model_kind']!r}")
        head = kinds[d["model_kind"]].from_dict(
            d["task"], int(d["n_joint"]),
            PhaseConfig.from_dict(d["phase_cfg"]), d)
        return cls(head, MlpParams.from_dict(d["mlp"]),
                   np.asarray(d["ctx_mean"], float),
                   np.asarray(d["ctx_std"], float),
                   tuple(d["train_indices"]), tuple(d["test_indices"]))


# ---------------------------------------------------------------------------
# training and evaluation

def train(method: str, dataset: DemoDataset, cfg: TrainConfig, *,
          n_basis: int = None, hidden=DEFAULT_HIDDEN, task: str = None,
          n_basis_dmp: int = DEFAULT_N_BASIS_DMP,
          tau: float = DEFAULT_DMP_TAU, split=None):
    """Train the net of `method` (deep-mp, residual or ddmp).

    `n_basis` is the ProMP basis size (default 8 for rtp data, 10 for
    wpp); `task`, `n_basis_dmp` and `tau` set the attractor head, whose
    variant defaults to the dataset kind. `split` is (train, test)
    indices; by default a seeded random split. Returns (Model,
    TrainReport).
    """
    if method not in HEADS:
        raise ValueError(f"unknown method {method!r}; "
                         "expected deep-mp, residual or ddmp")
    _check_dataset(dataset)
    if split is None:
        split = random_split(len(dataset), cfg.train_fraction, cfg.seed)
    train_idx, test_idx = (np.asarray(idx, int) for idx in split)
    head, targets = HEADS[method].fit(dataset, train_idx, n_basis=n_basis,
                                      task=task, n_basis_dmp=n_basis_dmp,
                                      tau=tau)
    contexts = dataset.contexts()
    mean, std = _fit_scaler(contexts[train_idx])
    loss_kind, loss_kwargs = head.loss()
    params, report = _run_training((contexts - mean) / std, targets,
                                   train_idx, cfg, hidden, loss_kind,
                                   loss_kwargs)
    model = Model(head, params, mean, std, tuple(map(int, train_idx)),
                  tuple(map(int, test_idx)))
    return model, report


def _group_key(sample):
    if "region" in sample.tags:
        return str(sample.tags["region"])
    if "config" in sample.tags:
        return str(sample.tags["config"])
    return "all"


def evaluate(model: Model, dataset: DemoDataset, indices,
             chain: KinematicChain = None):
    """Grouped metrics over a dataset subset.

    Returns (records, overall): one EvalRecord per tag group (region or
    configuration) plus one covering every evaluated sample. The split is
    predicted and decoded in one call; its ground truth is each demo's
    fitted representation (basis weights or attractor parameters) decoded
    the same way, so a ddmp model rolls out the ground-truth refits as
    one batch and the predictions as another. A divergent rollout raises
    IntegrationError naming the dataset indices and which of the two it
    was. Each demo's squared error and end-effector distance are computed
    once and averaged per group.
    """
    indices = np.asarray(indices, dtype=int)
    if len(indices) == 0:
        raise ValueError("cannot evaluate an empty split")
    if chain is None:
        chain = default_chain()
    pred = model.predict(dataset, indices)
    truth = model.head.truth(dataset, indices)
    sq = metrics.squared_trajectory_loss(pred, truth)
    dist = final_distances(pred, truth, chain)
    keys = np.array([_group_key(dataset.samples[i]) for i in indices])

    def record(name, rows):
        return metrics.EvalRecord(name, float(np.mean(sq[rows])),
                                  float(np.mean(dist[rows])) * 1000.0,
                                  int(np.count_nonzero(rows)))

    records = [record(name, keys == name)
               for name in sorted(set(keys.tolist()))]
    return records, record("overall", np.ones(len(indices), bool))
