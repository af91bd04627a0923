"""Training loops for the three context-to-trajectory models.

All three trainers share one deterministic minibatch loop (Adam, seeded
shuffling, best-validation checkpointing, early stopping on the
validation loss):

  deep_mp            net predicts full per-joint basis weights, trained
                     with the trajectory-space loss
  residual_deep_mp   net predicts the deviation from the training-split
                     mean weights (per region when region tags exist);
                     the mean is added back at inference
  ddmp               net predicts goal-attractor parameters, trained with
                     the parameter-space losses; the reach variant leaves
                     the known start configuration out of the head

Ground-truth targets (basis weights or attractor parameters) are fitted
once per demo before the loop starts.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from mprim import dmp as dmp_mod
from mprim import kernels, metrics
from mprim.basis import BasisConfig, PhaseConfig, build_phi, default_basis
from mprim.dataset import DemoDataset
from mprim.errors import IntegrationError
from mprim.kinematics import KinematicChain, ave_ed, default_chain
from mprim.promp import PrompWeights, Trajectory, reconstruct
from mprim.regressor import (MlpParams, adam_init, adam_step,
                             batch_loss_and_grad, init_mlp)

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


@dataclass
class TrainedModel:
    """A trained regressor plus everything needed to use it.

    `mean_weights` maps a group key to the flat mean weight vector for the
    residual variant (with a global fallback entry); `mean_source_indices`
    records which dataset rows the means were computed from.
    """

    kind: str                      # deep_mp | residual_deep_mp | ddmp
    task: str                      # rtp | wpp
    mlp: MlpParams
    ctx_mean: np.ndarray
    ctx_std: np.ndarray
    n_joint: int
    phase_cfg: PhaseConfig
    basis_cfg: BasisConfig = None          # promp heads
    mean_weights: dict = None              # residual head
    mean_source_indices: tuple = ()
    n_basis_dmp: int = 0                   # ddmp head
    dmp_tau: float = 0.0
    home: np.ndarray = None                # known start for the reach task
    train_indices: tuple = ()
    test_indices: tuple = ()

    def head_width(self):
        return self.mlp.n_outputs

    def _standardize(self, ctx):
        return (np.asarray(ctx, dtype=float) - self.ctx_mean) / self.ctx_std

    def predict_head(self, ctx):
        x = self._standardize(ctx)
        single = x.ndim == 1
        out = kernels.mlp_forward_acts(
            np.atleast_2d(x), list(self.mlp.weights),
            list(self.mlp.biases))[-1]
        return out[0] if single else out

    def mean_for_group(self, group):
        if group is not None and group in self.mean_weights:
            return self.mean_weights[group]
        return self.mean_weights[GLOBAL_GROUP]

    def predict_weights(self, ctx, group=None) -> PrompWeights:
        """Predicted per-joint basis weights for one context."""
        if self.kind not in ("deep_mp", "residual_deep_mp"):
            raise ValueError(f"{self.kind} model has no basis-weight head")
        head = self.predict_head(ctx)
        if self.kind == "residual_deep_mp":
            head = head + self.mean_for_group(group)
        return PrompWeights(head.reshape(self.n_joint,
                                         self.basis_cfg.n_basis))

    def predict_dmp(self, ctx) -> dmp_mod.DmpModel:
        """Predicted goal-attractor model for one context."""
        if self.kind != "ddmp":
            raise ValueError(f"{self.kind} model has no attractor head")
        head = self.predict_head(ctx)
        j, n = self.n_joint, self.n_basis_dmp
        forcing = head[:j * n].reshape(j, n)
        goal = head[j * n:j * n + j]
        start = self.home if self.task == "rtp" else head[j * n + j:]
        return dmp_mod.DmpModel(forcing, goal, np.asarray(start, float),
                                self.dmp_tau)

    def predict_trajectory(self, ctx, group=None) -> Trajectory:
        """Predicted joint trajectory on the model's sample grid."""
        if self.kind == "ddmp":
            model = self.predict_dmp(ctx)
            return dmp_mod.rollout_matched(model,
                                           self.phase_cfg.duration_samples)
        phi = build_phi(self.phase_cfg, self.basis_cfg)
        return reconstruct(self.predict_weights(ctx, group), phi,
                           self.phase_cfg)


# ---------------------------------------------------------------------------
# splits and targets

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


def _weight_targets(dataset, phi, ridge=1e-6):
    """Per-demo flat weight targets, shape (n_samples, n_joint*n_basis).

    One shared normal matrix covers every demo and joint.
    """
    j = dataset.n_joint
    q_all = np.concatenate(
        [s.trajectory.values for s in dataset.samples], axis=1)  # (T, N*J)
    gram = phi.values.T @ phi.values + ridge * np.eye(phi.n_basis)
    theta = np.linalg.solve(gram, phi.values.T @ q_all)          # (Nb, N*J)
    return np.ascontiguousarray(
        theta.T.reshape(len(dataset), j, phi.n_basis).reshape(len(dataset), -1))


def _ddmp_targets(dataset, n_basis_dmp, tau, task):
    rows = []
    for s in dataset.samples:
        model = dmp_mod.fit_dmp(s.trajectory, n_basis_dmp, tau)
        parts = [model.forcing_weights.ravel(), model.goal]
        if task == "wpp":
            parts.append(model.start)
        rows.append(np.concatenate(parts))
    return np.stack(rows)


# ---------------------------------------------------------------------------
# shared minibatch loop

def _run_training(x_std, targets, train_idx, cfg: TrainConfig, hidden,
                  loss_kind, loss_kwargs):
    """Deterministic Adam loop; returns (best_params, report, fit/val idx)."""
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
        acts = kernels.mlp_forward_acts(x_std[idx], list(params.weights),
                                        list(params.biases))
        losses, _ = batch_loss_and_grad(acts[-1], targets[idx], loss_kind,
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


def _resolve_split(dataset, cfg, split):
    if split is not None:
        train_idx, test_idx = split
        return np.asarray(train_idx, int), np.asarray(test_idx, int)
    return random_split(len(dataset), cfg.train_fraction, cfg.seed)


# ---------------------------------------------------------------------------
# the three trainers

def train_deep_mp(dataset: DemoDataset, basis_cfg: BasisConfig,
                  phase_cfg: PhaseConfig, cfg: TrainConfig,
                  hidden=DEFAULT_HIDDEN, weight_ridge: float = 1e-6,
                  split=None):
    """Train a net to predict full basis weights with the trajectory loss."""
    _check_dataset(dataset)
    train_idx, test_idx = _resolve_split(dataset, cfg, split)
    phi = build_phi(phase_cfg, basis_cfg)
    targets = _weight_targets(dataset, phi, weight_ridge)
    contexts = dataset.contexts()
    mean, std = _fit_scaler(contexts[train_idx])
    x_std = (contexts - mean) / std

    params, report = _run_training(
        x_std, targets, train_idx, cfg, hidden, "trajectory",
        {"phi": phi, "n_joint": dataset.n_joint})
    model = TrainedModel(
        kind="deep_mp", task=dataset.kind, mlp=params, ctx_mean=mean,
        ctx_std=std, n_joint=dataset.n_joint, phase_cfg=phase_cfg,
        basis_cfg=basis_cfg, train_indices=tuple(map(int, train_idx)),
        test_indices=tuple(map(int, test_idx)))
    return model, report


def train_residual_deep_mp(dataset: DemoDataset, basis_cfg: BasisConfig,
                           phase_cfg: PhaseConfig, cfg: TrainConfig,
                           hidden=DEFAULT_HIDDEN, weight_ridge: float = 1e-6,
                           split=None):
    """Like train_deep_mp, but the net learns residuals from mean weights.

    Mean weights come from the training split only, one mean per region
    when the dataset carries region tags (plus a global fallback).
    """
    _check_dataset(dataset)
    train_idx, test_idx = _resolve_split(dataset, cfg, split)
    if len(train_idx) < 2:
        raise ValueError("residual variant needs at least 2 training demos")
    phi = build_phi(phase_cfg, basis_cfg)
    targets = _weight_targets(dataset, phi, weight_ridge)

    has_regions = "region" in dataset.samples[0].tags
    means = {GLOBAL_GROUP: targets[train_idx].mean(axis=0)}
    group_of = {}
    if has_regions:
        for i in train_idx:
            group_of.setdefault(dataset.samples[i].tags["region"],
                                []).append(i)
        for region, idx in group_of.items():
            means[region] = targets[np.array(idx)].mean(axis=0)

    residual_targets = targets.copy()
    for i in range(len(dataset)):
        group = dataset.samples[i].tags.get("region") if has_regions else None
        residual_targets[i] = targets[i] - means.get(group,
                                                     means[GLOBAL_GROUP])

    contexts = dataset.contexts()
    mean, std = _fit_scaler(contexts[train_idx])
    x_std = (contexts - mean) / std
    params, report = _run_training(
        x_std, residual_targets, train_idx, cfg, hidden, "trajectory",
        {"phi": phi, "n_joint": dataset.n_joint})
    model = TrainedModel(
        kind="residual_deep_mp", task=dataset.kind, mlp=params,
        ctx_mean=mean, ctx_std=std, n_joint=dataset.n_joint,
        phase_cfg=phase_cfg, basis_cfg=basis_cfg, mean_weights=means,
        mean_source_indices=tuple(map(int, train_idx)),
        train_indices=tuple(map(int, train_idx)),
        test_indices=tuple(map(int, test_idx)))
    return model, report


def train_ddmp(dataset: DemoDataset, cfg: TrainConfig, task: str = None,
               n_basis_dmp: int = DEFAULT_N_BASIS_DMP,
               tau: float = DEFAULT_DMP_TAU, hidden=DEFAULT_HIDDEN,
               split=None):
    """Train a net to predict goal-attractor parameters.

    The reach task keeps the start configuration out of the network head
    (all demos start from the same home pose); the palpation task adds it.
    Per-demo attractor fits are cached before the loop.
    """
    _check_dataset(dataset)
    task = dataset.kind if task is None else task
    if task not in ("rtp", "wpp"):
        raise ValueError(f"unknown task {task!r}")
    train_idx, test_idx = _resolve_split(dataset, cfg, split)
    targets = _ddmp_targets(dataset, n_basis_dmp, tau, task)
    contexts = dataset.contexts()
    mean, std = _fit_scaler(contexts[train_idx])
    x_std = (contexts - mean) / std

    loss_kind = "ddmp_rtp" if task == "rtp" else "ddmp_wpp"
    params, report = _run_training(
        x_std, targets, train_idx, cfg, hidden, loss_kind,
        {"n_joint": dataset.n_joint} if task == "rtp" else {})
    home = None
    if task == "rtp":
        starts = np.stack(
            [dataset.samples[i].trajectory.values[0] for i in train_idx])
        home = starts.mean(axis=0)
    model = TrainedModel(
        kind="ddmp", task=task, mlp=params, ctx_mean=mean, ctx_std=std,
        n_joint=dataset.n_joint,
        phase_cfg=PhaseConfig(dataset.sampling_frequency,
                              dataset.n_samples_per_traj),
        n_basis_dmp=n_basis_dmp, dmp_tau=tau, home=home,
        train_indices=tuple(map(int, train_idx)),
        test_indices=tuple(map(int, test_idx)))
    return model, report


def train(method: str, dataset: DemoDataset, cfg: TrainConfig, *,
          n_basis: int = None, hidden=DEFAULT_HIDDEN, task: str = None,
          n_basis_dmp: int = DEFAULT_N_BASIS_DMP,
          tau: float = DEFAULT_DMP_TAU, split=None):
    """Dispatch helper used by the command-line tool."""
    if method == "ddmp":
        return train_ddmp(dataset, cfg, task=task, n_basis_dmp=n_basis_dmp,
                          tau=tau, hidden=hidden, split=split)
    phase_cfg = PhaseConfig(dataset.sampling_frequency,
                            dataset.n_samples_per_traj)
    if n_basis is None:
        n_basis = DEFAULT_N_BASIS.get(dataset.kind, 8)
    basis_cfg = default_basis(phase_cfg, n_basis)
    if method == "deep-mp":
        return train_deep_mp(dataset, basis_cfg, phase_cfg, cfg,
                             hidden=hidden, split=split)
    if method == "residual":
        return train_residual_deep_mp(dataset, basis_cfg, phase_cfg, cfg,
                                      hidden=hidden, split=split)
    raise ValueError(f"unknown method {method!r}; "
                     "expected deep-mp, residual or ddmp")


# ---------------------------------------------------------------------------
# evaluation

def _group_key(sample):
    if "region" in sample.tags:
        return str(sample.tags["region"])
    if "config" in sample.tags:
        return str(sample.tags["config"])
    return "all"


def _rollouts(models, n_samples, what, indices):
    """Batched rollout_matched whose divergence names the dataset indices."""
    try:
        return dmp_mod.rollout_matched(models, n_samples)
    except IntegrationError as err:
        rows = [int(indices[r]) for r in err.rows]
        raise IntegrationError(
            f"{what} rollout diverged to a non-finite state for dataset "
            f"indices {rows}", rows=rows) from err


def evaluate(model: TrainedModel, dataset: DemoDataset, indices,
             chain: KinematicChain = None):
    """Grouped metrics over a dataset subset.

    Returns (records, overall): one EvalRecord per tag group (region or
    configuration) plus one covering every evaluated sample. Ground truth
    is each demo's fitted representation (basis weights or attractor
    parameters), reconstructed through the same path as the predictions.
    For a ddmp model the ground-truth refits of the whole split are rolled
    out as one batch and the predictions as another; a divergent rollout
    raises IntegrationError naming the dataset indices and which of the
    two it was.
    """
    indices = np.asarray(indices, dtype=int)
    if len(indices) == 0:
        raise ValueError("cannot evaluate an empty split")
    if chain is None:
        chain = default_chain()

    per_sample = {}   # index -> (sq_loss, pred_traj, gt_traj)
    if model.kind == "ddmp":
        n = model.phase_cfg.duration_samples
        gt_trajs = _rollouts(
            [dmp_mod.fit_dmp(dataset.samples[i].trajectory,
                             model.n_basis_dmp, model.dmp_tau)
             for i in indices], n, "ground-truth", indices)
        pred_trajs = _rollouts(
            [model.predict_dmp(dataset.samples[i].context) for i in indices],
            n, "prediction", indices)
        for i, pred_traj, gt_traj in zip(indices, pred_trajs, gt_trajs):
            err = pred_traj.values - gt_traj.values
            per_sample[i] = (float(np.sum(np.mean(err ** 2, axis=0))),
                             pred_traj, gt_traj)
    else:
        phi = build_phi(model.phase_cfg, model.basis_cfg)
        gt_flat = _weight_targets(dataset, phi)
        for i in indices:
            sample = dataset.samples[i]
            gt_w = PrompWeights(gt_flat[i].reshape(model.n_joint, -1))
            pred_w = model.predict_weights(sample.context, _group_key(sample))
            sq = metrics.squared_trajectory_loss(pred_w, gt_w, phi)
            per_sample[i] = (sq, reconstruct(pred_w, phi, model.phase_cfg),
                             reconstruct(gt_w, phi, model.phase_cfg))

    def record(name, idx):
        sq = [per_sample[i][0] for i in idx]
        preds = [per_sample[i][1] for i in idx]
        gts = [per_sample[i][2] for i in idx]
        return metrics.EvalRecord(name, float(np.mean(sq)),
                                  ave_ed(preds, gts, chain), len(idx))

    groups = {}
    for i in indices:
        groups.setdefault(_group_key(dataset.samples[i]), []).append(i)
    records = [record(name, groups[name]) for name in sorted(groups)]
    overall = record("overall", list(indices))
    return records, overall
