"""Synthetic demonstration datasets and their persistence.

Two generators mirror the two task families: reach datasets with four
nested sampling regions of decreasing density (A..D), and palpation-path
datasets with 7 stroke patterns x 4 phantom configurations x a fixed
trial count. Both map a low-dimensional scene context through a fixed
smooth nonlinear function into joint space, so the context-to-weights
relation is learnable by construction but not affine.

File format (JSONL, one object per line):
  line 1   header {"schema": 1, "kind": "rtp"|"wpp", "seed": int,
                   "sampling_frequency": float, "n_samples": int}
  line 2.. sample {"context": [D floats],
                   "trajectory": [[n_joint floats] x T]  (row-major, rad),
                   "tags": {...}, "split": null|"train"|"test"}
Floats are written with full repr precision, so save/load round-trips
bit-exactly.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from mprim.basis import PhaseConfig
from mprim.errors import DatasetFormatError
from mprim.promp import Trajectory

SCHEMA_VERSION = 1
DEFAULT_T = 150
DEFAULT_FS = 150.0

HOME_CONFIG = np.array([0.0, -0.785, 0.0, -2.356, 0.0, 1.571, 0.785])

# Reach task: nested sampling rectangles around the workspace center.
# Half-extents in meters; the rings between consecutive boxes are the
# regions, with counts chosen so area density strictly decreases A > B >
# C > D (A is the innermost, densest box).
RTP_CENTER_XY = (0.55, 0.0)
RTP_REGION_HALF_EXTENT = {"A": 0.05, "B": 0.10, "C": 0.15, "D": 0.20}
RTP_DEFAULT_COUNTS = {"A": 292, "B": 128, "C": 73, "D": 52}
RTP_Z_RANGE = (0.04, 0.06)

# Palpation task: phantom base positions per configuration (meters) and
# stroke geometry. Strokes run radially outward from the nipple at seven
# evenly spaced angles; patterns 6 and 7 are the short ones.
WPP_CONFIG_POSITIONS = {
    "I": (0.608, 0.063, 0.086),
    "II": (0.516, 0.120, 0.096),
    "III": (0.575, 0.015, 0.093),
    "IV": (0.488, 0.014, 0.092),
}
WPP_STROKE_LENGTH = 0.06
WPP_CONFIG_LENGTH_SCALE = {"I": 1.0, "II": 0.9, "III": 1.1, "IV": 0.95}
WPP_SHORT_PATTERNS = (6, 7)
WPP_SHORT_FACTOR = 0.6
WPP_DEFAULT_TRIALS = 31
WPP_ANGLE_JITTER = 0.05    # rad, per-trial
WPP_LENGTH_JITTER = 0.04   # relative, per-trial

_CTX_CENTER = np.array([0.55, 0.0, 0.05])
_CTX_SCALE = np.array([0.25, 0.25, 0.02])

# fixed smooth nonlinear context-to-joints maps (arbitrary but frozen)
_GOAL_LIN = np.array([
    [0.90, 0.50, 0.10],
    [-0.60, 0.80, 0.20],
    [0.40, -0.70, 0.15],
    [0.70, 0.30, -0.10],
    [-0.50, -0.40, 0.20],
    [0.30, 0.60, -0.15],
    [-0.80, 0.20, 0.10],
])
_GOAL_SIN_W = np.array([
    [1.70, 0.60, 0.30],
    [0.40, 1.90, 0.50],
    [1.20, -1.10, 0.20],
    [-0.80, 1.40, 0.60],
    [1.50, 0.90, -0.40],
    [-1.30, 0.70, 0.50],
    [0.90, -1.60, 0.30],
])
_GOAL_SIN_AMP = 0.35

_WPP_LIN = np.array([
    [0.70, -0.40, 0.20],
    [0.50, 0.90, -0.10],
    [-0.60, 0.30, 0.25],
    [0.80, -0.20, 0.15],
    [-0.30, -0.70, 0.10],
    [0.40, 0.50, -0.20],
    [-0.50, 0.60, 0.30],
])
_WPP_SIN_W = np.array([
    [1.30, 0.80, -0.40],
    [-0.70, 1.50, 0.30],
    [1.10, -0.90, 0.50],
    [0.60, 1.20, -0.30],
    [-1.40, 0.50, 0.20],
    [0.90, -0.60, 0.40],
    [-0.80, 1.00, 0.60],
])
_WPP_SIN_AMP = 0.20


@dataclass
class DemoSample:
    """One demonstration: scene context, joint trajectory, group tags."""

    context: np.ndarray
    trajectory: Trajectory
    tags: dict
    split: str = None


@dataclass
class DemoDataset:
    """A labeled collection of demonstrations of one task kind."""

    kind: str                       # "rtp" or "wpp"
    seed: int
    samples: list = field(default_factory=list)

    def __len__(self):
        return len(self.samples)

    @property
    def sampling_frequency(self):
        return self.samples[0].trajectory.phase_cfg.sampling_frequency

    @property
    def n_samples_per_traj(self):
        return self.samples[0].trajectory.n_samples

    @property
    def n_joint(self):
        return self.samples[0].trajectory.n_joint

    @property
    def context_dim(self):
        return self.samples[0].context.shape[0]

    def contexts(self):
        return np.stack([s.context for s in self.samples])


def min_jerk(q0, q1, n_samples: int,
             sampling_frequency: float = DEFAULT_FS) -> Trajectory:
    """Quintic point-to-point profile with zero endpoint velocity/acceleration.

    q(s) = q0 + (q1 - q0) * (10 s^3 - 15 s^4 + 6 s^5), s = t/(T-1).
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    q1 = np.atleast_1d(np.asarray(q1, dtype=float))
    s = np.linspace(0.0, 1.0, n_samples)
    prof = 10.0 * s ** 3 - 15.0 * s ** 4 + 6.0 * s ** 5
    values = q0[None, :] + prof[:, None] * (q1 - q0)[None, :]
    return Trajectory(values, PhaseConfig(sampling_frequency, n_samples))


def goal_config(phantom_pos) -> np.ndarray:
    """Reach-target joint configuration for a phantom position."""
    u = (np.asarray(phantom_pos, dtype=float) - _CTX_CENTER) / _CTX_SCALE
    return HOME_CONFIG + 0.4 * (_GOAL_LIN @ u) + _GOAL_SIN_AMP * np.sin(
        _GOAL_SIN_W @ u)


def _wpp_joint_embed(point) -> np.ndarray:
    u = (np.asarray(point, dtype=float) - _CTX_CENTER) / _CTX_SCALE
    return HOME_CONFIG + 0.5 * (_WPP_LIN @ u) + _WPP_SIN_AMP * np.sin(
        _WPP_SIN_W @ u)


def _sample_region_xy(rng, region):
    """Uniform point in the ring between a region's box and the next-inner one."""
    names = list(RTP_REGION_HALF_EXTENT)
    outer = RTP_REGION_HALF_EXTENT[region]
    idx = names.index(region)
    inner = RTP_REGION_HALF_EXTENT[names[idx - 1]] if idx > 0 else 0.0
    while True:
        xy = rng.uniform(-outer, outer, size=2)
        if np.max(np.abs(xy)) >= inner:
            return np.array(RTP_CENTER_XY) + xy


def generate_rtp(seed: int, counts=None, n_samples_traj: int = DEFAULT_T,
                 sampling_frequency: float = DEFAULT_FS,
                 noise_std: float = 0.0) -> DemoDataset:
    """Reach dataset: phantom positions per region, point-to-point demos.

    Every demo starts at the home configuration and moves to the goal
    configuration determined by the phantom position; the context is that
    position. `noise_std` adds seeded Gaussian joint noise to emulate the
    variance of hand-guided demos (off by default).
    """
    if counts is None:
        counts = RTP_DEFAULT_COUNTS
    elif not isinstance(counts, dict):
        counts = dict(zip(RTP_REGION_HALF_EXTENT, counts))
    if any(c <= 0 for c in counts.values()):
        raise ValueError("region counts must be positive")
    rng = np.random.default_rng(seed)
    dataset = DemoDataset("rtp", seed)
    for region, count in counts.items():
        for _ in range(count):
            xy = _sample_region_xy(rng, region)
            z = rng.uniform(*RTP_Z_RANGE)
            pos = np.array([xy[0], xy[1], z])
            traj = min_jerk(HOME_CONFIG, goal_config(pos), n_samples_traj,
                            sampling_frequency)
            if noise_std > 0.0:
                noisy = traj.values + noise_std * rng.standard_normal(
                    traj.values.shape)
                traj = Trajectory(noisy, traj.phase_cfg)
            dataset.samples.append(
                DemoSample(pos, traj, {"region": region}))
    return dataset


def wpp_context(config: str, pattern: int) -> np.ndarray:
    """Context features: nipple position plus a pattern one-hot."""
    onehot = np.zeros(7)
    onehot[pattern - 1] = 1.0
    return np.concatenate([np.asarray(WPP_CONFIG_POSITIONS[config]), onehot])


def generate_wpp(seed: int, trials_per_cell: int = WPP_DEFAULT_TRIALS,
                 n_samples_traj: int = DEFAULT_T,
                 sampling_frequency: float = DEFAULT_FS) -> DemoDataset:
    """Palpation dataset: 7 patterns x 4 configurations x trials strokes.

    Each trial strokes outward from the nipple along its pattern's angle,
    with a small seeded perturbation of angle and length per trial, and is
    embedded into joint space by a fixed smooth map. Patterns 6 and 7 use
    a reduced stroke length and carry a "short" tag.
    """
    if trials_per_cell < 1:
        raise ValueError("trials_per_cell must be >= 1")
    rng = np.random.default_rng(seed)
    dataset = DemoDataset("wpp", seed)
    s = np.linspace(0.0, 1.0, n_samples_traj)
    timing = 10.0 * s ** 3 - 15.0 * s ** 4 + 6.0 * s ** 5
    for pattern in range(1, 8):
        base_angle = 2.0 * np.pi * (pattern - 1) / 7.0
        short = pattern in WPP_SHORT_PATTERNS
        for config in WPP_CONFIG_POSITIONS:
            nipple = np.asarray(WPP_CONFIG_POSITIONS[config])
            length = WPP_STROKE_LENGTH * WPP_CONFIG_LENGTH_SCALE[config]
            if short:
                length *= WPP_SHORT_FACTOR
            for _ in range(trials_per_cell):
                angle = base_angle + WPP_ANGLE_JITTER * rng.standard_normal()
                trial_len = length * (
                    1.0 + WPP_LENGTH_JITTER * rng.standard_normal())
                end = nipple + trial_len * np.array(
                    [np.cos(angle), np.sin(angle), 0.0])
                points = nipple[None, :] + timing[:, None] * (
                    end - nipple)[None, :]
                values = np.stack([_wpp_joint_embed(p) for p in points])
                traj = Trajectory(values,
                                  PhaseConfig(sampling_frequency,
                                              n_samples_traj))
                dataset.samples.append(DemoSample(
                    wpp_context(config, pattern), traj,
                    {"pattern": pattern, "config": config, "short": short}))
    return dataset


# ---------------------------------------------------------------------------
# pattern-level split protocol

TRAIN, TEST, HALF, UNUSED = "train", "test", "half", "unused"


@dataclass(frozen=True)
class SplitSpec:
    """Per-pattern disposition of a palpation experiment."""

    experiment: str
    dispositions: tuple   # ((pattern, disposition), ...) for patterns 1..7

    def __post_init__(self):
        values = dict(self.dispositions)
        if sorted(values) != list(range(1, 8)):
            raise ValueError("dispositions must cover patterns 1..7")
        trainish = any(v in (TRAIN, HALF) for v in values.values())
        testish = any(v in (TEST, HALF) for v in values.values())
        if not (trainish and testish):
            raise ValueError(
                "spec needs at least one training and one test disposition")

    def disposition(self, pattern):
        return dict(self.dispositions)[pattern]


def _spec(experiment, *dispositions):
    return SplitSpec(experiment, tuple(enumerate(dispositions, start=1)))


WPP_SPLITS = {
    "WPP1": _spec("WPP1", TRAIN, TRAIN, TRAIN, TEST, TEST, TRAIN, TRAIN),
    "WPP2": _spec("WPP2", TRAIN, TRAIN, TEST, TEST, TRAIN, TRAIN, TRAIN),
    "WPP3": _spec("WPP3", TRAIN, TRAIN, TEST, TEST, TRAIN, UNUSED, UNUSED),
    "WPP4": _spec("WPP4", TRAIN, TEST, TEST, TRAIN, TRAIN, UNUSED, UNUSED),
    "WPP5": _spec("WPP5", TRAIN, TRAIN, TRAIN, HALF, HALF, TRAIN, TRAIN),
    "WPP6": _spec("WPP6", TRAIN, TRAIN, HALF, HALF, TRAIN, TRAIN, TRAIN),
    "WPP7": _spec("WPP7", TRAIN, TRAIN, HALF, HALF, TRAIN, UNUSED, UNUSED),
    "WPP8": _spec("WPP8", TRAIN, HALF, HALF, TRAIN, TRAIN, UNUSED, UNUSED),
    "WPP9": _spec("WPP9", HALF, HALF, HALF, HALF, HALF, HALF, HALF),
    "WPP10": _spec("WPP10", HALF, HALF, HALF, HALF, HALF, UNUSED, UNUSED),
}


def apply_split(dataset: DemoDataset, spec: SplitSpec, seed: int):
    """Resolve a split spec into (train_indices, test_indices).

    Whole-pattern dispositions go entirely to one side; half/half patterns
    are split per configuration with a seeded shuffle (train keeps the
    extra sample on odd cells); unused patterns appear on neither side.
    Also annotates each sample's `split` field.
    """
    by_pattern = {}
    for i, sample in enumerate(dataset.samples):
        if "pattern" not in sample.tags:
            raise ValueError("dataset samples lack pattern tags")
        by_pattern.setdefault(sample.tags["pattern"], []).append(i)
    needed = [p for p, d in spec.dispositions if d != UNUSED]
    missing = [p for p in needed if p not in by_pattern]
    if missing:
        raise ValueError(
            f"split {spec.experiment} references patterns missing from the "
            f"dataset: {missing}")

    rng = np.random.default_rng(seed)
    train, test = [], []
    for pattern in sorted(by_pattern):
        disposition = spec.disposition(pattern)
        indices = by_pattern[pattern]
        if disposition == TRAIN:
            train.extend(indices)
        elif disposition == TEST:
            test.extend(indices)
        elif disposition == HALF:
            cells = {}
            for i in indices:
                cells.setdefault(dataset.samples[i].tags.get("config"),
                                 []).append(i)
            for config in sorted(cells, key=str):
                cell = np.array(cells[config])
                rng.shuffle(cell)
                n_train = (len(cell) + 1) // 2
                train.extend(cell[:n_train].tolist())
                test.extend(cell[n_train:].tolist())

    train, test = sorted(train), sorted(test)
    train_set, test_set = set(train), set(test)
    for i, sample in enumerate(dataset.samples):
        sample.split = TRAIN if i in train_set else (
            TEST if i in test_set else None)
    return np.array(train, dtype=int), np.array(test, dtype=int)


# ---------------------------------------------------------------------------
# persistence

def save_jsonl(dataset: DemoDataset, path):
    """Write header plus one record per sample; bit-exact float round trip."""
    with open(path, "w") as fh:
        header = {"schema": SCHEMA_VERSION, "kind": dataset.kind,
                  "seed": dataset.seed, "n_samples": len(dataset)}
        if len(dataset):
            header["sampling_frequency"] = float(dataset.sampling_frequency)
        fh.write(json.dumps(header) + "\n")
        for sample in dataset.samples:
            record = {
                "context": sample.context.tolist(),
                "trajectory": sample.trajectory.values.tolist(),
                "tags": sample.tags,
                "split": sample.split,
            }
            fh.write(json.dumps(record) + "\n")


def load_jsonl(path) -> DemoDataset:
    """Inverse of save_jsonl; malformed lines are reported by number.

    Every record must have the context and trajectory shapes of the first
    one, and the header seed must be an integer.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file, expected a header line")

    def fail(line_no, why):
        raise DatasetFormatError(f"{path}: line {line_no}: {why}")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as err:
        fail(1, f"invalid JSON ({err.msg})")
    if not isinstance(header, dict) or "kind" not in header:
        fail(1, "header must be an object with a 'kind' field")
    if header.get("schema") != SCHEMA_VERSION:
        fail(1, f"unsupported schema {header.get('schema')!r}")

    seed = header.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        fail(1, f"seed must be an integer, got {json.dumps(seed)}")
    fs = header.get("sampling_frequency", DEFAULT_FS)
    dataset = DemoDataset(header["kind"], seed)
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            fail(line_no, "blank line")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            fail(line_no, f"invalid JSON ({err.msg})")
        try:
            values = np.asarray(record["trajectory"], dtype=float)
            context = np.asarray(record["context"], dtype=float)
            traj = Trajectory(values, PhaseConfig(fs, values.shape[0]))
            sample = DemoSample(context, traj, dict(record["tags"]),
                                record.get("split"))
        except (KeyError, TypeError, ValueError) as err:
            fail(line_no, f"bad record ({err})")
        if dataset.samples:
            first = dataset.samples[0]
            for what, have, want in (
                    ("context", context.shape, first.context.shape),
                    ("trajectory", values.shape,
                     first.trajectory.values.shape)):
                if have != want:
                    fail(line_no, f"{what} shape {have} differs from the "
                                  f"first record's {want}")
        dataset.samples.append(sample)
    declared = header.get("n_samples")
    if declared is not None and declared != len(dataset):
        raise DatasetFormatError(
            f"{path}: header declares {declared} samples, found "
            f"{len(dataset)}")
    return dataset
