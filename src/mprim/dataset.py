"""Synthetic demonstration datasets and their persistence.

Two generators mirror the two task families: reach datasets with four
nested sampling regions of decreasing density (A..D), and palpation-path
datasets with 7 stroke patterns x 4 phantom configurations x a fixed
trial count. Both map a low-dimensional scene context through a fixed
smooth nonlinear function into joint space, so the context-to-weights
relation is learnable by construction but not affine.

In memory, a `DemoDataset` of N demos holds one set of arrays: `contexts`
(N, D), `trajectories` (N, T, n_joint) in radians, sampled at
`sampling_frequency` Hz, plus per demo a `tags` dict and a `splits` label
(None, "train" or "test"). Every demo shares one phase grid, so the grid
and the sizes are read from the array shapes.

File format (JSONL, dataset schema 2, one object per line):
  line 1   header {"schema": 2, "kind": "rtp"|"wpp", "seed": int,
                   "n_samples": int, "sampling_frequency": float,
                   "n_samples_per_traj": T, "n_joint": J}
  line 2.. sample {"context": [D floats],
                   "trajectory": base64 of T*J float64 (see below),
                   "tags": {...}, "split": null|"train"|"test"}
Line k + 1 holds demo k. The header's last three fields are written only
when the file holds demos. A trajectory is its (T, J) array in radians,
row-major, as little-endian float64, base64-encoded (`encode_f64`, as
in checkpoints): 8*T*J bytes, so the loader decodes each record into its
row of one array allocated from the header. Contexts keep full repr
precision; both round-trip bit-exactly. Schema 1 (nested decimal lists)
is no longer read: re-run `mprim generate` with the arguments in the
file's manifest to rewrite such a file.
"""

import base64
import json
import os
from dataclasses import dataclass, field

import numpy as np

from mprim.basis import PhaseConfig
from mprim.errors import DatasetFormatError

SCHEMA_VERSION = 2
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
class DemoDataset:
    """The demonstrations of one task kind as stacked arrays; see the
    module docstring for the fields."""

    kind: str                       # "rtp" or "wpp"
    seed: int
    sampling_frequency: float = DEFAULT_FS
    contexts: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    trajectories: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0, 0)))
    tags: list = field(default_factory=list)
    splits: list = None             # None: no demo assigned to a side

    def __post_init__(self):
        if self.splits is None:
            self.splits = [None] * len(self.tags)
        sizes = (len(self.contexts), len(self.trajectories), len(self.tags),
                 len(self.splits))
        if (self.contexts.ndim != 2 or self.trajectories.ndim != 3
                or len(set(sizes)) > 1):
            raise ValueError(
                f"expected (N, D) contexts, (N, T, n_joint) trajectories and "
                f"N tags and splits, got contexts {self.contexts.shape}, "
                f"trajectories {self.trajectories.shape}, {sizes[2]} tags "
                f"and {sizes[3]} splits")
        if len(self):   # the shared grid needs fs > 0 and T >= 2
            PhaseConfig(self.sampling_frequency, self.n_samples_per_traj)

    def __len__(self):
        return len(self.trajectories)

    @property
    def n_samples_per_traj(self):
        return self.trajectories.shape[1]

    @property
    def n_joint(self):
        return self.trajectories.shape[2]

    @property
    def context_dim(self):
        return self.contexts.shape[1]

    @property
    def phase_cfg(self):
        return PhaseConfig(self.sampling_frequency, self.n_samples_per_traj)


def min_jerk(q0, q1, n_samples: int) -> np.ndarray:
    """Quintic point-to-point profile with zero endpoint velocity/acceleration.

    q(s) = q0 + (q1 - q0) * (10 s^3 - 15 s^4 + 6 s^5), s = t/(T-1); shape
    (n_samples, n_joint).
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    q1 = np.atleast_1d(np.asarray(q1, dtype=float))
    s = np.linspace(0.0, 1.0, n_samples)
    prof = 10.0 * s ** 3 - 15.0 * s ** 4 + 6.0 * s ** 5
    return q0[None, :] + prof[:, None] * (q1 - q0)[None, :]


def goal_config(phantom_pos) -> np.ndarray:
    """Reach-target joint configuration for a phantom position."""
    u = (np.asarray(phantom_pos, dtype=float) - _CTX_CENTER) / _CTX_SCALE
    return HOME_CONFIG + 0.4 * (_GOAL_LIN @ u) + _GOAL_SIN_AMP * np.sin(
        _GOAL_SIN_W @ u)


def _wpp_joint_embed(points) -> np.ndarray:
    """Joint configurations (T, n_joint) of stroke points (T, 3).

    The stacked matmul applies each map to one point at a time, so every
    row equals the matrix-vector product of that point alone; `u @ M.T`
    would hand the whole stroke to BLAS, which may round differently.
    """
    u = ((np.asarray(points, dtype=float) - _CTX_CENTER) / _CTX_SCALE)[
        ..., None]
    return HOME_CONFIG + 0.5 * np.matmul(_WPP_LIN, u)[..., 0] + (
        _WPP_SIN_AMP * np.sin(np.matmul(_WPP_SIN_W, u)[..., 0]))


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
    contexts, trajectories, tags = [], [], []
    for region, count in counts.items():
        for _ in range(count):
            xy = _sample_region_xy(rng, region)
            z = rng.uniform(*RTP_Z_RANGE)
            pos = np.array([xy[0], xy[1], z])
            values = min_jerk(HOME_CONFIG, goal_config(pos), n_samples_traj)
            if noise_std > 0.0:
                values = values + noise_std * rng.standard_normal(
                    values.shape)
            contexts.append(pos)
            trajectories.append(values)
            tags.append({"region": region})
    return DemoDataset("rtp", seed, DEFAULT_FS, np.stack(contexts),
                       np.stack(trajectories), tags)


def wpp_context(config: str, pattern: int) -> np.ndarray:
    """Context features: nipple position plus a pattern one-hot."""
    onehot = np.zeros(7)
    onehot[pattern - 1] = 1.0
    return np.concatenate([np.asarray(WPP_CONFIG_POSITIONS[config]), onehot])


def generate_wpp(seed: int, trials_per_cell: int = WPP_DEFAULT_TRIALS,
                 n_samples_traj: int = DEFAULT_T) -> DemoDataset:
    """Palpation dataset: 7 patterns x 4 configurations x trials strokes.

    Each trial strokes outward from the nipple along its pattern's angle,
    with a small seeded perturbation of angle and length per trial, and is
    embedded into joint space by a fixed smooth map. Patterns 6 and 7 use
    a reduced stroke length and carry a "short" tag.
    """
    if trials_per_cell < 1:
        raise ValueError("trials_per_cell must be >= 1")
    rng = np.random.default_rng(seed)
    contexts, trajectories, tags = [], [], []
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
                contexts.append(wpp_context(config, pattern))
                trajectories.append(_wpp_joint_embed(points))
                tags.append(
                    {"pattern": pattern, "config": config, "short": short})
    return DemoDataset("wpp", seed, DEFAULT_FS, np.stack(contexts),
                       np.stack(trajectories), tags)


# ---------------------------------------------------------------------------
# pattern-level split protocol

TRAIN, TEST, HALF, UNUSED = "train", "test", "half", "unused"

# experiment -> dispositions of patterns 1..7: the whole pattern goes to
# train or test, half/half per configuration, or is left unused
WPP_SPLITS = {
    "WPP1": (TRAIN, TRAIN, TRAIN, TEST, TEST, TRAIN, TRAIN),
    "WPP2": (TRAIN, TRAIN, TEST, TEST, TRAIN, TRAIN, TRAIN),
    "WPP3": (TRAIN, TRAIN, TEST, TEST, TRAIN, UNUSED, UNUSED),
    "WPP4": (TRAIN, TEST, TEST, TRAIN, TRAIN, UNUSED, UNUSED),
    "WPP5": (TRAIN, TRAIN, TRAIN, HALF, HALF, TRAIN, TRAIN),
    "WPP6": (TRAIN, TRAIN, HALF, HALF, TRAIN, TRAIN, TRAIN),
    "WPP7": (TRAIN, TRAIN, HALF, HALF, TRAIN, UNUSED, UNUSED),
    "WPP8": (TRAIN, HALF, HALF, TRAIN, TRAIN, UNUSED, UNUSED),
    "WPP9": (HALF, HALF, HALF, HALF, HALF, HALF, HALF),
    "WPP10": (HALF, HALF, HALF, HALF, HALF, UNUSED, UNUSED),
}


def apply_split(dataset: DemoDataset, dispositions, seed: int):
    """Resolve the dispositions of patterns 1..7 (a `WPP_SPLITS` value)
    into (train_indices, test_indices).

    Whole-pattern dispositions go entirely to one side; half/half patterns
    are split per configuration with a seeded shuffle (train keeps the
    extra sample on odd cells); unused patterns appear on neither side.
    Every demo needs a pattern tag that is an integer in 1..7. Also sets
    `dataset.splits`.
    """
    by_pattern = {}
    for i, tags in enumerate(dataset.tags):
        if "pattern" not in tags:
            raise ValueError("dataset samples lack pattern tags")
        pattern = tags["pattern"]
        if type(pattern) is not int or not 1 <= pattern <= 7:
            raise ValueError(f"demo {i} has pattern tag {pattern!r}; "
                             f"expected an integer in 1..7")
        by_pattern.setdefault(pattern, []).append(i)
    missing = [p for p, d in enumerate(dispositions, start=1)
               if d != UNUSED and p not in by_pattern]
    if missing:
        raise ValueError(f"the split references patterns missing from the "
                         f"dataset: {missing}")

    rng = np.random.default_rng(seed)
    train, test = [], []
    for pattern in sorted(by_pattern):
        disposition = dispositions[pattern - 1]
        indices = by_pattern[pattern]
        if disposition == TRAIN:
            train.extend(indices)
        elif disposition == TEST:
            test.extend(indices)
        elif disposition == HALF:
            cells = {}
            for i in indices:
                cells.setdefault(dataset.tags[i].get("config"), []).append(i)
            for config in sorted(cells, key=str):
                cell = np.array(cells[config])
                rng.shuffle(cell)
                n_train = (len(cell) + 1) // 2
                train.extend(cell[:n_train].tolist())
                test.extend(cell[n_train:].tolist())

    train, test = sorted(train), sorted(test)
    train_set, test_set = set(train), set(test)
    dataset.splits = [TRAIN if i in train_set else TEST if i in test_set
                      else None for i in range(len(dataset))]
    return np.array(train, dtype=int), np.array(test, dtype=int)


# ---------------------------------------------------------------------------
# persistence

def encode_f64(values) -> str:
    """Base64 of `values` as little-endian float64, row-major."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def decode_f64(text) -> np.ndarray:
    """Inverse of `encode_f64`: a flat read-only view, else ValueError."""
    try:
        return np.frombuffer(base64.b64decode(text, validate=True), "<f8")
    except (TypeError, ValueError) as err:   # binascii.Error, odd length
        raise ValueError(f"not a base64 string of float64 ({err})") from None


def save_jsonl(dataset: DemoDataset, path):
    """Write header plus one record per sample; bit-exact round trip."""
    with open(path, "w") as fh:
        header = {"schema": SCHEMA_VERSION, "kind": dataset.kind,
                  "seed": dataset.seed, "n_samples": len(dataset)}
        if len(dataset):
            header.update(
                sampling_frequency=float(dataset.sampling_frequency),
                n_samples_per_traj=dataset.n_samples_per_traj,
                n_joint=dataset.n_joint)
        fh.write(json.dumps(header) + "\n")
        rows = zip(dataset.contexts, dataset.trajectories, dataset.tags,
                   dataset.splits)
        for context, values, tags, split in rows:
            fh.write(json.dumps({"context": context.tolist(),
                                 "trajectory": encode_f64(values),
                                 "tags": tags, "split": split}) + "\n")


def load_jsonl(path) -> DemoDataset:
    """Inverse of save_jsonl; malformed lines, including lines that are
    not UTF-8 text, are reported by number.

    The header seed must be an integer, its sampling frequency a positive
    number and its sample count a non-negative integer; a file with demos
    also declares T >= 2 and n_joint >= 1. Every record holds a finite
    context vector as wide as the first record's, a base64 trajectory of
    exactly the header's 8*T*J bytes that decodes to finite values, a
    tags object and a split of null, "train" or "test". The trajectory
    array is allocated once from the header, and each record is decoded
    straight into its row; the count is checked against the records last.
    """
    def fail(line_no, why):
        raise DatasetFormatError(f"{path}: line {line_no}: {why}")

    def parse(line_no, line):
        if not line.strip():
            fail(line_no, "blank line")
        try:
            return json.loads(line.decode("utf-8"))
        except UnicodeDecodeError as err:
            fail(line_no, f"not UTF-8 text at byte {err.start}")
        except json.JSONDecodeError as err:
            fail(line_no, f"invalid JSON ({err.msg})")

    def header_int(name, low):
        value = header.get(name)
        if type(value) is not int or value < low:
            fail(1, f"{name} must be an integer >= {low}, got "
                    f"{json.dumps(value)}")
        return value

    # bytes, so that a bad byte is reported by its line; with a 64 KiB
    # buffer the long record lines read as fast as in text mode
    with open(path, "rb", buffering=1 << 16) as fh:
        first_line = fh.readline()
        if not first_line:
            raise DatasetFormatError(
                f"{path}: empty file, expected a header line")
        header = parse(1, first_line)
        if (not isinstance(header, dict)
                or header.get("kind") not in ("rtp", "wpp")):
            fail(1, "header must be an object whose 'kind' is rtp or wpp")
        if header.get("schema") == 1:
            fail(1, f"dataset schema 1 is no longer read; re-run `mprim "
                    f"generate` with the arguments in {path}.manifest.json "
                    f"to rewrite it as schema {SCHEMA_VERSION}")
        if header.get("schema") != SCHEMA_VERSION:
            fail(1, f"unsupported schema {header.get('schema')!r}")
        seed = header.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            fail(1, f"seed must be an integer, got {json.dumps(seed)}")
        fs = header.get("sampling_frequency", DEFAULT_FS)
        if (isinstance(fs, bool) or not isinstance(fs, (int, float))
                or not 0.0 < fs < np.inf):
            fail(1, f"sampling_frequency must be a positive number, got "
                    f"{json.dumps(fs)}")
        n = header_int("n_samples", 0)
        t = j = room = 0
        if n:
            t = header_int("n_samples_per_traj", 2)
            j = header_int("n_joint", 1)
            # a record holds at least the base64 of its trajectory, so the
            # file cannot hold more than `room` records that pass the byte
            # count: an inflated count allocates no more than that, and a
            # cut file still fails on the line that was cut
            room = os.fstat(fh.fileno()).st_size // (4 * -(-8 * t * j // 3))

        row_bytes = 8 * t * j
        trajectories = np.empty((min(n, room), t * j))
        contexts, tags, splits = None, [], []
        for k, line in enumerate(fh):
            line_no = k + 2
            if k == n:
                fail(line_no, f"header declares {n} samples, found more")
            record = parse(line_no, line)
            try:
                context = np.asarray(record["context"], dtype=float)
                blob, tag = record["trajectory"], record["tags"]
                split = record.get("split")
            except (KeyError, TypeError, ValueError) as err:
                fail(line_no, f"bad record ({err})")
            try:
                values = decode_f64(blob)
            except ValueError as err:
                fail(line_no, f"trajectory is {err}")
            if context.ndim != 1 or values.nbytes != row_bytes:
                fail(line_no, f"context shape {context.shape} and trajectory "
                              f"of {values.nbytes} bytes are not (D,) and "
                              f"8*T*J = {row_bytes} bytes for the header's "
                              f"T = {t}, n_joint = {j}")
            if contexts is None:
                contexts = np.empty((len(trajectories), len(context)))
            if context.shape != contexts.shape[1:]:
                fail(line_no, f"context shape {context.shape} differs from "
                              f"the first record's {contexts.shape[1:]}")
            trajectories[k] = values
            for what, array in (("context", context), ("trajectory", values)):
                if not np.all(np.isfinite(array)):
                    fail(line_no, f"{what} holds a non-finite value")
            if not isinstance(tag, dict):
                fail(line_no, f"tags must be a JSON object, got "
                              f"{json.dumps(tag)}")
            if split not in (None, TRAIN, TEST):
                fail(line_no, f'split must be null, "train" or "test", got '
                              f"{json.dumps(split)}")
            contexts[k] = context
            tags.append(tag)
            splits.append(split)

    if len(tags) != n:
        raise DatasetFormatError(
            f"{path}: header declares {n} samples, found {len(tags)}")
    if not n:
        return DemoDataset(header["kind"], seed, float(fs))
    return DemoDataset(header["kind"], seed, float(fs), contexts,
                       trajectories.reshape(n, t, j), tags, splits)
