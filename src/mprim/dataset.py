"""Synthetic demonstration datasets and their persistence.

Two generators mirror the two task families: reach datasets with four
nested sampling regions of decreasing density (A..D), and palpation-path
datasets with 7 stroke patterns x 4 phantom configurations x a fixed
trial count. Both map a low-dimensional scene context through a fixed
smooth nonlinear function into joint space, so the context-to-weights
relation is learnable by construction but not affine.

In memory, a `DemoDataset` of N demos holds one set of arrays: `contexts`
(N, D), `trajectories` (N, T, n_joint) in radians, plus per demo a `tags`
dict. A train/test split belongs to a run, not to the demos: `apply_split`
returns it, and a checkpoint records it. Every demo spans one nominal
duration in T samples, so the models see time only as the normalized
phase k/(T-1) and the sizes are read from the array shapes. Both
generators write T = `DEFAULT_T` samples per demo.

File format (JSONL, dataset schema 2, one object per line):
  line 1   header {"schema": 2, "kind": "rtp"|"wpp", "seed": int,
                   "n_samples": int, "n_samples_per_traj": T, "n_joint": J}
  line 2.. sample {"context": [D numbers],
                   "trajectory": base64 of T*J float64 (see below),
                   "tags": {...}}
Line k + 1 holds demo k. `save_jsonl` writes each sample line as exactly
  {"context": [...], "trajectory": "<base64>", "tags": {...}}
with the keys in that order, ", " and ": " as separators, and the context
and tags as `json.dumps` writes them. The reader takes any JSON object
with these keys; other keys are ignored, such as the per-record "split"
and the header's "sampling_frequency" that older files hold. The
header's last two fields are written only when the file holds demos. A
trajectory is its (T, J) array in radians, row-major, as little-endian
float64, base64-encoded (`encode_f64`, as in checkpoints): 8*T*J bytes,
so the loader decodes each record into its row of one array allocated
from the header. Contexts keep full repr precision; both round-trip
bit-exactly. Schema 1 (nested decimal lists) is no longer read: re-run
`mprim generate` with the arguments in the file's manifest to rewrite
such a file.
"""

import base64
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from mprim.errors import DatasetFormatError
from mprim.jsonio import replace_on_success

SCHEMA_VERSION = 2
TASKS = ("rtp", "wpp")   # dataset kinds: reach-to-palpate, palpation paths
DEFAULT_T = 150

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
    contexts: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    trajectories: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0, 0)))
    tags: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in TASKS:
            raise ValueError(f"unknown task {self.kind!r}")
        sizes = (len(self.contexts), len(self.trajectories), len(self.tags))
        if (self.contexts.ndim != 2 or self.trajectories.ndim != 3
                or len(set(sizes)) > 1):
            raise ValueError(
                f"expected (N, D) contexts, (N, T, n_joint) trajectories and "
                f"N tags, got contexts {self.contexts.shape}, trajectories "
                f"{self.trajectories.shape} and {sizes[2]} tags")
        if len(self) and self.n_samples_per_traj < 2:
            raise ValueError("n_samples_per_traj must be >= 2")

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


def min_jerk(q0, q1, n_samples: int) -> np.ndarray:
    """Quintic point-to-point profile with zero endpoint velocity/acceleration.

    q(s) = q0 + (q1 - q0) * (10 s^3 - 15 s^4 + 6 s^5), s = t/(T-1); shape
    (n_samples, n_joint), or (N, n_samples, n_joint) when q0 or q1 is an
    (N, n_joint) stack. The profile is elementwise, so each of a stack's
    profiles equals the single call bit for bit.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    q1 = np.atleast_1d(np.asarray(q1, dtype=float))
    s = np.linspace(0.0, 1.0, n_samples)
    prof = 10.0 * s ** 3 - 15.0 * s ** 4 + 6.0 * s ** 5
    out = prof[:, None] * (q1 - q0)[..., None, :]
    out += q0[..., None, :]   # in place: one array the size of the result
    return out


def goal_config(phantom_pos) -> np.ndarray:
    """Reach-target joint configuration (n_joint,) for a phantom position
    (3,), or (N, n_joint) configurations for an (N, 3) stack of them.

    As in `_wpp_joint_embed`, the stacked matmul keeps each row's bits.
    """
    u = ((np.asarray(phantom_pos, dtype=float) - _CTX_CENTER) / _CTX_SCALE)[
        ..., None]
    return HOME_CONFIG + 0.4 * np.matmul(_GOAL_LIN, u)[..., 0] + (
        _GOAL_SIN_AMP * np.sin(np.matmul(_GOAL_SIN_W, u)[..., 0]))


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


def _region_counts(counts) -> dict:
    """`counts` as {region: count}: a dict keyed by region names, or a
    sequence of one count per region A..D. Each count is an int >= 1;
    anything else raises ValueError naming the entry."""
    names = list(RTP_REGION_HALF_EXTENT)
    if not isinstance(counts, dict):
        if len(counts) != len(names):
            raise ValueError(f"counts must hold {len(names)} counts, one per "
                             f"region {', '.join(names)}, got {counts!r}")
        counts = dict(zip(names, counts))
    if not counts:
        raise ValueError("counts names no region")
    for region, count in counts.items():
        if region not in RTP_REGION_HALF_EXTENT:
            raise ValueError(f"counts key {region!r} is not a region; "
                             f"expected one of {', '.join(names)}")
        if type(count) is not int or count < 1:
            raise ValueError(f"region {region} count must be an integer >= "
                             f"1, got {count!r}")
    return counts


def generate_rtp(seed: int, counts=None,
                 noise_std: float = 0.0) -> DemoDataset:
    """Reach dataset: phantom positions per region, point-to-point demos.

    Every demo starts at the home configuration and moves to the goal
    configuration determined by the phantom position in `DEFAULT_T`
    samples; the context is that position. `counts` gives the demos per
    region (see `_region_counts`; default `RTP_DEFAULT_COUNTS`).
    `noise_std` adds seeded Gaussian joint noise to emulate the variance
    of hand-guided demos (off by default).

    The seeded draws are made demo by demo (position, then noise); the
    goals and profiles of all demos are then computed as one stack.
    """
    counts = _region_counts(RTP_DEFAULT_COUNTS if counts is None else counts)
    n = sum(counts.values())
    rng = np.random.default_rng(seed)
    contexts = np.empty((n, 3))
    noise = (np.empty((n, DEFAULT_T, len(HOME_CONFIG)))
             if noise_std > 0.0 else None)
    tags = []
    for region, count in counts.items():
        for _ in range(count):
            k = len(tags)
            contexts[k, :2] = _sample_region_xy(rng, region)
            contexts[k, 2] = rng.uniform(*RTP_Z_RANGE)
            if noise is not None:
                rng.standard_normal(out=noise[k])
            tags.append({"region": region})
    trajectories = min_jerk(HOME_CONFIG, goal_config(contexts), DEFAULT_T)
    if noise is not None:
        noise *= noise_std
        trajectories += noise
    return DemoDataset("rtp", seed, contexts, trajectories, tags)


def wpp_context(config: str, pattern: int) -> np.ndarray:
    """Context features: nipple position plus a pattern one-hot."""
    onehot = np.zeros(7)
    onehot[pattern - 1] = 1.0
    return np.concatenate([np.asarray(WPP_CONFIG_POSITIONS[config]), onehot])


def generate_wpp(seed: int,
                 trials_per_cell: int = WPP_DEFAULT_TRIALS) -> DemoDataset:
    """Palpation dataset: 7 patterns x 4 configurations x trials strokes.

    Each trial strokes outward from the nipple along its pattern's angle,
    with a small seeded perturbation of angle and length per trial, in
    `DEFAULT_T` samples, and is embedded into joint space by a fixed
    smooth map. Patterns 6 and 7 use a reduced stroke length and carry a
    "short" tag.
    """
    if trials_per_cell < 1:
        raise ValueError("trials_per_cell must be >= 1")
    rng = np.random.default_rng(seed)
    n = 7 * len(WPP_CONFIG_POSITIONS) * trials_per_cell
    contexts = np.empty((n, 3 + 7))   # see wpp_context
    trajectories = np.empty((n, DEFAULT_T, len(HOME_CONFIG)))
    tags = []
    s = np.linspace(0.0, 1.0, DEFAULT_T)
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
                # one demo at a time: embedding the whole stack at once
                # would hold several stack-sized temporaries
                contexts[len(tags)] = wpp_context(config, pattern)
                trajectories[len(tags)] = _wpp_joint_embed(points)
                tags.append(
                    {"pattern": pattern, "config": config, "short": short})
    return DemoDataset("wpp", seed, contexts, trajectories, tags)


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
    Every demo needs a pattern tag that is an integer in 1..7. The dataset
    is left unchanged.
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

    return np.array(sorted(train), dtype=int), np.array(sorted(test), dtype=int)


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


def _check_json_value(value, where):
    """Raise ValueError unless `value` reads back from JSON as itself:
    None, a bool, an int, a finite float, a str, or a list or str-keyed
    dict of such values. `where` names the value in the message."""
    if value is None or isinstance(value, (bool, int, str)):
        return
    if isinstance(value, float):
        if not np.isfinite(value):
            raise ValueError(f"{where} is {value}, which JSON cannot hold")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_json_value(item, f"{where}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValueError(f"{where} has the key {key!r}; JSON object "
                                 f"keys are strings")
            _check_json_value(item, f"{where}[{key!r}]")
    else:
        raise ValueError(f"{where} is of type {type(value).__name__}, not "
                         f"a JSON value")


def save_jsonl(dataset: DemoDataset, path):
    """Write header plus one record per sample; bit-exact round trip.

    Only what `load_jsonl` reads back is written: a seed that is not an
    integer, a non-finite context or trajectory value, or tags that are
    not a JSON object of JSON values raise ValueError naming the demo.
    The file at `path` is replaced only by a complete dataset: a failed
    save leaves it as it was.
    """
    if isinstance(dataset.seed, bool) or not isinstance(dataset.seed, int):
        raise ValueError(f"seed must be an integer, got {dataset.seed!r}")
    for what, array in (("context", dataset.contexts),
                        ("trajectory", dataset.trajectories)):
        # the min or the max is NaN or infinite when any value is; they
        # need no temporary array the size of the data
        if array.size and not np.isfinite([array.min(), array.max()]).all():
            finite = np.isfinite(array).reshape(len(array), -1).all(axis=1)
            raise ValueError(f"demo {np.argmin(finite)}: {what} holds a "
                             f"non-finite value")
    for k, tags in enumerate(dataset.tags):
        if not isinstance(tags, dict):
            raise ValueError(f"demo {k}: tags must be a dict, got a "
                             f"{type(tags).__name__}")
        _check_json_value(tags, f"demo {k}: tags")
    with replace_on_success(path) as fh:
        header = {"schema": SCHEMA_VERSION, "kind": dataset.kind,
                  "seed": dataset.seed, "n_samples": len(dataset)}
        if len(dataset):
            header.update(n_samples_per_traj=dataset.n_samples_per_traj,
                          n_joint=dataset.n_joint)
        fh.write(json.dumps(header, allow_nan=False) + "\n")
        # the record line spelled out (see the module docstring): base64
        # needs no JSON escaping, so the long string is written as it is
        for context, values, tags in zip(dataset.contexts.tolist(),
                                         dataset.trajectories, dataset.tags):
            fh.write(f'{{"context": {json.dumps(context)}, "trajectory": '
                     f'"{encode_f64(values)}", "tags": {json.dumps(tags)}}}\n')


def load_jsonl(path) -> DemoDataset:
    """Inverse of save_jsonl; malformed lines, including lines that are
    not UTF-8 text, are reported by number.

    The header must hold an integer seed and a non-negative integer
    sample count; a file with demos also declares T >= 2 and n_joint >= 1,
    with a trajectory's 8*T*J bytes within the platform's largest size.
    Every record holds a context list of finite float64 numbers as wide
    as the first record's, a base64 trajectory of exactly the header's
    8*T*J bytes that decodes to finite values, and a tags object. The
    trajectory array is allocated once from the header, and each record
    is decoded straight into its row; the count is checked against the
    records last.
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
                or header.get("kind") not in TASKS):
            fail(1, "header must be an object whose 'kind' is rtp or wpp")
        if header.get("schema") == 1:
            fail(1, f"dataset schema 1 is no longer read; re-run `mprim "
                    f"generate` with the arguments in {path}.manifest.json "
                    f"to rewrite it as schema {SCHEMA_VERSION}")
        if header.get("schema") != SCHEMA_VERSION:
            fail(1, f"unsupported schema {header.get('schema')!r}")
        seed = header.get("seed")
        if isinstance(seed, bool) or not isinstance(seed, int):
            fail(1, f"seed must be an integer, got {json.dumps(seed)}")
        n = header_int("n_samples", 0)
        t = j = room = 0
        if n:
            t = header_int("n_samples_per_traj", 2)
            j = header_int("n_joint", 1)
            if 8 * t * j > sys.maxsize:
                fail(1, f"n_samples_per_traj {t} and n_joint {j} make a "
                        f"trajectory of more than {sys.maxsize} bytes")
            # a record holds at least the base64 of its trajectory, so the
            # file cannot hold more than `room` records that pass the byte
            # count: an inflated count allocates no more than that, and a
            # cut file still fails on the line that was cut
            room = os.fstat(fh.fileno()).st_size // (4 * -(-8 * t * j // 3))

        row_bytes = 8 * t * j
        trajectories = np.empty((min(n, room), t * j))
        contexts, tags = None, []
        for k, line in enumerate(fh):
            line_no = k + 2
            if k == n:
                fail(line_no, f"header declares {n} samples, found more")
            record = parse(line_no, line)
            try:
                context = record["context"]
                blob, tag = record["trajectory"], record["tags"]
                # numpy would convert "0.6" to 0.6 and true to 1.0
                if isinstance(context, list) and not (
                        {*map(type, context)} <= {int, float}):
                    raise TypeError("context entries must be numbers")
                context = np.asarray(context, dtype=float)
            except OverflowError:
                fail(line_no, "context holds an integer too large for float64")
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
            contexts[k] = context
            tags.append(tag)

    if len(tags) != n:
        raise DatasetFormatError(
            f"{path}: header declares {n} samples, found {len(tags)}")
    if not n:
        return DemoDataset(header["kind"], seed)
    return DemoDataset(header["kind"], seed, contexts,
                       trajectories.reshape(n, t, j), tags)
