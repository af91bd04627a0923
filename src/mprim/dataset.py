"""Synthetic demonstration datasets and their persistence.

Two generators mirror the two task families: reach datasets with four
nested sampling regions of decreasing density (A..D), and palpation-path
datasets with 7 stroke patterns x 4 phantom configurations x a fixed
trial count. Both map a low-dimensional scene context through a fixed
smooth nonlinear function into joint space, so the context-to-weights
relation is learnable by construction but not affine.

In memory, a `DemoDataset` of N >= 1 demos holds one set of arrays:
`contexts` (N, D >= 1), `trajectories` (N, T, n_joint) in radians, plus per
demo a `tags` dict. A train/test split belongs to a run, not to the demos:
`random_split` or `apply_split` returns it, and a checkpoint records it.
Every demo spans one nominal duration in T samples, so the models see
time only as the normalized phase k/(T-1) and the sizes are read from
the array shapes. Both generators write T = `DEFAULT_T` samples per demo.

File format (dataset schema 3): JSON lines, then one binary block.
  line 1        header {"schema": 3, "kind": "rtp"|"wpp", "seed": int,
                        "n_samples": N, "n_samples_per_traj": T,
                        "n_joint": J}, where seed >= 0, N >= 1, T >= 2
                        and J >= 1 are integers by `jsonio.integer`
  lines 2..N+1  record {"context": [D >= 1 numbers], "tags": {...}}
  then          exactly 8*N*T*J bytes and nothing after them: the
                (N, T, J) trajectory stack in radians as little-endian
                float64, in C order
Line k + 2 and the k-th (T, J) slab of the block hold demo k.
`save_jsonl` writes each record line as `json.dumps` writes {"context":
[...], "tags": {...}}. The reader takes any JSON object with these keys;
other keys are ignored, such as the per-record "split" and the header's
"sampling_frequency" that older files hold. Contexts keep full repr
precision; both round-trip bit-exactly.

The stack is raw bytes because decoding it was most of the loading: with
one base64 string per trajectory (schema 2), `load_jsonl` took 74-95 ms
of CPU on the 868-demo palpation file, 35-40 ms of them in base64. Read
as one block, the same demos load in about 12 ms from a 7.40 MB file
instead of a 9.85 MB one (2-vCPU VM, Python 3.11, numpy 2.4). The
writer hands the stack's own buffer to the file and the reader reads the
block straight into the array it returns, so neither copies the stack.
The functions keep their `_jsonl` names, which perfbench/trace_stage.py
wraps. Schemas 1 (nested decimal lists) and 2 are no longer read: re-run
`mprim generate` with the arguments in the file's manifest to rewrite
such a file.
"""

import json
import os
import sys
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from mprim.errors import DatasetFormatError
from mprim.jsonio import integer, replace_on_success

SCHEMA_VERSION = 3
DEFAULT_T = 150
TASKS = ("rtp", "wpp")   # dataset kinds: reach-to-palpate, palpation paths


def check_task(value):
    """`value` when it is one of `TASKS`, else ValueError."""
    if value not in TASKS:
        raise ValueError(f"expected 'rtp' or 'wpp', got {value!r}")
    return value


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


@dataclass(eq=False)
class DemoDataset:
    """The demonstrations of one task kind as stacked arrays; see the
    module docstring for the fields. A kind that is not in `TASKS`, arrays
    whose shapes disagree, no demo or fewer than 2 samples per demo raise
    ValueError."""

    kind: str                       # "rtp" or "wpp"
    seed: int
    contexts: np.ndarray
    trajectories: np.ndarray
    tags: list

    def __post_init__(self):
        check_task(self.kind)
        sizes = (len(self.contexts), len(self.trajectories), len(self.tags))
        if (self.contexts.ndim != 2 or self.trajectories.ndim != 3
                or len(set(sizes)) > 1 or not self.context_dim):
            raise ValueError(
                f"expected (N, D >= 1) contexts, (N, T, n_joint) trajectories "
                f"and N tags, got contexts {self.contexts.shape}, "
                f"trajectories {self.trajectories.shape} and {sizes[2]} tags")
        if not len(self):
            raise ValueError("expected at least one demo, got none")
        if self.n_samples_per_traj < 2:
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
    (3,), or (N, n_joint) configurations for an (N, 3) stack of them."""
    points = np.array(phantom_pos, dtype=float)
    return _joint_map(points, _GOAL_LIN, 0.4, _GOAL_SIN_W, _GOAL_SIN_AMP,
                      np.empty(points.shape[:-1] + HOME_CONFIG.shape))


def _joint_map(points, lin, gain, sin_w, amp, out):
    """Write the joint configurations (..., n_joint) of the workspace
    points (..., 3) into `out` and return it; `points` is scaled in place
    to u = (points - center) / scale.

    The stacked matmul applies each map to one point at a time, so every
    row equals the matrix-vector product of that point alone; `u @ M.T`
    would hand the whole stack to BLAS, which may round differently.
    Each step writes into `out` or works in place, in the order
    HOME + gain (lin u) + amp sin(sin_w u), so the sine term is the only
    temporary.
    """
    points -= _CTX_CENTER
    points /= _CTX_SCALE
    u = points[..., None]
    np.matmul(lin, u, out=out[..., None])
    out *= gain
    out += HOME_CONFIG
    wave = np.matmul(sin_w, u)[..., 0]
    np.sin(wave, out=wave)
    wave *= amp
    out += wave
    return out


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


def generate_rtp(seed: int, counts, noise_std: float) -> DemoDataset:
    """Reach dataset: phantom positions per region, point-to-point demos.

    Every demo starts at the home configuration and moves to the goal
    configuration determined by the phantom position in `DEFAULT_T`
    samples; the context is that position. `counts` holds the demos of
    regions A..D, four ints >= 1; a bad entry raises ValueError naming
    it. `noise_std` > 0 adds seeded Gaussian joint noise of that standard
    deviation to emulate the variance of hand-guided demos.

    The seeded draws are made demo by demo (position, then noise); the
    goals and profiles of all demos are then computed as one stack.
    """
    names = list(RTP_REGION_HALF_EXTENT)
    if len(counts) != len(names):
        raise ValueError(f"counts must hold {len(names)} counts, one per "
                         f"region {', '.join(names)}, got {counts!r}")
    n = sum(integer(count, 1, f"region {region} count")
            for region, count in zip(names, counts))
    rng = np.random.default_rng(seed)
    contexts = np.empty((n, 3))
    noise = (np.empty((n, DEFAULT_T, len(HOME_CONFIG)))
             if noise_std > 0.0 else None)
    tags = []
    for region, count in zip(names, counts):
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


def generate_wpp(seed: int, trials_per_cell: int) -> DemoDataset:
    """Palpation dataset: 7 patterns x 4 configurations x trials strokes.

    Each trial strokes outward from the nipple along its pattern's angle,
    with a small seeded perturbation of angle and length per trial, in
    `DEFAULT_T` samples, and is embedded into joint space by a fixed
    smooth map. Patterns 6 and 7 use a reduced stroke length and carry a
    "short" tag. `trials_per_cell` is an int >= 1.
    """
    integer(trials_per_cell, 1, "trials_per_cell")
    rng = np.random.default_rng(seed)
    n = 7 * len(WPP_CONFIG_POSITIONS) * trials_per_cell
    contexts = np.empty((n, 3 + 7))   # see wpp_context
    trajectories = np.empty((n, DEFAULT_T, len(HOME_CONFIG)))
    tags = []
    for pattern in range(1, 8):
        base_angle = 2.0 * np.pi * (pattern - 1) / 7.0
        short = pattern in WPP_SHORT_PATTERNS
        for config in WPP_CONFIG_POSITIONS:
            nipple = np.asarray(WPP_CONFIG_POSITIONS[config])
            length = WPP_STROKE_LENGTH * WPP_CONFIG_LENGTH_SCALE[config]
            if short:
                length *= WPP_SHORT_FACTOR
            # per trial an angle draw, then a length draw
            jitter = rng.standard_normal((trials_per_cell, 2))
            angle = base_angle + WPP_ANGLE_JITTER * jitter[:, 0]
            trial_len = length * (1.0 + WPP_LENGTH_JITTER * jitter[:, 1])
            direction = np.stack(
                [np.cos(angle), np.sin(angle), np.zeros_like(angle)], axis=1)
            end = nipple + trial_len[:, None] * direction
            points = min_jerk(nipple, end, DEFAULT_T)
            # one (pattern, configuration) cell at a time, written into its
            # rows: embedding the whole stack at once would hold several
            # stack-sized temporaries, and a cell is 1/28 of the demos
            rows = slice(len(tags), len(tags) + trials_per_cell)
            contexts[rows] = wpp_context(config, pattern)
            _joint_map(points, _WPP_LIN, 0.5, _WPP_SIN_W, _WPP_SIN_AMP,
                       trajectories[rows])
            tags += [{"pattern": pattern, "config": config, "short": short}
                     for _ in range(trials_per_cell)]
    return DemoDataset("wpp", seed, contexts, trajectories, tags)


# ---------------------------------------------------------------------------
# split protocols: seeded random (reach), pattern-level (palpation)

TRAIN, TEST, HALF, UNUSED = "train", "test", "half", "unused"
TRAIN_FRACTION = 0.85   # the share of the demos a random split trains on

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


def random_split(n: int, train_fraction: float, seed: int):
    """Seeded shuffle split into (train_indices, test_indices); each side
    keeps at least one demo when n >= 2."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = max(1, min(n - 1, int(round(train_fraction * n))))
    return np.sort(order[:n_train]), np.sort(order[n_train:])


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


def check_split(train, test=None):
    """ValueError unless the int lists `train` and `test` (None: the train
    side alone) form a split: nonempty sides, no demo twice or on both.
    Pure Python: numpy's set routines add 0.5 MB of RSS (numpy.ma, sort)."""
    for name, side in (("train", train), ("test", test)):
        if side is not None and len(side) == 0:
            raise ValueError(f"the split's {name} side is empty")
        twice = [demo for demo, n in Counter(side or ()).items() if n > 1]
        if twice:
            raise ValueError(f"demo {min(twice)} is on the {name} side of "
                             f"the split more than once")
    both = set(train).intersection(test or ())
    if both:
        raise ValueError(f"demo {min(both)} is on both the train and the "
                         f"test side of the split")


# ---------------------------------------------------------------------------
# persistence

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


def _first_non_finite(contexts, trajectories):
    """(k, "context" or "trajectory") of the first demo k that holds a
    non-finite value, or None when every value is finite."""
    bad = []
    for what, values in (("context", contexts), ("trajectory", trajectories)):
        # the min or the max is NaN or infinite when any value is; they
        # need no temporary array the size of the data
        if values.size and not np.isfinite([values.min(),
                                            values.max()]).all():
            finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
            bad.append((int(np.argmin(finite)), what))
    return min(bad, default=None)


def save_jsonl(dataset: DemoDataset, path):
    """Write the header, one record line per demo and the trajectory
    block; bit-exact round trip.

    Only what `load_jsonl` reads back is written: a seed that is not an
    integer >= 0, a non-finite context or trajectory value, or tags that are
    not a JSON object of JSON values raise ValueError naming the demo.
    The file at `path` is replaced only by a complete dataset: a failed
    save leaves it as it was. The block is written from the stack's own
    buffer; only a stack that is not C-contiguous little-endian float64
    is converted first.
    """
    integer(dataset.seed, 0, "seed")
    bad = _first_non_finite(dataset.contexts, dataset.trajectories)
    if bad:
        raise ValueError(f"demo {bad[0]}: {bad[1]} holds a non-finite value")
    for k, tags in enumerate(dataset.tags):
        if not isinstance(tags, dict):
            raise ValueError(f"demo {k}: tags must be a dict, got a "
                             f"{type(tags).__name__}")
        _check_json_value(tags, f"demo {k}: tags")
    block = np.ascontiguousarray(dataset.trajectories, "<f8")
    with replace_on_success(path) as fh:
        header = {"schema": SCHEMA_VERSION, "kind": dataset.kind,
                  "seed": dataset.seed, "n_samples": len(dataset),
                  "n_samples_per_traj": dataset.n_samples_per_traj,
                  "n_joint": dataset.n_joint}
        fh.write(json.dumps(header, allow_nan=False) + "\n")
        for context, tags in zip(dataset.contexts.tolist(), dataset.tags):
            fh.write(json.dumps({"context": context, "tags": tags}) + "\n")
        fh.flush()
        fh.buffer.write(block.data)


def load_jsonl(path) -> DemoDataset:
    """Inverse of save_jsonl. A malformed file raises DatasetFormatError
    naming the first bad record line (text that is not UTF-8 included),
    else the block's line N + 2, else the line of the first demo that
    holds a non-finite value.

    The header must hold the integers seed >= 0, N >= 1, T >= 2 and
    n_joint = J >= 1, with 8*T*J bytes within the platform's largest
    size. Each of the N record lines holds a context list of D >= 1
    numbers, D the first record's, and a tags object. Exactly the 8*N*T*J
    bytes of the trajectory block follow them: that count is checked
    before the (N, T, J) array is allocated, and the block is read
    straight into it. Last, one pass over the contexts and one over the
    stack check that every value is finite, and name the line of the
    first demo that holds one that is not.
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

    # bytes, so that a bad byte is reported by its line and the block
    # is read as it lies
    with open(path, "rb", buffering=1 << 16) as fh:
        size = os.fstat(fh.fileno()).st_size
        first_line = fh.readline()
        if not first_line:
            raise DatasetFormatError(
                f"{path}: empty file, expected a header line")
        header = parse(1, first_line)
        if (not isinstance(header, dict)
                or header.get("kind") not in TASKS):
            fail(1, "header must be an object whose 'kind' is rtp or wpp")
        schema = header.get("schema")
        if schema in (1, 2):
            fail(1, f"dataset schema {schema} is no longer read; re-run "
                    f"`mprim generate` with the arguments in "
                    f"{path}.manifest.json to rewrite it as schema "
                    f"{SCHEMA_VERSION}")
        if schema != SCHEMA_VERSION:
            fail(1, f"unsupported schema {schema!r}")
        try:   # the integer fields, each with its least value
            seed, n, t, j = (
                integer(header.get(name), low, name) for name, low in
                (("seed", 0), ("n_samples", 1), ("n_samples_per_traj", 2),
                 ("n_joint", 1)))
        except ValueError as err:
            fail(1, err)
        if 8 * t * j > sys.maxsize:
            fail(1, f"n_samples_per_traj {t} and n_joint {j} make a "
                    f"trajectory of more than {sys.maxsize} bytes")
        block_bytes = 8 * n * t * j

        offset = len(first_line)
        context_values, width, tags = array("d"), None, []
        for k in range(n):
            line_no = k + 2
            line = fh.readline()
            # the records end early when the rest is nothing, the block of
            # the records so far (N overstated) or of N demos (a record is
            # missing), unless a record line follows (a block cut short)
            if (size - offset in (0, 8 * k * t * j, block_bytes)
                    and not line.startswith(b'{"')):
                fail(line_no, f"header declares {n} samples, found {k}")
            offset += len(line)
            record = parse(line_no, line)
            try:
                context, tag = record["context"], record["tags"]
            except (KeyError, TypeError) as err:
                fail(line_no, f"bad record ({err})")
            if not isinstance(context, list):
                fail(line_no, f"context must be a list of numbers, got "
                              f"{json.dumps(context)}")
            # array("d") would convert true to 1.0 and refuse "0.6"
            # without naming the line
            if not {*map(type, context)} <= {int, float}:
                fail(line_no, "bad record (context entries must be numbers)")
            if width is None:
                width = len(context)
                if not width:
                    fail(line_no, "context holds no number")
            if len(context) != width:
                fail(line_no, f"context shape ({len(context)},) differs from "
                              f"the first record's ({width},)")
            if not isinstance(tag, dict):
                fail(line_no, f"tags must be a JSON object, got "
                              f"{json.dumps(tag)}")
            try:
                context_values.extend(context)
            except OverflowError:
                fail(line_no, "context holds an integer too large for float64")
            tags.append(tag)

        def block_error(found):
            fail(n + 2, f"found {found} bytes after line {n + 1}, not the "
                        f"trajectory block of 8*N*T*J = {block_bytes} bytes "
                        f"for the header's N = {n}, T = {t}, n_joint = {j}")

        if size - offset != block_bytes:
            block_error(size - offset)
        trajectories = np.empty((n, t, j), "<f8")
        found = fh.readinto(trajectories)
        if found != block_bytes:   # the file shrank while it was read
            block_error(found)

    contexts = np.frombuffer(context_values, float).reshape(n, width)
    bad = _first_non_finite(contexts, trajectories)
    if bad:
        fail(bad[0] + 2, f"{bad[1]} holds a non-finite value")
    return DemoDataset(header["kind"], seed, contexts, trajectories, tags)
