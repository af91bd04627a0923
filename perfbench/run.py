"""Pipeline benchmark: the seeded `mprim generate -> train -> eval`.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload rtp-mp --seed 1 --seconds 35 --trace 0

The benchmark process starts one CLI stage at a time as its own child, as
a user runs them (a closed loop with one client). The benchmark and its
children are pinned to one CPU. A stage's time is the CPU time of its
child (user + system, from the `os.wait4` rusage) scaled to a reference
machine speed: while the child runs, a speed probe in the benchmark process
times a small fixed piece of work on the same CPU every PROBE_PERIOD_S,
and the stage time is `cpu_s * REF_PROBE_S / mean probe time`. On a
shared host the speed of a CPU changes by up to 1.7x from one second to the
next; the probe sees the same changes as the child, so the scaled time
measures the program's work rather than the host's load. Wall times and
the probe times are reported too, as per-layer figures. Peak RSS comes
from the child's rusage, so nothing of the benchmark process is counted.

A run first generates the workload's dataset SETUPS times (`setup_s`
is the median). Then it trains and evaluates each of the workload's
methods on it, as a user does. Then, while the next one fits into
`--seconds`, it makes training cycles (train every method for all its
epochs: no early stopping, so the same work for every seed) and
evaluation cycles (evaluate the checkpoints again) in turn, at least one
training cycle. It reports the medians over cycles. Every output is
checked; a failed stage or check counts in `failed` and makes the exit
code 1.

With `--trace 1` the run then makes the pipeline once more with every
stage under `trace_stage.py`, which records spans around the calls into
each module, and prints the per-layer metrics instead of the end-to-end
ones. The traced results must equal the untraced ones bit for bit.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `README.md` next to this
file lists the workloads, the metrics and the baseline.
"""

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUPS = 3
BLAS_THREADS = 1
# The probe runs about 2 ms of CPU work every 40 ms (5% of the CPU); its
# reference time sets the scale of every reported stage time. It is a
# constant: two commits are compared with the same one.
PROBE_PERIOD_S = 0.04
REF_PROBE_S = 0.002
RUN_DEADLINE_S = 170.0
MB = float(1 << 20)


@dataclass(frozen=True)
class Workload:
    kind: str
    methods: tuple
    split: str = None


# Each layer that later work targets does most of its work in one workload
# and little or none in another (see README.md for the mapping):
#   rtp-mp   trajectory-space loss, MLP and Adam; dmp is never called
#   wpp-mp   same trainer, but JSONL parsing is about half of train+eval,
#            plus the held-out-pattern split and a wider head
#   wpp-dmp  fit_dmp on every train demo, two rollouts per eval demo
WORKLOADS = {
    "rtp-mp": Workload("rtp", ("deep-mp", "residual")),
    "wpp-mp": Workload("wpp", ("deep-mp", "residual"), "WPP1"),
    "wpp-dmp": Workload("wpp", ("ddmp",), "WPP1"),
}
METHODS = ("deep-mp", "residual", "ddmp")

# The CLI defaults of the commit that defined this benchmark, passed as
# explicit flags so that a later change of a default does not change the
# workload. --tiny shrinks the dataset and the epochs for the self-test.
EPOCHS = {"rtp": 150, "wpp": 200}
N_BASIS = {"rtp": 8, "wpp": 10}
TINY_GENERATE = ["--counts", "12,6,4,3", "--trials", "2"]
TINY_EPOCHS = 3

# train_s and pipeline_s change with the epoch at which training stops
# early, which changes with the seed, so they are per-layer figures here;
# train_samples_per_s is the training speed that does not.
END_TO_END = [
    ("setup_s", "s"), ("eval_s", "s"),
    ("train_samples_per_s", "samples/s"), ("eval_demos_per_s", "demos/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("stages.train_s", "s"), ("stages.pipeline_s", "s"),
    ("wall.setup_s", "s"), ("wall.train_s", "s"), ("wall.eval_s", "s"),
    ("probe.ms", "ms"),
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("cli.generate.peak_rss_mb", "MB"), ("cli.train.peak_rss_mb", "MB"),
    ("cli.eval.peak_rss_mb", "MB"),
    ("dataset.generate_s", "s"), ("dataset.save_jsonl_s", "s"),
    ("dataset.jsonl_mb", "MB"),
    ("dataset.load_jsonl_s", "s"), ("dataset.load_jsonl_calls", "count"),
    ("dataset.load_jsonl_mb_per_s", "MB/s"), ("dataset.apply_split_s", "s"),
    ("training.train_s", "s"), ("training.self_s", "s"),
    ("training.epochs", "count"), ("training.steps", "count"),
    ("training.samples_seen", "count"),
    ("training.useful_epoch_share", "ratio"),
    ("training.evaluate_s", "s"), ("training.evaluate_self_s", "s"),
    ("regressor.loss_grad_s", "s"), ("regressor.loss_grad_calls", "count"),
    ("regressor.adam_step_s", "s"), ("regressor.adam_step_calls", "count"),
    ("kernels.mlp_forward_s", "s"), ("kernels.mlp_forward_calls", "count"),
    ("kernels.mlp_forward_us_per_call", "us"),
    ("kernels.mlp_backward_s", "s"), ("kernels.mlp_backward_calls", "count"),
    ("kernels.mlp_backward_us_per_call", "us"),
    ("kernels.dmp_rollout_s", "s"), ("kernels.dmp_rollout_calls", "count"),
    ("kernels.dmp_rollout_steps", "count"),
    ("kernels.dmp_rollout_us_per_call", "us"),
    ("kernels.basis_matrix_us_per_call", "us"),
    ("dmp.fit_dmp_s", "s"), ("dmp.fit_dmp_calls", "count"),
    ("dmp.rollout_matched_s", "s"), ("dmp.rollout_matched_calls", "count"),
    ("dmp.rollouts_per_eval_demo", "ratio"),
    ("basis.build_phi_s", "s"), ("promp.reconstruct_s", "s"),
    ("promp.reconstruct_calls", "count"),
    ("metrics.squared_trajectory_loss_s", "s"),
    ("kinematics.fk_s", "s"), ("kinematics.fk_calls", "count"),
    ("kinematics.fk_per_eval_demo", "ratio"),
    ("checkpoint.save_s", "s"), ("checkpoint.load_s", "s"),
    ("checkpoint.mb", "MB"),
    ("plots.write_s", "s"), ("plots.files", "count"),
    ("trace.generate.wall_s", "s"), ("trace.train.wall_s", "s"),
    ("trace.eval.wall_s", "s"),
    ("trace.generate.overhead_s", "s"), ("trace.train.overhead_s", "s"),
    ("trace.eval.overhead_s", "s"),
    ("failed_share", "ratio"),
] + [(f"ave_mse.{m}", "rad2") for m in METHODS] + [
    (f"ave_ed_mm.{m}", "mm") for m in METHODS]


# ---------------------------------------------------------------------------
# stages

def generate_argv(kind, seed, tiny):
    sizes = TINY_GENERATE if tiny else ["--counts", "292,128,73,52",
                                        "--trials", "31"]
    return ["generate", "--kind", kind, "--seed", str(seed), "--out",
            "data.jsonl", "--noise", "0.0", *sizes]


def train_argv(w, method, seed, tiny, all_epochs=False):
    """The default training, or with `all_epochs` one that never stops
    early, so that its work does not depend on the seed."""
    epochs = TINY_EPOCHS if tiny else EPOCHS[w.kind]
    patience = epochs if all_epochs else 20
    argv = ["train", "--data", "data.jsonl", "--method", method,
            "--task", w.kind, "--seed", str(seed), "--epochs", str(epochs),
            "--batch-size", "32", "--lr", "0.001", "--hidden", "64,64",
            "--n-basis", str(N_BASIS[w.kind]), "--n-basis-dmp", "25",
            "--tau", "7.6", "--patience", str(patience),
            "--out", f"{method}.json"]
    if w.split is not None:
        argv += ["--split", w.split]
    return argv


def eval_argv(method):
    return ["eval", "--data", "data.jsonl", "--checkpoint",
            f"{method}.json", "--outdir", f"eval-{method}",
            "--plot-samples", "2"]


def _probe_inputs():
    rng = np.random.default_rng(0)
    doc = json.dumps([{"t": i, "q": rng.standard_normal(7).round(6).tolist()}
                      for i in range(40)])
    return (rng.standard_normal((32, 64)), rng.standard_normal((64, 64)) / 8,
            doc)


class SpeedProbe(threading.Thread):
    """Times a fixed mix of the program's kinds of work every
    PROBE_PERIOD_S on the benchmark's CPU, until stopped: a Python float
    loop, JSON parsing, a loop of tiny numpy operations as in a DMP
    rollout, and small matrix products with an Adam-like update as in
    training. The times are thread CPU time, so a probe that waits for the
    CPU is not counted slower."""

    _x, _w, _doc = _probe_inputs()

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self._done = threading.Event()

    @classmethod
    def work(cls):
        t0 = time.thread_time()
        acc = 0.0
        for i in range(3000):
            acc += (i % 7) * 0.5
        for _ in range(3):
            json.loads(cls._doc)
        y, dy, goal = np.zeros(7), np.zeros(7), np.ones(7)
        for _ in range(150):
            ddy = 25.0 * (6.25 * (goal - y) - dy) + 0.1 * np.sin(y)
            dy = dy + ddy * 1e-3
            y = y + dy * 1e-3
        x, w = cls._x, cls._w
        m, v = np.zeros_like(w), np.zeros_like(w)
        for _ in range(6):
            h = np.tanh(x @ w)
            g = x.T @ (1.0 - h * h) / len(x)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w = w - 1e-3 * m / (np.sqrt(v) + 1e-8)
        return time.thread_time() - t0

    def run(self):
        while True:
            self.samples.append(self.work())
            if self._done.wait(PROBE_PERIOD_S):
                return

    def stop(self):
        """Stop and return the mean probe time, leaving out the tenth
        slowest and the tenth fastest. A mean, not a median: the speed
        flips between two levels, and the stage's CPU time adds up the
        time spent at each."""
        self._done.set()
        self.join()
        if not self.samples:
            self.samples.append(self.work())
        times = sorted(self.samples)
        cut = len(times) // 10
        return statistics.fmean(times[cut:len(times) - cut])


@dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float
    probe_s: float      # mean probe time during the stage
    rss_mb: float
    exit_code: int
    spans: str = None

    @property
    def time_s(self):
        """The child's CPU time at the reference machine speed."""
        return self.cpu_s * REF_PROBE_S / self.probe_s


class Runner:
    """Starts stage children one at a time and keeps the check tally."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC,
                        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS),
                        MKL_NUM_THREADS=str(BLAS_THREADS))
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def stage(self, argv, cwd, spans=None):
        """Run one CLI stage in `cwd`; traced when `spans` names a file."""
        os.makedirs(cwd, exist_ok=True)
        if spans is None:
            cmd = [sys.executable, "-m", "mprim.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "trace_stage.py"),
                   spans, *argv]
        with open(os.path.join(cwd, f"{argv[0]}.log"), "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            probe = SpeedProbe()
            probe.start()
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                probe_s = probe.stop()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = StageRun(argv[0], wall, usage.ru_utime + usage.ru_stime,
                       probe_s, usage.ru_maxrss / 1024.0, proc.returncode,
                       spans)
        self.check(run.exit_code == 0,
                   f"{cwd}: {argv[0]} exited {run.exit_code}")
        return run


# ---------------------------------------------------------------------------
# output checks

def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_ok(cwd, manifest):
    """Every sha256 a run manifest lists matches the file on disk."""
    try:
        with open(os.path.join(cwd, manifest)) as fh:
            doc = json.load(fh)
        files = {**doc["inputs"], **doc["outputs"]}
        return bool(doc["outputs"]) and all(
            sha256(os.path.join(cwd, p)) == h for p, h in files.items())
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return False


def read_overall(path):
    """(ave_mse, ave_ed_mm, n) of the `overall` row; None if malformed."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["group"] == "overall"]
        mse = float(rows[0]["ave_mse_rad2"])
        ed = float(rows[0]["ave_ed_mm"])
        n = int(rows[0]["n_samples"])
    except (OSError, KeyError, IndexError, TypeError, ValueError):
        return None
    ok = len(rows) == 1 and n > 0 and all(
        math.isfinite(v) and v >= 0.0 for v in (mse, ed))
    return (mse, ed, n) if ok else None


def fit_samples_per_epoch(path):
    """(epochs run, fit-set size) of a checkpoint; None if it won't load.

    The model is reloaded through `mprim.checkpoint.load`; the epoch count
    is the `final_epoch` the train stage records in the checkpoint meta.
    """
    from mprim import checkpoint, training
    try:
        model = checkpoint.load(path)
        with open(path) as fh:
            epochs = int(json.load(fh)["meta"]["final_epoch"])
        n_train = len(model.train_indices)
    except Exception:   # whatever stops the reload fails the check
        return None
    val_fraction = training.TrainConfig.val_fraction_of_train
    return epochs, n_train - int(n_train * val_fraction)


def read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# one pipeline

@dataclass
class Cycle:
    """The stages of one cycle: training and evaluating every method of the
    workload, or only one of the two."""
    train: list = field(default_factory=list)
    evals: list = field(default_factory=list)
    samples: int = 0
    demos: int = 0
    quality: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    @property
    def train_s(self):
        return sum(r.time_s for r in self.train)

    @property
    def eval_s(self):
        return sum(r.time_s for r in self.evals)

    @property
    def train_wall_s(self):
        return sum(r.wall_s for r in self.train)

    @property
    def eval_wall_s(self):
        return sum(r.wall_s for r in self.evals)


def span_file(spans_dir, name):
    return os.path.join(spans_dir, f"{name}.json") if spans_dir else None


def generate(runner, w, seed, tiny, cwd, spans_dir=None):
    """Build the workload's dataset as cwd/data.jsonl; (run, its sha256)."""
    run = runner.stage(generate_argv(w.kind, seed, tiny), cwd,
                       span_file(spans_dir, "generate"))
    if run.exit_code != 0:
        return run, None
    runner.check(manifest_ok(cwd, "data.jsonl.manifest.json"),
                 f"{cwd}: generate manifest does not match its files")
    return run, sha256(os.path.join(cwd, "data.jsonl"))


def train_method(runner, w, method, seed, tiny, cwd, cyc, spans_dir=None,
                 all_epochs=False):
    """Train `method` on cwd/data.jsonl; whether it made a checkpoint."""
    run = runner.stage(train_argv(w, method, seed, tiny, all_epochs), cwd,
                       span_file(spans_dir, f"train-{method}"))
    cyc.train.append(run)
    if run.exit_code != 0:
        return False
    ckpt = os.path.join(cwd, f"{method}.json")
    runner.check(manifest_ok(cwd, f"{method}.json.manifest.json"),
                 f"{cwd}: train {method} manifest does not match")
    fit = fit_samples_per_epoch(ckpt)
    if runner.check(fit is not None, f"{ckpt}: checkpoint does not reload"):
        cyc.samples += fit[0] * fit[1]
    cyc.outputs[f"{method}.json"] = read_bytes(ckpt)
    return True


def eval_method(runner, method, cwd, cyc, spans_dir=None):
    """Evaluate cwd/<method>.json on cwd/data.jsonl."""
    run = runner.stage(eval_argv(method), cwd,
                       span_file(spans_dir, f"eval-{method}"))
    cyc.evals.append(run)
    if run.exit_code != 0:
        return
    runner.check(manifest_ok(cwd, f"eval-{method}/manifest.json"),
                 f"{cwd}: eval {method} manifest does not match")
    metrics_csv = os.path.join(cwd, f"eval-{method}", "metrics.csv")
    overall = read_overall(metrics_csv)
    if runner.check(overall is not None,
                    f"{metrics_csv}: no finite non-negative overall row"):
        cyc.quality[method] = overall[:2]
        cyc.demos += overall[2]
    cyc.outputs[f"eval-{method}/metrics.csv"] = read_bytes(metrics_csv)


def run_cycle(runner, w, seed, tiny, cwd, spans_dir=None):
    """A user's cycle: train and evaluate every method of the workload."""
    cyc = Cycle()
    for method in w.methods:
        if train_method(runner, w, method, seed, tiny, cwd, cyc, spans_dir):
            eval_method(runner, method, cwd, cyc, spans_dir)
    return cyc


def training_cycle(runner, w, seed, tiny, cwd):
    """Train every method for all its epochs."""
    cyc = Cycle()
    for method in w.methods:
        train_method(runner, w, method, seed, tiny, cwd, cyc, all_epochs=True)
    return cyc


def evaluation_cycle(runner, w, cwd):
    """Evaluate the checkpoint of every method that is in cwd."""
    cyc = Cycle()
    for method in w.methods:
        eval_method(runner, method, cwd, cyc)
    return cyc


def check_same_outputs(runner, cycles, reference, what):
    """One seed must give the same checkpoints and metrics."""
    for cyc in cycles:
        for name, data in cyc.outputs.items():
            runner.check(data == reference.outputs.get(name),
                         f"{what}: {name} differs")


# ---------------------------------------------------------------------------
# metrics

def end_to_end(gens, cycles, trains):
    children = gens + [r for c in cycles + trains for r in c.train + c.evals]
    return {
        "setup_s": statistics.median(r.time_s for r in gens),
        "eval_s": statistics.median(c.eval_s for c in cycles),
        "train_samples_per_s": statistics.median(
            c.samples / c.train_s for c in trains),
        "eval_demos_per_s": statistics.median(
            c.demos / c.eval_s for c in cycles),
        "peak_rss_mb": max(r.rss_mb for r in children),
    }


def span_totals(paths):
    """Per span name: seconds, self seconds, calls, summed counts, and the
    calls made inside `training.evaluate`."""
    total, self_s = defaultdict(float), defaultdict(float)
    calls, in_eval = defaultdict(int), defaultdict(int)
    counts = defaultdict(list)
    import_s = []
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        import_s.append(doc["import_s"])
        spans = doc["spans"]
        children = [0.0] * len(spans)
        under_eval = [False] * len(spans)
        for i, (name, start, end, parent, count) in enumerate(spans):
            if parent >= 0:
                children[parent] += end - start
                under_eval[i] = (under_eval[parent]
                                 or spans[parent][0] == "training.evaluate")
        for i, (name, start, end, parent, count) in enumerate(spans):
            total[name] += end - start
            self_s[name] += end - start - children[i]
            calls[name] += 1
            counts[name].append(count)
            in_eval[name] += under_eval[i]
    return total, self_s, calls, counts, in_eval, import_s


def per_layer(gens, cycles, trains, traced_gen, traced, e2e, runner):
    span_files = [r.spans for r in [traced_gen] + traced.train + traced.evals]
    total, self_s, calls, counts, in_eval, import_s = span_totals(span_files)

    def per_call_us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    epochs = sum(c[0] for c in counts["training.train"])
    useful = sum(c[1] + 1 for c in counts["training.train"])
    eval_demos = sum(counts["training.evaluate"])
    load_mb = sum(counts["dataset.load_jsonl"]) / MB

    def stage_rss(stage):
        runs = gens if stage == "generate" else [
            r for c in cycles + trains for r in c.train + c.evals
            if r.stage == stage]
        return max(r.rss_mb for r in runs)

    wall = {"generate": statistics.median(r.wall_s for r in gens),
            "train": cycles[0].train_wall_s,
            "eval": statistics.median(c.eval_wall_s for c in cycles)}
    train_s = cycles[0].train_s
    m = {
        "stages.train_s": train_s,
        "stages.pipeline_s": e2e["setup_s"] + train_s + e2e["eval_s"],
        "wall.setup_s": wall["generate"],
        "wall.train_s": wall["train"],
        "wall.eval_s": wall["eval"],
        "probe.ms": 1e3 * statistics.median(
            r.probe_s for r in gens + [r for c in cycles + trains
                                       for r in c.train + c.evals]),
        "cli.import_s": statistics.median(import_s),
        "cli.self_s": self_s["cli.main"],
        "cli.generate.peak_rss_mb": stage_rss("generate"),
        "cli.train.peak_rss_mb": stage_rss("train"),
        "cli.eval.peak_rss_mb": stage_rss("eval"),
        "dataset.jsonl_mb": sum(counts["dataset.save_jsonl"]) / MB,
        "dataset.load_jsonl_calls": calls["dataset.load_jsonl"],
        "dataset.load_jsonl_mb_per_s": ratio(load_mb,
                                             total["dataset.load_jsonl"]),
        "training.self_s": self_s["training.train"],
        "training.epochs": epochs,
        "training.steps": calls["regressor.adam_step"],
        "training.samples_seen": sum(counts["kernels.mlp_backward"]),
        "training.useful_epoch_share": ratio(useful, epochs),
        "training.evaluate_self_s": self_s["training.evaluate"],
        "checkpoint.mb": sum(counts["checkpoint.save"]) / MB,
        "plots.files": calls["plots.write"],
        "dmp.rollouts_per_eval_demo": ratio(in_eval["dmp.rollout_matched"],
                                            eval_demos),
        "kinematics.fk_per_eval_demo": ratio(in_eval["kinematics.fk"],
                                             eval_demos),
        "kernels.dmp_rollout_steps": sum(counts["kernels.dmp_rollout"]),
        "kernels.basis_matrix_us_per_call": per_call_us(
            "kernels.basis_matrix"),
    }
    for name in ("regressor.loss_grad", "regressor.adam_step",
                 "kernels.mlp_forward", "kernels.mlp_backward",
                 "kernels.dmp_rollout", "dmp.fit_dmp", "dmp.rollout_matched",
                 "promp.reconstruct", "kinematics.fk"):
        m[f"{name}_calls"] = calls[name]
    for name in ("kernels.mlp_forward", "kernels.mlp_backward",
                 "kernels.dmp_rollout"):
        m[f"{name}_us_per_call"] = per_call_us(name)
    for name in ("dataset.generate", "dataset.save_jsonl",
                 "dataset.load_jsonl", "dataset.apply_split", "training.train",
                 "training.evaluate", "regressor.loss_grad",
                 "regressor.adam_step", "kernels.mlp_forward",
                 "kernels.mlp_backward", "kernels.dmp_rollout", "dmp.fit_dmp",
                 "dmp.rollout_matched", "basis.build_phi", "promp.reconstruct",
                 "metrics.squared_trajectory_loss", "kinematics.fk",
                 "checkpoint.save", "checkpoint.load", "plots.write"):
        m[f"{name}_s"] = total[name]

    traced_wall = {"generate": traced_gen.wall_s,
                   "train": traced.train_wall_s, "eval": traced.eval_wall_s}
    for stage, traced_s in traced_wall.items():
        m[f"trace.{stage}.wall_s"] = traced_s
        m[f"trace.{stage}.overhead_s"] = traced_s - wall[stage]
    m["failed_share"] = ratio(len(runner.failures), runner.attempted)
    for method in METHODS:
        mse, ed = cycles[0].quality.get(method, (0.0, 0.0))
        m[f"ave_mse.{method}"] = mse
        m[f"ave_ed_mm.{method}"] = ed
    return {name: m[name] for name, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# environment

def environment():
    env = {"nproc": os.cpu_count(),
           "cpu_pinned": sorted(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "numpy": np.__version__,
           "openblas": None,
           "blas_threads": BLAS_THREADS,
           "git_sha": git_sha(),
           "backend": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["openblas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    try:
        from mprim import kernels
        env["backend"] = kernels.active_backend()
    except (ImportError, AttributeError):
        pass
    return env


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------

def setup(runner, w, seed, tiny, work):
    """Generate the dataset SETUPS times; (generate runs, data dir)."""
    gens, shas = [], []
    for k in range(SETUPS):
        run, data_sha = generate(runner, w, seed, tiny,
                                 os.path.join(work, f"setup{k}"))
        gens.append(run)
        shas.append(data_sha)
    runner.check(len(set(shas)) == 1,
                 "a repeated generate of the same seed differs")
    return gens, shas[0], os.path.join(work, "setup0")


def run_workload(runner, name, seed, seconds, trace, tiny, work):
    w = WORKLOADS[name]
    plain = os.path.join(work, "plain")
    # An installed package has its bytecode compiled; a fresh checkout
    # compiles it on first import, which no stage should pay.
    subprocess.run([sys.executable, "-c", "import mprim.cli"], env=runner.env,
                   check=False, timeout=60)
    start = time.perf_counter()
    gens, data_sha, data_dir = setup(runner, w, seed, tiny, plain)
    if runner.failures:
        return None

    def fresh_dir(*paths):
        """A new directory holding links to `paths`."""
        cwd = os.path.join(plain, f"cycle{len(cycles) + len(trains)}")
        os.makedirs(cwd)
        for path in paths:
            os.link(path, os.path.join(cwd, os.path.basename(path)))
        return cwd

    def fits(wall):
        return time.perf_counter() - start + wall <= seconds

    data = os.path.join(data_dir, "data.jsonl")
    cycles, trains = [], []
    first = fresh_dir(data)
    cycles.append(run_cycle(runner, w, seed, tiny, first))
    checkpoints = [os.path.join(first, f"{m}.json") for m in w.methods]
    # then training cycles and evaluation cycles (of the first cycle's
    # checkpoints) in turn, while the next one is expected to end within
    # `seconds`; always one training cycle
    wall = {"train": cycles[0].train_wall_s, "eval": cycles[0].eval_wall_s}
    for kind in itertools.cycle(("train", "eval")):
        if runner.failures:
            return None
        if trains and not fits(wall[kind]):
            break
        t0 = time.perf_counter()
        if kind == "train":
            trains.append(training_cycle(runner, w, seed, tiny,
                                         fresh_dir(data)))
        else:
            cycles.append(evaluation_cycle(runner, w,
                                           fresh_dir(data, *checkpoints)))
        wall[kind] = time.perf_counter() - t0
    check_same_outputs(runner, cycles[1:], cycles[0],
                       "a repeated evaluation of the same seed")
    check_same_outputs(runner, trains[1:], trains[0],
                       "a repeated training cycle of the same seed")
    if runner.failures:
        return None
    e2e = end_to_end(gens, cycles, trains)
    if not trace:
        return e2e

    spans_dir = os.path.join(work, "spans")
    os.makedirs(spans_dir)
    cwd = os.path.join(work, "traced")
    traced_gen, traced_sha = generate(runner, w, seed, tiny, cwd, spans_dir)
    if runner.failures:
        return None
    runner.check(traced_sha == data_sha, "the traced run: the dataset differs")
    traced = run_cycle(runner, w, seed, tiny, cwd, spans_dir)
    if runner.failures:
        return None
    check_same_outputs(runner, [traced], cycles[0], "the traced run")
    if runner.failures:
        return None
    return per_layer(gens, cycles, trains, traced_gen, traced, e2e, runner)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny dataset and 3 epochs (self-test only)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mprim", "cli.py")):
        print(f"error: no mprim sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    # the children inherit the CPU, so the probe shares it with each stage
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    # SIGTERM unwinds like an interrupt, so the running child is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    metrics = run_workload(runner, args.workload, args.seed, args.seconds,
                           args.trace, args.tiny, work)
    for failure in runner.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if runner.failures:
        # a failed run reports only how much of it failed
        metrics = {"failed_share": len(runner.failures) / runner.attempted}
        print(f"outputs kept in {work}", file=sys.stderr)
    else:
        shutil.rmtree(work)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass   # another run's outputs are kept there

    units = dict(END_TO_END + PER_LAYER)
    print(f"workload {args.workload} seed {args.seed}:")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not runner.failures else 1


if __name__ == "__main__":
    sys.exit(main())
