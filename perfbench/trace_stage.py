"""Run one `mprim` CLI stage with a span around every call into each layer.

Usage: python3 trace_stage.py SPANS_JSON generate|train|eval [flags...]

The wrappers replace each public function at the name its caller looks it
up by (`mprim.training.adam_step` is imported by name, while
`mprim.kernels.mlp_forward_acts` is looked up through the module), so no
file of the package changes. A wrapped name that a version of the package
does not have is skipped and its layer reads as zero calls.

Spans are kept in memory as [name, start, end, parent, count] and written
to SPANS_JSON when the stage ends; `count` is a per-call work figure
(rows, steps, bytes, epochs) or 0. The exit code is the stage's own.
"""

import importlib
import json
import os
import sys
import time

_t0 = time.perf_counter()
import mprim.cli  # noqa: E402  (timed: a user pays this on every stage)
IMPORT_S = time.perf_counter() - _t0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(pos, name):
    return lambda a, k, r: int(_arg(a, k, pos, name).shape[0])


def _file_bytes(pos, name):
    return lambda a, k, r: os.path.getsize(_arg(a, k, pos, name))


def _epochs(a, k, result):
    report = result[1]
    return [report.final_epoch, report.best_epoch]


# (module, attribute, span name, per-call count or None)
WRAPS = [
    ("mprim.cli", "generate_rtp", "dataset.generate", None),
    ("mprim.cli", "generate_wpp", "dataset.generate", None),
    ("mprim.cli", "save_jsonl", "dataset.save_jsonl", _file_bytes(1, "path")),
    ("mprim.cli", "load_jsonl", "dataset.load_jsonl", _file_bytes(0, "path")),
    ("mprim.cli", "apply_split", "dataset.apply_split", None),
    ("mprim.training", "train", "training.train", _epochs),
    ("mprim.training", "evaluate", "training.evaluate", _rows(2, "indices")),
    ("mprim.training", "batch_loss_and_grad", "regressor.loss_grad", None),
    ("mprim.training", "adam_step", "regressor.adam_step", None),
    ("mprim.training", "build_phi", "basis.build_phi", None),
    ("mprim.training", "reconstruct", "promp.reconstruct", None),
    ("mprim.kernels", "mlp_forward_acts", "kernels.mlp_forward",
     _rows(0, "x")),
    ("mprim.kernels", "mlp_backward_acts", "kernels.mlp_backward",
     _rows(2, "delta_out")),
    ("mprim.kernels", "dmp_rollout", "kernels.dmp_rollout",
     lambda a, k, r: int(_arg(a, k, 10, "steps"))),
    ("mprim.kernels", "basis_matrix", "kernels.basis_matrix", None),
    ("mprim.dmp", "fit_dmp", "dmp.fit_dmp", None),
    ("mprim.dmp", "rollout_matched", "dmp.rollout_matched", None),
    ("mprim.metrics", "squared_trajectory_loss",
     "metrics.squared_trajectory_loss", None),
    ("mprim.kinematics", "fk_position", "kinematics.fk", None),
    ("mprim.checkpoint", "save", "checkpoint.save", _file_bytes(1, "path")),
    ("mprim.checkpoint", "load", "checkpoint.load", _file_bytes(0, "path")),
    ("mprim.plots", "write_metrics_csv", "plots.write", None),
    ("mprim.plots", "write_joint_csv", "plots.write", None),
    ("mprim.plots", "write_ee_path_csv", "plots.write", None),
    ("mprim.plots", "write_overlay_svg", "plots.write", None),
]


class Tracer:
    """Nested spans of one process, parents recorded by index."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self, wraps):
        for module_name, attr, name, count in wraps:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if callable(getattr(module, attr, None)):
                setattr(module, attr, self.wrap(getattr(module, attr), name,
                                                count))


def main(argv):
    spans_path, stage_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(WRAPS)
    stage = tracer.wrap(mprim.cli.main, "cli.main")
    rc = 1
    try:
        rc = stage(stage_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": IMPORT_S, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
