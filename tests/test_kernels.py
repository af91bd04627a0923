import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from mprim import (checkpoint, cli, dmp, kernels, kinematics, metrics, plots,
                   training)


def mlp_case(seed, sizes=(10, 64, 64, 56), batch=32):
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((a, b))
               for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.standard_normal(b) for b in sizes[1:]]
    x = rng.standard_normal((batch, sizes[0]))
    delta = rng.standard_normal((batch, sizes[-1]))
    return x, weights, biases, delta


def test_names_the_tracer_wraps():
    # perfbench/trace_stage.py wraps these by name at these modules; a
    # missing name would read as zero calls
    wrapped = {
        kernels: ("basis_matrix", "mlp_forward_acts", "mlp_backward_acts"),
        training: ("train", "evaluate", "batch_loss_and_grad", "adam_step",
                   "build_phi"),
        dmp: ("fit_dmp", "rollout_matched"),
        metrics: ("squared_trajectory_loss",),
        kinematics: ("fk_position",),
        checkpoint: ("save", "load"),
        plots: ("write_metrics_csv", "write_joint_csv", "write_ee_path_csv",
                "write_overlay_svg"),
        cli: ("generate_rtp", "generate_wpp", "save_jsonl", "load_jsonl",
              "apply_split"),
    }
    for module, names in wrapped.items():
        for name in names:
            assert callable(getattr(module, name, None)), (module, name)
    # the per-call counts read these arguments by position or name
    for fn, pos, name in ((training.evaluate, 2, "indices"),
                          (kernels.mlp_forward_acts, 0, "x"),
                          (kernels.mlp_backward_acts, 2, "delta_out"),
                          (cli.save_jsonl, 1, "path"),
                          (cli.load_jsonl, 0, "path"),
                          (checkpoint.save, 1, "path"),
                          (checkpoint.load, 0, "path")):
        assert list(inspect.signature(fn).parameters)[pos] == name, fn


def test_every_public_name_has_a_reader_in_the_package():
    # library surface that nothing in the pipeline calls goes, with its
    # tests: each public top-level function and class of mprim is named
    # in the package outside its own definition, as a loaded name, an
    # attribute or an imported name; references from tests do not count
    defined, readers = {}, []
    for path in sorted(Path(kernels.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined[f"{path.stem}.{stmt.name}"] = stmt
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            readers.append((stmt, names))
    assert defined
    unread = [qualified for qualified, stmt in defined.items()
              if not any(stmt.name in names
                         for reader, names in readers if reader is not stmt)]
    assert unread == []


class TestKernels:
    def test_basis_rows_sum_to_one(self):
        out = kernels.basis_matrix(np.linspace(0, 1, 150),
                                   np.linspace(0, 1, 8), 0.02)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_forward_repeatable(self):
        x, weights, biases, _ = mlp_case(0)
        a = kernels.mlp_forward_acts(x, weights, biases)[-1]
        b = kernels.mlp_forward_acts(x, weights, biases)[-1]
        np.testing.assert_array_equal(a, b)
