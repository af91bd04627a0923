"""Guards over the whole package: the names the benchmark tracer wraps,
and library surface (names, defaulted parameters) that nothing in the
package uses."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

from mprim import (checkpoint, cli, dmp, kernels, kinematics, metrics, plots,
                   training)

# defaulted parameters that no call in the package passes, each with the
# reason it keeps its default
UNPASSED_DEFAULTS = {
    "cli.main.argv": "the console script calls main() with no arguments, "
                     "and main then reads sys.argv",
    "training.ResidualHead.fit.n_basis": "train passes each head's basis "
                                         "size through **size",
    "training.DmpHead.fit.n_basis_dmp": "train passes each head's basis "
                                        "size through **size",
    **{f"training.TrainReport.{name}": "a report starts empty, and the "
                                       "training loop fills it"
       for name in ("train_batch_loss", "val_loss", "best_epoch",
                    "stopping_reason")},
}


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


def _call(call, classes, owner):
    """((class or None, name) called, number of positional arguments,
    keywords) of `call`, made inside class `owner` or None. `C.f(...)` and
    `cls.f(...)` call class C's f, `cls(...)` calls `owner`, and any other
    call names only its function. Positions end at the first `*args`."""
    func, receiver = call.func, None
    if isinstance(func, ast.Name):
        name = owner if func.id == "cls" else func.id
    elif isinstance(func, ast.Attribute):
        name, receiver = func.attr, getattr(func.value, "id", None)
        receiver = owner if receiver == "cls" else (
            receiver if receiver in classes else None)
    else:
        name = None
    n_pos = next((i for i, arg in enumerate(call.args)
                  if isinstance(arg, ast.Starred)), len(call.args))
    return (receiver, name), n_pos, {k.arg for k in call.keywords}


def _defaulted(fn, method):
    """(position or None for keyword-only, name) of each defaulted
    parameter of the def `fn`; a method's position leaves out its first
    parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if method and not any(getattr(d, "id", None) == "staticmethod"
                          for d in fn.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    yield from ((i, arg.arg) for i, arg in enumerate(positional)
                if i >= first)
    yield from ((None, arg.arg) for arg, default
                in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None)


def test_every_defaulted_parameter_is_passed_in_the_package():
    # a default that no call overrides is a knob that no boundary can set:
    # each defaulted parameter of a function, a method or a dataclass of
    # mprim is passed, by keyword or by position, by some call in the
    # package, or it is in UNPASSED_DEFAULTS with its reason. A class call
    # C(...) passes C's fields and its __init__'s parameters; calls from
    # tests do not count, and *args and **kwargs pass nothing
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(kernels.__file__).parent.glob("*.py"))}
    classes = {stmt.name for tree in trees.values() for stmt in tree.body
               if isinstance(stmt, ast.ClassDef)}
    # qualified name -> ((class or None, name) to call, position, name)
    defaulted, calls = {}, []

    def visit(node, where, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{where}.{child.name}", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = isinstance(node, ast.ClassDef)
                callee = ((None, owner) if method and child.name == "__init__"
                          else (owner if method else None, child.name))
                for pos, name in _defaulted(child, method):
                    defaulted[f"{where}.{child.name}.{name}"] = (callee, pos,
                                                                 name)
                visit(child, f"{where}.{child.name}", owner)
            else:
                if isinstance(child, ast.Call):
                    calls.append(_call(child, classes, owner))
                visit(child, where, owner)

    for stem, tree in trees.items():
        visit(tree, stem, None)
        module = importlib.import_module(f"mprim.{stem}")
        for stmt in tree.body:
            cls = (getattr(module, stmt.name)
                   if isinstance(stmt, ast.ClassDef) else None)
            if not dataclasses.is_dataclass(cls):
                continue
            fields = [f for f in dataclasses.fields(cls) if f.init]
            for pos, f in enumerate(fields):
                if f.default is f.default_factory is dataclasses.MISSING:
                    continue   # no default
                defaulted[f"{stem}.{stmt.name}.{f.name}"] = (
                    (None, stmt.name), pos, f.name)
    assert defaulted

    def passes(call, target):
        (receiver, name), n_pos, keywords = call
        (owner, fn), pos, param = target
        return (name == fn and receiver in (None, owner)
                and (param in keywords or pos is not None and pos < n_pos))

    unpassed = {q for q, target in defaulted.items()
                if not any(passes(call, target) for call in calls)}
    # no default that nothing passes, and no reason for one that is passed
    assert sorted(unpassed - UNPASSED_DEFAULTS.keys()) == []
    assert sorted(UNPASSED_DEFAULTS.keys() - unpassed) == []
