"""Guards over the whole package: the names the benchmark tracer wraps,
the one module that holds the checkpoint format, the one file writer and
the one table writer, the settings the trainer takes from its caller,
the one name of a head's basis size, value classes that compare by
identity, library surface (names, defaulted parameters) that nothing in
the package uses, and defaults that only tests rely on."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from mprim import checkpoint, cli, kernels, training

# defaulted parameters that no call in the package passes, each with the
# reason it keeps its default
UNPASSED_DEFAULTS = {
    f"training.TrainReport.{name}": "a report starts empty, and the "
                                    "training loop fills it"
    for name in ("train_batch_loss", "val_loss", "best_epoch",
                 "stopping_reason")}


# names the tracer's table lists that the package no longer has, each
# with the reason; their spans read zero calls
UNWRAPPED = {
    ("mprim.kernels", "dmp_rollout"): "the DMP rolls out through "
    "dmp.linear_responses since the kernel went; the tracer's span moves "
    "there with ROADMAP item 1",
}


def test_names_the_tracer_wraps():
    # perfbench/trace_stage.py wraps the names of its WRAPS table at those
    # modules; a missing name would read as zero calls (the file is read,
    # not changed)
    path = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_trace",
                                                  path / "trace_stage.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _, _ in tracer.WRAPS:
        found = callable(getattr(importlib.import_module(module), attr, None))
        assert found != ((module, attr) in UNWRAPPED), (module, attr)
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


def test_checkpoint_alone_writes_and_reads_the_format():
    # the checkpoint format has one home: no other module imports the
    # base64 codec its arrays are held in, and no class of mprim writes
    # or reads itself (`to_dict`, `from_dict`)
    found = []
    for path in sorted(Path(kernels.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            modules = ([alias.name for alias in node.names]
                       if isinstance(node, ast.Import) else
                       [node.module or ""]
                       if isinstance(node, ast.ImportFrom) else [])
            if (path.stem != "checkpoint"
                    and "base64" in (m.split(".")[0] for m in modules)):
                found.append(f"{path.stem} imports base64")
            if isinstance(node, ast.ClassDef):
                found += [f"{path.stem}.{node.name}.{item.name}"
                          for item in node.body
                          if isinstance(item, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                          and item.name in ("to_dict", "from_dict")]
    assert found == []


def test_one_writer_and_one_table_writer():
    # every file the package writes goes through
    # `jsonio.replace_on_success`: no other module calls `open` with a
    # mode that may write (w, x, a, + or a mode that is not a literal) or
    # a path's write_text or write_bytes. Every CSV table goes through
    # `plots.write_table`: no other module imports csv
    found = []
    for path in sorted(Path(kernels.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            modules = ([alias.name for alias in node.names]
                       if isinstance(node, ast.Import) else
                       [node.module or ""]
                       if isinstance(node, ast.ImportFrom) else [])
            if path.stem != "plots" and "csv" in modules:
                found.append(f"{path.stem} imports csv")
            if path.stem == "jsonio" or not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "attr", None) in ("write_text", "write_bytes"):
                found.append(f"{path.stem}:{node.lineno} {func.attr}")
            if getattr(func, "id", None) == "open":
                mode = (node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"),
                    ast.Constant("r")))
                if not (isinstance(mode, ast.Constant)
                        and isinstance(mode.value, str)
                        and not set(mode.value) & set("wxa+")):
                    found.append(f"{path.stem}:{node.lineno} opens to write")
    assert found == []


def test_train_takes_the_split_and_one_basis_size():
    # the CLI states the split and the head's basis size: `train` has
    # exactly these keywords, none defaulted, and no path that draws a
    # split of its own
    params = inspect.signature(training.train).parameters.values()
    assert [(p.name, p.default) for p in params
            if p.kind is p.KEYWORD_ONLY] == [
        ("basis", inspect.Parameter.empty),
        ("hidden", inspect.Parameter.empty),
        ("split", inspect.Parameter.empty)]
    tree = ast.parse(Path(training.__file__).read_text())
    names = {node.id if isinstance(node, ast.Name) else node.name
             for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.alias))}
    assert "random_split" not in names


def test_every_head_names_its_basis_size_n_basis():
    # the one basis size of a head, ProMP or forcing, has one name: each
    # head's fields start with the same four, its `fit` takes it as
    # `n_basis`, and the trainer and the checkpoint know no other name
    for cls in training.HEADS.values():
        fields = [f.name for f in dataclasses.fields(cls)]
        assert fields[:4] == ["task", "n_joint", "n_samples", "n_basis"], cls
        assert list(inspect.signature(cls.fit).parameters) == [
            "dataset", "train_idx", "n_basis"], cls
    for module in (training, checkpoint):
        assert "n_basis_dmp" not in Path(module.__file__).read_text(), module


def test_value_classes_holding_arrays_compare_by_identity():
    # `==` over an np.ndarray field raises (the truth value of an array
    # is ambiguous), and so does the hash of a frozen class: a dataclass
    # of mprim that holds an array neither generates nor inherits a
    # field-wise __eq__
    found = []
    for path in sorted(Path(kernels.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"mprim.{path.stem}")
        for name, cls in vars(module).items():
            if (dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__
                    and any(f.type is np.ndarray
                            for f in dataclasses.fields(cls))
                    and cls.__eq__ is not object.__eq__):
                found.append(f"{path.stem}.{name}")
    assert found == []


def _call(call, classes, owner):
    """((class or None, name) called, number of positional arguments,
    keywords, whether it unpacks `*args` or `**kwargs`) of `call`, made
    inside class `owner` or None. `C.f(...)` and `cls.f(...)` call class
    C's f, `cls(...)` calls `owner`, and any other call names only its
    function. Positions end at the first `*args`."""
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
    keywords = {k.arg for k in call.keywords}
    return ((receiver, name), n_pos, keywords,
            n_pos < len(call.args) or None in keywords)


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
    # package, or it is in UNPASSED_DEFAULTS with its reason. A default
    # that every call passes serves only tests: each other defaulted
    # parameter is also left out by some call that names its function and
    # unpacks no *args or **kwargs. A class call C(...) passes C's fields
    # and its __init__'s parameters; calls from tests do not count, and
    # *args and **kwargs pass nothing
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

    def calls_of(target):
        (owner, fn), pos, param = target
        for (receiver, name), n_pos, keywords, unpacks in calls:
            if name == fn and receiver in (None, owner):
                yield (param in keywords or pos is not None and pos < n_pos,
                       unpacks)

    unpassed = {q for q, target in defaulted.items()
                if not any(passed for passed, _ in calls_of(target))}
    # no default that nothing passes, and no reason for one that is passed
    assert sorted(unpassed - UNPASSED_DEFAULTS.keys()) == []
    assert sorted(UNPASSED_DEFAULTS.keys() - unpassed) == []
    # and no default that every call passes
    always_passed = {q for q, target in defaulted.items()
                     if q not in UNPASSED_DEFAULTS
                     and not any(not passed and not unpacks
                                 for passed, unpacks in calls_of(target))}
    assert sorted(always_passed) == []
