"""Reading the single-document JSON files (checkpoints, kinematic chain
configs and --config files), and writing a file whole or not at all."""

import contextlib
import json
import os


@contextlib.contextmanager
def replace_on_success(path):
    """A text file to write in place of the file at `path`.

    The text goes to a new file next to `path`, which replaces `path`
    only when the block exits without an exception. On an exception the
    new file is removed, so an existing `path` stays as it was and a
    missing one stays missing."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def read_json_object(path, what=None):
    """The JSON object in the file at `path`.

    Text that is not UTF-8 or not JSON and a document that is not an
    object raise ValueError naming the file and the byte, the JSON line
    or, when given, `what` the object should have been. OSError passes
    through."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text at byte "
                         f"{err.start}") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid JSON at line {err.lineno} "
                         f"column {err.colno}: {err.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}{' is not ' + what if what else ''}: "
                         f"expected a JSON object, got a "
                         f"{type(doc).__name__}")
    return doc
