"""Reading the single-document JSON files: checkpoints, kinematic chain
configs and --config files."""

import json


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
