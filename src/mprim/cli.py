"""Command-line entry point.

Subcommands:
  generate   synthesize a demonstration dataset (JSONL + manifest)
  train      fit a model on a dataset (checkpoint + loss CSV + manifest)
  eval       grouped metrics and plot artifacts for a checkpoint

Every command writes a JSON run manifest listing its arguments, resolved
configuration, seed and the sha256 of every input and output file, so a
run can be reproduced from the manifest alone. Exit codes: 0 success,
2 usage error, 1 runtime failure. The seed falls back to the MPRIM_SEED
environment variable when --seed is not given. `--config FILE`, given
before the subcommand, supplies flag defaults from a JSON object; the file
is then one of the run's inputs.

Reproducibility: with the same arguments and seed, every output is bit
for bit identical for the same numpy build, BLAS kernel and CPU dispatch
target, at 1 or 2 BLAS threads. Across BLAS kernels or CPU dispatch
targets the bits move (matmul and solve follow the BLAS kernel, exp
follows numpy's dispatch), and the deep-mp metrics move within their
seed-to-seed spread.

A subcommand imports only what it runs. `generate` loads `dataset` and
what it imports (`errors`, `jsonio`); `train` and `eval` import the
trainer and the modules they read and write with when they start.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from mprim.dataset import (RTP_DEFAULT_COUNTS, WPP_DEFAULT_TRIALS, WPP_SPLITS,
                           apply_split, generate_rtp, generate_wpp,
                           load_jsonl, save_jsonl)
from mprim.jsonio import read_json_object


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _inputs(args, *paths):
    """Input files of a run: `paths` plus the --config file, if given."""
    return [*paths, *([args.config] if args.config is not None else [])]


def _write_manifest(path, command, argv, config, seed, inputs, outputs):
    doc = {
        "schema": 1,
        "command": command,
        "argv": list(argv),
        "config": config,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_hidden(text):
    try:
        sizes = tuple(int(tok) for tok in text.split(",") if tok.strip())
        if all(size >= 1 for size in sizes):
            return sizes
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"bad hidden layer list {text!r}, expected sizes >= 1, e.g. 64,64")


def _int_from(low):
    """argparse type of an integer >= `low`."""
    def integer(text):
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {low}, got {text!r}")
    return integer


def _finite(low, inclusive=False):
    """argparse type of a finite number above `low`, or at least `low` when
    `inclusive`."""
    def number(text):
        value = float(text)
        if not (np.isfinite(value) and (value > low or
                                        inclusive and value == low)):
            raise argparse.ArgumentTypeError(
                f"expected a finite number {'>=' if inclusive else '>'} "
                f"{low}, got {text!r}")
        return value
    return number


def _parse_counts(text):
    try:
        parts = [_int_from(1)(tok) for tok in text.split(",")]
    except argparse.ArgumentTypeError:
        parts = []
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"counts must be 4 integers >= 1, a,b,c,d, got {text!r}")
    return parts


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mprim",
        description="movement-primitives learning pipeline")
    parser.add_argument(
        "--config", type=Path, default=None,
        help="JSON object of flag defaults, keyed by flag destination "
             "(e.g. batch_size for --batch-size); values are checked like "
             "the flags, and flags given on the command line win")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a demo dataset")
    gen.add_argument("--kind", choices=("rtp", "wpp"), required=True)
    gen.add_argument("--seed", type=_int_from(0), default=None)
    gen.add_argument("--out", type=Path, required=True)
    gen.add_argument("--counts", type=_parse_counts, default=None,
                     help="rtp region counts a,b,c,d")
    gen.add_argument("--trials", type=_int_from(1),
                     default=WPP_DEFAULT_TRIALS,
                     help="wpp trials per pattern/configuration cell")
    gen.add_argument("--noise", type=_finite(0.0, inclusive=True),
                     default=0.0,
                     help="rtp joint noise standard deviation (rad)")

    tr = sub.add_parser("train", help="train a model on a dataset")
    tr.add_argument("--data", type=Path, required=True)
    tr.add_argument("--method", choices=("deep-mp", "residual", "ddmp"),
                    required=True)
    tr.add_argument("--task", choices=("rtp", "wpp"), default=None,
                    help="must equal the dataset kind, which sets the task")
    tr.add_argument("--split", default=None,
                    help="WPP1..WPP10 pattern split (default: random)")
    tr.add_argument("--epochs", type=_int_from(0), default=None,
                    help="default 150 for rtp data, 200 for wpp")
    tr.add_argument("--batch-size", type=_int_from(1), default=32)
    tr.add_argument("--lr", type=_finite(0.0), default=1e-3)
    tr.add_argument("--seed", type=_int_from(0), default=None)
    tr.add_argument("--hidden", type=_parse_hidden, default=None,
                    help="hidden layer sizes (default 64,64)")
    tr.add_argument("--n-basis", type=_int_from(1), default=None,
                    help="default 8 for rtp data, 10 for wpp")
    tr.add_argument("--n-basis-dmp", type=_int_from(1), default=None,
                    help="default 25")
    tr.add_argument("--tau", type=_finite(0.0), default=None,
                    help="no effect: the attractor works in unit time; "
                         "still parsed so that older command lines run")
    tr.add_argument("--patience", type=_int_from(1), default=20)
    tr.add_argument("--out", type=Path, required=True)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--data", type=Path, required=True)
    ev.add_argument("--checkpoint", type=Path, required=True)
    ev.add_argument("--outdir", type=Path, required=True)
    ev.add_argument("--plot-samples", type=_int_from(0), default=2)
    ev.add_argument("--chain", type=Path, default=None,
                    help="kinematic chain config (default: built-in chain)")
    return parser


def cmd_generate(args, argv):
    if args.kind == "rtp":
        dataset = generate_rtp(args.seed, counts=args.counts,
                               noise_std=args.noise)
        config = {"kind": "rtp",
                  "counts": args.counts or list(RTP_DEFAULT_COUNTS.values()),
                  "noise": args.noise}
    else:
        dataset = generate_wpp(args.seed, trials_per_cell=args.trials)
        config = {"kind": "wpp", "trials": args.trials}
    save_jsonl(dataset, args.out)
    _write_manifest(args.out.with_suffix(args.out.suffix + ".manifest.json"),
                    "generate", argv, config, args.seed, _inputs(args),
                    [args.out])
    print(f"wrote {len(dataset)} samples to {args.out}")
    return 0


def cmd_train(args, argv):
    from mprim import checkpoint, training

    dataset = load_jsonl(args.data)
    epochs = args.epochs
    if epochs is None:
        epochs = (training.DEFAULT_EPOCHS_WPP if dataset.kind == "wpp"
                  else training.DEFAULT_EPOCHS_RTP)
    hidden = (training.DEFAULT_HIDDEN if args.hidden is None
              else args.hidden)
    n_basis_dmp = (training.DEFAULT_N_BASIS_DMP if args.n_basis_dmp is None
                   else args.n_basis_dmp)
    cfg = training.TrainConfig(epochs=epochs, batch_size=args.batch_size,
                               learning_rate=args.lr, seed=args.seed,
                               early_stop_patience=args.patience)
    if args.task not in (None, dataset.kind):
        raise ValueError(f"--task {args.task}: {args.data} holds "
                         f"{dataset.kind} demos, which set the task")
    split = None
    if args.split is not None:
        if args.split not in WPP_SPLITS:
            raise ValueError(f"--split {args.split}: unknown split; expected "
                             f"one of {', '.join(WPP_SPLITS)}")
        try:
            split = apply_split(dataset, WPP_SPLITS[args.split], args.seed)
        except ValueError as err:
            raise ValueError(f"--split {args.split}: {args.data} holds "
                             f"{dataset.kind} demos: {err}") from None
    model, report = training.train(
        args.method, dataset, cfg, n_basis=args.n_basis, hidden=hidden,
        n_basis_dmp=n_basis_dmp, split=split)

    config = {"method": args.method, "epochs": epochs,
              "batch_size": args.batch_size, "lr": args.lr,
              "hidden": list(hidden), "n_basis": args.n_basis,
              "n_basis_dmp": n_basis_dmp, "split": args.split,
              "patience": args.patience, "data": str(args.data)}
    meta = {"config": config, "seed": args.seed,
            "stopping_reason": report.stopping_reason,
            "best_epoch": report.best_epoch,
            "final_epoch": report.final_epoch,
            "final_train_batch_loss": (report.train_batch_loss[-1]
                                       if report.train_batch_loss else None),
            "final_val_loss": (report.val_loss[-1]
                               if report.val_loss else None)}
    checkpoint.save(model, args.out, meta=meta)
    curve_path = args.out.with_name(args.out.stem + "_losses.csv")
    report.write_csv(curve_path)
    _write_manifest(args.out.with_suffix(args.out.suffix + ".manifest.json"),
                    "train", argv, config, args.seed,
                    _inputs(args, args.data), [args.out, curve_path])
    print(f"trained {args.method} for {report.final_epoch} epochs "
          f"({report.stopping_reason}); checkpoint at {args.out}")
    return 0


def cmd_eval(args, argv):
    from mprim import checkpoint, kinematics, plots, training

    dataset = load_jsonl(args.data)
    model = checkpoint.load(args.checkpoint)
    chain = (kinematics.load_chain(args.chain) if args.chain
             else kinematics.DEFAULT_CHAIN)
    model.check_fits(dataset)
    if chain.n_joints != dataset.n_joint:
        raise ValueError(f"kinematic chain {args.chain or '(built-in)'} has "
                         f"{chain.n_joints} joints, but the dataset's "
                         f"trajectories have {dataset.n_joint}")
    indices = np.asarray(model.test_indices, dtype=int)
    if len(indices) == 0:
        print("checkpoint has no held-out samples; evaluating full dataset",
              file=sys.stderr)
        indices = np.arange(len(dataset))

    records, overall, pred = training.evaluate(model, dataset, indices,
                                               chain)
    seen = {rec.group for rec in records}
    everywhere = set(training.group_keys(dataset).tolist())
    for missing in sorted(everywhere - seen):
        print(f"warning: group {missing!r} has no test samples, row omitted",
              file=sys.stderr)

    args.outdir.mkdir(parents=True, exist_ok=True)
    metrics_path = args.outdir / "metrics.csv"
    plots.write_metrics_csv(metrics_path, records + [overall])

    outputs = [metrics_path]
    # the plotted samples are the first rows that `evaluate` scored; one
    # FK call covers their ground truths and predictions
    shown = indices[:args.plot_samples]
    truth, pred = dataset.trajectories[shown], pred[:len(shown)]
    ee_gt, ee_pred = kinematics.fk_position(chain, np.stack([truth, pred]))
    for i, gt_values, pred_values, gt_xyz, pred_xyz in zip(
            shown, truth, pred, ee_gt, ee_pred):
        joints_path = args.outdir / f"sample_{int(i)}_joints.csv"
        ee_path = args.outdir / f"sample_{int(i)}_ee_path.csv"
        svg_path = args.outdir / f"sample_{int(i)}_overlay.svg"
        plots.write_joint_csv(joints_path, gt_values, pred_values)
        plots.write_ee_path_csv(ee_path, gt_xyz, pred_xyz)
        plots.write_overlay_svg(svg_path, gt_values, pred_values)
        outputs += [joints_path, ee_path, svg_path]

    config = {"data": str(args.data), "checkpoint": str(args.checkpoint),
              "plot_samples": args.plot_samples,
              "chain": str(args.chain) if args.chain else None}
    _write_manifest(args.outdir / "manifest.json", "eval", argv, config,
                    None, _inputs(args, args.data, args.checkpoint), outputs)
    for rec in records + [overall]:
        print(f"{rec.group}: ave_mse={rec.ave_mse:.6f} rad^2  "
              f"ave_ed={rec.ave_ed_mm:.2f} mm  (n={rec.count})")
    return 0


def _config_value(action, value):
    """A config file's `value` for `action`, converted and checked the way
    argparse treats the same text given as the flag; a list is its
    comma-joined form (e.g. counts [4, 2, 2, 2] is --counts 4,2,2,2)."""
    items = value if isinstance(value, list) else [value]
    if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool)
               for v in items):
        raise argparse.ArgumentTypeError(
            f"expected a string, a number or a list of them, "
            f"got {json.dumps(value)}")
    text = ",".join(map(str, items))
    result = action.type(text) if action.type else text
    if action.choices is not None and result not in action.choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice {result!r} (choose from "
            f"{', '.join(map(repr, action.choices))})")
    return result


def _apply_config(parser, path):
    """Make the values of the --config file at `path` the defaults of every
    subcommand that has the key as a flag destination. The file may be shared
    across subcommands, so a key need only belong to one of them. An
    unreadable or malformed file, an unknown key or a bad value exits 2."""
    try:
        values = read_json_object(path)
    except OSError as err:
        parser.error(f"cannot read config file {path}: {err.strerror}")
    except ValueError as err:
        parser.error(f"config file {err}")
    actions = {}
    for sub in parser._subparsers._group_actions[0].choices.values():
        for action in sub._actions:
            if action.dest != "help":
                actions.setdefault(action.dest, []).append((sub, action))
    for key, value in values.items():
        if key not in actions:
            parser.error(f"config file {path}: unknown key {key!r}; keys are "
                         f"flag destinations: {', '.join(sorted(actions))}")
        for sub, action in actions[key]:
            try:
                default = _config_value(action, value)
            except (argparse.ArgumentTypeError, ValueError) as err:
                parser.error(f"config file {path}: bad value for {key!r}: "
                             f"{err}")
            sub.set_defaults(**{key: default})
            action.required = False


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    # a config file supplies defaults; explicit flags still win. Only
    # --config is probed for: the full parser would reject a subcommand's
    # required flags before the file could supply them.
    probe = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    probe.add_argument("--config", type=Path, default=None)
    config = probe.parse_known_args(argv)[0].config
    if config is not None:
        _apply_config(parser, config)
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) is None:   # --seed not given
        env = os.environ.get("MPRIM_SEED")
        try:
            args.seed = _int_from(0)(env) if env else 0
        except argparse.ArgumentTypeError as err:
            parser.error(f"environment variable MPRIM_SEED: {err}")
    if args.command == "generate" and args.kind == "wpp" and args.noise:
        parser.error("argument --noise: applies to --kind rtp only; "
                     "wpp demos have no joint noise")
    handler = {"generate": cmd_generate, "train": cmd_train,
               "eval": cmd_eval}[args.command]
    try:
        return handler(args, argv)
    except Exception as err:   # runtime failure -> exit 1, usage is argparse's 2
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
