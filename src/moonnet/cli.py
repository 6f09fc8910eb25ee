"""Command-line entry point.

Subcommands: train, gradcheck, evaluate, augment-preview, stats, sweep.
The config flags of train and sweep are the config-file keys with dashes
(``--steps-per-epoch``; ``--design`` and ``--size`` alias ``--design-id`` and
``--input-size``) and override a ``--config`` file (flat key=value).
Exit codes: 0 success, 1 validation or file error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import sys
from pathlib import Path

import numpy as np

from . import gradcheck as gc
from .augment import (AnnotationError, AugmentPackage, apply_package, load_annotations,
                      save_annotations)
from .checkpoint import CheckpointError
from .config import CODECS, ConfigError, ExperimentConfig, load_config_file, set_field
from .metrics import evaluate, mean_box_area
from .train import (
    SyntheticPatchTask,
    TrainingDiverged,
    evaluate_model,
    sweep,
    sweep_table,
    train,
)

_ALIASES = {"design_id": ["--design"], "input_size": ["--size"]}


def _choices(kind) -> list[str] | None:
    """The text of every member of an enum field type; None for numbers."""
    return [CODECS[kind][1](m) for m in kind] if issubclass(kind, enum.Enum) else None


def _add_config_flags(p: argparse.ArgumentParser):
    """One flag per config field, ``--key-with-dashes``, taking the key's text."""
    p.add_argument("--config", type=Path, help="key=value config file")
    for f in dataclasses.fields(ExperimentConfig):
        p.add_argument("--" + f.name.replace("_", "-"), *_ALIASES.get(f.name, []),
                       dest=f.name, choices=_choices(f.type))


def _build_config(args, axes=()) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config is not None:
        cfg = load_config_file(args.config, cfg)
    for f in dataclasses.fields(cfg):
        text = getattr(args, f.name)
        if text is not None and f.name in axes:
            flags = "/".join(["--" + f.name.replace("_", "-"), *_ALIASES.get(f.name, [])])
            raise ConfigError(f"{f.name!r} is set by both --over and {flags}; give it once")
        if text is not None:
            set_field(cfg, f.name, text)
    return cfg


def _seed(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _load_detection_dir(path: Path, class_ids: dict[str, int]):
    """One annotation file per image, in sorted filename order; DOTA class
    names map through ``class_ids``, shared between directories."""
    files = sorted(p for p in Path(path).iterdir() if p.suffix == ".txt")
    if not files:
        raise AnnotationError(f"no .txt annotation files in {path}")
    return files, [load_annotations(f, class_ids) for f in files]


def cmd_train(args) -> int:
    cfg = _build_config(args)
    state = train(cfg, out_dir=args.out, target_accuracy=args.target_accuracy)
    print(f"trained {state.steps_run} steps; final loss "
          f"{state.losses[-1]:.4f}, trailing accuracy {state.final_accuracy:.4f}")
    if args.out is not None:
        print(f"checkpoint: {args.out / 'final.ckpt'}")
    return 0


def cmd_gradcheck(args) -> int:
    reports = gc.run_full_suite(_seed(args))
    print(gc.format_reports(reports))
    return 0 if all(r.passed for r in reports) else 2


def cmd_evaluate(args) -> int:
    # one class-name map, filled from the ground truth first
    class_ids: dict[str, int] = {}
    gt_files, gts = _load_detection_dir(args.gt, class_ids)
    pred_files, preds = _load_detection_dir(args.preds, class_ids)
    gt_names = {f.name for f in gt_files}
    orphans = [f for f in pred_files if f.name not in gt_names]
    if orphans:
        raise AnnotationError(f"{orphans[0]}: no ground-truth file of the same name "
                              f"in {args.gt}")
    # an image with no prediction file has no detections
    pred_by_name = {f.name: p for f, p in zip(pred_files, preds)}
    preds_aligned = [pred_by_name.get(f.name, []) for f in gt_files]
    result = evaluate(preds_aligned, gts)
    if result.evaluated_classes == 0:
        raise AnnotationError(f"--gt {args.gt}: no ground-truth box to score "
                              f"(no boxes, or every box is difficult)")
    print(f"{'metric':>10s} {'value':>8s}")
    for key, val in result.as_dict().items():
        print(f"{key:>10s} {val:8.4f}")
    if args.out is not None:
        lines = [f"{k}={v:.6f}" for k, v in result.as_dict().items()]
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_augment_preview(args) -> int:
    pkg = CODECS[AugmentPackage][0](args.package)
    seed = _seed(args)
    task = SyntheticPatchTask(args.size, AugmentPackage.VER1)
    li = task.sample(seed)
    out = apply_package(pkg, li, seed)
    print(f"{args.package}: {len(li.boxes)} boxes in, {len(out.boxes)} out; "
          f"image {out.height}x{out.width}")
    for b in out.boxes:
        print(f"  ({b.x1:.1f}, {b.y1:.1f}, {b.x2:.1f}, {b.y2:.1f}) class {b.class_id}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        # an explicit suffix: np.save adds ".npy" only to a name that lacks it
        np.save(f"{args.out}.npy", out.image.values)
        save_annotations(f"{args.out}.txt", out.boxes)
        print(f"wrote {args.out}.npy and {args.out}.txt")
    return 0


def cmd_stats(args) -> int:
    class_ids: dict[str, int] = {}
    boxes = []
    root = Path(args.annotations)
    files = sorted(root.glob("*.txt")) if root.is_dir() else [root]
    for f in files:
        boxes += load_annotations(f, class_ids)
    if not boxes:
        print("no boxes found", file=sys.stderr)
        return 1
    mean, side = mean_box_area(boxes)
    print(f"boxes: {len(boxes)}")
    print(f"mean area: {mean:.1f} px^2 ({side:.1f} x {side:.1f})")
    return 0


def cmd_sweep(args) -> int:
    axes = {}
    for key, _, values in (spec.partition("=") for spec in args.over):
        if key in axes:
            raise ConfigError(f"--over names {key!r} twice")
        axes[key] = values.split(",")
    print(sweep_table(sweep(_build_config(args, axes), axes)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moonnet",
        description="attention-gated CNN backbones, verification harness, and "
                    "detection metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a patch model on the synthetic task")
    _add_config_flags(p)
    p.add_argument("--out", type=Path, help="output directory for checkpoints and logs")
    p.add_argument("--target-accuracy", type=float, default=None,
                   help="stop early once the trailing mean accuracy reaches this")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", help="run the finite-difference oracle suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("evaluate", help="detection metrics from annotation dirs")
    p.add_argument("--gt", type=Path, required=True, help="ground-truth annotation dir")
    p.add_argument("--preds", type=Path, required=True, help="prediction annotation dir")
    p.add_argument("--out", type=Path, help="machine-readable metrics file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("augment-preview", help="apply an augmentation package to a sample")
    p.add_argument("--package", choices=_choices(AugmentPackage), default="ver3")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, help="basename for .npy image and .txt boxes")
    p.set_defaults(func=cmd_augment_preview)

    p = sub.add_parser("stats", help="mean box area over an annotation dir")
    p.add_argument("annotations", type=Path)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sweep", help="train and evaluate every cell of a grid of config values")
    _add_config_flags(p)
    p.add_argument("--over", action="append", default=[], metavar="KEY=V1,V2",
                   help="one axis of the grid: a config key and its values (repeatable)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        # a diverging run overflows on its way to TrainingDiverged: one line, no warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    # ConfigError and AnnotationError, and NumPy's "array is too big" for an
    # impossible size
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    # CheckpointError is an OSError, so this clause must come before the next
    except (TrainingDiverged, CheckpointError, RuntimeError, MemoryError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
