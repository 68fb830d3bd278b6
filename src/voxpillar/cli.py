"""Command-line surface: voxelize, forward, density, recall, iou-check, selftest."""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .backbone import (output_records, plan_forward, point_encoder_shapes, required_weights,
                       run_forward, step1_tensors)
from .config import config_from_json
from .density import recall_by_density, vertical_density
from .errors import VoxPillarError
from .formats import (FormatError, _atomic_write_bytes, _read_json, dump_record_bytes,
                      load_boxes, read_cloud, write_csv, write_dump)
from .grid import voxelize
from .manifest import gib, load_manifest, resolve_weights
from .selftest import (IOU_CHECK_BYTES_CAP, IOU_TOLERANCE, MC_BYTES_PER_SAMPLE,
                       iou_monte_carlo_errors, run_selftest)


def _count(low: int, item_bytes: int = 0):
    """An argparse type: an integer of at least `low`, 0 or 1, whose `item_bytes`-byte
    items fit IOU_CHECK_BYTES_CAP."""
    what = "a positive integer" if low else "a non-negative integer"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {value}")
        if value * item_bytes > IOU_CHECK_BYTES_CAP:
            raise argparse.ArgumentTypeError(
                f"{value} needs {gib(value * item_bytes)} GiB of arrays, above the "
                f"{IOU_CHECK_BYTES_CAP >> 30} GiB cap")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voxpillar",
                                     description="Sparse voxel-pillar encoding engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("voxelize", help="write the initial sparse voxel/pillar tensors")
    p.add_argument("cloud")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("forward", help="run the backbone and write the readout")
    p.add_argument("cloud")
    p.add_argument("--config", required=True)
    p.add_argument("--weights")
    p.add_argument("--dump-intermediates", dest="dump_dir")
    p.add_argument("--variant", choices=("dense", "sparse"))
    p.add_argument("--out")

    p = sub.add_parser("density", help="per-box vertical density records as CSV")
    p.add_argument("cloud")
    p.add_argument("boxes")
    p.add_argument("--out", required=True)

    p = sub.add_parser("recall", help="recall grouped by vertical density as CSV")
    p.add_argument("gt")
    p.add_argument("pred")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("iou-check", help="validate clipped IoU against Monte-Carlo sampling")
    p.add_argument("--trials", type=_count(1, 8), default=50)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--samples", type=_count(1, MC_BYTES_PER_SAMPLE), default=1_000_000)

    sub.add_parser("selftest", help="run all oracle suites")
    return parser


def _load_run(args):
    doc = _read_json(args.config, "config")
    # --variant replaces the file's variant; channel plans the file does not
    # pin take that variant's defaults
    backbone = doc.get("backbone", {}) if isinstance(doc, dict) else None
    if getattr(args, "variant", None) and isinstance(backbone, dict):
        doc["backbone"] = {**backbone, "variant": args.variant}
    return config_from_json(doc)


def _model_tensors(cfg, weights_path, required):
    path = cfg.weights_path if weights_path is None else weights_path
    if path == "":
        raise FormatError("the weights path is empty; name a manifest, or omit the path to "
                          "use seeded weights")
    manifest = load_manifest(path) if path is not None else None
    return resolve_weights(required, manifest, seed=cfg.seed)


def cmd_voxelize(args) -> int:
    cfg = _load_run(args)
    points = read_cloud(args.cloud)
    # Seeded tensors are keyed by name, so resolving only the point encoder
    # gives the same values as resolving the whole model.
    tensors = _model_tensors(cfg, None, point_encoder_shapes(cfg.backbone))
    cloud = voxelize(points, cfg.grid)
    voxels, pillars = step1_tensors(cloud, tensors)
    write_dump(args.out, [
        ("voxels", voxels.coords, voxels.features, voxels.stride, voxels.extents),
        ("pillars", pillars.coords, pillars.features, pillars.stride, pillars.extents),
    ])
    print(f"wrote {voxels.num_sites} voxels, {pillars.num_sites} pillars to {args.out}; "
          f"dropped {cloud.dropped} points out of range", file=sys.stderr)
    return 0


def cmd_forward(args) -> int:
    cfg = _load_run(args)
    points = read_cloud(args.cloud)
    tensors = _model_tensors(cfg, args.weights, required_weights(cfg.grid, cfg.backbone))
    # Overflowing weights give a readout that is not finite. Encoding it reports that,
    # with or without an output file, as the one error line, so NumPy's warnings are off.
    plan = plan_forward(points, cfg.grid, cfg.backbone)
    with np.errstate(over="ignore", invalid="ignore"):
        pairs, readout = run_forward(plan, tensors)
    records = output_records(pairs, readout)
    readout_bytes = dump_record_bytes(*records[-1])
    if args.dump_dir:
        os.makedirs(args.dump_dir, exist_ok=True)
        for s in range(len(pairs)):
            write_dump(os.path.join(args.dump_dir, f"step{s + 1}.vpt"), records[2 * s:2 * s + 2])
        _atomic_write_bytes(os.path.join(args.dump_dir, "readout.vpt"), readout_bytes)
    if args.out:
        _atomic_write_bytes(args.out, readout_bytes)
    if cfg.backbone.variant == "dense":
        shape = readout.values.shape
        summary = f"dense readout {shape[0]}x{shape[1]}x{shape[2]}"
    else:
        summary = f"sparse readout {readout.num_sites} sites x {readout.num_channels} channels"
    print(f"{summary} at stride {readout.stride}; dropped {plan.cloud.dropped} points out "
          f"of range", file=sys.stderr)
    return 0


def cmd_density(args) -> int:
    points = read_cloud(args.cloud)
    boxes = load_boxes(args.boxes)
    rows = []
    for entry in boxes:
        rec = vertical_density(points, entry["box"], box_id=entry["id"])
        rows.append((rec.box_id, rec.s_z, rec.point_count, rec.horizontal_occupancy))
    write_csv(args.out, ["box_id", "s_z", "point_count", "horizontal_occupancy"], rows)
    print(f"wrote {len(rows)} density records to {args.out}", file=sys.stderr)
    return 0


def cmd_recall(args) -> int:
    if not 0.0 < args.threshold < 1.0:
        raise FormatError(f"threshold must lie in (0, 1), got {args.threshold}")
    gts = load_boxes(args.gt)
    preds = load_boxes(args.pred)
    rows = recall_by_density(
        [g["box"] for g in gts], [g["class"] for g in gts], [g["points"] for g in gts],
        [p["box"] for p in preds], [p["class"] for p in preds], args.threshold)
    write_csv(args.out, ["s_z", "num_gt", "num_recalled", "recall"], rows)
    print(f"wrote {len(rows)} recall rows to {args.out}", file=sys.stderr)
    return 0


def cmd_iou_check(args) -> int:
    # the same Monte-Carlo loop as acceptance criterion c04
    worst = iou_monte_carlo_errors(args.trials, args.seed, args.samples).max()
    print(f"max |clipped - monte-carlo| over {args.trials} trials: {worst:.6f}")
    return 0 if worst <= IOU_TOLERANCE else 1


def cmd_selftest(_args) -> int:
    return 0 if run_selftest(sys.stdout) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "voxelize": cmd_voxelize,
        "forward": cmd_forward,
        "density": cmd_density,
        "recall": cmd_recall,
        "iou-check": cmd_iou_check,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (VoxPillarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
