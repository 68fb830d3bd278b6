"""Seeded end-to-end benchmark of the voxpillar engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
`src/`. The seed makes the inputs (clouds, box files), which the engine
reads from disk like any user input. After one warm-up item, items run
back to back (a closed loop, one caller) for `--seconds`, with a timed
set-up before the first and after each one; set-up and item times are
reported as medians. Every item's output is checked outside the timed
region.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced runs of the same item: the traced ones wrap the engine's public
functions from outside (see tracer.py) and give the per-layer metrics, and
the pair gives the tracing overhead and a check that tracing leaves the
output bytes unchanged.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is a JSON report with the
run environment, per-input digests and any failures; the same report is
written to .perfbench/BENCH_<workload>_seed<seed>_trace<t>.json.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before NumPy loads, so timings do not depend on
# how many idle cores the machine happens to have.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
ENGINE_MODULES = ("backbone", "config", "density", "formats", "fusion", "geometry", "grid",
                  "manifest", "sparse_conv")

# End-to-end metrics and their units. Times and rates are medians over the
# run's items (set-up: over its set-ups).
#   setup_s       load the config and resolve the model tensors
#   item_s_p50    wall time of one item, reading its input files included
#   points_per_s  forward: input points / forward time;
#                 boxes: point-in-box tests (cloud points x GT boxes) / density time
#   pairs_per_s   forward: voxel-pillar pairs summed over the 4 steps / forward time;
#                 boxes: same-class GT x prediction pairs / recall_by_density time
#   ok_ratio      1 - failed_ratio: share of items that neither raised nor failed a check
END_TO_END = {"setup_s": "s", "item_s_p50": "s", "points_per_s": "1/s", "pairs_per_s": "1/s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class EngineMissing(Exception):
    pass


def load_engine() -> SimpleNamespace:
    """Import the engine modules from src/ of the checkout."""
    if not (SRC / "voxpillar" / "__init__.py").is_file():
        raise EngineMissing(f"engine sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{name: importlib.import_module(f"voxpillar.{name}")
                              for name in ENGINE_MODULES})


# ---------------------------------------------------------------- inputs


def write_cloud(path: Path, points: np.ndarray) -> np.ndarray:
    """Write a VPF1 file; returns the points as the engine will read them."""
    pts = np.ascontiguousarray(points, dtype="<f4")
    path.write_bytes(b"VPF1" + struct.pack("<I", pts.shape[0]) + pts.tobytes())
    return pts.astype(np.float64)


def write_config(path: Path, wl: workloads.Workload):
    doc = {"seed": 0}
    if wl.cloud is not None:
        lo, hi = workloads.grid_range(wl.cloud)
        doc["grid"] = {"range_min": list(lo), "range_max": list(hi),
                       "voxel_size": list(workloads.VOXEL_SIZE)}
        doc["backbone"] = {"variant": wl.variant}
    path.write_text(json.dumps(doc, indent=1) + "\n")


@dataclass
class Input:
    """One distinct item input; index 0 of every pool is the fixed canary."""

    index: int
    paths: dict[str, Path]
    points: np.ndarray | None = None  # forward: the cloud as the engine reads it
    scene: workloads.Scene | None = None
    digest: str | None = None  # of the first output, for determinism checks

    @property
    def canary(self) -> bool:
        return self.index == 0


def make_inputs(wl: workloads.Workload, seed: int, work: Path) -> list[Input]:
    inputs = []
    for k in range(wl.pool):
        src_seed = workloads.CANARY_SEED if k == 0 else seed
        cloud_path = work / f"cloud{k}.vpc"
        if wl.kind == "forward":
            pts = write_cloud(cloud_path, workloads.lidar_cloud(wl.cloud, src_seed, k))
            inputs.append(Input(k, {"cloud": cloud_path}, points=pts))
        else:
            scene = workloads.box_scene(wl.scene, src_seed, k)
            gt_path, pred_path = work / f"gt{k}.json", work / f"pred{k}.json"
            gt_path.write_text(json.dumps(scene.gt))
            pred_path.write_text(json.dumps(scene.pred))
            write_cloud(cloud_path, scene.cloud)
            inputs.append(Input(k, {"cloud": cloud_path, "gt": gt_path, "pred": pred_path},
                                scene=scene))
    return inputs


# ---------------------------------------------------------------- set-up and items


def set_up(vp, config_path: Path):
    """What a caller does before its first item: load config, resolve tensors."""
    cfg = vp.config.load_config(config_path)
    required = vp.backbone.required_weights(cfg.grid, cfg.backbone)
    tensors = vp.manifest.resolve_weights(required, None, seed=cfg.seed)
    return cfg, tensors


@dataclass
class Item:
    item_s: float
    points_per_s: float
    pairs_per_s: float
    output: tuple
    error: str | None = None


def forward_item(vp, cfg, tensors, inp: Input) -> Item:
    t0 = time.perf_counter()
    points = vp.formats.read_cloud(inp.paths["cloud"])
    t1 = time.perf_counter()
    pairs, readout = vp.backbone.forward(points, cfg.grid, cfg.backbone, tensors)
    t2 = time.perf_counter()
    voxel_pillar_pairs = sum(v.num_sites for v, _ in pairs)
    return Item(t2 - t0, points.shape[0] / (t2 - t1), voxel_pillar_pairs / (t2 - t1),
                (pairs, readout))


def boxes_item(vp, cfg, tensors, inp: Input) -> Item:
    t0 = time.perf_counter()
    gt = vp.formats.load_boxes(inp.paths["gt"])
    pred = vp.formats.load_boxes(inp.paths["pred"])
    cloud = vp.formats.read_cloud(inp.paths["cloud"])
    t1 = time.perf_counter()
    rows = vp.density.recall_by_density(
        [g["box"] for g in gt], [g["class"] for g in gt], [g["points"] for g in gt],
        [p["box"] for p in pred], [p["class"] for p in pred], cfg.iou_thresholds)
    t2 = time.perf_counter()
    records = [vp.density.vertical_density(cloud, g["box"], box_id=g["id"]) for g in gt]
    t3 = time.perf_counter()
    pairs = candidate_pairs(inp.scene)
    return Item(t3 - t0, cloud.shape[0] * len(gt) / (t3 - t2), pairs / (t2 - t1),
                (rows, records))


def candidate_pairs(scene: workloads.Scene) -> int:
    """Same-class ground-truth x prediction pairs, fixed by the scene."""
    gt = [g["class"] for g in scene.gt]
    pred = [p["class"] for p in scene.pred]
    return sum(gt.count(c) * pred.count(c) for c in set(gt))


def check_item(vp, wl, cfg, inp: Input, item: Item, fingerprint) -> tuple[list[str], str]:
    """Problems with one item's output, and the output's digest."""
    if wl.kind == "boxes":
        rows, records = item.output
        want = workloads.expected_recall_rows(inp.scene)
        return (checks.check_boxes(rows, records, want, inp.scene.expected_records),
                checks.digest_boxes(rows, records))
    pairs, readout = item.output
    _, dropped = vp.grid.assign_voxel_indices(inp.points, cfg.grid)
    problems = checks.check_forward(inp.points, cfg.grid, cfg.backbone, pairs, readout, dropped)
    problems += [f"step {s}: bev_equal is false" for s, (v, p) in enumerate(pairs, start=1)
                 if not vp.sparse_conv.bev_equal(v, p)]
    digest = checks.forward_digest(pairs, readout)
    if inp.canary:
        if fingerprint is None:
            problems.append("no committed canary fingerprint for this workload shape")
        else:
            problems += checks.compare_fingerprint(checks.fingerprint(pairs, readout),
                                                   fingerprint["fingerprint"])
    return problems, digest


# ---------------------------------------------------------------- tracing


def _observe_conv(tr, args, _out):
    spec, kmap = args[1], args[3]
    t = kmap.triples.shape[0]
    tr.count("conv_flop", 2.0 * t * spec.in_channels * spec.out_channels)
    # Computed, f64: each triple gathers one input row and read-modify-writes
    # one output row.
    tr.count("conv_bytes", 8.0 * t * (spec.in_channels + 2 * spec.out_channels))


def _observe_kmap(tr, args, kmap):
    coords, spec = np.ascontiguousarray(args[0]), args[1]
    tr.count("kmap_triples", kmap.triples.shape[0])
    key = (coords.shape, coords.tobytes(), spec.kernel, spec.stride, spec.mode)
    tr.note("kmap_keys", hash(key))


def _observe_iou(tr, _args, iou):
    match_args = tr.open_args("density.greedy_match")
    if match_args is not None:
        tr.count("match_pairs")
        tr.count("match_hits", float(iou >= match_args[2]))


def _observe_forward(tr, _args, out):
    pairs, readout = out
    feats = [f for _, _, f in checks.forward_outputs(pairs, readout)]
    tr.count("feature_bytes", sum(f.nbytes for f in feats))
    tr.count("readout_sites", feats[-1].shape[0])


def _sites(counter):
    return lambda tr, _args, out: tr.count(counter, out.num_sites)


# Traced public functions, "<module>.<function>", with their observers.
TRACED = {
    "config.load_config": None,
    "manifest.resolve_weights": None,
    "formats.read_cloud": None,
    "formats.load_boxes": None,
    "grid.build_voxel_features": _sites("voxel_sites"),
    "grid.build_pillar_features": _sites("pillar_sites"),
    "sparse_conv.build_kernel_map": _observe_kmap,
    "sparse_conv.sparse_conv": _observe_conv,
    "sparse_conv.bev_equal": None,
    "sparse_conv.paired_downsample": None,
    "fusion.build_correspondence": None,
    "fusion.sparse_pool": None,
    "fusion.broadcast": None,
    "fusion.sparse_fusion_layer": None,
    "backbone.forward": _observe_forward,
    "backbone.encoder_forward": None,
    "backbone.dense_fusion_neck": None,
    "backbone.sparse_readout": None,
    "backbone.dense_conv3x3": None,
    "backbone.height_compress": None,
    "backbone.merge_sparse2d": None,
    "geometry.iou3d": _observe_iou,
    "density.greedy_match": None,
    "density.vertical_density": None,
}


def trace_targets(vp) -> dict:
    targets = {}
    for name, observer in TRACED.items():
        module, attr = name.split(".")
        targets[name] = (getattr(vp, module), attr, observer)
    return targets


def _incl(st, *names):
    return sum(st[n].inclusive_s for n in names if n in st)


def _calls(st, name):
    return st[name].calls if name in st else 0


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, value from (span stats, counters, distinct-key counts) of one item)
PER_LAYER = {
    "grid.voxelize_s": ("s", lambda st, c, k: _incl(st, "grid.build_voxel_features")),
    "grid.pillarize_s": ("s", lambda st, c, k: _incl(st, "grid.build_pillar_features")),
    "grid.voxel_sites": ("count", lambda st, c, k: c.get("voxel_sites", 0)),
    "grid.pillar_sites": ("count", lambda st, c, k: c.get("pillar_sites", 0)),
    "grid.points_dropped": ("count", lambda st, c, k: c.get("points_dropped", 0)),
    "sparse_conv.conv_s": ("s", lambda st, c, k: _incl(st, "sparse_conv.sparse_conv")),
    "sparse_conv.conv_calls": ("count", lambda st, c, k: _calls(st, "sparse_conv.sparse_conv")),
    "sparse_conv.conv_gflop": ("GFLOP", lambda st, c, k: c.get("conv_flop", 0) / 1e9),
    "sparse_conv.conv_mb_moved": ("MB", lambda st, c, k: c.get("conv_bytes", 0) / 1e6),
    "sparse_conv.kmap_s": ("s", lambda st, c, k: _incl(st, "sparse_conv.build_kernel_map")),
    "sparse_conv.kmap_calls": ("count",
                               lambda st, c, k: _calls(st, "sparse_conv.build_kernel_map")),
    "sparse_conv.kmap_triples": ("count", lambda st, c, k: c.get("kmap_triples", 0)),
    "sparse_conv.kmap_reuse_ratio": ("ratio", lambda st, c, k: _ratio(
        k.get("kmap_keys", 0), _calls(st, "sparse_conv.build_kernel_map"))),
    "sparse_conv.bev_check_s": ("s", lambda st, c, k: _incl(st, "sparse_conv.bev_equal")),
    "sparse_conv.downsample_s": ("s",
                                 lambda st, c, k: _incl(st, "sparse_conv.paired_downsample")),
    "fusion.corr_s": ("s", lambda st, c, k: _incl(st, "fusion.build_correspondence")),
    "fusion.pool_s": ("s", lambda st, c, k: _incl(st, "fusion.sparse_pool")),
    "fusion.broadcast_s": ("s", lambda st, c, k: _incl(st, "fusion.broadcast")),
    "fusion.sfl_s": ("s", lambda st, c, k: st["fusion.sparse_fusion_layer"].self_s
                     if "fusion.sparse_fusion_layer" in st else 0.0),
    "backbone.encoder_s": ("s", lambda st, c, k: _incl(st, "backbone.encoder_forward")),
    "backbone.readout_s": ("s", lambda st, c, k: _incl(
        st, "backbone.dense_fusion_neck", "backbone.sparse_readout")),
    "backbone.dense_conv_s": ("s", lambda st, c, k: _incl(st, "backbone.dense_conv3x3")),
    "backbone.height_compress_s": ("s", lambda st, c, k: _incl(st, "backbone.height_compress")),
    "backbone.merge_s": ("s", lambda st, c, k: _incl(st, "backbone.merge_sparse2d")),
    "backbone.readout_sites": ("count", lambda st, c, k: c.get("readout_sites", 0)),
    "backbone.feature_mb": ("MB", lambda st, c, k: c.get("feature_bytes", 0) / 1e6),
    "geometry.iou_s": ("s", lambda st, c, k: _incl(st, "geometry.iou3d")),
    "geometry.iou_calls": ("count", lambda st, c, k: _calls(st, "geometry.iou3d")),
    "density.match_s": ("s", lambda st, c, k: _incl(st, "density.greedy_match")),
    "density.match_hit_ratio": ("ratio", lambda st, c, k: _ratio(
        c.get("match_hits", 0), c.get("match_pairs", 0))),
    "density.vertical_s": ("s", lambda st, c, k: _incl(st, "density.vertical_density")),
    "density.vertical_calls": ("count", lambda st, c, k: _calls(st, "density.vertical_density")),
    "formats.read_s": ("s", lambda st, c, k: _incl(
        st, "formats.read_cloud", "formats.load_boxes")),
}
# Measured on the traced set-ups rather than on items.
SETUP_LAYER = {
    "config.load_s": ("s", "config.load_config"),
    "manifest.resolve_s": ("s", "manifest.resolve_weights"),
}
TRACE_OVERHEAD = {"trace.overhead_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    units.update({name: unit for name, (unit, _) in SETUP_LAYER.items()})
    units.update(TRACE_OVERHEAD)
    return units


# ---------------------------------------------------------------- the run


@dataclass
class Run:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    items: list[Item] = field(default_factory=list)  # measured, untraced
    traced_s: list[float] = field(default_factory=list)
    layer_rows: list[dict] = field(default_factory=list)

    def fail(self, inp: Input, problems):
        self.failures.append(f"input {inp.index}: " + "; ".join(problems))


def _attempt(fn, *args) -> Item:
    """Run one item; an exception becomes a failed item, not a crashed run."""
    t0 = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any engine error is a failed item
        return Item(time.perf_counter() - t0, 0.0, 0.0, (), error=f"{type(exc).__name__}: {exc}")


def _judge(run: Run, vp, wl, cfg, inp: Input, item: Item, fingerprint):
    """Check an item and record it as attempted, and as failed if it is."""
    run.attempted += 1
    if item.error is not None:
        run.fail(inp, [item.error])
        return None
    problems, digest = check_item(vp, wl, cfg, inp, item, fingerprint)
    if inp.digest is None:
        inp.digest = digest
    elif digest != inp.digest:
        problems.append("output differs from the first run of the same input")
    if problems:
        run.fail(inp, problems)


def _traced_item(run: Run, tracer: Tracer, vp, wl, cfg, tensors, inp: Input,
                 fingerprint) -> list[dict]:
    """Run `inp` again under the tracer; record its per-layer row, return its spans.

    `_judge` compares the traced output's digest with that of the first,
    untraced run of the same input, so tracing that changed any output byte
    fails the item.
    """
    item_fn = forward_item if wl.kind == "forward" else boxes_item
    tracer.reset()
    with tracer:
        traced = _attempt(item_fn, vp, cfg, tensors, inp)
    _judge(run, vp, wl, cfg, inp, traced, fingerprint)
    if wl.kind == "forward":
        _, dropped = vp.grid.assign_voxel_indices(inp.points, cfg.grid)
        tracer.count("points_dropped", dropped)
    stats = tracer.summary()
    run.traced_s.append(traced.item_s)
    run.layer_rows.append({name: fn(stats, tracer.counters, tracer.distinct_counts())
                           for name, (_, fn) in PER_LAYER.items()})
    return tracer.span_records()


def run_benchmark(vp, wl: workloads.Workload, seed: int, seconds: float, trace: bool,
                  work: Path, fingerprint) -> tuple[dict, dict]:
    """Set up, warm up, measure for `seconds`; returns (result line, report)."""
    config_path = work / "config.json"
    write_config(config_path, wl)
    inputs = make_inputs(wl, seed, work)
    tracer = Tracer(trace_targets(vp))
    item_fn = forward_item if wl.kind == "forward" else boxes_item

    setup_s, setup_rows = [], []

    def timed_set_up():
        tracer.reset()
        t0 = time.perf_counter()
        with tracer if trace else contextlib.nullcontext():
            loaded = set_up(vp, config_path)
        setup_s.append(time.perf_counter() - t0)
        setup_rows.append(tracer.summary())
        return loaded

    # Set-up runs before the first item and again after every measured item,
    # so its median sees the same machine conditions as the items do.
    cfg, tensors = timed_set_up()
    run = Run()
    _judge(run, vp, wl, cfg, inputs[0], _attempt(item_fn, vp, cfg, tensors, inputs[0]),
           fingerprint)  # warm-up
    spans = []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        inp = inputs[i % len(inputs)]
        i += 1
        item = _attempt(item_fn, vp, cfg, tensors, inp)
        _judge(run, vp, wl, cfg, inp, item, fingerprint)
        item.output = ()  # keep timings only, so memory does not grow with the run
        run.items.append(item)
        if trace:
            spans = _traced_item(run, tracer, vp, wl, cfg, tensors, inp, fingerprint)
        cfg, tensors = timed_set_up()

    failed = len(run.failures)
    med = statistics.median
    if trace:
        metrics = {name: med(row[name] for row in run.layer_rows) for name in PER_LAYER}
        for name, (_, span) in SETUP_LAYER.items():
            metrics[name] = med(_incl(row, span) for row in setup_rows)
        metrics["trace.overhead_ratio"] = (
            med(run.traced_s) / med(it.item_s for it in run.items) - 1.0)
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": med(setup_s),
            "item_s_p50": med(it.item_s for it in run.items),
            "points_per_s": med(it.points_per_s for it in run.items),
            "pairs_per_s": med(it.pairs_per_s for it in run.items),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / run.attempted,
        }
        units = END_TO_END
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    report = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "shape": asdict(wl.cloud or wl.scene),
        "environment": environment(),
        "setup_s": setup_s,
        "measured_items": len(run.items),
        "item_s": [it.item_s for it in run.items],
        "failed_ratio": failed / run.attempted,
        "failures": run.failures,
        "digests": {("canary" if inp.canary else f"input{inp.index}"): inp.digest
                    for inp in inputs},
        # Forward only: whether the canary output is bit-for-bit the recorded one.
        "canary_bitwise": (None if wl.kind != "forward" else
                           fingerprint is not None and inputs[0].digest == fingerprint["sha256"]),
        "spans_last_item": spans,
    }
    return result, report


def environment() -> dict:
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        pass
    src_files = sorted((SRC / "voxpillar").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in src_files),
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def canary_fingerprint(vp, wl: workloads.Workload, work: Path) -> dict:
    """Shape, digest and fingerprint of a forward workload's canary output."""
    write_config(work / "config.json", wl)
    cfg, tensors = set_up(vp, work / "config.json")
    canary = make_inputs(replace(wl, pool=1), 0, work)[0]
    pairs, readout = forward_item(vp, cfg, tensors, canary).output
    return {"shape": asdict(wl.cloud), "sha256": checks.forward_digest(pairs, readout),
            "fingerprint": checks.fingerprint(pairs, readout)}


def load_fingerprint(wl: workloads.Workload):
    """Committed canary fingerprint for a forward workload at its current shape."""
    if wl.kind != "forward":
        return None
    entry = json.loads(FINGERPRINTS.read_text()).get(wl.name)
    if entry is None or entry.get("shape") != asdict(wl.cloud):
        return None
    return entry


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        vp = load_engine()
    except (EngineMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        result, report = run_benchmark(vp, wl, args.seed, args.seconds, bool(args.trace), work,
                                       load_fingerprint(wl))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = WORK / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "report": report}, indent=1) + "\n")
    brief = {k: v for k, v in report.items() if k != "spans_last_item"}
    print(json.dumps({"report": brief}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
