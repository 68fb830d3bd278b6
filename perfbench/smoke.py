"""Smoke test of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, traced and untraced, and checks that
every metric named in BENCHMARK.json is printed with its unit. Then runs
each workload with a deliberately perturbed engine output and checks that
every item is counted as failed. Exits 1 on the first problem.
"""
from __future__ import annotations

import json
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import run  # pins BLAS threads before NumPy loads
import workloads

TINY = {
    "lidar-wide-dense": {"cloud": dict(extent=12.8, points=800)},
    "nearfield-sparse": {"cloud": dict(extent=12.8, points=2000)},
    "boxes-recall": {"scene": dict(gt_boxes=9, points_per_gt=12, cloud_points=2000)},
}


def expect(ok: bool, message: str):
    if not ok:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def tiny(wl: workloads.Workload) -> workloads.Workload:
    (part, changes), = TINY[wl.name].items()
    return replace(wl, **{part: replace(getattr(wl, part), **changes)})


@contextmanager
def patched(module, name, wrap):
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def perturb_forward(forward):
    def perturbed(*args, **kwargs):
        pairs, readout = forward(*args, **kwargs)
        pairs[1][0].features[0, 0] += 1.0  # one step-2 voxel feature
        return pairs, readout
    return perturbed


def perturb_recall(recall):
    def perturbed(*args, **kwargs):
        rows = recall(*args, **kwargs)
        s_z, n, hits, _ = rows[0]
        return [(s_z, n, hits, (hits + 1) / n)] + rows[1:]
    return perturbed


def main() -> int:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    expect(want_e2e == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect(want_layer == run.per_layer_units(),
           "BENCHMARK.json per_layer differs from run.per_layer_units()")
    expect(sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")

    vp = run.load_engine()
    run.WORK.mkdir(exist_ok=True)
    for wl in map(tiny, workloads.WORKLOADS.values()):
        fp = None
        if wl.kind == "forward":  # recorded from this engine at the tiny shape
            with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
                fp = run.canary_fingerprint(vp, wl, Path(tmp))
        for trace, want in ((False, want_e2e), (True, want_layer)):
            with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
                result, report = run.run_benchmark(vp, wl, 3, 0.01, trace, Path(tmp), fp)
            tag = f"{wl.name} trace={int(trace)}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0,
                   f"{tag}: failures {report['failures']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{tag}: metrics/units {got} != {want}")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{tag}: non-numeric metric value")
            json.dumps(result, allow_nan=False)
            print(f"ok   {tag}: {len(got)} metrics, {result['attempted']} items")

        target = ((vp.backbone, "forward", perturb_forward) if wl.kind == "forward"
                  else (vp.density, "recall_by_density", perturb_recall))
        with patched(*target), tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            result, report = run.run_benchmark(vp, wl, 3, 0.01, False, Path(tmp), fp)
        ok_ratio = result["metrics"]["ok_ratio"]["value"]
        expect(not result["correct"] and result["failed"] == result["attempted"]
               and ok_ratio == 0.0 and report["failed_ratio"] == 1.0,
               f"{wl.name}: perturbed output not counted as failed ({result})")
        print(f"ok   {wl.name}: perturbed output fails {result['failed']}/{result['attempted']}"
              f" items, e.g. {report['failures'][0][:90]}")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
