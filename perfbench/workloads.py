"""Seeded input generators and the workload table.

Everything here is plain NumPy and independent of the engine: the engine
only ever sees the files these generators write. The same seed always
gives the same inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Cell size shared by both forward workloads (x, y, z metres).
VOXEL_SIZE = (0.1, 0.1, 0.15)
GRID_HEIGHT = 2.4

# Seed of the fixed canary input each run carries next to its seeded inputs.
CANARY_SEED = 20230406

CLASSES = ("Vehicle", "Pedestrian", "Cyclist")
CLASS_DIMS = {"Vehicle": (4.5, 1.9, 1.6), "Pedestrian": (0.8, 0.8, 1.8),
              "Cyclist": (1.8, 0.8, 1.7)}
NUM_BINS = 10
# Two predictions per ground truth: near copies and/or half-length shifts.
_PREDICTION_KINDS = (("near", "shift"), ("near", "near"), ("shift", "shift"))


@dataclass(frozen=True)
class CloudShape:
    """LiDAR-like cloud around a sensor at the centre of a square grid."""

    extent: float  # grid side (m); the grid spans [0, extent)^2 x [0, 2.4)
    points: int
    range_scale: float  # mean ground-hit distance beyond 1 m from the sensor (m)
    objects: int
    object_share: float  # share of points on object clusters
    out_share: float  # share of points above the grid (always dropped)
    ground_sigma: float  # vertical spread of ground hits (m)


@dataclass(frozen=True)
class SceneShape:
    """Box scene: non-overlapping ground-truth boxes on a jittered lattice."""

    gt_boxes: int
    points_per_gt: int
    cloud_points: int  # total, ground-truth points included


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "forward" or "boxes"
    variant: str | None
    cloud: CloudShape | None = None
    scene: SceneShape | None = None
    pool: int = 3  # distinct inputs per run, the canary included


WORKLOADS = {
    "lidar-wide-dense": Workload(
        "lidar-wide-dense", "forward", "dense",
        cloud=CloudShape(extent=51.2, points=5000, range_scale=2.5, objects=48,
                         object_share=0.2, out_share=0.03, ground_sigma=0.05)),
    "nearfield-sparse": Workload(
        "nearfield-sparse", "forward", "sparse",
        cloud=CloudShape(extent=25.6, points=24000, range_scale=1.0, objects=60,
                         object_share=0.45, out_share=0.03, ground_sigma=0.15)),
    "boxes-recall": Workload(
        "boxes-recall", "boxes", None,
        scene=SceneShape(gt_boxes=120, points_per_gt=40, cloud_points=100_000)),
}


def grid_range(shape: CloudShape) -> tuple[tuple[float, ...], tuple[float, ...]]:
    return (0.0, 0.0, 0.0), (shape.extent, shape.extent, GRID_HEIGHT)


def _radial(rng, n, scale):
    """Distances from the sensor, dense close by and thinning with range."""
    return 1.0 + rng.gamma(1.5, scale / 1.5, n)


def lidar_cloud(shape: CloudShape, seed: int, index: int = 0) -> np.ndarray:
    """(N, 4) float64 rows (x, y, z, intensity) of a LiDAR-like sweep.

    Ground hits thin out with range, object clusters sit at sensor-like
    ranges, and a share of the points (tall structures above the grid and
    far hits beyond its edge) falls outside the grid and is dropped.
    """
    rng = np.random.default_rng([seed, index, 1])
    c = shape.extent / 2.0
    n_out = int(round(shape.points * shape.out_share))
    n_obj = int(round(shape.points * shape.object_share))
    n_ground = shape.points - n_obj - n_out

    r = _radial(rng, n_ground, shape.range_scale)
    th = rng.uniform(0.0, 2 * math.pi, n_ground)
    ground = np.column_stack([c + r * np.cos(th), c + r * np.sin(th),
                              np.abs(rng.normal(0.0, shape.ground_sigma, n_ground))])

    # Objects are stratified in range and alternate car / pedestrian, and
    # their point counts follow range deterministically, so the amount of
    # work varies little from seed to seed while the geometry does.
    strata = (np.arange(shape.objects) + rng.uniform(0.0, 1.0, shape.objects)) / shape.objects
    r_obj = np.minimum(2.0 + 3.0 * shape.range_scale * strata, c - 2.5)
    th_obj = rng.uniform(0.0, 2 * math.pi, shape.objects)
    centers = np.column_stack([c + r_obj * np.cos(th_obj), c + r_obj * np.sin(th_obj)])
    dims = np.where((np.arange(shape.objects) % 2 == 0)[:, None],
                    np.array([[4.2, 1.8, 1.6]]), np.array([[0.7, 0.7, 1.8]]))
    heading = rng.uniform(-math.pi, math.pi, shape.objects)
    weight = 1.0 / np.maximum(r_obj, 2.0) ** 2
    counts = np.floor(n_obj * weight / weight.sum()).astype(np.int64)
    counts[: n_obj - counts.sum()] += 1
    which = np.repeat(np.arange(shape.objects), counts)
    local = rng.uniform(-0.5, 0.5, (n_obj, 3)) * dims[which]
    cos_h, sin_h = np.cos(heading[which]), np.sin(heading[which])
    objs = np.column_stack([centers[which, 0] + cos_h * local[:, 0] - sin_h * local[:, 1],
                            centers[which, 1] + sin_h * local[:, 0] + cos_h * local[:, 1],
                            local[:, 2] + dims[which, 2] / 2.0])

    th_out = rng.uniform(0.0, 2 * math.pi, n_out)
    r_out = rng.uniform(2.0, c * 1.5, n_out)
    high = np.column_stack([c + r_out * np.cos(th_out), c + r_out * np.sin(th_out),
                            rng.uniform(GRID_HEIGHT + 0.1, GRID_HEIGHT + 3.0, n_out)])

    xyz = np.vstack([ground, objs, high])
    intensity = rng.uniform(0.0, 1.0, xyz.shape[0])
    order = rng.permutation(xyz.shape[0])
    return np.column_stack([xyz, intensity])[order]


@dataclass
class Scene:
    """A box scene plus the answers it was built to have."""

    gt: list[dict]  # {"box", "class", "id", "points"} JSON entries
    pred: list[dict]  # {"box", "class", "score"} JSON entries
    cloud: np.ndarray  # (N, 4): every ground-truth point plus background
    expected_records: list[tuple[int, float, int, float]]
    recalled: list[bool]


def _bin_centres(chosen, half, rng):
    """Box-frame coordinates inside the chosen bins, well clear of bin edges."""
    width = 2.0 * half / NUM_BINS
    return -half + (np.asarray(chosen) + 0.5 + rng.uniform(-0.3, 0.3, len(chosen))) * width


def _pick_bins(rng, count_lo):
    k = int(rng.integers(count_lo, NUM_BINS + 1))
    return np.sort(rng.choice(NUM_BINS, size=k, replace=False))


def _box_json(center, dims, heading):
    return {"center": [float(v) for v in center], "dims": [float(v) for v in dims],
            "heading": float(heading)}


def box_scene(shape: SceneShape, seed: int, index: int = 0) -> Scene:
    """Ground truths with known density and predictions with known outcome.

    Ground-truth boxes sit one per 8 m lattice cell, so no two overlap and
    no prediction built around one box reaches another. Each box gets
    points in chosen box-frame bins, so its density record is known. Its
    two predictions are near copies (IoU well above any threshold) or
    half-length shifts (IoU well below); a box is recalled exactly when one
    of its predictions is a near copy. The background cloud lies below
    z = 0, outside every box.
    """
    rng = np.random.default_rng([seed, index, 2])
    cols = int(math.ceil(math.sqrt(shape.gt_boxes)))
    cell = 8.0
    gt, pred, inline, records, recalled = [], [], [], [], []
    for i in range(shape.gt_boxes):
        cls = CLASSES[i % len(CLASSES)]
        base = np.array(CLASS_DIMS[cls])
        dims = base * rng.uniform(0.9, 1.1, 3)
        heading = float(rng.uniform(-math.pi, math.pi))
        cx = (i % cols + 0.5) * cell + rng.uniform(-1.0, 1.0)
        cy = (i // cols + 0.5) * cell + rng.uniform(-1.0, 1.0)
        center = np.array([cx, cy, dims[2] / 2.0])

        bx, by, bz = (_pick_bins(rng, lo) for lo in (3, 3, 1))
        m = max(shape.points_per_gt, bx.size, by.size, bz.size)
        half = dims / 2.0
        local = np.column_stack([
            _bin_centres(np.resize(rng.permutation(bx), m), half[0], rng),
            _bin_centres(np.resize(rng.permutation(by), m), half[1], rng),
            _bin_centres(np.resize(rng.permutation(bz), m), half[2], rng)])
        cos_h, sin_h = math.cos(heading), math.sin(heading)
        pts = np.column_stack([center[0] + cos_h * local[:, 0] - sin_h * local[:, 1],
                               center[1] + sin_h * local[:, 0] + cos_h * local[:, 1],
                               center[2] + local[:, 2], rng.uniform(0.0, 1.0, m)])
        # The cloud file stores f32; keep the inline copies on the same values.
        pts = pts.astype("<f4").astype(np.float64)
        inline.append(pts)
        gt.append({"box": _box_json(center, dims, heading), "class": cls, "id": i,
                   "points": pts.tolist()})
        records.append((i, bz.size / NUM_BINS, m,
                        math.sqrt((bx.size / NUM_BINS) * (by.size / NUM_BINS))))

        kinds = _PREDICTION_KINDS[int(rng.integers(len(_PREDICTION_KINDS)))]
        for k, kind in enumerate(kinds):
            if kind == "near":
                box = _box_json(center + rng.uniform(-0.01, 0.01, 3) * dims,
                                dims * rng.uniform(0.99, 1.01, 3),
                                heading + rng.uniform(-0.01, 0.01))
            else:  # shift along the heading, forwards then backwards
                sign = 1.0 if k == 0 else -1.0
                box = _box_json(center + sign * np.array([cos_h, sin_h, 0.0]) * dims[0] * 0.55,
                                dims, heading)
            pred.append({"box": box, "class": cls, "score": float(rng.uniform(0.0, 1.0))})
        recalled.append("near" in kinds)
    n_bg = shape.cloud_points - sum(p.shape[0] for p in inline)
    extent = cols * cell
    background = np.column_stack([rng.uniform(0.0, extent, (n_bg, 2)),
                                  rng.uniform(-1.0, -0.05, n_bg),
                                  rng.uniform(0.0, 1.0, n_bg)])
    cloud = np.vstack(inline + [background])
    cloud = cloud[rng.permutation(cloud.shape[0])]
    return Scene(gt=gt, pred=pred, cloud=cloud, expected_records=records, recalled=recalled)


def expected_recall_rows(scene: Scene) -> list[tuple[float, int, int, float]]:
    """Recall rows grouped by S_Z, from the answers the scene was built with."""
    by_sz: dict[float, list[bool]] = {}
    for (_, s_z, _, _), hit in zip(scene.expected_records, scene.recalled):
        by_sz.setdefault(s_z, []).append(hit)
    rows = []
    for s_z in sorted(by_sz):
        hits = sum(by_sz[s_z])
        rows.append((s_z, len(by_sz[s_z]), hits, hits / len(by_sz[s_z])))
    return rows
