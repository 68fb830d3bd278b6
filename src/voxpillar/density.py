"""Per-box point density statistics and recall aggregation by vertical density."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .geometry import CIRCLE_MARGIN, Box3D, iou3d_matrix

NUM_BINS = 10


@dataclass(frozen=True)
class DensityRecord:
    """Occupancy statistics of one box: S_Z plus horizontal occupancy."""

    box_id: int
    s_z: float
    point_count: int
    horizontal_occupancy: float


def vertical_density(points, box: Box3D, box_id: int = 0) -> DensityRecord:
    """Bin the in-box points into 10 vertical slices; S_Z = occupied / 10.

    Points are mapped into the box frame first; points exactly on a face
    count as inside. S_X and S_Y are computed the same way along the box
    axes and combined into the horizontal occupancy sqrt(S_X * S_Y).
    `points` is (N, k >= 3), of which only x, y and z are read, or empty.

    This is the one-box call of `density_records`' arithmetic, for a whole
    cloud: only points near the box are mapped. With `reach` the
    circumscribed radius hypot(l, w) / 2 widened by `CIRCLE_MARGIN`, an x-y
    band keeps the points within `reach` of cx in x and of cy in y (four
    comparisons into one bool mask), and a circle test those whose (x, y)
    offset lies within `reach`. An in-box point's |x - cx| and |y - cy|
    exceed hypot(l, w) / 2 by at most the rounding of the frame mapping,
    far less than the margin, and rounding is monotone, so
    fl(cx - reach) <= x <= fl(cx + reach) (likewise y) and the circle test
    hold for every in-box point. The survivors go through the same per-point
    arithmetic, so the record is bitwise the same as mapping the whole cloud.
    The band's four passes read contiguous columns of a column-major cloud,
    as `formats.read_cloud` returns; on a row-major one they are strided and
    each touches the whole cloud, giving the same record in about 3.5 times
    the time (100k points).
    """
    pts = _xyz(points, box_id)
    cx, cy, cz = box.center
    reach = 0.5 * math.hypot(box.dims[0], box.dims[1]) * (1.0 + CIRCLE_MARGIN)
    x, y = pts[:, 0], pts[:, 1]
    band = x >= cx - reach
    band &= x <= cx + reach
    band &= y >= cy - reach
    band &= y <= cy + reach
    near = np.flatnonzero(band)
    dx, dy = pts[near, 0] - cx, pts[near, 1] - cy
    keep = dx * dx + dy * dy <= reach * reach
    near, dx, dy = near[keep], dx[keep], dy[keep]
    _, bins = _frame_bins(dx, dy, pts[near, 2] - cz, math.cos(-box.heading),
                          math.sin(-box.heading), np.array(box.dims) / 2.0)
    return _records(np.zeros(len(bins), dtype=np.int64), bins, [box_id])[0]


def density_records(boxes, point_lists) -> list[DensityRecord]:
    """The record of every box from its own point list, in one pass.

    Record i has box_id i and is bitwise the record that
    `vertical_density(point_lists[i], boxes[i], i)` gives: the lists are
    concatenated with an owner index per point, each box's parameters are
    gathered per point, and every point goes through the same frame mapping,
    in-box test and binning at once. No prefilter is needed, as each list
    holds its own box's points.
    """
    if len(boxes) != len(point_lists):
        raise ValueError("boxes and point lists must align")
    lists = [_xyz(pts, i)[:, :3] for i, pts in enumerate(point_lists)]
    owner = np.repeat(np.arange(len(lists)), [len(pts) for pts in lists])
    pts = np.concatenate(lists) if lists else np.empty((0, 3))
    offsets = pts - np.array([b.center for b in boxes]).reshape(-1, 3)[owner]
    cos = np.array([math.cos(-b.heading) for b in boxes])[owner]
    sin = np.array([math.sin(-b.heading) for b in boxes])[owner]
    half = (np.array([b.dims for b in boxes]).reshape(-1, 3) / 2.0)[owner]
    inside, bins = _frame_bins(offsets[:, 0], offsets[:, 1], offsets[:, 2], cos, sin, half)
    return _records(owner[inside], bins, range(len(boxes)))


def _xyz(points, index: int) -> np.ndarray:
    """`points` as a float64 (N, k >= 3) array; an empty list gives (0, 3)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] < 3:
        raise ShapeMismatch(f"ground truth {index}: points must be rows of at least 3 numbers "
                            f"(x, y, z, ...), got shape {pts.shape}")
    return pts


def _frame_bins(dx, dy, dz, cos, sin, half):
    """Map offsets from box centers into box frames and bin the in-box ones.

    `cos`, `sin` and `half` are one box's (floats and a (3,) array), which
    broadcast, or one per offset ((n,) and (n, 3) arrays); each element goes
    through the same operations either way. Returns the in-box mask of the
    offsets and the (kept, 3) bin of each kept one.
    """
    local = np.column_stack((cos * dx - sin * dy, sin * dx + cos * dy, dz))
    inside = (np.abs(local) <= half).all(axis=1)
    if half.ndim == 2:
        half = half[inside]
    # 10 uniform bins of [-half, half] per axis; the +half face belongs to the top bin
    bins = np.floor((local[inside] + half) / (2.0 * half) * NUM_BINS).astype(np.int64)
    np.clip(bins, 0, NUM_BINS - 1, out=bins)
    return inside, bins


def _records(owner, bins, box_ids) -> list[DensityRecord]:
    """One record per box id from the owner index and bins of the in-box points."""
    occupied = np.zeros((len(box_ids), 3, NUM_BINS), dtype=bool)
    occupied[owner[:, None], [0, 1, 2], bins] = True
    shares = (occupied.sum(axis=2) / NUM_BINS).tolist()
    counts = np.bincount(owner, minlength=len(box_ids)).tolist()
    return [DensityRecord(box_id=box_id, s_z=s_z, point_count=count,
                          horizontal_occupancy=math.sqrt(s_x * s_y))
            for box_id, (s_x, s_y, s_z), count in zip(box_ids, shares, counts)]


def greedy_match(gt_boxes, pred_boxes, threshold: float) -> list[int | None]:
    """Assign predictions to ground truths greedily by descending IoU.

    Returns, per ground truth, the index of its matched prediction or None.
    Each prediction is used at most once; only pairs with IoU >= threshold
    match. Ties break on the lower (gt, pred) index pair.
    """
    iou = iou3d_matrix(gt_boxes, pred_boxes)
    gis, pis = np.nonzero(iou >= threshold)
    matched = [None] * len(gt_boxes)
    used_pred = set()
    for k in np.lexsort((pis, gis, -iou[gis, pis])):  # (-iou, gi, pi) ascending
        gi, pi = int(gis[k]), int(pis[k])
        if matched[gi] is None and pi not in used_pred:
            matched[gi] = pi
            used_pred.add(pi)
    return matched


def recall_by_density(gt_boxes, gt_classes, gt_points, pred_boxes, pred_classes,
                      thresholds) -> list[tuple[float, int, int, float]]:
    """Recall of ground truths grouped by their vertical density S_Z.

    `thresholds` is either one float or a mapping class -> float. Matching
    runs independently per class; a ground truth is recalled when the greedy
    protocol assigns it a prediction. Returns rows (s_z, num_gt, num_recalled,
    recall) sorted by s_z.
    """
    if len(gt_boxes) != len(gt_classes) or len(gt_boxes) != len(gt_points):
        raise ValueError("ground-truth boxes, classes, and point lists must align")
    if len(pred_boxes) != len(pred_classes):
        raise ValueError("prediction boxes and classes must align")

    def thr(cls: str) -> float:
        t = thresholds[cls] if isinstance(thresholds, dict) else float(thresholds)
        if not 0.0 < t < 1.0:
            raise ValueError(f"iou threshold must lie in (0, 1), got {t}")
        return t

    recalled = [False] * len(gt_boxes)
    for cls in sorted(set(gt_classes)):
        g_idx = [i for i, c in enumerate(gt_classes) if c == cls]
        p_idx = [i for i, c in enumerate(pred_classes) if c == cls]
        matches = greedy_match([gt_boxes[i] for i in g_idx],
                               [pred_boxes[i] for i in p_idx], thr(cls))
        for local_gi, m in enumerate(matches):
            if m is not None:
                recalled[g_idx[local_gi]] = True

    by_sz: dict[float, list[int]] = {}
    for rec in density_records(gt_boxes, gt_points):
        by_sz.setdefault(rec.s_z, []).append(rec.box_id)
    rows = []
    for s_z in sorted(by_sz):
        idx = by_sz[s_z]
        hits = sum(recalled[i] for i in idx)
        rows.append((s_z, len(idx), hits, hits / len(idx)))
    return rows
