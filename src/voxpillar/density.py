"""Per-box point density statistics and recall aggregation by vertical density."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    Only points near the box are mapped. A BEV prefilter keeps the points
    whose x offset from the center, and then whose (x, y) offset, lies
    within the circumscribed radius hypot(l, w) / 2, widened by
    `CIRCLE_MARGIN`. Every in-box point lies within that radius, and the
    rounding of the frame mapping is far below the margin, so the prefilter
    drops no point that the exact in-box test keeps; the survivors go
    through the same arithmetic, so the record is bitwise the same as
    mapping the whole cloud.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        pts = pts.reshape(0, 4)
    cx, cy, cz = box.center
    reach = 0.5 * math.hypot(box.dims[0], box.dims[1]) * (1.0 + CIRCLE_MARGIN)
    dx = pts[:, 0] - cx
    near = np.flatnonzero(np.abs(dx) <= reach)
    dx = dx[near]
    dy = pts[near, 1] - cy
    keep = dx * dx + dy * dy <= reach * reach
    near, dx, dy = near[keep], dx[keep], dy[keep]
    c, s = math.cos(-box.heading), math.sin(-box.heading)
    local = np.column_stack((c * dx - s * dy, s * dx + c * dy, pts[near, 2] - cz))
    half = np.array(box.dims) / 2.0
    local = local[(np.abs(local) <= half).all(axis=1)]
    # 10 uniform bins of [-half, half] per axis; the +half face belongs to the top bin
    bins = np.floor((local + half) / (2.0 * half) * NUM_BINS).astype(np.int64)
    np.clip(bins, 0, NUM_BINS - 1, out=bins)
    occupied = np.zeros((3, NUM_BINS), dtype=bool)
    occupied[[0, 1, 2], bins] = True
    s_x, s_y, s_z = occupied.sum(axis=1) / NUM_BINS
    return DensityRecord(box_id=box_id, s_z=float(s_z), point_count=local.shape[0],
                         horizontal_occupancy=math.sqrt(s_x * s_y))


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
    for i, (box, pts) in enumerate(zip(gt_boxes, gt_points)):
        rec = vertical_density(pts, box, box_id=i)
        by_sz.setdefault(rec.s_z, []).append(i)
    rows = []
    for s_z in sorted(by_sz):
        idx = by_sz[s_z]
        hits = sum(recalled[i] for i in idx)
        rows.append((s_z, len(idx), hits, hits / len(idx)))
    return rows
