"""Brute-force reference implementations used to cross-check the fast paths.

Everything here favors obviousness over speed: dense grids, per-point
loops, dictionary group-bys, and Monte-Carlo sampling. None of it shares
code with the implementations it validates.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import Box3D, corners_3d, iou3d, point_in_box
from .sparse_conv import ConvSpec, ConvWeights, SUBMANIFOLD


def densify_features(coords: np.ndarray, features: np.ndarray, extents) -> np.ndarray:
    """Scatter sparse features into a zero dense grid, shape extents + (C,)."""
    dense = np.zeros(tuple(int(e) for e in extents) + (features.shape[1],))
    dense[tuple(np.asarray(coords, dtype=np.int64).T)] = features
    return dense


def dense_conv_reference(coords, features, extents, spec: ConvSpec, weights: ConvWeights) -> np.ndarray:
    """Dense cross-correlation over the densified grid.

    Applies the spec's padded, strided convolution everywhere (a
    submanifold spec has the centre padding and stride 1); the caller masks
    the result to the active output sites.
    """
    dense = densify_features(coords, features, extents)
    out_extents = tuple(
        (int(e) + 2 * p - k) // s + 1
        for e, k, s, p in zip(extents, spec.kernel, spec.stride, spec.padding))
    padded = np.pad(dense, [(p, p) for p in spec.padding] + [(0, 0)])
    out = np.zeros(out_extents + (spec.out_channels,))
    if weights.bias is not None:
        out += weights.bias
    for k_idx in range(spec.num_offsets):
        off = np.unravel_index(k_idx, spec.kernel)
        window = padded
        for axis, (o, s, e) in enumerate(zip(off, spec.stride, out_extents)):
            window = np.take(window, o + s * np.arange(e), axis=axis)
        out += window @ weights.kernel[k_idx]
    return out


def enumerate_kernel_map(coords, spec: ConvSpec, extents) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-map triples and output coordinates by trying every (input, offset) pair.

    Input c feeds output o through offset k when c + padding - k = o * stride
    on every axis with o inside the output extents. In submanifold mode an
    output must also be an input site. Returns the (in, out, offset) triples
    sorted by (offset, out, in) as a (T, 3) int64 array, and the sorted
    output coordinates as (M, ndim) int64 (the input coordinates in
    submanifold mode).
    """
    coords = [tuple(int(v) for v in c) for c in np.asarray(coords, dtype=np.int64)]
    out_extents = tuple(
        (int(e) + 2 * p - k) // s + 1
        for e, k, s, p in zip(extents, spec.kernel, spec.stride, spec.padding))
    found = []  # (in index, output coordinate, offset index)
    for i, c in enumerate(coords):
        for k_idx in range(spec.num_offsets):
            off = np.unravel_index(k_idx, spec.kernel)
            o = []
            for axis in range(spec.ndim):
                t = c[axis] + spec.padding[axis] - int(off[axis])
                s = spec.stride[axis]
                if t % s != 0 or not 0 <= t // s < out_extents[axis]:
                    break
                o.append(t // s)
            else:
                found.append((i, tuple(o), k_idx))
    if spec.mode == SUBMANIFOLD:
        sites = set(coords)
        found = [f for f in found if f[1] in sites]
        outputs = sorted(sites)
    else:
        outputs = sorted({o for _, o, _ in found})
    index = {o: j for j, o in enumerate(outputs)}
    triples = sorted(((k_idx, index[o], i) for i, o, k_idx in found))
    triples = np.array([(i, j, k_idx) for k_idx, j, i in triples],
                       dtype=np.int64).reshape(-1, 3)
    return triples, np.array(outputs, dtype=np.int64).reshape(-1, spec.ndim)


def groupby_mean(points: np.ndarray, indices: np.ndarray) -> dict[tuple, np.ndarray]:
    """Per-cell mean of point rows keyed by their (already valid) indices."""
    groups: dict[tuple, list] = {}
    for row, idx in zip(points, indices):
        if idx[0] < 0:
            continue
        groups.setdefault(tuple(int(v) for v in idx), []).append(row)
    return {k: np.mean(np.array(v), axis=0) for k, v in groups.items()}


def groupby_max(values: np.ndarray, indices: np.ndarray) -> dict[tuple, np.ndarray]:
    """Per-cell elementwise max of value rows keyed by their indices."""
    groups: dict[tuple, np.ndarray] = {}
    for row, idx in zip(values, indices):
        if idx[0] < 0:
            continue
        key = tuple(int(v) for v in idx)
        groups[key] = row.copy() if key not in groups else np.maximum(groups[key], row)
    return groups


def dense_correspondence_matrix(voxel_coords: np.ndarray, pillar_coords: np.ndarray) -> np.ndarray:
    """The (N_v, N_p) 0/1 index matrix built by comparing every pair."""
    n_v, n_p = len(voxel_coords), len(pillar_coords)
    mat = np.zeros((n_v, n_p), dtype=np.int64)
    for i in range(n_v):
        for j in range(n_p):
            if voxel_coords[i][0] == pillar_coords[j][0] and voxel_coords[i][1] == pillar_coords[j][1]:
                mat[i, j] = 1
    return mat


def monte_carlo_iou(a: Box3D, b: Box3D, samples: int = 1_000_000, seed: int = 0) -> float:
    """Estimate IoU by uniform sampling over the pair's bounding box."""
    corners = np.vstack([corners_3d(a), corners_3d(b)])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(samples, 3))
    in_a = point_in_box(pts, a)
    in_b = point_in_box(pts, b)
    union = int((in_a | in_b).sum())
    if union == 0:
        return 0.0
    return int((in_a & in_b).sum()) / union


def density_bins_reference(points, box: Box3D) -> tuple[set[int], set[int], set[int]]:
    """Occupied (x, y, z) bin sets computed with a per-point loop."""
    occupied_x: set[int] = set()
    occupied_y: set[int] = set()
    occupied_z: set[int] = set()
    cx, cy, cz = box.center
    c, s = math.cos(-box.heading), math.sin(-box.heading)
    for p in np.asarray(points, dtype=np.float64).reshape(-1, 4):
        dx, dy, dz = p[0] - cx, p[1] - cy, p[2] - cz
        lx = c * dx - s * dy
        ly = s * dx + c * dy
        lz = dz
        if abs(lx) > box.dims[0] / 2 or abs(ly) > box.dims[1] / 2 or abs(lz) > box.dims[2] / 2:
            continue
        for local, dim, out in ((lx, box.dims[0], occupied_x), (ly, box.dims[1], occupied_y),
                                (lz, box.dims[2], occupied_z)):
            b = int(math.floor((local + dim / 2) / dim * 10))
            out.add(min(max(b, 0), 9))
    return occupied_x, occupied_y, occupied_z


def greedy_match_reference(gt_boxes, pred_boxes, threshold: float) -> list[int | None]:
    """Round-by-round restatement of the greedy matching protocol.

    Each round picks the globally best remaining (gt, pred) pair at or above
    the threshold, breaking ties on the lower index pair.
    """
    matched: list[int | None] = [None] * len(gt_boxes)
    used = set()
    while True:
        best = None
        for gi, g in enumerate(gt_boxes):
            if matched[gi] is not None:
                continue
            for pi, p in enumerate(pred_boxes):
                if pi in used:
                    continue
                iou = iou3d(g, p)
                if iou < threshold:
                    continue
                cand = (-iou, gi, pi)
                if best is None or cand < best:
                    best = cand
        if best is None:
            return matched
        _, gi, pi = best
        matched[gi] = pi
        used.add(pi)


def recall_by_density_reference(gt_boxes, gt_classes, gt_points, pred_boxes, pred_classes,
                                thresholds) -> list[tuple[float, int, int, float]]:
    """Recall rows from `greedy_match_reference` run class by class and S_Z from
    `density_bins_reference`; `thresholds` is one float or a mapping class -> float."""
    recalled = [False] * len(gt_boxes)
    for cls in set(gt_classes):
        gis = [i for i, c in enumerate(gt_classes) if c == cls]
        preds = [b for b, c in zip(pred_boxes, pred_classes) if c == cls]
        thr = thresholds[cls] if isinstance(thresholds, dict) else thresholds
        for gi, m in zip(gis, greedy_match_reference([gt_boxes[i] for i in gis], preds, thr)):
            recalled[gi] = m is not None
    groups: dict[float, list[bool]] = {}
    for box, pts, hit in zip(gt_boxes, gt_points, recalled):
        groups.setdefault(len(density_bins_reference(pts, box)[2]) / 10, []).append(hit)
    return [(s_z, len(hits), sum(hits), sum(hits) / len(hits))
            for s_z, hits in sorted(groups.items())]
