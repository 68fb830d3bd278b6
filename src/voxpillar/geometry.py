"""Oriented 3D boxes and rotated-box IoU via batched convex polygon clipping.

Candidate pairs are the one IoU code path: `_candidates` keeps the pairs of
a block of a `_BoxTable` whose circumscribed circles and z extents
overlap, and `_pair_iou` clips any list of such pairs in batches, each in
a frame centred on its first box. `iou3d_matrix` scatters their values
into a matrix; recall matching in `density` takes the pairs' values
directly. `iou3d`, `clip_polygon`, `polygon_area` and `bev_corners` are
one-item calls into the same kernels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBox

# BEV intersection areas below this share of the pair's smaller BEV area are
# treated as no overlap (shared edges and touching corners).
AREA_EPS = 1e-12
# Pairs clipped per batch; bounds the clipper's working memory on crowded
# scenes (about 2 KB per pair).
PAIR_CHUNK = 4096
# Relative slack on the sums of circumscribed radii and of half heights in the
# prefilter, far above the rounding of the corner and z-overlap arithmetic.
CIRCLE_MARGIN = 1e-6
# Largest magnitude of a box's centre coordinates and dims, in metres, and the
# reciprocal of its smallest dim. Every product the IoU forms (volumes, squared
# centre distances and radii, corner offset products) then lies between 1e-301
# and 1e301, far inside float64's normal range.
MAX_EXTENT = 1e100
# Largest ratio of a box's BEV length to width, either way round. The shoelace
# area of a rotated box cancels as (l/2)^2 against l*w: at this ratio its
# relative error measured at most 1.4e-10 over 50,000 random headings and
# sizes, and at 1e20 the area can round to 0.
MAX_ASPECT = 1e6


@dataclass(frozen=True)
class Box3D:
    """7-DoF oriented box: center, dims (l, w, h), heading about +z.

    Heading is canonicalized into (-pi, pi]. Centre and dims are at most
    `MAX_EXTENT` in magnitude, dims at least 1 / `MAX_EXTENT`, and length and
    width within a ratio of `MAX_ASPECT`; any other box raises DegenerateBox.
    """

    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    heading: float

    def __post_init__(self):
        center = tuple(float(v) for v in self.center)
        dims = tuple(float(v) for v in self.dims)
        heading = float(self.heading)
        if len(center) != 3 or len(dims) != 3:
            raise DegenerateBox("center and dims must have 3 components")
        if not all(math.isfinite(v) for v in center + dims) or not math.isfinite(heading):
            raise DegenerateBox("box parameters must be finite")
        if max(abs(v) for v in center + dims) > MAX_EXTENT:
            raise DegenerateBox(f"box centre and dims must lie within {MAX_EXTENT:g} m, "
                                f"got center {center}, dims {dims}")
        if min(dims) < 1.0 / MAX_EXTENT:
            raise DegenerateBox(f"dims must be at least {1.0 / MAX_EXTENT:g} m, got {dims}")
        if max(dims[0] / dims[1], dims[1] / dims[0]) > MAX_ASPECT:
            raise DegenerateBox(f"box length and width must lie within a ratio of "
                                f"{MAX_ASPECT:g}, got dims {dims}")
        heading = math.remainder(heading, 2 * math.pi)  # -> [-pi, pi]
        if heading <= -math.pi:
            heading = math.pi
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "heading", heading)


def bev_corners(box: Box3D) -> np.ndarray:
    """The 4 BEV corners, counter-clockwise, shape (4, 2)."""
    return _BoxTable([box]).corners[0] + box.center[:2]


def corner_offsets(box: Box3D) -> np.ndarray:
    """All 8 corners as offsets from the box's centre, shape (8, 3): the BEV corners
    counter-clockwise at the bottom, then at the top."""
    half = box.dims[2] / 2.0
    return np.column_stack((np.tile(_BoxTable([box]).corners[0], (2, 1)),
                            np.repeat((-half, half), 4)))


def corners_3d(box: Box3D) -> np.ndarray:
    """All 8 corners, shape (8, 3)."""
    return corner_offsets(box) + box.center


def enclosing_aabb(a: Box3D, b: Box3D) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned cuboid covering all 16 corners of both boxes, in a frame centred on
    `a`: its (lo, hi) corners as offsets from a's centre."""
    corners = np.vstack([corner_offsets(a), corner_offsets(b) + np.subtract(b.center, a.center)])
    return corners.min(axis=0), corners.max(axis=0)


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a counter-clockwise polygon."""
    poly = np.asarray(poly, dtype=np.float64).reshape(-1, 2)
    return float(_shoelace(poly[None, :, 0], poly[None, :, 1], np.array([len(poly)]))[0])


def clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex subject by a convex CCW clip polygon.

    Points on a clip edge count as inside, so clipping a polygon by itself
    returns its vertex list unchanged.
    """
    subject = np.asarray(subject, dtype=np.float64).reshape(-1, 2)
    clip = np.asarray(clip, dtype=np.float64).reshape(-1, 2)
    x, y, count = _clip(subject[None], np.array([len(subject)]), clip[None])
    return np.column_stack([x[0, :count[0]], y[0, :count[0]]])


def _box_sort_key(box: Box3D):
    return box.center + box.dims + (box.heading,)


def iou3d(a: Box3D, b: Box3D) -> float:
    """Rotated 3D IoU of one pair: clipped BEV area times the vertical overlap.

    Identical boxes give exactly 1.0 and iou3d(a, b) == iou3d(b, a) bitwise;
    the value is the one `iou3d_matrix` gives for the pair.
    """
    return float(iou3d_matrix([a], [b])[0, 0])


def iou3d_matrix(a_boxes, b_boxes) -> np.ndarray:
    """(N, M) rotated 3D IoU of every pair (a_boxes[i], b_boxes[j]).

    A pair whose circumscribed BEV circles or z extents do not overlap is
    0 without clipping; `_pair_iou` gives every other entry. A pair's value
    does not depend on the other boxes, so the matrix is bitwise `iou3d` per
    entry and symmetric under swapping the two lists.
    """
    a_boxes, b_boxes = list(a_boxes), list(b_boxes)
    n = len(a_boxes)
    table = _BoxTable(a_boxes + b_boxes)
    out = np.zeros((n, len(b_boxes)))
    i, j = _candidates(table, np.arange(n), np.arange(n, n + len(b_boxes)))
    out[i, j - n] = _pair_iou(table, i, j)
    return out


class _BoxTable:
    """Per-box arrays of a box list: params (N, 7) in `_box_sort_key` order,
    the rank of each box under that key, CCW BEV corners (N, 4, 2) as offsets
    from the box's centre, BEV area, circumscribed BEV radius and half height."""

    def __init__(self, boxes):
        self.params = np.array([_box_sort_key(b) for b in boxes],
                               dtype=np.float64).reshape(-1, 7)
        # math.cos per box rather than np.cos over the batch: a box's corners
        # must not depend on which batch (or SIMD lane) it was computed in.
        cos = np.array([math.cos(b.heading) for b in boxes], dtype=np.float64)[:, None]
        sin = np.array([math.sin(b.heading) for b in boxes], dtype=np.float64)[:, None]
        p = self.params
        # boxes with equal keys are identical, so their relative rank is moot
        self.rank = np.empty(len(p), dtype=np.int64)
        self.rank[np.lexsort(p.T[::-1])] = np.arange(len(p))
        lx = (p[:, 3] / 2.0)[:, None] * np.array([1.0, -1.0, -1.0, 1.0])
        ly = (p[:, 4] / 2.0)[:, None] * np.array([1.0, 1.0, -1.0, -1.0])
        self.corners = np.stack([lx * cos - ly * sin, lx * sin + ly * cos], axis=-1)
        self.area = _shoelace(self.corners[..., 0], self.corners[..., 1], np.full(len(p), 4))
        self.radius = 0.5 * np.sqrt(p[:, 3] * p[:, 3] + p[:, 4] * p[:, 4])
        self.half = p[:, 5] / 2.0


def _candidates(table: _BoxTable, rows: np.ndarray, cols: np.ndarray):
    """(i, j) table indices of the pairs in the block `rows` x `cols` that may overlap.

    Conservative: the circumscribed-circle radii and the half heights get a
    relative margin far above the rounding of the corner arithmetic and of
    `_pair_iou`'s z overlap, which is positive only if the centres' z
    difference, the same float either way round, is below the half heights'
    sum times 1 + 2^-52. So no pair with positive IoU is dropped.
    """
    p, radius, half = table.params, table.radius, table.half
    dx = p[rows, 0][:, None] - p[cols, 0]
    dy = p[rows, 1][:, None] - p[cols, 1]
    reach = (radius[rows][:, None] + radius[cols]) * (1.0 + CIRCLE_MARGIN)
    near = dx * dx + dy * dy <= reach * reach
    near &= (np.abs(p[rows, 2][:, None] - p[cols, 2])
             <= (half[rows][:, None] + half[cols]) * (1.0 + CIRCLE_MARGIN))
    a, b = np.nonzero(near)
    return rows[a], cols[b]


def _pair_iou(table: _BoxTable, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """IoU of the pairs (table[i], table[j]): each pair's first box in `_box_sort_key`
    order is clipped by its second, `PAIR_CHUNK` pairs a batch.

    The clip and the z overlap run in a frame centred on the first box: its
    corners are its centred ones and its z extent is its half height either
    way of 0; the second box's are its own plus the centre difference. So the
    shoelace sums products of offsets, not of world coordinates, and the
    value stays put when both boxes move far from the origin. Volumes use the
    heights, so identical boxes give inter == vol and exactly 1.0. A BEV
    overlap below `AREA_EPS` of the smaller BEV area counts as none.
    """
    swap = table.rank[j] < table.rank[i]
    first, second = np.where(swap, j, i), np.where(swap, i, j)
    shift = table.params[second, :3] - table.params[first, :3]
    chunks = np.arange(PAIR_CHUNK, len(first), PAIR_CHUNK)
    inter_area = np.concatenate([
        _shoelace(*_clip(table.corners[f], np.full(len(f), 4), table.corners[c] + d))
        for f, c, d in zip(*(np.split(a, chunks)
                             for a in (first, second, shift[:, None, :2])))])
    half_f, half_s, dz = table.half[first], table.half[second], shift[:, 2]
    overlap = np.minimum(half_f, dz + half_s) - np.maximum(-half_f, dz - half_s)
    inter = inter_area * overlap
    area_f, area_s = table.area[first], table.area[second]
    union = area_f * table.params[first, 5] + area_s * table.params[second, 5] - inter
    hit = (inter_area > AREA_EPS * np.minimum(area_f, area_s)) & (overlap > 0.0)
    return np.where(hit, np.clip(inter / np.where(hit, union, 1.0), 0.0, 1.0), 0.0)


def _next_slot(width: int, count: np.ndarray) -> np.ndarray:
    """(P, width) index of each slot's successor around a polygon of count vertices."""
    nxt = np.arange(1, width + 1)
    return np.where(nxt < count[:, None], nxt, 0)


def _shoelace(x: np.ndarray, y: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Shoelace areas of (P, W) polygon coordinates with count valid leading vertices.

    The edge terms are added left to right in vertex order, padding adding
    exact zeros, so one polygon gives the same bits at any padding and the
    clip of a box by itself has exactly the box's area. Fewer than 3
    vertices is area 0.
    """
    rows, width = np.arange(len(x))[:, None], x.shape[1]
    nxt = _next_slot(width, count)
    term = np.where(np.arange(width) < count[:, None], x * y[rows, nxt] - x[rows, nxt] * y, 0.0)
    acc = np.zeros(len(x))
    for k in range(width):
        acc = acc + term[:, k]
    return np.where(count >= 3, 0.5 * acc, 0.0)


def _clip(subject: np.ndarray, count: np.ndarray, clip: np.ndarray):
    """Sutherland-Hodgman over P pairs at once.

    subject (P, K, 2) holds convex polygons with count[p] valid leading
    vertices; clip (P, C, 2) holds convex CCW polygons. Each clip edge keeps
    the vertices on its inner side (an edge point is inside) and adds the
    crossing of every subject edge that changes side, in subject order.
    Returns the clipped (P, W) x and y and the vertex counts. W is the
    largest count of the batch: at most 8 for two rectangles, since each
    clip edge adds at most one vertex to a convex polygon, but taken from
    the counts so a rounding-level sign flip cannot overflow it.
    """
    px, py = subject[..., 0], subject[..., 1]
    rows = np.arange(len(subject))[:, None]
    edges = clip.shape[1]
    for e in range(edges):
        ax, ay = clip[:, e, 0:1], clip[:, e, 1:2]
        ex = clip[:, (e + 1) % edges, 0:1] - ax
        ey = clip[:, (e + 1) % edges, 1:2] - ay
        width = px.shape[1]
        nxt = _next_slot(width, count)
        qx, qy = px[rows, nxt], py[rows, nxt]
        p_in = ex * (py - ay) - ey * (px - ax) >= 0.0
        valid = np.arange(width) < count[:, None]
        # candidates in emission order: p if inside, then the crossing of
        # p -> q with the clip line if the side changes
        emit = np.empty((len(px), 2 * width), dtype=bool)
        emit[:, 0::2] = valid & p_in
        emit[:, 1::2] = valid & (p_in != p_in[rows, nxt])
        dx, dy = qx - px, qy - py
        denom = dx * ey - dy * ex
        parallel = denom == 0.0  # within fp; the crossing falls back to p
        t = ((ax - px) * ey - (ay - py) * ex) / np.where(parallel, 1.0, denom)
        cand_x = np.empty((len(px), 2 * width))
        cand_y = np.empty((len(px), 2 * width))
        cand_x[:, 0::2], cand_y[:, 0::2] = px, py
        cand_x[:, 1::2] = np.where(parallel, px, px + t * dx)
        cand_y[:, 1::2] = np.where(parallel, py, py + t * dy)
        # compact the emitted candidates; the rest land in a spare last slot
        count = emit.sum(axis=1)
        out_width = int(count.max(initial=0))
        slot = np.where(emit, np.cumsum(emit, axis=1) - 1, out_width)
        px = np.zeros((len(px), out_width + 1))
        py = np.zeros_like(px)
        px[rows, slot], py[rows, slot] = cand_x, cand_y
        px, py = px[:, :out_width], py[:, :out_width]
    return px, py, count


def point_in_box(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Face-inclusive membership test for (N, >=3) points."""
    p = np.asarray(points, dtype=np.float64)[:, :3] - np.array(box.center)
    c, s = math.cos(-box.heading), math.sin(-box.heading)
    local_x = c * p[:, 0] - s * p[:, 1]
    local_y = s * p[:, 0] + c * p[:, 1]
    half = np.array(box.dims) / 2.0
    return (np.abs(local_x) <= half[0]) & (np.abs(local_y) <= half[1]) & (np.abs(p[:, 2]) <= half[2])
