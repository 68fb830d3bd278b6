"""Oriented 3D boxes and rotated-box IoU via batched convex polygon clipping.

`iou3d_matrix` is the one IoU code path: a circumscribed-circle and z-overlap
prefilter, then Sutherland-Hodgman over all surviving pairs at once.
`iou3d`, `clip_polygon`, `polygon_area` and `bev_corners` are one-item
calls into the same kernels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBox

# BEV intersection areas below this are treated as no overlap (shared
# edges and touching corners).
AREA_EPS = 1e-12
# Pairs clipped per batch; bounds the clipper's working memory on crowded
# scenes (about 2 KB per pair).
PAIR_CHUNK = 4096
# Relative slack on the sum of circumscribed radii in the prefilter, far
# above the rounding of the corner arithmetic.
CIRCLE_MARGIN = 1e-6


@dataclass(frozen=True)
class Box3D:
    """7-DoF oriented box: center, dims (l, w, h), heading about +z.

    Heading is canonicalized into (-pi, pi]; dims must be strictly positive.
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
        if min(dims) <= 0:
            raise DegenerateBox(f"dims must be strictly positive, got {dims}")
        heading = math.remainder(heading, 2 * math.pi)  # -> [-pi, pi]
        if heading <= -math.pi:
            heading = math.pi
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "heading", heading)

    @property
    def z_interval(self) -> tuple[float, float]:
        half = self.dims[2] / 2.0
        return self.center[2] - half, self.center[2] + half

    @classmethod
    def from_json(cls, obj: dict) -> "Box3D":
        return cls(center=tuple(obj["center"]), dims=tuple(obj["dims"]), heading=obj["heading"])


def bev_corners(box: Box3D) -> np.ndarray:
    """The 4 BEV corners, counter-clockwise, shape (4, 2)."""
    return _BoxTable([box]).corners[0]


def corners_3d(box: Box3D) -> np.ndarray:
    """All 8 corners, shape (8, 3)."""
    bev = bev_corners(box)
    lo, hi = box.z_interval
    out = np.empty((8, 3))
    out[:4, :2] = bev
    out[:4, 2] = lo
    out[4:, :2] = bev
    out[4:, 2] = hi
    return out


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

    A pair whose circumscribed BEV circles or z intervals do not overlap is
    0 without clipping. Every other pair is put in `_box_sort_key` order and
    clipped in batches of `PAIR_CHUNK`; a pair's value does not depend on the
    other boxes, so the matrix is bitwise `iou3d` per entry and symmetric
    under swapping the two lists.
    """
    a_boxes, b_boxes = list(a_boxes), list(b_boxes)
    n = len(a_boxes)
    table = _BoxTable(a_boxes + b_boxes)
    out = np.zeros((n, len(b_boxes)))
    i, j = _candidates(table, n)
    swap = table.rank[j + n] < table.rank[i]
    first, second = np.where(swap, j + n, i), np.where(swap, i, j + n)
    for s in range(0, len(i), PAIR_CHUNK):
        chunk = slice(s, s + PAIR_CHUNK)
        out[i[chunk], j[chunk]] = _pair_iou(table, first[chunk], second[chunk])
    return out


class _BoxTable:
    """Per-box arrays of a box list: params (N, 7) in `_box_sort_key` order,
    the rank of each box under that key, CCW BEV corners (N, 4, 2), BEV area
    and the z interval."""

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
        self.corners = np.stack([lx * cos - ly * sin + p[:, :1],
                                 lx * sin + ly * cos + p[:, 1:2]], axis=-1)
        self.area = _shoelace(self.corners[..., 0], self.corners[..., 1], np.full(len(p), 4))
        half = p[:, 5] / 2.0
        self.lo, self.hi = p[:, 2] - half, p[:, 2] + half


def _candidates(table: _BoxTable, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the pairs (table[i], table[n + j]) that may overlap.

    Conservative: the circumscribed-circle radii get a relative margin far
    above the rounding of the corner arithmetic, and the z test is the exact
    `dz > 0` of `_pair_iou`, so no pair with positive IoU is dropped.
    """
    p = table.params
    radius = 0.5 * np.sqrt(p[:, 3] * p[:, 3] + p[:, 4] * p[:, 4])
    dx = p[:n, None, 0] - p[None, n:, 0]
    dy = p[:n, None, 1] - p[None, n:, 1]
    reach = (radius[:n, None] + radius[None, n:]) * (1.0 + CIRCLE_MARGIN)
    near = dx * dx + dy * dy <= reach * reach
    near &= (np.minimum(table.hi[:n, None], table.hi[None, n:])
             - np.maximum(table.lo[:n, None], table.lo[None, n:])) > 0.0
    return np.nonzero(near)


def _pair_iou(table: _BoxTable, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """IoU of the pairs (table[first], table[second]), first clipped by second.

    Volumes use the z-interval width, like the overlap, so identical boxes
    give inter == vol and exactly 1.0.
    """
    x, y, count = _clip(table.corners[first], np.full(len(first), 4), table.corners[second])
    inter_area = _shoelace(x, y, count)
    lo_f, hi_f, lo_s, hi_s = table.lo[first], table.hi[first], table.lo[second], table.hi[second]
    dz = np.minimum(hi_f, hi_s) - np.maximum(lo_f, lo_s)
    inter = inter_area * dz
    union = table.area[first] * (hi_f - lo_f) + table.area[second] * (hi_s - lo_s) - inter
    hit = (inter_area > AREA_EPS) & (dz > 0.0)
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


def enclosing_aabb(a: Box3D, b: Box3D) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned cuboid covering all 16 corners of both boxes."""
    corners = np.vstack([corners_3d(a), corners_3d(b)])
    return corners.min(axis=0), corners.max(axis=0)


def point_in_box(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Face-inclusive membership test for (N, >=3) points."""
    p = np.asarray(points, dtype=np.float64)[:, :3] - np.array(box.center)
    c, s = math.cos(-box.heading), math.sin(-box.heading)
    local_x = c * p[:, 0] - s * p[:, 1]
    local_y = s * p[:, 0] + c * p[:, 1]
    half = np.array(box.dims) / 2.0
    return (np.abs(local_x) <= half[0]) & (np.abs(local_y) <= half[1]) & (np.abs(p[:, 2]) <= half[2])
