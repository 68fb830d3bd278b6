import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxpillar.density import density_records, greedy_match, recall_by_density, vertical_density
from voxpillar.errors import ShapeMismatch
from voxpillar.geometry import CIRCLE_MARGIN, Box3D
from voxpillar.reference import density_bins_reference, greedy_match_reference


def box_at(center=(0.0, 0.0, 0.0), dims=(2.0, 2.0, 2.0), heading=0.0):
    return Box3D(center=center, dims=dims, heading=heading)


def points_at_bin_centers(box, bins):
    """One point per requested vertical bin, at the box center in X-Y."""
    h = box.dims[2]
    z0 = box.center[2] - h / 2
    pts = [[box.center[0], box.center[1], z0 + (b + 0.5) * h / 10, 0.0] for b in bins]
    return np.array(pts) if pts else np.empty((0, 4))


def test_all_bins_hit():
    box = box_at()
    rec = vertical_density(points_at_bin_centers(box, range(10)), box)
    assert rec.s_z == 1.0
    assert rec.point_count == 10


def test_bottom_half_only():
    box = box_at()
    rng = np.random.default_rng(70)
    pts = np.empty((50, 4))
    pts[:, 0] = rng.uniform(-1, 1, 50)
    pts[:, 1] = rng.uniform(-1, 1, 50)
    pts[:, 2] = rng.uniform(-1.0, 0.0, 50)  # bottom half of [-1, 1]
    pts[:, 3] = 0.0
    rec = vertical_density(pts, box)
    assert rec.s_z <= 0.5


def test_exact_k_over_ten():
    box = box_at(center=(1.0, -2.0, 0.5), dims=(1.5, 2.5, 3.0), heading=0.4)
    for k in range(11):
        rec = vertical_density(points_at_bin_centers(box, range(k)), box)
        assert rec.s_z == k / 10


def test_empty_cloud():
    rec = vertical_density(np.empty((0, 4)), box_at())
    assert rec.s_z == 0.0 and rec.point_count == 0 and rec.horizontal_occupancy == 0.0


def test_one_point_implies_tenth():
    box = box_at()
    rec = vertical_density(np.array([[0.1, 0.1, 0.1, 0.0]]), box)
    assert rec.s_z >= 0.1
    assert rec.s_z in {round(k / 10, 1) for k in range(11)}


def test_matches_per_point_oracle_rotated():
    rng = np.random.default_rng(71)
    for trial in range(20):
        box = box_at(center=tuple(rng.uniform(-3, 3, size=3)),
                     dims=tuple(rng.uniform(0.5, 4.0, size=3)),
                     heading=rng.uniform(-math.pi, math.pi))
        # mix of in-box and stray points
        pts = np.empty((200, 4))
        pts[:, :3] = rng.uniform(-5, 5, size=(200, 3))
        pts[:, 3] = 0.0
        rec = vertical_density(pts, box)
        occ_x, occ_y, occ_z = density_bins_reference(pts, box)
        assert rec.s_z == len(occ_z) / 10
        assert rec.horizontal_occupancy == math.sqrt((len(occ_x) / 10) * (len(occ_y) / 10))


def test_face_points_count_inside():
    box = box_at(dims=(2.0, 2.0, 2.0))
    pts = np.array([[1.0, 0.0, 1.0, 0.0]])  # on the +x and +z faces
    rec = vertical_density(pts, box)
    assert rec.point_count == 1
    assert rec.s_z == 0.1


def _shifted(box, dx):
    return Box3D(center=(box.center[0] + dx, box.center[1], box.center[2]),
                 dims=box.dims, heading=box.heading)


def test_recall_perfect_predictions():
    rng = np.random.default_rng(72)
    boxes = [box_at(center=(4.0 * i, 0.0, 0.0)) for i in range(5)]
    clouds = [points_at_bin_centers(b, range(rng.integers(1, 11))) for b in boxes]
    classes = ["Vehicle"] * len(boxes)
    rows = recall_by_density(boxes, classes, clouds, boxes, classes, 0.7)
    assert rows and all(r[3] == 1.0 for r in rows)
    assert sum(r[1] for r in rows) == len(boxes)


def test_recall_no_predictions():
    boxes = [box_at()]
    rows = recall_by_density(boxes, ["Vehicle"], [points_at_bin_centers(boxes[0], [0])],
                             [], [], 0.7)
    assert rows == [(0.1, 1, 0, 0.0)]


def test_recall_respects_class():
    boxes = [box_at()]
    clouds = [points_at_bin_centers(boxes[0], range(10))]
    rows = recall_by_density(boxes, ["Vehicle"], clouds, boxes, ["Pedestrian"], 0.5)
    assert rows == [(1.0, 1, 0, 0.0)]


def test_greedy_matches_reference_protocol():
    rng = np.random.default_rng(73)
    for trial in range(15):
        n_gt = int(rng.integers(1, 8))
        n_pred = int(rng.integers(0, 10))
        gts = [box_at(center=tuple(rng.uniform(-4, 4, size=3)),
                      dims=tuple(rng.uniform(0.8, 2.0, size=3)),
                      heading=rng.uniform(-math.pi, math.pi)) for _ in range(n_gt)]
        preds = []
        for _ in range(n_pred):
            base = gts[rng.integers(n_gt)]
            preds.append(Box3D(center=tuple(np.array(base.center) + rng.uniform(-0.5, 0.5, 3)),
                               dims=base.dims, heading=base.heading))
        thr = 0.3
        assert greedy_match(gts, preds, thr) == greedy_match_reference(gts, preds, thr)


def test_greedy_one_pred_per_gt():
    gt = [box_at(), _shifted(box_at(), 0.1)]
    pred = [box_at()]  # overlaps both ground truths
    matched = greedy_match(gt, pred, 0.3)
    assert matched.count(0) == 1 and matched.count(None) == 1


# Box-frame coordinates in units of the half dims: on a face (+-1) or inside,
# then nudged just inside or just outside by a relative step.
_on_face = st.sampled_from([-1.0, 1.0])
_nudge = st.sampled_from([0.0, -1e-15, 1e-15, -1e-9, 1e-9])


@st.composite
def box_with_boundary_points(draw):
    """A rotated box and points on its faces, edges, corners and near its BEV circle."""
    centre = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e4, 1e4))
    dims = tuple(draw(st.floats(0.05, 20.0)) for _ in range(3))
    # Besides any heading, headings that put a corner on a world axis, where
    # the x and y offsets reach the circumscribed radius
    corner_angle = math.atan2(dims[1], dims[0])
    aligned = st.builds(lambda m, sign: m * math.pi / 2 + sign * corner_angle,
                        st.integers(0, 3), st.sampled_from([-1.0, 1.0]))
    box = box_at(center=tuple(draw(centre) for _ in range(3)), dims=dims,
                 heading=draw(st.one_of(st.floats(-math.pi, math.pi), aligned)))
    half = np.array(box.dims) / 2.0
    local = [[draw(st.one_of(_on_face, st.floats(-1.0, 1.0))) * (1.0 + draw(_nudge)) * h
              for h in half] for _ in range(draw(st.integers(0, 24)))]
    # Points around the circumscribed radius, in any BEV direction
    radius = math.hypot(box.dims[0], box.dims[1]) / 2.0
    ring = [(radius * (1.0 + draw(st.sampled_from([-1e-9, 0.0, 1e-9, 1e-6, 2e-6]))),
             draw(st.floats(-math.pi, math.pi)), draw(st.floats(-1.0, 1.0)) * half[2])
            for _ in range(draw(st.integers(0, 8)))]
    c, s = math.cos(box.heading), math.sin(box.heading)
    cx, cy, cz = box.center
    pts = [[cx + c * x - s * y, cy + s * x + c * y, cz + z, 0.0] for x, y, z in local]
    pts += [[cx + r * math.cos(a), cy + r * math.sin(a), cz + z, 0.0] for r, a, z in ring]
    return box, np.array(pts).reshape(-1, 4)


@settings(max_examples=150)
@given(box_with_boundary_points())
def test_prefilter_matches_per_point_oracle(case):
    box, pts = case
    rec = vertical_density(pts, box)
    occ_x, occ_y, occ_z = density_bins_reference(pts, box)
    assert rec.s_z == len(occ_z) / 10
    assert rec.horizontal_occupancy == math.sqrt((len(occ_x) / 10) * (len(occ_y) / 10))
    # point by point: in the box for the engine exactly when the oracle bins it
    inside = [vertical_density(p[None], box).point_count for p in pts]
    assert inside == [len(density_bins_reference(p[None], box)[2]) for p in pts]
    assert rec.point_count == sum(inside)


@st.composite
def box_in_background_cloud(draw):
    """A `box_with_boundary_points` case among background points and points exactly
    on the edges of the x-y band, cx +- reach and cy +- reach, as a row-major cloud."""
    box, pts = draw(box_with_boundary_points())
    cx, cy, cz = box.center
    reach = 0.5 * math.hypot(box.dims[0], box.dims[1]) * (1.0 + CIRCLE_MARGIN)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    along = rng.uniform(-1.0, 1.0, n) * reach
    edge_x = np.where(rng.random(n) < 0.5, cx - reach, cx + reach)
    edge_y = np.where(rng.random(n) < 0.5, cy - reach, cy + reach)
    on_x = rng.random(n) < 0.5
    z = cz + rng.uniform(-0.5, 0.5, n) * box.dims[2]
    edges = np.column_stack((np.where(on_x, edge_x, cx + along),
                             np.where(on_x, cy + along, edge_y), z, np.zeros(n)))
    m = draw(st.integers(0, 200))
    background = np.column_stack((cx + rng.uniform(-3.0, 3.0, m) * reach,
                                  cy + rng.uniform(-3.0, 3.0, m) * reach,
                                  cz + rng.uniform(-1.0, 1.0, m) * box.dims[2], rng.random(m)))
    cloud = np.concatenate((pts, edges, background))
    return box, cloud[rng.permutation(len(cloud))]


@settings(max_examples=150)
@given(box_in_background_cloud())
def test_band_prefilter_gives_the_same_record_in_either_layout(case):
    box, cloud = case
    assert cloud.flags.c_contiguous
    rec = vertical_density(cloud, box)
    column_major = np.asfortranarray(cloud)
    assert repr(vertical_density(column_major, box)) == repr(rec)
    # the whole cloud mapped without a prefilter
    assert repr(density_records([box], [cloud])[0]) == repr(rec)
    occ_x, occ_y, occ_z = density_bins_reference(cloud, box)
    assert rec.s_z == len(occ_z) / 10
    assert rec.horizontal_occupancy == math.sqrt((len(occ_x) / 10) * (len(occ_y) / 10))


def test_one_box_on_a_column_major_cloud_allocates_under_4_bytes_per_point():
    # A float temporary over the cloud would take 8 bytes per point, a copy 32.
    rng = np.random.default_rng(74)
    n = 100_000
    cloud = np.asfortranarray(np.column_stack((rng.uniform(0.0, 100.0, (n, 2)),
                                               rng.uniform(0.0, 3.0, n), rng.random(n))))
    box = box_at(center=(50.0, 50.0, 1.5), dims=(4.5, 1.9, 1.6), heading=0.3)
    tracemalloc.start()
    try:
        rec = vertical_density(cloud, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.point_count > 0
    assert peak < 4 * n


@st.composite
def boxes_with_point_lists(draw):
    """0-6 boxes with their boundary points as (N, 3), (N, 4) or (N, 5) lists, some empty."""
    boxes, lists = [], []
    for _ in range(draw(st.integers(0, 6))):
        box, pts = draw(box_with_boundary_points())
        if draw(st.booleans()):
            pts = pts[:0]
        width = draw(st.sampled_from([3, 4, 5]))
        boxes.append(box)
        lists.append(np.pad(pts, ((0, 0), (0, 1)))[:, :width])
    return boxes, lists


@settings(max_examples=100)
@given(boxes_with_point_lists())
def test_batched_records_equal_one_box_records_bitwise(scene):
    boxes, lists = scene
    want = [vertical_density(pts, box, box_id=i) for i, (box, pts) in enumerate(zip(boxes, lists))]
    assert repr(density_records(boxes, lists)) == repr(want)


def _recall_scene(seed):
    """Ground truths of 3 classes with in-box points, and jittered predictions of most."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    classes = [str(c) for c in rng.choice(["Vehicle", "Pedestrian", "Cyclist"], size=n)]
    boxes = [box_at(center=tuple(rng.uniform(-8, 8, 3)), dims=tuple(rng.uniform(0.5, 4.0, 3)),
                    heading=rng.uniform(-math.pi, math.pi)) for _ in range(n)]
    points = []
    for box in boxes:
        local = rng.uniform(-0.5, 0.5, size=(int(rng.integers(0, 30)), 3)) * box.dims
        c, s = math.cos(box.heading), math.sin(box.heading)
        world = np.column_stack((c * local[:, 0] - s * local[:, 1],
                                 s * local[:, 0] + c * local[:, 1], local[:, 2])) + box.center
        points.append(np.column_stack((world, np.zeros(len(world)))))
    kept = [i for i in range(n) if rng.random() < 0.8]
    preds = [Box3D(tuple(np.array(boxes[i].center) + rng.normal(0, 0.2, 3)), boxes[i].dims,
                   boxes[i].heading + rng.normal(0, 0.1)) for i in kept]
    return boxes, classes, points, preds, [classes[i] for i in kept]


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_recall_rows_do_not_depend_on_ground_truth_order(seed, random):
    boxes, classes, points, preds, pred_classes = _recall_scene(seed)
    order = list(range(len(boxes)))
    random.shuffle(order)
    thresholds = {"Vehicle": 0.5, "Pedestrian": 0.3, "Cyclist": 0.3}
    want = recall_by_density(boxes, classes, points, preds, pred_classes, thresholds)
    got = recall_by_density([boxes[i] for i in order], [classes[i] for i in order],
                            [points[i] for i in order], preds, pred_classes, thresholds)
    assert got == want


@pytest.mark.parametrize("bad", [[1.0, 2.0, 3.0, 0.0], np.zeros((3, 2)), np.zeros((2, 3, 4))])
def test_malformed_point_lists_raise_shape_mismatch(bad):
    boxes = [box_at(), box_at(center=(5.0, 0.0, 0.0))]
    good = points_at_bin_centers(boxes[0], range(4))
    with pytest.raises(ShapeMismatch, match="ground truth 1"):
        recall_by_density(boxes, ["Vehicle"] * 2, [good, bad], boxes, ["Vehicle"] * 2, 0.5)
    with pytest.raises(ShapeMismatch, match="ground truth 1"):
        density_records(boxes, [good, bad])
    with pytest.raises(ShapeMismatch, match="ground truth 7"):
        vertical_density(bad, boxes[1], box_id=7)


def test_empty_lists_and_extra_columns_are_accepted():
    box = box_at()
    pts = points_at_bin_centers(box, range(6))
    want = vertical_density(pts, box)
    for variant in (pts[:, :3], np.column_stack((pts, pts)), pts.tolist()):
        assert vertical_density(variant, box) == want
        assert density_records([box], [variant]) == [want]
    for empty in ([], np.empty((0, 2)), np.empty((0,))):
        assert vertical_density(empty, box).point_count == 0
        assert density_records([box], [empty])[0].point_count == 0
