import math
import warnings

import numpy as np
import pytest

from voxpillar.errors import DegenerateBox
from voxpillar.geometry import (MAX_ASPECT, MAX_EXTENT, Box3D, bev_corners, clip_polygon,
                                corners_3d, enclosing_aabb, iou3d, iou3d_matrix, point_in_box,
                                polygon_area)
from voxpillar.losses import diou_loss
from voxpillar.selftest import iou_monte_carlo_errors, random_box_pair


def test_box_validation():
    with pytest.raises(DegenerateBox):
        Box3D(center=(0, 0, 0), dims=(1, 0, 1), heading=0.0)
    with pytest.raises(DegenerateBox):
        Box3D(center=(0, 0, float("nan")), dims=(1, 1, 1), heading=0.0)
    b = Box3D(center=(0, 0, 0), dims=(1, 1, 1), heading=3 * math.pi)
    assert -math.pi < b.heading <= math.pi
    assert math.isclose(abs(b.heading), math.pi)


def test_boxes_beyond_the_extent_bound_are_refused():
    for center, dims in (((1, 1, 1), (1e200, 1e200, 1e200)), ((1e308, 0, 0), (1, 1, 1)),
                         ((0, -1.0000001e100, 0), (1, 1, 1)), ((0, 0, 0), (1, 2e100, 1))):
        with pytest.raises(DegenerateBox, match="within 1e[+]100 m"):
            Box3D(center, dims, 0.0)


def test_boxes_at_the_extent_bound_give_iou_without_warnings():
    e = MAX_EXTENT
    boxes = [Box3D(c, d, h) for c in ((-e, -e, -e), (e, e, e), (e, -e, 0.0), (0.0, 0.0, 0.0))
             for d in ((e, e, e), (e / 3, e / 2, e), (1.0, 1.0, 1.0), (1 / e, 1 / e, 1 / e),
                       (MAX_ASPECT, 1.0, 1.0), (1.0, MAX_ASPECT, 1 / e), (e, e / MAX_ASPECT, 1.0))
             for h in (0.0, 0.3, math.pi / 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = iou3d_matrix(boxes, boxes)
    assert ((m >= 0.0) & (m <= 1.0)).all()
    np.testing.assert_array_equal(m, m.T)
    # in the pair frame every box is itself, however far up, small or long
    np.testing.assert_array_equal(np.diag(m), np.ones(len(boxes)))
    assert all(diou_loss(b, b) == 0.0 for b in boxes)


@pytest.mark.parametrize("dims,match", [
    ((1.0, 1.0, 0.99e-100), "at least 1e-100 m"), ((1.0, 0.0, 1.0), "at least 1e-100 m"),
    ((1.01e6, 1.0, 1.0), "within a ratio of 1e[+]06"),
    ((1e-90, 1e-97, 1.0), "within a ratio of 1e[+]06")])
def test_boxes_too_small_or_too_long_are_refused(dims, match):
    with pytest.raises(DegenerateBox, match=match):
        Box3D((0.0, 0.0, 0.0), dims, 0.3)


def test_tiny_half_shifted_cubes_overlap_by_a_third():
    # their BEV overlap, size^2 / 2, lies far below any absolute area threshold
    for size in (1e-6, 1e-20, 1 / MAX_EXTENT):
        cube = Box3D((0.0, 0.0, 0.0), (size, size, size), 0.0)
        shifted = Box3D((size / 2, 0.0, 0.0), (size, size, size), 0.0)
        assert abs(iou3d(cube, shifted) - 1 / 3) <= 1e-9


def test_bev_corners_shape_and_area():
    b = Box3D(center=(1.0, 2.0, 0.0), dims=(4.0, 2.0, 1.0), heading=0.3)
    corners = bev_corners(b)
    assert corners.shape == (4, 2)
    assert math.isclose(polygon_area(corners), 8.0, rel_tol=1e-12)
    assert corners_3d(b).shape == (8, 3)


def test_clip_identical_polygons_is_exact():
    b = Box3D(center=(0.3, 0.7, 0.0), dims=(1.7, 0.9, 1.0), heading=0.41)
    poly = bev_corners(b)
    clipped = clip_polygon(poly, poly)
    np.testing.assert_array_equal(clipped, poly)


def test_iou_identical_is_exactly_one():
    b = Box3D(center=(0.3, -0.2, 0.9), dims=(1.3, 2.2, 0.7), heading=1.1)
    assert iou3d(b, b) == 1.0


def test_iou_identical_is_exactly_one_over_random_boxes():
    rng = np.random.default_rng(54)
    for trial in range(1000):
        b = Box3D(center=tuple(rng.uniform(-50, 50, size=3)),
                  dims=tuple(rng.uniform(0.2, 5.0, size=3)), heading=rng.uniform(-4, 4))
        assert iou3d(b, b) == 1.0
        assert diou_loss(b, b) == 0.0
    # crowded, so the batch also clips 8-vertex polygons: padding must not
    # change the order the self-intersection area is summed in
    crowded = [Box3D(center=tuple(rng.uniform(-1, 1, size=3)),
                     dims=tuple(rng.uniform(0.5, 3.0, size=3)), heading=rng.uniform(-4, 4))
               for _ in range(200)]
    np.testing.assert_array_equal(np.diag(iou3d_matrix(crowded, crowded)), np.ones(200))


def test_iou_matrix_shapes_and_empty_lists():
    a = [Box3D(center=(0, 0, 0), dims=(1, 1, 1), heading=0.0),
         Box3D(center=(0.5, 0, 0), dims=(1, 1, 1), heading=0.0)]
    assert iou3d_matrix([], a).shape == (0, 2)
    assert iou3d_matrix(a, []).shape == (2, 0)
    m = iou3d_matrix(a, a[:1])
    assert m.shape == (2, 1) and m[0, 0] == 1.0 and abs(m[1, 0] - 1.0 / 3.0) <= 1e-9


def test_iou_disjoint_is_zero():
    a = Box3D(center=(0, 0, 0), dims=(1, 1, 1), heading=0.2)
    b = Box3D(center=(100, 0, 0), dims=(1, 1, 1), heading=-0.4)
    assert iou3d(a, b) == 0.0
    c = Box3D(center=(0, 0, 100), dims=(1, 1, 1), heading=0.0)  # vertical gap only
    assert iou3d(a, c) == 0.0


def test_iou_offset_unit_cubes():
    a = Box3D(center=(0, 0, 0), dims=(1, 1, 1), heading=0.0)
    b = Box3D(center=(0.5, 0, 0), dims=(1, 1, 1), heading=0.0)
    assert abs(iou3d(a, b) - 1.0 / 3.0) <= 1e-9


def test_iou_symmetry_exact():
    rng = np.random.default_rng(50)
    for trial in range(25):
        a, b = random_box_pair(rng)
        assert iou3d(a, b) == iou3d(b, a)


def test_iou_rigid_invariance():
    rng = np.random.default_rng(51)
    for trial in range(10):
        a, b = random_box_pair(rng)
        base = iou3d(a, b)
        shift = rng.uniform(-5, 5, size=3)
        phi = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(phi), math.sin(phi)

        def move(box):
            x, y, z = box.center
            rx, ry = c * x - s * y, s * x + c * y
            return Box3D(center=(rx + shift[0], ry + shift[1], z + shift[2]),
                         dims=box.dims, heading=box.heading + phi)

        assert abs(iou3d(move(a), move(b)) - base) <= 1e-9


def test_iou_uniform_scaling_containment():
    b = Box3D(center=(1.0, -2.0, 0.5), dims=(2.0, 1.0, 1.5), heading=0.77)
    for s in (1.5, 2.0, 3.0):
        scaled = Box3D(center=b.center, dims=tuple(d * s for d in b.dims), heading=b.heading)
        assert abs(iou3d(b, scaled) - 1.0 / s**3) <= 1e-9


def test_iou_against_monte_carlo():
    assert (iou_monte_carlo_errors(10, seed=52, samples=200_000) <= 0.02).all()


def test_enclosing_aabb_covers_both():
    rng = np.random.default_rng(53)
    a, b = random_box_pair(rng)
    lo, hi = enclosing_aabb(a, b)  # offsets from a's centre
    corners = np.vstack([corners_3d(a), corners_3d(b)]) - a.center
    assert (corners >= lo - 1e-12).all() and (corners <= hi + 1e-12).all()
    assert np.isclose(corners.min(axis=0), lo, rtol=0, atol=1e-12).all()
    assert np.isclose(corners.max(axis=0), hi, rtol=0, atol=1e-12).all()


def test_point_in_box_faces_inclusive():
    b = Box3D(center=(0, 0, 0), dims=(2, 2, 2), heading=0.0)
    pts = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [1.0001, 0.0, 0.0, 0.0]])
    inside = point_in_box(pts, b)
    np.testing.assert_array_equal(inside, [True, True, False])


def test_touching_boxes_have_zero_iou():
    a = Box3D(center=(0, 0, 0), dims=(1, 1, 1), heading=0.0)
    b = Box3D(center=(1.0, 0, 0), dims=(1, 1, 1), heading=0.0)  # shared face
    assert iou3d(a, b) == 0.0
