"""Property tests of the batched rotated-box IoU and the greedy matcher."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from voxpillar.density import greedy_match
from voxpillar.geometry import (Box3D, _box_sort_key, _BoxTable, _pair_iou, iou3d,
                                iou3d_matrix)
from voxpillar.reference import greedy_match_reference, monte_carlo_iou

PROPERTY = settings(max_examples=60)

coord = st.floats(-6.0, 6.0)
dim = st.floats(0.2, 4.0)
heading = st.floats(-math.pi, math.pi)


@st.composite
def boxes(draw, z=st.floats(-1.0, 1.0)):
    return Box3D(center=(draw(coord), draw(coord), draw(z)),
                 dims=(draw(dim), draw(dim), draw(dim)), heading=draw(heading))


box_lists = st.lists(boxes(), min_size=0, max_size=6)


def radius(box):
    return 0.5 * math.hypot(box.dims[0], box.dims[1])


@PROPERTY
@given(box_lists, box_lists)
def test_matrix_is_pairwise_iou_symmetric_and_bounded(a, b):
    m = iou3d_matrix(a, b)
    assert m.shape == (len(a), len(b)) and m.dtype == np.float64
    for i, j in np.ndindex(m.shape):
        assert m[i, j] == iou3d(a[i], b[j])
    np.testing.assert_array_equal(m, iou3d_matrix(b, a).T)
    assert ((m >= 0.0) & (m <= 1.0)).all()


@PROPERTY
@given(box_lists)
def test_matrix_of_a_list_with_itself_has_unit_diagonal(a):
    m = iou3d_matrix(a, a)
    np.testing.assert_array_equal(np.diag(m), np.ones(len(a)))
    np.testing.assert_array_equal(m, m.T)


@settings(PROPERTY, max_examples=100)
@given(boxes(), boxes(), st.floats(0.0, 2 * math.pi),
       st.one_of(st.floats(0.6, 1.02), st.floats(0.9999, 1.0)),
       st.booleans(), st.floats(-0.05, 0.05))
def test_prefilter_keeps_every_overlapping_pair(a, b, theta, reach, facing, jitter):
    # b sits near the sum of the circumscribed radii, where the circle test
    # decides; facing turns a corner of each box towards the other, the only
    # way such pairs overlap
    d = (radius(a) + radius(b)) * reach
    ha, hb = a.heading, b.heading
    if facing:
        ha = theta - math.atan2(a.dims[1], a.dims[0]) + jitter
        hb = theta + math.pi - math.atan2(b.dims[1], b.dims[0])
    a = Box3D(a.center, a.dims, ha)
    b = Box3D(center=(a.center[0] + d * math.cos(theta), a.center[1] + d * math.sin(theta),
                      b.center[2]), dims=b.dims, heading=hb)
    value = iou3d_matrix([a], [b])[0, 0]
    unfiltered = _pair_iou(_BoxTable(sorted([a, b], key=_box_sort_key)), np.array([0]),
                           np.array([1]))[0]
    assert value == unfiltered
    if monte_carlo_iou(a, b, samples=20_000, seed=0) > 0.01:
        assert value > 0.0


@st.composite
def crowded_scenes(draw):
    """Ground truths packed into 4 m x 4 m, predictions copied from them.

    Exact duplicates among the predictions give equal-IoU ties against every
    ground truth, so the (gt, pred) tie-break decides the matching.
    """
    gts = draw(st.lists(boxes(z=st.floats(-0.3, 0.3)), min_size=1, max_size=5))
    gts = [Box3D((g.center[0] / 3, g.center[1] / 3, g.center[2]), g.dims, g.heading)
           for g in gts]
    preds = []
    for _ in range(draw(st.integers(0, 7))):
        base = gts[draw(st.integers(0, len(gts) - 1))]
        if draw(st.booleans()):
            shift = (draw(st.floats(-0.4, 0.4)), draw(st.floats(-0.4, 0.4)), 0.0)
            base = Box3D(tuple(c + s for c, s in zip(base.center, shift)), base.dims,
                         base.heading + draw(st.floats(-0.3, 0.3)))
        preds.append(base)
        if draw(st.booleans()):
            preds.append(base)  # exact duplicate
    return gts, preds


@settings(PROPERTY, max_examples=25)
@given(crowded_scenes(), st.sampled_from([0.1, 0.3, 0.5, 0.7]))
def test_greedy_match_equals_reference_on_crowded_scenes(scene, threshold):
    gts, preds = scene
    assert greedy_match(gts, preds, threshold) == greedy_match_reference(gts, preds, threshold)
