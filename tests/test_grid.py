import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxpillar.errors import EmptyGrid, InvalidTensor, ShapeMismatch
from voxpillar.grid import (GridSpec, PointEncoderWeights, SparseTensor, assign_voxel_indices,
                            build_pillar_features, build_voxel_features, pack_coords, voxelize)
from voxpillar.reference import groupby_max, groupby_mean
from voxpillar.selftest import random_cloud


def identity_encoder():
    return PointEncoderWeights(weight=np.eye(4), bias=np.zeros(4))


def test_grid_spec_extents(desk_grid):
    assert desk_grid.extents == (64, 64, 16)
    assert desk_grid.bev_extents == (64, 64)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((0, 0, 0), (0, 1, 1), (0.1, 0.1, 0.1))
    with pytest.raises(ValueError):
        GridSpec((0, 0, 0), (1, 1, 1), (0.1, -0.1, 0.1))
    with pytest.raises(ValueError):
        GridSpec((0, 0, 0), (1e7, 1e7, 1e7), (0.001, 0.001, 0.001))


def test_assign_simple_floor():
    spec = GridSpec((0, 0, 0), (1, 1, 1), (0.1, 0.1, 0.1))
    idx, dropped = assign_voxel_indices([[0.05, 0.05, 0.05, 1.0]], spec)
    assert dropped == 0
    assert tuple(idx[0]) == (0, 0, 0)


def test_assign_drops_at_range_max():
    spec = GridSpec((0, 0, 0), (1, 1, 1), (0.1, 0.1, 0.1))
    pts = [[1.0, 0.5, 0.5, 0.0], [0.5, 1.0, 0.5, 0.0], [0.5, 0.5, 1.0, 0.0]]
    idx, dropped = assign_voxel_indices(pts, spec)
    assert dropped == 3
    assert (idx == -1).all()


def test_assign_matches_per_point_oracle(desk_grid):
    rng = np.random.default_rng(11)
    pts = random_cloud(rng, 1000, desk_grid)
    idx, dropped = assign_voxel_indices(pts, desk_grid)
    assert dropped == 0
    assert (idx >= 0).all()
    assert (idx < np.array(desk_grid.extents)).all()
    # scalar per-point recomputation
    for p, got in zip(pts, idx):
        expect = [int(np.floor((p[a] - desk_grid.range_min[a]) / desk_grid.voxel_size[a]))
                  for a in range(3)]
        assert list(got) == expect


def test_assign_counts_add_up(desk_grid):
    rng = np.random.default_rng(12)
    pts = random_cloud(rng, 200, desk_grid)
    pts[:50, 0] += 100.0  # push out of range
    idx, dropped = assign_voxel_indices(pts, desk_grid)
    assert dropped + int((idx[:, 0] >= 0).sum()) == len(pts)
    assert dropped == 50


def test_voxel_mean_of_two_points():
    spec = GridSpec((0, 0, 0), (1, 1, 1), (0.1, 0.1, 0.1))
    pts = [[0.01, 0.01, 0.01, 1.0], [0.03, 0.03, 0.03, 3.0]]
    t = build_voxel_features(voxelize(pts, spec))
    assert t.num_sites == 1
    np.testing.assert_allclose(t.features[0], [0.02, 0.02, 0.02, 2.0])


def test_voxel_singletons_passthrough(desk_grid):
    pts = np.array([[0.05, 0.05, 0.05, 1.0], [3.05, 2.05, 1.0, 0.5], [6.35, 6.35, 2.25, 0.2]])
    t = build_voxel_features(voxelize(pts, desk_grid))
    assert t.num_sites == 3
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    np.testing.assert_array_equal(t.features, pts[order])


def test_voxel_means_match_groupby_oracle(desk_grid):
    rng = np.random.default_rng(13)
    pts = random_cloud(rng, 500, desk_grid)
    t = build_voxel_features(voxelize(pts, desk_grid))
    idx, _ = assign_voxel_indices(pts, desk_grid)
    expected = groupby_mean(pts, idx)
    assert t.num_sites == len(expected)
    for coord, feat in zip(t.coords, t.features):
        np.testing.assert_allclose(feat, expected[tuple(coord)], atol=1e-6)
    t.validate()


def test_voxel_empty_grid():
    spec = GridSpec((0, 0, 0), (1, 1, 1), (0.1, 0.1, 0.1))
    with pytest.raises(EmptyGrid):
        voxelize([[5.0, 5.0, 5.0, 0.0]], spec)


def test_pillar_identity_encoder_single_point(desk_grid):
    pts = [[0.25, 0.35, 0.45, -0.5]]
    t = build_pillar_features(voxelize(pts, desk_grid), identity_encoder())
    assert t.num_sites == 1
    assert tuple(t.coords[0]) == (2, 3)
    np.testing.assert_allclose(t.features[0], [0.25, 0.35, 0.45, 0.0])  # ReLU clips intensity


def test_pillar_elementwise_max():
    spec = GridSpec((0, 0, 0), (1, 1, 1), (1.0, 1.0, 1.0))
    # encoder picks (x, y) channels only
    w = PointEncoderWeights(weight=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
                            bias=np.zeros(2))
    pts = [[0.9, 0.0, 0.1, 0.0], [0.0, 0.9, 0.2, 0.0]]  # features (0.9, 0) and (0, 0.9)
    t = build_pillar_features(voxelize(pts, spec), w)
    assert t.num_sites == 1
    np.testing.assert_allclose(t.features[0], [0.9, 0.9])


def test_pillar_matches_groupby_oracle(desk_grid):
    rng = np.random.default_rng(14)
    pts = random_cloud(rng, 400, desk_grid)
    w = PointEncoderWeights(weight=rng.normal(size=(4, 8)), bias=rng.normal(size=8))
    t = build_pillar_features(voxelize(pts, desk_grid), w)
    idx, _ = assign_voxel_indices(pts, desk_grid)
    encoded = np.maximum(pts @ w.weight + w.bias, 0.0)
    expected = groupby_max(encoded, idx[:, :2])
    assert t.num_sites == len(expected)
    for coord, feat in zip(t.coords, t.features):
        np.testing.assert_allclose(feat, expected[tuple(coord)], atol=1e-6)
    t.validate()


def test_pillar_weight_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        PointEncoderWeights(weight=np.eye(3), bias=np.zeros(3))
    with pytest.raises(ShapeMismatch):
        PointEncoderWeights(weight=np.eye(4), bias=np.zeros(5))


def test_bev_consistency_at_stride_one(desk_grid):
    rng = np.random.default_rng(15)
    for trial in range(20):
        pts = random_cloud(rng, rng.integers(1, 300), desk_grid)
        cloud = voxelize(pts, desk_grid)
        voxels = build_voxel_features(cloud)
        pillars = build_pillar_features(cloud, identity_encoder())
        np.testing.assert_array_equal(voxels.bev_coords(), pillars.coords)


def test_permutation_invariance(desk_grid):
    rng = np.random.default_rng(16)
    pts = random_cloud(rng, 300, desk_grid)
    # clusters of ~10 points per voxel, where a sum's bits depend on its order
    cluster = np.repeat(pts[:10], 10, axis=0) + rng.uniform(-0.01, 0.01, size=(100, 4))
    pts = np.concatenate([pts, cluster])
    w = PointEncoderWeights(weight=rng.normal(size=(4, 6)), bias=rng.normal(size=6))
    cloud = voxelize(pts, desk_grid)
    v0 = build_voxel_features(cloud)
    p0 = build_pillar_features(cloud, w)
    for trial in range(5):
        moved = voxelize(pts[rng.permutation(len(pts))], desk_grid)
        v1 = build_voxel_features(moved)
        p1 = build_pillar_features(moved, w)
        np.testing.assert_array_equal(v0.coords, v1.coords)
        np.testing.assert_array_equal(p0.coords, p1.coords)
        np.testing.assert_array_equal(v0.features, v1.features)
        np.testing.assert_array_equal(p0.features, p1.features)


def test_features_finite(desk_grid):
    rng = np.random.default_rng(17)
    pts = random_cloud(rng, 100, desk_grid)
    cloud = voxelize(pts, desk_grid)
    v = build_voxel_features(cloud)
    p = build_pillar_features(cloud, identity_encoder())
    assert np.isfinite(v.features).all()
    assert np.isfinite(p.features).all()


def test_pack_coords_is_lex_order(desk_grid):
    rng = np.random.default_rng(18)
    coords = rng.integers(0, 16, size=(100, 3))
    coords = np.unique(coords, axis=0)
    keys = pack_coords(coords, (16, 16, 16))
    assert (np.diff(keys) > 0).all()


def _tensor(coords, features=None, extents=(4, 4, 3)):
    coords = np.asarray(coords, dtype=np.int64)
    if features is None:
        features = np.ones((coords.shape[0], 2))
    return SparseTensor(coords=coords, features=np.asarray(features, dtype=np.float64),
                        stride=1, extents=extents)


@pytest.mark.parametrize("case", [
    "coords-width", "feature-rows", "non-finite", "negative", "past-extent", "unsorted",
    "duplicate"])
def test_validate_raises_invalid_tensor(case):
    good = [[0, 1, 0], [0, 1, 2], [3, 0, 1]]
    bad = {
        "coords-width": _tensor([[0, 1], [2, 3]], extents=(4, 4, 3)),
        "feature-rows": _tensor(good, features=np.ones((2, 2))),
        "non-finite": _tensor(good, features=[[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]]),
        "negative": _tensor([[0, 1, 0], [0, 1, 2], [3, -1, 1]]),
        "past-extent": _tensor([[0, 1, 0], [0, 1, 2], [3, 0, 3]]),
        "unsorted": _tensor([[0, 1, 2], [0, 1, 0], [3, 0, 1]]),
        "duplicate": _tensor([[0, 1, 0], [0, 1, 0], [3, 0, 1]]),
    }[case]
    _tensor(good).validate()
    with pytest.raises(InvalidTensor):
        bad.validate()


@st.composite
def sorted_tensors(draw):
    extents = tuple(draw(st.integers(1, 5)) for _ in range(3))
    total = int(np.prod(extents))
    flat = sorted(draw(st.sets(st.integers(0, total - 1), max_size=min(total, 40))))
    coords = np.stack(np.unravel_index(np.asarray(flat, dtype=np.int64), extents), axis=1)
    return _tensor(coords, extents=extents)


@settings(max_examples=80)
@given(sorted_tensors())
def test_bev_runs_equal_unique_projection(t):
    want, counts = np.unique(t.coords[:, :2], axis=0, return_counts=True)
    bounds = t.bev_runs()
    assert bounds[0] == 0 and bounds[-1] == t.num_sites
    np.testing.assert_array_equal(t.coords[bounds[:-1], :2], want)
    np.testing.assert_array_equal(t.bev_coords(), want)
    np.testing.assert_array_equal(np.diff(bounds), counts)


def test_bev_runs_empty_and_single_site():
    empty = _tensor(np.empty((0, 3)))
    np.testing.assert_array_equal(empty.bev_runs(), [0])
    assert empty.bev_coords().shape == (0, 2)
    single = _tensor([[2, 1, 0]])
    np.testing.assert_array_equal(single.bev_runs(), [0, 1])
    np.testing.assert_array_equal(single.bev_coords(), [[2, 1]])


# Cells of 1/4 and points on a 1/16 lattice: many points lie on cell faces,
# and every product, sum and mean below is exact, so the engine and the
# per-point references must agree bitwise whatever order they add in.
EDGE_GRID = GridSpec((-1.0, -1.0, -0.5), (1.0, 1.0, 0.5), (0.25, 0.25, 0.25))


def _just_outside(axis: int, side: int) -> float:
    lo, hi = EDGE_GRID.range_min[axis], EDGE_GRID.range_max[axis]
    return [np.nextafter(lo, -np.inf), lo - 1 / 16, hi, np.nextafter(hi, np.inf)][side]


@st.composite
def edge_clouds(draw):
    """(points, encoder, permutation) with faces, exact duplicates and
    points just outside the range."""
    n = draw(st.integers(1, 30))
    ticks = [draw(st.lists(st.integers(int(lo * 16), int(hi * 16) - 1), min_size=n, max_size=n))
             for lo, hi in zip(EDGE_GRID.range_min, EDGE_GRID.range_max)]
    intensity = draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))
    pts = np.column_stack([np.array(ticks).T / 16, np.array(intensity) / 16])
    dups = draw(st.lists(st.integers(0, n - 1), max_size=10))
    outside = pts[draw(st.lists(st.integers(0, n - 1), max_size=6))]
    for row in outside:
        axis = draw(st.integers(0, 2))
        row[axis] = _just_outside(axis, draw(st.integers(0, 3)))
    pts = np.concatenate([pts, pts[dups], outside])
    d = draw(st.integers(1, 5))
    quarters = st.integers(-8, 8)
    weight = np.array(draw(st.lists(quarters, min_size=4 * d, max_size=4 * d))).reshape(4, d) / 4
    bias = np.array(draw(st.lists(quarters, min_size=d, max_size=d))) / 4
    perm = np.array(draw(st.permutations(range(len(pts)))))
    return pts, PointEncoderWeights(weight=weight, bias=bias), perm


def _same(a: SparseTensor, b: SparseTensor) -> bool:
    return (a.coords.tobytes() == b.coords.tobytes() and a.features.tobytes() == b.features.tobytes()
            and a.extents == b.extents)


@settings(max_examples=150)
@given(edge_clouds())
def test_shared_pass_matches_per_point_references(case):
    pts, enc, perm = case
    cloud = voxelize(pts, EDGE_GRID)
    v = build_voxel_features(cloud)
    p = build_pillar_features(cloud, enc)
    v.validate()
    p.validate()
    xyz = pts[:, :3]
    outside = ((xyz < EDGE_GRID.range_min) | (xyz >= EDGE_GRID.range_max)).any(axis=1)
    idx, dropped = assign_voxel_indices(pts, EDGE_GRID)
    assert cloud.dropped == dropped == int(outside.sum())

    means = groupby_mean(pts, idx)
    assert [tuple(c) for c in v.coords] == sorted(means)
    for coord, feat in zip(v.coords, v.features):
        assert feat.tobytes() == means[tuple(coord)].tobytes()
    maxima = groupby_max(np.maximum(pts @ enc.weight + enc.bias, 0.0), idx[:, :2])
    assert [tuple(c) for c in p.coords] == sorted(maxima)
    for coord, feat in zip(p.coords, p.features):
        assert feat.tobytes() == maxima[tuple(coord)].tobytes()
    np.testing.assert_array_equal(p.coords, v.bev_coords())

    moved = voxelize(pts[perm], EDGE_GRID)
    assert moved.dropped == cloud.dropped
    assert _same(build_voxel_features(moved), v)
    assert _same(build_pillar_features(moved, enc), p)
