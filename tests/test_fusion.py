import numpy as np
import pytest

from voxpillar.errors import ConsistencyViolation, ShapeMismatch
from voxpillar.fusion import (broadcast, build_correspondence, sparse_fusion_layer,
                              sparse_pool)
from voxpillar.grid import (PointEncoderWeights, SparseTensor, build_pillar_features,
                            build_voxel_features, voxelize)
from voxpillar.reference import dense_correspondence_matrix, groupby_max
from voxpillar.selftest import random_cloud, random_consistent_pair
from voxpillar.sparse_conv import ConvSpec, ConvWeights, build_kernel_map
from test_sparse_conv import identity_weights


def make_pair(voxel_coords, voxel_feats, pillar_coords, pillar_feats, extents=(4, 4, 4)):
    v = SparseTensor(coords=np.asarray(voxel_coords, dtype=np.int64),
                     features=np.asarray(voxel_feats, dtype=np.float64),
                     stride=1, extents=extents)
    p = SparseTensor(coords=np.asarray(pillar_coords, dtype=np.int64),
                     features=np.asarray(pillar_feats, dtype=np.float64),
                     stride=1, extents=extents[:2])
    return v, p


def test_correspondence_basic():
    v, p = make_pair([[0, 0, 0], [0, 0, 1], [1, 1, 0]], np.zeros((3, 1)),
                     [[0, 0], [1, 1]], np.zeros((2, 1)))
    corr = build_correspondence(v.coords, p.coords)
    assert corr.dtype == np.int64
    np.testing.assert_array_equal(corr, [0, 2, 3])


def test_correspondence_bijection_when_one_voxel_per_pillar():
    v, p = make_pair([[0, 0, 2], [1, 2, 0], [3, 3, 1]], np.zeros((3, 1)),
                     [[0, 0], [1, 2], [3, 3]], np.zeros((3, 1)))
    np.testing.assert_array_equal(build_correspondence(v.coords, p.coords), [0, 1, 2, 3])


def test_correspondence_matches_dense_matrix_oracle():
    rng = np.random.default_rng(40)
    for trial in range(10):
        v, p = random_consistent_pair(rng, 8)
        corr = build_correspondence(v.coords, p.coords)
        dense = dense_correspondence_matrix(v.coords, p.coords)
        np.testing.assert_array_equal(dense.sum(axis=1), np.ones(v.num_sites, dtype=np.int64))
        assert (dense.sum(axis=0) >= 1).all()
        assert corr.dtype == np.int64 and corr.shape == (p.num_sites + 1,)
        # pillar j's column of the matrix is the run of voxels its bounds slice
        for j in range(p.num_sites):
            np.testing.assert_array_equal(np.flatnonzero(dense[:, j]), np.arange(*corr[j:j + 2]))


def test_correspondence_rejects_inconsistent():
    v, p = make_pair([[0, 0, 0], [2, 2, 0]], np.zeros((2, 1)), [[0, 0]], np.zeros((1, 1)))
    with pytest.raises(ConsistencyViolation):
        build_correspondence(v.coords, p.coords)
    v, p = make_pair([[0, 0, 0]], np.zeros((1, 1)), [[0, 0], [1, 1]], np.zeros((2, 1)))
    with pytest.raises(ConsistencyViolation):
        build_correspondence(v.coords, p.coords)
    # Equal column and pillar counts, different coordinates: the error names
    # the first BEV coordinate that disagrees, from whichever side holds it.
    v, p = make_pair([[0, 0, 0], [2, 2, 0]], np.zeros((2, 1)), [[0, 0], [1, 1]], np.zeros((2, 1)))
    with pytest.raises(ConsistencyViolation, match=r"pillar \(1, 1\)"):
        build_correspondence(v.coords, p.coords)
    v, p = make_pair([[0, 0, 0], [0, 0, 1], [1, 0, 0]], np.zeros((3, 1)),
                     [[0, 0], [2, 2]], np.zeros((2, 1)))
    with pytest.raises(ConsistencyViolation, match=r"voxel at BEV \(1, 0\)"):
        build_correspondence(v.coords, p.coords)


def test_correspondence_accepts_empty_and_single_site():
    v, p = make_pair(np.empty((0, 3)), np.empty((0, 1)), np.empty((0, 2)), np.empty((0, 1)))
    corr = build_correspondence(v.coords, p.coords)
    assert corr.dtype == np.int64
    np.testing.assert_array_equal(corr, [0])
    assert sparse_pool(v, corr).shape == (0, 1) and broadcast(p, corr).shape == (0, 1)
    v, p = make_pair([[3, 1, 2]], np.zeros((1, 1)), [[3, 1]], np.zeros((1, 1)))
    np.testing.assert_array_equal(build_correspondence(v.coords, p.coords), [0, 1])


def test_pool_singleton_and_pairs():
    v, p = make_pair([[0, 0, 0], [1, 1, 0], [1, 1, 1]],
                     [[7.0, -1.0], [1.0, -2.0], [0.0, 5.0]],
                     [[0, 0], [1, 1]], np.zeros((2, 2)))
    corr = build_correspondence(v.coords, p.coords)
    pooled = sparse_pool(v, corr)
    np.testing.assert_array_equal(pooled, [[7.0, -1.0], [1.0, 5.0]])


def test_pool_matches_groupby_oracle():
    rng = np.random.default_rng(41)
    for trial in range(10):
        v, p = random_consistent_pair(rng, 8)
        corr = build_correspondence(v.coords, p.coords)
        pooled = sparse_pool(v, corr)
        expected = groupby_max(v.features, v.coords[:, :2])
        for coord, feat in zip(p.coords, pooled):
            np.testing.assert_array_equal(feat, expected[tuple(coord)])


def test_broadcast_identity_projection():
    g = np.array([2.0, 3.0, 4.0])
    v, p = make_pair([[1, 1, 0], [1, 1, 1], [1, 1, 3]], np.zeros((3, 1)),
                     [[1, 1]], [g])
    corr = build_correspondence(v.coords, p.coords)
    out = broadcast(p, corr)
    np.testing.assert_array_equal(out, np.tile(g, (3, 1)))


def test_pool_of_broadcast_recovers_pillars():
    rng = np.random.default_rng(42)
    for trial in range(10):
        v, p = random_consistent_pair(rng, 8)
        corr = build_correspondence(v.coords, p.coords)
        copied = broadcast(p, corr)
        v_like = SparseTensor(coords=v.coords, features=copied, stride=1, extents=v.extents)
        np.testing.assert_array_equal(sparse_pool(v_like, corr), p.features)


def zero_sfl_weights(d_v, d_p, kernel=3):
    k2 = kernel * kernel
    return (ConvWeights(kernel=np.zeros((k2, d_v, d_p))),
            ConvWeights(kernel=np.zeros((k2, d_p, d_v))))


def sfl(w_v2p, w_p2v):
    """The (spec, weights) pairs of a 3x3 fusion layer with these weights."""
    return [(ConvSpec.submanifold(2, 3, *w.kernel.shape[1:]), w) for w in (w_v2p, w_p2v)]


def test_zero_weight_sfl_is_identity():
    rng = np.random.default_rng(43)
    v, p = random_consistent_pair(rng, 8)
    w_v2p, w_p2v = zero_sfl_weights(v.num_channels, p.num_channels)
    fv, fp = sparse_fusion_layer(v, p, *sfl(w_v2p, w_p2v), build_kernel_map(
        p.coords, ConvSpec.submanifold(2, 3, 1, 1), p.extents),
        build_correspondence(v.coords, p.coords))
    assert fv.features.tobytes() == v.features.tobytes()
    assert fp.features.tobytes() == p.features.tobytes()
    np.testing.assert_array_equal(fv.coords, v.coords)
    np.testing.assert_array_equal(fp.coords, p.coords)


def test_sfl_rejects_a_conv_that_does_not_give_the_other_branch_width():
    rng = np.random.default_rng(46)
    v, p = random_consistent_pair(rng, 8)  # 3 voxel and 5 pillar channels
    kmap = build_kernel_map(p.coords, ConvSpec.submanifold(2, 3, 1, 1), p.extents)
    # a 1-wide p2v output would broadcast over the 3 voxel channels unnoticed
    convs = sfl(ConvWeights(kernel=np.zeros((9, 3, 5))), ConvWeights(kernel=np.zeros((9, 5, 1))))
    with pytest.raises(ShapeMismatch, match="widths"):
        sparse_fusion_layer(v, p, *convs, kmap, build_correspondence(v.coords, p.coords))


def test_identity_transform_one_voxel_per_pillar():
    # D_v == D_p and a bijective correspondence: fusion degenerates to a swap-add
    v, p = make_pair([[0, 0, 1], [2, 3, 0]], [[1.0, 2.0], [3.0, 4.0]],
                     [[0, 0], [2, 3]], [[10.0, 20.0], [30.0, 40.0]])
    spec = ConvSpec.submanifold(2, 3, 2, 2)
    ident = identity_weights(spec)
    fv, fp = sparse_fusion_layer(v, p, *sfl(ident, ident), build_kernel_map(
        p.coords, ConvSpec.submanifold(2, 3, 1, 1), p.extents),
        build_correspondence(v.coords, p.coords))
    np.testing.assert_array_equal(fv.features, v.features + p.features)
    np.testing.assert_array_equal(fp.features, p.features + v.features)


def test_sfl_matches_straightline_composition():
    rng = np.random.default_rng(44)
    from voxpillar.sparse_conv import build_kernel_map, sparse_conv

    for trial in range(5):
        v, p = random_consistent_pair(rng, 8)
        spec_v2p = ConvSpec.submanifold(2, 3, v.num_channels, p.num_channels)
        spec_p2v = ConvSpec.submanifold(2, 3, p.num_channels, v.num_channels)
        w_v2p = ConvWeights(kernel=rng.normal(size=(9, v.num_channels, p.num_channels)))
        w_p2v = ConvWeights(kernel=rng.normal(size=(9, p.num_channels, v.num_channels)))
        fv, fp = sparse_fusion_layer(v, p, *sfl(w_v2p, w_p2v),
                                     build_kernel_map(p.coords, spec_v2p, p.extents),
                                     build_correspondence(v.coords, p.coords))

        kmap = build_kernel_map(p.coords, spec_v2p, p.extents)
        corr = build_correspondence(v.coords, p.coords)
        pooled = SparseTensor(p.coords, sparse_pool(v, corr), 1, p.extents)
        expect_p = p.features + sparse_conv(pooled, spec_v2p, w_v2p, kmap).features
        transformed = sparse_conv(p, spec_p2v, w_p2v, kmap)
        expect_v = v.features + broadcast(transformed, corr)
        np.testing.assert_allclose(fv.features, expect_v, atol=1e-6)
        np.testing.assert_allclose(fp.features, expect_p, atol=1e-6)


def test_sfl_on_real_cloud(desk_grid):
    rng = np.random.default_rng(45)
    pts = random_cloud(rng, 200, desk_grid)
    cloud = voxelize(pts, desk_grid)
    v = build_voxel_features(cloud)
    enc = PointEncoderWeights(weight=rng.normal(size=(4, 6)), bias=rng.normal(size=6))
    p = build_pillar_features(cloud, enc)
    w_v2p = ConvWeights(kernel=rng.normal(size=(9, 4, 6)))
    w_p2v = ConvWeights(kernel=rng.normal(size=(9, 6, 4)))
    fv, fp = sparse_fusion_layer(v, p, *sfl(w_v2p, w_p2v), build_kernel_map(
        p.coords, ConvSpec.submanifold(2, 3, 1, 1), p.extents),
        build_correspondence(v.coords, p.coords))
    np.testing.assert_array_equal(fv.coords, v.coords)
    np.testing.assert_array_equal(fp.coords, p.coords)
    assert np.isfinite(fv.features).all() and np.isfinite(fp.features).all()


def test_sfl_refuses_the_column_bounds_of_other_branches():
    rng = np.random.default_rng(47)
    v, p = random_consistent_pair(rng, 8)
    corr = build_correspondence(v.coords, p.coords)
    # the first pillar is gone, so the voxels of its column have none
    p = SparseTensor(p.coords[1:], p.features[1:], 1, p.extents)
    with pytest.raises(ConsistencyViolation, match="voxel at BEV"):
        build_correspondence(v.coords, p.coords)
    kmap = build_kernel_map(p.coords, ConvSpec.submanifold(2, 3, 1, 1), p.extents)
    with pytest.raises(ShapeMismatch, match="different pillar tensor"):
        sparse_fusion_layer(v, p, *sfl(*zero_sfl_weights(v.num_channels, p.num_channels)),
                            kmap, corr)
