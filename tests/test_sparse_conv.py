import dataclasses
import inspect
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxpillar import sparse_conv as sparse_conv_module
from voxpillar.errors import ConsistencyViolation, ShapeMismatch, SpecMismatch
from voxpillar.grid import (PointEncoderWeights, SparseTensor, build_pillar_features,
                            build_voxel_features, voxelize)
from voxpillar.reference import dense_conv_reference, densify_features, enumerate_kernel_map
from voxpillar.selftest import random_cloud, random_consistent_pair
from voxpillar.sparse_conv import (ConvSpec, ConvWeights, Lanes, bev_equal, build_correspondence,
                                   build_kernel_map, paired_downsample, sparse_conv)


def random_sparse(rng, extents, density, channels, ndim, stride=1):
    total = int(np.prod(extents))
    n = max(1, int(total * density))
    flat = rng.choice(total, size=n, replace=False)
    coords = np.stack(np.unravel_index(np.sort(flat), extents), axis=1).astype(np.int64)
    feats = rng.normal(size=(len(coords), channels))
    return SparseTensor(coords=coords, features=feats, stride=stride, extents=tuple(extents))


def random_conv_weights(rng, spec, bias=False):
    k = rng.normal(size=(spec.num_offsets, spec.in_channels, spec.out_channels))
    b = rng.normal(size=spec.out_channels) if bias else None
    return ConvWeights(kernel=k, bias=b)


def identity_weights(spec):
    """Centre-tap identity kernel of a spec with equal input and output widths."""
    k = np.zeros((spec.num_offsets, spec.in_channels, spec.out_channels))
    k[spec.num_offsets // 2] = np.eye(spec.in_channels)
    return ConvWeights(kernel=k)


def assert_matches_dense(x, spec, weights, rtol=1e-5):
    kmap = build_kernel_map(x.coords, spec, x.extents)
    out = sparse_conv(x, spec, weights, kmap)
    dense = dense_conv_reference(x.coords, x.features, x.extents, spec, weights)
    sampled = dense[tuple(out.coords.T)]
    np.testing.assert_allclose(out.features, sampled, rtol=rtol, atol=1e-8)
    return out, dense


def test_spec_validation():
    with pytest.raises(SpecMismatch):
        ConvSpec(3, (3, 3, 3), (2, 2, 2), (1, 1, 1), 4, 8, "submanifold")
    with pytest.raises(SpecMismatch):
        ConvSpec(2, (2, 2), (1, 1), (0, 0), 4, 8, "submanifold")
    with pytest.raises(SpecMismatch):
        ConvSpec(2, (3, 3), (1, 1), (1, 1), 4, 8, "banana")
    spec = ConvSpec.submanifold(3, 3, 4, 8)
    assert spec.padding == (1, 1, 1) and spec.num_offsets == 27


def test_num_offsets_is_exact_past_int64():
    # (2**32 - 1)**2 = 2**64 - 2**33 + 1, which int64 arithmetic wraps to -8,589,934,591
    spec = ConvSpec.submanifold(2, 2**32 - 1, 16, 32)
    assert spec.num_offsets == (2**32 - 1) ** 2 > 2**63
    assert ConvSpec.regular(3, 2**21 + 1, 1, 0, 1, 1).num_offsets == (2**21 + 1) ** 3 > 2**63


@pytest.mark.parametrize("kernel, padding", [((3, 3), (0, 0)), ((3, 3), (1, 2)),
                                             ((1, 5), (1, 2)), ((5, 5, 1), (1, 2, 0))])
def test_submanifold_spec_requires_the_centre_padding(kernel, padding):
    ndim = len(kernel)
    with pytest.raises(SpecMismatch, match="centre padding"):
        ConvSpec(ndim, kernel, (1,) * ndim, padding, 4, 4, "submanifold")
    spec = ConvSpec(ndim, kernel, (1,) * ndim, tuple(k // 2 for k in kernel), 4, 4, "submanifold")
    assert spec == ConvSpec.submanifold(ndim, kernel, 4, 4)


def offset_column(kmap):
    """Each triple's offset index, from the map's segment bounds."""
    return np.repeat(np.arange(kmap.num_offsets), np.diff(kmap.bounds))


def test_subm_isolated_site_single_triple():
    x = SparseTensor(coords=np.array([[4, 4, 4]]), features=np.ones((1, 2)),
                     stride=1, extents=(9, 9, 9))
    spec = ConvSpec.submanifold(3, 3, 2, 2)
    kmap = build_kernel_map(x.coords, spec, x.extents)
    np.testing.assert_array_equal(kmap.out_coords, x.coords)
    assert kmap.triples.shape == (1, 2) and tuple(kmap.triples[0]) == (0, 0)
    assert offset_column(kmap).tolist() == [13]  # center offset of a 3x3x3 kernel


def test_regular_single_site_enumeration_oracle():
    coords = np.array([[0, 0]])
    spec = ConvSpec.regular(2, 3, 2, 1, 1, 1)
    kmap = build_kernel_map(coords, spec, (8, 8))
    got = {tuple(c) for c in kmap.out_coords}
    expect = {tuple(o) for o in enumerate_kernel_map(coords, spec, (8, 8))[1].tolist()}
    assert got == expect == {(0, 0)}


def test_regular_dense_in_dense_out():
    coords = np.stack(np.meshgrid(np.arange(8), np.arange(8), indexing="ij"),
                      axis=-1).reshape(-1, 2)
    spec = ConvSpec.regular(2, 3, 2, 1, 1, 1)
    kmap = build_kernel_map(coords, spec, (8, 8))
    assert kmap.out_extents == (4, 4)
    assert kmap.out_coords.shape == (16, 2)


def test_regular_outputs_match_enumeration_random():
    rng = np.random.default_rng(20)
    for trial in range(10):
        extents = tuple(rng.integers(5, 12, size=2))
        x = random_sparse(rng, extents, 0.2, 1, 2)
        spec = ConvSpec.regular(2, 3, 2, 1, 1, 1)
        kmap = build_kernel_map(x.coords, spec, extents)
        got = {tuple(c) for c in kmap.out_coords}
        assert got == {tuple(o) for o in enumerate_kernel_map(x.coords, spec, extents)[1].tolist()}


def test_identity_kernel_is_identity():
    rng = np.random.default_rng(21)
    x = random_sparse(rng, (8, 8, 8), 0.2, 5, 3)
    spec = ConvSpec.submanifold(3, 3, 5, 5)
    kmap = build_kernel_map(x.coords, spec, x.extents)
    out = sparse_conv(x, spec, identity_weights(spec), kmap)
    np.testing.assert_array_equal(out.coords, x.coords)
    np.testing.assert_array_equal(out.features, x.features)


def test_subm_matches_dense_oracle():
    rng = np.random.default_rng(22)
    x = random_sparse(rng, (8, 8, 8), 0.2, 4, 3)
    spec = ConvSpec.submanifold(3, 3, 4, 6)
    out, _ = assert_matches_dense(x, spec, random_conv_weights(rng, spec))
    np.testing.assert_array_equal(out.coords, x.coords)  # no dilation


def test_regular_matches_dense_oracle():
    rng = np.random.default_rng(23)
    x = random_sparse(rng, (8, 8, 8), 0.2, 4, 3)
    spec = ConvSpec.regular(3, 3, 2, 1, 4, 6)
    weights = random_conv_weights(rng, spec, bias=True)
    out, dense = assert_matches_dense(x, spec, weights)
    assert out.extents == (4, 4, 4)
    assert out.stride == 2
    # inactive sites gather no input, so the dense oracle holds only the bias there
    active = {tuple(c) for c in out.coords}
    for site in np.ndindex(4, 4, 4):
        if site not in active:
            np.testing.assert_allclose(dense[site], weights.bias)


def test_2d_matches_dense_oracle():
    rng = np.random.default_rng(24)
    for mode in ("submanifold", "regular"):
        x = random_sparse(rng, (16, 16), 0.3, 3, 2)
        if mode == "submanifold":
            spec = ConvSpec.submanifold(2, 3, 3, 5)
        else:
            spec = ConvSpec.regular(2, 3, 2, 1, 3, 5)
        assert_matches_dense(x, spec, random_conv_weights(rng, spec))


def test_linearity():
    rng = np.random.default_rng(25)
    x = random_sparse(rng, (10, 10, 10), 0.15, 4, 3)
    y = SparseTensor(coords=x.coords, features=rng.normal(size=x.features.shape),
                     stride=1, extents=x.extents)
    spec = ConvSpec.submanifold(3, 3, 4, 4)
    w = random_conv_weights(rng, spec)
    kmap = build_kernel_map(x.coords, spec, x.extents)
    a, b = 0.7, -1.3
    mixed = SparseTensor(coords=x.coords, features=a * x.features + b * y.features,
                         stride=1, extents=x.extents)
    lhs = sparse_conv(mixed, spec, w, kmap).features
    rhs = a * sparse_conv(x, spec, w, kmap).features + b * sparse_conv(y, spec, w, kmap).features
    np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-9)


def test_determinism_bitwise():
    rng = np.random.default_rng(26)
    x = random_sparse(rng, (12, 12, 12), 0.3, 8, 3)
    spec = ConvSpec.regular(3, 3, 2, 1, 8, 8)
    w = random_conv_weights(rng, spec, bias=True)
    kmap1 = build_kernel_map(x.coords, spec, x.extents)
    kmap2 = build_kernel_map(x.coords, spec, x.extents)
    np.testing.assert_array_equal(kmap1.triples, kmap2.triples)
    out1 = sparse_conv(x, spec, w, kmap1)
    out2 = sparse_conv(x, spec, w, kmap2)
    assert out1.features.tobytes() == out2.features.tobytes()


def test_triples_sorted_and_unique():
    rng = np.random.default_rng(27)
    for spec, extents, ndim in ((ConvSpec.submanifold(3, 3, 1, 1), (8, 8, 8), 3),
                                (ConvSpec.regular(2, 3, 2, 1, 1, 1), (16, 16), 2)):
        x = random_sparse(rng, extents, 0.25, 1, ndim)
        kmap = build_kernel_map(x.coords, spec, extents)
        tri = kmap.triples
        keys = (offset_column(kmap), tri[:, 1], tri[:, 0])
        packed = (keys[0] * (tri[:, 1].max() + 1) + keys[1]) * (tri[:, 0].max() + 1) + keys[2]
        assert (np.diff(packed) > 0).all()


def _scatter_add_at(x, spec, weights, kmap):
    """sparse_conv as zeros, the bias, then one np.add.at per offset in ascending order."""
    out = np.zeros((kmap.out_coords.shape[0], spec.out_channels))
    if weights.bias is not None:
        out += weights.bias
    tri, offset = kmap.triples, offset_column(kmap)
    for k_idx in range(kmap.num_offsets):
        seg = tri[offset == k_idx]
        if seg.size:
            np.add.at(out, seg[:, 1], x.features[seg[:, 0]] @ weights.kernel[k_idx])
    return out


@pytest.mark.parametrize("spec, extents", [
    (ConvSpec.submanifold(2, 3, 3, 4), (12, 11)),
    (ConvSpec.submanifold(3, 3, 3, 4), (8, 7, 6)),
    (ConvSpec.regular(2, 3, 2, 1, 3, 4), (13, 12)),
    (ConvSpec.regular(3, 3, (2, 2, 1), 1, 3, 4), (9, 8, 7)),
    (ConvSpec.regular(3, 2, 2, 0, 3, 4), (9, 8, 6)),
], ids=["subm2d", "subm3d", "regular2d", "regular3d-xy", "regular3d-k2"])
def test_scatter_exact_against_add_at(spec, extents):
    rng = np.random.default_rng(30)
    for density in (0.05, 0.3, 1.0):
        x = random_sparse(rng, extents, density, spec.in_channels, spec.ndim)
        kmap = build_kernel_map(x.coords, spec, extents)
        tri = kmap.triples
        # The invariant the indexed scatter relies on: no output index repeats
        # within one offset segment.
        out_per_offset = offset_column(kmap) * kmap.out_coords.shape[0] + tri[:, 1]
        assert np.unique(out_per_offset).size == out_per_offset.size
        w = random_conv_weights(rng, spec, bias=True)
        out = sparse_conv(x, spec, w, kmap)
        assert out.features.tobytes() == _scatter_add_at(x, spec, w, kmap).tobytes()


def test_conv_shape_mismatch():
    rng = np.random.default_rng(28)
    x = random_sparse(rng, (8, 8), 0.2, 3, 2)
    spec = ConvSpec.submanifold(2, 3, 3, 5)
    bad = ConvWeights(kernel=rng.normal(size=(9, 4, 5)))
    kmap = build_kernel_map(x.coords, spec, x.extents)
    with pytest.raises(ShapeMismatch):
        sparse_conv(x, spec, bad, kmap)


@pytest.mark.parametrize("map_kernel, spec_kernel", [(3, 5), (5, 3)])
def test_conv_rejects_kernel_map_of_another_size(map_kernel, spec_kernel):
    rng = np.random.default_rng(29)
    x = random_sparse(rng, (8, 8), 0.3, 2, 2)
    spec = ConvSpec.submanifold(2, spec_kernel, 2, 3)
    kmap = build_kernel_map(x.coords, ConvSpec.submanifold(2, map_kernel, 2, 3), x.extents)
    with pytest.raises(ShapeMismatch):
        sparse_conv(x, spec, random_conv_weights(rng, spec), kmap)
    assert_matches_dense(x, spec, random_conv_weights(rng, spec))  # its own map is accepted


def test_submanifold_conv_rejects_a_map_of_other_sites():
    rng = np.random.default_rng(34)
    x = random_sparse(rng, (8, 8), 0.2, 2, 2)
    spec = ConvSpec.submanifold(2, 3, 2, 3)
    # a stride-1 regular map dilates the sites, so its centre segment is no identity
    dilated = build_kernel_map(x.coords, ConvSpec.regular(2, 3, 1, 1, 2, 3), x.extents)
    assert dilated.out_coords.shape[0] > x.num_sites
    with pytest.raises(ShapeMismatch):
        sparse_conv(x, spec, random_conv_weights(rng, spec), dilated)


def test_conv_rejects_unequal_xy_strides_before_computing(monkeypatch):
    rng = np.random.default_rng(33)
    x = random_sparse(rng, (9, 9), 0.3, 2, 2)
    spec = ConvSpec.regular(2, 3, (2, 1), 1, 2, 3)
    kmap = build_kernel_map(x.coords, spec, x.extents)

    def no_search(*args, **kwargs):
        raise AssertionError("the convolution ran before the stride check")

    monkeypatch.setattr(np, "searchsorted", no_search)
    with pytest.raises(SpecMismatch, match="X-Y strides"):
        sparse_conv(x, spec, random_conv_weights(rng, spec), kmap)


@st.composite
def sparse_conv_cases(draw):
    """A sparse tensor and a ConvSpec: 2D or 3D, submanifold with odd kernels, or
    regular with kernels of 1-5, equal X-Y strides of 1-3 and paddings of 0-2."""
    ndim = draw(st.sampled_from((2, 3)))
    cin, cout = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        kernel = tuple(draw(st.sampled_from((1, 3, 5))) for _ in range(ndim))
        spec = ConvSpec.submanifold(ndim, kernel, cin, cout)
    else:
        kernel = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
        xy_stride = draw(st.integers(1, 3))
        stride = (xy_stride, xy_stride) + tuple(draw(st.integers(1, 3)) for _ in range(ndim - 2))
        padding = tuple(draw(st.integers(0, 2)) for _ in range(ndim))
        spec = ConvSpec.regular(ndim, kernel, stride, padding, cin, cout)
    extents = tuple(draw(st.integers(max(1, k - 2 * p), 7 if ndim == 3 else 12))
                    for k, p in zip(spec.kernel, spec.padding))
    total = int(np.prod(extents))
    flat = sorted(draw(st.sets(st.integers(0, total - 1), min_size=1, max_size=min(total, 80))))
    coords = np.stack(np.unravel_index(flat, extents), axis=1).astype(np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = SparseTensor(coords=coords, features=rng.normal(size=(len(coords), cin)), stride=1,
                     extents=extents)
    return x, spec, random_conv_weights(rng, spec, bias=spec.mode == "regular")


@settings(max_examples=150)
@given(sparse_conv_cases())
def test_kernel_maps_and_conv_agree_with_the_oracles(case):
    x, spec, weights = case
    kmap = build_kernel_map(x.coords, spec, x.extents)
    triples, out_coords = enumerate_kernel_map(x.coords, spec, x.extents)
    assert kmap.triples.shape == triples[:, :2].shape
    assert kmap.triples.tobytes() == triples[:, :2].tobytes()
    assert offset_column(kmap).tolist() == triples[:, 2].tolist()
    assert kmap.out_coords.shape == out_coords.shape
    assert kmap.out_coords.tobytes() == out_coords.tobytes()
    assert_matches_dense(x, spec, weights)


def _nan_empty(shape):
    return np.full(shape, np.nan)


@settings(max_examples=100)
@given(sparse_conv_cases(), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_caller_allocated_arrays_give_the_allocating_bytes(case, empty, with_bias, seed):
    x, spec, weights = case
    rng = np.random.default_rng(seed)
    if empty:
        x = SparseTensor(x.coords[:0], x.features[:0], x.stride, x.extents)
    # zeroed input rows and -0.0 bias entries: the output starts at zero and then takes
    # the bias, as `_scatter_add_at` does
    features = x.features * (rng.uniform(size=(x.num_sites, 1)) < 0.7)
    x = SparseTensor(x.coords, features, x.stride, x.extents)
    bias = np.where(rng.uniform(size=spec.out_channels) < 0.5, -0.0,
                    rng.normal(size=spec.out_channels))
    weights = ConvWeights(weights.kernel, bias if with_bias else None)
    kmap = build_kernel_map(x.coords, spec, x.extents)
    want = sparse_conv(x, spec, weights, kmap)
    assert want.features.tobytes() == _scatter_add_at(x, spec, weights, kmap).tobytes()
    # every array the call allocates is overwritten before it is read: arrays that start
    # as NaN give the same bytes
    with mock.patch.object(np, "empty", _nan_empty):
        got = sparse_conv(x, spec, weights, kmap)
    assert got.coords.tobytes() == want.coords.tobytes()
    assert got.features.tobytes() == want.features.tobytes()
    dense = dense_conv_reference(x.coords, x.features, x.extents, spec, weights)
    np.testing.assert_allclose(got.features, dense[tuple(got.coords.T)], rtol=1e-5, atol=1e-8)


def test_conv_rejects_a_map_of_another_input():
    rng = np.random.default_rng(35)
    x = random_sparse(rng, (9, 9), 0.3, 2, 2)
    spec = ConvSpec.regular(2, 3, 2, 1, 2, 3)
    w = random_conv_weights(rng, spec, bias=True)
    kmap = build_kernel_map(x.coords, spec, x.extents)
    fewer = SparseTensor(x.coords[:-1], x.features[:-1], x.stride, x.extents)
    with pytest.raises(ShapeMismatch, match="built on"):
        sparse_conv(fewer, spec, w, kmap)


# the arguments of a lane function (`_conv_half`, `backbone._conv_rows`) that it writes
WRITTEN = ("out", "rows", "prod", "acc")


def record_allocations(monkeypatch) -> dict:
    """From now on, every array `np.empty` returns, by id, with the thread that allocated
    it; the arrays are kept alive, so no id is reused."""
    allocated, real = {}, np.empty

    def empty(*args, **kwargs):
        array = real(*args, **kwargs)
        allocated[id(array)] = (threading.get_ident(), array)
        return array

    monkeypatch.setattr(np, "empty", empty)
    return allocated


def writers(allocated: dict, lane_fn, args) -> set:
    """The threads that allocated the arrays the lane function `lane_fn` writes in a call
    with positional `args`; None for an array not from `np.empty`."""
    threads = set()
    for name, array in zip(inspect.signature(lane_fn).parameters, args):
        if name in WRITTEN:
            while array.base is not None:
                array = array.base
            threads.add(allocated.get(id(array), (None,))[0])
    return threads


def _whole(kmap):
    """`kmap` as a map that runs whole."""
    return dataclasses.replace(kmap, cut=kmap.out_coords.shape[0], mid=kmap.bounds[1:].copy())


def _require_split(kmap):
    """The documented invariants of the row split of `kmap`."""
    m, bounds, dst = kmap.out_coords.shape[0], kmap.bounds, kmap.triples[:, 1]
    assert 0 < kmap.cut <= m or kmap.cut == m == 0
    sizes = []
    for k in range(kmap.num_offsets):
        lo, mid, hi = bounds[k], kmap.mid[k], bounds[k + 1]
        assert lo <= mid <= hi
        assert (dst[lo:mid] < kmap.cut).all() and (dst[mid:hi] >= kmap.cut).all()
        sizes.append((mid - lo, hi - mid))
    # no half turns a segment of two or more triples into a one-row product
    assert all(1 not in pair for pair in sizes if sum(pair) >= 2)
    return sizes


@pytest.mark.parametrize("count", [1, 2])
def test_the_row_split_allocates_here_and_gives_the_whole_maps_bytes(monkeypatch, count):
    rng = np.random.default_rng(36)
    calls = []
    # large enough that every segment has a few rows on each side of some cut
    for ndim, extents, mode in ((3, (12, 12, 6), "submanifold"), (2, (16, 16), "regular")):
        spec = (ConvSpec.submanifold(ndim, 3, 3, 5) if mode == "submanifold"
                else ConvSpec.regular(ndim, 3, 2, 1, 3, 5))
        x = random_sparse(rng, extents, 0.3, 3, ndim)
        calls.append((x, spec, random_conv_weights(rng, spec, bias=mode == "regular"),
                      build_kernel_map(x.coords, spec, x.extents)))
    caller = threading.get_ident()
    halves = []
    real_half = sparse_conv_module._conv_half

    def half(*args):
        # `rows` is dead once an offset's product is taken, so `acc` reuses its buffer
        *_, rows, _, acc = args
        assert rows.base is acc.base is not None
        halves.append((threading.get_ident(), writers(allocated, real_half, args)))
        return real_half(*args)

    monkeypatch.setattr(sparse_conv_module, "_conv_half", half)
    allocated = record_allocations(monkeypatch)
    with Lanes(count) as lanes:
        for x, spec, weights, kmap in calls:
            assert 0 < kmap.cut < kmap.out_coords.shape[0]  # both maps split
            got = sparse_conv(x, spec, weights, kmap, lanes=lanes)
            whole = sparse_conv(x, spec, weights, _whole(kmap), lanes=lanes)
            assert got.coords.tobytes() == whole.coords.tobytes()
            assert got.features.tobytes() == whole.features.tobytes()
    # every array is allocated here, those that the halves write included; each split call
    # runs two halves and each whole one one, and with two lanes the second half of each
    # split runs off this thread
    assert {thread for thread, _ in allocated.values()} == {caller}
    assert {frozenset(owners) for _, owners in halves} == {frozenset({caller})}
    assert len(halves) == 6
    assert [thread for thread, _ in halves].count(caller) == (6 if count == 1 else 4)


@pytest.mark.parametrize("sites", [1, 2, 3])
@pytest.mark.parametrize("mode", ["submanifold", "regular"])
def test_maps_of_one_to_three_sites_split_only_into_pieces_of_two_rows(sites, mode):
    rng = np.random.default_rng(37 + sites)
    flat = np.sort(rng.choice(9, size=sites, replace=False))
    coords = np.stack(np.unravel_index(flat, (3, 3)), axis=1).astype(np.int64)
    x = SparseTensor(coords, rng.normal(size=(sites, 2)), 1, (3, 3))
    spec = (ConvSpec.submanifold(2, 3, 2, 3) if mode == "submanifold"
            else ConvSpec.regular(2, 3, 1, 1, 2, 3))
    kmap = build_kernel_map(x.coords, spec, x.extents)
    _require_split(kmap)
    if mode == "submanifold" and sites < 4:
        # the centre segment holds every site, and a half of it would have one
        assert kmap.cut == sites
    weights = random_conv_weights(rng, spec, bias=mode == "regular")
    with Lanes(2) as lanes:
        got = sparse_conv(x, spec, weights, kmap, lanes=lanes)
    assert got.features.tobytes() == _scatter_add_at(x, spec, weights, kmap).tobytes()


def test_a_cut_that_leaves_one_row_of_a_segment_is_passed_over():
    spec = ConvSpec.submanifold(2, 3, 1, 1)
    # one line of n sites: offsets (1, 0) and (1, 2) pair n - 1 sites each, and a cut at
    # 1, 2, n - 2 or n - 1 leaves one of their segments or the centre's a one-row half
    for n, cut in ((8, 4), (6, 3), (5, 5), (4, 4)):
        coords = np.stack([np.zeros(n), np.arange(n)], axis=1).astype(np.int64)
        kmap = build_kernel_map(coords, spec, (1, n))
        _require_split(kmap)
        assert kmap.cut == cut
    # on this map the most even cut, 2, would leave a one-row half, so 3 is taken
    coords = np.stack(np.unravel_index([0, 1, 2, 10, 12], (4, 4)), axis=1).astype(np.int64)
    kmap = build_kernel_map(coords, spec, (4, 4))
    _require_split(kmap)
    dst, bounds = kmap.triples[:, 1], kmap.bounds
    below = [[int((dst[lo:hi] < cut).sum()) for lo, hi in zip(bounds[:-1], bounds[1:])]
             for cut in range(6)]
    imbalance = [abs(2 * sum(b) - dst.size) for b in below]
    assert imbalance.index(min(imbalance)) == 2 and kmap.cut == 3
    assert any(b == 1 or hi - lo - b == 1
               for b, lo, hi in zip(below[2], bounds[:-1], bounds[1:]) if hi - lo >= 2)


def test_an_empty_half_of_a_segment_runs_no_product(monkeypatch):
    # a line along l, then one along w: each pairs its sites through two offsets that the
    # other does not use, and the cut between them leaves those segments an empty half
    coords = np.array([[0, 0], [1, 0], [2, 0], [3, 0], [6, 3], [6, 4], [6, 5], [6, 6]])
    rng = np.random.default_rng(38)
    x = SparseTensor(coords.astype(np.int64), rng.normal(size=(8, 2)), 1, (9, 9))
    spec = ConvSpec.submanifold(2, 3, 2, 2)
    kmap = build_kernel_map(x.coords, spec, x.extents)
    sizes = _require_split(kmap)
    assert kmap.cut == 4 and any(0 in pair and sum(pair) > 0 for pair in sizes)
    rows = []
    real = np.matmul
    monkeypatch.setattr(sparse_conv_module.np, "matmul",
                        lambda a, *args, **kw: rows.append(a.shape[0]) or real(a, *args, **kw))
    weights = random_conv_weights(rng, spec)
    with Lanes(2) as lanes:
        got = sparse_conv(x, spec, weights, kmap, lanes=lanes)
    monkeypatch.undo()
    assert 0 not in rows and 1 not in rows
    assert got.features.tobytes() == _scatter_add_at(x, spec, weights, kmap).tobytes()


def paired_convs(voxels, pillars, s3, s2, w3, w2):
    """Downsample both branches through the maps of `paired_downsample`."""
    m3, m2, _ = paired_downsample(voxels, pillars, s3, s2)
    return sparse_conv(voxels, s3, w3, m3), sparse_conv(pillars, s2, w2, m2)


def _paired_specs(cin_v, cout_v, cin_p, cout_p):
    return (ConvSpec.regular(3, 3, 2, 1, cin_v, cout_v),
            ConvSpec.regular(2, 3, 2, 1, cin_p, cout_p))


def test_paired_single_site():
    voxels = SparseTensor(coords=np.array([[4, 4, 0]]), features=np.ones((1, 2)),
                          stride=1, extents=(8, 8, 4))
    pillars = SparseTensor(coords=np.array([[4, 4]]), features=np.ones((1, 3)),
                           stride=1, extents=(8, 8))
    rng = np.random.default_rng(29)
    s3, s2 = _paired_specs(2, 2, 3, 3)
    v, p = paired_convs(voxels, pillars, s3, s2,
                             random_conv_weights(rng, s3), random_conv_weights(rng, s2))
    assert bev_equal(v, p)
    expect = {tuple(o) for o in enumerate_kernel_map(np.array([[4, 4]]), s2, (8, 8))[1].tolist()}
    assert {tuple(c) for c in p.coords} == expect


def test_paired_consistency_over_random_clouds(desk_grid):
    rng = np.random.default_rng(30)
    enc = PointEncoderWeights(weight=rng.normal(size=(4, 4)), bias=np.zeros(4))
    for trial in range(30):
        pts = random_cloud(rng, rng.integers(5, 200), desk_grid)
        cloud = voxelize(pts, desk_grid)
        voxels = build_voxel_features(cloud)
        pillars = build_pillar_features(cloud, enc)
        s3, s2 = _paired_specs(4, 4, 4, 4)
        v, p = paired_convs(voxels, pillars, s3, s2,
                                 random_conv_weights(rng, s3), random_conv_weights(rng, s2))
        assert bev_equal(v, p)


def test_paired_chained_strides(desk_grid):
    rng = np.random.default_rng(31)
    pts = random_cloud(rng, 150, desk_grid)
    enc = PointEncoderWeights(weight=rng.normal(size=(4, 4)), bias=np.zeros(4))
    cloud = voxelize(pts, desk_grid)
    v = build_voxel_features(cloud)
    p = build_pillar_features(cloud, enc)
    for expected_stride in (2, 4, 8):
        s3, s2 = _paired_specs(v.num_channels, 4, p.num_channels, 4)
        v, p = paired_convs(v, p, s3, s2,
                                 random_conv_weights(rng, s3), random_conv_weights(rng, s2))
        assert v.stride == p.stride == expected_stride
        assert bev_equal(v, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 35), st.sampled_from(["same", "drop", "add"]))
def test_bev_equal_is_true_exactly_when_build_correspondence_accepts(seed, n_cols, edit):
    rng = np.random.default_rng(seed)
    v, p = random_consistent_pair(rng, n_cols)
    cols = p.coords.tolist()
    if edit == "drop":
        del cols[rng.integers(len(cols))]
    elif edit == "add":
        free = sorted(set(np.ndindex(*p.extents)) - {tuple(c) for c in cols})
        cols = sorted(cols + [list(free[rng.integers(len(free))])])
    coords = np.array(cols, dtype=np.int64).reshape(-1, 2)
    p = SparseTensor(coords, np.ones((len(coords), 1)), 1, p.extents)
    try:
        build_correspondence(v.coords, p.coords)
        accepted = True
    except ConsistencyViolation:
        accepted = False
    assert bev_equal(v, p) == accepted == (edit == "same")


def test_paired_rejects_mismatched_specs():
    voxels = SparseTensor(coords=np.array([[0, 0, 0]]), features=np.ones((1, 1)),
                          stride=1, extents=(4, 4, 4))
    pillars = SparseTensor(coords=np.array([[0, 0]]), features=np.ones((1, 1)),
                           stride=1, extents=(4, 4))
    s3 = ConvSpec.regular(3, 3, 2, 1, 1, 1)
    s2 = ConvSpec.regular(2, 3, 2, 0, 1, 1)  # padding differs in X-Y
    w3 = ConvWeights(kernel=np.zeros((27, 1, 1)))
    w2 = ConvWeights(kernel=np.zeros((9, 1, 1)))
    with pytest.raises(SpecMismatch):
        paired_convs(voxels, pillars, s3, s2, w3, w2)


def test_paired_rejects_inconsistent_inputs():
    voxels = SparseTensor(coords=np.array([[0, 0, 0]]), features=np.ones((1, 1)),
                          stride=1, extents=(4, 4, 4))
    pillars = SparseTensor(coords=np.array([[1, 1]]), features=np.ones((1, 1)),
                           stride=1, extents=(4, 4))
    s3, s2 = _paired_specs(1, 1, 1, 1)
    w3 = ConvWeights(kernel=np.zeros((27, 1, 1)))
    w2 = ConvWeights(kernel=np.zeros((9, 1, 1)))
    with pytest.raises(ConsistencyViolation):
        paired_convs(voxels, pillars, s3, s2, w3, w2)


def test_densify_round_trip():
    rng = np.random.default_rng(32)
    x = random_sparse(rng, (6, 6, 6), 0.2, 3, 3)
    dense = densify_features(x.coords, x.features, x.extents)
    back = dense[tuple(x.coords.T)]
    np.testing.assert_array_equal(back, x.features)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_weights_with_a_non_finite_value_are_refused_and_finite_ones_widen(dtype, bad):
    rng = np.random.default_rng(150)
    kernel = rng.normal(size=(9, 3, 4)).astype(dtype)
    enc = rng.normal(size=(4, 5)).astype(dtype)
    wide = ConvWeights(kernel).kernel
    assert wide.dtype == np.float64 and wide.tobytes() == kernel.astype(np.float64).tobytes()
    assert PointEncoderWeights(enc, np.zeros(5, dtype)).weight.tobytes() == \
        enc.astype(np.float64).tobytes()
    kernel.flat[17] = bad
    with pytest.raises(ValueError, match="kernel weights must be finite"):
        ConvWeights(kernel)
    for weight, bias in ((np.where(np.arange(20).reshape(4, 5) == 7, bad, enc), np.zeros(5)),
                         (enc, np.array([0.0, bad, 0.0, 0.0, 0.0]))):
        with pytest.raises(ValueError, match="point encoder weights must be finite"):
            PointEncoderWeights(weight.astype(dtype), bias.astype(dtype))
    assert ConvWeights(np.zeros((9, 0, 4), dtype)).kernel.shape == (9, 0, 4)
