import collections
import functools
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxpillar.backbone import (NUM_STEPS, BackboneConfig, DenseFeatureMap, block_extents,
                                default_backbone_config, dense_conv3x3, dense_fusion_neck,
                                densify, encoder_forward, forward, height_compress,
                                merge_sparse2d, neck_convs, required_weights, sparse_readout)
from voxpillar import grid as grid_module
from voxpillar.errors import OutOfRange
from voxpillar.grid import GridSpec, SparseTensor
from voxpillar.manifest import resolve_weights
from voxpillar.reference import densify_features
from voxpillar.selftest import SUITES, check_neck_skip, forward_bytes, random_cloud
from voxpillar.sparse_conv import ConvSpec, ConvWeights, bev_equal, build_kernel_map, paired_downsample, sparse_conv
from test_structure import GRIDS, _configs


def small_grid():
    # 16 x 16 x 8 cells keeps whole-pipeline tests quick
    return GridSpec((0.0, 0.0, 0.0), (1.6, 1.6, 1.2), (0.1, 0.1, 0.15))


def make_model(variant="dense", grid=None, seed=3, **overrides):
    grid = grid or small_grid()
    cfg = default_backbone_config(variant)
    if overrides:
        doc = cfg.__dict__ | overrides
        cfg = BackboneConfig(**doc)
    tensors = resolve_weights(required_weights(grid, cfg), None, seed=seed)
    return grid, cfg, tensors


def test_step_extents_halve():
    steps = [(16, 16, 8), (8, 8, 4), (4, 4, 2), (2, 2, 1)]
    assert block_extents(small_grid(), default_backbone_config("dense")) == steps
    readout = [(1, 1, 1), (1, 1, 1)]  # the sparse variant's 16x and 32x blocks
    assert block_extents(small_grid(), default_backbone_config("sparse")) == steps + readout


def test_config_validation():
    with pytest.raises(ValueError):
        BackboneConfig(variant="other")
    with pytest.raises(ValueError):
        BackboneConfig(voxel_channels=(16, 32))
    with pytest.raises(ValueError):
        BackboneConfig(variant="sparse", readout_pillar_channels=(128, 256))


def test_default_channel_plans():
    dense = default_backbone_config("dense")
    assert dense.voxel_channels == (16, 32, 64, 64)
    assert dense.pillar_channels == (32, 64, 128, 256)
    sparse = default_backbone_config("sparse")
    assert sparse.voxel_channels == (16, 32, 64, 128)
    assert sparse.pillar_channels == (32, 64, 128, 256)


def test_encoder_strides_channels_and_consistency():
    grid, cfg, tensors = make_model("dense")
    rng = np.random.default_rng(80)
    pts = random_cloud(rng, 120, grid)
    pairs = encoder_forward(pts, grid, cfg, tensors)
    assert len(pairs) == 4
    for s, (v, p) in enumerate(pairs):
        assert v.stride == p.stride == (1, 2, 4, 8)[s]
        assert v.num_channels == cfg.voxel_channels[s]
        assert p.num_channels == cfg.pillar_channels[s]
        assert bev_equal(v, p)
        v.validate()
        p.validate()


def test_zero_sfl_weights_equal_disabled_sfl():
    grid, cfg_on, tensors_on = make_model("dense")
    _, cfg_off, _ = make_model("dense", sfl_steps=(False,) * 4)
    # same tensors minus the SFL entries, with SFL kernels zeroed in the on-model
    tensors_off = {k: v for k, v in tensors_on.items() if not k.startswith("sfl.")}
    for k in tensors_on:
        if k.startswith("sfl."):
            tensors_on[k] = np.zeros_like(tensors_on[k])
    rng = np.random.default_rng(81)
    pts = random_cloud(rng, 100, grid)
    pairs_on = encoder_forward(pts, grid, cfg_on, tensors_on)
    pairs_off = encoder_forward(pts, grid, cfg_off, tensors_off)
    for (v1, p1), (v2, p2) in zip(pairs_on, pairs_off):
        np.testing.assert_array_equal(v1.coords, v2.coords)
        np.testing.assert_allclose(v1.features, v2.features, atol=1e-6)
        np.testing.assert_allclose(p1.features, p2.features, atol=1e-6)


def test_branch_isolation_without_sfl():
    grid, cfg, tensors = make_model("dense", sfl_steps=(False,) * 4)
    rng = np.random.default_rng(82)
    pts = random_cloud(rng, 100, grid)
    pairs = encoder_forward(pts, grid, cfg, tensors)
    perturbed = dict(tensors)
    for name in tensors:
        if name.startswith(("pillar.", "point_encoder.")):
            perturbed[name] = tensors[name] + rng.normal(size=tensors[name].shape)
    pairs_perturbed = encoder_forward(pts, grid, cfg, perturbed)
    for (v1, _), (v2, _) in zip(pairs, pairs_perturbed):
        np.testing.assert_array_equal(v1.coords, v2.coords)
        assert v1.features.tobytes() == v2.features.tobytes()
    # and the other way around
    perturbed = dict(tensors)
    for name in tensors:
        if name.startswith("voxel."):
            perturbed[name] = tensors[name] + rng.normal(size=tensors[name].shape)
    pairs_perturbed = encoder_forward(pts, grid, cfg, perturbed)
    for (_, p1), (_, p2) in zip(pairs, pairs_perturbed):
        assert p1.features.tobytes() == p2.features.tobytes()


def test_height_compress_single_layer_identity():
    x = SparseTensor(coords=np.array([[0, 1, 0], [2, 2, 0]]),
                     features=np.array([[1.0, 2.0], [3.0, 4.0]]),
                     stride=8, extents=(4, 4, 1))
    out = height_compress(x)
    np.testing.assert_array_equal(out.coords, [[0, 1], [2, 2]])
    np.testing.assert_array_equal(out.features, x.features)


def test_height_compress_zero_fill():
    x = SparseTensor(coords=np.array([[1, 1, 0]]), features=np.array([[5.0, 6.0]]),
                     stride=4, extents=(4, 4, 2))
    out = height_compress(x)
    np.testing.assert_array_equal(out.features, [[5.0, 6.0, 0.0, 0.0]])
    y = SparseTensor(coords=np.array([[1, 1, 1]]), features=np.array([[5.0, 6.0]]),
                     stride=4, extents=(4, 4, 2))
    np.testing.assert_array_equal(height_compress(y).features, [[0.0, 0.0, 5.0, 6.0]])


def test_height_compress_matches_dense_reshape_oracle():
    rng = np.random.default_rng(83)
    extents = (5, 4, 3)
    total = int(np.prod(extents))
    flat = np.sort(rng.choice(total, size=20, replace=False))
    coords = np.stack(np.unravel_index(flat, extents), axis=1)
    feats = rng.normal(size=(20, 2))
    x = SparseTensor(coords=coords, features=feats, stride=1, extents=extents)
    out = height_compress(x)
    dense = densify_features(coords, feats, extents)  # (L, W, H, D)
    reshaped = dense.reshape(extents[0], extents[1], extents[2] * 2)
    for coord, feat in zip(out.coords, out.features):
        np.testing.assert_array_equal(feat, reshaped[coord[0], coord[1]])
    # all other BEV cells are all-zero
    mask = np.zeros(extents[:2], dtype=bool)
    mask[out.coords[:, 0], out.coords[:, 1]] = True
    assert (reshaped[~mask] == 0).all()


def test_densify_single_site():
    x = SparseTensor(coords=np.array([[2, 3]]), features=np.array([[1.5, -2.5]]),
                     stride=8, extents=(4, 5))
    m = densify(x)
    assert m.values.shape == (4, 5, 2)
    np.testing.assert_array_equal(m.values[2, 3], [1.5, -2.5])
    assert np.count_nonzero(m.values) == 2


@pytest.mark.parametrize("extents", [(4, 5), (4, 5, 3)], ids=["2d", "3d"])
def test_densify_matches_reference(extents):
    rng = np.random.default_rng(84)
    total = int(np.prod(extents))
    flat = np.sort(rng.choice(total, size=total // 3, replace=False))
    coords = np.stack(np.unravel_index(flat, extents), axis=1)
    feats = rng.normal(size=(len(coords), 2))
    feats[0] = 0.0  # an occupied site with a zero vector stays zero
    m = densify(SparseTensor(coords=coords, features=feats, stride=8, extents=extents))
    want = densify_features(coords, feats, extents).reshape(extents[0], extents[1], -1)
    assert m.stride == 8
    assert m.values.tobytes() == want.tobytes() and m.values.shape == want.shape


def test_densify_full_grid_keeps_values():
    rng = np.random.default_rng(85)
    coords = np.stack(np.meshgrid(np.arange(3), np.arange(3), indexing="ij"), -1).reshape(-1, 2)
    feats = rng.uniform(1.0, 2.0, size=(9, 2))
    x = SparseTensor(coords=coords, features=feats, stride=8, extents=(3, 3))
    m = densify(x)
    assert (m.values != 0).all()


def _identity_neck_tensors(tensors, cfg, branches=("voxel", "pillar")):
    """Rewrite neck weights to center-tap identity convs with unit affine."""
    out = dict(tensors)
    for branch in branches:
        for scale in (8, 16):
            for j in range(cfg.neck_layers):
                k = out[f"neck.{branch}.s{scale}.conv{j}.kernel"]
                ident = np.zeros_like(k)
                if k.shape[2] == k.shape[3]:
                    ident[1, 1] = np.eye(k.shape[2])
                else:  # first conv changes width; keep the leading channels
                    ident[1, 1, :, :] = np.eye(k.shape[2], k.shape[3])
                out[f"neck.{branch}.s{scale}.conv{j}.kernel"] = ident
                out[f"neck.{branch}.s{scale}.conv{j}.scale"] = np.ones(k.shape[3])
                out[f"neck.{branch}.s{scale}.conv{j}.shift"] = np.zeros(k.shape[3])
    return out


def _zero_branch_neck(tensors, cfg, branch):
    out = dict(tensors)
    for j in range(cfg.neck_layers):
        for suffix in ("kernel", "scale", "shift"):
            name = f"neck.{branch}.s8.conv{j}.{suffix}"
            out[name] = np.zeros_like(out[name])
    return out


def test_neck_output_shape():
    grid, cfg, tensors = make_model("dense")
    rng = np.random.default_rng(86)
    pts = random_cloud(rng, 150, grid)
    pairs, readout = forward(pts, grid, cfg, tensors)
    l8 = -(-grid.extents[0] // 8)
    w8 = -(-grid.extents[1] // 8)
    assert readout.extents == (l8, w8)
    assert readout.num_channels == 2 * cfg.neck_channels
    assert readout.stride == 8


def test_neck_zeroed_branch_is_additive_identity():
    grid, cfg, tensors = make_model("dense", neck_channels=8, neck_layers=2)
    rng = np.random.default_rng(87)
    pts = random_cloud(rng, 120, grid)
    pairs = encoder_forward(pts, grid, cfg, tensors)
    tensors_id = _identity_neck_tensors(tensors, cfg)
    zeroed = _zero_branch_neck(tensors_id, cfg, "pillar")
    out = dense_fusion_neck(pairs, zeroed, cfg, activation=False)
    # expected: the voxel branch alone, m8 then its stride-2 center-tap subsample
    v8 = densify(height_compress(pairs[3][0])).values
    m8 = v8[:, :, :cfg.neck_channels] if v8.shape[2] >= cfg.neck_channels else np.pad(
        v8, ((0, 0), (0, 0), (0, cfg.neck_channels - v8.shape[2])))
    m16 = m8[::2, ::2]
    up = np.repeat(np.repeat(m16, 2, 0), 2, 1)[:m8.shape[0], :m8.shape[1]]
    expect = np.concatenate([m8, up], axis=2)
    np.testing.assert_allclose(out.values, expect, atol=1e-9)


def test_neck_linearity_without_activation():
    grid, cfg, tensors = make_model("dense", neck_channels=8, neck_layers=2)
    rng = np.random.default_rng(88)
    pts = random_cloud(rng, 120, grid)
    pairs = encoder_forward(pts, grid, cfg, tensors)
    # affine parts off: scale 1, shift 0
    lin = dict(tensors)
    for name in tensors:
        if name.startswith("neck.") and name.endswith(".scale"):
            lin[name] = np.ones_like(tensors[name])
        if name.startswith("neck.") and name.endswith(".shift"):
            lin[name] = np.zeros_like(tensors[name])

    v, p = pairs[3]

    def with_features(fv, fp):
        vv = SparseTensor(v.coords, fv, v.stride, v.extents)
        pp = SparseTensor(p.coords, fp, p.stride, p.extents)
        return pairs[:3] + [(vv, pp)]

    fv1, fp1 = v.features, p.features
    fv2 = rng.normal(size=fv1.shape)
    fp2 = rng.normal(size=fp1.shape)
    a, b = 0.6, -1.4
    lhs = dense_fusion_neck(with_features(a * fv1 + b * fv2, a * fp1 + b * fp2),
                            lin, cfg, activation=False).values
    out1 = dense_fusion_neck(with_features(fv1, fp1), lin, cfg, activation=False).values
    out2 = dense_fusion_neck(with_features(fv2, fp2), lin, cfg, activation=False).values
    np.testing.assert_allclose(lhs, a * out1 + b * out2, rtol=1e-5, atol=1e-9)


def test_dense_conv3x3_matches_manual():
    rng = np.random.default_rng(89)
    x = rng.normal(size=(5, 6, 2))
    k = rng.normal(size=(3, 3, 2, 3))
    out = dense_conv3x3(x, k, stride=1)
    assert out.shape == (5, 6, 3)
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    for oy in range(5):
        for ox in range(6):
            acc = np.zeros(3)
            for dy in range(3):
                for dx in range(3):
                    acc += xp[oy + dy, ox + dx] @ k[dy, dx]
            np.testing.assert_allclose(out[oy, ox], acc, atol=1e-12)


def test_neck_skip_is_bitwise_equal_to_dense_layers():
    check_neck_skip(next(full for _, check, _, full in SUITES if check is check_neck_skip))


def test_neck_plan_order_and_strides():
    cfg = default_backbone_config("dense")
    convs = neck_convs(cfg, block_extents(small_grid(), cfg)[NUM_STEPS - 1])
    m = cfg.neck_layers
    assert [name for name, *_ in convs[::m]] == [
        "neck.voxel.s8.conv0", "neck.voxel.s16.conv0", "neck.pillar.s8.conv0",
        "neck.pillar.s16.conv0"]
    assert [stride for *_, stride in convs] == ([1] * m + [2] + [1] * (m - 1)) * 2
    assert all(c_in == cfg.neck_channels for _, c_in, _, _ in convs[1:m])


def test_neck_map_cap_raises_before_any_allocation():
    # a 10 km grid at 0.1 m: the densified 8x voxel map alone would be ~160 GB
    grid = GridSpec((0.0, 0.0, 0.0), (10_000.0, 10_000.0, 2.4), (0.1, 0.1, 0.15))
    cfg = default_backbone_config("dense")
    tracemalloc.start()
    try:
        with pytest.raises(OutOfRange, match="GiB"):
            neck_convs(cfg, block_extents(grid, cfg)[NUM_STEPS - 1])
        with pytest.raises(OutOfRange):
            required_weights(grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert required_weights(grid, default_backbone_config("sparse"))  # no dense maps


def test_merge_sparse2d_union_and_sum():
    a = (np.array([[0, 0], [1, 1]]), np.array([[1.0], [2.0]]))
    b = (np.array([[1, 1], [2, 2]]), np.array([[10.0], [20.0]]))
    merged = merge_sparse2d([a, b], extents=(4, 4), stride=8)
    np.testing.assert_array_equal(merged.coords, [[0, 0], [1, 1], [2, 2]])
    np.testing.assert_array_equal(merged.features, [[1.0], [12.0], [20.0]])


def _readout_scale_tensors(pairs, tensors, cfg):
    """Recompute the per-scale readout inputs with the public ops."""
    v, p = pairs[3]
    scales = [(8, v, p)]
    vox_widths = [cfg.voxel_channels[3], *cfg.readout_voxel_channels]
    pil_widths = [cfg.pillar_channels[3], *cfg.readout_pillar_channels]
    for i, scale in enumerate((16, 32)):
        spec3 = ConvSpec.regular(3, 3, 2, 1, vox_widths[i], vox_widths[i + 1])
        spec2 = ConvSpec.regular(2, 3, 2, 1, pil_widths[i], pil_widths[i + 1])
        w3 = ConvWeights(kernel=tensors[f"readout.voxel.block{scale}.down.kernel"],
                         bias=tensors[f"readout.voxel.block{scale}.down.bias"])
        w2 = ConvWeights(kernel=tensors[f"readout.pillar.block{scale}.down.kernel"],
                         bias=tensors[f"readout.pillar.block{scale}.down.bias"])
        v, p = paired_downsample(v, p, spec3, spec2, w3, w2)
        for j in range(cfg.submanifold_layers):
            for branch, t, nd in (("voxel", v, 3), ("pillar", p, 2)):
                spec = ConvSpec.submanifold(nd, 3, t.num_channels, t.num_channels)
                kmap = build_kernel_map(t.coords, spec, t.extents)
                w = ConvWeights(kernel=tensors[f"readout.{branch}.block{scale}.subm{j}.kernel"])
                if branch == "voxel":
                    v = sparse_conv(t, spec, w, kmap)
                else:
                    p = sparse_conv(t, spec, w, kmap)
        scales.append((scale, v, p))
    return scales


def sparse_model(**overrides):
    return make_model("sparse", point_feature_dim=8, submanifold_layers=1,
                      voxel_channels=(4, 8, 8, 8), pillar_channels=(8, 8, 8, 16),
                      readout_voxel_channels=(8, 8), readout_pillar_channels=(16, 16),
                      **overrides)


def test_sparse_readout_matches_dense_multiscale_oracle():
    grid, cfg, tensors = sparse_model()
    rng = np.random.default_rng(90)
    pts = random_cloud(rng, 120, grid)
    pairs = encoder_forward(pts, grid, cfg, tensors)
    out = sparse_readout(pairs, tensors, cfg)
    base = pairs[3][1].extents
    accum = np.zeros(base + (out.num_channels,))
    for scale, v, p in _readout_scale_tensors(pairs, tensors, cfg):
        ratio = scale // 8
        hc = height_compress(v)
        proj = tensors[f"readout.voxel.proj{scale}.weight"]
        accum[hc.coords[:, 0] * ratio, hc.coords[:, 1] * ratio] += hc.features @ proj
        accum[p.coords[:, 0] * ratio, p.coords[:, 1] * ratio] += p.features
    got = densify(out).values
    np.testing.assert_allclose(got, accum, rtol=1e-9, atol=1e-9)


def test_sparse_readout_zeroed_coarse_scales():
    grid, cfg, tensors = sparse_model()
    rng = np.random.default_rng(91)
    pts = random_cloud(rng, 100, grid)
    pairs = encoder_forward(pts, grid, cfg, tensors)
    zeroed = dict(tensors)
    for name in tensors:
        if name.startswith(("readout.voxel.block", "readout.pillar.block")) \
                or name.startswith(("readout.voxel.proj16", "readout.voxel.proj32")):
            zeroed[name] = np.zeros_like(tensors[name])
    out = sparse_readout(pairs, zeroed, cfg)
    v8, p8 = pairs[3]
    hc = height_compress(v8)
    expect = merge_sparse2d(
        [(hc.coords, hc.features @ zeroed["readout.voxel.proj8.weight"]),
         (p8.coords, p8.features)], p8.extents, stride=8)
    np.testing.assert_allclose(densify(out).values, densify(expect).values, atol=1e-12)


def test_sparse_readout_single_site_sums_scales():
    grid, cfg, tensors = sparse_model()
    v = SparseTensor(coords=np.array([[0, 0, 0]]),
                     features=np.ones((1, cfg.voxel_channels[3])),
                     stride=8, extents=(2, 2, 1))
    p = SparseTensor(coords=np.array([[0, 0]]),
                     features=np.ones((1, cfg.pillar_channels[3])),
                     stride=8, extents=(2, 2))
    pairs = [(None, None)] * 3 + [(v, p)]
    out = sparse_readout(pairs, tensors, cfg)
    expect = np.zeros(out.num_channels)
    for scale, vs, ps in _readout_scale_tensors(pairs, tensors, cfg):
        hc = height_compress(vs)
        proj = tensors[f"readout.voxel.proj{scale}.weight"]
        at_origin = (hc.coords == 0).all(axis=1)
        if at_origin.any():
            expect += (hc.features[at_origin] @ proj)[0]
        at_origin = (ps.coords == 0).all(axis=1)
        if at_origin.any():
            expect += ps.features[at_origin][0]
    got = out.features[(out.coords == 0).all(axis=1)][0]
    np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-12)


@functools.cache
def variant_model(variant):
    return make_model("dense") if variant == "dense" else sparse_model()


def test_whole_pipeline_determinism():
    for variant in ("dense", "sparse"):
        grid, cfg, tensors = variant_model(variant)
        pts = random_cloud(np.random.default_rng(92), 80, grid)
        assert forward_bytes(pts, grid, cfg, tensors) == forward_bytes(pts, grid, cfg, tensors)


@settings(max_examples=12)
@given(st.integers(0, 2**32 - 1))
def test_forward_is_bitwise_invariant_to_point_order(seed):
    rng = np.random.default_rng(seed)
    pts = random_cloud(rng, int(rng.integers(1, 60)), small_grid())
    pts = np.concatenate([pts, pts[rng.integers(0, len(pts), size=int(rng.integers(1, 30)))]])
    shuffled = pts[rng.permutation(len(pts))]
    for variant in ("dense", "sparse"):
        grid, cfg, tensors = variant_model(variant)
        assert forward_bytes(shuffled, grid, cfg, tensors) == forward_bytes(pts, grid, cfg, tensors)


def test_forward_voxelizes_and_sorts_the_points_once(monkeypatch):
    calls = {"assign_voxel_indices": 0, "lexsort": 0, "argsort": 0, "sort": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(grid_module, "assign_voxel_indices",
                        counted("assign_voxel_indices", grid_module.assign_voxel_indices))
    for name in ("lexsort", "argsort", "sort"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    grid, cfg, tensors = variant_model("dense")
    forward(random_cloud(np.random.default_rng(93), 80, grid), grid, cfg, tensors)
    assert calls == {"assign_voxel_indices": 1, "lexsort": 1, "argsort": 0, "sort": 0}


class RecordingTensors(Mapping):
    """A read-only tensor mapping that counts how often each name is read."""

    def __init__(self, tensors):
        self.tensors = tensors
        self.reads = collections.Counter()

    def __getitem__(self, name):
        self.reads[name] += 1
        return self.tensors[name]

    def __iter__(self):
        return iter(self.tensors)

    def __len__(self):
        return len(self.tensors)


@pytest.mark.parametrize("name", sorted(_configs()))
def test_forward_reads_each_required_weight_once(name):
    # both variants' defaults and the mixed configs pinned by tests/test_structure.py
    grid, cfg = GRIDS["small"], _configs()[name]
    tensors = RecordingTensors(resolve_weights(required_weights(grid, cfg), None, seed=7))
    forward(random_cloud(np.random.default_rng(94), 200, grid), grid, cfg, tensors)
    assert set(tensors.reads) == set(required_weights(grid, cfg))
    assert set(tensors.reads.values()) == {1}
