import collections
import functools
import itertools
import sys
import threading
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from voxpillar.backbone import (NUM_STEPS, BackboneConfig, DenseFeatureMap, block_extents,
                                default_backbone_config, dense_conv3x3, dense_fusion_neck,
                                dense_layer, densify, encoder_forward, forward, height_compress,
                                merge_sparse2d, neck_convs, required_weights, sparse_readout,
                                window_classes)
from voxpillar import backbone, manifest
from voxpillar import sparse_conv as sparse_conv_module
from voxpillar import grid as grid_module
from voxpillar.errors import EmptyGrid, OutOfRange
from voxpillar.grid import GridSpec, SparseTensor
from voxpillar.manifest import resolve_weights
from voxpillar.reference import dense_conv_reference, densify_features
from voxpillar.selftest import (SUITES, check_lanes, check_neck_classes, forward_bytes,
                                random_cloud)
from voxpillar.sparse_conv import (ConvSpec, ConvWeights, Lanes, bev_equal, build_kernel_map,
                                   paired_downsample, sparse_conv)
from test_structure import GRIDS, WIDE_GRID, _cloud, _configs


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


def _full_map_layer(x, kernel, stride, lanes=Lanes()):
    """One dense_conv3x3 call on the (L, W, C) map `x`, every cell its own table row;
    returns the output map."""
    l, w, c = x.shape
    taps, labels = window_classes(np.arange(1, l * w + 1).reshape(l, w), stride)
    table = np.concatenate([np.zeros((1, c)), x.reshape(-1, c)])
    return dense_conv3x3(dense_layer(table, taps, kernel.shape[3]), kernel, lanes=lanes)[labels]


def test_dense_conv3x3_matches_manual():
    rng = np.random.default_rng(89)
    for (l, w), stride in itertools.product([(5, 6), (7, 3), (1, 9), (4, 4)], (1, 2)):
        x = rng.normal(size=(l, w, 2))
        k = rng.normal(size=(3, 3, 2, 3))
        out = _full_map_layer(x, k, stride)
        assert out.shape == ((l - 1) // stride + 1, (w - 1) // stride + 1, 3)
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        for oy in range(out.shape[0]):
            for ox in range(out.shape[1]):
                acc = np.zeros(3)
                for dy in range(3):
                    for dx in range(3):
                        acc += xp[stride * oy + dy, stride * ox + dx] @ k[dy, dx]
                np.testing.assert_allclose(out[oy, ox], acc, atol=1e-12)
        # every cell as a site, through the sparse conv oracle
        coords = np.indices((l, w)).reshape(2, -1).T
        want = dense_conv_reference(coords, x.reshape(-1, 2), (l, w),
                                    ConvSpec.regular(2, 3, stride, 1, 2, 3),
                                    ConvWeights(kernel=k.reshape(9, 2, 3)))
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)


def test_neck_skip_matches_dense_layers_within_tolerance():
    check_neck_classes(next(full for _, check, _, full in SUITES if check is check_neck_classes))


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


@pytest.mark.parametrize("variant", ["dense", "sparse"])
def test_forward_gives_the_same_bytes_on_float32_weights_and_their_float64_widening(variant):
    grid, cfg, tensors = variant_model(variant)
    assert {t.dtype for t in tensors.values()} == {np.dtype(np.float32)}
    wide = {name: t.astype(np.float64) for name, t in tensors.items()}
    pts = random_cloud(np.random.default_rng(91), 150, grid)
    assert forward_bytes(pts, grid, cfg, tensors) == forward_bytes(pts, grid, cfg, wide)


@pytest.mark.parametrize("variant", ["dense", "sparse"])
def test_every_layer_widens_its_tensors_on_the_calling_thread(monkeypatch, variant):
    grid, cfg, tensors = variant_model(variant)
    threads = []
    for real in (backbone._weights, backbone._neck_tensors):
        _wrap(monkeypatch, real, lambda *_: threads.append(threading.get_ident()))
    with Lanes(2) as lanes:
        forward(random_cloud(np.random.default_rng(90), 150, grid), grid, cfg, tensors, lanes)
    assert len(threads) == len(_sparse_convs(tensors)) + (
        4 * cfg.neck_layers if variant == "dense" else 0)
    assert set(threads) == {threading.get_ident()}


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


def _clouds(grid):
    """Clouds of 1-80 points inside `grid`, with intensities in [0, 1]."""
    point = st.tuples(*(st.floats(lo, hi, exclude_max=True)
                        for lo, hi in zip(grid.range_min, grid.range_max)),
                      st.floats(0.0, 1.0))
    return st.lists(point, min_size=1, max_size=80).map(np.array)


@settings(max_examples=25)
@given(_clouds(small_grid()))
def test_voxel_bev_equals_the_pillar_set_at_every_step(pts):
    for variant in ("dense", "sparse"):
        grid, cfg, tensors = variant_model(variant)
        try:
            pairs = encoder_forward(pts, grid, cfg, tensors)
        except EmptyGrid:  # every point rounded onto the range's upper bound
            reject()
        for step, (v, p) in enumerate(pairs, start=1):
            assert bev_equal(v, p), (variant, step)


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


def _wrap(monkeypatch, real, before):
    """Wrap the engine function `real` as the benchmark's tracer does, replacing every
    voxpillar module attribute that refers to it; `before(*args)` runs ahead of each call."""

    def wrapped(*args, **kwargs):
        before(*args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "voxpillar" or name.startswith("voxpillar.")):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, wrapped)


def test_the_neck_runs_4m_convs_with_the_same_bytes_on_any_cpu_count(monkeypatch):
    grid, cfg, tensors = variant_model("dense")
    pts = random_cloud(np.random.default_rng(95), 150, grid)
    check_lanes(pts, grid, cfg, tensors, "small grid")
    convs, halves = [], []
    _wrap(monkeypatch, backbone.dense_conv3x3, lambda *_: convs.append(threading.get_ident()))
    _wrap(monkeypatch, backbone._conv_rows, lambda *_: halves.append(threading.get_ident()))
    runs = {}
    for cpus in (1, 2, 4):
        monkeypatch.setattr(manifest, "_cpu_count", lambda: cpus)
        convs.clear()
        halves.clear()
        baseline = threading.active_count()
        runs[cpus] = forward_bytes(pts, grid, cfg, tensors)
        assert convs == [threading.get_ident()] * (4 * cfg.neck_layers)
        assert threading.active_count() == baseline
        # one CPU runs both halves of a layer here; more run the second on one helper thread
        helpers = set(halves) - {threading.get_ident()}
        assert len(helpers) == (cpus > 1)
        assert len(halves) > len(convs)  # the 8x layers split
    assert runs[1] == runs[2] == runs[4]


@pytest.mark.parametrize("masked", [1, 2, 3, 4])
def test_a_skipping_layer_splits_only_into_halves_of_two_cells(monkeypatch, masked):
    # a layer of `masked` + 1 window classes: 2 or 3 would leave a half of one row, which
    # gemv would round unlike the GEMM, so those run whole
    n = masked + 1
    rng = np.random.default_rng(140 + masked)
    table = np.concatenate([np.zeros((1, 3)), rng.normal(size=(5, 3))])
    taps = rng.integers(0, 6, size=(9, n))
    kernel, scale, shift = rng.normal(size=(3, 3, 3, 6)), rng.normal(size=6), rng.normal(size=6)
    rows, parts = [], []
    real = np.matmul
    monkeypatch.setattr(backbone.np, "matmul",
                        lambda a, *args, **kw: rows.append(a.shape[0]) or real(a, *args, **kw))
    _wrap(monkeypatch, backbone._conv_rows, lambda *args: parts.append(args[3:]))
    runs = []
    for count in (1, 2):
        parts.clear()
        with Lanes(count) as lanes:
            runs.append(dense_conv3x3(dense_layer(table, taps, 6), kernel, (scale, shift, True),
                                      lanes).copy())
        assert sorted(parts) == ([(0, n)] if n < 4 else [(0, n // 2), (n // 2, n)])
    monkeypatch.undo()
    assert 1 not in rows
    assert runs[0].tobytes() == runs[1].tobytes()
    # row 0 stays the zero vector; row k + 1 is class k's window through the kernel
    want = sum(table[taps[t]] @ kernel[divmod(t, 3)] for t in range(9))
    assert not runs[0][0].any()
    np.testing.assert_allclose(runs[0][1:], np.maximum(want * scale + shift, 0.0),
                               rtol=1e-12, atol=1e-12)


def test_a_full_map_layer_splits_its_cells_only_into_halves_of_two(monkeypatch):
    rng = np.random.default_rng(145)
    kernel = rng.normal(size=(3, 3, 2, 3))
    parts = []
    _wrap(monkeypatch, backbone._conv_rows, lambda *args: parts.append(args[3:]))
    # on a fully occupied map every output cell is its own class
    for l, w, stride, split in ((1, 1, 1, [(0, 1)]), (1, 3, 1, [(0, 3)]),
                                (2, 2, 1, [(0, 2), (2, 4)]), (3, 2, 2, [(0, 2)]),
                                (5, 3, 2, [(0, 3), (3, 6)])):
        x = rng.normal(size=(l, w, 2))
        parts.clear()
        with Lanes(2) as lanes:
            got = _full_map_layer(x, kernel, stride, lanes)
        assert sorted(parts) == split
        assert got.tobytes() == _full_map_layer(x, kernel, stride).tobytes()


def _neck_case(l, w, h, cells, seed):
    """Final encoder pairs on an l x w x h 8x grid with voxels at `cells`, a thin dense
    config of 3 neck layers per block, and its seeded neck tensors."""
    voxel_coords = np.array(sorted(cells), dtype=np.int64)
    pillar_coords = np.unique(voxel_coords[:, :2], axis=0)
    rng = np.random.default_rng(seed)
    cfg = BackboneConfig(voxel_channels=(4, 4, 4, 3), pillar_channels=(4, 4, 4, 5),
                         neck_channels=6, neck_layers=3)
    voxels = SparseTensor(voxel_coords, rng.normal(size=(len(voxel_coords), 3)), 8, (l, w, h))
    pillars = SparseTensor(pillar_coords, rng.normal(size=(len(pillar_coords), 5)), 8, (l, w))
    tensors = {}
    for name, c_in, d, _ in neck_convs(cfg, voxels.extents):
        tensors[f"{name}.kernel"] = rng.normal(size=(3, 3, c_in, d))
        tensors[f"{name}.scale"] = rng.normal(size=d)
        tensors[f"{name}.shift"] = rng.normal(size=d)
    return [(voxels, pillars)] * NUM_STEPS, tensors, cfg


def _neck_layer_by_layer(pairs, tensors, cfg):
    """The dense neck as full-map layers, branch after branch: per layer and tap, one GEMM
    over the window rows of every output cell, added in tap order into a zero sum."""
    maps = []
    for branch, x in zip(("voxel", "pillar"), pairs[-1]):
        y = densify(x).values
        for scale in (8, 16):
            for j in range(cfg.neck_layers):
                name = f"neck.{branch}.s{scale}.conv{j}"
                stride = 2 if scale == 16 and j == 0 else 1
                kernel = tensors[f"{name}.kernel"]
                l, w = ((n - 1) // stride + 1 for n in y.shape[:2])
                padded = np.pad(y, ((1, 1), (1, 1), (0, 0)))
                acc = np.zeros((l * w, kernel.shape[3]))
                for dy in range(3):
                    for dx in range(3):
                        window = padded[dy:dy + stride * (l - 1) + 1:stride,
                                        dx:dx + stride * (w - 1) + 1:stride]
                        acc += window.reshape(l * w, -1) @ kernel[dy, dx]
                y = acc.reshape(l, w, -1) * tensors[f"{name}.scale"] + tensors[f"{name}.shift"]
                y = np.maximum(y, 0.0)
            maps.append(y)
    v8, v16, p8, p16 = maps
    up = np.repeat(np.repeat(v16 + p16, 2, axis=0), 2, axis=1)[:v8.shape[0], :v8.shape[1]]
    return np.concatenate([v8 + p8, up], axis=2)


def _neck_matches_layer_by_layer(pairs, tensors, cfg):
    want = _neck_layer_by_layer(pairs, tensors, cfg)
    for count in (1, 2):
        with Lanes(count) as lanes:
            got = dense_fusion_neck(pairs, tensors, cfg, lanes=lanes).values
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 3), st.data())
def test_the_neck_gives_the_same_bytes_on_one_and_two_lanes_for_any_occupancy(l, w, h, data):
    cells = data.draw(st.sets(st.tuples(st.integers(0, l - 1), st.integers(0, w - 1),
                                        st.integers(0, h - 1)), min_size=1))
    _neck_matches_layer_by_layer(*_neck_case(l, w, h, cells, len(cells)))


@pytest.mark.parametrize("extents", [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 3, 2)])
def test_the_neck_equals_its_layers_on_the_smallest_maps(extents):
    # a 1 x 1 8x map has the 16x map's shape, so no 16x layer may write over it
    l, w, h = extents
    full = set(itertools.product(range(l), range(w), range(h)))
    for cells in (full, {(0, 0, 0)}):
        _neck_matches_layer_by_layer(*_neck_case(l, w, h, cells, len(cells)))


@pytest.mark.parametrize("base", [7, 2**50])
def test_window_codes_number_tuples_exactly_at_any_label_range(base):
    # 2**50 labels leave no room to pack two columns with their positions, so the codes
    # are renumbered between columns, and the last ones are ranked by an argsort
    rng = np.random.default_rng(147)
    cols = [rng.integers(0, base, size=300) % v for v in (base, 3, base)]
    classes, count = backbone._classes(cols, base)
    uniq, want = np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True)
    assert count == len(uniq) and classes.tolist() == want.ravel().tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
def test_window_classes_give_each_cell_its_window_and_equal_windows_one_class(l, w, stride,
                                                                              seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, rng.integers(1, 6), size=(l, w))
    taps, classes = window_classes(labels, stride)
    padded = np.pad(labels, 1)
    windows = np.stack([padded[stride * y:stride * y + 3, stride * x:stride * x + 3].ravel()
                        for y in range(classes.shape[0]) for x in range(classes.shape[1])])
    assert classes.shape == ((l - 1) // stride + 1, (w - 1) // stride + 1)
    assert (taps[:, classes.ravel() - 1].T == windows).all()
    assert taps.shape[1] == len(np.unique(windows, axis=0)) == classes.max()


def test_the_neck_peak_on_the_wide_centre_grid_stays_under_16_mib():
    # the readout is 8 MiB; the neck measured 13.9 MiB above its inputs, where the
    # full-map neck it replaced measured 27.8 MiB
    cfg = default_backbone_config("dense")
    tensors = resolve_weights(required_weights(WIDE_GRID, cfg), None, seed=7)
    pts = _cloud(np.random.default_rng(2025), 400, (23.6, 23.6, 0.0), (27.6, 27.6, 2.4))
    pairs = encoder_forward(pts, WIDE_GRID, cfg, tensors)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        readout = dense_fusion_neck(pairs, tensors, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert readout.values.nbytes == 8 << 20
    assert peak < 16 << 20


def test_a_failing_neck_layer_propagates_and_leaves_no_thread(monkeypatch):
    grid, cfg, tensors = variant_model("dense")
    pairs = encoder_forward(random_cloud(np.random.default_rng(96), 120, grid), grid, cfg,
                            tensors)
    caller = threading.get_ident()
    errors = {"first": RuntimeError("first half failed"),
              "second": RuntimeError("second half failed")}
    failing = set()

    def fail(*_):
        # on two CPUs the second half of a layer is the one that runs off the calling thread
        half = "first" if threading.get_ident() == caller else "second"
        if half in failing:
            raise errors[half]

    _wrap(monkeypatch, backbone._conv_rows, fail)
    baseline = threading.active_count()
    for cpus, fails, raised in ((2, {"second"}, "second"), (2, {"first", "second"}, "first"),
                                (1, {"first"}, "first")):
        failing.clear()
        failing.update(fails)
        with Lanes(cpus) as lanes, pytest.raises(RuntimeError) as exc:
            dense_fusion_neck(pairs, tensors, cfg, lanes=lanes)
        assert exc.value is errors[raised]
        assert threading.active_count() == baseline


def test_the_parts_of_forward_called_alone_run_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(manifest, "_cpu_count", lambda: 4)
    threads = []
    for real in (sparse_conv_module.sparse_conv, backbone.dense_conv3x3):
        _wrap(monkeypatch, real, lambda *_: threads.append(threading.get_ident()))
    baseline = threading.active_count()
    for variant in ("dense", "sparse"):
        grid, cfg, tensors = variant_model(variant)
        pairs = encoder_forward(random_cloud(np.random.default_rng(99), 120, grid), grid, cfg,
                                tensors)
        if variant == "dense":
            dense_fusion_neck(pairs, tensors, cfg)
        else:
            sparse_readout(pairs, tensors, cfg)
        assert threads and set(threads) == {threading.get_ident()}
        assert threading.active_count() == baseline
        threads.clear()


def _sparse_convs(tensors) -> set:
    """The name of every sparse conv of the model that `tensors` hold."""
    return {name.removesuffix(".kernel") for name in tensors
            if name.endswith(".kernel") and not name.startswith("neck.")}


def _conv_names(monkeypatch, tensors) -> tuple[dict, set]:
    """Each sparse conv's name keyed by the identity of the float64 kernel that `forward`
    widens for it, filled in as `forward` builds them; and every sparse conv's name."""
    names = {}
    real = backbone._weights

    def named(tensors, name, spec):
        weights = real(tensors, name, spec)
        names[id(weights.kernel)] = name
        return weights

    monkeypatch.setattr(backbone, "_weights", named)
    return names, _sparse_convs(tensors)


def _record_halves(monkeypatch, names, calls: list):
    """Record (thread, conv name, whether its map splits) for each half of every sparse conv
    that `forward` runs."""

    def record(x, weights, kmap, *_):
        split = kmap.cut < kmap.out_coords.shape[0]
        calls.append((threading.get_ident(), names[id(weights.kernel)], split))

    _wrap(monkeypatch, sparse_conv_module._conv_half, record)


@pytest.mark.parametrize("variant", ["dense", "sparse"])
def test_forward_leaves_the_callers_lanes_open(monkeypatch, variant):
    grid, cfg, tensors = variant_model(variant)
    pts = random_cloud(np.random.default_rng(100), 150, grid)
    names, convs = _conv_names(monkeypatch, tensors)
    caller = threading.get_ident()
    halves = []
    _record_halves(monkeypatch, names, halves)
    want = forward_bytes(pts, grid, cfg, tensors, Lanes())
    baseline = threading.active_count()
    helpers = set()
    with Lanes(2) as lanes:
        for _ in range(2):
            halves.clear()
            assert forward_bytes(pts, grid, cfg, tensors, lanes) == want
            # the lanes' one helper is still running, and it ran the second half of every
            # conv whose map splits, in both branches
            assert threading.active_count() == baseline + 1
            helpers |= {thread for thread, *_ in halves if thread != caller}
            split = {name for _, name, splits in halves if splits}
            assert {name for thread, name, _ in halves if thread != caller} == split
            assert {name.split(".")[0] for name in split} >= {"voxel", "pillar"}
    assert len(helpers) == 1
    assert threading.active_count() == baseline


@pytest.mark.parametrize("variant", ["dense", "sparse"])
def test_every_layer_splits_its_rows_with_the_same_bytes_on_any_cpu_count(monkeypatch, variant):
    grid, cfg, tensors = variant_model(variant)
    pts = random_cloud(np.random.default_rng(97), 150, grid)
    names, convs = _conv_names(monkeypatch, tensors)
    caller = threading.get_ident()
    calls, halves = [], []
    _wrap(monkeypatch, sparse_conv_module.sparse_conv,
          lambda x, spec, w, *_: calls.append((threading.get_ident(), names[id(w.kernel)])))
    for real in (sparse_conv_module.conv_arrays, backbone.dense_layer, backbone._conv_rows):
        _wrap(monkeypatch, real,
              lambda *_, name=real.__name__: calls.append((threading.get_ident(), name)))
    _record_halves(monkeypatch, names, halves)
    runs = {}
    for cpus in (1, 2, 4):
        monkeypatch.setattr(manifest, "_cpu_count", lambda: cpus)
        calls.clear()
        halves.clear()
        baseline = threading.active_count()
        runs[cpus] = forward_bytes(pts, grid, cfg, tensors)
        assert threading.active_count() == baseline
        # every sparse conv and neck layer once, on this thread, with its arrays allocated
        # here; only the halves of a layer run on the helper
        on_caller = collections.Counter(name for thread, name in calls if thread == caller)
        assert on_caller.pop("conv_arrays") == len(convs)
        assert on_caller.pop("dense_layer", 0) == (4 * cfg.neck_layers if variant == "dense"
                                                   else 0)
        on_caller.pop("_conv_rows", None)
        assert on_caller == collections.Counter(convs)
        off_caller = {name for thread, name in calls if thread != caller}
        assert off_caller <= {"_conv_rows"}
        assert bool(off_caller) == (variant == "dense" and cpus > 1)
        # each conv runs one half per lane when its map splits, else one, on this thread
        split = {name for _, name, splits in halves if splits}
        assert split and len(halves) == len(convs) + len(split)
        helper = {name for thread, name, _ in halves if thread != caller}
        assert helper == (split if cpus > 1 else set())
    assert runs[1] == runs[2] == runs[4]


def test_a_failing_pillar_conv_propagates_and_leaves_no_thread(monkeypatch):
    grid, cfg, tensors = variant_model("sparse")
    pts = random_cloud(np.random.default_rng(98), 120, grid)
    names, _ = _conv_names(monkeypatch, tensors)
    caller = threading.get_ident()
    errors = {"first": RuntimeError("first half failed"),
              "second": RuntimeError("second half failed")}
    failing = set()

    def fail(x, weights, *_):
        # on two CPUs the second half of a split conv runs off the calling thread
        half = "first" if threading.get_ident() == caller else "second"
        if names[id(weights.kernel)].startswith("pillar.") and half in failing:
            raise errors[half]

    _wrap(monkeypatch, sparse_conv_module._conv_half, fail)
    baseline = threading.active_count()
    for cpus, fails, raised in ((2, {"second"}, "second"), (2, {"first", "second"}, "first"),
                                (1, {"first"}, "first")):
        monkeypatch.setattr(manifest, "_cpu_count", lambda: cpus)
        failing.clear()
        failing.update(fails)
        with pytest.raises(RuntimeError) as exc:
            forward(pts, grid, cfg, tensors)
        assert exc.value is errors[raised]
        assert threading.active_count() == baseline
