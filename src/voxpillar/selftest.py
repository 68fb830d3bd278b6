"""Compact in-process validation of every oracle-backed contract."""
from __future__ import annotations

import math

import numpy as np

from . import reference
from .backbone import default_backbone_config, forward, required_weights
from .config import RunConfig
from .density import vertical_density
from .fusion import broadcast, build_correspondence, sparse_fusion_layer, sparse_pool
from .geometry import Box3D, iou3d
from .grid import (GridSpec, PointEncoderWeights, SparseTensor, build_pillar_features,
                   build_voxel_features)
from .losses import diou_center_fd_error, diou_loss, encode_iou_target, rectify_score
from .manifest import resolve_weights
from .sparse_conv import ConvSpec, ConvWeights, bev_equal, build_kernel_map, paired_downsample, sparse_conv


def _require(cond, what: str):
    # An explicit raise, unlike an assert statement, survives python -O.
    if not cond:
        raise AssertionError(what)


def _random_sparse(rng, extents, density, channels):
    total = int(np.prod(extents))
    n = max(1, int(total * density))
    flat = np.sort(rng.choice(total, size=n, replace=False))
    coords = np.stack(np.unravel_index(flat, extents), axis=1).astype(np.int64)
    return SparseTensor(coords=coords, features=rng.normal(size=(n, channels)), stride=1,
                        extents=tuple(extents))


def _random_cloud(rng, n, grid):
    lo = np.array(grid.range_min)
    hi = np.array(grid.range_max)
    pts = np.empty((n, 4))
    pts[:, :3] = rng.uniform(lo, hi, size=(n, 3))
    pts[:, 3] = rng.uniform(0, 1, size=n)
    return pts


def _check_sparse_conv():
    rng = np.random.default_rng(100)
    for trial in range(20):
        ndim = 3 if trial % 2 == 0 else 2
        extents = tuple(rng.integers(6, 13, size=ndim))
        x = _random_sparse(rng, extents, rng.uniform(0.05, 0.4), 3)
        if trial % 4 < 2:
            spec = ConvSpec.submanifold(ndim, 3, 3, 4)
        else:
            spec = ConvSpec.regular(ndim, 3, 2, 1, 3, 4)
        w = ConvWeights(kernel=rng.normal(size=(spec.num_offsets, 3, 4)))
        kmap = build_kernel_map(x.coords, spec, x.extents)
        out = sparse_conv(x, spec, w, kmap)
        dense = reference.dense_conv_reference(x.coords, x.features, x.extents, spec, w)
        _require(np.allclose(out.features, dense[tuple(out.coords.T)], rtol=1e-5, atol=1e-8),
                 f"trial {trial}: sparse conv differs from the dense oracle")


def _check_bev_consistency():
    rng = np.random.default_rng(101)
    grid = GridSpec((0, 0, 0), (3.2, 3.2, 1.2), (0.1, 0.1, 0.15))
    enc = PointEncoderWeights(weight=rng.normal(size=(4, 4)), bias=np.zeros(4))
    for trial in range(10):
        pts = _random_cloud(rng, int(rng.integers(5, 150)), grid)
        v = build_voxel_features(pts, grid)
        p = build_pillar_features(pts, grid, enc)
        _require(bev_equal(v, p), f"trial {trial}: voxel and pillar BEV differ")
        for _ in range(3):
            s3 = ConvSpec.regular(3, 3, 2, 1, v.num_channels, 4)
            s2 = ConvSpec.regular(2, 3, 2, 1, p.num_channels, 4)
            v, p = paired_downsample(v, p, s3, s2,
                                     ConvWeights(kernel=rng.normal(size=(27, v.num_channels, 4))),
                                     ConvWeights(kernel=rng.normal(size=(9, p.num_channels, 4))))
            _require(bev_equal(v, p), f"trial {trial}: BEV differs after downsampling")


def _check_fusion():
    rng = np.random.default_rng(102)
    grid = GridSpec((0, 0, 0), (1.6, 1.6, 1.2), (0.1, 0.1, 0.15))
    enc = PointEncoderWeights(weight=rng.normal(size=(4, 5)), bias=np.zeros(5))
    for trial in range(10):
        pts = _random_cloud(rng, 80, grid)
        v = build_voxel_features(pts, grid)
        p = build_pillar_features(pts, grid, enc)
        corr = build_correspondence(v, p)
        dense_c = reference.dense_correspondence_matrix(v.coords, p.coords)
        _require((dense_c.sum(axis=1) == 1).all(), "a voxel is not in exactly one pillar")
        pooled = sparse_pool(v, corr)
        expected = reference.groupby_max(v.features, v.coords[:, :2])
        for coord, feat in zip(p.coords, pooled):
            _require((feat == expected[tuple(coord)]).all(), f"pillar {tuple(coord)} pooled wrong")
        copied = broadcast(p, corr)
        v_like = SparseTensor(v.coords, copied, 1, v.extents)
        _require((sparse_pool(v_like, corr) == p.features).all(), "pool of broadcast is not p")
        zero_v2p = ConvWeights(kernel=np.zeros((9, 4, 5)))
        zero_p2v = ConvWeights(kernel=np.zeros((9, 5, 4)))
        kmap = build_kernel_map(p.coords, ConvSpec.submanifold(2, 3, 5, 4), p.extents)
        fv, fp = sparse_fusion_layer(v, p, corr, zero_v2p, zero_p2v, kmap)
        _require(fv.features.tobytes() == v.features.tobytes(), "zero fusion changed voxels")
        _require(fp.features.tobytes() == p.features.tobytes(), "zero fusion changed pillars")


def _check_iou():
    b = Box3D(center=(0.5, -1.0, 0.2), dims=(1.5, 2.0, 1.0), heading=0.9)
    _require(iou3d(b, b) == 1.0, "self IoU is not 1")
    far = Box3D(center=(100, 0, 0), dims=(1, 1, 1), heading=0.3)
    _require(iou3d(b, far) == 0.0, "disjoint IoU is not 0")
    a = Box3D(center=(0, 0, 0), dims=(1, 1, 1), heading=0.0)
    c = Box3D(center=(0.5, 0, 0), dims=(1, 1, 1), heading=0.0)
    _require(abs(iou3d(a, c) - 1 / 3) <= 1e-9, "half-shifted cube IoU is not 1/3")
    rng = np.random.default_rng(103)
    for trial in range(4):
        center = rng.uniform(-2, 2, size=3)
        x = Box3D(tuple(center), tuple(rng.uniform(0.8, 2.5, 3)), rng.uniform(-math.pi, math.pi))
        y = Box3D(tuple(center + rng.uniform(-1, 1, 3)), tuple(rng.uniform(0.8, 2.5, 3)),
                  rng.uniform(-math.pi, math.pi))
        mc = reference.monte_carlo_iou(x, y, samples=1_000_000, seed=trial)
        _require(abs(iou3d(x, y) - mc) <= 0.01, f"trial {trial}: IoU differs from Monte-Carlo")


def _check_diou():
    b = Box3D(center=(1, 2, 3), dims=(2, 1, 1), heading=0.4)
    _require(diou_loss(b, b) == 0.0, "self DIoU loss is not 0")
    a = Box3D(center=(0, 0, 0), dims=(1, 1, 1), heading=0.0)
    c = Box3D(center=(2, 0, 0), dims=(1, 1, 1), heading=0.0)
    _require(abs(diou_loss(a, c) - (1 + 4 / 11)) <= 1e-12, "disjoint DIoU loss is wrong")
    rng = np.random.default_rng(104)
    checked = 0
    while checked < 5:
        ca = rng.uniform(-1, 1, 3)
        cb = ca + rng.uniform(-0.3, 0.3, 3)
        da = rng.uniform(1.0, 2.0, 3)
        db = rng.uniform(1.0, 2.0, 3)
        if np.minimum(np.abs((ca + da / 2) - (cb + db / 2)),
                      np.abs((ca - da / 2) - (cb - db / 2))).min() < 0.01:
            continue
        err = diou_center_fd_error(Box3D(tuple(ca), tuple(da), 0.0),
                                   Box3D(tuple(cb), tuple(db), 0.0))
        _require(err <= 1e-4, f"DIoU gradient off by {err}")
        checked += 1


def _check_score_formulas():
    _require(rectify_score(0.4, 0.9, 0.0) == 0.4, "alpha 0 rectification")
    _require(rectify_score(0.4, 0.9, 1.0) == 0.9, "alpha 1 rectification")
    _require(encode_iou_target(0.75) == 1.0, "IoU target clamps at 1")
    _require(encode_iou_target(0.25) == 0.0, "IoU target at 0.25")
    _require(encode_iou_target(0.0) == -0.5, "IoU target at 0")


def _check_density():
    rng = np.random.default_rng(105)
    for trial in range(5):
        box = Box3D(center=tuple(rng.uniform(-2, 2, 3)), dims=tuple(rng.uniform(1, 3, 3)),
                    heading=rng.uniform(-math.pi, math.pi))
        pts = np.empty((150, 4))
        pts[:, :3] = rng.uniform(-4, 4, size=(150, 3))
        pts[:, 3] = 0
        rec = vertical_density(pts, box)
        _, _, occ_z = reference.density_bins_reference(pts, box)
        _require(rec.s_z == len(occ_z) / 10, f"trial {trial}: S_Z differs from the oracle")
    box = Box3D(center=(0, 0, 0), dims=(2, 2, 2), heading=0.0)
    for k in range(11):
        pts = np.array([[0.0, 0.0, -1.0 + (i + 0.5) * 0.2, 0.0] for i in range(k)]).reshape(-1, 4)
        _require(vertical_density(pts, box).s_z == k / 10, f"{k} stacked points")


def _check_forward_determinism():
    cfg_doc = RunConfig()
    rng = np.random.default_rng(106)
    grid = GridSpec((0, 0, 0), (1.6, 1.6, 1.2), (0.1, 0.1, 0.15))
    pts = _random_cloud(rng, 60, grid)
    for variant in ("dense", "sparse"):
        cfg = default_backbone_config(variant)
        tensors = resolve_weights(required_weights(grid, cfg), None, seed=cfg_doc.seed)
        _, out1 = forward(pts, grid, cfg, tensors)
        _, out2 = forward(pts, grid, cfg, tensors)
        if variant == "dense":
            _require(out1.values.tobytes() == out2.values.tobytes(), "dense rerun differs")
        else:
            _require(out1.features.tobytes() == out2.features.tobytes(), "sparse rerun differs")


SUITES = [
    ("sparse-conv dense oracle", _check_sparse_conv),
    ("paired downsample BEV consistency", _check_bev_consistency),
    ("fusion pool/broadcast oracles", _check_fusion),
    ("rotated IoU analytic + Monte-Carlo", _check_iou),
    ("DIoU values and gradient", _check_diou),
    ("score rectification and IoU encoding", _check_score_formulas),
    ("vertical density binning", _check_density),
    ("forward determinism", _check_forward_determinism),
]


def run_selftest(out) -> bool:
    ok = True
    for name, check in SUITES:
        try:
            check()
        except AssertionError as exc:
            ok = False
            print(f"selftest {name}: FAIL ({exc})", file=out)
        else:
            print(f"selftest {name}: ok", file=out)
    return ok
