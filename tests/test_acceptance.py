"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import math

import numpy as np
import pytest

from conftest import random_cloud
from test_geometry import random_box_pair
from test_losses import axis_aligned_overlapping_pair
from voxpillar.backbone import default_backbone_config, encoder_forward, required_weights
from voxpillar.cli import main as cli_main
from voxpillar.config import RunConfig
from voxpillar.density import vertical_density
from voxpillar.formats import read_dump, write_cloud
from voxpillar.fusion import (broadcast, build_correspondence, sparse_fusion_layer,
                              sparse_pool)
from voxpillar.geometry import Box3D, iou3d
from voxpillar.grid import GridSpec, SparseTensor2D, SparseTensor3D
from voxpillar.losses import (LossWeights, diou_center_fd_error, diou_loss,
                              encode_iou_target, focal_loss, iou_l1_terms, overall_loss,
                              rectify_score, regression_l1_terms)
from voxpillar.manifest import resolve_weights
from voxpillar.reference import (dense_conv_reference, dense_correspondence_matrix,
                                 density_bins_reference, groupby_max, monte_carlo_iou)
from voxpillar.sparse_conv import (ConvSpec, ConvWeights, bev_equal, build_kernel_map,
                                   sparse_conv)

SMALL_GRID = GridSpec((0.0, 0.0, 0.0), (1.6, 1.6, 1.2), (0.1, 0.1, 0.15))


def _report(num, name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _random_sparse(rng, extents, density, channels):
    total = int(np.prod(extents))
    n = max(1, int(round(total * density)))
    flat = np.sort(rng.choice(total, size=n, replace=False))
    coords = np.stack(np.unravel_index(flat, extents), axis=1).astype(np.int64)
    feats = rng.normal(size=(n, channels))
    cls = SparseTensor3D if len(extents) == 3 else SparseTensor2D
    return cls(coords=coords, features=feats, stride=1, extents=tuple(extents))


def test_c01_sparse_conv_oracle_equivalence():
    def body():
        rng = np.random.default_rng(201)
        for case in range(200):
            ndim = 3 if case % 2 == 0 else 2
            hi = 16 if ndim == 3 else 32
            extents = tuple(int(v) for v in rng.integers(6, hi + 1, size=ndim))
            density = rng.uniform(0.05, 0.5)
            cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            x = _random_sparse(rng, extents, density, cin)
            if case % 4 < 2:
                spec = ConvSpec.submanifold(ndim, 3, cin, cout)
            else:
                spec = ConvSpec.regular(ndim, 3, 2, 1, cin, cout)
            use_bias = case % 3 == 0
            w = ConvWeights(kernel=rng.normal(size=(spec.num_offsets, cin, cout)),
                            bias=rng.normal(size=cout) if use_bias else None)
            kmap = build_kernel_map(x.coords, spec, x.extents)
            out = sparse_conv(x, spec, w, kmap)
            dense = dense_conv_reference(x.coords, x.features, x.extents, spec, w)
            np.testing.assert_allclose(out.features, dense[tuple(out.coords.T)],
                                       rtol=1e-5, atol=1e-8)

    _report(1, "sparse-conv matches densify-convolve-mask oracle (200 cases)", body)


def test_c02_bev_consistency_all_steps():
    def body():
        cfg = default_backbone_config("dense")
        tensors = resolve_weights(required_weights(SMALL_GRID, cfg), None, seed=202)
        rng = np.random.default_rng(202)
        violations = 0
        for trial in range(100):
            pts = random_cloud(rng, int(rng.integers(5, 200)), SMALL_GRID)
            pairs = encoder_forward(pts, SMALL_GRID, cfg, tensors)
            assert len(pairs) == 4
            for v, p in pairs:
                if not bev_equal(v, p):
                    violations += 1
        assert violations == 0

    _report(2, "BEV occupancy equality at every encoder step (100 clouds)", body)


def _random_consistent_pair(rng, extents=(6, 6, 4), d_v=3, d_p=5):
    n_cols = int(rng.integers(1, extents[0] * extents[1] // 2))
    cols = np.sort(rng.choice(extents[0] * extents[1], size=n_cols, replace=False))
    pillar_coords = np.stack(np.unravel_index(cols, extents[:2]), axis=1)
    voxel_coords = []
    for l, w in pillar_coords:
        hs = np.sort(rng.choice(extents[2], size=int(rng.integers(1, extents[2] + 1)),
                                replace=False))
        voxel_coords.extend((l, w, h) for h in hs)
    voxel_coords = np.asarray(voxel_coords, dtype=np.int64)
    v = SparseTensor3D(coords=voxel_coords, features=rng.normal(size=(len(voxel_coords), d_v)),
                       stride=1, extents=extents)
    p = SparseTensor2D(coords=pillar_coords, features=rng.normal(size=(n_cols, d_p)),
                       stride=1, extents=extents[:2])
    return v, p


def test_c03_sfl_correctness():
    def body():
        rng = np.random.default_rng(203)
        for trial in range(100):
            v, p = _random_consistent_pair(rng)
            corr = build_correspondence(v, p)
            dense = dense_correspondence_matrix(v.coords, p.coords)
            assert (dense.sum(axis=1) == 1).all()  # every voxel in exactly one pillar
            pooled = sparse_pool(v, corr)
            oracle = groupby_max(v.features, v.coords[:, :2])
            for coord, feat in zip(p.coords, pooled):
                assert (feat == oracle[tuple(coord)]).all()
            copied = broadcast(p, corr)
            for i in range(v.num_sites):
                assert (copied[i] == p.features[corr.voxel_to_pillar[i]]).all()
            v_like = SparseTensor3D(v.coords, copied, 1, v.extents)
            assert (sparse_pool(v_like, corr) == p.features).all()
            w_v2p = ConvWeights(kernel=np.zeros((9, v.num_channels, p.num_channels)))
            w_p2v = ConvWeights(kernel=np.zeros((9, p.num_channels, v.num_channels)))
            fv, fp = sparse_fusion_layer(v, p, corr, w_v2p, w_p2v, build_kernel_map(
                p.coords, ConvSpec.submanifold(2, 3, 1, 1), p.extents))
            assert fv.features.tobytes() == v.features.tobytes()
            assert fp.features.tobytes() == p.features.tobytes()

    _report(3, "SFL pool/broadcast oracles, round trip, zero-weight identity", body)


def test_c04_rotated_iou():
    def body():
        assert iou3d(Box3D((0.3, 0.1, -0.4), (1.2, 2.1, 0.9), 0.83),
                     Box3D((0.3, 0.1, -0.4), (1.2, 2.1, 0.9), 0.83)) == 1.0
        assert iou3d(Box3D((0, 0, 0), (1, 1, 1), 0.1),
                     Box3D((100, 0, 0), (1, 1, 1), 0.7)) == 0.0
        offset = iou3d(Box3D((0, 0, 0), (1, 1, 1), 0.0),
                       Box3D((0.5, 0, 0), (1, 1, 1), 0.0))
        assert abs(offset - 1.0 / 3.0) <= 1e-9
        rng = np.random.default_rng(204)
        for trial in range(50):
            a, b = random_box_pair(rng)
            mc = monte_carlo_iou(a, b, samples=1_000_000, seed=int(rng.integers(1 << 31)))
            assert abs(iou3d(a, b) - mc) <= 0.01

    _report(4, "rotated 3D IoU: analytic cases exact, 50 pairs within 0.01 of Monte-Carlo", body)


def test_c05_diou_gradient_and_bounds():
    def body():
        b = Box3D((1.0, -2.0, 0.3), (2.0, 1.0, 1.5), 0.4)
        assert diou_loss(b, b) == 0.0
        rng = np.random.default_rng(205)
        for trial in range(20):
            pred, gt = axis_aligned_overlapping_pair(rng)
            assert diou_center_fd_error(pred, gt, step=1e-4) <= 1e-4
        for trial in range(1000):
            a, c = random_box_pair(rng, max_offset=3.0)
            assert diou_loss(a, c) < 2.0

    _report(5, "DIoU: exact zero, gradient within 1e-4 (20 configs), bound < 2 (1000 pairs)", body)


def test_c06_rectification_identities():
    def body():
        grid = np.linspace(0.0, 1.0, 50)
        for s in grid:
            for i in grid:
                assert rectify_score(s, i, 0.0) == s
                assert rectify_score(s, i, 1.0) == i
        for alpha in (0.5, 0.65, 0.68, 0.71):
            scores = np.array([[rectify_score(s, i, alpha) for i in grid] for s in grid])
            assert (np.diff(scores, axis=0) >= -1e-15).all()
            assert (np.diff(scores, axis=1) >= -1e-15).all()

    _report(6, "score rectification passthrough and monotonicity (50x50 grid)", body)


def test_c07_overall_loss_and_iou_encoding():
    def body():
        assert encode_iou_target(0.75) == 1.0
        assert encode_iou_target(0.25) == 0.0
        assert encode_iou_target(0.0) == -0.5
        rng = np.random.default_rng(207)
        n = 24
        cls_t = focal_loss(rng.uniform(0.01, 0.99, n), (rng.uniform(size=n) < 0.5).astype(float),
                           0.25, 2.0)
        iou_t = iou_l1_terms(rng.uniform(-1, 1, n), rng.uniform(0, 1, n))
        reg_t = regression_l1_terms(rng.normal(size=(n, 7)), rng.normal(size=(n, 7)))
        diou_t = np.array([diou_loss(*random_box_pair(rng)) for _ in range(n)])
        gamma = 1.3
        got = overall_loss(cls_t, iou_t, reg_t, diou_t, LossWeights(gamma=gamma))
        expect = cls_t.mean() + iou_t.mean() + gamma * (diou_t.mean() + reg_t.mean())
        assert abs(got - expect) <= 1e-6
        zero_gamma = overall_loss(cls_t, iou_t, reg_t, diou_t, LossWeights(gamma=0.0))
        assert abs(zero_gamma - (cls_t.mean() + iou_t.mean())) <= 1e-6

    _report(7, "overall loss recomposition, gamma=0 identity, IoU target encoding", body)


def test_c08_vertical_density():
    def body():
        box = Box3D((0.4, -0.7, 0.2), (1.1, 2.3, 1.7), 0.35)
        h = box.dims[2]
        z0 = box.center[2] - h / 2
        for k in range(11):
            pts = np.array([[box.center[0], box.center[1], z0 + (i + 0.5) * h / 10, 0.0]
                            for i in range(k)]).reshape(-1, 4)
            assert vertical_density(pts, box).s_z == k / 10
        rng = np.random.default_rng(208)
        for trial in range(25):
            rot = Box3D(tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(0.8, 3.0, 3)),
                        rng.uniform(-math.pi, math.pi))
            pts = np.empty((200, 4))
            pts[:, :3] = rng.uniform(-4, 4, size=(200, 3))
            pts[:, 3] = 0.0
            rec = vertical_density(pts, rot)
            occ_x, occ_y, occ_z = density_bins_reference(pts, rot)
            assert rec.s_z == len(occ_z) / 10
            assert rec.horizontal_occupancy == math.sqrt(
                (len(occ_x) / 10) * (len(occ_y) / 10))

    _report(8, "vertical density: S_Z = k/10 exact, rotated binning matches oracle", body)


def test_c09_determinism_and_branch_isolation(tmp_path):
    def body():
        cfg = RunConfig(seed=209, grid=SMALL_GRID)
        cfg_path = tmp_path / "config.json"
        cfg.save(cfg_path)
        rng = np.random.default_rng(209)
        cloud_path = tmp_path / "cloud.vpc"
        write_cloud(cloud_path, random_cloud(rng, 150, SMALL_GRID))
        dirs = []
        for run in ("a", "b"):
            dump_dir = tmp_path / f"run_{run}"
            assert cli_main(["forward", str(cloud_path), "--config", str(cfg_path),
                             "--dump-intermediates", str(dump_dir),
                             "--out", str(tmp_path / f"readout_{run}.vpt")]) == 0
            dirs.append(dump_dir)
        names = sorted(p.name for p in dirs[0].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        assert (tmp_path / "readout_a.vpt").read_bytes() == \
               (tmp_path / "readout_b.vpt").read_bytes()

        # cross-branch perturbation invariance with SFLs off, bitwise
        bcfg = default_backbone_config("dense")
        bcfg = type(bcfg)(**{**bcfg.__dict__, "sfl_steps": (False,) * 4})
        tensors = resolve_weights(required_weights(SMALL_GRID, bcfg), None, seed=209)
        pts = random_cloud(rng, 120, SMALL_GRID)
        base = encoder_forward(pts, SMALL_GRID, bcfg, tensors)
        jitter = dict(tensors)
        for name in tensors:
            if name.startswith(("pillar.", "point_encoder.")):
                jitter[name] = tensors[name] + 1.0
        moved = encoder_forward(pts, SMALL_GRID, bcfg, jitter)
        for (v1, _), (v2, _) in zip(base, moved):
            assert v1.features.tobytes() == v2.features.tobytes()
        jitter = dict(tensors)
        for name in tensors:
            if name.startswith("voxel."):
                jitter[name] = tensors[name] + 1.0
        moved = encoder_forward(pts, SMALL_GRID, bcfg, jitter)
        for (_, p1), (_, p2) in zip(base, moved):
            assert p1.features.tobytes() == p2.features.tobytes()

    _report(9, "byte-identical forward dumps; bitwise branch isolation without SFL", body)


def test_c10_configuration_fidelity(tmp_path):
    def body():
        cfg = RunConfig(grid=SMALL_GRID)
        assert cfg.backbone.voxel_channels == (16, 32, 64, 64)
        assert cfg.backbone.pillar_channels == (32, 64, 128, 256)
        cfg_path = tmp_path / "config.json"
        cfg.save(cfg_path)
        rng = np.random.default_rng(210)
        cloud_path = tmp_path / "cloud.vpc"
        write_cloud(cloud_path, random_cloud(rng, 150, SMALL_GRID))
        dump_dir = tmp_path / "dumps"
        assert cli_main(["forward", str(cloud_path), "--config", str(cfg_path),
                         "--dump-intermediates", str(dump_dir)]) == 0
        voxel_channels, pillar_channels, strides = [], [], []
        for step in (1, 2, 3, 4):
            records = read_dump(str(dump_dir / f"step{step}.vpt"))
            assert records[0]["header"]["name"] == f"step{step}.voxels"
            voxel_channels.append(records[0]["header"]["channels"])
            pillar_channels.append(records[1]["header"]["channels"])
            assert records[0]["header"]["stride"] == records[1]["header"]["stride"]
            strides.append(records[0]["header"]["stride"])
        assert voxel_channels == [16, 32, 64, 64]
        assert pillar_channels == [32, 64, 128, 256]
        assert strides == [1, 2, 4, 8]

    _report(10, "default channel plan [16,32,64,64]/[32,64,128,256] at strides 1,2,4,8", body)
