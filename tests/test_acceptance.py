"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

c01-c09 run the shared checks of `voxpillar.selftest` at their full case
counts. Run as `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.
"""
import numpy as np

from voxpillar.cli import main as cli_main
from voxpillar.config import RunConfig
from voxpillar.formats import read_dump, write_cloud
from voxpillar.selftest import (SMALL_GRID, SUITES, check_bev_consistency, check_density,
                                check_determinism, check_diou, check_fusion, check_iou,
                                check_kernel_map, check_overall_loss, check_rectification,
                                check_sparse_conv, random_cloud)

FULL_CASES = {check: cases for _, check, _, cases in SUITES}


def _report(num, name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _accept(num, name, check):
    _report(num, name, lambda: check(FULL_CASES[check]))


def test_c01_sparse_conv_oracle_equivalence():
    _accept(1, "sparse-conv matches densify-convolve-mask oracle (200 cases)", check_sparse_conv)


def test_c01_kernel_maps_equal_the_enumeration():
    _accept(1, "kernel maps equal the brute-force enumeration byte for byte (400 cases)",
            check_kernel_map)


def test_c02_bev_consistency_all_steps():
    _accept(2, "BEV occupancy equality at every encoder step (100 clouds)", check_bev_consistency)


def test_c03_sfl_correctness():
    _accept(3, "SFL pool/broadcast oracles, round trip, zero-weight identity", check_fusion)


def test_c04_rotated_iou():
    _accept(4, "rotated 3D IoU: analytic cases exact, 50 pairs within 0.01 of Monte-Carlo",
            check_iou)


def test_c05_diou_gradient_and_bounds():
    _accept(5, "DIoU: exact zero, gradient within 1e-4 (20 configs), bound < 2 (1000 pairs)",
            check_diou)


def test_c06_rectification_identities():
    _accept(6, "score rectification passthrough and monotonicity (50x50 grid)",
            check_rectification)


def test_c07_overall_loss_and_iou_encoding():
    _accept(7, "overall loss recomposition, gamma=0 identity, IoU target encoding",
            check_overall_loss)


def test_c08_vertical_density():
    _accept(8, "vertical density: S_Z = k/10 exact, rotated binning matches oracle", check_density)


def test_c09_determinism_and_branch_isolation(tmp_path):
    def body():
        cfg_path = tmp_path / "config.json"
        RunConfig(seed=209, grid=SMALL_GRID).save(cfg_path)
        cloud_path = tmp_path / "cloud.vpc"
        # the first draw of the stream that check_determinism also starts from
        write_cloud(cloud_path, random_cloud(np.random.default_rng(209), 150, SMALL_GRID))
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
        check_determinism(FULL_CASES[check_determinism])

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
