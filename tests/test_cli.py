import argparse
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from voxpillar import backbone, cli, manifest
from voxpillar import grid as grid_module
from voxpillar.backbone import MAX_LAYERS, BackboneConfig, required_weights
from voxpillar.cli import _load_run, main
from voxpillar.config import RunConfig
from voxpillar.formats import read_cloud, read_dump, write_cloud, write_dump
from voxpillar.grid import (GridSpec, PointEncoderWeights, assign_voxel_indices,
                            build_pillar_features, build_voxel_features, voxelize)
from voxpillar.selftest import random_cloud


@pytest.fixture
def workspace(tmp_path):
    grid = GridSpec((0.0, 0.0, 0.0), (1.6, 1.6, 1.2), (0.1, 0.1, 0.15))
    cfg = RunConfig(seed=11, grid=grid)
    cfg_path = tmp_path / "config.json"
    cfg.save(cfg_path)
    rng = np.random.default_rng(120)
    cloud_path = tmp_path / "cloud.vpc"
    write_cloud(cloud_path, random_cloud(rng, 150, grid))
    return tmp_path, str(cfg_path), str(cloud_path)


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["forward"])  # missing required args
    assert exc.value.code == 2


def test_voxelize_writes_both_tensors(workspace):
    tmp, cfg, cloud = workspace
    out = str(tmp / "init.vpt")
    assert main(["voxelize", cloud, "--config", cfg, "--out", out]) == 0
    records = read_dump(out)
    assert [r["header"]["name"] for r in records] == ["voxels", "pillars"]
    assert records[0]["header"]["channels"] == 4
    assert records[0]["header"]["stride"] == 1
    vox_bev = {tuple(c[:2]) for c in records[0]["coords"]}
    pil = {tuple(c) for c in records[1]["coords"]}
    assert vox_bev == pil


def test_voxelize_seeds_only_the_point_encoder_and_writes_the_same_bytes(workspace, monkeypatch):
    tmp, cfg_path, cloud_path = workspace
    seeded = []
    real = manifest.fill_seeded
    monkeypatch.setattr(manifest, "fill_seeded",
                        lambda name, values, seed: seeded.append(name) or real(name, values, seed))
    out = tmp / "init.vpt"
    assert main(["voxelize", cloud_path, "--config", cfg_path, "--out", str(out)]) == 0
    assert sorted(seeded) == ["point_encoder.bias", "point_encoder.weight"]
    # seeded tensors are keyed by name: the whole model's point encoder is the same
    cfg = _load_run(argparse.Namespace(config=cfg_path))
    tensors = manifest.resolve_weights(required_weights(cfg.grid, cfg.backbone), None, cfg.seed)
    enc = PointEncoderWeights(tensors["point_encoder.weight"], tensors["point_encoder.bias"])
    cloud = voxelize(read_cloud(cloud_path), cfg.grid)
    v, p = build_voxel_features(cloud), build_pillar_features(cloud, enc)
    want = tmp / "want.vpt"
    write_dump(want, [("voxels", v.coords, v.features, v.stride, v.extents),
                      ("pillars", p.coords, p.features, p.stride, p.extents)])
    assert out.read_bytes() == want.read_bytes()


def test_voxelize_reports_the_points_dropped(workspace, capsys):
    tmp, cfg_path, _ = workspace
    cfg = _load_run(argparse.Namespace(config=cfg_path))
    pts = random_cloud(np.random.default_rng(121), 100, cfg.grid)
    pts[:7, 2] += 10.0
    pts[7:10, 0] = cfg.grid.range_max[0]  # the range is half-open
    cloud_path = tmp / "partly_out.vpc"
    write_cloud(cloud_path, pts)
    assert main(["voxelize", str(cloud_path), "--config", cfg_path,
                 "--out", str(tmp / "init.vpt")]) == 0
    _, dropped = assign_voxel_indices(pts, cfg.grid)
    assert dropped == 10
    assert f"dropped {dropped} points out of range" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["dense", "sparse"])
def test_forward_reports_the_points_dropped_from_its_one_voxelization(workspace, capsys,
                                                                    monkeypatch, variant):
    tmp, cfg_path, _ = workspace
    cfg = _load_run(argparse.Namespace(config=cfg_path))
    pts = random_cloud(np.random.default_rng(121), 100, cfg.grid)
    pts[:7, 2] += 10.0
    pts[7:10, 0] = cfg.grid.range_max[0]  # the range is half-open
    cloud_path = tmp / "partly_out.vpc"
    write_cloud(cloud_path, pts)
    passes = []
    real = grid_module.voxelize
    monkeypatch.setattr(grid_module, "voxelize", lambda *a: passes.append(1) or real(*a))
    monkeypatch.setattr(backbone, "voxelize", grid_module.voxelize)
    monkeypatch.setattr(cli, "voxelize", grid_module.voxelize)
    assert main(["forward", str(cloud_path), "--config", cfg_path, "--variant", variant,
                 "--out", str(tmp / "readout.vpt")]) == 0
    assert len(passes) == 1
    _, dropped = assign_voxel_indices(pts, cfg.grid)
    assert dropped == 10
    err = capsys.readouterr().err
    assert err.startswith(f"{variant} readout ") and len(err.splitlines()) == 1
    assert err.rstrip().endswith(f"; dropped {dropped} points out of range")


def test_voxelize_bad_magic_exits_1(workspace, tmp_path, capsys):
    _, cfg, _ = workspace
    bad = tmp_path / "bad.vpc"
    bad.write_bytes(b"XXXX\x00\x00\x00\x00")
    code = main(["voxelize", str(bad), "--config", cfg, "--out", str(tmp_path / "o.vpt")])
    assert code == 1
    assert "magic" in capsys.readouterr().err


def test_forward_deterministic_dumps(workspace):
    tmp, cfg, cloud = workspace
    outs = []
    for run in ("a", "b"):
        dump_dir = tmp / f"dumps_{run}"
        out = tmp / f"readout_{run}.vpt"
        assert main(["forward", cloud, "--config", cfg,
                     "--dump-intermediates", str(dump_dir), "--out", str(out)]) == 0
        outs.append((dump_dir, out))
    (dir_a, out_a), (dir_b, out_b) = outs
    assert out_a.read_bytes() == out_b.read_bytes()
    files_a = sorted(p.name for p in dir_a.iterdir())
    assert files_a == ["readout.vpt", "step1.vpt", "step2.vpt", "step3.vpt", "step4.vpt"]
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_forward_variant_override(workspace):
    tmp, cfg, cloud = workspace
    out = tmp / "sparse.vpt"
    assert main(["forward", cloud, "--config", cfg, "--variant", "sparse",
                 "--out", str(out)]) == 0
    records = read_dump(str(out))
    assert records[0]["header"]["name"] == "readout.sparse"
    assert records[0]["header"]["channels"] == 256


def test_forward_dump_headers_carry_config(workspace):
    tmp, cfg, cloud = workspace
    dump_dir = tmp / "dumps"
    assert main(["forward", cloud, "--config", cfg,
                 "--dump-intermediates", str(dump_dir)]) == 0
    voxel_channels = []
    pillar_channels = []
    strides = []
    for step in (1, 2, 3, 4):
        records = read_dump(str(dump_dir / f"step{step}.vpt"))
        voxel_channels.append(records[0]["header"]["channels"])
        pillar_channels.append(records[1]["header"]["channels"])
        strides.append(records[0]["header"]["stride"])
    assert voxel_channels == [16, 32, 64, 64]
    assert pillar_channels == [32, 64, 128, 256]
    assert strides == [1, 2, 4, 8]


def test_density_csv(workspace, tmp_path):
    tmp, cfg, _ = workspace
    # synthetic box fully covered in z by 10 points
    box = {"center": [0.8, 0.8, 0.6], "dims": [0.4, 0.4, 1.0], "heading": 0.0}
    pts = [[0.8, 0.8, 0.6 - 0.5 + (i + 0.5) * 0.1, 0.0] for i in range(10)]
    cloud_path = tmp_path / "boxcloud.vpc"
    write_cloud(cloud_path, np.array(pts))
    boxes_path = tmp_path / "boxes.json"
    boxes_path.write_text(json.dumps([box]))
    out = tmp_path / "density.csv"
    assert main(["density", str(cloud_path), str(boxes_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "box_id,s_z,point_count,horizontal_occupancy"
    cells = lines[1].split(",")
    assert cells[0] == "0" and float(cells[1]) == 1.0 and cells[2] == "10"


def test_density_csv_is_the_same_from_a_row_major_cloud(tmp_path, monkeypatch):
    grid = GridSpec((0.0, 0.0, 0.0), (6.4, 6.4, 2.4), (0.1, 0.1, 0.15))
    rng = np.random.default_rng(121)
    cloud_path = tmp_path / "cloud.vpc"
    write_cloud(cloud_path, random_cloud(rng, 3000, grid))
    boxes = [{"center": list(rng.uniform(1.0, 5.4, 2)) + [1.2],
              "dims": list(rng.uniform(0.3, 2.5, 3)), "heading": float(rng.uniform(-3.1, 3.1))}
             for _ in range(12)]
    boxes_path = tmp_path / "boxes.json"
    boxes_path.write_text(json.dumps(boxes))

    def density_csv(name):
        out = tmp_path / f"{name}.csv"
        assert main(["density", str(cloud_path), str(boxes_path), "--out", str(out)]) == 0
        return out.read_bytes()

    column_major = density_csv("column_major")
    assert all(int(line.split(",")[2]) > 0 for line in column_major.decode().splitlines()[1:])
    monkeypatch.setattr(cli, "read_cloud", lambda path: np.ascontiguousarray(read_cloud(path)))
    assert density_csv("row_major") == column_major


def test_density_out_onto_a_directory_exits_1_and_leaves_no_temp_file(workspace, capsys):
    tmp, _, cloud = workspace
    boxes = tmp / "boxes.json"
    boxes.write_text(json.dumps([{"center": [0.8, 0.8, 0.6], "dims": [0.4, 0.4, 1.0],
                                  "heading": 0.0}]))
    out = tmp / "out"
    out.mkdir()
    capsys.readouterr()
    assert main(["density", cloud, str(boxes), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert list(tmp.glob("*.tmp*")) == [] and list(out.iterdir()) == []


def test_recall_csv(workspace, tmp_path):
    gt = [{"box": {"center": [1, 1, 1], "dims": [2, 2, 2], "heading": 0.0},
           "class": "Vehicle", "points": [[1.0, 1.0, 0.5, 0.0]]}]
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps(gt))
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps([g["box"] for g in gt]))
    out = tmp_path / "recall.csv"
    assert main(["recall", str(gt_path), str(pred_path), "--threshold", "0.7",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s_z,num_gt,num_recalled,recall"
    assert lines[1] == "0.1,1,1,1.0"


def test_recall_matches_a_box_far_up_in_z(tmp_path):
    # at 1e17 m a z interval's ends are 16 m apart in float64
    box = {"center": [0, 0, 1e17], "dims": [4, 2, 1.5], "heading": 0.0}
    boxes = tmp_path / "boxes.json"
    boxes.write_text(json.dumps([{"box": box, "class": "Vehicle", "points": [[0, 0, 1e17, 0]]}]))
    out = tmp_path / "recall.csv"
    assert main(["recall", str(boxes), str(boxes), "--threshold", "0.7", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["0.1,1,1,1.0"]


def test_recall_threshold_validation(workspace, tmp_path, capsys):
    gt_path = tmp_path / "gt.json"
    gt_path.write_text("[]")
    code = main(["recall", str(gt_path), str(gt_path), "--threshold", "1.5",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 1


@pytest.mark.parametrize("box", [
    {"center": [1, 1, 1], "dims": [1e200, 1e200, 1e200], "heading": 0.0},  # volume overflows
    {"center": [1e308, 0, 0], "dims": [1, 1, 1], "heading": 0.0},
])
def test_recall_refuses_boxes_beyond_the_extent_bound(tmp_path, capsys, box):
    boxes = tmp_path / "boxes.json"
    boxes.write_text(json.dumps([{"box": box, "class": "Vehicle", "points": [[1, 1, 1, 0]]}]))
    out = tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["recall", str(boxes), str(boxes), "--threshold", "0.5",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "entry 0 is not a valid box: box centre and dims must lie within 1e+100 m" in err
    assert not out.exists()


@pytest.mark.parametrize("dims,message", [
    ([1, 1, 1e-101], "dims must be at least 1e-100 m"),
    ([2e6, 1, 1], "box length and width must lie within a ratio of 1e+06")])
def test_recall_refuses_boxes_too_small_or_too_long(tmp_path, capsys, dims, message):
    box = {"center": [0, 0, 0], "dims": dims, "heading": 0.3}
    boxes = tmp_path / "boxes.json"
    boxes.write_text(json.dumps([{"box": box, "class": "Vehicle", "points": [[0, 0, 0, 0]]}]))
    out = tmp_path / "r.csv"
    assert main(["recall", str(boxes), str(boxes), "--threshold", "0.5",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"entry 0 is not a valid box: {message}" in err
    assert not out.exists()


def test_iou_check_command(capsys):
    assert main(["iou-check", "--trials", "3", "--samples", "100000", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "max |clipped - monte-carlo|" in out


def test_missing_config_exits_1(workspace, capsys):
    _, _, cloud = workspace
    assert main(["voxelize", cloud, "--config", "/nonexistent.json", "--out", "/tmp/x"]) == 1


@pytest.mark.parametrize("kind", ["config", "boxes", "weight manifest"])
def test_a_json_input_that_is_not_utf8_exits_1_without_traceback(workspace, tmp_path, capsys,
                                                                  kind):
    _, cfg, cloud = workspace
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"seed": "\xff"}')
    argv = {"config": ["voxelize", cloud, "--config", str(bad), "--out", str(tmp_path / "x")],
            "boxes": ["density", cloud, str(bad), "--out", str(tmp_path / "x")],
            "weight manifest": ["forward", cloud, "--config", cfg, "--weights", str(bad)]}[kind]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot read {kind} ")
    assert "utf-8" in err


def test_csv_outputs_byte_stable(workspace, tmp_path):
    box = {"center": [0.8, 0.8, 0.6], "dims": [0.4, 0.4, 1.0], "heading": 0.2}
    pts = [[0.8, 0.8, 0.4, 0.0], [0.8, 0.8, 0.7, 0.0]]
    cloud_path = tmp_path / "c.vpc"
    write_cloud(cloud_path, np.array(pts))
    boxes_path = tmp_path / "b.json"
    boxes_path.write_text(json.dumps([box]))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"density_{run}.csv"
        assert main(["density", str(cloud_path), str(boxes_path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_forward_on_a_grid_too_large_for_the_dense_neck_exits_1(workspace, tmp_path, capsys):
    _, _, cloud = workspace
    cfg_path = tmp_path / "huge.json"
    RunConfig(grid=GridSpec((0.0, 0.0, 0.0), (10_000.0, 10_000.0, 2.4),
                            (0.1, 0.1, 0.15))).save(cfg_path)
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["forward", cloud, "--config", str(cfg_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "GiB" in err
    assert peak < 16 << 20


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 11 and "FAIL" not in out


@pytest.mark.parametrize("entry", [
    {"center": ["a", 0, 0], "dims": [1, 1, 1], "heading": 0.0},
    {"box": {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0}, "points": [[0, 0, 0]]},
    {"box": {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0},
     "points": [[0, 0, 0, 0], [0, 0]]},
    {"box": {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0}, "points": [["x"] * 4]},
    {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0, "id": "seven"},
    {"box": {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0}, "class": ["Vehicle"]},
    {"box": {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0}, "class": 7},
    # json writes these as NaN and Infinity, which Python's json reads back
    {"box": {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0},
     "points": [[0, 0, 0, 0], [0, 0, float("nan"), 0]]},
    {"box": {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0},
     "points": [[float("-inf"), 0, 0, 0]]},
    # ids read as the config reads ints: Infinity, 1.5 and true are not ids
    {"box": {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0}, "id": float("inf")},
    {"box": {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0}, "id": 1.5},
    {"box": {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0}, "id": True},
    # integers of 400 digits overflow a float
    {"center": [10**400, 0, 0], "dims": [1, 1, 1], "heading": 0.0},
    {"box": {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0},
     "points": [[0, 0, 10**400, 0]]},
    # box fields and point values are JSON numbers, as config and manifest values are
    {"center": ["1", "2", "3"], "dims": [1, 1, 1], "heading": 0.0},
    {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": True},
    {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": "0.5"},
    {"box": {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0},
     "points": [["1", "2", "3", "4"]]},
    {"box": {"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0},
     "points": [[True, False, 1, 2]]},
])
def test_malformed_boxes_exit_1_without_traceback(workspace, tmp_path, capsys, entry):
    _, _, cloud = workspace
    boxes = tmp_path / "boxes.json"
    boxes.write_text(json.dumps([{"center": [0, 0, 0], "dims": [1, 1, 1], "heading": 0.0},
                                 entry]))
    for argv in (["density", cloud, str(boxes)],
                 ["recall", str(boxes), str(boxes), "--threshold", "0.5"]):
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "entry 1" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("entry", [
    {"shape": ["a"], "values": [0.0]},
    {"shape": 3, "values": [0.0, 0.0, 0.0]},
    {"shape": [2], "values": "not base64!"},
    {"shape": [2, 2], "values": [[0.0, 0.0], [0.0]]},
    {"shape": [-1, -2], "values": [0.0, 0.0]},
    {"shape": [2], "values": ["1.5", "2"]},
])
def test_malformed_manifest_exits_1_without_traceback(workspace, capsys, entry):
    tmp, cfg, cloud = workspace
    weights = tmp / "weights.json"
    weights.write_text(json.dumps({"tensors": {"point_encoder.weight": entry}}))
    capsys.readouterr()
    assert main(["forward", cloud, "--config", cfg, "--weights", str(weights)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "'point_encoder.weight'" in err


@pytest.mark.parametrize("values", [[0.5, True], [1, False, 2], [[0.5], [True]]])
def test_inline_manifest_values_refuse_booleans_among_numbers(workspace, capsys, values):
    # NumPy reads these as numbers; config and box files refuse any boolean, and so do
    # manifests
    tmp, cfg, cloud = workspace
    weights = tmp / "weights.json"
    shape = list(np.shape(values))
    weights.write_text(json.dumps({"tensors": {"point_encoder.weight": {"shape": shape,
                                                                        "values": values}}}))
    capsys.readouterr()
    assert main(["forward", cloud, "--config", cfg, "--weights", str(weights)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "'point_encoder.weight'" in err and "expected numbers, got bool" in err


@pytest.mark.parametrize("command", ["forward", "voxelize"])
def test_an_empty_weights_path_exits_1(workspace, capsys, monkeypatch, command):
    tmp, cfg, cloud = workspace
    doc = json.loads(Path(cfg).read_text())
    doc["paths"] = {"weights": ""}
    empty = tmp / "empty.json"
    empty.write_text(json.dumps(doc))
    runs = [["--config", str(empty)]]
    if command == "forward":
        runs.append(["--config", cfg, "--weights", ""])

    def no_tensor(*args):
        raise AssertionError("a tensor was generated")

    monkeypatch.setattr(manifest, "fill_seeded", no_tensor)
    for run in runs:
        capsys.readouterr()
        assert main([command, cloud, *run, "--out", str(tmp / "out.vpt")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "empty" in err
        assert not (tmp / "out.vpt").exists()


# the forward's own matmuls overflow; a NumPy warning would be a second line, so it fails here
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant", ["dense", "sparse"])
def test_forward_with_a_readout_not_finite_exits_1(workspace, capsys, variant):
    tmp, cfg, cloud = workspace
    run = _load_run(argparse.Namespace(config=cfg, variant=variant))
    weights = tmp / "huge.json"
    # finite f32 weights whose products overflow, so no readout value is finite
    manifest.save_manifest(weights, {name: np.full(shape, 3e38) for name, shape
                                     in required_weights(run.grid, run.backbone).items()})
    out = tmp / "readout.vpt"
    for extra in ([], ["--out", str(out)]):
        capsys.readouterr()
        assert main(["forward", cloud, "--config", cfg, "--variant", variant,
                     "--weights", str(weights)] + extra) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"'readout.{variant}'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["forward", "voxelize"])
@pytest.mark.parametrize("dim", [10**12, 10**18])
def test_a_seeded_model_above_the_cap_exits_1(workspace, capsys, monkeypatch, command, dim):
    tmp, _, cloud = workspace
    cfg = tmp / "huge.json"
    cfg.write_text(json.dumps({"backbone": {"point_feature_dim": dim}}))

    def no_tensor(*args):
        raise AssertionError("a tensor was generated")

    monkeypatch.setattr(manifest, "fill_seeded", no_tensor)
    assert main([command, cloud, "--config", str(cfg), "--out", str(tmp / "out.vpt")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "GiB" in err
    assert not (tmp / "out.vpt").exists()


def test_a_fusion_kernel_past_int64_is_refused_by_forward_not_voxelize(workspace, capsys):
    tmp, cfg, cloud = workspace
    doc = json.loads(Path(cfg).read_text())
    doc["backbone"]["sfl_kernel"] = 4294967295  # its 2D kernel has about 1.8e19 taps
    wide = tmp / "wide.json"
    wide.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["forward", cloud, "--config", str(wide), "--out", str(tmp / "out.vpt")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "GiB" in err
    assert not (tmp / "out.vpt").exists()
    # voxelize seeds only the point encoder, whose tensors are keyed by name
    for config, out in ((cfg, "want.vpt"), (wide, "got.vpt")):
        assert main(["voxelize", cloud, "--config", str(config), "--out", str(tmp / out)]) == 0
    assert (tmp / "got.vpt").read_bytes() == (tmp / "want.vpt").read_bytes()


@pytest.mark.parametrize("doc", [
    {"paths": {"weights": 2}}, {"paths": {"weights": [1]}}, {"paths": {"weights": 0}},
    {"backbone": {"sfl_steps": "abcd"}}, {"backbone": {"sfl_steps": [1, 1, 0, 1]}},
    {"seed": True}, {"seed": "3"}, {"grid": {"voxel_size": [True, 0.1, 0.15]}},
    {"backbone": {"neck_layers": True}}, {"backbone": {"voxel_channels": [16, 32, True, 64]}},
    {"loss": {"gamma": False}}, {"iou_thresholds": {"Vehicle": True}},
])
@pytest.mark.parametrize("command", ["forward", "voxelize"])
def test_a_config_value_of_the_wrong_json_type_exits_1(workspace, capsys, command, doc):
    tmp, _, cloud = workspace
    cfg = tmp / "typed.json"
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, cloud, "--config", str(cfg), "--out", str(tmp / "out.vpt")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp / "out.vpt").exists()


@pytest.mark.parametrize("command", ["forward", "voxelize"])
@pytest.mark.parametrize("field", ["submanifold_layers", "neck_layers"])
def test_a_model_of_10_to_the_8_layers_exits_1_at_once(workspace, capsys, command, field):
    tmp, _, cloud = workspace
    cfg = tmp / "deep.json"
    cfg.write_text(json.dumps({"backbone": {field: 10**8}}))
    capsys.readouterr()
    start = time.perf_counter()
    assert main([command, cloud, "--config", str(cfg), "--out", str(tmp / "out.vpt")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"{field} must lie in [1, {MAX_LAYERS}]" in err
    assert not (tmp / "out.vpt").exists()


THIN_BACKBONE = {"voxel_channels": [1] * 4, "pillar_channels": [1] * 4, "point_feature_dim": 1,
                 "neck_channels": 1}


@pytest.mark.parametrize("command", ["forward", "voxelize"])
@pytest.mark.parametrize("field", ["submanifold_layers", "neck_layers"])
def test_a_thin_model_under_the_byte_cap_is_refused_by_its_layer_count(workspace, capsys,
                                                                       command, field):
    tmp, _, cloud = workspace
    grid = RunConfig().grid

    def count(layers):
        shapes = required_weights(grid, BackboneConfig(**{**THIN_BACKBONE, field: layers}))
        return sum(math.prod(shape) for shape in shapes.values())

    # the count grows linearly with the layers, and the byte cap alone admits 900,000
    assert 8 * (count(1) + (900_000 - 1) * (count(2) - count(1))) < manifest.SEEDED_BYTES_CAP
    cfg = tmp / "thin.json"
    cfg.write_text(json.dumps({"backbone": {**THIN_BACKBONE, field: 900_000}}))
    capsys.readouterr()
    start = time.perf_counter()
    assert main([command, cloud, "--config", str(cfg), "--out", str(tmp / "out.vpt")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and field in err
    assert not (tmp / "out.vpt").exists()


@pytest.mark.parametrize("flag", ["--samples", "--trials"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_iou_check_rejects_non_positive_counts(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["iou-check", flag, value])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--seed", "-1"], "non-negative integer"),
    (["--seed", "x"], "non-negative integer"),
    (["--samples", "1000000000000"], "above the 1 GiB cap"),
    (["--trials", "1000000000000"], "above the 1 GiB cap"),
])
def test_iou_check_refuses_a_negative_seed_and_counts_over_the_byte_cap(capsys, monkeypatch,
                                                                         argv, message):
    def no_run(*args):
        raise AssertionError("the check ran")

    monkeypatch.setattr(cli, "iou_monte_carlo_errors", no_run)
    with pytest.raises(SystemExit) as exc:
        main(["iou-check", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: voxpillar iou-check") and "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and argv[0] in errors[0] and message in errors[0]


def test_iou_check_takes_counts_at_the_byte_cap():
    parser = cli.build_parser()
    trials = cli.IOU_CHECK_BYTES_CAP // 8
    samples = cli.IOU_CHECK_BYTES_CAP // cli.MC_BYTES_PER_SAMPLE
    args = parser.parse_args(["iou-check", "--trials", str(trials), "--samples", str(samples),
                              "--seed", "0"])
    assert (args.trials, args.samples, args.seed) == (trials, samples, 0)
    with pytest.raises(SystemExit):
        parser.parse_args(["iou-check", "--samples", str(samples + 1)])


def test_variant_override_keeps_pinned_channels(tmp_path):
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({"backbone": {"voxel_channels": [8, 16, 24, 32]}}))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"backbone": {"neck_layers": 2}}))
    cfg = _load_run(argparse.Namespace(config=str(pinned), variant="sparse"))
    assert cfg.backbone.variant == "sparse"
    assert cfg.backbone.voxel_channels == (8, 16, 24, 32)
    cfg = _load_run(argparse.Namespace(config=str(bare), variant="sparse"))
    assert cfg.backbone.variant == "sparse" and cfg.backbone.neck_layers == 2
    assert cfg.backbone.voxel_channels == (16, 32, 64, 128)
    assert cfg.backbone.pillar_channels == (32, 64, 128, 256)
    assert _load_run(argparse.Namespace(config=str(bare), variant=None)).backbone.variant == "dense"


SCALED_SPARSE_CONV = """
import io, sys
import voxpillar.selftest as selftest

real = selftest.sparse_conv

def scaled(x, spec, weights, kmap):
    out = real(x, spec, weights, kmap)
    out.features *= 1.5
    return out

selftest.sparse_conv = scaled
buf = io.StringIO()
print(sys.flags.optimize, selftest.run_selftest(buf))
print(buf.getvalue())
"""


def test_selftest_fails_under_python_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", SCALED_SPARSE_CONV], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "1 False"
    assert "selftest sparse-conv dense oracle: FAIL" in proc.stdout


@pytest.mark.parametrize("command", ["forward", "voxelize"])
def test_config_seeds_outside_32_bits_exit_1(workspace, capsys, command):
    tmp, _, cloud = workspace
    cfg = tmp / "seeded.json"
    out = tmp / "out.vpt"
    for seed in (0, 2**32 - 1):
        cfg.write_text(json.dumps({"seed": seed}))
        assert main([command, cloud, "--config", str(cfg), "--out", str(out)]) == 0
    out.unlink()
    capsys.readouterr()
    # the weight streams key by the seed's low 32 bits: these would alias 2**32 - 1, 0 and 0
    for seed in (-1, 2**32, 2**70):
        cfg.write_text(json.dumps({"seed": seed}))
        assert main([command, cloud, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "seed" in err
        assert not out.exists()


@pytest.mark.parametrize("variant", ["dense", "sparse"])
@pytest.mark.parametrize("entry", range(4))
def test_a_channel_width_of_1e300_exits_1_without_a_traceback(workspace, capsys, variant,
                                                              entry):
    # the model's size passes the float range, which a GiB message must still format
    tmp, cfg, cloud = workspace
    doc = json.loads(Path(cfg).read_text())
    widths = list(BackboneConfig(variant=variant).voxel_channels)
    widths[entry] = 1e300
    doc["backbone"].update(variant=variant, voxel_channels=widths)
    huge = tmp / "huge.json"
    huge.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["forward", cloud, "--config", str(huge), "--out", str(tmp / "out.vpt")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "GiB" in err
    assert not (tmp / "out.vpt").exists()
