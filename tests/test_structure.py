"""Pins the model structure: weight names and shapes, and output digests.

`tests/data/structure.json` holds, for a fixed set of grids and backbone
configs, every `required_weights` entry and a sha256 per encoder step and
readout on one seeded cloud. The default dense model also runs on a wide
grid with a cloud clustered at its centre: its 64 x 64 8x neck map keeps
background cells through the last 8x layer, so the neck's background skip
runs, which it never does on the small grid's 2 x 2 map. A refactor that
keeps the model the same passes unchanged.
Regenerate the table only for an intended change:

    PYTHONPATH=src python tests/test_structure.py --write
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from voxpillar.backbone import BackboneConfig, default_backbone_config, forward, required_weights
from voxpillar.grid import GridSpec
from voxpillar.manifest import resolve_weights

TABLE = Path(__file__).parent / "data" / "structure.json"

GRIDS = {
    "small": GridSpec((0.0, 0.0, 0.0), (1.6, 1.6, 1.2), (0.1, 0.1, 0.15)),
    "desk": GridSpec((0.0, 0.0, 0.0), (6.4, 6.4, 2.4), (0.1, 0.1, 0.15)),
}
# the 8x map of the 51.2 m benchmark grid; the centre cloud occupies 7 x 7 of its cells
WIDE_GRID = GridSpec((0.0, 0.0, 0.0), (51.2, 51.2, 2.4), (0.1, 0.1, 0.15))


def _configs() -> dict[str, BackboneConfig]:
    return {
        "dense-default": default_backbone_config("dense"),
        "sparse-default": default_backbone_config("sparse"),
        "dense-subm3-sfl5-mixed": BackboneConfig(
            variant="dense", voxel_channels=(8, 16, 24, 32), pillar_channels=(12, 20, 28, 36),
            submanifold_layers=3, sfl_steps=(True, False, True, False), sfl_kernel=5,
            point_feature_dim=6, neck_layers=2, neck_channels=10),
        "sparse-subm1-mixed": BackboneConfig(
            variant="sparse", voxel_channels=(8, 16, 24, 32), pillar_channels=(12, 20, 28, 40),
            submanifold_layers=1, sfl_steps=(False, True, False, True), point_feature_dim=5,
            readout_voxel_channels=(16, 24), readout_pillar_channels=(40, 40)),
    }


def weight_table() -> dict[str, list]:
    """Per grid/config: sorted "name shape" entries, e.g. "voxel.step1.subm0.kernel 27x4x16"."""
    return {f"{g}/{c}": sorted(f"{name} {'x'.join(map(str, shape))}"
                               for name, shape in required_weights(grid, cfg).items())
            for g, grid in GRIDS.items() for c, cfg in _configs().items()}


def _sha(*arrays, stride, extents) -> str:
    h = hashlib.sha256(f"{stride}:{tuple(int(e) for e in extents)}".encode())
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _cloud(rng, n, lo, hi) -> np.ndarray:
    pts = np.empty((n, 4))
    pts[:, :3] = rng.uniform(lo, hi, size=(n, 3))
    pts[:, 3] = rng.uniform(0.0, 1.0, size=n)
    return pts


def output_digests() -> dict[str, dict[str, str]]:
    grid = GRIDS["small"]
    pts = _cloud(np.random.default_rng(2024), 400, grid.range_min, grid.range_max)
    runs = [(name, grid, cfg, pts) for name, cfg in _configs().items()]
    centre = _cloud(np.random.default_rng(2025), 400, (23.6, 23.6, 0.0), (27.6, 27.6, 2.4))
    runs.append(("wide-dense-centre", WIDE_GRID, default_backbone_config("dense"), centre))
    out = {}
    for name, grid, cfg, pts in runs:
        tensors = resolve_weights(required_weights(grid, cfg), None, seed=7)
        pairs, readout = forward(pts, grid, cfg, tensors)
        rec = {}
        for s, (v, p) in enumerate(pairs, start=1):
            rec[f"step{s}.voxels"] = _sha(v.coords, v.features, stride=v.stride, extents=v.extents)
            rec[f"step{s}.pillars"] = _sha(p.coords, p.features, stride=p.stride, extents=p.extents)
        if cfg.variant == "dense":
            rec["readout"] = _sha(readout.values, stride=readout.stride, extents=readout.extents)
        else:
            rec["readout"] = _sha(readout.coords, readout.features, stride=readout.stride,
                                  extents=readout.extents)
        out[name] = rec
    return out


def _committed() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_required_weights_match_committed_table():
    want = _committed()["weights"]
    got = weight_table()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_step_and_readout_digests_match_committed():
    want = _committed()["digests"]
    got = output_digests()
    assert sorted(got) == sorted(want)
    for cfg_name, rec in want.items():
        assert got[cfg_name] == rec, cfg_name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_structure.py --write")
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(json.dumps({"weights": weight_table(), "digests": output_digests()},
                                indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}")
