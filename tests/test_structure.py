"""Pins the model structure: weight names and shapes, and output digests.

`tests/data/structure.json` holds, for a fixed set of grids and backbone
configs, every `required_weights` entry and, per encoder step and readout
on one seeded cloud, a sha256 and a fingerprint. The default dense model
also runs on a wide grid with a cloud clustered at its centre: its 64 x 64
8x neck map keeps many cells with equal windows through every neck layer, so
the neck shares their rows, which it never does on the small grid's 2 x 2 map. A
refactor that keeps the model the same passes unchanged.

Feature bits depend on the BLAS kernel, so the sha256s hold only on the
OpenBLAS core recorded in `blas_core`. Everywhere the fingerprint
[sites, coordinate sum, feature sum, |feature| sum, feature^2 sum], the
benchmark canary's, must match: the first two exactly, the sums within
FINGERPRINT_RTOL.
Regenerate the table only for an intended change:

    PYTHONPATH=src python tests/test_structure.py --write
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from voxpillar.backbone import BackboneConfig, default_backbone_config, forward, required_weights
from voxpillar.grid import GridSpec
from voxpillar.manifest import resolve_weights
from voxpillar.selftest import SUITES, check_neck_classes

TABLE = Path(__file__).parent / "data" / "structure.json"
# the benchmark canary's tolerance on fingerprint sums
FINGERPRINT_RTOL = 1e-9

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


def blas_core() -> str | None:
    """The OpenBLAS core NumPy runs on, e.g. "SkylakeX", or None if it cannot be read.

    This is the kernel chosen at run time (OPENBLAS_CORETYPE overrides
    it), not the build target that `np.show_config()` reports.
    """
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("lib*openblas*.so")):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def _sha(*arrays, stride, extents) -> str:
    h = hashlib.sha256(f"{stride}:{tuple(int(e) for e in extents)}".encode())
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _fingerprint(coords, features) -> list:
    return [int(coords.shape[0]), int(coords.sum()), float(features.sum()),
            float(np.abs(features).sum()), float(np.square(features).sum())]


def _cloud(rng, n, lo, hi) -> np.ndarray:
    pts = np.empty((n, 4))
    pts[:, :3] = rng.uniform(lo, hi, size=(n, 3))
    pts[:, 3] = rng.uniform(0.0, 1.0, size=n)
    return pts


def output_pins() -> tuple[dict, dict]:
    """Per pinned run and output: the sha256s, and the fingerprints.

    A dense readout's sites are all its cells, as in the benchmark canary.
    """
    grid = GRIDS["small"]
    pts = _cloud(np.random.default_rng(2024), 400, grid.range_min, grid.range_max)
    runs = [(name, grid, cfg, pts) for name, cfg in _configs().items()]
    centre = _cloud(np.random.default_rng(2025), 400, (23.6, 23.6, 0.0), (27.6, 27.6, 2.4))
    runs.append(("wide-dense-centre", WIDE_GRID, default_backbone_config("dense"), centre))
    digests, fingerprints = {}, {}
    for name, grid, cfg, pts in runs:
        tensors = resolve_weights(required_weights(grid, cfg), None, seed=7)
        pairs, readout = forward(pts, grid, cfg, tensors)
        dig, fp = digests.setdefault(name, {}), fingerprints.setdefault(name, {})
        for s, pair in enumerate(pairs, start=1):
            for kind, t in zip(("voxels", "pillars"), pair):
                dig[f"step{s}.{kind}"] = _sha(t.coords, t.features, stride=t.stride,
                                              extents=t.extents)
                fp[f"step{s}.{kind}"] = _fingerprint(t.coords, t.features)
        if cfg.variant == "dense":
            l, w, c = readout.values.shape
            dig["readout"] = _sha(readout.values, stride=readout.stride, extents=readout.extents)
            fp["readout"] = _fingerprint(np.indices((l, w)).reshape(2, -1).T,
                                         readout.values.reshape(l * w, c))
        else:
            dig["readout"] = _sha(readout.coords, readout.features, stride=readout.stride,
                                  extents=readout.extents)
            fp["readout"] = _fingerprint(readout.coords, readout.features)
    return digests, fingerprints


def _committed() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_required_weights_match_committed_table():
    want = _committed()["weights"]
    got = weight_table()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_step_and_readout_digests_match_committed():
    committed = _committed()
    digests, fingerprints = output_pins()
    assert sorted(fingerprints) == sorted(committed["fingerprints"])
    for run, want in committed["fingerprints"].items():
        got = fingerprints[run]
        assert sorted(got) == sorted(want), run
        for output in sorted(want):
            g, w = got[output], want[output]
            assert g[:2] == w[:2], f"{run} {output}: sites and coordinate sum {g[:2]} != {w[:2]}"
            assert np.allclose(g[2:], w[2:], rtol=FINGERPRINT_RTOL, atol=0), \
                f"{run} {output}: {g} != {w}"
    core = blas_core()
    if core is not None and core == committed["blas_core"]:
        assert sorted(digests) == sorted(committed["digests"])
        for run, rec in committed["digests"].items():
            assert digests[run] == rec, run


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64") or blas_core() is None,
                    reason="needs x86-64 and a readable OpenBLAS core name")
def test_neck_skip_and_pins_hold_on_another_blas_kernel():
    """The neck window-class check and the pins in a child process on OpenBLAS's
    Prescott (SSE3) kernels, which run on any x86-64 CPU and round GEMM rows
    unlike its AVX ones, so a check that holds on one kernel only fails here."""
    cases = next(quick for _, check, quick, _ in SUITES if check is check_neck_classes)
    code = ("import test_structure as t\n"
            f"t.check_neck_classes({cases})\n"
            "t.test_step_and_readout_digests_match_committed()\n"
            "print(t.blas_core())\n")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600,
                          env={**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    # the child ran another kernel than the digests were recorded on
    assert proc.stdout.split()[-1] != _committed()["blas_core"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_structure.py --write")
    core = blas_core()
    if core is None:
        sys.exit("cannot read the OpenBLAS core name, so the digests would pin no known kernel")
    digests, fingerprints = output_pins()
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(json.dumps({"blas_core": core, "digests": digests,
                                 "fingerprints": fingerprints, "weights": weight_table()},
                                indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE} on the {core} kernels")
