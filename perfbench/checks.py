"""Output checks, digests and fingerprints, computed outside timed regions.

Each check returns a list of problems; an empty list means the item passed.
"""
from __future__ import annotations

import hashlib

import numpy as np

# Relative tolerance on fingerprint sums. Reordering floating-point sums
# inside the engine moves them by about 1e-13; one feature off by 1e-3
# moves the |feature| sum of a workload output by more than 1e-9.
FINGERPRINT_RTOL = 1e-9


def forward_outputs(pairs, readout):
    """(name, coords, features) for every encoder step and the readout."""
    out = []
    for step, (v, p) in enumerate(pairs, start=1):
        out.append((f"step{step}.voxels", v.coords, v.features))
        out.append((f"step{step}.pillars", p.coords, p.features))
    if hasattr(readout, "values"):  # dense map: every cell is a site
        l, w, c = readout.values.shape
        coords = np.indices((l, w)).reshape(2, -1).T
        out.append(("readout", coords, readout.values.reshape(l * w, c)))
    else:
        out.append(("readout", readout.coords, readout.features))
    return out


def forward_digest(pairs, readout) -> str:
    """sha256 over every step's coordinates and features and the readout."""
    h = hashlib.sha256()
    for name, coords, feats in forward_outputs(pairs, readout):
        h.update(name.encode())
        h.update(np.ascontiguousarray(coords, dtype="<i8").tobytes())
        h.update(repr(feats.shape).encode())
        h.update(np.ascontiguousarray(feats, dtype="<f8").tobytes())
    return h.hexdigest()


def fingerprint(pairs, readout) -> dict[str, list]:
    """Per output: [sites, coord sum, feature sum, |feature| sum, feature^2 sum]."""
    fp = {}
    for name, coords, feats in forward_outputs(pairs, readout):
        fp[name] = [int(coords.shape[0]), int(coords.sum()), float(feats.sum()),
                    float(np.abs(feats).sum()), float(np.square(feats).sum())]
    return fp


def compare_fingerprint(got: dict, want: dict) -> list[str]:
    problems = []
    if set(got) != set(want):
        return [f"fingerprint outputs differ: {sorted(set(got) ^ set(want))}"]
    for name in sorted(want):
        g, w = got[name], want[name]
        if g[:2] != w[:2]:
            problems.append(f"{name}: sites/coords {g[:2]} != {w[:2]}")
        for label, gv, wv in zip(("sum", "abs sum", "sq sum"), g[2:], w[2:]):
            if not abs(gv - wv) <= FINGERPRINT_RTOL * max(abs(wv), 1e-12):
                problems.append(f"{name}: feature {label} {gv!r} != {wv!r}")
    return problems


def _bev_keys(coords, extents):
    return coords[:, 0] * int(extents[1]) + coords[:, 1]


def _sorted_unique(keys) -> bool:
    return keys.size < 2 or bool((np.diff(keys) > 0).all())


def expected_voxel_cells(points, range_min, voxel_size, extents):
    """Occupied step-1 cells and the dropped-point count, from the grid definition."""
    pts = np.asarray(points, dtype=np.float64)
    idx = np.floor((pts[:, :3] - np.asarray(range_min)) / np.asarray(voxel_size)).astype(np.int64)
    keep = ((idx >= 0) & (idx < np.asarray(extents))).all(axis=1)
    cells = np.unique(idx[keep], axis=0)
    return cells, int((~keep).sum())


def check_forward(points, grid, cfg, pairs, readout, dropped) -> list[str]:
    """Structural checks of one forward pass against its input cloud.

    Every step: BEV occupancy of the voxels equals the pillar set, coordinates
    are sorted, unique and in range, features are finite and have the planned
    width, and the stride doubles. Step 1 sites equal the occupied cells of
    the input, and `dropped` equals the out-of-range count.
    """
    problems = []
    cells, want_dropped = expected_voxel_cells(points, grid.range_min, grid.voxel_size,
                                               grid.extents)
    if dropped != want_dropped:
        problems.append(f"dropped {dropped} points, expected {want_dropped}")
    if len(pairs) != 4:
        return problems + [f"{len(pairs)} encoder steps, expected 4"]
    v1 = pairs[0][0]
    if v1.coords.shape != cells.shape or not (v1.coords == cells).all():
        problems.append("step 1 voxel sites differ from the occupied input cells")
    for step, (v, p) in enumerate(pairs, start=1):
        tag = f"step {step}"
        if v.stride != 2 ** (step - 1) or p.stride != v.stride:
            problems.append(f"{tag}: strides {v.stride}/{p.stride}")
        if v.features.shape != (v.coords.shape[0], cfg.voxel_channels[step - 1]) or \
                p.features.shape != (p.coords.shape[0], cfg.pillar_channels[step - 1]):
            problems.append(f"{tag}: feature shapes {v.features.shape}/{p.features.shape}")
        if not (np.isfinite(v.features).all() and np.isfinite(p.features).all()):
            problems.append(f"{tag}: non-finite features")
        if v.coords.shape[0] == 0:
            problems.append(f"{tag}: no voxel sites")
            continue
        vkey = (v.coords[:, 0] * v.extents[1] + v.coords[:, 1]) * v.extents[2] + v.coords[:, 2]
        pkey = _bev_keys(p.coords, p.extents)
        if not (_sorted_unique(vkey) and _sorted_unique(pkey)):
            problems.append(f"{tag}: coordinates not sorted and unique")
        if (v.coords < 0).any() or (v.coords >= np.asarray(v.extents)).any():
            problems.append(f"{tag}: voxel coordinate outside extents")
        if not np.array_equal(np.unique(_bev_keys(v.coords, v.extents)), pkey):
            problems.append(f"{tag}: voxel BEV occupancy differs from the pillar set")
    if hasattr(readout, "values"):
        l8, w8 = pairs[-1][1].extents
        want = (l8, w8, 2 * cfg.neck_channels)
        if readout.values.shape != want:
            problems.append(f"dense readout shape {readout.values.shape}, expected {want}")
        values = readout.values
    else:
        if readout.stride != 8 or not _sorted_unique(_bev_keys(readout.coords, readout.extents)):
            problems.append("sparse readout: stride or site order wrong")
        if readout.features.shape[1] != cfg.readout_pillar_channels[-1]:
            problems.append(f"sparse readout width {readout.features.shape[1]}")
        values = readout.features
    if not np.isfinite(values).all():
        problems.append("readout: non-finite features")
    return problems


def recall_outputs(rows, records):
    """Recall rows and density records as plain tuples for exact comparison."""
    return ([tuple(r) for r in rows],
            [(r.box_id, r.s_z, r.point_count, r.horizontal_occupancy) for r in records])


def check_boxes(rows, records, want_rows, want_records) -> list[str]:
    """Recall rows and density records must equal the scene's answers exactly."""
    got_rows, got_records = recall_outputs(rows, records)
    problems = []
    if got_rows != list(want_rows):
        problems.append(f"recall rows {got_rows} != expected {list(want_rows)}")
    bad = [i for i, (g, w) in enumerate(zip(got_records, want_records)) if g != w]
    if len(got_records) != len(want_records) or bad:
        problems.append(f"{len(bad)} density records differ (first {bad[:3]}), "
                        f"{len(got_records)} of {len(want_records)} returned")
    return problems


def digest_boxes(rows, records) -> str:
    got_rows, got_records = recall_outputs(rows, records)
    return hashlib.sha256(repr((got_rows, got_records)).encode()).hexdigest()

