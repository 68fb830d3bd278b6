"""Point cloud quantization into sparse voxel and pillar tensors.

Both branches are built from one voxelization pass on one X-Y lattice, so
the set of occupied pillar cells equals the bird's-eye-view projection of
the occupied voxel cells by construction. Downstream fusion relies on that
equality being exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyGrid, InvalidTensor, ShapeMismatch

# Row-major (l, w, h) packing must fit a signed 64-bit key.
_MAX_PACKED_CELLS = 2**62


@dataclass(frozen=True)
class GridSpec:
    """Voxelization geometry shared by the voxel and pillar branches.

    Cells are half-open ``[lo, lo + size)`` per axis; the pillar grid is the
    X-Y restriction of the voxel grid (same sizes, same extents).
    """

    range_min: tuple[float, float, float]
    range_max: tuple[float, float, float]
    voxel_size: tuple[float, float, float]
    extents: tuple[int, int, int] = field(init=False)

    def __post_init__(self):
        rmin = tuple(float(v) for v in self.range_min)
        rmax = tuple(float(v) for v in self.range_max)
        size = tuple(float(v) for v in self.voxel_size)
        if len(rmin) != 3 or len(rmax) != 3 or len(size) != 3:
            raise ValueError("range_min, range_max, voxel_size must have 3 components")
        for lo, hi, sz in zip(rmin, rmax, size):
            if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(sz)):
                raise ValueError("grid spec values must be finite")
            if hi <= lo:
                raise ValueError(f"range_max must exceed range_min per axis ({hi} <= {lo})")
            if sz <= 0:
                raise ValueError(f"voxel_size must be positive ({sz})")
        # Small epsilon so an exact multiple of the cell size is not lost to
        # floating point (6.4 / 0.1 -> 63.9999...).
        ext = tuple(int(np.floor((hi - lo) / sz + 1e-9)) for lo, hi, sz in zip(rmin, rmax, size))
        if min(ext) < 1:
            raise ValueError("grid must contain at least one cell per axis")
        if (ext[0] + 1) * (ext[1] + 1) * (ext[2] + 1) >= _MAX_PACKED_CELLS:
            raise ValueError("grid extents too large for 64-bit coordinate packing")
        object.__setattr__(self, "range_min", rmin)
        object.__setattr__(self, "range_max", rmax)
        object.__setattr__(self, "voxel_size", size)
        object.__setattr__(self, "extents", ext)

    @property
    def bev_extents(self) -> tuple[int, int]:
        return self.extents[:2]


@dataclass
class SparseTensor:
    """Occupied voxel (3D) or pillar (2D) cells with per-cell feature vectors.

    ``coords`` is (N, ndim) int64 with rows (l, w[, h]), unique and sorted
    lexicographically; ``features`` is (N, D) float64; ``extents`` is the
    grid shape at the current ``stride`` and fixes ndim.
    """

    coords: np.ndarray
    features: np.ndarray
    stride: int
    extents: tuple[int, ...]

    @property
    def num_sites(self) -> int:
        return self.coords.shape[0]

    @property
    def num_channels(self) -> int:
        return self.features.shape[1]

    def validate(self):
        """Raise InvalidTensor unless the documented invariants hold."""
        coords, features, ndim = self.coords, self.features, len(self.extents)
        if coords.ndim != 2 or coords.shape[1] != ndim or ndim not in (2, 3):
            raise InvalidTensor(f"coords shape {coords.shape} does not fit extents {self.extents}")
        if features.ndim != 2 or features.shape[0] != coords.shape[0]:
            raise InvalidTensor(f"features shape {features.shape} does not fit coords")
        if not np.isfinite(features).all():
            raise InvalidTensor("non-finite features")
        if ((coords < 0) | (coords >= np.asarray(self.extents))).any():
            raise InvalidTensor(f"coordinate outside extents {self.extents}")
        if (np.diff(pack_coords(coords, self.extents)) <= 0).any():
            raise InvalidTensor("coords not unique and lex sorted")


def widen_finite(values, what: str) -> np.ndarray:
    """`values` widened to float64; ValueError if any value is not finite.

    The check reads the stored array when the cast to float64 is safe, as from
    float32, since such a cast keeps every value finite or not. It takes the least and
    the largest value, through which a NaN propagates: on float32 weights that is
    cheaper than `np.isfinite` on them or on their widening.
    """
    stored = np.asarray(values)
    wide = np.asarray(stored, dtype=np.float64)
    check = stored if np.can_cast(stored.dtype, np.float64) else wide
    if check.size and not (np.isfinite(check.min()) and np.isfinite(check.max())):
        raise ValueError(f"{what} must be finite")
    return wide


@dataclass
class PointEncoderWeights:
    """Single linear + ReLU encoder applied per point before pillar max-pooling; its
    tensors are widened to float64 here."""

    weight: np.ndarray  # (4, D)
    bias: np.ndarray  # (D,)

    def __post_init__(self):
        self.weight = widen_finite(self.weight, "point encoder weights")
        self.bias = widen_finite(self.bias, "point encoder weights")
        if self.weight.ndim != 2 or self.weight.shape[0] != 4:
            raise ShapeMismatch(f"point encoder weight must be (4, D), got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[1],):
            raise ShapeMismatch(
                f"point encoder bias {self.bias.shape} does not match weight {self.weight.shape}"
            )


def run_bounds(rows: np.ndarray) -> np.ndarray:
    """(runs + 1,) int64 bounds of the runs of equal consecutive rows; run j is
    ``bounds[j]:bounds[j + 1]``. Column by column: `any(axis=1)` is several times slower."""
    new_run = np.zeros(rows.shape[0], dtype=bool)
    new_run[:1] = True
    for col in rows.T:
        new_run[1:] |= col[1:] != col[:-1]
    return np.append(np.flatnonzero(new_run), rows.shape[0])


def pack_coords(coords: np.ndarray, extents) -> np.ndarray:
    """Row-major packing of integer coordinates into a single int64 key.

    Order-isomorphic to lexicographic order for in-bound coordinates, so a
    sorted coordinate list has strictly increasing keys.
    """
    coords = np.asarray(coords, dtype=np.int64)
    key = coords[:, 0]
    for axis in range(1, coords.shape[1]):
        key = key * int(extents[axis]) + coords[:, axis]
    return key


def as_points(points) -> np.ndarray:
    """Coerce to an (N, 4) float64 array of (x, y, z, intensity) rows."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError(f"point cloud must be (N, 4), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point cloud contains non-finite values")
    return pts


def assign_voxel_indices(points, spec: GridSpec) -> tuple[np.ndarray, int]:
    """Map each point to its voxel index, or mark it dropped.

    Returns (indices, dropped): indices is (N, 3) int64 with -1 rows for
    dropped points. A point is dropped when any coordinate lies outside
    ``[range_min, range_max)``; being out of range is not an error.
    """
    pts = as_points(points)
    rmin = np.asarray(spec.range_min)
    rmax = np.asarray(spec.range_max)
    size = np.asarray(spec.voxel_size)
    in_range = ((pts[:, :3] >= rmin) & (pts[:, :3] < rmax)).all(axis=1)
    idx = np.floor((pts[:, :3] - rmin) / size).astype(np.int64)
    # Points within float noise of range_max can floor to the extent itself;
    # treat those as dropped so every kept index is strictly in bounds.
    in_range &= (idx < np.asarray(spec.extents)).all(axis=1)
    idx[~in_range] = -1
    dropped = int((~in_range).sum())
    return idx, dropped


@dataclass(frozen=True)
class VoxelizedCloud:
    """The one voxelization pass that both branches' step-1 tensors share.

    ``points`` (K, 4) are the in-range points in canonical order: by cell,
    then by point value, so every permutation of the input gives the same
    rows. ``cells`` (K, 3) int64 are their voxel indices, lex sorted, and
    ``dropped`` counts the out-of-range points. ``voxel_runs`` and
    ``pillar_runs`` are the `run_bounds` of the cells and of their (l, w)
    columns: the points of each step-1 voxel and pillar.
    """

    points: np.ndarray
    cells: np.ndarray
    dropped: int
    spec: GridSpec
    voxel_runs: np.ndarray
    pillar_runs: np.ndarray

    @property
    def voxel_coords(self) -> np.ndarray:
        return self.cells[self.voxel_runs[:-1]]

    @property
    def pillar_coords(self) -> np.ndarray:
        return self.cells[self.pillar_runs[:-1], :2]


def voxelize(points, spec: GridSpec) -> VoxelizedCloud:
    """Assign the points to voxels and sort the kept ones; EmptyGrid if none is kept."""
    pts = as_points(points)
    idx, dropped = assign_voxel_indices(pts, spec)
    kept = idx[:, 0] >= 0
    if not kept.any():
        raise EmptyGrid("no point falls inside the configured range")
    idx, pts = idx[kept], pts[kept]
    key = pack_coords(idx, spec.extents)
    # by (cell, x), then by (y, z, intensity) only within the runs tied on (cell, x): the
    # order of the one lexsort over all five keys, since both sorts are stable
    order = np.lexsort((pts[:, 0], key))
    x, key = pts[order, 0], key[order]
    tied = (key[1:] == key[:-1]) & (x[1:] == x[:-1])  # tied[i]: row i + 1 ties row i
    if tied.any():
        member = np.flatnonzero(np.r_[tied, False] | np.r_[False, tied])
        run = np.cumsum(~np.r_[False, tied][member])
        sub = order[member]
        order[member] = sub[np.lexsort((pts[sub, 3], pts[sub, 2], pts[sub, 1], run))]
    cells = idx[order]
    return VoxelizedCloud(points=pts[order], cells=cells, dropped=dropped, spec=spec,
                          voxel_runs=run_bounds(cells), pillar_runs=run_bounds(cells[:, :2]))


def build_voxel_features(cloud: VoxelizedCloud) -> SparseTensor:
    """One site per non-empty voxel; feature = mean (x, y, z, intensity)."""
    bounds = cloud.voxel_runs
    feats = np.add.reduceat(cloud.points, bounds[:-1], axis=0) / np.diff(bounds)[:, None]
    return SparseTensor(coords=cloud.voxel_coords, features=feats, stride=1,
                        extents=cloud.spec.extents)


# `run_max` takes ranks below this one rank at a time, and the rest with one reduceat.
_RUN_MAX_RANKS = 8


def run_max(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The elementwise max of each run `bounds[j]:bounds[j + 1]` of `values`' rows; on
    NaN-free values, bitwise equal to `np.maximum.reduceat(values, bounds[:-1], axis=0)`.

    Each run's first row is copied, then rank r >= 1 is folded into the
    runs longer than r by one `np.maximum` per rank, in the reduceat's
    order. A run is unbounded, so the ranks from `_RUN_MAX_RANKS` on are
    reduced per run with one reduceat and folded in last. `np.maximum`
    keeps the later of two equal values, +0.0 and -0.0 among them, so that
    grouping gives the same bytes as one fold. Runs must be non-empty.
    """
    starts, lengths = bounds[:-1], np.diff(bounds)
    out = values[starts]
    runs = np.flatnonzero(lengths > 1)
    for r in range(1, _RUN_MAX_RANKS):
        out[runs] = np.maximum(out[runs], values[starts[runs] + r])
        runs = runs[lengths[runs] > r + 1]
    if runs.size:
        tails = lengths[runs] - _RUN_MAX_RANKS
        firsts = np.cumsum(tails) - tails
        rows = np.repeat(starts[runs] + _RUN_MAX_RANKS - firsts, tails) + np.arange(tails.sum())
        out[runs] = np.maximum(out[runs], np.maximum.reduceat(values[rows], firsts, axis=0))
    return out


def build_pillar_features(cloud: VoxelizedCloud, weights: PointEncoderWeights) -> SparseTensor:
    """Per-point linear + ReLU encoding, max-pooled per pillar: a BEV column,
    whose points the cloud's cell order already puts in one run."""
    encoded = np.maximum(cloud.points @ weights.weight + weights.bias, 0.0)
    feats = run_max(encoded, cloud.pillar_runs)
    return SparseTensor(coords=cloud.pillar_coords, features=feats, stride=1,
                        extents=cloud.spec.bev_extents)
