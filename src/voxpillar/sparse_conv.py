"""Submanifold and regular sparse convolution via gather-multiply-scatter.

A kernel map enumerates every (input site, output site, kernel offset)
triple; the convolution then reduces to one small matmul per kernel offset
plus a scatter-add. No output index repeats within one offset, so the
scatter is a plain indexed add, and adding offsets in a fixed order keeps
results bitwise reproducible.
"""
from __future__ import annotations

import contextvars
import math
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConsistencyViolation, ShapeMismatch, SpecMismatch
from .grid import SparseTensor, pack_coords, run_bounds, widen_finite

SUBMANIFOLD = "submanifold"
REGULAR = "regular"


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one sparse convolution layer."""

    ndim: int
    kernel: tuple[int, ...]
    stride: tuple[int, ...]
    padding: tuple[int, ...]
    in_channels: int
    out_channels: int
    mode: str

    def __post_init__(self):
        if self.ndim not in (2, 3):
            raise SpecMismatch(f"ndim must be 2 or 3, got {self.ndim}")
        for name, vals in (("kernel", self.kernel), ("stride", self.stride), ("padding", self.padding)):
            if len(vals) != self.ndim:
                raise SpecMismatch(f"{name} must have {self.ndim} components, got {vals}")
        if any(k < 1 for k in self.kernel) or any(s < 1 for s in self.stride):
            raise SpecMismatch("kernel and stride must be positive")
        if any(p < 0 for p in self.padding):
            raise SpecMismatch("padding must be non-negative")
        if self.in_channels < 1 or self.out_channels < 1:
            raise SpecMismatch("channel counts must be positive")
        if self.mode not in (SUBMANIFOLD, REGULAR):
            raise SpecMismatch(f"unknown mode {self.mode!r}")
        if self.mode == SUBMANIFOLD:
            if any(s != 1 for s in self.stride):
                raise SpecMismatch("submanifold convolution requires stride 1 on every axis")
            if any(k != 2 * p + 1 for k, p in zip(self.kernel, self.padding)):
                raise SpecMismatch(f"submanifold convolution requires an odd kernel and its centre "
                                   f"padding on every axis, got {self.kernel} and {self.padding}")

    @property
    def num_offsets(self) -> int:
        return math.prod(self.kernel)

    @classmethod
    def submanifold(cls, ndim, kernel, in_channels, out_channels):
        k = (kernel,) * ndim if isinstance(kernel, int) else tuple(kernel)
        pad = tuple((x - 1) // 2 for x in k)
        return cls(ndim, k, (1,) * ndim, pad, in_channels, out_channels, SUBMANIFOLD)

    @classmethod
    def regular(cls, ndim, kernel, stride, padding, in_channels, out_channels):
        mk = lambda v: (v,) * ndim if isinstance(v, int) else tuple(v)
        return cls(ndim, mk(kernel), mk(stride), mk(padding), in_channels, out_channels, REGULAR)


@dataclass
class ConvWeights:
    """Kernel tensor (num_offsets, in_channels, out_channels) plus optional bias.

    Offsets are enumerated row-major over the kernel axes (first axis slowest),
    matching `kernel_offsets`. Both are widened to float64 here, so weights
    stored as float32 are copied on the thread that builds this; both must be finite.
    """

    kernel: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        self.kernel = widen_finite(self.kernel, "kernel weights")
        if self.kernel.ndim != 3:
            raise ShapeMismatch(f"kernel must be (offsets, in, out), got {self.kernel.shape}")
        if self.bias is not None:
            self.bias = widen_finite(self.bias, "bias weights")
            if self.bias.shape != (self.kernel.shape[2],):
                raise ShapeMismatch(f"bias {self.bias.shape} does not match kernel {self.kernel.shape}")

    def check(self, spec: ConvSpec):
        expect = (spec.num_offsets, spec.in_channels, spec.out_channels)
        if self.kernel.shape != expect:
            raise ShapeMismatch(f"kernel shape {self.kernel.shape}, spec expects {expect}")


@dataclass
class KernelMap:
    """(input, output, offset) triples plus the active output coordinates.

    Triples are sorted by (offset, output, input) and are duplicate free;
    `out_coords` is unique and lex sorted. Within one offset segment every
    output index appears at most once (submanifold: one source per output
    per offset; regular: o = (c + padding - k) / stride is injective in c),
    which is what makes the indexed scatter in `sparse_conv` exact.

    In a submanifold map `out_coords` is the int64 input coordinate array,
    not a copy, and the centre segment (offset `num_offsets // 2`) is the
    identity: triple (i, i) for every site i, in site order. `sparse_conv`
    relies on that to apply the centre tap without a gather or a scatter.

    `triples` holds the input and output columns, column-major, so each is a
    contiguous index array; offset k's segment is `bounds[k]:bounds[k + 1]`.

    `cut` splits the output rows into two halves that `sparse_conv` runs as
    two lanes (see `_row_split`): offset k's triples into rows below `cut`
    are `bounds[k]:mid[k]`, the others `mid[k]:bounds[k + 1]`. A map that
    runs whole has `cut` M and `mid` `bounds[1:]`.
    """

    triples: np.ndarray  # (T, 2) int64 columns in_idx, out_idx
    bounds: np.ndarray  # (num_offsets + 1,) int64 segment starts, then T
    out_coords: np.ndarray  # (M, ndim) int64
    out_extents: tuple[int, ...]
    in_sites: int  # the number of input sites the map was built on
    cut: int  # the first output row of the second half; M when the map runs whole
    mid: np.ndarray  # (num_offsets,) int64 start of each segment's second half

    @property
    def num_offsets(self) -> int:
        return self.bounds.size - 1


def kernel_offsets(kernel: tuple[int, ...]) -> np.ndarray:
    """All kernel offsets in row-major order, shape (prod(kernel), ndim)."""
    grids = np.meshgrid(*[np.arange(k) for k in kernel], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def conv_output_extents(extents, spec: ConvSpec) -> tuple[int, ...]:
    """Grid extents after `spec`; a submanifold spec keeps them."""
    out = tuple(
        (int(e) + 2 * p - k) // s + 1
        for e, k, s, p in zip(extents, spec.kernel, spec.stride, spec.padding)
    )
    if min(out) < 1:
        raise SpecMismatch(f"convolution output extent collapses to {out}")
    return out


def _axis_taps(coords_in: np.ndarray, spec: ConvSpec, out_extents):
    """Per axis a and kernel tap t: which inputs reach an output through t, and where.

    Input coordinate c reaches output o = (c + padding - t) / stride along
    the axis when the division is exact and o lies in [0, out_extents[a]).
    Returns masks[a][t] (bool, per input) and outs[a][t] (o, meaningful
    where the mask holds).
    """
    masks, outs = [], []
    for axis in range(spec.ndim):
        c = coords_in[:, axis]
        s = spec.stride[axis]
        m_axis, o_axis = [], []
        for t in range(spec.kernel[axis]):
            shifted = c + (spec.padding[axis] - t)
            o = shifted // s
            ok = (o >= 0) & (o < out_extents[axis])
            if s > 1:
                ok &= o * s == shifted
            m_axis.append(ok)
            o_axis.append(o)
        masks.append(m_axis)
        outs.append(o_axis)
    return masks, outs


def _offset_mask(masks, offset) -> np.ndarray:
    ok = masks[0][offset[0]]
    for axis in range(1, len(masks)):
        ok = ok & masks[axis][offset[axis]]
    return ok


# The most cuts `_row_split` weighs; 64 evenly spaced ones balance two halves to within
# about 1/64 of the triples.
_CUTS = 64


def _row_split(dst: np.ndarray, bounds: np.ndarray, m: int) -> tuple[int, np.ndarray]:
    """The map's `cut` and `mid` (see `KernelMap`) from its output column and bounds.

    Each segment is sorted by output, so the triples into rows below a cut
    are a prefix of it. Of up to `_CUTS` + 1 evenly spaced cuts, this takes
    the one that splits the triples most evenly, among those that give no
    half of a segment of two or more triples exactly one: NumPy sends a
    one-row product to gemv, which rounds unlike a GEMM. A GEMM may still
    round a row by the row count (OpenBLAS 0.3.31's SkylakeX kernel does
    at some output widths that are not a multiple of 8), and then a split
    map's bytes may differ from the unsplit product's. The lane count
    cannot change them: the halves belong to the map, and one lane runs the
    same halves in turn. Cuts 0 and M always qualify, and either makes the
    map run whole.
    """
    cuts = np.unique(np.linspace(0, m, min(m, _CUTS) + 1).round().astype(np.int64))
    below = np.stack([np.searchsorted(dst[lo:hi], cuts)
                      for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())])
    sizes = np.diff(bounds)[:, None]
    one_row = (sizes >= 2) & ((below == 1) | (sizes - below == 1))
    imbalance = np.abs(2 * below.sum(axis=0) - int(bounds[-1]))
    best = int(np.argmin(np.where(one_row.any(axis=0), np.iinfo(np.int64).max, imbalance)))
    if 0 < cuts[best] < m:
        return int(cuts[best]), bounds[:-1] + below[:, best]
    return m, bounds[1:].copy()


def _triples(in_idx: np.ndarray, out_idx: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """(T, 2) column-major triples and their segment bounds, from the input and output
    columns and each offset's segment size."""
    return (np.array([in_idx, out_idx], dtype=np.int64).T,
            np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))))


def build_kernel_map(coords_in: np.ndarray, spec: ConvSpec, in_extents) -> KernelMap:
    """Enumerate every valid (input, output, offset) pairing.

    Input c feeds output o through offset k iff c + padding - k = o * stride
    with o inside the output extents. Submanifold maps (centre padding,
    stride 1) keep only the outputs that are input sites.
    `coords_in` must be unique and lex sorted, as `SparseTensor`
    coordinates are.

    Per-axis tap masks: no offset does (N, ndim) arithmetic. `_axis_taps`
    finds, once per axis and tap, the inputs that stay in bounds (and on
    the stride lattice) and their output coordinate; an offset's candidates
    are the AND of one mask per axis.

    Regular mode: each offset packs the output keys of its candidates only,
    and one `np.unique` over all of them gives the output set and indices.

    Submanifold mode:
    - linear key shift: packing is linear, so the site an in-bounds input
      reaches through offset k has key in_key + delta[k], delta[k] being
      the packed (centre - k); a `searchsorted` over the input keys finds
      it, for the first K // 2 offsets only;
    - identity centre: offset K // 2 is triple (i, i) for every site i, in
      order, which `sparse_conv` relies on;
    - mirror rule: offsets k and K - 1 - k shift by opposite vectors, so i
      feeds j through k iff j feeds i through K - 1 - k, and the mirror
      segment is k's pairs swapped.

    Triples come out in (offset, output, input) order without a sort: for a
    fixed offset o is strictly monotone per axis in c, so lex-sorted inputs
    give lex-sorted outputs. In a submanifold segment the output index thus
    rises with the input index, so a mirror segment is in order as well.
    """
    coords_in = np.asarray(coords_in, dtype=np.int64)
    in_extents = tuple(int(e) for e in in_extents)
    out_extents = conv_output_extents(in_extents, spec)
    offsets = kernel_offsets(spec.kernel)
    num_offsets = offsets.shape[0]
    masks, outs = _axis_taps(coords_in, spec, out_extents)
    mult = [int(np.prod(out_extents[axis + 1:])) for axis in range(spec.ndim)]

    if spec.mode == SUBMANIFOLD:
        in_keys = pack_coords(coords_in, in_extents)
        # one sentinel past the end, so a search that runs off the keys misses
        probe = np.append(in_keys, -1)
        delta = (np.asarray(spec.padding) - offsets) @ np.asarray(mult, dtype=np.int64)
        half = num_offsets // 2
        segments = [None] * num_offsets
        for k_idx in range(half):
            cand = np.flatnonzero(_offset_mask(masks, offsets[k_idx]))
            key = in_keys[cand] + delta[k_idx]
            pos = np.searchsorted(in_keys, key)
            hit = probe[pos] == key
            src, dst = cand[hit], pos[hit]
            segments[k_idx] = (src, dst)
            segments[num_offsets - 1 - k_idx] = (dst, src)
        sites = np.arange(coords_in.shape[0], dtype=np.int64)
        segments[half] = (sites, sites)
        triples, bounds = _triples(np.concatenate([src for src, _ in segments]),
                                   np.concatenate([dst for _, dst in segments]),
                                   [src.size for src, _ in segments])
        return KernelMap(triples, bounds, coords_in, in_extents, coords_in.shape[0],
                         *_row_split(triples[:, 1], bounds, coords_in.shape[0]))

    cands, keys = [], []
    for offset in offsets:
        cand = np.flatnonzero(_offset_mask(masks, offset))
        key = outs[0][offset[0]][cand] * mult[0]
        for axis in range(1, spec.ndim):
            key += outs[axis][offset[axis]][cand] * mult[axis]
        cands.append(cand)
        keys.append(key)
    uniq_keys, out_idx = np.unique(np.concatenate(keys), return_inverse=True)
    out_coords = np.stack(np.unravel_index(uniq_keys, out_extents), axis=1).astype(np.int64)
    triples, bounds = _triples(np.concatenate(cands), out_idx, [cand.size for cand in cands])
    return KernelMap(triples, bounds, out_coords, out_extents, coords_in.shape[0],
                     *_row_split(triples[:, 1], bounds, out_coords.shape[0]))


def _check_conv(x, spec: ConvSpec, kmap: KernelMap):
    if x.features.shape[1] != spec.in_channels:
        raise ShapeMismatch(f"input has {x.features.shape[1]} channels, spec expects "
                            f"{spec.in_channels}")
    if kmap.num_offsets != spec.num_offsets:
        raise ShapeMismatch(f"kernel map has {kmap.num_offsets} offsets, spec expects "
                            f"{spec.num_offsets}")
    if spec.stride[0] != spec.stride[1]:
        raise SpecMismatch("X-Y strides must match to track the tensor stride")
    if kmap.in_sites != x.num_sites:
        raise ShapeMismatch(f"kernel map was built on {kmap.in_sites} sites, input has "
                            f"{x.num_sites}")
    if spec.mode == SUBMANIFOLD and kmap.out_coords.shape[0] != x.num_sites:
        raise ShapeMismatch(f"submanifold kernel map has {kmap.out_coords.shape[0]} sites, "
                            f"input has {x.num_sites}")


class Lanes:
    """Lockstep lanes: `run` makes one call per lane and returns their results
    once every call has finished.

    The kernels split each layer's rows in two and run the halves as lanes
    0 and 1: `sparse_conv` its output rows, `backbone.dense_conv3x3` its
    window classes. Lane 0 runs on the calling thread. Given `count` 2 or
    more, the other lanes run on one helper thread, started at the first
    `run` and joined when the lanes close (`with Lanes(2) as lanes:`); with
    one, they run after lane 0 on the calling thread and no thread starts.
    The helper allocates nothing: the calling thread widens every weight
    the halves read, each kernel allocates every array its halves write
    before `run`, and the halves only fill them, since glibc keeps what a
    thread frees in that thread's own malloc arena. The layer fixes its
    halves, not the lanes, and a call makes the same NumPy and BLAS calls
    on either thread, so the values do not depend on the lane count; a
    helper call runs in a copy of the caller's context, so `np.errstate`
    holds there too. A lane 0 error wins over a helper's.

    Two lanes pay off only when BLAS runs on one thread per call, as the
    benchmark pins it: otherwise OpenBLAS's own threads take the second
    CPU. `voxpillar forward` does not pin BLAS threads, so set
    `OPENBLAS_NUM_THREADS=1` for it.
    """

    def __init__(self, count: int = 1):
        self._pool = ThreadPoolExecutor(1) if count > 1 else None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()
        return False

    def run(self, *calls) -> list:
        if self._pool is None:
            return [call() for call in calls]
        helpers = [self._pool.submit(contextvars.copy_context().run, call)
                   for call in calls[1:]]
        try:
            first = calls[0]()
        finally:
            wait(helpers)
        return [first, *(helper.result() for helper in helpers)]


def _conv_half(x, weights: ConvWeights, kmap: KernelMap, out: np.ndarray, centre: int,
               half: tuple, rows: np.ndarray, prod: np.ndarray, acc: np.ndarray):
    """The output rows `half[0]:half[1]` of `sparse_conv`, through the segment ranges
    `half[2]:half[3]` and into the arrays of that half; it allocates no array."""
    first, end, starts, ends = half
    src, dst = kmap.triples.T
    own = out[first:end]
    # zeros, then the bias: 0.0 + bias turns a -0.0 entry into +0.0, a copy would not
    own.fill(0.0)
    if weights.bias is not None:
        own += weights.bias
    for k_idx, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
        if k_idx == centre:
            centre_prod = prod[:end - first]
            np.matmul(x.features[first:end], weights.kernel[k_idx], out=centre_prod)
            own += centre_prod
        elif lo < hi:
            n = hi - lo
            seg = dst[lo:hi]
            # mode="raise" would buffer `out`; the map's indices are always valid
            np.take(x.features, src[lo:hi], axis=0, out=rows[:n], mode="clip")
            np.matmul(rows[:n], weights.kernel[k_idx], out=prod[:n])
            np.take(out, seg, axis=0, out=acc[:n], mode="clip")
            acc[:n] += prod[:n]
            out[seg] = acc[:n]


def sparse_conv(x, spec: ConvSpec, weights: ConvWeights, kmap: KernelMap,
                lanes: Lanes = Lanes()):
    """Apply one sparse convolution through a prebuilt kernel map.

    out[o] = bias + sum over triples (i, o, k) of kernel[k].T @ x[i]. The
    output starts at zero, takes the bias, and then each offset in
    ascending order; no output repeats within one offset, so a plain
    indexed add is exact and every output row sees the same additions on
    every run. A submanifold map's centre segment is the identity, so that
    tap is `x.features @ kernel[centre]` added to every row in place: the
    same product on the same rows, without the gather and the scatter.

    The two halves of the map's row split (see `KernelMap`; one when the
    map runs whole) write disjoint output rows and run as lanes 0 and 1 of
    `lanes`, by default one lane on this thread, where they run in turn.
    The halves belong to the map, so every row gets the same products in
    the same order on any number of lanes, and the bytes do not depend on
    them (see `_row_split` for when they equal the unsplit map's).

    This thread allocates every array the halves write: the output, and per
    half `rows`, its gathered input rows per offset, `prod`, their products
    (the centre tap's products of the half's sites too), and `acc`, the
    read-modify-write of its output rows. `rows` is dead once an offset's
    product is taken, so `rows` and `acc` are leading views of one buffer.
    The halves only fill them through `out=` and in-place NumPy calls.
    """
    weights.check(spec)
    _check_conv(x, spec, kmap)
    c_in, c_out = spec.in_channels, spec.out_channels
    m = kmap.out_coords.shape[0]
    centre = kmap.num_offsets // 2 if spec.mode == SUBMANIFOLD else -1
    out = np.empty((m, c_out))
    halves = [(0, kmap.cut, kmap.bounds[:-1], kmap.mid)]
    if kmap.cut < m:
        halves.append((kmap.cut, m, kmap.mid, kmap.bounds[1:]))
    calls = []
    for half in halves:
        sizes = half[3] - half[2]
        prod = np.empty((int(sizes.max(initial=0)), c_out))
        if centre >= 0:
            sizes[centre] = 0
        n = int(sizes.max(initial=0))
        shared = np.empty(n * max(c_in, c_out))
        calls.append(partial(_conv_half, x, weights, kmap, out, centre, half,
                             shared[:n * c_in].reshape(n, c_in), prod,
                             shared[:n * c_out].reshape(n, c_out)))
    lanes.run(*calls)
    return SparseTensor(coords=kmap.out_coords, features=out,
                        stride=x.stride * spec.stride[0], extents=kmap.out_extents)


def bev_equal(voxels: SparseTensor, pillars: SparseTensor) -> bool:
    """Whether the pillars are exactly the voxels' BEV columns: whether
    `build_correspondence` accepts their coordinates."""
    try:
        build_correspondence(voxels.coords, pillars.coords)
    except ConsistencyViolation:
        return False
    return True


def build_correspondence(voxel_coords: np.ndarray, pillar_coords: np.ndarray) -> np.ndarray:
    """The sparse form of the 0/1 voxel-pillar index matrix: (N_p + 1,) int64 bounds
    such that `bounds[j]:bounds[j + 1]` slices pillar j's voxels, which form one run of
    the lex-sorted (l, w, h) voxel coordinates, in ascending order.

    Linear in the number of sites; any BEV coordinate present in one branch
    but not the other raises ConsistencyViolation naming the first one.
    """
    bounds = run_bounds(voxel_coords[:, :2])
    cols = voxel_coords[bounds[:-1], :2]
    pc = pillar_coords
    if not np.array_equal(cols, pc):
        m = min(len(cols), len(pc))
        diff = np.flatnonzero((cols[:m] != pc[:m]).any(axis=1))
        i = int(diff[0]) if diff.size else m
        if i < len(cols) and (i == len(pc) or tuple(cols[i]) < tuple(pc[i])):
            raise ConsistencyViolation(
                f"voxel at BEV ({cols[i, 0]}, {cols[i, 1]}) has no matching pillar")
        raise ConsistencyViolation(f"pillar ({pc[i, 0]}, {pc[i, 1]}) has no matching voxel run")
    return bounds


def paired_downsample(voxels, pillars, spec3d: ConvSpec, spec2d: ConvSpec):
    """The geometry of downsampling both branches with X-Y-equalized regular
    convolutions: returns (voxel map, pillar map, the outputs' column bounds).

    `voxels` and `pillars` are the input sites, anything with their `coords`
    and `extents`, as a SparseTensor. The shared X-Y geometry makes the
    output BEV occupancy of the two branches provably identical;
    `build_correspondence` on the outputs still checks it.
    """
    if spec3d.mode != REGULAR or spec2d.mode != REGULAR:
        raise SpecMismatch("paired downsampling requires regular mode on both branches")
    for a, b in ((spec3d.kernel, spec2d.kernel), (spec3d.stride, spec2d.stride),
                 (spec3d.padding, spec2d.padding)):
        if a[:2] != b[:2]:
            raise SpecMismatch(f"X-Y conv geometry differs between branches: {a[:2]} vs {b[:2]}")
    maps = [build_kernel_map(x.coords, spec, x.extents)
            for x, spec in ((voxels, spec3d), (pillars, spec2d))]
    return (*maps, build_correspondence(maps[0].out_coords, maps[1].out_coords))
