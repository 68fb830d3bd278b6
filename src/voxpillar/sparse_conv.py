"""Submanifold and regular sparse convolution via gather-multiply-scatter.

A kernel map enumerates every (input site, output site, kernel offset)
triple; the convolution then reduces to one small matmul per kernel offset
plus a scatter-add. No output index repeats within one offset, so the
scatter is a plain indexed add, and adding offsets in a fixed order keeps
results bitwise reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyViolation, ShapeMismatch, SpecMismatch
from .grid import SparseTensor, pack_coords

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
        return int(np.prod(self.kernel))

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
    matching `kernel_offsets`.
    """

    kernel: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=np.float64)
        if self.kernel.ndim != 3:
            raise ShapeMismatch(f"kernel must be (offsets, in, out), got {self.kernel.shape}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.kernel.shape[2],):
                raise ShapeMismatch(f"bias {self.bias.shape} does not match kernel {self.kernel.shape}")
        if not np.isfinite(self.kernel).all():
            raise ValueError("kernel weights must be finite")

    def check(self, spec: ConvSpec):
        expect = (spec.num_offsets, spec.in_channels, spec.out_channels)
        if self.kernel.shape != expect:
            raise ShapeMismatch(f"kernel shape {self.kernel.shape}, spec expects {expect}")

    @classmethod
    def identity(cls, spec: ConvSpec):
        """Center-tap identity kernel (requires in_channels == out_channels)."""
        if spec.in_channels != spec.out_channels:
            raise ShapeMismatch("identity kernel needs matching channel counts")
        k = np.zeros((spec.num_offsets, spec.in_channels, spec.out_channels))
        k[spec.num_offsets // 2] = np.eye(spec.in_channels)
        return cls(kernel=k)


@dataclass
class KernelMap:
    """(input, output, offset) triples plus the active output coordinates.

    Triples are sorted by (offset, output, input) and are duplicate free;
    `out_coords` is unique and lex sorted. Within one offset segment every
    output index appears at most once (submanifold: one source per output
    per offset; regular: o = (c + padding - k) / stride is injective in c),
    which is what makes the indexed scatter in `sparse_conv` exact.

    In a submanifold map `out_coords` are the input coordinates, and the
    centre segment (offset `num_offsets // 2`) is the identity: triple
    (i, i) for every site i, in site order. `sparse_conv` relies on that to
    apply the centre tap without a gather or a scatter.
    """

    triples: np.ndarray  # (T, 3) int64 columns in_idx, out_idx, offset_idx
    out_coords: np.ndarray  # (M, ndim) int64
    out_extents: tuple[int, ...]
    num_offsets: int


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


def _triples(in_idx: np.ndarray, out_idx: np.ndarray, sizes) -> np.ndarray:
    """(T, 3) triples from the input and output columns and each offset's segment size."""
    triples = np.empty((in_idx.size, 3), dtype=np.int64)
    triples[:, 0] = in_idx
    triples[:, 1] = out_idx
    triples[:, 2] = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    return triples


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
        triples = _triples(np.concatenate([src for src, _ in segments]),
                           np.concatenate([dst for _, dst in segments]),
                           [src.size for src, _ in segments])
        return KernelMap(triples, coords_in.copy(), in_extents, num_offsets)

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
    triples = _triples(np.concatenate(cands), out_idx, [cand.size for cand in cands])
    return KernelMap(triples, out_coords, out_extents, num_offsets)


def sparse_conv(x, spec: ConvSpec, weights: ConvWeights, kmap: KernelMap):
    """Apply one sparse convolution through a prebuilt kernel map.

    out[o] = bias + sum over triples (i, o, k) of kernel[k].T @ x[i]. Offsets
    are added in ascending order and no output repeats within one, so a plain
    indexed add is exact and every output row sees the same additions on
    every run. A submanifold map's centre segment is the identity, so that
    tap is `x.features @ kernel[centre]` added to every row in place: the
    same product on the same rows, without the gather and the scatter.
    """
    weights.check(spec)
    if x.features.shape[1] != spec.in_channels:
        raise ShapeMismatch(f"input has {x.features.shape[1]} channels, spec expects {spec.in_channels}")
    if kmap.num_offsets != spec.num_offsets:
        raise ShapeMismatch(f"kernel map has {kmap.num_offsets} offsets, spec expects "
                            f"{spec.num_offsets}")
    if spec.stride[0] != spec.stride[1]:
        raise SpecMismatch("X-Y strides must match to track the tensor stride")
    centre = -1
    if spec.mode == SUBMANIFOLD:
        if kmap.out_coords.shape[0] != x.num_sites:
            raise ShapeMismatch(f"submanifold kernel map has {kmap.out_coords.shape[0]} sites, "
                                f"input has {x.num_sites}")
        centre = kmap.num_offsets // 2
    out = np.zeros((kmap.out_coords.shape[0], spec.out_channels))
    if weights.bias is not None:
        out += weights.bias
    tri = kmap.triples
    bounds = np.searchsorted(tri[:, 2], np.arange(kmap.num_offsets + 1))
    for k_idx in range(kmap.num_offsets):
        lo, hi = bounds[k_idx], bounds[k_idx + 1]
        if k_idx == centre:
            out += x.features @ weights.kernel[k_idx]
        elif lo < hi:
            out[tri[lo:hi, 1]] += x.features[tri[lo:hi, 0]] @ weights.kernel[k_idx]
    new_stride = x.stride * spec.stride[0]
    return SparseTensor(coords=kmap.out_coords.copy(), features=out, stride=new_stride,
                        extents=kmap.out_extents)


def bev_equal(voxels: SparseTensor, pillars: SparseTensor) -> bool:
    bev = voxels.bev_coords()
    return bev.shape == pillars.coords.shape and bool((bev == pillars.coords).all())


def paired_downsample(voxels, pillars, spec3d: ConvSpec, spec2d: ConvSpec,
                      w3d: ConvWeights, w2d: ConvWeights):
    """Downsample both branches with X-Y-equalized regular convolutions.

    The shared X-Y geometry makes the output BEV occupancy of the two
    branches provably identical; the postcondition is still asserted.
    """
    if spec3d.mode != REGULAR or spec2d.mode != REGULAR:
        raise SpecMismatch("paired downsampling requires regular mode on both branches")
    for a, b in ((spec3d.kernel, spec2d.kernel), (spec3d.stride, spec2d.stride),
                 (spec3d.padding, spec2d.padding)):
        if a[:2] != b[:2]:
            raise SpecMismatch(f"X-Y conv geometry differs between branches: {a[:2]} vs {b[:2]}")
    if not bev_equal(voxels, pillars):
        raise ConsistencyViolation("input voxel/pillar BEV occupancy differs")
    kmap3 = build_kernel_map(voxels.coords, spec3d, voxels.extents)
    kmap2 = build_kernel_map(pillars.coords, spec2d, pillars.extents)
    out_v = sparse_conv(voxels, spec3d, w3d, kmap3)
    out_p = sparse_conv(pillars, spec2d, w2d, kmap2)
    if not bev_equal(out_v, out_p):
        raise ConsistencyViolation("downsampled voxel/pillar BEV occupancy diverged")
    return out_v, out_p
