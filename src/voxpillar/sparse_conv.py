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
            if any(k % 2 == 0 for k in self.kernel):
                raise SpecMismatch("submanifold convolution requires odd kernel on every axis")

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
    if spec.mode == SUBMANIFOLD:
        return tuple(int(e) for e in extents)
    out = tuple(
        (int(e) + 2 * p - k) // s + 1
        for e, k, s, p in zip(extents, spec.kernel, spec.stride, spec.padding)
    )
    if min(out) < 1:
        raise SpecMismatch(f"convolution output extent collapses to {out}")
    return out


def _lookup(sorted_keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Index of each query key in sorted_keys, -1 when absent."""
    pos = np.searchsorted(sorted_keys, query)
    pos_clipped = np.minimum(pos, sorted_keys.size - 1) if sorted_keys.size else pos
    hit = np.zeros(query.shape, dtype=bool)
    if sorted_keys.size:
        hit = sorted_keys[pos_clipped] == query
    return np.where(hit, pos_clipped, -1)


def build_kernel_map(coords_in: np.ndarray, spec: ConvSpec, in_extents) -> KernelMap:
    """Enumerate every valid (input, output, offset) pairing.

    Regular mode: output o is active iff some input c and offset k satisfy
    c + padding - k = o * stride with o inside the output extents.
    Submanifold mode: output coordinates equal input coordinates and inputs
    are gathered from the kernel window centered at each output.

    `coords_in` must be unique and lex sorted, as `SparseTensor` coordinates
    are. Triples then come out in (offset, output, input) order without a
    sort: submanifold outputs are enumerated in ascending order with one
    input each, and for a fixed offset the regular map c -> (c + p - k) / s
    is strictly monotone per axis, so lex-sorted inputs give lex-sorted
    outputs.
    """
    coords_in = np.asarray(coords_in, dtype=np.int64)
    in_extents = tuple(int(e) for e in in_extents)
    offsets = kernel_offsets(spec.kernel)
    n_in = coords_in.shape[0]

    if spec.mode == SUBMANIFOLD:
        center = (np.asarray(spec.kernel, dtype=np.int64) - 1) // 2
        in_keys = pack_coords(coords_in, in_extents)
        parts = []
        for k_idx in range(offsets.shape[0]):
            src = coords_in + offsets[k_idx] - center  # input feeding each output site
            ok = ((src >= 0) & (src < np.asarray(in_extents))).all(axis=1)
            if not ok.any():
                continue
            src_idx = np.full(n_in, -1, dtype=np.int64)
            src_idx[ok] = _lookup(in_keys, pack_coords(src[ok], in_extents))
            hit = src_idx >= 0
            if not hit.any():
                continue
            out_idx = np.flatnonzero(hit)
            tri = np.empty((out_idx.size, 3), dtype=np.int64)
            tri[:, 0] = src_idx[hit]
            tri[:, 1] = out_idx
            tri[:, 2] = k_idx
            parts.append(tri)
        triples = np.concatenate(parts, axis=0) if parts else np.empty((0, 3), dtype=np.int64)
        return KernelMap(triples, coords_in.copy(), in_extents, offsets.shape[0])

    out_extents = conv_output_extents(in_extents, spec)
    stride = np.asarray(spec.stride, dtype=np.int64)
    padding = np.asarray(spec.padding, dtype=np.int64)
    cand_in, cand_out, cand_k = [], [], []
    for k_idx in range(offsets.shape[0]):
        t = coords_in + padding - offsets[k_idx]
        ok = (t % stride == 0).all(axis=1)
        o = t // stride
        ok &= ((o >= 0) & (o < np.asarray(out_extents))).all(axis=1)
        if not ok.any():
            continue
        cand_in.append(np.flatnonzero(ok))
        cand_out.append(o[ok])
        cand_k.append(np.full(int(ok.sum()), k_idx, dtype=np.int64))
    if not cand_in:
        empty = np.empty((0, spec.ndim), dtype=np.int64)
        return KernelMap(np.empty((0, 3), dtype=np.int64), empty, out_extents, offsets.shape[0])
    in_idx = np.concatenate(cand_in)
    out_xy = np.concatenate(cand_out, axis=0)
    k_col = np.concatenate(cand_k)
    out_key = pack_coords(out_xy, out_extents)
    uniq_keys, out_idx = np.unique(out_key, return_inverse=True)
    out_coords = np.stack(np.unravel_index(uniq_keys, out_extents), axis=1).astype(np.int64)
    triples = np.stack([in_idx, out_idx, k_col], axis=1)
    return KernelMap(triples, out_coords, out_extents, offsets.shape[0])


def sparse_conv(x, spec: ConvSpec, weights: ConvWeights, kmap: KernelMap):
    """Apply one sparse convolution through a prebuilt kernel map.

    out[o] = bias + sum over triples (i, o, k) of kernel[k].T @ x[i]. Offsets
    are added in ascending order and no output repeats within one, so a plain
    indexed add is exact and every output row sees the same additions on
    every run.
    """
    weights.check(spec)
    if x.features.shape[1] != spec.in_channels:
        raise ShapeMismatch(f"input has {x.features.shape[1]} channels, spec expects {spec.in_channels}")
    if kmap.num_offsets != spec.num_offsets:
        raise ShapeMismatch(f"kernel map has {kmap.num_offsets} offsets, spec expects "
                            f"{spec.num_offsets}")
    out = np.zeros((kmap.out_coords.shape[0], spec.out_channels))
    if weights.bias is not None:
        out += weights.bias
    tri = kmap.triples
    if tri.shape[0]:
        bounds = np.searchsorted(tri[:, 2], np.arange(kmap.num_offsets + 1))
        for k_idx in range(kmap.num_offsets):
            lo, hi = bounds[k_idx], bounds[k_idx + 1]
            if lo == hi:
                continue
            contrib = x.features[tri[lo:hi, 0]] @ weights.kernel[k_idx]
            out[tri[lo:hi, 1]] += contrib
    if spec.stride[0] != spec.stride[1]:
        raise SpecMismatch("X-Y strides must match to track the tensor stride")
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
