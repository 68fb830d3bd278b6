"""Bidirectional voxel-pillar feature exchange.

Each voxel column is pooled onto its pillar (elementwise max), pillar
features are broadcast back onto their voxels, and each direction passes
through a 2D submanifold transform convolution before additive fusion.
Neither branch gains or loses sites.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyViolation, ShapeMismatch
from .grid import SparseTensor
from .sparse_conv import ConvSpec, ConvWeights, KernelMap, Lanes


@dataclass
class VoxelPillarCorrespondence:
    """Sparse form of the 0/1 voxel-pillar index matrix.

    Voxel coordinates are lex sorted by (l, w, h), so the voxels of one
    pillar form one contiguous run; `pillar_start[j]:pillar_start[j+1]`
    slices pillar j's voxel indices in ascending order.
    """

    pillar_start: np.ndarray  # (N_p + 1,) int64
    voxel_to_pillar: np.ndarray  # (N_v,) int64

    @property
    def num_pillars(self) -> int:
        return self.pillar_start.size - 1

    @property
    def num_voxels(self) -> int:
        return self.voxel_to_pillar.size


def build_correspondence(voxels: SparseTensor, pillars: SparseTensor) -> VoxelPillarCorrespondence:
    """Split the lex-sorted voxels into BEV column runs, one per pillar.

    Linear in the number of sites; any BEV coordinate present in one branch
    but not the other raises ConsistencyViolation naming the first one.
    """
    bounds = voxels.bev_runs()
    cols = voxels.coords[bounds[:-1], :2]
    pc = pillars.coords
    if not np.array_equal(cols, pc):
        m = min(len(cols), len(pc))
        diff = np.flatnonzero((cols[:m] != pc[:m]).any(axis=1))
        i = int(diff[0]) if diff.size else m
        if i < len(cols) and (i == len(pc) or tuple(cols[i]) < tuple(pc[i])):
            raise ConsistencyViolation(
                f"voxel at BEV ({cols[i, 0]}, {cols[i, 1]}) has no matching pillar")
        raise ConsistencyViolation(f"pillar ({pc[i, 0]}, {pc[i, 1]}) has no matching voxel run")
    runs = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    return VoxelPillarCorrespondence(pillar_start=bounds, voxel_to_pillar=runs)


def sparse_pool(voxels: SparseTensor, corr: VoxelPillarCorrespondence) -> np.ndarray:
    """Elementwise max over each pillar's voxel features, shape (N_p, D_v)."""
    if corr.num_voxels != voxels.num_sites:
        raise ShapeMismatch("correspondence was built for a different voxel tensor")
    return np.maximum.reduceat(voxels.features, corr.pillar_start[:-1], axis=0)


def broadcast(pillars: SparseTensor, corr: VoxelPillarCorrespondence) -> np.ndarray:
    """Copy each pillar's feature onto all of its voxels, shape (N_v, D_p)."""
    if corr.num_pillars != pillars.num_sites:
        raise ShapeMismatch("correspondence was built for a different pillar tensor")
    return pillars.features[corr.voxel_to_pillar]


def sparse_fusion_layer(voxels: SparseTensor, pillars: SparseTensor,
                        corr: VoxelPillarCorrespondence,
                        v2p: tuple[ConvSpec, ConvWeights], p2v: tuple[ConvSpec, ConvWeights],
                        kmap: KernelMap, lanes: Lanes = Lanes()
                        ) -> tuple[SparseTensor, SparseTensor]:
    """Fuse the branches: pool-conv-add one way, conv-broadcast-add the other.

    The (spec, weights) pair `v2p` transforms pooled voxel features (D_v ->
    D_p); `p2v` transforms pillar features (D_p -> D_v) before broadcasting.
    Both are bias-free 2D submanifold convolutions through `kmap`, the
    pillar coordinates' map for their kernel; coordinate sets are unchanged
    on both branches. `p2v`, which feeds the voxels, and `v2p` are lanes 0
    and 1 of `lanes`.
    """
    (spec_v2p, w_v2p), (spec_p2v, w_p2v) = v2p, p2v
    # sparse_conv checks the input widths; a wrong output width could broadcast
    widths = (pillars.num_channels, voxels.num_channels)
    if (spec_v2p.out_channels, spec_p2v.out_channels) != widths:
        raise ShapeMismatch(f"fusion convolutions must give the (pillar, voxel) widths {widths}")
    pooled = sparse_pool(voxels, corr)
    pooled_tensor = SparseTensor(pillars.coords, pooled, pillars.stride, pillars.extents)
    transformed, to_pillar = lanes.convs((pillars, spec_p2v, w_p2v, kmap),
                                         (pooled_tensor, spec_v2p, w_v2p, kmap))
    to_voxel = broadcast(transformed, corr)

    fused_voxels = SparseTensor(voxels.coords, voxels.features + to_voxel,
                                voxels.stride, voxels.extents)
    fused_pillars = SparseTensor(pillars.coords, pillars.features + to_pillar.features,
                                 pillars.stride, pillars.extents)
    return fused_voxels, fused_pillars
