"""Bidirectional voxel-pillar feature exchange.

Each voxel column is pooled onto its pillar (elementwise max), pillar
features are broadcast back onto their voxels, and each direction passes
through a 2D submanifold transform convolution before additive fusion.
Neither branch gains or loses sites.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .grid import SparseTensor, run_max
# `build_correspondence` gives the bounds `corr` that pooling and broadcasting read
from .sparse_conv import (ConvSpec, ConvWeights, KernelMap, Lanes, build_correspondence,
                          sparse_conv)


def sparse_pool(voxels: SparseTensor, corr: np.ndarray) -> np.ndarray:
    """Elementwise max over each pillar's voxel features, shape (N_p, D_v)."""
    if corr[-1] != voxels.num_sites:
        raise ShapeMismatch("correspondence was built for a different voxel tensor")
    return run_max(voxels.features, corr)


def broadcast(pillars: SparseTensor, corr: np.ndarray) -> np.ndarray:
    """Copy each pillar's feature onto all of its voxels, shape (N_v, D_p)."""
    if corr.size - 1 != pillars.num_sites:
        raise ShapeMismatch("correspondence was built for a different pillar tensor")
    return np.repeat(pillars.features, np.diff(corr), axis=0)


def sparse_fusion_layer(voxels: SparseTensor, pillars: SparseTensor,
                        v2p: tuple[ConvSpec, ConvWeights], p2v: tuple[ConvSpec, ConvWeights],
                        kmap: KernelMap, corr: np.ndarray, lanes: Lanes = Lanes()
                        ) -> tuple[SparseTensor, SparseTensor]:
    """Fuse the branches: pool-conv-add one way, conv-broadcast-add the other.

    The (spec, weights) pair `v2p` transforms pooled voxel features (D_v ->
    D_p); `p2v` transforms pillar features (D_p -> D_v) before broadcasting.
    Both are bias-free 2D submanifold convolutions through `kmap`, the
    pillar coordinates' map for their kernel; coordinate sets are unchanged
    on both branches. `corr` is the branches' `build_correspondence`, which
    checked that their BEV sites are equal. `p2v` runs first, then `v2p`,
    each on `lanes`.
    """
    (spec_v2p, w_v2p), (spec_p2v, w_p2v) = v2p, p2v
    # sparse_conv checks the input widths; a wrong output width could broadcast
    widths = (pillars.num_channels, voxels.num_channels)
    if (spec_v2p.out_channels, spec_p2v.out_channels) != widths:
        raise ShapeMismatch(f"fusion convolutions must give the (pillar, voxel) widths {widths}")
    pooled = sparse_pool(voxels, corr)
    pooled_tensor = SparseTensor(pillars.coords, pooled, pillars.stride, pillars.extents)
    transformed = sparse_conv(pillars, spec_p2v, w_p2v, kmap, lanes=lanes)
    to_pillar = sparse_conv(pooled_tensor, spec_v2p, w_v2p, kmap, lanes=lanes)
    to_voxel = broadcast(transformed, corr)

    fused_voxels = SparseTensor(voxels.coords, voxels.features + to_voxel,
                                voxels.stride, voxels.extents)
    fused_pillars = SparseTensor(pillars.coords, pillars.features + to_pillar.features,
                                 pillars.stride, pillars.extents)
    return fused_voxels, fused_pillars
