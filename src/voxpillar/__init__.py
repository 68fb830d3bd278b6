"""Sparse voxel-pillar point cloud encoder with dual-branch fusion."""

from .errors import (ConsistencyViolation, DegenerateBox, EmptyGrid, FormatError,
                     InvalidTensor, OutOfRange, ShapeMismatch, SpecMismatch, VoxPillarError)
from .geometry import Box3D, iou3d, iou3d_matrix
from .grid import (GridSpec, PointEncoderWeights, SparseTensor, VoxelizedCloud,
                   assign_voxel_indices, build_pillar_features, build_voxel_features, voxelize)
from .losses import (LossWeights, diou_loss, encode_iou_target, focal_loss,
                     overall_loss, rectify_score)

__all__ = [
    "Box3D", "ConsistencyViolation", "DegenerateBox", "EmptyGrid", "FormatError",
    "GridSpec", "InvalidTensor", "LossWeights", "OutOfRange", "PointEncoderWeights",
    "ShapeMismatch", "SparseTensor", "SpecMismatch", "VoxPillarError", "VoxelizedCloud",
    "assign_voxel_indices", "build_pillar_features", "build_voxel_features",
    "diou_loss", "encode_iou_target", "focal_loss", "iou3d", "iou3d_matrix", "overall_loss",
    "rectify_score", "voxelize",
]

__version__ = "0.1.0"
