"""Four-step dual-branch encoder plus the dense and sparse readout paths.

The encoder interleaves paired sparse conv blocks (a shared-geometry
regular downsample followed by submanifold layers per branch) with the
sparse fusion layer. The dense readout runs a two-scale conv neck on the 8x
features, one row per distinct 3x3 window, into one dense map; the sparse
readout keeps everything sparse through 16x/32x blocks and merges all scales
on the 8x BEV lattice.

A forward plans, then runs. Every kernel map, column bound, window class
and merge order depends only on the step-1 voxel coordinates and the block
plan, so `plan_forward` builds them all before any feature exists; the run
phase walks the same block plan through them and computes features only.
"""
from __future__ import annotations

import contextlib
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import manifest
from .errors import OutOfRange, ShapeMismatch
from .fusion import sparse_fusion_layer
from .grid import (GridSpec, PointEncoderWeights, SparseTensor, VoxelizedCloud,
                   build_pillar_features, build_voxel_features, run_bounds, voxelize,
                   widen_finite)
from .sparse_conv import (REGULAR, ConvSpec, ConvWeights, KernelMap, Lanes,
                          build_correspondence, build_kernel_map, conv_output_extents,
                          paired_downsample, sparse_conv)

NUM_STEPS = 4
VOXEL_INPUT_DIM = 4  # mean (x, y, z, intensity)

DENSE_VOXEL_CHANNELS = (16, 32, 64, 64)
SPARSE_VOXEL_CHANNELS = (16, 32, 64, 128)
PILLAR_CHANNELS = (32, 64, 128, 256)

# Largest float64 map the dense neck may allocate.
NECK_MAP_BYTES_CAP = 1 << 30

# Most submanifold_layers or neck_layers a config may ask for (the paper uses
# 2 and 5). SEEDED_BYTES_CAP bounds bytes only, and a model of 1-channel
# widths would pass it with hundreds of thousands of layers.
MAX_LAYERS = 64


@dataclass
class BackboneConfig:
    """Channel plan and structural switches of the encoder and readouts."""

    variant: str = "dense"
    voxel_channels: tuple[int, ...] = DENSE_VOXEL_CHANNELS
    pillar_channels: tuple[int, ...] = PILLAR_CHANNELS
    submanifold_layers: int = 2
    sfl_steps: tuple[bool, ...] = (True, True, True, True)
    sfl_kernel: int = 3
    point_feature_dim: int = 32
    neck_layers: int = 5  # M
    neck_channels: int = 128  # D
    readout_voxel_channels: tuple[int, ...] = (128, 128)
    readout_pillar_channels: tuple[int, ...] = (256, 256)

    def __post_init__(self):
        self.voxel_channels = tuple(int(c) for c in self.voxel_channels)
        self.pillar_channels = tuple(int(c) for c in self.pillar_channels)
        self.sfl_steps = tuple(bool(b) for b in self.sfl_steps)
        self.readout_voxel_channels = tuple(int(c) for c in self.readout_voxel_channels)
        self.readout_pillar_channels = tuple(int(c) for c in self.readout_pillar_channels)
        if self.variant not in ("dense", "sparse"):
            raise ValueError(f"variant must be dense or sparse, got {self.variant!r}")
        for name, t, n in (("voxel_channels", self.voxel_channels, NUM_STEPS),
                           ("pillar_channels", self.pillar_channels, NUM_STEPS),
                           ("sfl_steps", self.sfl_steps, NUM_STEPS),
                           ("readout_voxel_channels", self.readout_voxel_channels, 2),
                           ("readout_pillar_channels", self.readout_pillar_channels, 2)):
            if len(t) != n:
                raise ValueError(f"{name} must have {n} entries, got {t}")
        for name in ("submanifold_layers", "neck_layers"):
            if not 1 <= getattr(self, name) <= MAX_LAYERS:
                raise ValueError(f"{name} must lie in [1, {MAX_LAYERS}], "
                                 f"got {getattr(self, name)}")
        if self.sfl_kernel % 2 == 0 or self.sfl_kernel < 1:
            raise ValueError("sfl_kernel must be odd and positive")
        if self.point_feature_dim < 1 or self.neck_channels < 1:
            raise ValueError("dimensions must be positive")
        if self.variant == "sparse":
            widths = {self.pillar_channels[-1], *self.readout_pillar_channels}
            if len(widths) != 1:
                raise ValueError(
                    "sparse readout needs equal pillar widths at 8x/16x/32x to merge scales")


def default_backbone_config(variant: str = "dense") -> BackboneConfig:
    voxel = DENSE_VOXEL_CHANNELS if variant == "dense" else SPARSE_VOXEL_CHANNELS
    return BackboneConfig(variant=variant, voxel_channels=voxel)


@dataclass
class DenseFeatureMap:
    """Row-major dense BEV map: values has shape (L, W, channels)."""

    values: np.ndarray
    stride: int

    @property
    def extents(self) -> tuple[int, int]:
        return self.values.shape[0], self.values.shape[1]

    @property
    def num_channels(self) -> int:
        return self.values.shape[2]


def paired_blocks(cfg: BackboneConfig) -> list[tuple]:
    """The model's paired voxel/pillar blocks in execution order.

    Each block is (name format, (voxel, pillar) input widths, (voxel,
    pillar) output widths, downsamples). The first NUM_STEPS are the
    encoder steps; the sparse variant adds its 16x and 32x readout blocks.
    """
    widths = [(VOXEL_INPUT_DIM, cfg.point_feature_dim),
              *zip(cfg.voxel_channels, cfg.pillar_channels)]
    names = [f"{{branch}}.step{s}" for s in range(1, NUM_STEPS + 1)]
    if cfg.variant == "sparse":
        widths += zip(cfg.readout_voxel_channels, cfg.readout_pillar_channels)
        names += ["readout.{branch}.block16", "readout.{branch}.block32"]
    return [(name, widths[i], widths[i + 1], i > 0) for i, name in enumerate(names)]


def block_convs(block, layers: int) -> list[tuple[str, ConvSpec]]:
    """(weight prefix, ConvSpec) of one block: per branch, voxel first, the
    optional stride-2 downsample, then `layers` 3x3 submanifold convolutions."""
    fmt, cin, cout, down = block
    convs = []
    for branch, ndim, c_in, c_out in (("voxel", 3, cin[0], cout[0]),
                                      ("pillar", 2, cin[1], cout[1])):
        prefix = fmt.format(branch=branch)
        if down:
            convs.append((f"{prefix}.down", ConvSpec.regular(ndim, 3, 2, 1, c_in, c_out)))
            c_in = c_out
        for j in range(layers):
            convs.append((f"{prefix}.subm{j}", ConvSpec.submanifold(ndim, 3, c_in, c_out)))
            c_in = c_out
    return convs


def sfl_convs(cfg: BackboneConfig, step: int) -> list[tuple[str, ConvSpec]]:
    """(weight prefix, ConvSpec) of the v2p and p2v convolutions of step's fusion layer."""
    cv, cp = cfg.voxel_channels[step - 1], cfg.pillar_channels[step - 1]
    return [(f"sfl.step{step}.v2p", ConvSpec.submanifold(2, cfg.sfl_kernel, cv, cp)),
            (f"sfl.step{step}.p2v", ConvSpec.submanifold(2, cfg.sfl_kernel, cp, cv))]


def block_extents(grid: GridSpec, cfg: BackboneConfig) -> list[tuple[int, ...]]:
    """Voxel grid extents after each paired block, from its downsample's spec."""
    ext, out = grid.extents, []
    for block in paired_blocks(cfg):
        # without submanifold layers, which keep the extents, a block is its downsamples
        for _, spec in block_convs(block, 0):
            if spec.ndim == 3:
                ext = conv_output_extents(ext, spec)
        out.append(ext)
    return out


def neck_convs(cfg: BackboneConfig, extents8) -> list[tuple[str, int, int, int]]:
    """(weight prefix, input width, output width, stride) of every dense neck
    convolution in plan order: per branch, voxel first, the 8x block and then
    the 16x block, each `neck_layers` long; only the first 16x layer
    downsamples. `dense_fusion_neck` runs them layer by layer over both
    branches. `extents8` is the voxel grid after the last encoder step.

    Raises OutOfRange when the neck's largest map on this grid would exceed
    NECK_MAP_BYTES_CAP.
    """
    l8, w8, h8 = (int(e) for e in extents8)
    d = cfg.neck_channels
    widths = (h8 * cfg.voxel_channels[-1], cfg.pillar_channels[-1])
    # a padded 8x map as wide as the widest layer input, which bounds every table the
    # neck writes, or the concatenated 8x readout
    largest = 8 * max((l8 + 2) * (w8 + 2) * max(*widths, d), l8 * w8 * 2 * d)
    if largest > NECK_MAP_BYTES_CAP:
        raise OutOfRange(
            f"the dense neck needs a {manifest.gib(largest)} GiB map on this {l8}x{w8} 8x grid, "
            f"above the {NECK_MAP_BYTES_CAP >> 30} GiB cap; use larger voxels, a smaller "
            f"range or the sparse variant")
    convs = []
    for branch, c_in in zip(("voxel", "pillar"), widths):
        for scale in (8, 16):
            for j in range(cfg.neck_layers):
                stride = 2 if scale == 16 and j == 0 else 1
                convs.append((f"neck.{branch}.s{scale}.conv{j}", c_in, d, stride))
                c_in = d
    return convs


def point_encoder_shapes(cfg: BackboneConfig) -> dict[str, tuple[int, ...]]:
    """The point encoder's tensors, all that the step-1 tensors need."""
    return {"point_encoder.weight": (4, cfg.point_feature_dim),
            "point_encoder.bias": (cfg.point_feature_dim,)}


def conv_shapes(name: str, spec: ConvSpec) -> dict[str, tuple[int, ...]]:
    """Names and shapes of one convolution's tensors: its kernel, then a bias
    if it is a regular (downsampling) one."""
    shapes = {f"{name}.kernel": (spec.num_offsets, spec.in_channels, spec.out_channels)}
    if spec.mode == REGULAR:
        shapes[f"{name}.bias"] = (spec.out_channels,)
    return shapes


def required_weights(grid: GridSpec, cfg: BackboneConfig) -> dict[str, tuple[int, ...]]:
    """Every named tensor the configured model loads, with its shape.

    Raises OutOfRange when the weights would exceed SEEDED_BYTES_CAP.
    """
    shapes = point_encoder_shapes(cfg)
    blocks = paired_blocks(cfg)
    convs = [c for block in blocks for c in block_convs(block, cfg.submanifold_layers)]
    convs += [c for s in range(1, NUM_STEPS + 1) if cfg.sfl_steps[s - 1] for c in sfl_convs(cfg, s)]
    for name, spec in convs:
        shapes.update(conv_shapes(name, spec))
    extents = block_extents(grid, cfg)[NUM_STEPS - 1:]
    if cfg.variant == "dense":
        for name, c_in, c_out, _ in neck_convs(cfg, extents[0]):
            shapes[f"{name}.kernel"] = (3, 3, c_in, c_out)
            shapes[f"{name}.scale"] = (c_out,)
            shapes[f"{name}.shift"] = (c_out,)
    else:
        for scale, (_, _, (cv, _), _), ext in zip((8, 16, 32), blocks[NUM_STEPS - 1:], extents):
            shapes[f"readout.voxel.proj{scale}.weight"] = (ext[2] * cv,
                                                           cfg.readout_pillar_channels[-1])
    manifest.check_seeded_size(sum(math.prod(shape) for shape in shapes.values()))
    return shapes


# A branch's occupied cells at one stride, without features.
Sites = namedtuple("Sites", "coords extents stride")


@dataclass
class ForwardPlan:
    """A forward's geometry, built from coordinates before any feature exists: the
    voxelized `cloud` (None in a plan that starts past step 1); every sparse conv's
    kernel `maps`, keyed by weight prefix, one map under every conv that shares it; per
    stride, the voxels' `columns` from `build_correspondence`, each paired block's one
    BEV-equality check; and the `readout`'s geometry (see `_plan_neck`, `merge_order`)."""

    cfg: BackboneConfig
    cloud: VoxelizedCloud | None = None
    maps: dict[str, KernelMap] = field(default_factory=dict)
    columns: dict[int, np.ndarray] = field(default_factory=dict)
    readout: tuple = ()


def plan_forward(points, grid: GridSpec, cfg: BackboneConfig) -> ForwardPlan:
    """Voxelize once, then plan every paired block and the readout from the step-1 sites."""
    cloud = voxelize(points, grid)
    return plan_sites(Sites(cloud.voxel_coords, grid.extents, 1),
                      Sites(cloud.pillar_coords, grid.bev_extents, 1), cfg, cloud=cloud)


def plan_sites(voxels, pillars, cfg: BackboneConfig, first: int = 0,
               cloud: VoxelizedCloud | None = None) -> ForwardPlan:
    """Plan `paired_blocks(cfg)[first:]` and the readout from the voxel and pillar sites
    the first of those blocks runs on, `Sites` or SparseTensors: per block, the
    downsample's maps and output columns (see `paired_downsample`), then each branch's
    submanifold map and the fusion layer's. Raises ConsistencyViolation where the
    branches' BEV sites differ."""
    plan = ForwardPlan(cfg, cloud)
    plan.columns[voxels.stride] = build_correspondence(voxels.coords, pillars.coords)
    scales = [pillars]
    for i, block in enumerate(paired_blocks(cfg)[first:], start=first):
        convs = block_convs(block, cfg.submanifold_layers)
        downs = [(name, spec) for name, spec in convs if spec.mode == REGULAR]
        if downs:
            (n3, s3), (n2, s2) = downs
            plan.maps[n3], plan.maps[n2], columns = paired_downsample(voxels, pillars, s3, s2)
            stride = voxels.stride * s3.stride[0]
            voxels, pillars = (Sites(plan.maps[n].out_coords, plan.maps[n].out_extents, stride)
                               for n in (n3, n2))
            plan.columns[stride] = columns
            scales.append(pillars)
        for x in (voxels, pillars):
            subm = [name for name, spec in convs
                    if spec.mode != REGULAR and spec.ndim == len(x.extents)]
            kmap = build_kernel_map(x.coords, dict(convs)[subm[0]], x.extents)
            plan.maps.update(dict.fromkeys(subm, kmap))
        if i < NUM_STEPS and cfg.sfl_steps[i]:
            (v2p, spec), (p2v, _) = sfl_convs(cfg, i + 1)
            if spec.num_offsets != kmap.num_offsets:  # else the pillar map serves
                kmap = build_kernel_map(pillars.coords, spec, pillars.extents)
            plan.maps.update(dict.fromkeys((v2p, p2v), kmap))
    if cfg.variant == "dense":
        plan.readout = _plan_neck(voxels, pillars, cfg)
    else:  # per scale, the height-compressed voxels, whose columns are the pillars, then these
        plan.readout = merge_order([p.coords * (p.stride // 8) for p in scales
                                    if p.stride >= 8 for _ in range(2)])
    return plan


def _weights(tensors, name: str, spec: ConvSpec) -> ConvWeights:
    return ConvWeights(*(tensors[key] for key in conv_shapes(name, spec)))


def _run_block(voxels, pillars, block, plan: ForwardPlan, tensors, lanes: Lanes):
    """Run one paired block's convolutions through the plan's maps in `block_convs`
    order, each on `lanes`; returns (voxels, pillars)."""
    x = {3: voxels, 2: pillars}
    for name, spec in block_convs(block, plan.cfg.submanifold_layers):
        x[spec.ndim] = sparse_conv(x[spec.ndim], spec, _weights(tensors, name, spec),
                                   plan.maps[name], lanes=lanes)
    return x[3], x[2]


def step1_tensors(cloud: VoxelizedCloud, tensors: dict[str, np.ndarray]):
    """Both step-1 tensors of the voxelized cloud: returns (voxels, pillars)."""
    enc = PointEncoderWeights(weight=tensors["point_encoder.weight"],
                              bias=tensors["point_encoder.bias"])
    return build_voxel_features(cloud), build_pillar_features(cloud, enc)


def encoder_forward(plan: ForwardPlan, tensors: dict[str, np.ndarray], lanes: Lanes = Lanes()):
    """Run the 4-step encoder through `plan`; returns the (voxel, pillar) pair after each step.

    Every convolution splits its output rows between the lanes of `lanes`,
    by default one lane on this thread. The values do not depend on it.
    """
    voxels, pillars = step1_tensors(plan.cloud, tensors)
    pairs = []
    for s, block in enumerate(paired_blocks(plan.cfg)[:NUM_STEPS], start=1):
        voxels, pillars = _run_block(voxels, pillars, block, plan, tensors, lanes)
        if plan.cfg.sfl_steps[s - 1]:
            (n_v2p, s_v2p), (n_p2v, s_p2v) = sfl_convs(plan.cfg, s)
            voxels, pillars = sparse_fusion_layer(
                voxels, pillars, (s_v2p, _weights(tensors, n_v2p, s_v2p)),
                (s_p2v, _weights(tensors, n_p2v, s_p2v)), plan.maps[n_v2p],
                plan.columns[voxels.stride], lanes)
        pairs.append((voxels, pillars))
    return pairs


def height_compress(x: SparseTensor, columns: np.ndarray) -> SparseTensor:
    """Concatenate each BEV column's voxel features by ascending height.

    `columns` are the voxels' column bounds from `build_correspondence`.
    Output vectors have length H * D with absent heights zero-filled, where
    H is the vertical extent at the tensor's stride.
    """
    if columns[-1] != x.num_sites:
        raise ShapeMismatch("column bounds were built for a different voxel tensor")
    h_extent = int(x.extents[2])
    d = x.num_channels
    group = np.repeat(np.arange(columns.size - 1), np.diff(columns))
    out = np.zeros((columns.size - 1, h_extent * d))
    cols = x.coords[:, 2:3] * d + np.arange(d)[None, :]
    out[group[:, None], cols] = x.features
    return SparseTensor(coords=x.coords[columns[:-1], :2], features=out, stride=x.stride,
                        extents=x.extents[:2])


def _classes(cols: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Number the tuples of the equally long int64 arrays `cols`: returns each tuple's
    class in [0, count), in lexicographic order with the first column most significant,
    and count. One lexsort, then each run of equal sorted tuples is one class."""
    order = np.lexsort(cols[::-1])
    bounds = run_bounds(np.stack([col[order] for col in cols], axis=1))
    classes = np.empty(order.size, dtype=np.int64)
    classes[order] = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    return classes, bounds.size - 1


def window_classes(labels: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """The window classes of a 3x3 convolution with padding 1 and `stride` on a map
    whose cell (y, x) holds row labels[y, x] of its input table, where row 0 is the
    zero vector that the padding holds too.

    Cells whose windows hold the same rows get the same class, so their outputs are
    equal. Returns `taps`, (9, n): the input row under tap t, (dy, dx) = divmod(t, 3),
    of each class's window; and each output cell's class, numbered from 1 so that the
    output table's row 0 can be the zero vector again. Classes are numbered in the
    lexicographic order of their windows' nine labels, in tap order.
    """
    l, w = labels.shape
    lo, wo = (l - 1) // stride + 1, (w - 1) // stride + 1
    padded = np.pad(labels, 1)
    cols = [padded[dy:dy + stride * (lo - 1) + 1:stride, dx:dx + stride * (wo - 1) + 1:stride]
            .ravel() for dy in range(3) for dx in range(3)]
    classes, n = _classes(cols)
    # any cell of a class has its window
    cell = np.empty(n, dtype=np.int64)
    cell[classes] = np.arange(classes.size)
    return np.stack([col[cell] for col in cols]), (classes + 1).reshape(lo, wo)


def window_plan(occupied: np.ndarray, strides) -> tuple[list, list]:
    """The window classes of 3x3 layers of `strides`, run in turn on a map whose input
    table holds its `occupied` cells in row-major order under the zero row 0: per
    layer, its `window_classes` taps and output class map."""
    labels = np.zeros(occupied.shape, dtype=np.int64)
    labels[occupied] = np.arange(1, np.count_nonzero(occupied) + 1)
    taps, maps = [], []
    for stride in strides:
        layer_taps, labels = window_classes(labels, stride)
        taps.append(layer_taps)
        maps.append(labels)
    return taps, maps


def _conv_rows(table: np.ndarray, taps: np.ndarray, kernel: np.ndarray, epilogue: tuple,
               out: np.ndarray, rows: np.ndarray, prod: np.ndarray, first: int, end: int):
    """Classes `first:end` of `dense_conv3x3`: their sums in `out`, then the epilogue."""
    rows, prod = rows[first:end], prod[first:end]
    y = out[1 + first:1 + end]
    y[...] = 0.0
    for t, tap in enumerate(taps[:, first:end]):
        # mode="raise" would buffer `out`; the labels are always valid
        np.take(table, tap, axis=0, out=rows, mode="clip")
        np.matmul(rows, kernel[divmod(t, 3)], out=prod)
        y += prod
    scale, shift, activation = epilogue
    y *= scale
    y += shift
    if activation:
        np.maximum(y, 0.0, out=y)


def dense_conv3x3(table: np.ndarray, taps: np.ndarray, kernel: np.ndarray, epilogue: tuple,
                  lanes: Lanes = Lanes()) -> np.ndarray:
    """Dense 3x3 cross-correlation with padding 1 over `table`, one output row per
    window class `taps` (see `window_classes`); returns the output table.

    Row k + 1 of the output takes class k's sum over taps t of
    `table[taps[t, k]] @ kernel[divmod(t, 3)]`: each class's window rows are gathered
    tap by tap, and one GEMM per tap covers them all, added in tap order into a zeroed
    sum. `epilogue`, (scale, shift, activation), is then applied in place: times scale,
    plus shift, then a ReLU if activation. Row 0 is the zero vector, as in `table`, so
    the output can be the next layer's table.

    This thread allocates the output table and the gathered rows and products; the
    halves only fill them. The classes split into halves of at least two rows, since
    NumPy sends a one-row product to gemv, which rounds unlike a GEMM. The halves run as
    lanes 0 and 1 of `lanes`, by default one lane on this thread, where they run in
    turn; the class count fixes them, so the bytes do not depend on the lanes. Every
    class takes the products its cells would take in a GEMM over the full map, in the
    same order, so it equals the full map's cells wherever BLAS rounds a GEMM row alike
    for any row count of two or more, as OpenBLAS's SkylakeX kernel does at output
    widths that are multiples of 8.
    """
    n, c, d = taps.shape[1], table.shape[1], kernel.shape[3]
    out = np.empty((n + 1, d))
    out[0] = 0.0
    buffers = (out, np.empty((n, c)), np.empty((n, d)))
    parts = [(0, n // 2), (n // 2, n)] if n >= 4 else [(0, n)]
    lanes.run(*(partial(_conv_rows, table, taps, kernel, epilogue, *buffers, *part)
                for part in parts))
    return out


def _neck_tensors(tensors, name: str) -> tuple[np.ndarray, ...]:
    """A neck layer's kernel, scale and shift, widened to float64; ValueError unless
    they are finite."""
    return tuple(widen_finite(tensors[f"{name}.{key}"], f"{name}.{key}")
                 for key in ("kernel", "scale", "shift"))


def _dense_block(tables: list, taps: list, blocks: list, tensors, activation: bool,
                 lanes: Lanes) -> list:
    """Run the neck convs `blocks[i]` on `tables[i]`, row 0 the zero vector, which the
    padding holds too, through each layer's window `taps`; returns the last tables.

    Per layer, table by table, the calling thread widens the layer's tensors to float64
    and runs it through `dense_conv3x3`, split between the lanes of `lanes`. A table is
    free once the next layer has run, unless it is one of the block's inputs, which the
    caller may still read.
    """
    tables = list(tables)
    for layer_taps, layer in zip(taps, zip(*blocks)):
        for i, (name, *_) in enumerate(layer):
            kernel, scale, shift = _neck_tensors(tensors, name)
            tables[i] = dense_conv3x3(tables[i], layer_taps, kernel, (scale, shift, activation),
                                      lanes)
    return tables


def _plan_neck(voxels, pillars, cfg: BackboneConfig) -> tuple:
    """The dense neck's geometry from the 8x sites: each layer's window taps, the 8x
    block's output labels, and the 16x block's upsampled onto the 8x map. The pillars
    are the voxels' BEV columns, so one `window_plan` of the pillar cells labels both
    branches' input tables; their layers of one depth have equal strides."""
    occupied = np.zeros(pillars.extents, dtype=bool)
    occupied[tuple(pillars.coords.T)] = True
    m = cfg.neck_layers
    taps, labels = window_plan(occupied, [stride for *_, stride in
                                          neck_convs(cfg, voxels.extents)[:2 * m]])
    # the upsampled 16x map: 8x cell (y, x) takes 16x cell (y // 2, x // 2)
    l, w = labels[m - 1].shape
    return taps, labels[m - 1], labels[-1][np.ix_(np.arange(l) // 2, np.arange(w) // 2)]


def dense_fusion_neck(plan: ForwardPlan, pairs, tensors: dict[str, np.ndarray],
                      activation: bool = True, lanes: Lanes = Lanes()) -> DenseFeatureMap:
    """Combine both branches' dense maps at 8x and 16x scales.

    Each branch runs a conv block per scale, with the weights of the neck
    plan; same-scale maps fuse by summation, and the upsampled 16x map is
    concatenated onto the 8x map, yielding 2 * neck_channels at stride 8.

    No layer writes a full map: the input tables are the height-compressed voxel and
    the pillar features, each under a zero row 0, and each layer computes one row per
    window class of the plan for each branch (see `_dense_block`). The readout, the one
    full map, gathers per scale the branches' last tables summed per class. Every layer
    splits its classes between the lanes of `lanes`, by default one lane on this
    thread. The values do not depend on it.
    """
    voxels, pillars = _final_pair(pairs)
    columns = plan.columns[voxels.stride]
    if columns.size - 1 != pillars.num_sites:
        raise ShapeMismatch("column bounds were built for a different pillar tensor")
    convs, m = neck_convs(plan.cfg, voxels.extents), plan.cfg.neck_layers
    v8, v16, p8, p16 = (convs[i:i + m] for i in range(0, len(convs), m))
    taps, labels8, up16 = plan.readout
    tables = [np.concatenate([np.zeros((1, x.num_channels)), x.features])
              for x in (height_compress(voxels, columns), pillars)]
    t8 = _dense_block(tables, taps[:m], (v8, p8), tensors, activation, lanes)
    t16 = _dense_block(t8, taps[m:], (v16, p16), tensors, activation, lanes)
    (l, w), d = labels8.shape, plan.cfg.neck_channels
    values = np.empty((l, w, 2 * d))
    values[..., :d] = (t8[0] + t8[1])[labels8]
    values[..., d:] = (t16[0] + t16[1])[up16]
    return DenseFeatureMap(values=values, stride=8)


def _final_pair(pairs):
    if len(pairs) != NUM_STEPS:
        raise ShapeMismatch(f"expected {NUM_STEPS} encoder pairs, got {len(pairs)}")
    voxels, pillars = pairs[-1]
    if voxels.stride != 8 or pillars.stride != 8:
        raise ShapeMismatch("readout requires the 8x encoder output")
    return voxels, pillars


def merge_order(coords: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How `merge_sparse2d` merges entries at the 2D sites `coords`: the stable lexsort
    order of their rows, where each site's run starts in it, and the merged sites."""
    coords = np.concatenate(coords, axis=0)
    order = np.lexsort(coords.T[::-1])
    coords = coords[order]
    starts = run_bounds(coords)[:-1]
    return order, starts, coords[starts]


def merge_sparse2d(features: list[np.ndarray], merge: tuple, extents, stride: int) -> SparseTensor:
    """Union of entries with elementwise sums at shared sites, added in entry order, since
    the lexsort of `merge`, the entries' `merge_order`, is stable."""
    order, starts, coords = merge
    feats = np.concatenate(features, axis=0)
    if feats.shape[0] != order.size:
        raise ShapeMismatch(f"the merge was planned for {order.size} rows, got {feats.shape[0]}")
    return SparseTensor(coords=coords, features=np.add.reduceat(feats[order], starts, axis=0),
                        stride=stride, extents=tuple(extents))


def sparse_readout(plan: ForwardPlan, pairs, tensors: dict[str, np.ndarray],
                   lanes: Lanes = Lanes()) -> SparseTensor:
    """Fully sparse multi-scale readout on the 8x BEV lattice.

    Extra paired blocks produce 16x and 32x features; voxels are height
    compressed and projected to the pillar width per scale; everything is
    mapped back to the 8x lattice (coordinate times the stride ratio) and
    summed over the union of sites. The blocks run on `lanes` as
    `encoder_forward`'s do.
    """
    voxels, pillars = _final_pair(pairs)
    scales = [(voxels, pillars)]
    for block in paired_blocks(plan.cfg)[NUM_STEPS:]:
        scales.append(_run_block(*scales[-1], block, plan, tensors, lanes))
    features = []
    for v, p in scales:
        compressed = height_compress(v, plan.columns[v.stride])
        key = f"readout.voxel.proj{v.stride}.weight"
        proj = widen_finite(tensors[key], key)
        if proj.shape[0] != compressed.num_channels:
            raise ShapeMismatch(
                f"projection for scale {v.stride} expects {proj.shape[0]} channels, "
                f"got {compressed.num_channels}")
        features += [compressed.features @ proj, p.features]
    return merge_sparse2d(features, plan.readout, pillars.extents, stride=8)


def run_forward(plan: ForwardPlan, tensors: dict[str, np.ndarray], lanes: Lanes | None = None):
    """The run phase of `forward`: the encoder pairs and the variant's readout, which
    compute features only, through `plan`.

    Every convolution splits its output rows between lanes 0 and 1 of
    `lanes`. Only this function opens lanes: when None, on up to two of the
    process's CPUs (one helper thread at most serves the whole pass),
    closed on return; lanes the caller passes stay open. The values do not
    depend on them.
    """
    with contextlib.ExitStack() as stack:
        if lanes is None:
            lanes = stack.enter_context(Lanes(min(2, manifest._cpu_count())))
        pairs = encoder_forward(plan, tensors, lanes)
        if plan.cfg.variant == "dense":
            readout = dense_fusion_neck(plan, pairs, tensors, lanes=lanes)
        else:
            readout = sparse_readout(plan, pairs, tensors, lanes)
    return pairs, readout


def forward(points, grid: GridSpec, cfg: BackboneConfig, tensors: dict[str, np.ndarray],
            lanes: Lanes | None = None):
    """Whole-pipeline pass, plan then run: `plan_forward`, then `run_forward`."""
    return run_forward(plan_forward(points, grid, cfg), tensors, lanes)


def output_records(pairs, readout) -> list[tuple]:
    """A forward's outputs as dump records (name, coords, features, stride, extents):
    per encoder step `step{s}.voxels` and `step{s}.pillars`, then `readout.dense`, whose
    every cell is a site, or `readout.sparse`."""
    records = [(f"step{s}.{name}", x.coords, x.features, x.stride, x.extents)
               for s, pair in enumerate(pairs, start=1)
               for name, x in zip(("voxels", "pillars"), pair)]
    if isinstance(readout, DenseFeatureMap):
        (l, w), d = readout.extents, readout.num_channels
        return records + [("readout.dense", np.indices((l, w)).reshape(2, -1).T,
                           readout.values.reshape(l * w, d), readout.stride, (l, w))]
    return records + [("readout.sparse", readout.coords, readout.features, readout.stride,
                       readout.extents)]
