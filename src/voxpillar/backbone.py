"""Four-step dual-branch encoder plus the dense and sparse readout paths.

The encoder interleaves paired sparse conv blocks (a shared-geometry
regular downsample followed by submanifold layers per branch) with the
sparse fusion layer. The dense readout densifies the 8x features and runs
a two-scale conv neck; the sparse readout keeps everything sparse through
16x/32x blocks and merges all scales on the 8x BEV lattice.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import manifest
from .errors import OutOfRange, ShapeMismatch
from .fusion import build_correspondence, sparse_fusion_layer
from .grid import (GridSpec, PointEncoderWeights, SparseTensor, build_pillar_features,
                   build_voxel_features, pack_coords, voxelize)
from .sparse_conv import (REGULAR, ConvSpec, ConvWeights, Lanes, build_kernel_map,
                          conv_output_extents, paired_downsample, sparse_conv)

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
    convolution in execution order: per branch, voxel first, the 8x block and
    then the 16x block, each `neck_layers` long; only the first 16x layer
    downsamples. `extents8` is the voxel grid after the last encoder step.

    Raises OutOfRange when the neck's largest map on this grid would exceed
    NECK_MAP_BYTES_CAP.
    """
    l8, w8, h8 = (int(e) for e in extents8)
    d = cfg.neck_channels
    widths = (h8 * cfg.voxel_channels[-1], cfg.pillar_channels[-1])
    # the padded input of an 8x layer, or the concatenated 8x readout
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


def _weights(tensors, name: str, spec: ConvSpec) -> ConvWeights:
    return ConvWeights(*(tensors[key] for key in conv_shapes(name, spec)))


def _run_block(voxels, pillars, block, layers: int, tensors, lanes: Lanes):
    """Run one paired block; returns (voxels, pillars, pillar submanifold map).

    The voxel branch runs before the pillar branch, and each convolution
    splits its output rows between the lanes of `lanes`; this thread builds
    the kernel maps. Each branch's submanifold layers share one kernel map.
    The pillar map is returned so the fusion layer that follows can reuse
    it: same coordinates, 3x3 kernel and mode.
    """
    convs = block_convs(block, layers)
    downs = [(name, spec) for name, spec in convs if spec.mode == REGULAR]
    if downs:
        (n3, s3), (n2, s2) = downs
        voxels, pillars = paired_downsample(voxels, pillars, s3, s2, _weights(tensors, n3, s3),
                                            _weights(tensors, n2, s2), lanes)
    out = []
    for x in (voxels, pillars):
        subm = [(name, spec) for name, spec in convs
                if spec.mode != REGULAR and spec.ndim == len(x.extents)]
        kmap = build_kernel_map(x.coords, subm[0][1], x.extents)
        for name, spec in subm:
            x = sparse_conv(x, spec, _weights(tensors, name, spec), kmap, lanes=lanes)
        out.append(x)
    return out[0], out[1], kmap


def step1_tensors(points, grid: GridSpec, tensors: dict[str, np.ndarray]):
    """Voxelize once and build both step-1 tensors: returns (cloud, voxels, pillars)."""
    enc = PointEncoderWeights(weight=tensors["point_encoder.weight"],
                              bias=tensors["point_encoder.bias"])
    cloud = voxelize(points, grid)
    return cloud, build_voxel_features(cloud), build_pillar_features(cloud, enc)


def encoder_forward(points, grid: GridSpec, cfg: BackboneConfig,
                    tensors: dict[str, np.ndarray], lanes: Lanes = Lanes()):
    """Run the 4-step encoder; returns the (voxel, pillar) pair after each step.

    Every convolution splits its output rows between the lanes of `lanes`,
    by default one lane on this thread. The values do not depend on it.
    """
    _, voxels, pillars = step1_tensors(points, grid, tensors)
    pairs = []
    for s, block in enumerate(paired_blocks(cfg)[:NUM_STEPS], start=1):
        voxels, pillars, kmap = _run_block(voxels, pillars, block, cfg.submanifold_layers,
                                           tensors, lanes)
        if cfg.sfl_steps[s - 1]:
            (n_v2p, s_v2p), (n_p2v, s_p2v) = sfl_convs(cfg, s)
            if s_v2p.num_offsets != kmap.num_offsets:
                kmap = build_kernel_map(pillars.coords, s_v2p, pillars.extents)
            corr = build_correspondence(voxels, pillars)
            voxels, pillars = sparse_fusion_layer(
                voxels, pillars, corr, (s_v2p, _weights(tensors, n_v2p, s_v2p)),
                (s_p2v, _weights(tensors, n_p2v, s_p2v)), kmap, lanes)
        pairs.append((voxels, pillars))
    return pairs


def height_compress(x: SparseTensor) -> SparseTensor:
    """Concatenate each BEV column's voxel features by ascending height.

    Output vectors have length H * D with absent heights zero-filled, where
    H is the vertical extent at the tensor's stride.
    """
    h_extent = int(x.extents[2])
    d = x.num_channels
    bounds = x.bev_runs()
    group = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    out = np.zeros((bounds.size - 1, h_extent * d))
    cols = x.coords[:, 2:3] * d + np.arange(d)[None, :]
    out[group[:, None], cols] = x.features
    return SparseTensor(coords=x.coords[bounds[:-1], :2], features=out, stride=x.stride,
                        extents=x.extents[:2])


def bev_array(x: SparseTensor, pad: int = 0) -> np.ndarray:
    """Sparse features scattered onto a zero (L + 2 pad, W + 2 pad, C) BEV array, inside a
    border of `pad` zero cells. 3D input is height-compressed first."""
    if x.coords.shape[1] == 3:
        x = height_compress(x)
    l, w = x.extents
    values = np.zeros((l + 2 * pad, w + 2 * pad, x.num_channels))
    values[pad:pad + l, pad:pad + w][x.coords[:, 0], x.coords[:, 1]] = x.features
    return values


def densify(x: SparseTensor) -> DenseFeatureMap:
    """Scatter sparse features onto a zero dense BEV map; 3D input is height-compressed first."""
    return DenseFeatureMap(values=bev_array(x), stride=x.stride)


@dataclass
class DenseLayer:
    """Every array one `dense_conv3x3` call reads or writes besides its kernel.

    `padded` is the (L+2, W+2, C) input inside a zero border and `out` an
    (L'+2, W'+2, D) map with a zero border whose interior the call
    overwrites, so one layer's `out` can be the next layer's `padded`.
    `prod` takes one tap's products. With the background skip, `corner` is
    the flat index in `padded` of each computed cell's window corner (the
    masked cells, then one unmasked cell), `idx` takes index arrays and
    `rows` gathered window rows, and `acc` holds the computed cells' sums;
    these may be leading views of arrays that the layers of a block share
    (`_skip_arrays`).

    `parts` splits the rows the call computes into two halves, or one when
    it cannot: the output rows of the map, or with the skip the computed
    cells. With the skip, `fills` splits the writes into `out` the same way,
    as (output rows, masked cells in those rows) ranges.
    """

    padded: np.ndarray
    out: np.ndarray
    stride: int
    prod: np.ndarray
    parts: list[tuple[int, int]]
    corner: np.ndarray | None = None
    idx: np.ndarray | None = None
    rows: np.ndarray | None = None
    acc: np.ndarray | None = None
    fills: list[tuple[tuple[int, int], tuple[int, int]]] | None = None


def _skips(stride: int, mask: np.ndarray | None) -> bool:
    """Whether a layer computes only its masked cells and one unmasked cell."""
    return stride == 1 and mask is not None and not mask.all()


def _skip_arrays(n: int, c: int, d: int) -> dict:
    """The `prod`, `idx`, `rows` and `acc` arrays of skipping layers from width `c` to
    width `d` that compute at most `n` cells."""
    return {"prod": np.empty((n, d)), "idx": np.empty(n, dtype=np.intp),
            "rows": np.empty((n, c)), "acc": np.empty((n, d))}


def _row_halves(n: int, least: int) -> list[tuple[int, int]]:
    """[0, n) as two halves of at least `least` rows each, or whole when too short."""
    half = n // 2
    return [(0, half), (half, n)] if half >= least else [(0, n)]


def dense_layer(padded: np.ndarray, d: int, stride: int = 1,
                mask: np.ndarray | None = None, spare=None, scratch: dict | None = None
                ) -> DenseLayer:
    """Allocate the arrays of a 3x3 convolution to width `d` of the zero-bordered `padded`.

    `mask`, used at stride 1 only, marks the output cells that may differ:
    every cell outside it must have a window of the same values, padding
    included. Then only the masked cells and one unmasked cell are computed,
    in leading views of `scratch` (from `_skip_arrays`) when given.
    `spare`, a zero-bordered map that nothing reads any more, becomes `out`
    when it has the output's shape.

    The computed rows are split in halves (`DenseLayer.parts`). Without the
    skip each GEMM covers one output row of the map whichever half runs it,
    so any two halves do. With it, each half's GEMMs cover its computed
    cells, so a half must keep at least two: NumPy sends a one-row product
    to gemv, which rounds unlike a GEMM.
    """
    h, w, c = padded.shape[0] - 2, padded.shape[1] - 2, padded.shape[2]
    h_out, w_out = ((n - 1) // stride + 1 for n in (h, w))
    shape = (h_out + 2, w_out + 2, d)
    out = spare if spare is not None and spare.shape == shape else np.zeros(shape)
    if _skips(stride, mask):
        # the masked cells, then the first unmasked one
        masked = np.flatnonzero(mask)
        sites = np.append(masked, np.argmin(mask))
        n = sites.size
        arrays = scratch or _skip_arrays(n, c, d)
        fills = [((r0, r1), tuple(np.searchsorted(masked, (r0 * w, r1 * w)).tolist()))
                 for r0, r1 in _row_halves(h, 1)]
        return DenseLayer(padded, out, stride, prod=arrays["prod"][:n], parts=_row_halves(n, 2),
                          corner=sites + sites // w * 2, idx=arrays["idx"][:n],
                          rows=arrays["rows"][:n], acc=arrays["acc"][:n], fills=fills)
    return DenseLayer(padded, out, stride, prod=np.empty((h_out, w_out, d)),
                      parts=_row_halves(h_out, 1))


def _conv_rows(layer: DenseLayer, kernel: np.ndarray, epilogue, first: int, end: int):
    """Rows `first:end` of `dense_conv3x3`: with the skip the computed cells' sums in
    `acc`, else the output map's rows in `out`; then the epilogue on them."""
    xp, stride = layer.padded, layer.stride
    w, c = xp.shape[1] - 2, xp.shape[2]
    if layer.corner is not None:
        flat = xp.reshape(-1, c)
        corner, idx, rows, prod, y = (a[first:end] for a in (layer.corner, layer.idx,
                                                             layer.rows, layer.prod, layer.acc))
        y[...] = 0.0
        for dy in range(3):
            for dx in range(3):
                np.add(corner, dy * (w + 2) + dx, out=idx)
                # mode="raise" would buffer `out`; the indices are always valid
                np.take(flat, idx, axis=0, out=rows, mode="clip")
                np.matmul(rows, kernel[dy, dx], out=prod)
                y += prod
    else:
        y, prod = layer.out[1 + first:1 + end, 1:-1], layer.prod[first:end]
        w_out = y.shape[1]
        y[...] = 0.0
        for dy in range(3):
            for dx in range(3):
                window = xp[dy + stride * first:dy + stride * (end - 1) + 1:stride,
                            dx:dx + stride * (w_out - 1) + 1:stride]
                np.matmul(window, kernel[dy, dx], out=prod)
                y += prod
    if epilogue is not None:
        scale, shift, activation = epilogue
        y *= scale
        y += shift
        if activation:
            np.maximum(y, 0.0, out=y)


def _fill_rows(layer: DenseLayer, rows: tuple[int, int], cells: tuple[int, int]):
    """With the skip, the output rows `rows` of `out`: the unmasked cell's value, and the
    sums of the masked cells `cells[0]:cells[1]`, which lie in those rows."""
    (r0, r1), (s0, s1) = rows, cells
    layer.out[1 + r0:1 + r1, 1:-1] = layer.acc[-1]
    # each masked cell's centre, flat in `out`, which has `padded`'s width at stride 1
    idx = layer.idx[s0:s1]
    np.add(layer.corner[s0:s1], layer.padded.shape[1] + 1, out=idx)
    layer.out.reshape(-1, layer.out.shape[2])[idx] = layer.acc[s0:s1]


def dense_conv3x3(layer: DenseLayer, kernel: np.ndarray, epilogue: tuple | None = None,
                  lanes: Lanes = Lanes()) -> np.ndarray:
    """Dense 3x3 cross-correlation with padding 1 of the layer that `dense_layer` built.

    `layer` holds the padded input, the stride, the mask's cells and every
    array the call writes, so the call allocates no feature-sized array.
    The result is the (L', W', D) interior of the layer's `out`.
    `epilogue`, (scale, shift, activation), is applied in place to every
    computed value: times scale, plus shift, then a ReLU if activation.

    The halves of `layer.parts` run as lanes 0 and 1 of `lanes`, by default
    one lane on this thread, where they run in turn; with the skip, so do
    the halves of `layer.fills` once both sums are done. Either way every
    value gets the same operations, so the bytes do not depend on the lanes.

    With a mask (see `dense_layer`) only the masked cells and one unmasked
    cell are computed, and that cell's output is copied to the other
    unmasked cells. Each computed cell takes the same products in the same
    order as without a mask, but BLAS may round a GEMM row differently when
    the number of rows changes, so the result may differ from the full map
    in the last bits (`selftest.check_neck_skip` states the bound); reruns
    are bitwise equal.
    """
    lanes.run(*(partial(_conv_rows, layer, kernel, epilogue, *part) for part in layer.parts))
    if layer.corner is not None:
        lanes.run(*(partial(_fill_rows, layer, *fill) for fill in layer.fills))
    return layer.out[1:-1, 1:-1]


def _reach(mask: np.ndarray, padding: bool) -> np.ndarray:
    """Cells whose 3x3 window touches a True cell of `mask`, or the padding if `padding`."""
    h, w = mask.shape
    p = np.pad(mask, 1, constant_values=padding)
    return np.logical_or.reduce([p[dy:dy + h, dx:dx + w] for dy in range(3) for dx in range(3)])


def _neck_tensors(tensors, name: str) -> tuple[np.ndarray, ...]:
    """A neck layer's kernel, scale and shift, widened to float64."""
    return tuple(np.asarray(tensors[f"{name}.{key}"], dtype=np.float64)
                 for key in ("kernel", "scale", "shift"))


def _block_masks(cells: np.ndarray | None, layers: int) -> list:
    """Each layer's mask in a block whose input fills the BEV cells `cells` (all None
    when None): the cells that can differ from the background. They only grow."""
    masks = []
    for j in range(layers):
        if cells is not None:
            cells = _reach(cells, padding=j > 0)
        masks.append(cells)
    return masks


def _dense_block(padded: np.ndarray, convs: list, occupied: np.ndarray | None, tensors,
                 activation: bool, lanes: Lanes) -> np.ndarray:
    """Run the neck `convs` on the zero-bordered (L+2, W+2, C) map `padded`; returns the
    last layer's zero-bordered output.

    Each layer splits its rows between the lanes of `lanes` (see
    `dense_conv3x3`). A map the block wrote is reused as the output two
    layers on, so a block allocates two maps. The calling thread allocates
    every array the layers write and widens their tensors to float64. From
    layer 1 on, the skipping layers share one set of `_skip_arrays`, sized
    for the last mask, the largest, so that they do not grow layer by layer
    on the heap; every GEMM keeps its row count. Layer 0, whose input may be
    wider and whose mask is the smallest, has its own, freed with the
    block's input map.

    `occupied`, for a stride-1 block, holds the BEV cells densify filled
    (else None): each layer then computes only the cells that can differ
    from the map's one background vector. At layer 0 the background is the
    zero of the unfilled cells and of the padding. Scale and shift then
    turn every background cell into one vector that is in general not zero,
    so from layer 1 on a cell whose window touches the padding may differ
    too.
    """
    masks = _block_masks(occupied, len(convs))
    spare = scratch = None
    for j, (name, c, d, stride) in enumerate(convs):
        if j == 1:
            cells = [int(m.sum()) + 1 for (*_, s), m in zip(convs[1:], masks[1:])
                     if _skips(s, m)]
            scratch = _skip_arrays(max(cells), c, d) if cells else None
        layer = dense_layer(padded, d, stride, masks[j], spare, scratch)
        # this layer's input is free after it, unless it is the block's input, which
        # the caller may still read (the 8x maps are)
        spare = padded if j > 0 else None
        padded = layer.out
        kernel, scale, shift = _neck_tensors(tensors, name)
        dense_conv3x3(layer, kernel, (scale, shift, activation), lanes)
        del layer  # so the next layer allocates after this one's arrays are freed
    return padded


def dense_fusion_neck(pairs, tensors: dict[str, np.ndarray], cfg: BackboneConfig,
                      activation: bool = True, lanes: Lanes = Lanes()) -> DenseFeatureMap:
    """Combine both branches' dense maps at 8x and 16x scales.

    Each branch runs a conv block per scale, in the order of the neck
    plan; same-scale maps fuse by summation, and the upsampled 16x map is
    concatenated onto the 8x map, yielding 2 * neck_channels at stride 8.
    Every layer splits its rows between the lanes of `lanes` (see
    `_dense_block`), by default one lane on this thread. The values do not
    depend on it.
    """
    voxels, pillars = _final_pair(pairs)
    convs = neck_convs(cfg, voxels.extents)
    m = cfg.neck_layers
    blocks = [convs[i:i + m] for i in range(0, len(convs), m)]
    maps = []
    for x, (block8, block16) in zip((voxels, pillars), (blocks[:2], blocks[2:])):
        occupied = np.zeros(x.extents[:2], dtype=bool)
        occupied[x.coords[:, 0], x.coords[:, 1]] = True
        y8 = _dense_block(bev_array(x, pad=1), block8, occupied, tensors, activation, lanes)
        y16 = _dense_block(y8, block16, None, tensors, activation, lanes)
        maps += [y8[1:-1, 1:-1], y16[1:-1, 1:-1]]
    v8, v16, p8, p16 = maps
    fused8 = v8 + p8
    fused16 = v16 + p16
    up = np.repeat(np.repeat(fused16, 2, axis=0), 2, axis=1)
    up = up[:fused8.shape[0], :fused8.shape[1]]
    return DenseFeatureMap(values=np.concatenate([fused8, up], axis=2), stride=8)


def _final_pair(pairs):
    if len(pairs) != NUM_STEPS:
        raise ShapeMismatch(f"expected {NUM_STEPS} encoder pairs, got {len(pairs)}")
    voxels, pillars = pairs[-1]
    if voxels.stride != 8 or pillars.stride != 8:
        raise ShapeMismatch("readout requires the 8x encoder output")
    return voxels, pillars


def merge_sparse2d(entries, extents, stride: int) -> SparseTensor:
    """Union of (coords, features) lists with elementwise sums at shared sites."""
    coords = np.concatenate([c for c, _ in entries], axis=0)
    feats = np.concatenate([f for _, f in entries], axis=0)
    key = pack_coords(coords, extents)
    order = np.argsort(key, kind="stable")
    key, coords, feats = key[order], coords[order], feats[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    summed = np.add.reduceat(feats, starts, axis=0)
    return SparseTensor(coords=coords[starts], features=summed, stride=stride,
                        extents=tuple(extents))


def sparse_readout(pairs, tensors: dict[str, np.ndarray], cfg: BackboneConfig,
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
    for block in paired_blocks(cfg)[NUM_STEPS:]:
        v, p, _ = _run_block(*scales[-1], block, cfg.submanifold_layers, tensors, lanes)
        scales.append((v, p))
    entries = []
    for v, p in scales:
        ratio = v.stride // 8
        compressed = height_compress(v)
        proj = np.asarray(tensors[f"readout.voxel.proj{v.stride}.weight"], dtype=np.float64)
        if proj.shape[0] != compressed.num_channels:
            raise ShapeMismatch(
                f"projection for scale {v.stride} expects {proj.shape[0]} channels, "
                f"got {compressed.num_channels}")
        entries.append((compressed.coords * ratio, compressed.features @ proj))
        entries.append((p.coords * ratio, p.features))
    return merge_sparse2d(entries, pillars.extents, stride=8)


def forward(points, grid: GridSpec, cfg: BackboneConfig, tensors: dict[str, np.ndarray],
            lanes: Lanes | None = None):
    """Whole-pipeline pass: encoder pairs plus the variant's readout.

    Every convolution splits its output rows between lanes 0 and 1 of
    `lanes`. Only this function opens lanes: when None, on up to two of the
    process's CPUs (one helper thread at most serves the whole pass),
    closed on return; lanes the caller passes stay open. The values do not
    depend on them.
    """
    with contextlib.ExitStack() as stack:
        if lanes is None:
            lanes = stack.enter_context(Lanes(min(2, manifest._cpu_count())))
        pairs = encoder_forward(points, grid, cfg, tensors, lanes)
        if cfg.variant == "dense":
            readout = dense_fusion_neck(pairs, tensors, cfg, lanes=lanes)
        else:
            readout = sparse_readout(pairs, tensors, cfg, lanes)
    return pairs, readout
