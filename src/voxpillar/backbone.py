"""Four-step dual-branch encoder plus the dense and sparse readout paths.

The encoder interleaves paired sparse conv blocks (a shared-geometry
regular downsample followed by submanifold layers per branch) with the
sparse fusion layer. The dense readout runs a two-scale conv neck on the 8x
features, one row per distinct 3x3 window, into one dense map; the sparse
readout keeps everything sparse through 16x/32x blocks and merges all scales
on the 8x BEV lattice.
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


def densify(x: SparseTensor) -> DenseFeatureMap:
    """Scatter sparse features onto a zero dense BEV map; 3D input is height-compressed first."""
    if x.coords.shape[1] == 3:
        x = height_compress(x)
    values = np.zeros((*x.extents, x.num_channels))
    values[x.coords[:, 0], x.coords[:, 1]] = x.features
    return DenseFeatureMap(values=values, stride=x.stride)


def _classes(cols: list[np.ndarray], base: int) -> tuple[np.ndarray, int]:
    """Number the tuples of the equally long int64 arrays `cols`, whose entries lie in
    [0, base): returns each tuple's class in [0, count), in sorted order, and count.

    The columns are packed into one int64 code in mixed radix, renumbered densely
    first whenever the next column would take the code's range times the tuple count
    past 2**63, so the codes are exact at any size."""
    n = cols[0].size
    code, span = cols[0], base
    for col in cols[1:]:
        if span * base * n > 1 << 63:
            code, span = _dense(code, span)
        code = code * base + col
        span *= base
    return _dense(code, span)


def _dense(code: np.ndarray, span: int) -> tuple[np.ndarray, int]:
    """Each of the codes, which lie in [0, span), ranked among the distinct codes, and
    their count."""
    n = code.size
    if span * n <= 1 << 63:
        # one in-place sort of each code packed with its position: an argsort is
        # several times slower on codes that repeat as much as a neck map's do
        key = code * n + np.arange(n)
        key.sort()
        code, pos = np.divmod(key, n)
    else:
        pos = code.argsort(kind="stable")
        code = code[pos]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(code[1:], code[:-1], out=new[1:])
    rank = np.cumsum(new) - 1
    ranks = np.empty(n, dtype=np.int64)
    ranks[pos] = rank
    return ranks, int(rank[-1]) + 1


def window_classes(labels: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """The window classes of a 3x3 convolution with padding 1 and `stride` on a map
    whose cell (y, x) holds row labels[y, x] of its input table, where row 0 is the
    zero vector that the padding holds too.

    Cells whose windows hold the same rows get the same class, so their outputs are
    equal. Returns `taps`, (9, n): the input row under tap t, (dy, dx) = divmod(t, 3),
    of each class's window; and each output cell's class, numbered from 1 so that the
    output table's row 0 can be the zero vector again. The three labels of each window
    row are numbered first, then the three row classes of each window.
    """
    l, w = labels.shape
    lo, wo = (l - 1) // stride + 1, (w - 1) // stride + 1
    padded = np.pad(labels, 1)
    span = stride * (lo - 1) + 3
    across, n_across = _classes([padded[:span, dx:dx + stride * (wo - 1) + 1:stride].ravel()
                                 for dx in range(3)], int(padded.max()) + 1)
    across = across.reshape(span, wo)
    classes, n = _classes([across[dy:dy + stride * (lo - 1) + 1:stride].ravel()
                           for dy in range(3)], n_across)
    # any cell of a class has its window; its corner, flat in `padded`
    cell = np.empty(n, dtype=np.int64)
    cell[classes] = np.arange(classes.size)
    oy, ox = np.divmod(cell, wo)
    corner = stride * (oy * (w + 2) + ox)
    taps = padded.ravel()[corner + np.add.outer(np.arange(3) * (w + 2), np.arange(3)).reshape(9, 1)]
    return taps, (classes + 1).reshape(lo, wo)


@dataclass
class DenseLayer:
    """Every array one `dense_conv3x3` call reads or writes besides its kernel.

    Row k + 1 of `out` takes the output of window class k: the sum over taps t of
    `table[taps[t, k]] @ kernel[divmod(t, 3)]`. Row 0 of `table` and of `out` is the
    zero vector, so `out` can be the next layer's `table`. `rows` takes one tap's
    gathered input rows and `prod` their products.
    """

    table: np.ndarray  # (m + 1, C)
    taps: np.ndarray  # (9, n) int64
    out: np.ndarray  # (n + 1, D)
    rows: np.ndarray  # (n, C)
    prod: np.ndarray  # (n, D)


def dense_layer(table: np.ndarray, taps: np.ndarray, d: int,
                scratch: np.ndarray | None = None) -> DenseLayer:
    """Allocate, on the calling thread, the arrays of a 3x3 convolution to width `d` of the
    window classes `taps` (see `window_classes`) over `table`. `rows` and `prod` are
    leading views of `scratch`, a flat float64 array of at least n * (C + d) values, when
    given."""
    n, c = taps.shape[1], table.shape[1]
    scratch = np.empty(n * (c + d)) if scratch is None else scratch
    out = np.empty((n + 1, d))
    out[0] = 0.0
    return DenseLayer(table, taps, out, scratch[:n * c].reshape(n, c),
                      scratch[n * c:n * (c + d)].reshape(n, d))


def _conv_rows(layer: DenseLayer, kernel: np.ndarray, epilogue, first: int, end: int):
    """Classes `first:end` of `dense_conv3x3`: their sums in `out`, then the epilogue."""
    rows, prod = layer.rows[first:end], layer.prod[first:end]
    y = layer.out[1 + first:1 + end]
    y[...] = 0.0
    for t, taps in enumerate(layer.taps[:, first:end]):
        # mode="raise" would buffer `out`; the labels are always valid
        np.take(layer.table, taps, axis=0, out=rows, mode="clip")
        np.matmul(rows, kernel[divmod(t, 3)], out=prod)
        y += prod
    if epilogue is not None:
        scale, shift, activation = epilogue
        y *= scale
        y += shift
        if activation:
            np.maximum(y, 0.0, out=y)


def dense_conv3x3(layer: DenseLayer, kernel: np.ndarray, epilogue: tuple | None = None,
                  lanes: Lanes = Lanes()) -> np.ndarray:
    """Dense 3x3 cross-correlation with padding 1, one output row per window class of the
    layer that `dense_layer` built; returns its output table `layer.out`.

    Each class's window rows are gathered tap by tap, and one GEMM per tap covers
    them all, added in tap order into a zeroed sum. `epilogue`, (scale, shift,
    activation), is then applied in place: times scale, plus shift, then a ReLU if
    activation. The call allocates no feature-sized array.

    The classes split into halves of at least two rows, since NumPy sends a one-row
    product to gemv, which rounds unlike a GEMM. The halves run as lanes 0 and 1 of
    `lanes`, by default one lane on this thread, where they run in turn. Every class
    takes the products its cells would take in a GEMM over the full map, in the same
    order, so the bytes depend neither on the lanes nor on how many cells share a
    class wherever BLAS rounds a GEMM row alike for any row count of two or more, as
    OpenBLAS's SkylakeX kernel does at output widths that are multiples of 8.
    """
    n = layer.taps.shape[1]
    parts = [(0, n // 2), (n // 2, n)] if n >= 4 else [(0, n)]
    lanes.run(*(partial(_conv_rows, layer, kernel, epilogue, *part) for part in parts))
    return layer.out


def _neck_tensors(tensors, name: str) -> tuple[np.ndarray, ...]:
    """A neck layer's kernel, scale and shift, widened to float64."""
    return tuple(np.asarray(tensors[f"{name}.{key}"], dtype=np.float64)
                 for key in ("kernel", "scale", "shift"))


def _dense_block(table: np.ndarray, labels: np.ndarray, convs: list, tensors,
                 activation: bool, lanes: Lanes) -> tuple[np.ndarray, np.ndarray]:
    """Run the neck `convs` on the map whose cell (y, x) holds row labels[y, x] of `table`,
    row 0 the zero vector, which the padding holds too; returns the last layer's table
    and labels.

    A layer's classes depend only on its input labels, so the calling thread plans
    every layer's window classes first and sizes one scratch for their gathered rows
    and products. It then allocates each layer's output table, widens its tensors to
    float64 and runs it, split between the lanes of `lanes` (see `dense_conv3x3`).
    A table is free once the next layer has run, unless it is the block's input, which
    the caller may still read.
    """
    plan = []
    for *_, stride in convs:
        taps, labels = window_classes(labels, stride)
        plan.append(taps)
    scratch = np.empty(max(taps.shape[1] * (c + d) for taps, (_, c, d, _) in zip(plan, convs)))
    for taps, (name, _, d, _) in zip(plan, convs):
        layer = dense_layer(table, taps, d, scratch)
        kernel, scale, shift = _neck_tensors(tensors, name)
        table = dense_conv3x3(layer, kernel, (scale, shift, activation), lanes)
        del layer  # so the next layer allocates after this one's input is freed
    return table, labels


def dense_fusion_neck(pairs, tensors: dict[str, np.ndarray], cfg: BackboneConfig,
                      activation: bool = True, lanes: Lanes = Lanes()) -> DenseFeatureMap:
    """Combine both branches' dense maps at 8x and 16x scales.

    Each branch runs a conv block per scale, in the order of the neck
    plan; same-scale maps fuse by summation, and the upsampled 16x map is
    concatenated onto the 8x map, yielding 2 * neck_channels at stride 8.

    No layer writes a full map: a branch's input table is its (height-compressed)
    sparse features under a zero row 0, labelled by BEV cell, and each layer computes
    one row per window class (see `_dense_block`). The readout is the one full map,
    written from the four last tables. Every layer splits its classes between the
    lanes of `lanes`, by default one lane on this thread. The values do not depend on
    it.
    """
    voxels, pillars = _final_pair(pairs)
    convs = neck_convs(cfg, voxels.extents)
    m = cfg.neck_layers
    blocks = [convs[i:i + m] for i in range(0, len(convs), m)]
    outs = []
    for x, branch in zip((voxels, pillars), (blocks[:2], blocks[2:])):
        if x.coords.shape[1] == 3:
            x = height_compress(x)
        labels = np.zeros(x.extents, dtype=np.int64)
        labels[x.coords[:, 0], x.coords[:, 1]] = np.arange(1, x.num_sites + 1)
        table = np.concatenate([np.zeros((1, x.num_channels)), x.features])
        del x  # the compressed voxel features are copied into `table`
        for block in branch:
            table, labels = _dense_block(table, labels, block, tensors, activation, lanes)
            outs.append((table, labels))
    (v8, lv8), (v16, lv16), (p8, lp8), (p16, lp16) = outs
    l, w = lv8.shape
    d = v8.shape[1]
    values = np.empty((l, w, 2 * d))
    values[..., :d] = v8[lv8]
    values[..., :d] += p8[lp8]
    # the upsampled 16x sum: 8x cell (y, x) takes 16x cell (y // 2, x // 2)
    up = np.ix_(np.arange(l) // 2, np.arange(w) // 2)
    values[..., d:] = v16[lv16[up]]
    values[..., d:] += p16[lp16[up]]
    return DenseFeatureMap(values=values, stride=8)


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
