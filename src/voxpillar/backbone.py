"""Four-step dual-branch encoder plus the dense and sparse readout paths.

The encoder interleaves paired sparse conv blocks (a shared-geometry
regular downsample followed by submanifold layers per branch) with the
sparse fusion layer. The dense readout densifies the 8x features and runs
a two-scale conv neck; the sparse readout keeps everything sparse through
16x/32x blocks and merges all scales on the 8x BEV lattice.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, ShapeMismatch
from .fusion import build_correspondence, sparse_fusion_layer
from .grid import (GridSpec, PointEncoderWeights, SparseTensor, build_pillar_features,
                   build_voxel_features, pack_coords, voxelize)
from .sparse_conv import (REGULAR, ConvSpec, ConvWeights, build_kernel_map, conv_output_extents,
                          paired_downsample, sparse_conv)

NUM_STEPS = 4
VOXEL_INPUT_DIM = 4  # mean (x, y, z, intensity)

DENSE_VOXEL_CHANNELS = (16, 32, 64, 64)
SPARSE_VOXEL_CHANNELS = (16, 32, 64, 128)
PILLAR_CHANNELS = (32, 64, 128, 256)

# Largest float64 map the dense neck may allocate.
NECK_MAP_BYTES_CAP = 1 << 30


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
        if self.submanifold_layers < 1:
            raise ValueError("submanifold_layers must be at least 1")
        if self.sfl_kernel % 2 == 0 or self.sfl_kernel < 1:
            raise ValueError("sfl_kernel must be odd and positive")
        if self.point_feature_dim < 1 or self.neck_layers < 1 or self.neck_channels < 1:
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
            f"the dense neck needs a {largest / 2**30:.1f} GiB map on this {l8}x{w8} 8x grid, "
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
    """Every named tensor the configured model loads, with its shape."""
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
    return shapes


def _weights(tensors, name: str, spec: ConvSpec) -> ConvWeights:
    return ConvWeights(*(tensors[key] for key in conv_shapes(name, spec)))


def _run_block(voxels, pillars, block, layers: int, tensors):
    """Run one paired block; returns (voxels, pillars, pillar submanifold map).

    Each branch's submanifold layers share one kernel map. The pillar map
    is returned so the fusion layer that follows can reuse it: same
    coordinates, 3x3 kernel and mode.
    """
    convs = block_convs(block, layers)
    downs = [(name, spec) for name, spec in convs if spec.mode == REGULAR]
    if downs:
        (n3, s3), (n2, s2) = downs
        voxels, pillars = paired_downsample(voxels, pillars, s3, s2, _weights(tensors, n3, s3),
                                            _weights(tensors, n2, s2))
    x = {3: voxels, 2: pillars}
    kmaps = {}
    for name, spec in convs:
        if spec.mode == REGULAR:
            continue
        t = x[spec.ndim]
        if spec.ndim not in kmaps:
            kmaps[spec.ndim] = build_kernel_map(t.coords, spec, t.extents)
        x[spec.ndim] = sparse_conv(t, spec, _weights(tensors, name, spec), kmaps[spec.ndim])
    return x[3], x[2], kmaps[2]


def step1_tensors(points, grid: GridSpec, tensors: dict[str, np.ndarray]):
    """Voxelize once and build both step-1 tensors: returns (cloud, voxels, pillars)."""
    enc = PointEncoderWeights(weight=tensors["point_encoder.weight"],
                              bias=tensors["point_encoder.bias"])
    cloud = voxelize(points, grid)
    return cloud, build_voxel_features(cloud), build_pillar_features(cloud, enc)


def encoder_forward(points, grid: GridSpec, cfg: BackboneConfig,
                    tensors: dict[str, np.ndarray]):
    """Run the 4-step encoder; returns the (voxel, pillar) pair after each step."""
    _, voxels, pillars = step1_tensors(points, grid, tensors)
    pairs = []
    for s, block in enumerate(paired_blocks(cfg)[:NUM_STEPS], start=1):
        voxels, pillars, kmap = _run_block(voxels, pillars, block, cfg.submanifold_layers, tensors)
        if cfg.sfl_steps[s - 1]:
            (n_v2p, s_v2p), (n_p2v, s_p2v) = sfl_convs(cfg, s)
            if s_v2p.num_offsets != kmap.num_offsets:
                kmap = build_kernel_map(pillars.coords, s_v2p, pillars.extents)
            corr = build_correspondence(voxels, pillars)
            voxels, pillars = sparse_fusion_layer(
                voxels, pillars, corr, (s_v2p, _weights(tensors, n_v2p, s_v2p)),
                (s_p2v, _weights(tensors, n_p2v, s_p2v)), kmap)
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
    """Scatter sparse features onto a zero dense BEV map.

    3D input is height-compressed first.
    """
    if x.coords.shape[1] == 3:
        x = height_compress(x)
    values = np.zeros(tuple(x.extents) + (x.num_channels,))
    values[x.coords[:, 0], x.coords[:, 1]] = x.features
    return DenseFeatureMap(values=values, stride=x.stride)


def _rows_computed_alike(rows: int, c_in: int, c_out: int) -> bool:
    """Whether a row of a (rows, c_in) @ (c_in, c_out) product gets the same
    bits as in any other product with these widths and at least `rows` rows.

    OpenBLAS 0.3 with AVX-512 kernels was measured to hold this only on
    its packed GEMM path, which it takes when rows * c_in * c_out exceeds
    1e6, and only when c_out is a multiple of 8: no row differed in 600
    such shapes, on 1 and 2 threads. Its small-matrix kernels, and the
    packed path with other output widths, gave a row bits that depend on
    the row count and the row's position in 10-69% of sampled shapes.
    """
    return rows > 1 and c_out % 8 == 0 and rows * c_in * c_out > 1_000_000


def dense_conv3x3(x: np.ndarray, kernel: np.ndarray, stride: int = 1,
                  mask: np.ndarray | None = None) -> np.ndarray:
    """Dense 3x3 cross-correlation with padding 1 on an (L, W, C) array.

    `mask`, used at stride 1 only, marks the output cells that may differ:
    every cell outside it must have a window of the same values, padding
    included. Then only the masked cells and one unmasked cell are
    computed, and that cell's output is copied to the other unmasked
    cells. Each computed cell takes the same products in the same order as
    without a mask, so the output is bitwise the same where BLAS gives a
    row the same dot product whatever the number of rows; where it may
    not (`_rows_computed_alike`), the whole map is computed.
    """
    h, w, c = x.shape
    d = kernel.shape[3]
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    if stride == 1 and mask is not None and not mask.all():
        # the masked cells, then the first unmasked one
        sites = np.append(np.flatnonzero(mask), np.argmin(mask))
        if _rows_computed_alike(min(w, sites.size), c, d):
            corner = sites + sites // w * 2  # flat index of each window's corner in xp
            flat = xp.reshape(-1, c)
            acc = np.zeros((sites.size, d))
            for dy in range(3):
                for dx in range(3):
                    acc += flat[corner + (dy * (w + 2) + dx)] @ kernel[dy, dx]
            out = np.empty((h * w, d))
            out[:] = acc[-1]
            out[sites[:-1]] = acc[:-1]
            return out.reshape(h, w, d)
    h_out = (h + 2 - 3) // stride + 1
    w_out = (w + 2 - 3) // stride + 1
    out = np.zeros((h_out, w_out, d))
    for dy in range(3):
        for dx in range(3):
            window = xp[dy:dy + stride * (h_out - 1) + 1:stride,
                        dx:dx + stride * (w_out - 1) + 1:stride]
            out += window @ kernel[dy, dx]
    return out


def _reach(mask: np.ndarray, padding: bool) -> np.ndarray:
    """Cells whose 3x3 window touches a True cell of `mask`, or the padding if `padding`."""
    h, w = mask.shape
    p = np.pad(mask, 1, constant_values=padding)
    return np.logical_or.reduce([p[dy:dy + h, dx:dx + w] for dy in range(3) for dx in range(3)])


def _dense_block(x, tensors, convs, activation: bool, occupied=None):
    """Run `convs` (neck plan entries), each followed by scale, shift and optional ReLU.

    With `occupied`, the BEV cells that densify filled (stride-1 blocks
    only), each layer computes only the cells that can differ from the
    map's one background vector. At layer 0 the background is the zero of
    the unfilled cells and of the padding. Scale and shift then turn every
    background cell into one vector that is in general not zero, so from
    layer 1 on a cell whose window touches the padding may differ too.
    """
    mask = occupied
    for j, (name, _, _, stride) in enumerate(convs):
        if mask is not None:
            mask = _reach(mask, padding=j > 0)
        x = dense_conv3x3(x, tensors[f"{name}.kernel"], stride, mask)
        x = x * tensors[f"{name}.scale"] + tensors[f"{name}.shift"]
        if activation:
            x = np.maximum(x, 0.0)
    return x


def dense_fusion_neck(pairs, tensors: dict[str, np.ndarray], cfg: BackboneConfig,
                      activation: bool = True) -> DenseFeatureMap:
    """Combine both branches' dense maps at 8x and 16x scales.

    Each branch runs a conv block per scale, in the order of the neck
    plan; same-scale maps fuse by summation, and the upsampled 16x map is
    concatenated onto the 8x map, yielding 2 * neck_channels at stride 8.
    """
    voxels, pillars = _final_pair(pairs)
    convs = neck_convs(cfg, voxels.extents)
    m = cfg.neck_layers
    blocks = [convs[i:i + m] for i in range(0, len(convs), m)]
    maps = []
    for x, block8, block16 in zip((voxels, pillars), blocks[0::2], blocks[1::2]):
        occupied = np.zeros(x.extents[:2], dtype=bool)
        occupied[x.coords[:, 0], x.coords[:, 1]] = True
        m8 = _dense_block(densify(x).values, tensors, block8, activation, occupied)
        maps.append((m8, _dense_block(m8, tensors, block16, activation)))
    (v8, v16), (p8, p16) = maps
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


def sparse_readout(pairs, tensors: dict[str, np.ndarray], cfg: BackboneConfig) -> SparseTensor:
    """Fully sparse multi-scale readout on the 8x BEV lattice.

    Extra paired blocks produce 16x and 32x features; voxels are height
    compressed and projected to the pillar width per scale; everything is
    mapped back to the 8x lattice (coordinate times the stride ratio) and
    summed over the union of sites.
    """
    voxels, pillars = _final_pair(pairs)
    scales = [(voxels, pillars)]
    for block in paired_blocks(cfg)[NUM_STEPS:]:
        v, p, _ = _run_block(*scales[-1], block, cfg.submanifold_layers, tensors)
        scales.append((v, p))
    entries = []
    for v, p in scales:
        ratio = v.stride // 8
        compressed = height_compress(v)
        proj = tensors[f"readout.voxel.proj{v.stride}.weight"]
        if proj.shape[0] != compressed.num_channels:
            raise ShapeMismatch(
                f"projection for scale {v.stride} expects {proj.shape[0]} channels, "
                f"got {compressed.num_channels}")
        entries.append((compressed.coords * ratio, compressed.features @ proj))
        entries.append((p.coords * ratio, p.features))
    return merge_sparse2d(entries, pillars.extents, stride=8)


def forward(points, grid: GridSpec, cfg: BackboneConfig, tensors: dict[str, np.ndarray]):
    """Whole-pipeline pass: encoder pairs plus the variant's readout."""
    pairs = encoder_forward(points, grid, cfg, tensors)
    if cfg.variant == "dense":
        readout = dense_fusion_neck(pairs, tensors, cfg)
    else:
        readout = sparse_readout(pairs, tensors, cfg)
    return pairs, readout
