"""The oracle-backed checks, shared by `voxpillar selftest`, the acceptance tests and `iou-check`.

Each `check_*(cases)` draws its cases from its own seeded stream, so a smaller
count runs the first cases of the same stream. Checks fail through `_require`,
which, unlike an assert statement, survives python -O.
"""
from __future__ import annotations

import math

import numpy as np

from .backbone import (_dense_block, default_backbone_config, encoder_forward, forward,
                       output_records, plan_forward, required_weights, window_plan)
from .density import density_records, recall_by_density, vertical_density
from .fusion import broadcast, build_correspondence, sparse_fusion_layer, sparse_pool
from .geometry import Box3D, iou3d
from .grid import GridSpec, SparseTensor
from .losses import (LossWeights, diou_center_fd_error, diou_loss, encode_iou_target, focal_loss,
                     iou_l1_terms, overall_loss, rectify_score, regression_l1_terms)
from .manifest import _seed_tensors, resolve_weights
from .reference import (dense_conv_reference, dense_correspondence_matrix,
                        density_bins_reference, enumerate_kernel_map, groupby_max,
                        monte_carlo_iou, recall_by_density_reference)
from .sparse_conv import ConvSpec, ConvWeights, Lanes, bev_equal, build_kernel_map, sparse_conv

SMALL_GRID = GridSpec((0.0, 0.0, 0.0), (1.6, 1.6, 1.2), (0.1, 0.1, 0.15))
IOU_TOLERANCE = 0.01
# `voxpillar iou-check` refuses counts whose arrays would pass this cap: the `trials`
# float64 errors, or one pair's Monte-Carlo arrays, measured by tracemalloc at 75 bytes a
# sample.
IOU_CHECK_BYTES_CAP = 1 << 30
MC_BYTES_PER_SAMPLE = 80
# The bound of the neck's window classes against full-map layers, relative to the map's
# largest value (at least 1); on OpenBLAS's x86 kernels it was measured to move by at
# most about 1.3e-15.
NECK_CLASSES_RTOL = 1e-12


def _require(cond, what: str):
    if not cond:
        raise AssertionError(what)


def random_cloud(rng: np.random.Generator, n: int, spec: GridSpec) -> np.ndarray:
    """Uniform points inside the grid range with uniform intensities."""
    pts = np.empty((n, 4))
    pts[:, :3] = rng.uniform(np.array(spec.range_min), np.array(spec.range_max), size=(n, 3))
    pts[:, 3] = rng.uniform(0.0, 1.0, size=n)
    return pts


def random_sparse(rng, extents, density, channels) -> SparseTensor:
    total = int(np.prod(extents))
    n = max(1, int(round(total * density)))
    flat = np.sort(rng.choice(total, size=n, replace=False))
    coords = np.stack(np.unravel_index(flat, extents), axis=1).astype(np.int64)
    return SparseTensor(coords=coords, features=rng.normal(size=(n, channels)), stride=1,
                        extents=tuple(extents))


def random_consistent_pair(rng, n_cols) -> tuple[SparseTensor, SparseTensor]:
    """Voxels (3 channels) on a 6 x 6 x 4 grid and the pillars (5 channels) of their columns."""
    extents = (6, 6, 4)
    cols = np.sort(rng.choice(extents[0] * extents[1], size=n_cols, replace=False))
    pillar_coords = np.stack(np.unravel_index(cols, extents[:2]), axis=1)
    voxel_coords = []
    for l, w in pillar_coords:
        hs = np.sort(rng.choice(extents[2], size=int(rng.integers(1, extents[2] + 1)),
                                replace=False))
        voxel_coords.extend((l, w, h) for h in hs)
    voxel_coords = np.asarray(voxel_coords, dtype=np.int64)
    v = SparseTensor(coords=voxel_coords, features=rng.normal(size=(len(voxel_coords), 3)),
                     stride=1, extents=extents)
    p = SparseTensor(coords=pillar_coords, features=rng.normal(size=(n_cols, 5)),
                     stride=1, extents=extents[:2])
    return v, p


def random_box_pair(rng, max_offset=1.0) -> tuple[Box3D, Box3D]:
    center = rng.uniform(-2, 2, size=3)
    a = Box3D(center=tuple(center), dims=tuple(rng.uniform(0.8, 2.5, size=3)),
              heading=rng.uniform(-math.pi, math.pi))
    b = Box3D(center=tuple(center + rng.uniform(-max_offset, max_offset, size=3)),
              dims=tuple(rng.uniform(0.8, 2.5, size=3)),
              heading=rng.uniform(-math.pi, math.pi))
    return a, b


def axis_aligned_overlapping_pair(rng) -> tuple[Box3D, Box3D]:
    """theta = 0 boxes with safely overlapping interiors and no face ties."""
    while True:
        ca = rng.uniform(-1, 1, size=3)
        da = rng.uniform(1.0, 2.5, size=3)
        cb = ca + rng.uniform(-0.4, 0.4, size=3)
        db = rng.uniform(1.0, 2.5, size=3)
        a = Box3D(center=tuple(ca), dims=tuple(da), heading=0.0)
        b = Box3D(center=tuple(cb), dims=tuple(db), heading=0.0)
        lo_a, hi_a = ca - da / 2, ca + da / 2
        lo_b, hi_b = cb - db / 2, cb + db / 2
        overlap = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
        ties = np.minimum(np.abs(hi_a - hi_b), np.abs(lo_a - lo_b))
        if (overlap > 0.05).all() and (ties > 0.01).all():
            return a, b


def random_recall_scene(rng):
    """A crowded 3-class recall scene: ground truths with points in and around them, and
    predictions jittered from them or exact copies (which tie), under their ground
    truth's class, another class or Truck, which no ground truth has. Either list may
    be empty; thresholds are one float or one per class."""
    classes = ["Vehicle", "Pedestrian", "Cyclist"]

    def box(heading):
        return Box3D(tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(0.5, 2.5, 3)), heading)

    gts = [box(rng.uniform(-math.pi, math.pi)) for _ in range(rng.integers(0, 9))]
    gt_classes = [classes[i] for i in rng.integers(0, 3, len(gts))]
    points = [np.column_stack((rng.uniform(-3, 3, (k, 3)), np.zeros(k)))
              for k in rng.integers(0, 40, len(gts))]
    preds, pred_classes = [], []
    for _ in range(rng.integers(0, 12)):
        g = int(rng.integers(len(gts))) if gts and rng.random() < 0.8 else None
        pred = box(0.0) if g is None else Box3D(
            tuple(np.array(gts[g].center) + rng.normal(0, 0.2, 3)), gts[g].dims,
            gts[g].heading + rng.normal(0, 0.1))
        cls = gt_classes[g] if g is not None and rng.random() < 0.8 else \
            (classes + ["Truck"])[rng.integers(4)]
        copies = 2 if rng.random() < 0.3 else 1
        preds += [pred] * copies
        pred_classes += [cls] * copies
    if rng.random() < 0.3:
        return gts, gt_classes, points, preds, pred_classes, float(rng.choice([0.3, 0.5]))
    return gts, gt_classes, points, preds, pred_classes, {
        c: float(rng.choice([0.1, 0.3, 0.5, 0.7])) for c in classes}


def iou_monte_carlo_errors(trials: int, seed: int, samples: int = 1_000_000) -> np.ndarray:
    """|iou3d - Monte-Carlo IoU| for each of `trials` seeded random box pairs."""
    rng = np.random.default_rng(seed)
    errors = np.empty(trials)
    for trial in range(trials):
        a, b = random_box_pair(rng)
        mc = monte_carlo_iou(a, b, samples=samples, seed=int(rng.integers(1 << 31)))
        errors[trial] = abs(iou3d(a, b) - mc)
    return errors


def check_sparse_conv(cases):
    """c01: sparse convolution equals the densify-convolve-mask oracle."""
    rng = np.random.default_rng(201)
    for case in range(cases):
        ndim = 3 if case % 2 == 0 else 2
        hi = 16 if ndim == 3 else 32
        extents = tuple(int(v) for v in rng.integers(6, hi + 1, size=ndim))
        density = rng.uniform(0.05, 0.5)
        cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = random_sparse(rng, extents, density, cin)
        if case % 4 < 2:
            spec = ConvSpec.submanifold(ndim, 3, cin, cout)
        else:
            spec = ConvSpec.regular(ndim, 3, 2, 1, cin, cout)
        w = ConvWeights(kernel=rng.normal(size=(spec.num_offsets, cin, cout)),
                        bias=rng.normal(size=cout) if case % 3 == 0 else None)
        out = sparse_conv(x, spec, w, build_kernel_map(x.coords, spec, x.extents))
        dense = dense_conv_reference(x.coords, x.features, x.extents, spec, w)
        _require(np.allclose(out.features, dense[tuple(out.coords.T)], rtol=1e-5, atol=1e-8),
                 f"case {case}: sparse conv differs from the dense oracle")


def kernel_map_case(rng, case) -> tuple[np.ndarray, ConvSpec, tuple[int, ...]]:
    """Coordinates, spec and extents of one kernel-map case.

    The case number cycles through 3D and 2D, submanifold and regular, and
    four site sets: one site, the full grid, border sites only and a random
    share. Kernels are drawn from 1, 3 and 5 per axis, regular strides from
    1-3 and paddings from 0-2.
    """
    ndim = 3 if case % 2 == 0 else 2
    kernel = tuple(int(v) for v in rng.choice((1, 3, 5), size=ndim))
    if case % 4 < 2:
        spec = ConvSpec.submanifold(ndim, kernel, 1, 1)
    else:
        spec = ConvSpec.regular(ndim, kernel, tuple(int(v) for v in rng.integers(1, 4, size=ndim)),
                                tuple(int(v) for v in rng.integers(0, 3, size=ndim)), 1, 1)
    hi = 6 if ndim == 3 else 11
    extents = tuple(int(rng.integers(max(1, k - 2 * p), hi + 1))
                    for k, p in zip(spec.kernel, spec.padding))
    grid = np.stack(np.unravel_index(np.arange(int(np.prod(extents))), extents), axis=1)
    kind = case // 4 % 4
    if kind == 0:
        keep = np.zeros(grid.shape[0], dtype=bool)
        keep[rng.integers(grid.shape[0])] = True
    elif kind == 1:
        keep = np.ones(grid.shape[0], dtype=bool)
    elif kind == 2:
        keep = ((grid == 0) | (grid == np.array(extents) - 1)).any(axis=1)
        keep &= rng.uniform(size=grid.shape[0]) < 0.6
    else:
        keep = rng.uniform(size=grid.shape[0]) < rng.uniform(0.05, 0.5)
    return grid[keep].astype(np.int64), spec, extents


def check_kernel_map(cases):
    """Kernel-map input and output columns and output coordinates equal the brute-force
    enumeration byte for byte, the segment bounds split the enumeration's triples by
    offset, and the row split divides each segment at its cut without a one-row half."""
    rng = np.random.default_rng(212)
    for case in range(cases):
        coords, spec, extents = kernel_map_case(rng, case)
        kmap = build_kernel_map(coords, spec, extents)
        triples, out_coords = enumerate_kernel_map(coords, spec, extents)
        _require(kmap.triples.shape == triples[:, :2].shape
                 and kmap.triples.tobytes() == triples[:, :2].tobytes(),
                 f"case {case}: kernel-map triples differ from the enumeration")
        _require(kmap.out_coords.shape == out_coords.shape
                 and kmap.out_coords.tobytes() == out_coords.tobytes(),
                 f"case {case}: kernel-map output coordinates differ from the enumeration")
        want = np.searchsorted(triples[:, 2], np.arange(spec.num_offsets + 1))
        _require(kmap.bounds.shape == want.shape and (kmap.bounds == want).all(),
                 f"case {case}: kernel-map segment bounds differ from the offset column")
        m, dst = out_coords.shape[0], triples[:, 1]
        for k, (lo, mid, hi) in enumerate(zip(want[:-1], kmap.mid, want[1:])):
            _require(0 <= kmap.cut <= m and lo <= mid <= hi and (dst[lo:mid] < kmap.cut).all()
                     and (dst[mid:hi] >= kmap.cut).all()
                     and (hi - lo < 2 or 1 not in (mid - lo, hi - mid)),
                     f"case {case}: offset {k} is not split at row {kmap.cut} without a "
                     f"one-row half")


def check_bev_consistency(cases):
    """c02: voxel and pillar BEV occupancy are equal at every encoder step."""
    cfg = default_backbone_config("dense")
    tensors = resolve_weights(required_weights(SMALL_GRID, cfg), None, seed=202)
    rng = np.random.default_rng(202)
    for case in range(cases):
        pts = random_cloud(rng, int(rng.integers(5, 200)), SMALL_GRID)
        pairs = encoder_forward(plan_forward(pts, SMALL_GRID, cfg), tensors)
        _require(len(pairs) == 4, f"cloud {case}: {len(pairs)} encoder steps, expected 4")
        for step, (v, p) in enumerate(pairs, start=1):
            _require(bev_equal(v, p), f"cloud {case}: voxel and pillar BEV differ at step {step}")


def check_fusion(cases):
    """c03: pool and broadcast oracles, their round trip, and zero-weight SFL identity."""
    rng = np.random.default_rng(203)
    for case in range(cases):
        v, p = random_consistent_pair(rng, int(rng.integers(1, 18)))
        corr = build_correspondence(v.coords, p.coords)
        dense = dense_correspondence_matrix(v.coords, p.coords)
        _require((dense.sum(axis=1) == 1).all(), f"pair {case}: a voxel is not in one pillar")
        pooled = sparse_pool(v, corr)
        oracle = groupby_max(v.features, v.coords[:, :2])
        for coord, feat in zip(p.coords, pooled):
            _require((feat == oracle[tuple(coord)]).all(), f"pair {case}: pillar pooled wrong")
        copied = broadcast(p, corr)
        for i, j in enumerate(dense.argmax(axis=1)):
            _require((copied[i] == p.features[j]).all(),
                     f"pair {case}: voxel {i} broadcast wrong")
        v_like = SparseTensor(v.coords, copied, 1, v.extents)
        _require((sparse_pool(v_like, corr) == p.features).all(),
                 f"pair {case}: pool of broadcast is not the pillars")
        convs = [(ConvSpec.submanifold(2, 3, a, b), ConvWeights(kernel=np.zeros((9, a, b))))
                 for a, b in ((v.num_channels, p.num_channels), (p.num_channels, v.num_channels))]
        fv, fp = sparse_fusion_layer(v, p, *convs, build_kernel_map(
            p.coords, ConvSpec.submanifold(2, 3, 1, 1), p.extents), corr)
        _require(fv.features.tobytes() == v.features.tobytes(),
                 f"pair {case}: zero fusion changed the voxels")
        _require(fp.features.tobytes() == p.features.tobytes(),
                 f"pair {case}: zero fusion changed the pillars")


def check_iou(cases):
    """c04: analytic IoU cases are exact; random pairs lie within 0.01 of Monte-Carlo."""
    b = Box3D((0.3, 0.1, -0.4), (1.2, 2.1, 0.9), 0.83)
    _require(iou3d(b, b) == 1.0, "self IoU is not 1")
    _require(iou3d(Box3D((0, 0, 0), (1, 1, 1), 0.1), Box3D((100, 0, 0), (1, 1, 1), 0.7)) == 0.0,
             "disjoint IoU is not 0")
    offset = iou3d(Box3D((0, 0, 0), (1, 1, 1), 0.0), Box3D((0.5, 0, 0), (1, 1, 1), 0.0))
    _require(abs(offset - 1.0 / 3.0) <= 1e-9, "half-shifted cube IoU is not 1/3")
    errors = iou_monte_carlo_errors(cases, seed=204)
    _require((errors <= IOU_TOLERANCE).all(),
             f"IoU differs from Monte-Carlo by up to {errors.max():.6f}")


def check_diou(cases):
    """c05: DIoU values 0 and 1 + 4/11, center gradient within 1e-4, bound below 2."""
    b = Box3D((1.0, -2.0, 0.3), (2.0, 1.0, 1.5), 0.4)
    _require(diou_loss(b, b) == 0.0, "self DIoU loss is not 0")
    # the enclosing cuboid is 3 x 1 x 1, so d^2 = 11 and c^2 = 4
    disjoint = diou_loss(Box3D((0, 0, 0), (1, 1, 1), 0.0), Box3D((2, 0, 0), (1, 1, 1), 0.0))
    _require(abs(disjoint - (1 + 4 / 11)) <= 1e-12, f"disjoint DIoU loss is {disjoint}")
    rng = np.random.default_rng(205)
    for case in range(cases):
        pred, gt = axis_aligned_overlapping_pair(rng)
        err = diou_center_fd_error(pred, gt, step=1e-4)
        _require(err <= 1e-4, f"config {case}: DIoU gradient off by {err}")
    for case in range(50 * cases):
        a, c = random_box_pair(rng, max_offset=3.0)
        _require(diou_loss(a, c) < 2.0, f"pair {case}: DIoU loss is not below 2")


def check_rectification(cases):
    """c06: rectification passes s at alpha 0 and IoU at alpha 1, and is monotone in both."""
    grid = np.linspace(0.0, 1.0, cases)
    for s in grid:
        for i in grid:
            _require(rectify_score(s, i, 0.0) == s, f"alpha 0 changes score {s}")
            _require(rectify_score(s, i, 1.0) == i, f"alpha 1 does not give IoU {i}")
    for alpha in (0.5, 0.65, 0.68, 0.71):
        scores = np.array([[rectify_score(s, i, alpha) for i in grid] for s in grid])
        _require((np.diff(scores, axis=0) >= -1e-15).all(), f"alpha {alpha}: not monotone in s")
        _require((np.diff(scores, axis=1) >= -1e-15).all(), f"alpha {alpha}: not monotone in IoU")


def check_overall_loss(cases):
    """c07: IoU target encoding values; the overall loss recomposes from its `cases` terms."""
    _require(encode_iou_target(0.75) == 1.0, "IoU target does not clamp at 1")
    _require(encode_iou_target(0.25) == 0.0, "IoU target at 0.25 is not 0")
    _require(encode_iou_target(0.0) == -0.5, "IoU target at 0 is not -0.5")
    rng = np.random.default_rng(207)
    n = cases
    cls_t = focal_loss(rng.uniform(0.01, 0.99, n), (rng.uniform(size=n) < 0.5).astype(float),
                       0.25, 2.0)
    iou_t = iou_l1_terms(rng.uniform(-1, 1, n), rng.uniform(0, 1, n))
    reg_t = regression_l1_terms(rng.normal(size=(n, 7)), rng.normal(size=(n, 7)))
    diou_t = np.array([diou_loss(*random_box_pair(rng)) for _ in range(n)])
    gamma = 1.3
    got = overall_loss(cls_t, iou_t, reg_t, diou_t, LossWeights(gamma=gamma))
    expect = cls_t.mean() + iou_t.mean() + gamma * (diou_t.mean() + reg_t.mean())
    _require(abs(got - expect) <= 1e-6, f"overall loss {got}, recomposed {expect}")
    zero_gamma = overall_loss(cls_t, iou_t, reg_t, diou_t, LossWeights(gamma=0.0))
    _require(abs(zero_gamma - (cls_t.mean() + iou_t.mean())) <= 1e-6,
             "gamma 0 does not drop the box terms")


def check_density(cases):
    """c08: k stacked points give S_Z = k/10 exactly; rotated binning matches the oracle
    and is the same on a column-major copy of the points and on a copy sorted by x, as
    `read_cloud` returns clouds; the batched records of all cases equal the one-box
    records; recall rows of crowded multi-class scenes equal the reference matching and
    binning."""
    box = Box3D((0.4, -0.7, 0.2), (1.1, 2.3, 1.7), 0.35)
    h = box.dims[2]
    z0 = box.center[2] - h / 2
    for k in range(11):
        pts = np.array([[box.center[0], box.center[1], z0 + (i + 0.5) * h / 10, 0.0]
                        for i in range(k)]).reshape(-1, 4)
        _require(vertical_density(pts, box).s_z == k / 10, f"{k} stacked points")
    rng = np.random.default_rng(208)
    boxes, lists = [box], [np.empty((0, 4))]
    for case in range(cases):
        rot = Box3D(tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(0.8, 3.0, 3)),
                    rng.uniform(-math.pi, math.pi))
        pts = np.empty((200, 4))
        pts[:, :3] = rng.uniform(-4, 4, size=(200, 3))
        pts[:, 3] = 0.0
        boxes.append(rot)
        lists.append(pts)
        rec = vertical_density(pts, rot)
        occ_x, occ_y, occ_z = density_bins_reference(pts, rot)
        _require(rec.s_z == len(occ_z) / 10, f"box {case}: S_Z differs from the oracle")
        _require(rec.horizontal_occupancy == math.sqrt((len(occ_x) / 10) * (len(occ_y) / 10)),
                 f"box {case}: horizontal occupancy differs from the oracle")
        _require(repr(vertical_density(np.asfortranarray(pts), rot)) == repr(rec),
                 f"box {case}: the record differs on a column-major copy of the points")
        x_sorted = pts[np.argsort(pts[:, 0], kind="stable")]
        _require(repr(vertical_density(x_sorted, rot)) == repr(rec),
                 f"box {case}: the record differs on an x-sorted copy of the points")
    one_box = [vertical_density(pts, b, box_id=i) for i, (b, pts) in enumerate(zip(boxes, lists))]
    _require(density_records(boxes, lists) == one_box,
             "the batched records differ from the one-box records")
    for case in range(cases):
        scene = random_recall_scene(rng)
        _require(recall_by_density(*scene) == recall_by_density_reference(*scene),
                 f"scene {case}: recall rows differ from per-class reference matching and binning")


def full_layers(x, tensors, convs, activation) -> np.ndarray:
    """The neck `convs` on the (L, W, C) map `x` as plain layers: each the dense
    convolution oracle over every cell, then scale, shift and the ReLU."""
    for name, c, d, stride in convs:
        cells = np.indices(x.shape[:2]).reshape(2, -1).T
        x = dense_conv_reference(cells, x.reshape(-1, c), x.shape[:2],
                                 ConvSpec.regular(2, 3, stride, 1, c, d),
                                 ConvWeights(tensors[f"{name}.kernel"].reshape(9, c, d)))
        x = x * tensors[f"{name}.scale"] + tensors[f"{name}.shift"]
        if activation:
            x = np.maximum(x, 0.0)
    return x


def class_block(x, occupied, tensors, convs, activation) -> np.ndarray:
    """The neck `convs` on the (L, W, C) map `x`, zero outside `occupied`, through the
    window classes of `_dense_block`, on the calling thread."""
    taps, labels = window_plan(occupied, [stride for *_, stride in convs])
    table = np.concatenate([np.zeros((1, x.shape[2])), x[occupied]])
    return _dense_block([table], taps, [convs], tensors, activation, Lanes())[0][labels[-1]]


def check_neck_classes(cases):
    """A neck block that computes one row per distinct 3x3 window equals plain full-map
    layers within NECK_CLASSES_RTOL of the map's largest value, and is bitwise equal on a
    rerun. Cases cover stride 1 and a stride-2 layer followed by stride-1 layers (the
    16x block), odd extents, maps one cell wide, and full occupancy, where no window
    repeats at the first layer."""
    rng = np.random.default_rng(211)
    for case in range(cases):
        l, w = (int(v) for v in rng.integers(1, 25, size=2))
        kind = case % 4  # stride 1; stride 2 on odd extents; 1 wide; 1 wide, stride 2
        if kind == 1:
            l, w = l | 1, w | 1
        elif kind >= 2:
            l, w = (l, 1) if case % 8 < 4 else (1, w)
        c, d = (int(v) for v in rng.integers(1, 257, size=2))
        layers, activation = case % 5 + 1, case % 8 < 4
        # all cells occupied, a single cell, or a seeded share
        share = (1.0, 0.0, rng.uniform(0.02, 0.4))[case % 3]
        n = max(1, int(round(l * w * share)))
        occupied = np.zeros(l * w, dtype=bool)
        occupied[rng.choice(l * w, size=n, replace=False)] = True
        occupied = occupied.reshape(l, w)
        x = np.zeros((l, w, c))
        x[occupied] = rng.normal(size=(n, c))
        convs, tensors, c_in = [], {}, c
        for j in range(layers):
            name = f"neck.case{case}.conv{j}"
            convs.append((name, c_in, d, 2 if j == 0 and kind % 2 == 1 else 1))
            tensors[f"{name}.kernel"] = rng.normal(size=(3, 3, c_in, d))
            tensors[f"{name}.scale"] = rng.normal(size=d)
            tensors[f"{name}.shift"] = rng.normal(size=d)
            c_in = d
        want = full_layers(x, tensors, convs, activation)
        got = class_block(x, occupied, tensors, convs, activation)
        _require(got.shape == want.shape, f"case {case}: the window-class neck block has shape "
                                          f"{got.shape}, the full-map layers {want.shape}")
        err = np.abs(got - want).max()
        _require(err <= NECK_CLASSES_RTOL * max(1.0, np.abs(want).max()),
                 f"case {case}: the window-class neck block differs from the full-map layers "
                 f"by {err}")
        _require(class_block(x, occupied, tensors, convs, activation).tobytes() == got.tobytes(),
                 f"case {case}: the window-class neck block differs on a rerun")


def forward_bytes(points, grid, cfg, tensors, lanes=None) -> bytes:
    """The `output_bytes` of `forward`."""
    return output_bytes(*forward(points, grid, cfg, tensors, lanes))


def output_bytes(pairs, readout) -> bytes:
    """The coordinates and features of every `output_records` record, concatenated."""
    return b"".join(a.tobytes() for _, coords, features, *_ in output_records(pairs, readout)
                    for a in (coords, features))


def require_same_tensors(one: dict, other: dict, what: str):
    """Fail unless the two tensor mappings hold the same names in the same order, each tensor
    with the same dtype, shape and bytes."""
    _require(list(one) == list(other), f"{what}: the tensor names or their order differ")
    for name, a in one.items():
        b = other[name]
        _require(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(),
                 f"{what}: tensor {name!r} differs")


def check_seeding_threads(required: dict, seed: int):
    """Seeded weights filled on one thread and on four threads are the same."""
    require_same_tensors(_seed_tensors(required, seed, 1), _seed_tensors(required, seed, 4),
                         f"seed {seed}, 1 and 4 seeding threads")


def check_lanes(points, grid, cfg, tensors, what: str):
    """`forward` gives the same bytes on one lane and on two: every encoder step and the
    readout, dense neck or sparse 16x/32x blocks."""
    runs = []
    for count in (1, 2):
        with Lanes(count) as lanes:
            runs.append(forward_bytes(points, grid, cfg, tensors, lanes))
    _require(runs[0] == runs[1], f"{what}: forward differs on one and two lanes")


def check_determinism(cases):
    """c09 in memory: bitwise reruns of both variants, seeding alike on one thread and on
    several, and forward alike on one lane and on two; without SFLs, bitwise branch
    isolation."""
    rng = np.random.default_rng(209)
    rerun_pts = random_cloud(rng, 150, SMALL_GRID)
    isolation_pts = random_cloud(rng, 120, SMALL_GRID)
    for variant in ("sparse", "dense"):
        cfg = default_backbone_config(variant)
        required = required_weights(SMALL_GRID, cfg)
        check_seeding_threads(required, 209)
        tensors = resolve_weights(required, None, seed=209)
        first = forward_bytes(rerun_pts, SMALL_GRID, cfg, tensors)
        for rerun in range(cases):
            _require(forward_bytes(rerun_pts, SMALL_GRID, cfg, tensors) == first,
                     f"{variant} rerun {rerun} differs")
        check_lanes(rerun_pts, SMALL_GRID, cfg, tensors, f"{variant}, seed 209")

    cfg = type(cfg)(**{**cfg.__dict__, "sfl_steps": (False,) * 4})
    # seeded weights are keyed by name, so the dense model's tensors hold all of its
    # weights with the fusion layers off
    tensors = {name: tensors[name] for name in required_weights(SMALL_GRID, cfg)}
    plan = plan_forward(isolation_pts, SMALL_GRID, cfg)
    base = encoder_forward(plan, tensors)
    for kept, other in ((0, ("pillar.", "point_encoder.")), (1, ("voxel.",))):
        jitter = {name: t + 1.0 if name.startswith(other) else t for name, t in tensors.items()}
        moved = encoder_forward(plan, jitter)
        for step, (a, b) in enumerate(zip(base, moved), start=1):
            _require(a[kept].features.tobytes() == b[kept].features.tobytes(),
                     f"step {step}: the {('voxels', 'pillars')[kept]} moved with {other} weights")


# (name, check, selftest cases, acceptance cases)
SUITES = [
    ("sparse-conv dense oracle", check_sparse_conv, 30, 200),
    ("kernel maps equal the brute-force enumeration", check_kernel_map, 16, 400),
    ("BEV equality at every encoder step", check_bev_consistency, 5, 100),
    ("fusion pool/broadcast oracles", check_fusion, 20, 100),
    ("rotated IoU analytic + Monte-Carlo", check_iou, 3, 50),
    ("DIoU values, gradient and bound", check_diou, 4, 20),
    ("score rectification", check_rectification, 50, 50),
    ("overall loss and IoU target encoding", check_overall_loss, 24, 24),
    ("vertical density binning", check_density, 25, 25),
    ("forward determinism and branch isolation", check_determinism, 1, 1),
    ("neck window classes match the full-map layers", check_neck_classes, 24, 100),
]


def run_selftest(out) -> bool:
    ok = True
    for name, check, cases, _ in SUITES:
        try:
            check(cases)
        except Exception as exc:  # a check that crashes fails its suite, not the run
            ok = False
            print(f"selftest {name}: FAIL ({type(exc).__name__}: {exc})", file=out)
        else:
            print(f"selftest {name}: ok", file=out)
    return ok
