"""Detection scoring and loss formulas built on the rotated-box geometry."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRange, ShapeMismatch
from .geometry import Box3D, enclosing_aabb, iou3d

_FOCAL_EPS = 1e-7


@dataclass
class LossWeights:
    """Scalar knobs of the overall loss and score rectification."""

    gamma: float = 1.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    rectification_alpha: dict[str, float] = field(
        default_factory=lambda: {"Vehicle": 0.68, "Pedestrian": 0.71, "Cyclist": 0.65})

    def __post_init__(self):
        if self.gamma < 0:
            raise OutOfRange(f"gamma must be non-negative, got {self.gamma}")
        for name, alpha in self.rectification_alpha.items():
            if not 0.0 <= alpha <= 1.0:
                raise OutOfRange(f"rectification alpha for {name} must lie in [0, 1], got {alpha}")


def diou_loss(b: Box3D, gt: Box3D) -> float:
    """1 - IoU plus the squared center offset over the squared enclosing diagonal.

    The enclosing cuboid is axis-aligned over all 16 corners of both boxes.
    """
    lo, hi = enclosing_aabb(b, gt)
    d2 = float(np.sum((hi - lo) ** 2))
    c2 = float(np.sum((np.array(b.center) - np.array(gt.center)) ** 2))
    return 1.0 - iou3d(b, gt) + c2 / d2


def diou_center_gradient(b: Box3D, gt: Box3D) -> np.ndarray:
    """Analytic d(diou_loss)/d(center of b) for axis-aligned boxes.

    Valid only when both headings are 0 and the configuration is away from
    the min/max ties of the overlap and enclosing-box terms.
    """
    if b.heading != 0.0 or gt.heading != 0.0:
        raise OutOfRange("analytic DIoU gradient is only defined for axis-aligned boxes")
    cb = np.array(b.center)
    cg = np.array(gt.center)
    hb = np.array(b.dims) / 2.0
    hg = np.array(gt.dims) / 2.0
    lo_b, hi_b = cb - hb, cb + hb
    lo_g, hi_g = cg - hg, cg + hg

    ov = np.minimum(hi_b, hi_g) - np.maximum(lo_b, lo_g)
    inter = float(np.prod(np.maximum(ov, 0.0)))
    vol_b = float(np.prod(2 * hb))
    vol_g = float(np.prod(2 * hg))
    union = vol_b + vol_g - inter
    # d(overlap_axis)/d(center_b axis): +1 while b's top face is the binding
    # one, -1 while b's bottom face is.
    dov = (hi_b < hi_g).astype(float) - (lo_b > lo_g).astype(float)
    if inter > 0.0:
        others = inter / np.maximum(ov, 1e-300)
        dinter = dov * others
    else:
        dinter = np.zeros(3)
    diou_grad = dinter * (union + inter) / union**2  # d(IoU)/d(center_b)

    ext = np.maximum(hi_b, hi_g) - np.minimum(lo_b, lo_g)
    d2 = float(np.sum(ext**2))
    c2 = float(np.sum((cb - cg) ** 2))
    dext = (hi_b > hi_g).astype(float) - (lo_b < lo_g).astype(float)
    dd2 = 2 * ext * dext
    dc2 = 2 * (cb - cg)
    return -diou_grad + (dc2 * d2 - c2 * dd2) / d2**2


def rectify_score(s_cls: float, iou_pred: float, alpha: float) -> float:
    """Blend classification confidence and IoU: s_cls^(1-a) * iou_pred^a."""
    for name, v in (("s_cls", s_cls), ("iou_pred", iou_pred), ("alpha", alpha)):
        if not 0.0 <= v <= 1.0:
            raise OutOfRange(f"{name} must lie in [0, 1], got {v}")
    return s_cls ** (1.0 - alpha) * iou_pred**alpha


def encode_iou_target(iou: float) -> float:
    """IoU regression target: clamp(2*iou - 0.5, -1, 1)."""
    if not 0.0 <= iou <= 1.0:
        raise OutOfRange(f"iou must lie in [0, 1], got {iou}")
    return min(max(2.0 * iou - 0.5, -1.0), 1.0)


def focal_loss(p, y, alpha_f: float, gamma_f: float):
    """Elementwise binary focal loss -a_t (1 - p_t)^g log(p_t).

    Probabilities are clamped to [eps, 1 - eps] with eps = 1e-7; inputs
    outside [0, 1] raise OutOfRange. Accepts scalars or arrays.
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if ((p < 0.0) | (p > 1.0)).any():
        raise OutOfRange("predicted probabilities must lie in [0, 1]")
    if not np.isin(y, (0.0, 1.0)).all():
        raise OutOfRange("targets must be binary")
    pc = np.clip(p, _FOCAL_EPS, 1.0 - _FOCAL_EPS)
    p_t = np.where(y == 1.0, pc, 1.0 - pc)
    a_t = np.where(y == 1.0, alpha_f, 1.0 - alpha_f)
    out = -a_t * (1.0 - p_t) ** gamma_f * np.log(p_t)
    return float(out) if out.ndim == 0 else out


def iou_l1_terms(iou_pred, iou_actual) -> np.ndarray:
    """Per-element L1 loss of the IoU head against the encoded target."""
    iou_pred = np.asarray(iou_pred, dtype=np.float64)
    targets = np.array([encode_iou_target(v) for v in np.asarray(iou_actual, dtype=np.float64)])
    if iou_pred.shape != targets.shape:
        raise ShapeMismatch(f"iou batches misaligned: {iou_pred.shape} vs {targets.shape}")
    return np.abs(iou_pred - targets)


def regression_l1_terms(pred, target, mask=None) -> np.ndarray:
    """Per-row mean absolute error of box residual vectors.

    `mask` optionally selects which residual components participate.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2:
        raise ShapeMismatch(f"regression batches misaligned: {pred.shape} vs {target.shape}")
    err = np.abs(pred - target)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (pred.shape[1],):
            raise ShapeMismatch(f"mask shape {mask.shape} does not match residual width {pred.shape[1]}")
        err = err[:, mask]
    return err.mean(axis=1)


def overall_loss(cls_terms, iou_terms, reg_terms, diou_terms, weights: LossWeights) -> float:
    """mean(cls) + mean(iou) + gamma * (mean(diou) + mean(reg))."""
    batches = [np.asarray(t, dtype=np.float64) for t in (cls_terms, iou_terms, reg_terms, diou_terms)]
    n = batches[0].size
    if n == 0:
        raise ShapeMismatch("loss batches must be non-empty")
    if any(b.ndim != 1 or b.size != n for b in batches):
        raise ShapeMismatch("loss term batches must be aligned 1-D arrays")
    cls_b, iou_b, reg_b, diou_b = batches
    return float(cls_b.mean() + iou_b.mean() + weights.gamma * (diou_b.mean() + reg_b.mean()))


def finite_difference_check(f, grad, at, step: float = 1e-4) -> float:
    """Max relative error between an analytic gradient and central differences.

    `f` maps a parameter vector to a scalar, `grad` to its gradient; the
    error at each parameter is |analytic - numeric| / max(1, |numeric|).
    """
    at = np.asarray(at, dtype=np.float64)
    analytic = np.asarray(grad(at), dtype=np.float64)
    numeric = np.empty_like(at)
    for i in range(at.size):
        hi = at.copy()
        lo = at.copy()
        hi[i] += step
        lo[i] -= step
        numeric[i] = (f(hi) - f(lo)) / (2.0 * step)
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))))


def diou_center_fd_error(b: Box3D, gt: Box3D, step: float = 1e-4) -> float:
    """Finite-difference agreement of the analytic DIoU center gradient."""

    def f(center):
        return diou_loss(Box3D(tuple(center), b.dims, b.heading), gt)

    def g(center):
        return diou_center_gradient(Box3D(tuple(center), b.dims, b.heading), gt)

    return finite_difference_check(f, g, np.array(b.center), step)

