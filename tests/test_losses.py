import math

import numpy as np
import pytest

from voxpillar.errors import OutOfRange, ShapeMismatch
from voxpillar.geometry import Box3D
from voxpillar.losses import (LossWeights, diou_center_fd_error, diou_loss,
                              encode_iou_target, finite_difference_check, focal_loss,
                              iou_l1_terms, overall_loss, rectify_score,
                              regression_l1_terms)
from voxpillar.selftest import axis_aligned_overlapping_pair, random_box_pair


def test_diou_zero_on_identical():
    b = Box3D(center=(1.0, 2.0, -0.5), dims=(3.0, 1.5, 1.2), heading=0.6)
    assert diou_loss(b, b) == 0.0


def test_diou_disjoint_unit_cubes_analytic():
    # enclosing cuboid is 3 x 1 x 1, so d^2 = 11 and c^2 = 4
    a = Box3D(center=(0, 0, 0), dims=(1, 1, 1), heading=0.0)
    b = Box3D(center=(2.0, 0, 0), dims=(1, 1, 1), heading=0.0)
    assert abs(diou_loss(a, b) - (1.0 + 4.0 / 11.0)) <= 1e-12


def test_diou_center_gradient_matches_fd():
    rng = np.random.default_rng(60)
    for trial in range(20):
        b, gt = axis_aligned_overlapping_pair(rng)
        assert diou_center_fd_error(b, gt, step=1e-4) <= 1e-4


def test_diou_strictly_below_two():
    rng = np.random.default_rng(61)
    for trial in range(300):
        a, b = random_box_pair(rng, max_offset=3.0)
        loss = diou_loss(a, b)
        assert 0.0 <= loss < 2.0


def test_finite_difference_check_quadratic_exact():
    target = np.array([0.3, -0.7, 1.1])

    def f(x):
        return float(np.sum((x - target) ** 2))

    def g(x):
        return 2.0 * (x - target)

    assert finite_difference_check(f, g, np.zeros(3)) <= 1e-8


def test_finite_difference_check_constant():
    err = finite_difference_check(lambda x: 5.0, lambda x: np.zeros(2), np.ones(2))
    assert err == 0.0


def test_rectify_exponent_identities():
    assert rectify_score(0.37, 0.91, 0.0) == 0.37
    assert rectify_score(0.37, 0.91, 1.0) == 0.91
    for alpha in (0.2, 0.5, 0.68):
        assert math.isclose(rectify_score(0.6, 0.6, alpha), 0.6, rel_tol=1e-12)


def test_rectify_monotone_and_argmax():
    alphas = (0.5, 0.65, 0.68, 0.71)
    grid = np.linspace(0.0, 1.0, 21)
    for alpha in alphas:
        scores = np.array([[rectify_score(s, i, alpha) for i in grid] for s in grid])
        assert (np.diff(scores, axis=0) >= -1e-15).all()
        assert (np.diff(scores, axis=1) >= -1e-15).all()
    # with equal iou the best candidate is the best classification score
    cand_cls = np.array([0.2, 0.9, 0.55])
    scores = [rectify_score(s, 0.7, 0.68) for s in cand_cls]
    assert int(np.argmax(scores)) == int(np.argmax(cand_cls))


def test_rectify_out_of_range():
    with pytest.raises(OutOfRange):
        rectify_score(1.2, 0.5, 0.5)
    with pytest.raises(OutOfRange):
        rectify_score(0.5, -0.1, 0.5)
    with pytest.raises(OutOfRange):
        rectify_score(0.5, 0.5, 2.0)


def test_encode_iou_target_values():
    assert encode_iou_target(0.75) == 1.0
    assert encode_iou_target(0.25) == 0.0
    assert encode_iou_target(0.0) == -0.5
    with pytest.raises(OutOfRange):
        encode_iou_target(1.5)


def test_encode_iou_target_affine_then_saturating():
    grid = np.linspace(0.0, 1.0, 101)
    encoded = np.array([encode_iou_target(v) for v in grid])
    assert (np.diff(encoded) >= 0).all()
    low = grid <= 0.75
    np.testing.assert_allclose(encoded[low], 2 * grid[low] - 0.5, atol=1e-12)
    assert (encoded[grid > 0.75] == 1.0).all()


def test_focal_reduces_to_half_bce():
    rng = np.random.default_rng(62)
    p = rng.uniform(0.05, 0.95, size=50)
    y = (rng.uniform(size=50) < 0.5).astype(float)
    focal = focal_loss(p, y, alpha_f=0.5, gamma_f=0.0)
    bce = -(y * np.log(p) + (1 - y) * np.log(1 - p))
    np.testing.assert_allclose(focal, 0.5 * bce, rtol=1e-12)


def test_focal_vanishes_when_confident():
    assert focal_loss(1.0, 1.0, 0.25, 2.0) <= 1e-6
    assert focal_loss(0.0, 0.0, 0.25, 2.0) <= 1e-6


def test_focal_matches_direct_formula():
    rng = np.random.default_rng(63)
    alpha_f, gamma_f = 0.25, 2.0
    for p in rng.uniform(0.001, 0.999, size=40):
        for y in (0.0, 1.0):
            p_t = p if y == 1.0 else 1.0 - p
            a_t = alpha_f if y == 1.0 else 1.0 - alpha_f
            expect = -a_t * (1.0 - p_t) ** gamma_f * math.log(p_t)
            assert abs(focal_loss(p, y, alpha_f, gamma_f) - expect) <= 1e-7


def test_focal_rejects_bad_inputs():
    with pytest.raises(OutOfRange):
        focal_loss(1.5, 1.0, 0.25, 2.0)
    with pytest.raises(OutOfRange):
        focal_loss(0.5, 0.3, 0.25, 2.0)


def test_loss_weights_validation():
    with pytest.raises(OutOfRange):
        LossWeights(gamma=-1.0)
    with pytest.raises(OutOfRange):
        LossWeights(rectification_alpha={"Vehicle": 1.5})


def random_loss_batch(rng, n=16):
    cls_terms = focal_loss(rng.uniform(0.01, 0.99, size=n),
                           (rng.uniform(size=n) < 0.5).astype(float), 0.25, 2.0)
    iou_terms = iou_l1_terms(rng.uniform(-1, 1, size=n), rng.uniform(0, 1, size=n))
    reg_terms = regression_l1_terms(rng.normal(size=(n, 7)), rng.normal(size=(n, 7)))
    diou_terms = np.array([diou_loss(*random_box_pair(rng)) for _ in range(n)])
    return cls_terms, iou_terms, reg_terms, diou_terms


def test_overall_loss_gamma_zero():
    rng = np.random.default_rng(64)
    cls_t, iou_t, reg_t, diou_t = random_loss_batch(rng)
    got = overall_loss(cls_t, iou_t, reg_t, diou_t, LossWeights(gamma=0.0))
    assert abs(got - (cls_t.mean() + iou_t.mean())) <= 1e-6


def test_overall_loss_perfect_predictions():
    n = 8
    cls_t = focal_loss(np.ones(n), np.ones(n), 0.25, 2.0)
    iou_t = iou_l1_terms(np.ones(n), np.full(n, 0.75))
    reg_t = regression_l1_terms(np.zeros((n, 7)), np.zeros((n, 7)))
    b = Box3D(center=(0, 0, 0), dims=(1, 1, 1), heading=0.0)
    diou_t = np.array([diou_loss(b, b)] * n)
    assert overall_loss(cls_t, iou_t, reg_t, diou_t, LossWeights()) <= 1e-5


def test_overall_loss_recomposition():
    rng = np.random.default_rng(65)
    weights = LossWeights(gamma=1.7)
    cls_t, iou_t, reg_t, diou_t = random_loss_batch(rng)
    got = overall_loss(cls_t, iou_t, reg_t, diou_t, weights)
    expect = (sum(cls_t) / len(cls_t) + sum(iou_t) / len(iou_t)
              + weights.gamma * (sum(diou_t) / len(diou_t) + sum(reg_t) / len(reg_t)))
    assert abs(got - expect) <= 1e-6


def test_overall_loss_misaligned_batches():
    with pytest.raises(ShapeMismatch):
        overall_loss(np.ones(3), np.ones(3), np.ones(4), np.ones(3), LossWeights())
    with pytest.raises(ShapeMismatch):
        overall_loss(np.ones(0), np.ones(0), np.ones(0), np.ones(0), LossWeights())


def test_regression_mask():
    pred = np.array([[1.0, 2.0, 3.0]])
    target = np.array([[0.0, 0.0, 0.0]])
    full = regression_l1_terms(pred, target)
    masked = regression_l1_terms(pred, target, mask=[True, False, False])
    np.testing.assert_allclose(full, [2.0])
    np.testing.assert_allclose(masked, [1.0])
