"""Geometry unit tests: angle wrapping, rigid transforms, and rotated IoU.

The IoU oracle here is a seeded Monte-Carlo volume estimate; the full
100-pair sweep lives in the acceptance suite, this file keeps a handful
of cheap spot checks plus exact hand-computable cases.
"""

import math

import numpy as np
import pytest

from cooptrack.geometry import (
    Box7,
    PoseYawT,
    bev_intersection_area,
    inverse_pose,
    iou3d,
    transform_box,
    transform_point,
    wrap_angle,
)


def test_wrap_angle_range_and_fixed_points():
    rng = np.random.default_rng(7)
    for a in rng.uniform(-50.0, 50.0, size=500):
        w = wrap_angle(float(a))
        assert -math.pi <= w < math.pi
        # Wrapped angle differs from the input by an exact multiple of 2*pi.
        k = (a - w) / (2.0 * math.pi)
        assert abs(k - round(k)) < 1e-9
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_wrap_angle_idempotent():
    rng = np.random.default_rng(8)
    for a in rng.uniform(-20.0, 20.0, size=200):
        w = wrap_angle(float(a))
        assert wrap_angle(w) == w


def test_box7_validation():
    with pytest.raises(ValueError):
        Box7(0, 0, 0, 0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Box7(0, 0, 0, 0, 1.0, 0.0, 1.0)
    b = Box7(1, 2, 3, 4.0, 5, 6, 7)
    assert b.a == pytest.approx(wrap_angle(4.0))


def test_box7_vector_round_trip():
    v = np.array([1.0, -2.0, 0.5, 0.3, 4.0, 2.0, 1.5])
    b = Box7.from_vector(v)
    assert np.allclose(b.to_vector(), v)
    assert b.volume() == pytest.approx(4.0 * 2.0 * 1.5)


def test_bev_corners_ccw_and_axis_aligned():
    b = Box7(10.0, -5.0, 0.0, 0.0, 4.0, 2.0, 1.0)
    corners = b.bev_corners()
    assert corners[0] == pytest.approx((12.0, -4.0))
    assert corners[1] == pytest.approx((8.0, -4.0))
    assert corners[2] == pytest.approx((8.0, -6.0))
    assert corners[3] == pytest.approx((12.0, -6.0))
    # Shoelace signed area positive for CCW ordering.
    acc = 0.0
    for i in range(4):
        x1, y1 = corners[i]
        x2, y2 = corners[(i + 1) % 4]
        acc += x1 * y2 - x2 * y1
    assert acc > 0.0


def test_transform_point_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        pose = PoseYawT(*rng.uniform(-30, 30, size=3), rng.uniform(-math.pi, math.pi))
        p = tuple(rng.uniform(-50, 50, size=3))
        q = transform_point(transform_point(p, pose), inverse_pose(pose))
        assert np.allclose(q, p, atol=1e-10)


def test_transform_box_preserves_extents_and_iou():
    rng = np.random.default_rng(12)
    for _ in range(100):
        pose = PoseYawT(*rng.uniform(-20, 20, size=3), rng.uniform(-math.pi, math.pi))
        b1 = Box7(*rng.uniform(-5, 5, size=3), rng.uniform(-3, 3), 4.0, 2.0, 1.6)
        b2 = Box7(b1.x + rng.uniform(-1, 1), b1.y + rng.uniform(-1, 1), b1.z, b1.a, 4.0, 2.0, 1.6)
        before = iou3d(b1, b2)
        after = iou3d(transform_box(b1, pose), transform_box(b2, pose))
        assert (b1.l, b1.w, b1.h) == (transform_box(b1, pose).l, transform_box(b1, pose).w, transform_box(b1, pose).h)
        # Rigid transforms leave overlap ratios unchanged.
        assert after == pytest.approx(before, abs=1e-9)


def test_identity_pose_and_inverse_compose():
    box = Box7(2.0, -1.0, 0.5, 0.3, 4.2, 1.9, 1.5)
    assert transform_box(box, PoseYawT.identity()) == box
    rng = np.random.default_rng(13)
    for _ in range(100):
        pose = PoseYawT(*rng.uniform(-10, 10, size=3), rng.uniform(-math.pi, math.pi))
        back = transform_box(transform_box(box, pose), inverse_pose(pose))
        np.testing.assert_allclose(back.to_vector(), box.to_vector(), atol=1e-10)


def test_bev_intersection_identical_boxes():
    b = Box7(2.0, 3.0, 0.0, 0.4, 4.2, 1.9, 1.5)
    assert bev_intersection_area(b, b) == pytest.approx(4.2 * 1.9)


def test_bev_intersection_axis_aligned_shift():
    # Unit squares offset by 0.5 in x: overlap is exactly 0.5.
    b1 = Box7(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    b2 = Box7(0.5, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    assert bev_intersection_area(b1, b2) == pytest.approx(0.5)


def test_iou3d_exact_cases():
    b = Box7(0.0, 0.0, 0.0, 0.3, 4.0, 2.0, 1.5)
    assert iou3d(b, b) == 1.0
    # Disjoint in z.
    far_z = Box7(0.0, 0.0, 5.0, 0.3, 4.0, 2.0, 1.5)
    assert iou3d(b, far_z) == 0.0
    # Disjoint in the plane.
    far_xy = Box7(50.0, 0.0, 0.0, 0.3, 4.0, 2.0, 1.5)
    assert iou3d(b, far_xy) == 0.0
    # Axis-aligned half-shift: inter 0.5*1*1, union 1.5 -> 1/3.
    b1 = Box7(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    b2 = Box7(0.5, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    assert iou3d(b1, b2) == pytest.approx(1.0 / 3.0)


def test_iou3d_rotated_cross():
    # Two 2x1 rectangles crossed at 90 degrees share a 1x1 center square.
    b1 = Box7(0.0, 0.0, 0.0, 0.0, 2.0, 1.0, 1.0)
    b2 = Box7(0.0, 0.0, 0.0, math.pi / 2.0, 2.0, 1.0, 1.0)
    # inter = 1*1*1, union = 2 + 2 - 1 = 3.
    assert iou3d(b1, b2) == pytest.approx(1.0 / 3.0)


def test_iou3d_symmetry_exact():
    rng = np.random.default_rng(21)
    for _ in range(300):
        b1 = _random_box(rng)
        b2 = Box7(
            b1.x + rng.uniform(-2, 2),
            b1.y + rng.uniform(-2, 2),
            b1.z + rng.uniform(-0.5, 0.5),
            rng.uniform(-math.pi, math.pi),
            *rng.uniform(0.5, 5.0, size=3),
        )
        assert iou3d(b1, b2) == iou3d(b2, b1)


def test_iou3d_bounds():
    rng = np.random.default_rng(22)
    for _ in range(300):
        v = iou3d(_random_box(rng), _random_box(rng))
        assert 0.0 <= v <= 1.0


def _random_box(rng) -> Box7:
    return Box7(
        rng.uniform(-4, 4),
        rng.uniform(-4, 4),
        rng.uniform(-1, 1),
        rng.uniform(-math.pi, math.pi),
        rng.uniform(0.5, 5.0),
        rng.uniform(0.5, 3.0),
        rng.uniform(0.5, 2.5),
    )


def monte_carlo_iou(b1: Box7, b2: Box7, n: int, seed: int) -> float:
    """Volume-sampling IoU estimate over the union's bounding region."""
    rng = np.random.default_rng(seed)
    r1 = 0.5 * math.hypot(b1.l, b1.w)
    r2 = 0.5 * math.hypot(b2.l, b2.w)
    lo = np.array([
        min(b1.x - r1, b2.x - r2),
        min(b1.y - r1, b2.y - r2),
        min(b1.z - 0.5 * b1.h, b2.z - 0.5 * b2.h),
    ])
    hi = np.array([
        max(b1.x + r1, b2.x + r2),
        max(b1.y + r1, b2.y + r2),
        max(b1.z + 0.5 * b1.h, b2.z + 0.5 * b2.h),
    ])
    pts = rng.uniform(lo, hi, size=(n, 3))
    in1 = _points_in_box(pts, b1)
    in2 = _points_in_box(pts, b2)
    inter = np.count_nonzero(in1 & in2)
    union = np.count_nonzero(in1 | in2)
    return 0.0 if union == 0 else inter / union


def _points_in_box(pts: np.ndarray, b: Box7) -> np.ndarray:
    c, s = math.cos(b.a), math.sin(b.a)
    dx = pts[:, 0] - b.x
    dy = pts[:, 1] - b.y
    local_x = c * dx + s * dy
    local_y = -s * dx + c * dy
    return (
        (np.abs(local_x) <= 0.5 * b.l)
        & (np.abs(local_y) <= 0.5 * b.w)
        & (np.abs(pts[:, 2] - b.z) <= 0.5 * b.h)
    )


def test_iou3d_matches_monte_carlo_spot_checks():
    rng = np.random.default_rng(33)
    for i in range(8):
        b1 = _random_box(rng)
        b2 = Box7(
            b1.x + rng.uniform(-2, 2),
            b1.y + rng.uniform(-2, 2),
            b1.z + rng.uniform(-0.5, 0.5),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(0.5, 5.0),
            rng.uniform(0.5, 3.0),
            rng.uniform(0.5, 2.5),
        )
        est = monte_carlo_iou(b1, b2, n=200_000, seed=100 + i)
        assert iou3d(b1, b2) == pytest.approx(est, abs=0.02)
