"""Geometry unit tests: angle wrapping, rigid transforms, and rotated IoU.

Two IoU oracles live here: a seeded Monte-Carlo volume estimate (the full
100-pair sweep lives in the acceptance suite, this file keeps a handful of
cheap spot checks) and a generic Sutherland-Hodgman clip of the two BEV
rectangles in the global axes, against which `iou3d`'s clip in the first
box's frame is checked on generated pairs. Exact hand-computable cases
complete the set.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cooptrack.association import _APART_MARGIN
from cooptrack.geometry import (
    Box7,
    PoseYawT,
    box_rows,
    inverse_pose,
    iou3d,
    iou3d_rows,
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


@dataclasses.dataclass(frozen=True)
class GeneratedBox7:
    """Reference: Box7 as the generated dataclass `__init__` plus a
    `__post_init__` that converts and wraps the fields after it."""

    x: float
    y: float
    z: float
    a: float
    l: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.l > 0.0 and self.w > 0.0 and self.h > 0.0):
            raise ValueError(f"box extents must be positive, got l={self.l} w={self.w} h={self.h}")
        object.__setattr__(self, "a", wrap_angle(float(self.a)))
        for f in ("x", "y", "z", "l", "w", "h"):
            object.__setattr__(self, f, float(getattr(self, f)))


@pytest.mark.parametrize("values", [
    (1, 2, 3, 4.0, 5, 6, 7),
    tuple(np.array([1.5, -2.0, 0.25, -7.0, 4.2, 1.9, 1.6])),
    (0.0, -0.0, 1e300, math.pi, 1e-300, 2.0, 3.0),
    (1.0, 2.0, 3.0, np.float32(0.1), True, 2, np.int64(3)),
], ids=["ints", "numpy-floats", "edges", "mixed"])
def test_box7_builds_what_the_generated_dataclass_built(values):
    box, want = Box7(*values), GeneratedBox7(*values)
    fields = [f.name for f in dataclasses.fields(Box7)]
    assert fields == [f.name for f in dataclasses.fields(GeneratedBox7)]
    got = [getattr(box, f) for f in fields]
    assert all(type(v) is float for v in got)
    assert got == [getattr(want, f) for f in fields]
    assert repr(box) == repr(want).replace("GeneratedBox7", "Box7")
    again = Box7(**dict(zip(fields, values)))
    assert again == box and hash(again) == hash(box)
    assert Box7.from_vector(np.array(values, dtype=float)) == Box7(*map(float, values))
    with pytest.raises(dataclasses.FrozenInstanceError):
        box.x = 0.0


@pytest.mark.parametrize("extents", [(-1.0, 1.0, 1.0), (1, 0, 1), (1.0, 1.0, float("nan")),
                                     (np.float64(2.0), np.float64(-0.5), 1.0)])
def test_box7_rejects_what_the_generated_dataclass_rejected(extents):
    with pytest.raises(ValueError) as want:
        GeneratedBox7(0.0, 0.0, 0.0, 0.0, *extents)
    with pytest.raises(ValueError, match="box extents must be positive") as got:
        Box7(0.0, 0.0, 0.0, 0.0, *extents)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["x", "y", "z", "a", "l", "w", "h"])
def test_box7_rejects_a_non_finite_field_naming_it(field, value):
    # an infinite yaw used to be stored as NaN, and a NaN centre as is
    values = dict(x=1.0, y=-2.0, z=0.5, a=0.3, l=4.0, w=2.0, h=1.5)
    values[field] = value
    with pytest.raises(ValueError, match=rf"\b{field}={value}\b"):
        Box7(**values)
    with pytest.raises(ValueError, match=rf"\b{field}={value}\b"):
        Box7.from_vector(np.array(list(values.values())))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["t_x", "t_y", "t_z", "yaw"])
def test_pose_rejects_a_non_finite_field_naming_it(field, value):
    # an infinite yaw used to be stored as NaN, and a NaN translation as is
    values = dict(t_x=1.0, t_y=-2.0, t_z=0.5, yaw=0.3)
    values[field] = value
    with pytest.raises(ValueError, match=rf"\b{field}={value}\b"):
        PoseYawT(**values)
    with pytest.raises(ValueError, match=rf"\b{field}={value}\b"):
        PoseYawT(*np.array(list(values.values())))


def test_pose_fields_are_floats_and_its_yaw_is_wrapped():
    pose = PoseYawT(1, np.float64(-2.5), np.int64(3), 3 * math.pi)
    assert [type(v) for v in dataclasses.astuple(pose)] == [float] * 4
    assert dataclasses.astuple(pose) == (1.0, -2.5, 3.0, wrap_angle(3 * math.pi))


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
    assert transform_box(box, PoseYawT(0.0, 0.0, 0.0, 0.0)) == box
    rng = np.random.default_rng(13)
    for _ in range(100):
        pose = PoseYawT(*rng.uniform(-10, 10, size=3), rng.uniform(-math.pi, math.pi))
        back = transform_box(transform_box(box, pose), inverse_pose(pose))
        np.testing.assert_allclose(back.to_vector(), box.to_vector(), atol=1e-10)


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


@pytest.mark.parametrize("yaw", [0.0, 0.3, -2.0, -math.pi])
def test_iou3d_of_boxes_touching_along_a_side_is_zero(yaw):
    b = Box7(3.0, -7.0, 0.2, yaw, 4.5, 1.9, 1.6)
    c, s = math.cos(b.a), math.sin(b.a)
    # end to end (sharing a width side), then side by side (sharing a length
    # side); a sliver overlap of 1e-13 m is below the area floor as well
    for gap in (0.0, 1e-13):
        for dx, dy in (((b.l - gap) * c, (b.l - gap) * s), (-(b.w - gap) * s, (b.w - gap) * c)):
            other = Box7(b.x + dx, b.y + dy, b.z, b.a, b.l, b.w, b.h)
            assert iou3d(b, other) == 0.0
            assert iou3d(other, b) == 0.0


@pytest.mark.parametrize("inner_yaw", [0.3, 0.5, 0.3 + math.pi / 2.0])
def test_iou3d_of_nested_boxes_is_their_volume_ratio(inner_yaw):
    outer = Box7(1.0, 2.0, 0.5, 0.3, 4.0, 2.0, 1.5)
    inner = Box7(1.2, 2.1, 0.6, inner_yaw, 1.0, 0.5, 0.4)
    want = (1.0 * 0.5 * 0.4) / (4.0 * 2.0 * 1.5)
    assert iou3d(outer, inner) == pytest.approx(want, rel=1e-12)
    assert iou3d(inner, outer) == iou3d(outer, inner)


def test_iou3d_returns_a_python_float_for_boxes_and_rows():
    b1 = Box7(0.0, 0.0, 0.0, 0.3, 4.0, 2.0, 1.5)
    b2 = Box7(1.0, 0.5, 0.1, 0.2, 4.2, 1.9, 1.4)
    far = Box7(50.0, 0.0, 0.0, 0.3, 4.0, 2.0, 1.5)
    rows = box_rows([b1, b2, far]).tolist()
    for a, b in ((b1, b2), (b1, far), (b1, b1)):
        assert type(iou3d(a, b)) is float
    for a, b in ((0, 1), (0, 2), (0, 0)):
        assert type(iou3d(rows[a], rows[b])) is float
    assert iou3d(rows[0], rows[1]) == iou3d(b1, b2)


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


# --- generic polygon-clip oracle -------------------------------------------------


def _bev_corners(b: Box7, ox: float, oy: float):
    """The four BEV corners of a box, counter-clockwise, relative to (ox, oy)."""
    x, y = b.x - ox, b.y - oy
    c, s = math.cos(b.a), math.sin(b.a)
    chl, shl, chw, shw = c * (0.5 * b.l), s * (0.5 * b.l), c * (0.5 * b.w), s * (0.5 * b.w)
    return [(x + chl - shw, y + shl + chw), (x - chl - shw, y - shl + chw),
            (x - chl + shw, y - shl - chw), (x + chl + shw, y + shl - chw)]


def _clip_polygon(subject, clip):
    """Sutherland-Hodgman clip of a convex CCW `subject` polygon by convex CCW `clip`.

    Points on a clip edge count as inside, so identical rectangles clip to
    themselves.
    """
    output = list(subject)
    for i in range(len(clip)):
        if not output:
            return []
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % len(clip)]
        ex, ey = bx - ax, by - ay
        points, output = output, []
        for j in range(len(points)):
            px, py = points[j]
            qx, qy = points[(j + 1) % len(points)]
            p_in = ex * (py - ay) - ey * (px - ax) >= 0.0
            q_in = ex * (qy - ay) - ey * (qx - ax) >= 0.0
            if p_in:
                output.append((px, py))
            if p_in != q_in:
                output.append(_edge_intersect(px, py, qx, qy, ax, ay, ex, ey))
    return output


def _edge_intersect(px, py, qx, qy, ax, ay, ex, ey):
    # p + t*(q - p) where cross(e, point - a) = 0
    dx, dy = qx - px, qy - py
    denom = ex * dy - ey * dx
    if denom == 0.0:
        return (qx, qy)
    t = (ex * (ay - py) - ey * (ax - px)) / denom
    return (px + t * dx, py + t * dy)


def _polygon_area(poly) -> float:
    acc = 0.0
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        acc += x1 * y2 - x2 * y1
    return 0.5 * abs(acc)


def clip_oracle_iou(b1: Box7, b2: Box7) -> float:
    """3D IoU with the BEV overlap clipped in the global axes, floored like `iou3d`.

    The corners are taken relative to the first box's center: the shoelace
    sum of a small box 50 m from the origin would otherwise cancel to a
    relative error near 1e-12.
    """
    dz = min(b1.z + 0.5 * b1.h, b2.z + 0.5 * b2.h) - max(b1.z - 0.5 * b1.h, b2.z - 0.5 * b2.h)
    area = _polygon_area(_clip_polygon(_bev_corners(b1, b1.x, b1.y),
                                       _bev_corners(b2, b1.x, b1.y)))
    if dz <= 0.0 or area < 1e-12:
        return 0.0
    inter = area * dz
    return inter / (b1.l * b1.w * b1.h + b2.l * b2.w * b2.h - inter)


lane_coords = st.floats(-50.0, 50.0)
lane_extents = st.floats(0.5, 6.0)
seam_yaws = st.floats(math.pi - 1e-6, math.pi) | st.floats(-math.pi, -math.pi + 1e-6)
yaws = st.floats(-math.pi, math.pi) | seam_yaws | st.sampled_from((0.0, math.pi / 2.0))


@st.composite
def oracle_pairs(draw):
    """Pairs the tracker meets: seam yaws, lanes with parallel edges, and exact contacts."""
    a = Box7(draw(lane_coords), draw(lane_coords), draw(st.floats(-1.0, 1.0)), draw(yaws),
             draw(lane_extents), draw(lane_extents), draw(lane_extents))
    c, s = math.cos(a.a), math.sin(a.a)
    kind = draw(st.sampled_from(("identical", "lane", "seam", "nested", "offset_l",
                                 "offset_w", "nudged")))
    if kind == "identical":
        return a, a
    if kind in ("offset_l", "offset_w"):
        # the same box moved by exactly its length (or width) along that axis
        d = a.l if kind == "offset_l" else a.w
        ux, uy = (c, s) if kind == "offset_l" else (-s, c)
        return a, Box7(a.x + d * ux, a.y + d * uy, a.z, a.a, a.l, a.w, a.h)
    if kind == "nested":
        f = draw(st.floats(0.1, 1.0))
        along, across = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
        l, w = f * a.l, f * a.w
        sx, sy = along * (a.l - l), across * (a.w - w)
        return a, Box7(a.x + c * sx - s * sy, a.y + s * sx + c * sy, a.z, a.a, l, w,
                       f * a.h)
    nudge = st.floats(-3.0, 3.0)
    x, y = a.x + draw(nudge), a.y + draw(nudge)
    if kind == "lane":
        yaw = a.a  # equal yaws: every edge parallel to one of the other box's
    elif kind == "seam":
        yaw = draw(seam_yaws)
    else:
        yaw = a.a + draw(st.floats(-0.5, 0.5))
    return a, Box7(x, y, a.z + draw(st.floats(-1.0, 1.0)), yaw, draw(lane_extents),
                   draw(lane_extents), draw(lane_extents))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(oracle_pairs())
def test_iou3d_agrees_with_the_generic_clip_oracle(pair):
    a, b = pair
    assert abs(iou3d(a, b) - clip_oracle_iou(a, b)) <= 1e-12
    assert abs(iou3d(b, a) - clip_oracle_iou(b, a)) <= 1e-12


def _assert_rows_equal_pairs(a, b):
    """`iou3d_rows` equals `iou3d` pair by pair, bit for bit, in both argument orders."""
    a, b = box_rows(a), box_rows(b)
    for x, y in ((a, b), (b, a)):
        got = iou3d_rows(x, y)
        want = [iou3d(p, q) for p, q in zip(x.tolist(), y.tolist())]
        assert got.shape == (len(want),)
        assert [repr(v) for v in got.tolist()] == [repr(v) for v in want]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(oracle_pairs(), max_size=40))
def test_iou3d_rows_equals_iou3d_on_every_pair(pairs):
    _assert_rows_equal_pairs([p for p, _ in pairs], [q for _, q in pairs])


def _structured_pairs():
    """Touching, identical, nested, flush, z-disjoint and tie-broken pairs."""
    pairs = []
    for yaw in (0.0, math.pi / 2.0, -math.pi / 2.0, -math.pi):
        b = Box7(3.0, -7.0, 0.2, yaw, 4.5, 1.9, 1.6)
        c, s = math.cos(b.a), math.sin(b.a)
        for gap in (0.0, 1e-13):  # touching along a width side, then a length side
            for dx, dy in (((b.l - gap) * c, (b.l - gap) * s),
                           (-(b.w - gap) * s, (b.w - gap) * c)):
                pairs.append((b, Box7(b.x + dx, b.y + dy, b.z, b.a, b.l, b.w, b.h)))
        # identical, nested, and flush: a half-length box sharing three sides
        # in the same direction, and a half-width one sharing a length side
        pairs.append((b, b))
        pairs.append((b, Box7(b.x + 0.2 * c, b.y + 0.2 * s, b.z + 0.1, yaw + 0.4,
                              1.0, 0.5, 0.4)))
        pairs.append((b, Box7(b.x + 0.25 * b.l * c, b.y + 0.25 * b.l * s, b.z, b.a,
                              0.5 * b.l, b.w, b.h)))
        pairs.append((b, Box7(b.x - 0.25 * b.w * s, b.y + 0.25 * b.w * c, b.z, b.a,
                              b.l, 0.5 * b.w, b.h)))
        pairs.append((b, Box7(b.x + 0.5 * c, b.y, b.z, b.a, b.l, b.w, b.h)))
        pairs.append((b, Box7(b.x, b.y, b.z + b.h, b.a, b.l, b.w, b.h)))  # disjoint z
    # rows equal in their leading fields: a later column decides the order
    base = (1.0, 2.0, 0.5, 0.3, 4.0, 2.0, 1.5)
    for col, value in ((3, 0.7), (4, 3.0), (5, 2.5), (6, 1.2)):
        row = list(base)
        row[col] = value
        pairs.append((Box7(*base), Box7(*row)))
    pairs.append((Box7(0.0, 0.0, 0.0, 0.3, 4.0, 2.0, 1.5),
                  Box7(-0.0, 0.0, 0.0, 0.3, 4.0, 2.0, 1.4)))  # 0.0 == -0.0 in the order
    return pairs


def _reach(p, q):
    return 0.5 * math.hypot(p.l, p.w) + 0.5 * math.hypot(q.l, q.w)


def _half_span(box, angle):
    """Half the extent of a box's footprint along the direction `angle`."""
    return 0.5 * (box.l * abs(math.cos(angle - box.a)) + box.w * abs(math.sin(angle - box.a)))


def _circumcircle_pairs():
    """Centre distances within 3 ulps of the summed circumradii, in a diagonal
    direction (so `hypot` rounds), and 1e-6 of them inside. With yaw offset 0
    both diagonals lie on the line of centres, so two corners meet where the
    circumcircles touch, and overlap a little inside: the clip's edge cases
    of corners that touch or barely cross."""
    pairs = []
    p = Box7(3.0, -7.0, 0.2, 0.4, 4.5, 1.9, 1.6)
    theta = p.a + math.atan2(p.w, p.l)  # p's (+l, +w) corner
    for l, w, turn in ((4.5, 1.9, 0.0), (1.0, 0.5, 0.0), (9.0, 2.5, 0.0), (4.5, 1.9, 0.3)):
        q = Box7(0.0, 0.0, 0.2, theta + math.pi - math.atan2(w, l) + turn, l, w, 1.6)
        reach = _reach(p, q)
        for k in range(-3, 4):
            dx = reach * math.cos(theta)
            for _ in range(abs(k)):
                dx = math.nextafter(dx, math.copysign(math.inf, k))
            pairs.append((p, dataclasses.replace(q, x=p.x + dx,
                                                 y=p.y + reach * math.sin(theta))))
        inside = (1.0 - 1e-6) * reach
        pairs.append((p, dataclasses.replace(q, x=p.x + inside * math.cos(theta),
                                             y=p.y + inside * math.sin(theta))))
    return pairs


def _margin_pairs():
    """Footprints apart along one box's length or width normal by just under,
    at and just over `_APART_MARGIN` of the reach, or overlapping by it: the
    other box's nearest corner (or side, when the yaws are equal) faces the
    middle of that box's side, so the gap is the distance between them. The
    clip keeps a sliver of area, or none, for each."""
    pairs = []
    p = Box7(3.0, -7.0, 0.2, 0.4, 4.5, 1.9, 1.6)
    for yaw, l, w in ((0.4, 4.5, 1.9), (1.2, 1.0, 0.5), (-2.0, 9.0, 2.5)):
        q = Box7(0.0, 0.0, 0.2, yaw, l, w, 1.6)
        reach = _reach(p, q)
        for owner, other, sign in ((p, q, 1.0), (q, p, -1.0)):
            for normal in (owner.a, owner.a + 0.5 * math.pi):
                nx, ny = math.cos(normal), math.sin(normal)
                ux, uy = math.cos(other.a), math.sin(other.a)
                # the other box's corner nearest the owner's side, from its centre
                su = -math.copysign(0.5, nx * ux + ny * uy) * other.l
                sv = -math.copysign(0.5, ny * ux - nx * uy) * other.w
                ex, ey = su * ux - sv * uy, su * uy + sv * ux
                for f in (-1.0, 0.9, 1.0, 1.1):
                    d = _half_span(owner, normal) + f * _APART_MARGIN * reach
                    # offset from the owner's centre to the other's, turned into q - p
                    ox, oy = d * nx - ex, d * ny - ey
                    pairs.append((p, dataclasses.replace(q, x=p.x + sign * ox,
                                                         y=p.y + sign * oy)))
    return pairs


def _shifted(pairs, shift):
    return [tuple(dataclasses.replace(b, x=b.x + shift, y=b.y + shift) for b in pair)
            for pair in pairs]


def test_iou3d_rows_equals_iou3d_on_structured_pairs():
    pairs = _structured_pairs()
    assert sum(iou3d(p, q) > 0.0 for p, q in pairs) > len(pairs) // 2
    # and the clip's edges: corners touching where the circumcircles meet, and
    # sides a hair apart along an edge normal
    circles, margins = _circumcircle_pairs(), _margin_pairs()
    for shift in (0.0, 1e4, 1e6):  # here and at coordinates around 1e4 and 1e6 m
        moved = _shifted(pairs + circles + margins, shift)
        _assert_rows_equal_pairs([p for p, _ in moved], [q for _, q in moved])
        for p, q in moved:  # one pair at a time, too
            _assert_rows_equal_pairs([p], [q])
    assert {math.hypot(q.x - p.x, q.y - p.y) > _reach(p, q) for p, q in circles} == {True, False}
    assert any(iou3d(p, q) > 0.0 for p, q in circles)  # corners overlapping inside
    assert any(iou3d(p, q) > 0.0 for p, q in margins[::4])  # overlapping by the margin


@pytest.mark.parametrize("yaws", [(0.0, 0.0), (0.5 * math.pi, 0.5 * math.pi), (-math.pi, -math.pi),
                                  (0.0, 0.5 * math.pi), (0.3, -2.1)])
def test_iou3d_of_finite_boxes_whose_centre_offset_overflows_is_zero(yaws):
    # centres so far apart that x2 - x1 or y2 - y1 overflows to +-inf: the clip
    # keeps no vertex, in both kernels, and nothing warns
    coords = (1e308, -1e308, 1.7e308, -1.7e308, 1e300)
    first, second = [], []
    for x1, y1, x2, y2 in itertools.product(coords, repeat=4):
        if (x1, y1) != (x2, y2):
            first.append(Box7(x1, y1, 0.2, yaws[0], 4.5, 1.9, 1.6))
            second.append(Box7(x2, y2, 0.0, yaws[1], 1.0, 0.5, 1.6))
    assert any(math.isinf(q.x - p.x) or math.isinf(q.y - p.y) for p, q in zip(first, second))
    _assert_rows_equal_pairs(first, second)
    assert not iou3d_rows(box_rows(first), box_rows(second)).any()


def test_iou3d_rows_of_no_pairs_is_empty():
    assert iou3d_rows(np.zeros((0, 7)), np.zeros((0, 7))).shape == (0,)
