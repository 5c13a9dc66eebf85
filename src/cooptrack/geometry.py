"""Oriented 3D boxes, yaw-plus-translation rigid transforms, and rotated-box IoU.

Boxes are (center, yaw about z, extents). Transforms between a vehicle's
local frame and the shared global frame carry only a z-rotation and a 3D
translation, which is all the tracking pipeline ever needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a):
    """Wrap an angle, or each angle of an array, to [-pi, pi).

    `%` is the floored modulo for Python floats and numpy arrays alike, so
    a float stays a float and an array keeps its dtype.
    """
    return (a + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class Box7:
    """Oriented 3D bounding box: center (x, y, z), yaw about z, extents (l, w, h).

    Length runs along the heading. Extents must be positive; yaw is
    normalized to [-pi, pi) on construction.
    """

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

    @staticmethod
    def from_vector(v) -> "Box7":
        x, y, z, a, l, w, h = (float(c) for c in v)
        return Box7(x, y, z, a, l, w, h)

    def to_vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.a, self.l, self.w, self.h], dtype=float)


def box_rows(boxes) -> np.ndarray:
    """A sequence of Box7 as an (n, 7) float64 array of (x, y, z, a, l, w, h) rows."""
    return np.array([(b.x, b.y, b.z, b.a, b.l, b.w, b.h) for b in boxes],
                    dtype=float).reshape(-1, 7)


def _box_values(box) -> tuple:
    """A Box7's 7 fields, or a 7-value row read as is, as one tuple."""
    if isinstance(box, Box7):
        return (box.x, box.y, box.z, box.a, box.l, box.w, box.h)
    return tuple(box)


@dataclass(frozen=True)
class PoseYawT:
    """Rigid local-to-global transform: z-rotation by yaw, then translation."""

    t_x: float
    t_y: float
    t_z: float
    yaw: float

    def __post_init__(self):
        object.__setattr__(self, "yaw", wrap_angle(float(self.yaw)))
        for f in ("t_x", "t_y", "t_z"):
            object.__setattr__(self, f, float(getattr(self, f)))


def transform_point(p, pose: PoseYawT):
    """Apply a pose to a 3D point: rotate about z by yaw, then translate."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    x, y, z = p
    return (c * x - s * y + pose.t_x, s * x + c * y + pose.t_y, z + pose.t_z)


def transform_box(box: Box7, pose: PoseYawT) -> Box7:
    """Express a box given in the pose's source frame in its target frame.

    The center is rotated and translated, yaw is shifted by the pose yaw,
    and the extents are untouched.
    """
    x, y, z = transform_point((box.x, box.y, box.z), pose)
    return Box7(x, y, z, wrap_angle(box.a + pose.yaw), box.l, box.w, box.h)


def transform_rows(rows, pose: PoseYawT) -> np.ndarray:
    """`transform_box` over (n, 7) box rows at once, with the same bits.

    The yaw is wrapped twice, as `transform_box` wraps it and its Box7
    wraps it again on construction.
    """
    rows = np.asarray(rows, dtype=float)
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    out = rows.copy()
    out[:, 0] = c * rows[:, 0] - s * rows[:, 1] + pose.t_x
    out[:, 1] = s * rows[:, 0] + c * rows[:, 1] + pose.t_y
    out[:, 2] = rows[:, 2] + pose.t_z
    out[:, 3] = wrap_angle(wrap_angle(rows[:, 3] + pose.yaw))
    return out


def inverse_pose(pose: PoseYawT) -> PoseYawT:
    """Pose that undoes `pose`: transforming by one, then the other, is the identity."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    return PoseYawT(
        -(c * pose.t_x + s * pose.t_y),
        -(-s * pose.t_x + c * pose.t_y),
        -pose.t_z,
        -pose.yaw,
    )


# Intersection areas below this are treated as no overlap; guards against
# sliver polygons produced by clipping boxes that merely touch.
_AREA_EPS = 1e-12


def iou3d(b1, b2) -> float:
    """3D IoU of two oriented boxes: rotated BEV overlap times vertical overlap.

    Each box is a Box7 or a row of its 7 values (x, y, z, a, l, w, h); a row
    is read as is, so its yaw should already be wrapped the way Box7 wraps
    it. Both forms run the same arithmetic on the same 7 values, so a row
    gives the same bits as the Box7 built from it. Symmetric in its
    arguments by construction (the pair is canonically ordered before
    clipping, so both argument orders run identical arithmetic).

    The BEV overlap is found in the first box's frame, where that box is
    the axis-aligned slab |x| <= l1/2, |y| <= w1/2: the second box's
    corners are clipped (Sutherland-Hodgman) against the four slab sides.
    """
    k1, k2 = _box_values(b1), _box_values(b2)
    if k2 < k1:
        k1, k2 = k2, k1
    x1, y1, z1, a1, l1, w1, h1 = k1
    x2, y2, z2, a2, l2, w2, h2 = k2

    # Cheap exact rejections before clipping.
    zlo = max(z1 - 0.5 * h1, z2 - 0.5 * h2)
    zhi = min(z1 + 0.5 * h1, z2 + 0.5 * h2)
    if zhi <= zlo:
        return 0.0
    r1 = 0.5 * math.hypot(l1, w1)
    r2 = 0.5 * math.hypot(l2, w2)
    dx, dy = x2 - x1, y2 - y1
    if math.hypot(dx, dy) > r1 + r2:
        return 0.0

    # The second box's CCW corners in the first box's frame; c * (-d) is
    # -(c * d) exactly, so each product is formed once.
    c1, s1 = math.cos(a1), math.sin(a1)
    cx, cy = c1 * dx + s1 * dy, c1 * dy - s1 * dx
    c, s = math.cos(a2 - a1), math.sin(a2 - a1)
    chl, shl, chw, shw = c * (0.5 * l2), s * (0.5 * l2), c * (0.5 * w2), s * (0.5 * w2)
    us = [cx + chl - shw, cx - chl - shw, cx - chl + shw, cx + chl + shw]
    vs = [cy + shl + chw, cy - shl + chw, cy - shl - chw, cy + shl - chw]

    # Each pass keeps u <= bound (a point on the side counts as inside), then
    # turns the plane a quarter, (u, v) -> (v, -u), so the next pass clips
    # the next side; four passes go round the slab and back to (x, y).
    for bound in (0.5 * l1, 0.5 * w1, 0.5 * l1, 0.5 * w1):
        nu, nv = [], []
        pu, pv = us[-1], vs[-1]
        for qu, qv in zip(us, vs):
            if (qu <= bound) != (pu <= bound):
                nu.append(pv + (bound - pu) * (qv - pv) / (qu - pu))
                nv.append(-bound)
            if qu <= bound:
                nu.append(qv)
                nv.append(-qu)
            pu, pv = qu, qv
        if not nu:
            return 0.0
        us, vs = nu, nv

    acc = us[-1] * vs[0] - us[0] * vs[-1]
    for i in range(len(us) - 1):
        acc += us[i] * vs[i + 1] - us[i + 1] * vs[i]
    inter_area = 0.5 * abs(acc)
    if inter_area < _AREA_EPS:
        return 0.0
    inter_vol = inter_area * (zhi - zlo)
    union = l1 * w1 * h1 + l2 * w2 * h2 - inter_vol
    if union <= 0.0:
        return 0.0
    return min(1.0, inter_vol / union)
