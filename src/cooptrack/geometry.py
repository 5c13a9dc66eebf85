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

    def volume(self) -> float:
        return self.l * self.w * self.h

    def bev_corners(self):
        """Four BEV corner (x, y) tuples in counter-clockwise order."""
        c, s = math.cos(self.a), math.sin(self.a)
        hl, hw = 0.5 * self.l, 0.5 * self.w
        out = []
        for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)):
            out.append((self.x + c * dx - s * dy, self.y + s * dx + c * dy))
        return out


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

    @staticmethod
    def identity() -> "PoseYawT":
        return PoseYawT(0.0, 0.0, 0.0, 0.0)


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


def inverse_pose(pose: PoseYawT) -> PoseYawT:
    """Pose that undoes `pose`: transforming by one, then the other, is the identity."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    return PoseYawT(
        -(c * pose.t_x + s * pose.t_y),
        -(-s * pose.t_x + c * pose.t_y),
        -pose.t_z,
        -pose.yaw,
    )


# Polygon areas below this are treated as no overlap; guards against
# sliver polygons produced by clipping boxes that merely touch.
_AREA_EPS = 1e-12


def _clip_polygon(subject, clip):
    """Sutherland-Hodgman clip of a convex `subject` polygon by convex `clip`.

    Both polygons are CCW lists of (x, y). Points on a clip edge count as
    inside, so identical rectangles clip to themselves.
    """
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        input_pts = output
        output = []
        m = len(input_pts)
        for j in range(m):
            px, py = input_pts[j]
            qx, qy = input_pts[(j + 1) % m]
            p_in = ex * (py - ay) - ey * (px - ax) >= 0.0
            q_in = ex * (qy - ay) - ey * (qx - ax) >= 0.0
            if p_in:
                output.append((px, py))
                if not q_in:
                    output.append(_edge_intersect(px, py, qx, qy, ax, ay, ex, ey))
            elif q_in:
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
    n = len(poly)
    if n < 3:
        return 0.0
    acc = 0.0
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return 0.5 * abs(acc)


def bev_intersection_area(b1: Box7, b2: Box7) -> float:
    """Intersection area of the two yaw-rotated BEV rectangles."""
    area = _polygon_area(_clip_polygon(b1.bev_corners(), b2.bev_corners()))
    return 0.0 if area < _AREA_EPS else area


def iou3d(b1: Box7, b2: Box7) -> float:
    """3D IoU of two oriented boxes: rotated BEV overlap times vertical overlap.

    Symmetric in its arguments by construction (the pair is canonically
    ordered before clipping, so both argument orders run identical
    arithmetic).
    """
    k1 = (b1.x, b1.y, b1.z, b1.a, b1.l, b1.w, b1.h)
    k2 = (b2.x, b2.y, b2.z, b2.a, b2.l, b2.w, b2.h)
    if k2 < k1:
        b1, b2 = b2, b1

    # Cheap exact rejections before polygon clipping.
    zlo = max(b1.z - 0.5 * b1.h, b2.z - 0.5 * b2.h)
    zhi = min(b1.z + 0.5 * b1.h, b2.z + 0.5 * b2.h)
    if zhi <= zlo:
        return 0.0
    r1 = 0.5 * math.hypot(b1.l, b1.w)
    r2 = 0.5 * math.hypot(b2.l, b2.w)
    if math.hypot(b2.x - b1.x, b2.y - b1.y) > r1 + r2:
        return 0.0

    inter_area = bev_intersection_area(b1, b2)
    if inter_area == 0.0:
        return 0.0
    inter_vol = inter_area * (zhi - zlo)
    union = b1.volume() + b2.volume() - inter_vol
    if union <= 0.0:
        return 0.0
    return min(1.0, inter_vol / union)
