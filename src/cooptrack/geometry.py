"""Oriented 3D boxes, yaw-plus-translation rigid transforms, and rotated-box IoU.

Boxes are (center, yaw about z, extents). Transforms between a vehicle's
local frame and the shared global frame carry only a z-rotation and a 3D
translation, which is all the tracking pipeline ever needs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
_INF = math.inf


def wrap_angle(a):
    """Wrap an angle, or each angle of an array, to [-pi, pi).

    `%` is the floored modulo for Python floats and numpy arrays alike, so
    a float stays a float and an array keeps its dtype.
    """
    return (a + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True, init=False)
class Box7:
    """Oriented 3D bounding box: center (x, y, z), yaw about z, extents (l, w, h).

    Length runs along the heading. Every field must be finite and the
    extents positive; yaw is normalized to [-pi, pi) on construction.
    """

    x: float
    y: float
    z: float
    a: float
    l: float
    w: float
    h: float

    def __init__(self, x, y, z, a, l, w, h):
        """Each field converted to float once, and stored in one write (the
        dataclass is frozen, so fields cannot be assigned).

        A NaN or infinite field raises a ValueError naming it. The test is a
        chain of comparisons, a few per field and no sum to overflow, as a box
        is built for every detection, record and reported track."""
        if not (l > 0.0 and w > 0.0 and h > 0.0):
            raise ValueError(f"box extents must be positive, got l={l} w={w} h={h}")
        if not (-_INF < x < _INF and -_INF < y < _INF and -_INF < z < _INF
                and -_INF < a < _INF and l < _INF and w < _INF and h < _INF):
            name, value = next(field for field in zip("xyzalwh", (x, y, z, a, l, w, h))
                               if not math.isfinite(field[1]))
            raise ValueError(f"box fields must be finite, got {name}={value}")
        self.__dict__.update(x=float(x), y=float(y), z=float(z), a=wrap_angle(float(a)),
                             l=float(l), w=float(w), h=float(h))

    @staticmethod
    def from_vector(v) -> "Box7":
        x, y, z, a, l, w, h = v
        return Box7(x, y, z, a, l, w, h)

    def to_vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.a, self.l, self.w, self.h], dtype=float)


def box_rows(boxes) -> np.ndarray:
    """A sequence of Box7 as an (n, 7) float64 array of (x, y, z, a, l, w, h) rows.

    Each box's seven fields fill one float64 array in order, with no row
    tuples for numpy to read one by one.
    """
    boxes = list(boxes)
    return np.fromiter(itertools.chain.from_iterable((b.x, b.y, b.z, b.a, b.l, b.w, b.h)
                                                     for b in boxes),
                       dtype=float, count=7 * len(boxes)).reshape(-1, 7)


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
        """Fields made floats, yaw wrapped; ValueError naming a NaN or infinite one."""
        t_x, t_y, t_z, yaw = float(self.t_x), float(self.t_y), float(self.t_z), float(self.yaw)
        if not (-_INF < t_x < _INF and -_INF < t_y < _INF and -_INF < t_z < _INF
                and -_INF < yaw < _INF):
            name, value = next(f for f in zip(("t_x", "t_y", "t_z", "yaw"), (t_x, t_y, t_z, yaw))
                               if not math.isfinite(f[1]))
            raise ValueError(f"pose fields must be finite, got {name}={value}")
        self.__dict__.update(t_x=t_x, t_y=t_y, t_z=t_z, yaw=wrap_angle(yaw))


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
    Only the z overlap is tested before the clip: footprints that lie apart
    clip to no vertex, so their IoU is 0.0. Callers scoring many pairs drop
    those first (`association.prescreen_pairs`).
    """
    k1, k2 = _box_values(b1), _box_values(b2)
    if k2 < k1:
        k1, k2 = k2, k1
    x1, y1, z1, a1, l1, w1, h1 = k1
    x2, y2, z2, a2, l2, w2, h2 = k2

    # the clip's volume needs a positive z overlap
    zlo = max(z1 - 0.5 * h1, z2 - 0.5 * h2)
    zhi = min(z1 + 0.5 * h1, z2 + 0.5 * h2)
    if zhi <= zlo:
        return 0.0
    dx, dy = x2 - x1, y2 - y1

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


def _per_element(fn, *arrays) -> np.ndarray:
    """`fn` (a `math` function) applied to each element: libm's bits, as `iou3d` has
    them, which numpy's own `np.cos` need not give."""
    return np.array(list(map(fn, *(x.tolist() for x in arrays))), dtype=float)


def iou3d_rows(a, b) -> np.ndarray:
    """`iou3d(a[k], b[k])` for every k of two (P, 7) arrays of box rows, as a (P,) array.

    Each entry has `iou3d`'s bits. Pairs are put in its canonical order (the
    first column in which the rows differ decides) and run `iou3d`'s
    arithmetic on the same values in the same order: trig per element with
    `math`, as `iou3d` takes it, and the four slab clips over all pairs at
    once. Every pair keeps its row through all four clips: one without
    `iou3d`'s z overlap, or whose polygon clips to nothing, is clipped like
    the others and then set to 0.0, as `iou3d` returns for it. A clipped
    polygon is kept as a row of vertices padded with copies of its last
    vertex; padding adds nothing to the next clip and exact zeros to the
    shoelace sum, which is accumulated in `iou3d`'s order (from the wrap
    term).
    """
    a = np.asarray(a, dtype=float).reshape(-1, 7)
    b = np.asarray(b, dtype=float).reshape(-1, 7)
    with np.errstate(all="ignore"):  # Python float arithmetic does not warn either
        first = (a != b).argmax(axis=1)
        index = np.arange(len(a))
        swap = (b[index, first] < a[index, first])[:, None]
        x1, y1, z1, a1, l1, w1, h1 = np.where(swap, b, a).T
        x2, y2, z2, a2, l2, w2, h2 = np.where(swap, a, b).T

        zlo = np.maximum(z1 - 0.5 * h1, z2 - 0.5 * h2)
        zhi = np.minimum(z1 + 0.5 * h1, z2 + 0.5 * h2)
        dx, dy = x2 - x1, y2 - y1

        c1, s1 = _per_element(math.cos, a1), _per_element(math.sin, a1)
        cx, cy = c1 * dx + s1 * dy, c1 * dy - s1 * dx
        c, s = _per_element(math.cos, a2 - a1), _per_element(math.sin, a2 - a1)
        chl, shl, chw, shw = c * (0.5 * l2), s * (0.5 * l2), c * (0.5 * w2), s * (0.5 * w2)
        us = np.stack([cx + chl - shw, cx - chl - shw, cx - chl + shw, cx + chl + shw], axis=1)
        vs = np.stack([cy + shl + chw, cy - shl + chw, cy - shl - chw, cy + shl - chw], axis=1)
        count = np.full(len(a), 4)
        for half in (0.5 * l1, 0.5 * w1, 0.5 * l1, 0.5 * w1):
            us, vs, count = _clip_rows(us, vs, count, half)

        terms = np.empty(us.shape)
        terms[:, 0] = us[:, -1] * vs[:, 0] - us[:, 0] * vs[:, -1]
        terms[:, 1:] = us[:, :-1] * vs[:, 1:] - us[:, 1:] * vs[:, :-1]
        inter_area = 0.5 * np.abs(np.cumsum(terms, axis=1)[:, -1])
        inter_vol = inter_area * (zhi - zlo)
        union = l1 * w1 * h1 + l2 * w2 * h2 - inter_vol
        zero = (count == 0) | (inter_area < _AREA_EPS) | (union <= 0.0) | (zhi <= zlo)
        return np.where(zero, 0.0, np.minimum(1.0, inter_vol / union))


def _clip_rows(us, vs, count, bound):
    """One clip pass of `iou3d` over padded polygon rows: keep u <= bound, turn a quarter.

    `us`, `vs` are (R, W) vertex coordinates whose first `count` entries are
    real and the rest copies of the last one, so slot W-1 is each polygon's
    last vertex and the previous vertex of slot 0. Each real vertex emits, in
    order, the crossing of its edge with the side (if the edge crosses) and
    itself (if inside), as `iou3d` appends them; a running count places the
    emitted candidates. Returns the R new rows, padded the same way, and
    their counts. A row that clips to nothing keeps its place with count 0;
    its slots hold some other candidate, which no later pass emits.
    """
    rows, width = us.shape
    bound = bound[:, None]
    pu = np.concatenate([us[:, -1:], us[:, :-1]], axis=1)
    pv = np.concatenate([vs[:, -1:], vs[:, :-1]], axis=1)
    real = np.arange(width) < count[:, None]
    inside = us <= bound
    emit = np.empty((rows, width, 2), dtype=bool)
    emit[:, :, 0] = (inside != (pu <= bound)) & real
    emit[:, :, 1] = inside & real
    cand_u = np.empty((rows, width, 2))
    cand_v = np.empty((rows, width, 2))
    cand_u[:, :, 0] = pv + (bound - pu) * (vs - pv) / (us - pu)  # used where the edge crosses
    cand_u[:, :, 1] = vs
    cand_v[:, :, 0] = -bound
    cand_v[:, :, 1] = -us
    emit = emit.reshape(rows, 2 * width)
    slot = np.cumsum(emit, axis=1)  # 1 + each emitted candidate's place in its row
    count = slot[:, -1]
    new_width = count.max(initial=1)
    src = np.flatnonzero(emit)  # flat indices of the emitted candidates, row by row
    # each row's last emitted candidate; an empty row takes the one before it,
    # or the sentinel 0 when none has emitted yet
    last = np.append(src, 0)[np.cumsum(count) - 1]
    dest = src // (2 * width) * new_width + slot.ravel()[src] - 1
    new_u = np.repeat(cand_u.take(last), new_width)
    new_v = np.repeat(cand_v.take(last), new_width)
    new_u[dest] = cand_u.take(src)
    new_v[dest] = cand_v.take(src)
    return new_u.reshape(rows, new_width), new_v.reshape(rows, new_width), count
