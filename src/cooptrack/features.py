"""Input features for the covariance network, computed per vehicle packet.

A detection contributes two features: an 18-element positional vector built
from its global box, its sensor-local box, and the sensor's local-to-global
transform, and a small synthetic appearance tensor standing in for detector
feature-map crops. The positional vector is expanded to an 18x256 sinusoidal
encoding before entering the network. Positional features are computed for
all N detections of a packet at once, as (N, 18) rows and (N, 18, 256)
encodings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PoseYawT, wrap_angle

POSITIONAL_DIM = 18
ENCODING_HALF_WIDTH = 128  # d; each scalar maps to 2*d sinusoid entries
FRAME_CONSISTENCY_TOL = 1e-6
DEFAULT_APPEARANCE_SHAPE = (8, 8, 8)  # channels, height, width

# Per-variable (min, max) normalization bounds, in f_pos order:
# global x,y,z,a,l,w,h,radial | local x,y,z,a,radial | t_x,t_y,t_z,yaw,radial
DEFAULT_BOUNDS = (
    (-100.0, 100.0), (-100.0, 100.0), (-5.0, 5.0), (-math.pi, math.pi),
    (0.0, 12.0), (0.0, 4.0), (0.0, 4.0), (0.0, 150.0),
    (-100.0, 100.0), (-100.0, 100.0), (-5.0, 5.0), (-math.pi, math.pi),
    (0.0, 150.0),
    (-100.0, 100.0), (-100.0, 100.0), (-100.0, 100.0), (-math.pi, math.pi),
    (0.0, 150.0),
)


_SCALES = 2.0 ** (np.arange(ENCODING_HALF_WIDTH) / ENCODING_HALF_WIDTH)


@dataclass(frozen=True)
class PositionalFeature:
    """Raw (unnormalized) 18-vectors, one row per detection:
    global(8) + local(5) + transform(5)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != POSITIONAL_DIM:
            raise ValueError(f"positional features must have shape (N, 18), got {v.shape}")
        object.__setattr__(self, "values", v)


def _rows(boxes) -> np.ndarray:
    rows = np.asarray(boxes, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 7:
        raise ValueError(f"box rows must have shape (N, 7), got {rows.shape}")
    return rows


def extract_positional(det_global, det_local, pose: PoseYawT) -> PositionalFeature:
    """Concatenate global box, local box, and transform descriptors per detection.

    `det_global` and `det_local` are equally long (N, 7) arrays of box rows
    (x, y, z, a, l, w, h), one per detection of a vehicle's packet
    (`geometry.box_rows` turns Box7s into rows); `pose` is the vehicle's
    local-to-global transform.
    Row layout: (x,y,z,a,l,w,h,r)_global + (x,y,z,a,r)_local +
    (t_x,t_y,t_z,yaw,r_t) where each r is the horizontal radial distance of
    its own entries. Raises ValueError if a global box is not its local box
    carried through pose (`geometry.transform_box`), yaw compared modulo 2 pi.
    """
    g, lo = _rows(det_global), _rows(det_local)
    if len(g) != len(lo):
        raise ValueError(f"{len(g)} global boxes for {len(lo)} local boxes")
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    x, y = lo[:, 0], lo[:, 1]
    diff = np.column_stack([c * x - s * y + pose.t_x, s * x + c * y + pose.t_y,
                            lo[:, 2] + pose.t_z, lo[:, 3] + pose.yaw, lo[:, 4:]]) - g
    diff[:, 3] = wrap_angle(diff[:, 3])
    err = np.max(np.abs(diff), initial=0.0)
    if err > FRAME_CONSISTENCY_TOL:
        raise ValueError(
            f"global box disagrees with transformed local box by {err:.3e}")
    pose_row = [pose.t_x, pose.t_y, pose.t_z, pose.yaw, math.hypot(pose.t_x, pose.t_y)]
    vals = np.concatenate([
        g, np.hypot(g[:, 0], g[:, 1])[:, None],
        lo[:, :4], np.hypot(lo[:, 0], lo[:, 1])[:, None],
        np.broadcast_to(pose_row, (len(g), 5)),
    ], axis=1)
    return PositionalFeature(vals)


def normalize(values, bounds=DEFAULT_BOUNDS) -> np.ndarray:
    """Map each column of (N, 18) values from its [min, max] onto [-pi, pi], clamping."""
    lo, hi = np.asarray(bounds, dtype=float).T
    if np.any(lo >= hi):
        raise ValueError("bounds must satisfy min < max for every variable")
    u = np.clip((values - lo) / (hi - lo), 0.0, 1.0)
    return -math.pi + 2.0 * math.pi * u


def _sinusoids(xb, out) -> np.ndarray:
    """Fill `out` (..., K, 256) with the interleaved sin/cos of (..., K) normalized scalars."""
    phases = xb[..., None] / _SCALES
    out[..., 0::2] = np.sin(phases)
    out[..., 1::2] = np.cos(phases)
    return out


def positional_encoding(f_pos, bounds=DEFAULT_BOUNDS) -> np.ndarray:
    """Sinusoidal expansion of normalized positional rows: (N, 18) -> (N, 18, 256).

    Each normalized scalar xb becomes 256 entries with even index 2i holding
    sin(xb / 2^(i/d)) and odd index 2i+1 holding cos(xb / 2^(i/d)), d = 128.
    """
    if not isinstance(f_pos, PositionalFeature):
        f_pos = PositionalFeature(f_pos)
    xb = normalize(f_pos.values, bounds)
    return _sinusoids(xb, np.empty(xb.shape + (2 * ENCODING_HALF_WIDTH,)))


def encode_detection(det_global, det_local, pose: PoseYawT,
                     bounds=DEFAULT_BOUNDS, out=None) -> np.ndarray:
    """Encode one packet's detections: extract_positional, then positional_encoding.

    `det_global` and `det_local` are the packet's (N, 7) box rows. The
    (N, 18, 256) encoding is written to `out` when given (a window's
    packets fill slices of one array), else to a new array.
    """
    xb = normalize(extract_positional(det_global, det_local, pose).values, bounds)
    if out is None:
        out = np.empty(xb.shape + (2 * ENCODING_HALF_WIDTH,))
    # columns 13: (the pose) are the same in every row of a packet: encode them once
    _sinusoids(xb[:, :13], out[:, :13])
    _sinusoids(xb[:1, 13:], out[:, 13:])
    return out


def synth_appearance(distance: float, noise_scale: float, rng: np.random.Generator,
                     shape=DEFAULT_APPEARANCE_SHAPE) -> np.ndarray:
    """Synthetic appearance tensor carrying the sensor's noise level as signal.

    Channel 0 is a constant baseline, channel 1 encodes object distance, and
    channel 2 encodes the sensor's true noise scale for this object. Remaining
    channels carry seeded texture whose amplitude grows with the noise scale,
    so a zero-noise sensor yields an exactly deterministic baseline tensor.
    """
    c, h, w = shape
    if c < 3:
        raise ValueError("appearance tensor needs at least 3 channels")
    out = np.zeros(shape, dtype=float)
    out[0] = 1.0
    out[1] = distance / 100.0
    out[2] = noise_scale
    if c > 3:
        out[3:] = noise_scale * rng.standard_normal((c - 3, h, w))
    return out
