"""Input features for the covariance network, computed per vehicle packet.

A detection contributes two features: an 18-element positional vector built
from its sensor-local box and the sensor's local-to-global transform, and a
small synthetic appearance tensor standing in for detector feature-map
crops. The positional vector holds the detection's global box, its local box
and the transform; the global box is the local box carried through the
transform, computed here, so the two always agree. The vector is expanded to
an 18x256 sinusoidal encoding before entering the network. Positional
features are computed for all N detections of a packet at once, as (N, 18)
rows and (N, 18, 256) encodings.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import PoseYawT, transform_rows

POSITIONAL_DIM = 18
ENCODING_HALF_WIDTH = 128  # d; each scalar maps to 2*d sinusoid entries
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


def extract_positional(det_local, pose: PoseYawT) -> np.ndarray:
    """Raw (unnormalized) positional rows, (N, 18), one per detection.

    `det_local` is an (N, 7) array of box rows (x, y, z, a, l, w, h) in the
    sensor's frame, one per detection of a vehicle's packet
    (`geometry.box_rows` turns Box7s into rows); `pose` is the vehicle's
    local-to-global transform. Row layout: (x,y,z,a,l,w,h,r)_global +
    (x,y,z,a,r)_local + (t_x,t_y,t_z,yaw,r_t), where the global box is
    `geometry.transform_rows(det_local, pose)` and each r is the horizontal
    radial distance of its own entries.
    """
    lo = np.asarray(det_local, dtype=float)
    if lo.ndim != 2 or lo.shape[1] != 7:
        raise ValueError(f"box rows must have shape (N, 7), got {lo.shape}")
    g = transform_rows(lo, pose)
    pose_row = [pose.t_x, pose.t_y, pose.t_z, pose.yaw, math.hypot(pose.t_x, pose.t_y)]
    return np.concatenate([
        g, np.hypot(g[:, 0], g[:, 1])[:, None],
        lo[:, :4], np.hypot(lo[:, 0], lo[:, 1])[:, None],
        np.broadcast_to(pose_row, (len(lo), 5)),
    ], axis=1)


@functools.lru_cache(maxsize=16)
def _bound_arrays(bounds):
    """`bounds` as read-only (lo, span) arrays, span = hi - lo; ValueError
    unless min < max for every variable. Cached per bounds tuple."""
    lo, hi = np.asarray(bounds, dtype=float).T
    if np.any(lo >= hi):
        raise ValueError("bounds must satisfy min < max for every variable")
    span = hi - lo
    lo.flags.writeable = span.flags.writeable = False
    return lo, span


def normalize(values, bounds=DEFAULT_BOUNDS) -> np.ndarray:
    """Map each column of (N, 18) values from its [min, max] onto [-pi, pi], clamping."""
    try:
        lo, span = _bound_arrays(bounds)
    except TypeError:  # unhashable bounds, such as lists, are not cached
        lo, span = _bound_arrays.__wrapped__(bounds)
    u = np.clip((values - lo) / span, 0.0, 1.0)
    return -math.pi + 2.0 * math.pi * u


def _sinusoids(xb, out) -> np.ndarray:
    """Fill `out` (..., K, 256) with the interleaved sin/cos of (..., K) normalized scalars."""
    phases = xb[..., None] / _SCALES
    np.sin(phases, out=out[..., 0::2])
    np.cos(phases, out=out[..., 1::2])
    return out


def positional_encoding(f_pos, bounds=DEFAULT_BOUNDS) -> np.ndarray:
    """Sinusoidal expansion of normalized positional rows: (N, 18) -> (N, 18, 256).

    Each normalized scalar xb becomes 256 entries with even index 2i holding
    sin(xb / 2^(i/d)) and odd index 2i+1 holding cos(xb / 2^(i/d)), d = 128.
    """
    f_pos = np.asarray(f_pos, dtype=float)
    if f_pos.ndim != 2 or f_pos.shape[1] != POSITIONAL_DIM:
        raise ValueError(f"positional features must have shape (N, 18), got {f_pos.shape}")
    xb = normalize(f_pos, bounds)
    return _sinusoids(xb, np.empty(xb.shape + (2 * ENCODING_HALF_WIDTH,)))


def positional_rows(det_local, pose: PoseYawT, bounds=DEFAULT_BOUNDS) -> np.ndarray:
    """One packet's normalized positional rows, (N, 18) on [-pi, pi]:
    `normalize` of `extract_positional`, the input of `fill_encoding`."""
    return normalize(extract_positional(det_local, pose), bounds)


def fill_encoding(xb, out, sizes=None) -> np.ndarray:
    """Write the sinusoidal encoding of normalized rows `xb` (N, 18) into
    `out` (N, 18, 256), as `positional_encoding` would; returns `out`.

    `sizes` lists the row counts of the packets whose rows `xb` holds, one
    after another (None: one packet). Columns 13: (the pose) are the same
    in every row of a packet, so they are encoded once per packet, into its
    first row, and copied to the others. Only numpy calls run here, so the
    fill holds the GIL little.
    """
    start = 0
    for size in (len(xb),) if sizes is None else sizes:
        rows, first = slice(start, start + size), slice(start, start + 1)
        _sinusoids(xb[rows, :13], out[rows, :13])
        _sinusoids(xb[first, 13:], out[first, 13:])
        out[start + 1:start + size, 13:] = out[first, 13:]
        start += size
    return out


def encode_detection(det_local, pose: PoseYawT, bounds=DEFAULT_BOUNDS) -> np.ndarray:
    """Encode one packet's detections, (N, 18, 256): `positional_rows`, then
    `fill_encoding`.

    `det_local` holds the packet's (N, 7) box rows in the sensor's frame and
    `pose` is the sensor's local-to-global transform.
    """
    xb = positional_rows(det_local, pose, bounds)
    return fill_encoding(xb, np.empty(xb.shape + (2 * ENCODING_HALF_WIDTH,)))


def texture_size(shape) -> int:
    """Entries of an appearance tensor of `shape` that carry texture: every
    channel after the first 3. ValueError for fewer than 3 channels."""
    c, h, w = shape
    if c < 3:
        raise ValueError("appearance tensor needs at least 3 channels")
    return (c - 3) * h * w


def appearance_tensors(distances, noise_scales, texture,
                       shape=DEFAULT_APPEARANCE_SHAPE) -> np.ndarray:
    """The tensors of `synth_appearance`, (k, *shape), for k objects' distances
    and noise scales and their (k, `texture_size(shape)`) standard normal draws."""
    noise_scales = np.asarray(noise_scales, dtype=float)[:, None, None]
    out = np.zeros((len(noise_scales), *shape), dtype=float)
    out[:, 0] = 1.0
    out[:, 1] = (np.asarray(distances, dtype=float) / 100.0)[:, None, None]
    out[:, 2] = noise_scales
    out[:, 3:] = noise_scales[:, None] * np.reshape(texture, out[:, 3:].shape)
    return out


def synth_appearance(distance: float, noise_scale: float, rng: np.random.Generator,
                     shape=DEFAULT_APPEARANCE_SHAPE) -> np.ndarray:
    """Synthetic appearance tensor carrying the sensor's noise level as signal.

    Channel 0 is a constant baseline, channel 1 encodes object distance, and
    channel 2 encodes the sensor's true noise scale for this object. Remaining
    channels carry seeded texture whose amplitude grows with the noise scale,
    so a zero-noise sensor yields an exactly deterministic baseline tensor.
    """
    texture = rng.standard_normal((1, texture_size(shape)))
    return appearance_tensors([distance], [noise_scale], texture, shape)[0]
