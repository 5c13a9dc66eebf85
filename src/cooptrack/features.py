"""Input features for the covariance network, computed per vehicle packet.

A detection contributes two features: an 18-element positional vector built
from its sensor-local box and the sensor's local-to-global transform, and a
small synthetic appearance tensor standing in for detector feature-map
crops. The positional vector holds the detection's global box, its local box
and the transform; the global box is the local box carried through the
transform, computed here, so the two always agree. Each normalized scalar
is specified to expand into 256 sinusoids (`positional_encoding`), whose
frequencies all lie in one octave; on [-pi, pi] they are, to rounding,
polynomials of degree CHEBYSHEV_DEGREE. So the network reads each scalar's
Chebyshev values instead, (N, 18, D + 1) rows (`chebyshev_rows`), and
CHEBYSHEV_BASIS maps them onto the 256 sinusoids.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import PoseYawT, transform_rows

POSITIONAL_DIM = 18
ENCODING_HALF_WIDTH = 128  # d; each scalar maps to 2*d sinusoid entries
# the smallest degree whose interpolants meet the encoding within 2e-15 on
# [-pi, pi] (tests/test_features.py)
CHEBYSHEV_DEGREE = 20
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


def pose_columns(pose: PoseYawT) -> list:
    """The last 5 entries of every positional row of a vehicle's packet:
    (t_x, t_y, t_z, yaw, r_t) of its local-to-global transform `pose`."""
    return [pose.t_x, pose.t_y, pose.t_z, pose.yaw, math.hypot(pose.t_x, pose.t_y)]


def positional_columns(det_local, det_global, poses) -> np.ndarray:
    """Raw positional rows, (N, 18), from N detections' (N, 7) box rows in
    their sensor's frame, the same boxes in the global frame and each
    detection's `pose_columns`, (N, 5). The detections may come from any
    number of packets; every entry depends on its own detection alone."""
    return np.concatenate([
        det_global, np.hypot(det_global[:, 0], det_global[:, 1])[:, None],
        det_local[:, :4], np.hypot(det_local[:, 0], det_local[:, 1])[:, None],
        poses,
    ], axis=1)


def extract_positional(det_local, pose: PoseYawT) -> np.ndarray:
    """Raw (unnormalized) positional rows, (N, 18), one per detection.

    `det_local` is an (N, 7) array of box rows (x, y, z, a, l, w, h) in the
    sensor's frame, one per detection of a vehicle's packet
    (`geometry.box_rows` turns Box7s into rows); `pose` is the vehicle's
    local-to-global transform. Row layout: (x,y,z,a,l,w,h,r)_global +
    (x,y,z,a,r)_local + (t_x,t_y,t_z,yaw,r_t), where the global box is
    `geometry.transform_rows(det_local, pose)` and each r is the horizontal
    radial distance of its own entries (`positional_columns`).
    """
    lo = np.asarray(det_local, dtype=float)
    if lo.ndim != 2 or lo.shape[1] != 7:
        raise ValueError(f"box rows must have shape (N, 7), got {lo.shape}")
    return positional_columns(lo, transform_rows(lo, pose),
                              np.broadcast_to(pose_columns(pose), (len(lo), 5)))


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
    lo, span = _bound_arrays(tuple(map(tuple, bounds)))
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


def encode_detection(det_local, pose: PoseYawT, bounds=DEFAULT_BOUNDS) -> np.ndarray:
    """Encode one packet's detections, (N, 18, 256): `positional_encoding` of
    `extract_positional`.

    `det_local` holds the packet's (N, 7) box rows in the sensor's frame and
    `pose` is the sensor's local-to-global transform.
    """
    return positional_encoding(extract_positional(det_local, pose), bounds)


def chebyshev_rows(xb) -> np.ndarray:
    """The Chebyshev values T_0..T_D of t = xb / pi for normalized rows `xb`
    (N, 18): (N, 18, D + 1), D = CHEBYSHEV_DEGREE, in the dtype of t.

    By the recurrence T_{k+1} = 2t T_k - T_{k-1}, so any float dtype works.
    Row f of a detection times CHEBYSHEV_BASIS is its scalar f's encoding,
    to rounding.
    """
    t = np.asarray(xb) / math.pi
    out = np.empty((CHEBYSHEV_DEGREE + 1,) + t.shape, dtype=t.dtype)
    out[0] = 1.0
    out[1] = t
    twice = 2.0 * t
    for k in range(2, CHEBYSHEV_DEGREE + 1):
        np.multiply(twice, out[k - 1], out=out[k])
        out[k] -= out[k - 2]
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def _chebyshev_basis(degree: int) -> np.ndarray:
    """The (degree + 1, 256) coefficients of the interpolants of the 256
    sinusoids of `positional_encoding`, as functions of t = xb / pi, at the
    degree + 1 Chebyshev points of the first kind; read-only.

    A discrete cosine transform of their values at the points, summed point
    by point in a fixed order, so no BLAS or LAPACK build changes a bit. It
    runs in longdouble and is rounded once at the end: summed in float64,
    the small high-degree coefficients would be off by about 1e-16, which
    the steep high-degree T_k magnify near t = +-1.
    """
    n = degree + 1
    theta = np.arccos(np.longdouble(-1.0)) * (np.arange(n) + 0.5) / n
    values = _sinusoids(math.pi * np.cos(theta),
                        np.empty((n, 2 * ENCODING_HALF_WIDTH), dtype=np.longdouble))
    cosines = np.cos(np.outer(np.arange(n), theta))  # T_j at point k
    basis = np.zeros((n, 2 * ENCODING_HALF_WIDTH), dtype=np.longdouble)
    for k in range(n):
        basis += cosines[:, k:k + 1] * values[k]
    basis *= 2.0 / n
    basis[0] *= 0.5
    basis = basis.astype(float)
    basis.flags.writeable = False
    return basis


CHEBYSHEV_BASIS = _chebyshev_basis(CHEBYSHEV_DEGREE)


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
