"""Kalman prediction and update for one track.

State is 10-dimensional: box center, yaw, extents, and per-frame velocity
(x, y, z, a, l, w, h, dx, dy, dz). Observations are the 7 box variables.
Every operation is written against the autodiff primitives, so the same code
runs on plain arrays (tracking) and on tape nodes (training); the two modes
produce bit-identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .geometry import wrap_angle

STATE_DIM = 10
OBS_DIM = 7

R_FLOOR = 1e-6


class DegenerateCovariance(ValueError):
    """Innovation covariance too ill-conditioned to invert."""


def constant_velocity_transition(dtype=np.float64) -> np.ndarray:
    """Transition matrix coupling position to per-frame velocity."""
    A = np.eye(STATE_DIM, dtype=dtype)
    A[0, 7] = 1.0
    A[1, 8] = 1.0
    A[2, 9] = 1.0
    return A


def observation_matrix(dtype=np.float64) -> np.ndarray:
    """H = [I 0]: the first 7 state variables are observed directly."""
    H = np.zeros((OBS_DIM, STATE_DIM), dtype=dtype)
    H[:OBS_DIM, :OBS_DIM] = np.eye(OBS_DIM, dtype=dtype)
    return H


def default_process_noise(q_velocity: float = 0.01, dtype=np.float64) -> np.ndarray:
    """Diagonal process noise: zero on observed variables, q on velocities."""
    q = np.zeros(STATE_DIM, dtype=dtype)
    q[7:] = q_velocity
    return np.diag(q)


@dataclass
class ProcessModel:
    A: np.ndarray
    Q: np.ndarray

    @staticmethod
    def constant_velocity(q_velocity: float = 0.01, dtype=np.float64) -> "ProcessModel":
        return ProcessModel(constant_velocity_transition(dtype),
                            default_process_noise(q_velocity, dtype=dtype))


@dataclass
class ObservationModel:
    """Observation matrix plus a diagonal noise covariance.

    `r_diag` holds the diagonal of R and may be a tape node during training.
    Entries are floored at R_FLOOR when built through `covnet`, which keeps
    the innovation covariance invertible.
    """

    H: np.ndarray
    r_diag: object  # length-7 vector, ndarray or tape Node


@dataclass
class TrackState:
    """Filter belief for one object plus lifecycle counters.

    `mean` and `cov` may be ndarrays or tape nodes. The covariance starts
    diagonal at birth and becomes dense after the first update.
    """

    mean: object  # 10-vector
    cov: object  # 10x10
    id: int = -1
    hits: int = 0
    misses: int = 0
    age: int = 0
    score: float = 1.0

    def box_vector(self) -> np.ndarray:
        """Observed 7 state variables as a plain float64 vector."""
        return np.asarray(ad.val(self.mean)[:OBS_DIM], dtype=float)


def predict(state: TrackState, model: ProcessModel) -> TrackState:
    """Advance the belief one frame: mean by A, covariance by A Sigma A^T + Q."""
    mean = ad.matmul(model.A, state.mean)
    cov = ad.add(ad.matmul(ad.matmul(model.A, state.cov), model.A.T), model.Q)
    return TrackState(mean, cov, state.id, state.hits, state.misses, state.age, state.score)


def _adjust_observation_yaw(obs: np.ndarray, predicted_yaw: float) -> np.ndarray:
    """Rewrite the observation yaw so the innovation is the wrapped residual.

    The residual is wrapped to [-pi, pi); if it still exceeds pi/2 in
    magnitude the observed heading is flipped by pi first (boxes are close
    to symmetric front-to-back). The returned observation has its yaw set
    to predicted_yaw + residual, which makes (obs - H mu) produce exactly
    the wrapped residual without touching the gradient path.
    """
    diff = wrap_angle(float(obs[3]) - predicted_yaw)
    if abs(diff) > 0.5 * math.pi:
        diff = wrap_angle(diff + math.pi)
    out = np.array(obs, copy=True)
    out[3] = predicted_yaw + diff
    return out


def update(state: TrackState, obs, obs_model: ObservationModel) -> TrackState:
    """Standard Kalman update of a predicted state with one observation.

    S = H Sigma H^T + R, K = Sigma H^T S^-1, mean += K innovation,
    cov = (I - K H) Sigma. The innovation yaw is wrapped (and the observed
    heading flipped when off by more than pi/2) before use, and the updated
    yaw is re-wrapped into [-pi, pi) by a constant shift.
    """
    H = obs_model.H
    m = H.shape[0]
    dtype = ad.val(state.mean).dtype
    obs = np.asarray(obs, dtype=dtype)
    if obs.shape != (m,):
        raise ValueError(f"observation shape {obs.shape} does not match H rows {m}")

    predicted_yaw = float(ad.val(state.mean)[3])
    obs = _adjust_observation_yaw(obs, predicted_yaw)

    S = ad.add(ad.matmul(ad.matmul(H, state.cov), H.T), ad.diag(obs_model.r_diag))
    try:
        S_inv = ad.spd_inverse(S)
    except ad.SpdError as e:
        raise DegenerateCovariance(str(e)) from e
    K = ad.matmul(ad.matmul(state.cov, H.T), S_inv)
    innovation = ad.sub(obs, ad.matmul(H, state.mean))
    mean = ad.add(state.mean, ad.matmul(K, innovation))
    eye = np.eye(STATE_DIM, dtype=dtype)
    cov = ad.matmul(ad.sub(eye, ad.matmul(K, H)), state.cov)

    # Re-wrap the state yaw with a constant offset; a no-op when in range,
    # so the zero-innovation fixed point stays exact.
    yaw = float(ad.val(mean)[3])
    wrapped = wrap_angle(yaw)
    if wrapped != yaw:
        shift = np.zeros(STATE_DIM, dtype=dtype)
        shift[3] = wrapped - yaw
        mean = ad.add(mean, shift)

    return TrackState(mean, cov, state.id, state.hits, state.misses, state.age, state.score)


def fuse_sequential(state: TrackState, observations) -> TrackState:
    """Fold the update over one track's observations from several sensors.

    `observations` is a sequence of (7-vector, ObservationModel) pairs, all
    taken at the same timestep. For a fixed observation set the result is
    order-invariant up to floating point roundoff.
    """
    for obs, model in observations:
        state = update(state, obs, model)
    return state
