"""Kalman prediction and update for a bank of tracks.

State is 10-dimensional: box center, yaw, extents, and per-frame velocity
(x, y, z, a, l, w, h, dx, dy, dz). Observations are the 7 box variables.
A `TrackBank` holds the beliefs of all live tracks as one (T, 10) mean and
one (T, 10, 10) covariance: `predict` advances the whole bank in one call,
and `update` fuses one observation into each of a set of distinct rows in
one call. A single `TrackState` (one belief, a mean and a covariance) is
the batch-free case of both. Lifecycle counters live apart from the
beliefs, in `association.Lifecycle`.

Every operation is written against the autodiff primitives, so the same code
runs on plain arrays (tracking, and the longdouble gradient oracles) and on
tape nodes (training); the two modes produce bit-identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .geometry import wrap_angle

STATE_DIM = 10
OBS_DIM = 7

R_FLOOR = 1e-6


class DegenerateCovariance(ValueError):
    """Innovation covariance too ill-conditioned to invert."""


def constant_velocity_transition() -> np.ndarray:
    """Transition matrix coupling position to per-frame velocity."""
    A = np.eye(STATE_DIM)
    A[0, 7] = 1.0
    A[1, 8] = 1.0
    A[2, 9] = 1.0
    return A


def observation_matrix() -> np.ndarray:
    """H = [I 0]: the first 7 state variables are observed directly.

    Each call returns a new, writable array; `OBSERVATION_MATRIX` is the
    one shared copy.
    """
    H = np.zeros((OBS_DIM, STATE_DIM))
    H[:OBS_DIM, :OBS_DIM] = np.eye(OBS_DIM)
    return H


# The shared, read-only H: `update` accepts it without comparing entries.
OBSERVATION_MATRIX = observation_matrix()
OBSERVATION_MATRIX.flags.writeable = False


def default_process_noise(q_velocity: float) -> np.ndarray:
    """Diagonal process noise: zero on observed variables, q on velocities."""
    q = np.zeros(STATE_DIM)
    q[7:] = q_velocity
    return np.diag(q)


@dataclass
class ProcessModel:
    A: np.ndarray
    Q: np.ndarray

    @staticmethod
    def constant_velocity(q_velocity: float) -> "ProcessModel":
        return ProcessModel(constant_velocity_transition(), default_process_noise(q_velocity))


@dataclass
class ObservationModel:
    """Observation matrix plus a diagonal noise covariance.

    H must equal `observation_matrix()`, [I 0]: the update reads the
    observed block of the covariance by slicing. The tracker passes the
    shared read-only `OBSERVATION_MATRIX`, which `update` accepts at once;
    any other H is compared with it entry by entry on every update.
    `r_diag` holds the diagonal of R, one (7,) row per observation, and may
    be a tape node during training. Entries are floored at R_FLOOR when
    built through `covnet`, which keeps the innovation covariance
    invertible.
    """

    H: np.ndarray
    r_diag: object  # (7,) for one track, (k, 7) for k bank rows; ndarray or tape Node


@dataclass
class TrackState:
    """Filter belief for one object.

    `mean` and `cov` may be ndarrays or tape nodes. The covariance starts
    diagonal at birth and becomes dense after the first update.
    """

    mean: object  # 10-vector
    cov: object  # 10x10


@dataclass
class TrackBank:
    """Filter beliefs of T tracks, one row each.

    `mean` is (T, 10) and `cov` (T, 10, 10), ndarrays or tape nodes.
    `skipped` counts the rows whose update was skipped because their
    innovation covariance was degenerate; each such row kept its predicted
    state.
    """

    mean: object
    cov: object
    skipped: int = 0

    @staticmethod
    def empty() -> "TrackBank":
        return TrackBank(np.zeros((0, STATE_DIM)), np.zeros((0, STATE_DIM, STATE_DIM)))

    def append(self, mean, cov) -> "TrackBank":
        """The bank with rows (b, 10) and (b, 10, 10) added at the end."""
        return TrackBank(ad.concat([self.mean, mean]), ad.concat([self.cov, cov]),
                         self.skipped)

    def take(self, rows) -> "TrackBank":
        """The bank restricted to `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return TrackBank(ad.getitem(self.mean, rows), ad.getitem(self.cov, rows),
                         self.skipped)


def predict(state, model: ProcessModel):
    """Advance a belief one frame: mean by A, covariance by A Sigma A^T + Q.

    `state` is a TrackState or a whole TrackBank; the result has its type.
    """
    mean = ad.matmul(state.mean, model.A.T)
    cov = ad.add(ad.matmul(ad.matmul(model.A, state.cov), model.A.T), model.Q)
    return replace(state, mean=mean, cov=cov)


def _adjust_observation_yaw(obs: np.ndarray, predicted_yaw: np.ndarray) -> np.ndarray:
    """Rewrite the observation yaws so each innovation is the wrapped residual.

    The residual is wrapped to [-pi, pi); if it still exceeds pi/2 in
    magnitude the observed heading is flipped by pi first (boxes are close
    to symmetric front-to-back). The returned rows have their yaw set to
    predicted_yaw + residual, which makes (obs - H mu) produce exactly the
    wrapped residual without touching the gradient path.
    """
    diff = wrap_angle(obs[:, 3] - predicted_yaw)
    diff = np.where(np.abs(diff) > 0.5 * math.pi, wrap_angle(diff + math.pi), diff)
    out = obs.copy()
    out[:, 3] = predicted_yaw + diff
    return out


def _update_rows(mean, cov, obs: np.ndarray, r_diag):
    """Kalman update of k beliefs, each with its own observation.

    `mean` (k, 10), `cov` (k, 10, 10), `obs` and `r_diag` (k, 7). With
    H = [I 0]: S = Sigma[:7, :7] + R, K = Sigma[:, :7] S^-1,
    mean += K innovation, cov = Sigma - K Sigma[:7, :]. Returns the
    updated (mean, cov) and S's condition estimates; a row whose S is
    degenerate gets a zero gain and so keeps its belief.
    """
    k = obs.shape[0]
    obs = _adjust_observation_yaw(obs, ad.val(mean)[:, 3])
    S = ad.add(cov[:, :OBS_DIM, :OBS_DIM], ad.diag(r_diag))
    S_inv, cond = ad.spd_inverse_rows(S)
    K = ad.matmul(cov[:, :, :OBS_DIM], S_inv)
    innovation = ad.reshape(ad.sub(obs, mean[:, :OBS_DIM]), (k, OBS_DIM, 1))
    mean = ad.add(mean, ad.reshape(ad.matmul(K, innovation), (k, STATE_DIM)))
    cov = ad.sub(cov, ad.matmul(K, cov[:, :OBS_DIM, :]))

    # Re-wrap the state yaws outside [-pi, pi) with a constant offset; rows
    # in range are untouched, so the zero-innovation fixed point and the
    # rows that kept their prediction stay exact.
    yaw = ad.val(mean)[:, 3]
    outside = (yaw < -math.pi) | (yaw >= math.pi)
    if np.any(outside):
        shift = np.zeros((k, STATE_DIM), dtype=yaw.dtype)
        shift[:, 3] = np.where(outside, wrap_angle(yaw) - yaw, 0.0)
        mean = ad.add(mean, shift)
    return mean, cov, cond


def _check_observation_model(H: np.ndarray):
    if H is OBSERVATION_MATRIX:
        return
    if np.shape(H) != (OBS_DIM, STATE_DIM) or not np.array_equal(H, OBSERVATION_MATRIX):
        raise ValueError("the update supports only H = [I 0] (filter.observation_matrix())")


def update(state, obs, obs_model: ObservationModel, rows=None):
    """Kalman update with one observation per track.

    S = H Sigma H^T + R, K = Sigma H^T S^-1, mean += K innovation,
    cov = (I - K H) Sigma, computed by slicing since H = [I 0]. The
    innovation yaw is wrapped (and the observed heading flipped when off by
    more than pi/2) before use, and the updated yaw is re-wrapped into
    [-pi, pi) by a constant shift.

    `obs_model.H` must equal [I 0]; `OBSERVATION_MATRIX` itself skips the
    comparison.

    With a TrackState, `obs` is a 7-vector and a degenerate innovation
    covariance raises DegenerateCovariance. With a TrackBank of T rows,
    `rows` holds k distinct row indices in [0, T) (a negative index is
    rejected, not counted from the end, so no row can be named twice),
    `obs` and `obs_model.r_diag` are (k, 7), and all rows update at once;
    a bad `rows` raises ValueError before anything is computed. A row with
    a degenerate innovation covariance keeps its predicted state and is
    counted in the bank's `skipped`. Rows not listed are returned
    bit-identical.
    """
    _check_observation_model(obs_model.H)
    dtype = ad.val(state.mean).dtype
    if isinstance(state, TrackState):
        obs = np.asarray(obs, dtype=dtype)
        if obs.shape != (OBS_DIM,):
            raise ValueError(f"observation shape {obs.shape} does not match H rows {OBS_DIM}")
        mean, cov, cond = _update_rows(ad.reshape(state.mean, (1, STATE_DIM)),
                                       ad.reshape(state.cov, (1, STATE_DIM, STATE_DIM)),
                                       obs[None], ad.reshape(obs_model.r_diag, (1, OBS_DIM)))
        if not cond[0] <= ad.SPD_CONDITION_LIMIT:
            raise DegenerateCovariance(
                f"innovation covariance is degenerate (condition estimate {cond[0]:.3e})")
        return TrackState(ad.reshape(mean, (STATE_DIM,)),
                          ad.reshape(cov, (STATE_DIM, STATE_DIM)))
    rows = np.asarray(rows, dtype=np.intp)
    obs = np.asarray(obs, dtype=dtype)
    if obs.shape != (len(rows), OBS_DIM):
        raise ValueError(f"observations {obs.shape} do not match {len(rows)} rows of {OBS_DIM}")
    indices, size = rows.tolist(), len(ad.val(state.mean))
    if indices and not 0 <= min(indices) <= max(indices) < size:
        bad = next(i for i in indices if not 0 <= i < size)
        raise ValueError(f"bank row {bad} is outside the bank's {size} rows")
    if len(set(indices)) != len(indices):
        raise ValueError("bank rows of one update must be distinct")
    mean, cov, cond = _update_rows(ad.getitem(state.mean, rows), ad.getitem(state.cov, rows),
                                   obs, obs_model.r_diag)
    return TrackBank(ad.scatter_rows(state.mean, rows, mean),
                     ad.scatter_rows(state.cov, rows, cov),
                     state.skipped + int(np.count_nonzero(~(cond <= ad.SPD_CONDITION_LIMIT))))


def fuse_sequential(state: TrackState, observations) -> TrackState:
    """Fold the update over one track's observations from several sensors.

    `observations` is a sequence of (7-vector, ObservationModel) pairs, all
    taken at the same timestep. For a fixed observation set the result is
    order-invariant up to floating point roundoff.
    """
    for obs, model in observations:
        state = update(state, obs, model)
    return state
