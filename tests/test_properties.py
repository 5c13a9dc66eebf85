"""Property tests: geometric, filter and metric invariants over generated inputs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cooptrack.covnet import residual_to_init_noise_diag, residual_to_obs_noise_diag
from cooptrack.filter import (OBS_DIM, STATE_DIM, ObservationModel, ProcessModel, TrackState,
                              observation_matrix, predict, update)
from cooptrack.geometry import Box7, PoseYawT, inverse_pose, iou3d, transform_box, wrap_angle
from cooptrack.metrics import evaluate

# deterministic example sequences, no example database on disk
PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)

coords = st.floats(-50.0, 50.0)
angles = st.floats(-math.pi, math.pi)
extents = st.floats(0.1, 10.0)
boxes = st.builds(Box7, coords, coords, st.floats(-3.0, 3.0), angles, extents, extents, extents)
poses = st.builds(PoseYawT, coords, coords, st.floats(-3.0, 3.0), st.floats(-10.0, 10.0))


@st.composite
def box_pairs(draw):
    """Two boxes, the second often a small perturbation of the first."""
    a = draw(boxes)
    if draw(st.booleans()):
        return a, draw(boxes)
    nudge = st.floats(-1.0, 1.0)
    b = Box7(a.x + draw(nudge), a.y + draw(nudge), a.z + draw(nudge), a.a + draw(nudge),
             max(0.1, a.l + draw(nudge)), max(0.1, a.w + draw(nudge)),
             max(0.1, a.h + draw(nudge)))
    return a, b


@PROPERTY
@given(box_pairs())
def test_iou3d_is_a_symmetric_fraction(pair):
    a, b = pair
    v = iou3d(a, b)
    assert 0.0 <= v <= 1.0
    assert v == iou3d(b, a)


@PROPERTY
@given(boxes)
def test_iou3d_of_a_box_with_itself_is_one(box):
    assert abs(iou3d(box, box) - 1.0) <= 1e-9


@PROPERTY
@given(boxes, poses)
def test_transform_then_inverse_pose_is_identity(box, pose):
    back = transform_box(transform_box(box, pose), inverse_pose(pose))
    for got, want in zip((back.x, back.y, back.z), (box.x, box.y, box.z)):
        assert abs(got - want) <= 1e-9
    assert abs(wrap_angle(back.a - box.a)) <= 1e-9
    assert (back.l, back.w, back.h) == (box.l, box.w, box.h)


def _car(x):
    return Box7(x, 0.0, 0.0, 0.0, 4.5, 1.9, 1.6)


@st.composite
def tracked_scenes(draw):
    """Ground truth on a line and tracks near it: some offset enough to miss."""
    num_frames, num_objects = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    gt_frames, track_frames = {}, {}
    for t in range(num_frames):
        gt_frames[t] = [(g, _car(10.0 * g + 0.5 * t)) for g in range(num_objects)]
        track_frames[t] = [
            (draw(st.integers(0, 5)), _car(10.0 * g + 0.5 * t + draw(st.floats(-3.5, 3.5))),
             draw(st.floats(0.05, 1.0)))
            for g in range(num_objects) if draw(st.booleans())]
    return track_frames, gt_frames


@PROPERTY
@given(tracked_scenes(), st.permutations(range(6)))
def test_evaluate_ignores_track_labels(scene, relabel):
    track_frames, gt_frames = scene
    renamed = {t: [(100 + relabel[tid], box, score) for tid, box, score in items]
               for t, items in track_frames.items()}
    # repr compares NaN thresholds of unreachable levels as equal
    assert repr(evaluate(renamed, gt_frames)) == repr(evaluate(track_frames, gt_frames))


# network residuals from well below -1 (the R floor engages) to large
residuals = st.floats(-1.5, 3.0)
observations = st.tuples(st.lists(st.floats(-3.0, 3.0), min_size=OBS_DIM, max_size=OBS_DIM),
                         st.lists(residuals, min_size=OBS_DIM, max_size=OBS_DIM))
# each frame: a predict, then the updates of up to three vehicles
frames = st.lists(st.lists(observations, max_size=3), min_size=10, max_size=40)


def _assert_symmetric_psd(cov):
    scale = max(1.0, float(np.max(np.abs(cov))))
    assert np.max(np.abs(cov - cov.T)) <= 1e-9 * scale
    assert np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))) >= -1e-9 * scale


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(residuals, min_size=STATE_DIM, max_size=STATE_DIM),
       st.floats(0.0, 1.0), frames)
def test_covariance_stays_symmetric_psd_through_long_chains(init_residual, q_velocity, chain):
    process = ProcessModel.constant_velocity(q_velocity=q_velocity)
    state = TrackState(mean=np.zeros(STATE_DIM),
                       cov=np.diag(residual_to_init_noise_diag(np.array(init_residual))))
    for updates in chain:
        state = predict(state, process)
        _assert_symmetric_psd(state.cov)
        for offset, residual in updates:
            r_diag = residual_to_obs_noise_diag(np.array(residual + [0.0] * 3))
            obs = state.mean[:OBS_DIM] + np.array(offset)
            state = update(state, obs, ObservationModel(observation_matrix(), r_diag))
            _assert_symmetric_psd(state.cov)
