"""Property tests: geometric and metric invariants over generated inputs."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

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
