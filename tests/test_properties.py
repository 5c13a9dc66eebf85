"""Property tests: geometric, filter and metric invariants over generated inputs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cooptrack.covnet import residual_to_noise_diag
from cooptrack.features import extract_positional
from cooptrack.filter import (OBS_DIM, STATE_DIM, ObservationModel, ProcessModel, TrackBank,
                              TrackState, observation_matrix, predict, update)
from cooptrack.geometry import (Box7, PoseYawT, box_rows, inverse_pose, iou3d, transform_box,
                                transform_rows, wrap_angle)
from cooptrack.association import build_cost_matrix, prescreen_pairs
from cooptrack import metrics
from cooptrack.io import RunConfig
from cooptrack.metrics import (ML_FRACTION, MT_FRACTION, NUM_RECALL_LEVELS, EvalReport,
                               RecallLevel, evaluate, match_frame)

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


seam_angles = st.floats(math.pi - 1e-6, math.pi) | st.floats(-math.pi, -math.pi + 1e-6)
# boxes and poses, some with a yaw near the +-pi seam
seam_boxes = boxes | st.builds(Box7, coords, coords, st.floats(-3.0, 3.0), seam_angles,
                               extents, extents, extents)
seam_poses = poses | st.builds(PoseYawT, coords, coords, st.floats(-3.0, 3.0), seam_angles)


@st.composite
def row_sets(draw):
    """Tracks and detections: random, near the yaw seam or heading along an axis,
    identical and touching pairs, and side by side (touching, or a gap apart:
    some gaps near the prescreen's margin, some negative)."""
    axis_boxes = st.builds(Box7, coords, coords, st.floats(-3.0, 3.0),
                           st.sampled_from([0.0, 0.5 * math.pi, -0.5 * math.pi, -math.pi]),
                           extents, extents, extents)
    tracks = draw(st.lists(seam_boxes | axis_boxes, min_size=1, max_size=5))
    dets = []
    for t in tracks:
        kind = draw(st.sampled_from(("identical", "end-to-end", "stacked", "mirrored",
                                     "nudged", "side by side", "other")))
        c, s = math.cos(t.a), math.sin(t.a)
        if kind == "identical":
            dets.append(t)
        elif kind == "end-to-end":  # touching along the heading
            dets.append(Box7(t.x + c * t.l, t.y + s * t.l, t.z, t.a, t.l, t.w, t.h))
        elif kind == "side by side":  # along the width normal: touching, or a gap apart
            d = t.w + draw(st.sampled_from([0.0, 1e-9, 2e-9]).map(lambda k: k * t.w)
                           | st.floats(-0.5 * t.w, 1.0))
            dets.append(Box7(t.x - s * d, t.y + c * d, t.z, t.a, t.l, t.w, t.h))
        elif kind == "stacked":  # touching faces in z
            dets.append(Box7(t.x, t.y, t.z + t.h, t.a, t.l, t.w, t.h))
        elif kind == "mirrored":  # the same heading across the seam when near +-pi
            dets.append(Box7(t.x, t.y, t.z, -t.a, t.l, t.w, t.h))
        elif kind == "nudged":
            nudge = st.floats(-1.0, 1.0)
            dets.append(Box7(t.x + draw(nudge), t.y + draw(nudge), t.z, t.a + draw(nudge),
                             t.l, t.w, t.h))
        else:
            dets.append(draw(boxes))
    return tracks, dets + draw(st.lists(boxes, max_size=2))


@PROPERTY
@given(row_sets())
def test_cost_matrix_on_rows_equals_negated_iou_of_boxes_bit_for_bit(sets):
    tracks, dets = sets
    cost = build_cost_matrix(box_rows(tracks), box_rows(dets))
    want = np.array([[-iou3d(t, d) for d in dets] for t in tracks])
    # + 0.0 maps the -0.0 of a zero IoU onto the prescreen's +0.0
    assert (cost + 0.0).tobytes() == (want + 0.0).tobytes()


@PROPERTY
@given(st.lists(seam_boxes, max_size=5), seam_poses)
def test_transform_rows_gives_the_bits_of_transform_box(local, pose):
    got = transform_rows(box_rows(local), pose)
    assert got.tobytes() == box_rows(transform_box(b, pose) for b in local).tobytes()


@PROPERTY
@given(st.lists(seam_boxes, max_size=5), seam_poses)
def test_positional_global_block_gives_the_bits_of_transform_box(local, pose):
    got = extract_positional(box_rows(local), pose)[:, :7]
    assert got.tobytes() == box_rows(transform_box(b, pose) for b in local).tobytes()


def _car(x, y=0.0):
    return Box7(x, y, 0.0, 0.0, 4.5, 1.9, 1.6)


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


def count_id_switches(tp_pairs, last_ids: dict) -> int:
    """Id switches among one frame's (gt_id, track_id, iou) matches.

    `last_ids` maps gt_id to the track id it last matched and is updated in
    place; a gt matched to another track than last time is one switch. A
    frame in which a gt goes unmatched leaves its entry as it was.
    """
    ids = 0
    for gt_id, track_id, _iou in tp_pairs:
        if last_ids.get(gt_id, track_id) != track_id:
            ids += 1
        last_ids[gt_id] = track_id
    return ids


def _reference_sweep(frames, track_frames, gt_frames, avg_score, threshold):
    """One pass that rebuilds each frame's matrix from the boxes of the kept tracks."""
    tp = fp = fn = ids = 0
    iou_sum, last_ids, matched, matched_tracks = 0.0, {}, {}, []
    for t in frames:
        gts = gt_frames.get(t, [])
        kept = [(tid, box) for tid, box, _s in track_frames.get(t, [])
                if avg_score[tid] >= threshold]
        cost = build_cost_matrix(box_rows(b for _, b in gts), box_rows(b for _, b in kept))
        pairs = match_frame([tid for tid, _ in kept], [g for g, _ in gts], cost,
                            np.arange(len(kept)), RunConfig.eval_iou_threshold)
        tp, fp, fn = tp + len(pairs), fp + len(kept) - len(pairs), fn + len(gts) - len(pairs)
        ids += count_id_switches(pairs, last_ids)
        for gt_id, tid, iou in pairs:
            iou_sum += iou
            matched[gt_id] = matched.get(gt_id, 0) + 1
            matched_tracks.append(tid)
    return tp, fp, fn, ids, iou_sum, matched, matched_tracks


def _reference_average_scores(track_frames):
    totals, counts = {}, {}
    for _t, items in sorted(track_frames.items()):
        for tid, _box, score in items:
            totals[tid] = totals.get(tid, 0.0) + score
            counts[tid] = counts.get(tid, 0) + 1
    return {tid: totals[tid] / counts[tid] for tid in totals}


def _reference_evaluate(track_frames, gt_frames):
    """The recall sweep as it was before each frame's IoU matrix and matches
    were reused: every level's pass rebuilds and solves every frame."""
    num_gt = sum(len(v) for v in gt_frames.values())
    frames = sorted(set(gt_frames) | set(track_frames))
    avg_score = _reference_average_scores(track_frames)
    *_, full = _reference_sweep(frames, track_frames, gt_frames, avg_score, -math.inf)
    tp_scores = sorted((avg_score[tid] for tid in full), reverse=True)
    lifetime = {}
    for items in gt_frames.values():
        for gt_id, _box in items:
            lifetime[gt_id] = lifetime.get(gt_id, 0) + 1
    levels, best, best_matched = [], None, {}
    for k in range(1, NUM_RECALL_LEVELS + 1):
        target = k / NUM_RECALL_LEVELS
        needed = -(-k * num_gt // NUM_RECALL_LEVELS)
        if needed > len(tp_scores):
            levels.append(RecallLevel(recall_target=target, achievable=False))
            continue
        threshold = tp_scores[needed - 1]
        tp, fp, fn, ids, iou_sum, matched, _ = _reference_sweep(
            frames, track_frames, gt_frames, avg_score, threshold)
        recall = tp / num_gt
        mota = max(0.0, 1.0 - (fp + fn + ids) / num_gt)
        smota = 0.0 if tp == 0 else min(1.0, max(0.0, 1.0 - (
            fp + fn + ids - (1.0 - recall) * num_gt) / (recall * num_gt)))
        level = RecallLevel(recall_target=target, achievable=True, threshold=threshold,
                            recall=recall, tp=tp, fp=fp, fn=fn, ids=ids, mota=mota,
                            smota=smota, motp=iou_sum / tp if tp else 0.0)
        levels.append(level)
        if best is None or level.mota > best.mota:
            best, best_matched = level, matched
    if best is None:
        return EvalReport(amota=0.0, amotp=0.0, samota=0.0, mota=0.0, mt=0.0, ml=100.0,
                          ids=0, num_gt=num_gt, levels=levels)
    num_traj = len(lifetime)
    mt = sum(best_matched.get(g, 0) >= MT_FRACTION * n for g, n in lifetime.items()) / num_traj
    ml = sum(best_matched.get(g, 0) <= ML_FRACTION * n for g, n in lifetime.items()) / num_traj
    return EvalReport(amota=100.0 * sum(lv.mota for lv in levels) / NUM_RECALL_LEVELS,
                      amotp=100.0 * sum(lv.motp for lv in levels) / NUM_RECALL_LEVELS,
                      samota=100.0 * sum(lv.smota for lv in levels) / NUM_RECALL_LEVELS,
                      mota=100.0 * best.mota, mt=100.0 * mt, ml=100.0 * ml, ids=best.ids,
                      num_gt=num_gt, levels=levels)


@st.composite
def swept_scenes(draw):
    """Scenes for the recall sweep: a few shared score values (so average scores
    tie), ids drawn per frame from a small pool (so identities switch), clutter,
    and frames with no tracks or no ground truth, present as [] or absent. Some
    tracks score 0.1, 0.2 or 0.7 frame by frame, whose sums depend on the order
    of addition; an id may repeat within a frame, and the track frames' keys
    come in any order."""
    num_frames, num_objects = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    fixed = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75, None]), min_size=7, max_size=7))

    def score(tid):
        return draw(st.sampled_from([0.1, 0.2, 0.7])) if fixed[tid] is None else fixed[tid]

    gt_frames, track_frames = {}, {}
    for t in range(num_frames):
        gts = [(g, _car(10.0 * g + 0.5 * t)) for g in range(num_objects)
               if t == 0 or draw(st.booleans())]
        tracks = [(tid, _car(10.0 * g + 0.5 * t + draw(st.floats(-3.5, 3.5))), score(tid))
                  for g in range(num_objects) if draw(st.booleans())
                  for tid in [draw(st.integers(0, 5))]]
        if tracks and draw(st.booleans()):  # a second item of one of the frame's ids
            tid = draw(st.sampled_from([tid for tid, _b, _s in tracks]))
            tracks.insert(draw(st.integers(0, len(tracks))),
                          (tid, _car(draw(st.floats(-5.0, 45.0))), score(tid)))
        if draw(st.booleans()):
            tracks.append((6, _car(draw(st.floats(-20.0, 60.0))), score(6)))
        for frames_, items in ((gt_frames, gts), (track_frames, tracks)):
            if items or draw(st.booleans()):
                frames_[t] = items
    order = draw(st.permutations(list(track_frames)))
    return {t: track_frames[t] for t in order}, gt_frames


@PROPERTY
@given(swept_scenes())
def test_evaluate_equals_rebuilding_each_levels_matrices(scene):
    track_frames, gt_frames = scene
    assert repr(evaluate(track_frames, gt_frames)) == repr(_reference_evaluate(*scene))


@st.composite
def tied_scenes(draw):
    """Swept scenes plus an object of its own (gt id 10) that one track (id 7)
    follows exactly for 4-10 frames, so its many true positives share one
    average score and several recall levels share its threshold."""
    track_frames, gt_frames = draw(swept_scenes())
    score = draw(st.sampled_from([0.25, 0.5, 0.75]))
    num_frames = draw(st.integers(4, 10))
    for t in range(num_frames):
        gt_frames.setdefault(t, []).insert(0, (10, _car(-10.0 + 0.5 * t)))
        track_frames.setdefault(t, []).insert(draw(st.integers(0, 1)),
                                              (7, _car(-10.0 + 0.5 * t), score))
    return track_frames, gt_frames


@PROPERTY
@given(tied_scenes())
def test_levels_sharing_a_threshold_equal_rebuilding_each_level(scene):
    track_frames, gt_frames = scene
    report = evaluate(track_frames, gt_frames)
    thresholds = [lv.threshold for lv in report.levels if lv.achievable]
    assert len(set(thresholds)) < len(thresholds)
    assert repr(report) == repr(_reference_evaluate(*scene))


@st.composite
def crowded_scenes(draw):
    """Scenes that leave the solver work: ground truth closer than a car length
    (4.5 m), up to three tracks per gt, scores from a few shared values (so
    average scores tie), exactly repeated boxes, and track ids drawn from a
    small pool, repeated within a frame too. Each box lies in one of two
    neighbouring lanes: 4 m apart, as in the dense scenes (the cars'
    circumcircles overlap), side by side (1.9 m, touching), or a gap apart
    within or beyond the prescreen's margin; or all in one lane."""
    num_frames, num_objects = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    offsets = st.one_of(st.sampled_from([0.0, 0.0, 1.0, -2.0]), st.floats(-3.0, 3.0))
    lanes = st.sampled_from([0.0, draw(st.sampled_from([0.0, 4.0, 1.9, 1.9 + 1e-9,
                                                         1.9 + 1e-8]))])
    gt_frames, track_frames = {}, {}
    for t in range(num_frames):
        xs = [0.0]
        for _ in range(num_objects - 1):
            xs.append(xs[-1] + draw(st.sampled_from([0.0, 1.0, 2.5, 4.0])))
        gt_frames[t] = [(g, _car(x, draw(lanes))) for g, x in enumerate(xs)]
        track_frames[t] = [(draw(st.integers(0, 4)), _car(x + draw(offsets), draw(lanes)),
                            draw(st.sampled_from([0.25, 0.5, 0.75])))
                           for x in xs for _ in range(draw(st.integers(0, 3)))]
    return track_frames, gt_frames


@PROPERTY
@given(crowded_scenes())
def test_crowded_evaluate_equals_rebuilding_each_levels_matrices(scene):
    track_frames, gt_frames = scene
    assert repr(evaluate(track_frames, gt_frames)) == repr(_reference_evaluate(*scene))


@PROPERTY
@given(st.one_of(tied_scenes(), crowded_scenes()), st.data())
def test_evaluate_ignores_the_insertion_order_of_both_dicts(scene, data):
    track_frames, gt_frames = scene

    def reordered(frames):
        return {t: frames[t] for t in data.draw(st.permutations(list(frames)))}

    assert repr(evaluate(reordered(track_frames), reordered(gt_frames))) \
        == repr(evaluate(track_frames, gt_frames))


@st.composite
def scattered_scenes(draw):
    """Boxes of any heading and size scattered over the plane, so that pairs
    lie in every direction from each other, some just inside and some just
    outside the prescreen's reach."""
    near = st.builds(Box7, st.floats(-8.0, 8.0), st.floats(-8.0, 8.0), st.floats(-1.0, 1.0),
                     angles, extents, extents, extents)
    gt_frames, track_frames = {}, {}
    for t in range(draw(st.integers(1, 3))):
        gt_frames[t] = [(g, box) for g, box in enumerate(draw(st.lists(near, min_size=1,
                                                                      max_size=4)))]
        track_frames[t] = [(k, box, 0.5) for k, box in enumerate(draw(st.lists(near,
                                                                              max_size=4)))]
    return track_frames, gt_frames


@PROPERTY
@given(st.one_of(swept_scenes(), crowded_scenes(), scattered_scenes()))
def test_the_iou_batch_is_every_frames_prescreened_pairs_in_order(scene):
    track_frames, gt_frames = scene
    real_iou, batches = metrics.iou3d_rows, []
    metrics.iou3d_rows = lambda a, b: batches.append((a.copy(), b.copy())) or real_iou(a, b)
    try:
        evaluate(track_frames, gt_frames)
    finally:
        metrics.iou3d_rows = real_iou
    gt_side, track_side = [np.empty((0, 7))], [np.empty((0, 7))]
    for t in sorted(set(gt_frames) | set(track_frames)):
        gt_rows = box_rows(b for _, b in gt_frames.get(t, []))
        track_rows = box_rows(b for _, b, _s in track_frames.get(t, []))
        ii, jj = prescreen_pairs(gt_rows, track_rows)
        gt_side.append(gt_rows[ii])
        track_side.append(track_rows[jj])
    assert len(batches) == 1
    for got, want in zip(batches[0], (np.concatenate(gt_side), np.concatenate(track_side))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _past_the_star_limit(track_frames, gt_frames, report):
    """(gt ids, track ids, n) of every frame and kept count n of `report`'s
    passes whose kept tracks' positive-IoU graph is not all stars (a pair
    whose gt has two of them and whose track two gts), or holds two
    positive IoUs within `metrics.STAR_MARGIN` at one gt or one track."""
    avg_score = _reference_average_scores(track_frames)
    thresholds = {-math.inf} | {lv.threshold for lv in report.levels if lv.achievable}
    solved = []
    for t in set(gt_frames) | set(track_frames):
        gts, items = gt_frames.get(t, []), track_frames.get(t, [])
        iou = -build_cost_matrix(box_rows(b for _, b in gts), box_rows(b for _, b, _s in items))
        scores = np.array([avg_score[tid] for tid, _b, _s in items])
        kept = {int((scores >= threshold).sum()): scores >= threshold
                for threshold in thresholds}
        for n, keep in kept.items():
            positive = iou[:, keep] > 0.0
            joined = positive & (positive.sum(axis=1, keepdims=True) >= 2) \
                & (positive.sum(axis=0) >= 2)
            close = [np.diff(np.sort(v[v > 0.0])) <= metrics.STAR_MARGIN
                     for v in list(iou[:, keep]) + list(iou[:, keep].T)]
            if joined.any() or any(c.any() for c in close):
                solved.append(([g for g, _ in gts], [tid for tid, _b, _s in items], n))
    return sorted(solved)


@PROPERTY
@given(st.one_of(tied_scenes(), crowded_scenes()))
def test_evaluate_solves_each_kept_count_past_its_star_limit_once(scene):
    track_frames, gt_frames = scene
    real_match, solved = metrics.match_frame, []
    metrics.match_frame = lambda *args: solved.append((args[1], args[0], len(args[3]))) \
        or real_match(*args)
    try:
        report = evaluate(track_frames, gt_frames)
    finally:
        metrics.match_frame = real_match
    assert sorted(solved) == _past_the_star_limit(track_frames, gt_frames, report)


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


def _reference_update(mean, cov, obs, r_diag):
    """One track's Kalman update in the textbook H form, as it was before the bank."""
    H = observation_matrix()
    obs = np.array(obs, dtype=float)
    diff = wrap_angle(float(obs[3]) - float(mean[3]))
    if abs(diff) > 0.5 * math.pi:
        diff = wrap_angle(diff + math.pi)
    obs[3] = float(mean[3]) + diff
    S = H @ cov @ H.T + np.diag(np.asarray(r_diag, dtype=float))
    K = cov @ H.T @ np.linalg.inv(S)
    mean = mean + K @ (obs - H @ mean)
    cov = (np.eye(STATE_DIM) - K @ H) @ cov
    mean[3] = wrap_angle(float(mean[3]))
    return mean, cov


def _reference_predict(mean, cov, process):
    return process.A @ mean, process.A @ cov @ process.A.T + process.Q


def _assert_close_wrapping_yaw(got, want, tol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert abs(wrap_angle(got[3] - want[3])) <= tol * scale
    keep = [i for i in range(STATE_DIM) if i != 3]
    assert np.max(np.abs(got[keep] - want[keep])) <= tol * scale


@st.composite
def bank_rounds(draw):
    """A bank of tracks and one round of observations for some of its rows.

    Yaws and observed headings range over the whole circle, so rounds cross
    the +-pi seam and flip headings; covariances are dense; noise rows may
    arrive in longdouble.
    """
    num_tracks = draw(st.integers(1, 6))
    means, covs = [], []
    for _ in range(num_tracks):
        mean = np.array([draw(coords), draw(coords), draw(st.floats(-3.0, 3.0)), draw(angles)]
                        + [draw(st.floats(0.5, 5.0)) for _ in range(3)]
                        + [draw(st.floats(-2.0, 2.0)) for _ in range(3)])
        root = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=STATE_DIM * STATE_DIM,
                                      max_size=STATE_DIM * STATE_DIM))).reshape(STATE_DIM,
                                                                               STATE_DIM)
        init = residual_to_noise_diag(np.array(
            draw(st.lists(st.floats(-0.5, 2.0), min_size=STATE_DIM, max_size=STATE_DIM))))
        means.append(mean)
        covs.append(0.3 * root @ root.T + np.diag(init))
    rows = draw(st.lists(st.integers(0, num_tracks - 1), min_size=1, unique=True))
    obs, r_diag = [], []
    for i in rows:
        o = means[i][:OBS_DIM] + np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=OBS_DIM,
                                                        max_size=OBS_DIM)))
        o[3] = draw(angles)
        obs.append(o)
        noise = residual_to_noise_diag(np.array(
            draw(st.lists(st.floats(-0.5, 2.0), min_size=STATE_DIM, max_size=STATE_DIM))))
        r_diag.append(noise[:OBS_DIM])
    r_diag = np.array(r_diag)
    if draw(st.booleans()):
        r_diag = r_diag.astype(np.longdouble)
    return np.array(means), np.array(covs), np.array(rows), np.array(obs), r_diag


@PROPERTY
@given(bank_rounds(), st.floats(0.0, 1.0))
def test_bank_update_and_predict_equal_folding_the_per_track_filter(round_, q_velocity):
    means, covs, rows, obs, r_diag = round_
    bank = TrackBank(means, covs)
    out = update(bank, obs, ObservationModel(observation_matrix(), r_diag), rows)
    assert out.skipped == 0
    # longdouble noise promotes the bank; it never rounds the rows down
    assert out.mean.dtype == out.cov.dtype == np.result_type(means, r_diag)
    for j, i in enumerate(rows):
        want_mean, want_cov = _reference_update(means[i], covs[i], obs[j], r_diag[j])
        _assert_close_wrapping_yaw(out.mean[i], want_mean, 1e-12)
        scale = max(1.0, float(np.max(np.abs(want_cov))))
        assert np.max(np.abs(np.asarray(out.cov[i], dtype=float) - want_cov)) <= 1e-12 * scale
    others = [i for i in range(len(means)) if i not in set(rows.tolist())]
    assert np.array_equal(out.mean[others], means[others])
    assert np.array_equal(out.cov[others], covs[others])

    process = ProcessModel.constant_velocity(q_velocity=q_velocity)
    moved = predict(bank, process)
    for i in range(len(means)):
        want_mean, want_cov = _reference_predict(means[i], covs[i], process)
        np.testing.assert_array_equal(moved.mean[i], want_mean)
        np.testing.assert_array_equal(moved.cov[i], want_cov)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(residuals, min_size=STATE_DIM, max_size=STATE_DIM),
       st.floats(0.0, 1.0), frames)
def test_covariance_stays_symmetric_psd_through_long_chains(init_residual, q_velocity, chain):
    """One track filtered alone and as row 1 of a bank whose rows 0 and 2
    are born with it and updated on alternate observations."""
    process = ProcessModel.constant_velocity(q_velocity=q_velocity)
    init_cov = np.diag(residual_to_noise_diag(np.array(init_residual)))
    state = TrackState(mean=np.zeros(STATE_DIM), cov=init_cov)
    bank = TrackBank(np.zeros((3, STATE_DIM)), np.stack([init_cov] * 3))
    for updates in chain:
        state = predict(state, process)
        bank = predict(bank, process)
        _assert_symmetric_psd(state.cov)
        for k, (offset, residual) in enumerate(updates):
            r_diag = residual_to_noise_diag(np.array(residual + [0.0] * 3))[:OBS_DIM]
            obs = state.mean[:OBS_DIM] + np.array(offset)
            state = update(state, obs, ObservationModel(observation_matrix(), r_diag))
            _assert_symmetric_psd(state.cov)
            rows = np.array([1, k % 2 * 2])
            bank = update(bank, np.stack([obs, bank.mean[rows[1], :OBS_DIM] + offset]),
                          ObservationModel(observation_matrix(), np.stack([r_diag] * 2)), rows)
        for cov in bank.cov:
            _assert_symmetric_psd(cov)
        assert bank.skipped == 0
        np.testing.assert_allclose(bank.mean[1], state.mean, rtol=1e-9, atol=1e-9)
