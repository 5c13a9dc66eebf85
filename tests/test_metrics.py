"""Evaluation metric tests.

The recall-sweep cases are small enough to resolve by hand: scores are
arranged so each sweep level's threshold, kept-track set, and error counts
are exactly predictable, and the expected AMOTA values are written out from
that arithmetic rather than from the code under test.
"""

import csv
import dataclasses
import functools
import math
import operator

import numpy as np
import pytest

from cooptrack import metrics, sim
from cooptrack.association import build_cost_matrix
from cooptrack.geometry import Box7, box_rows
from cooptrack.io import (RunConfig, gt_frames_from_records, track_frames_from_records,
                          track_frames_from_reports)
from cooptrack.metrics import (
    BOX_REALS,
    MEGABYTE,
    NUM_RECALL_LEVELS,
    PAYLOAD_RATIO,
    SHARED_REALS,
    CommCost,
    comm_cost,
    evaluate,
    match_frame,
    write_recall_table_csv,
    write_summary_csv,
)
from cooptrack.pipeline import (ConstantCovariance, CoopTracker, LearnedCovariance,
                                 packets_from_sim_frame)
from cooptrack.training import init_params_for_run
from test_properties import _reference_evaluate, count_id_switches


def _box(x, y=0.0):
    return Box7(x, y, 0.0, 0.0, 4.5, 1.9, 1.6)


def _perfect_case(num_objects=3, num_frames=10):
    gt_frames, track_frames = {}, {}
    for t in range(num_frames):
        gt_frames[t] = [(obj, _box(10.0 * obj, 1.0 * t)) for obj in range(num_objects)]
        track_frames[t] = [(100 + obj, _box(10.0 * obj, 1.0 * t), 0.9)
                           for obj in range(num_objects)]
    return track_frames, gt_frames


def _match(tracks, gts, keep=None):
    """match_frame on the frame's full gt x track cost matrix at the default
    evaluation IoU, keeping every track unless `keep` lists the kept columns."""
    cost = build_cost_matrix(box_rows(b for _, b in gts), box_rows(b for _, b in tracks))
    keep = list(range(len(tracks))) if keep is None else keep
    return match_frame([tid for tid, _ in tracks], [gid for gid, _ in gts], cost, keep,
                       RunConfig.eval_iou_threshold)


def test_match_frame_counts():
    gts = [(0, _box(0.0)), (1, _box(20.0))]
    tracks = [(7, _box(0.1)), (8, _box(50.0)), (9, _box(20.0))]
    pairs = _match(tracks, gts)
    assert [p[:2] for p in pairs] == [(0, 7), (1, 9)]
    assert pairs[1][2] == pytest.approx(1.0)
    # only the kept columns take part, and they keep their own track ids
    assert [p[:2] for p in _match(tracks, gts, keep=[1, 2])] == [(1, 9)]
    assert _match(tracks, gts, keep=[1]) == []


def test_count_id_switches():
    gts = [(0, _box(0.0))]
    last = {}

    def switches(tracks):
        return count_id_switches(_match(tracks, gts), last)

    assert switches([(5, _box(0.0))]) == 0
    assert switches([(5, _box(0.0))]) == 0
    assert switches([(6, _box(0.0))]) == 1
    # A gap (no match) does not reset the remembered id.
    assert switches([]) == 0
    assert switches([(6, _box(0.0))]) == 0
    assert switches([(5, _box(0.0))]) == 1
    assert last == {0: 5}


def test_perfect_tracking_scores_100():
    track_frames, gt_frames = _perfect_case()
    rep = evaluate(track_frames, gt_frames)
    assert rep.amota == pytest.approx(100.0)
    assert rep.samota == pytest.approx(100.0)
    assert rep.amotp == pytest.approx(100.0)
    assert rep.mota == pytest.approx(100.0)
    assert rep.mt == pytest.approx(100.0)
    assert rep.ml == pytest.approx(0.0)
    assert rep.ids == 0
    assert rep.num_gt == 30


def test_no_tracks_scores_zero():
    _, gt_frames = _perfect_case()
    rep = evaluate({}, gt_frames)
    assert rep.amota == 0.0
    assert rep.samota == 0.0
    assert rep.mota == 0.0
    assert rep.ml == 100.0
    assert all(not lv.achievable for lv in rep.levels)


def test_empty_ground_truth_rejected():
    with pytest.raises(ValueError):
        evaluate({}, {})


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
def test_a_non_finite_track_score_is_rejected_naming_its_timestep_and_track(score):
    # a NaN average score used to fail every `>=` threshold, even the
    # full-recall pass's, so the call returned AMOTA 0.0 with no error
    b = _box(0.0)
    gt_frames = {t: [(1, b)] for t in range(3)}
    track_frames = {0: [(5, b, 0.9)], 2: [(5, b, 0.9), (7, _box(20.0), score)],
                    1: [(5, b, score)]}
    with pytest.raises(ValueError, match=r"track 5 at timestep 1 has a non-finite score"):
        evaluate(track_frames, gt_frames)
    del track_frames[1]
    with pytest.raises(ValueError, match=r"track 7 at timestep 2 has a non-finite score"):
        evaluate(track_frames, gt_frames)


def _holding(box, field, value):
    """`box` with `field` stored as `value`: Box7 itself rejects a non-finite
    field or a non-positive extent, so the value is written past its checks,
    as a caller's own box type might hold it."""
    box = dataclasses.replace(box)
    box.__dict__[field] = value
    return box


def test_a_nan_centre_is_rejected_not_scored_as_no_overlap():
    # this call used to return AMOTA 0.0 with no error
    b = _box(0.0)
    with pytest.raises(ValueError, match=r"^track 5 at timestep 0 has a non-finite box"):
        evaluate({0: [(5, _holding(b, "x", math.nan), 0.9)], 1: [(5, b, 0.9)]},
                 {0: [(1, b)], 1: [(1, b)]})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["x", "y", "z", "a", "l", "w", "h"])
@pytest.mark.parametrize("kind", ["gt", "track"])
def test_a_non_finite_box_is_rejected_naming_its_timestep_and_id(kind, field, value):
    b = _box(0.0)
    gt_frames = {t: [(1, b), (2, _box(20.0))] for t in range(3)}
    track_frames = {t: [(5, b, 0.9), (7, _box(20.0), 0.8)] for t in range(3)}
    bad = _holding(b, field, value)
    if kind == "gt":
        gt_frames[1][1] = (2, bad)
        gt_frames[2][0] = (1, bad)  # a later bad box is not the one named
        name = "gt 2 at timestep 1"
    else:
        track_frames[1][1] = (7, bad, 0.8)
        track_frames[2][0] = (5, bad, 0.9)
        name = "track 7 at timestep 1"
    with pytest.raises(ValueError, match=rf"^{name} has a non-finite box \(.*{value}"):
        evaluate(track_frames, gt_frames)


def test_evaluate_scores_every_frames_pairs_in_one_iou_batch(monkeypatch):
    # every level is reachable here and thresholds at 0.9
    track_frames, gt_frames = _perfect_case(num_objects=3, num_frames=10)
    track_frames[10] = [(200, _box(500.0), 0.5)]  # a frame without ground truth
    batches, real = [], metrics.iou3d_rows
    monkeypatch.setattr(metrics, "iou3d_rows",
                        lambda a, b: batches.append((a.copy(), b.copy())) or real(a, b))
    solved = []
    real_match = metrics.match_frame
    monkeypatch.setattr(metrics, "match_frame",
                        lambda *args, **kwargs: solved.append(len(args[3]))
                        or real_match(*args, **kwargs))
    assert evaluate(track_frames, gt_frames).levels[-1].achievable
    # the objects stand 10 m apart, beyond their two half lengths (2.25 m
    # each), so a frame's prescreen passes each object's (gt, track) pair
    # alone, and frame 10 passes none
    assert len(batches) == 1
    gt_side, track_side = batches[0]
    np.testing.assert_array_equal(gt_side, box_rows(
        box for t in range(10) for _gid, box in gt_frames[t]))
    np.testing.assert_array_equal(track_side, box_rows(
        box for t in range(10) for _tid, box, _s in track_frames[t]))
    # a (frame, kept count) is solved only past the frame's star limit; here
    # no frame's whole matrix pairs a gt or a track twice, so every kept
    # graph is a matching, the one-leaf star, and every match is read off
    for t, items in track_frames.items():
        overlap = build_cost_matrix(box_rows(b for _, b in gt_frames.get(t, [])),
                                    box_rows(b for _, b, _s in items)) < 0.0
        assert overlap.sum(axis=0).max(initial=0) <= 1
        assert overlap.sum(axis=1).max(initial=0) <= 1
    assert solved == []


def _solved_kept_counts(monkeypatch, track_frames, gt_frames):
    """`evaluate`'s report and the kept count of each `match_frame` call it made."""
    solved, real_match = [], metrics.match_frame
    monkeypatch.setattr(metrics, "match_frame",
                        lambda *args: solved.append(len(args[3])) or real_match(*args))
    return evaluate(track_frames, gt_frames), solved


def test_a_gt_centred_star_is_read_off_without_a_solve(monkeypatch):
    # gt 0 overlaps track 100 (0.9, on it) and track 200 (0.4, 1 m off): a
    # star at the gt, whose best pair every optimal assignment holds, so even
    # the full-recall pass, which keeps both tracks, solves nothing
    gt_frames = {t: [(0, _box(0.0, t))] for t in range(5)}
    track_frames = {t: [(100, _box(0.0, t), 0.9), (200, _box(1.0, t), 0.4)]
                    for t in range(5)}
    report, solved = _solved_kept_counts(monkeypatch, track_frames, gt_frames)
    assert solved == []
    assert {lv.threshold for lv in report.levels} == {0.9}
    assert all((lv.tp, lv.fp, lv.ids) == (5, 0, 0) for lv in report.levels)
    assert repr(report) == repr(_reference_evaluate(track_frames, gt_frames))


def test_a_track_centred_star_is_read_off_without_a_solve(monkeypatch):
    # track 1 (0.5) lies between gts 1 and 2, 3 m apart, nearer gt 1: a star
    # at the track; track 3 (0.9) follows gt 3 alone
    gt_frames = {t: [(1, _box(0.0, t)), (2, _box(3.0, t)), (3, _box(40.0, t))]
                 for t in range(4)}
    track_frames = {t: [(1, _box(1.0, t), 0.5), (3, _box(40.0, t), 0.9)] for t in range(4)}
    report, solved = _solved_kept_counts(monkeypatch, track_frames, gt_frames)
    assert solved == []
    # 12 gts, 8 matchable: recall up to 4/12 needs track 3 alone, up to 8/12 both
    assert [lv.threshold for lv in report.levels if lv.achievable] == [0.9] * 13 + [0.5] * 13
    full = report.levels[25]
    assert (full.tp, full.fp, full.fn, full.ids) == (8, 0, 4, 0)
    assert not report.levels[26].achievable
    assert repr(report) == repr(_reference_evaluate(track_frames, gt_frames))


def test_exactly_repeated_boxes_at_one_gt_go_to_the_solver(monkeypatch):
    # tracks 100 (0.9) and 200 (0.4) sit on one box 1 m off gt 0: two equal
    # IoUs at the gt, so a pass that keeps both leaves the choice to the solver
    gt_frames = {t: [(0, _box(0.0, t))] for t in range(3)}
    track_frames = {t: [(100, _box(1.0, t), 0.9), (200, _box(1.0, t), 0.4)]
                    for t in range(3)}
    report, solved = _solved_kept_counts(monkeypatch, track_frames, gt_frames)
    assert solved == [2] * 3
    assert repr(report) == repr(_reference_evaluate(track_frames, gt_frames))


@pytest.mark.parametrize("centre", ["gt", "track"])
def test_two_ious_within_the_margin_go_to_the_solver(monkeypatch, centre):
    # one frame per gap: two pairs at one gt (tracks of scores 0.9 and 0.4) or
    # at one track (of score 0.9), whose IoUs differ by half the margin, the
    # margin or twice it
    gaps = [0.5 * metrics.STAR_MARGIN, metrics.STAR_MARGIN, 2.0 * metrics.STAR_MARGIN]
    gt_frames, track_frames = {}, {}
    for t in range(len(gaps)):
        if centre == "gt":
            gt_frames[t] = [(0, _box(0.0, 10.0 * t))]
            track_frames[t] = [(100, _box(0.5, 10.0 * t), 0.9), (200, _box(-0.5, 10.0 * t), 0.4)]
        else:
            gt_frames[t] = [(0, _box(-0.5, 10.0 * t)), (1, _box(0.5, 10.0 * t))]
            track_frames[t] = [(100, _box(0.0, 10.0 * t), 0.9)]
    ious = np.concatenate([[0.6, 0.6 + gap] for gap in gaps])
    monkeypatch.setattr(metrics, "iou3d_rows", lambda a, b: ious[:len(a)].copy())
    report, solved = _solved_kept_counts(monkeypatch, track_frames, gt_frames)
    # the two frames within the margin are solved once their two pairs are
    # kept (every pass keeps every track here); the third is read off
    assert solved == ([2, 2] if centre == "gt" else [1, 1])
    # and read off as the solver matches it
    monkeypatch.setattr(metrics, "STAR_MARGIN", 1.0)
    assert repr(evaluate(track_frames, gt_frames)) == repr(report)
    assert solved == ([2] * 5 if centre == "gt" else [1] * 5)


def test_a_chain_is_solved_from_the_count_that_keeps_both_tracks(monkeypatch):
    # a chain g1 - t1 - g2 - t2: track 1 (0.9) overlaps gts 1 and 2, track 2
    # (0.5) gt 2 alone, with IoUs 7/11, 5/13 and 23/67 (no two within the
    # margin). Passes keeping track 1 alone see a star at it and are read
    # off; passes keeping both are solved, once per frame
    gt_frames = {t: [(1, _box(0.0, t)), (2, _box(3.0, t))] for t in range(4)}
    track_frames = {t: [(1, _box(1.0, t), 0.9), (2, _box(5.2, t), 0.5)] for t in range(4)}
    report, solved = _solved_kept_counts(monkeypatch, track_frames, gt_frames)
    assert solved == [2] * 4
    assert [lv.threshold for lv in report.levels if lv.achievable] == [0.9] * 20 + [0.5] * 20
    assert all(lv.tp == 8 for lv in report.levels[20:])
    assert repr(report) == repr(_reference_evaluate(track_frames, gt_frames))


def test_a_non_finite_iou_is_still_rejected_by_the_solver(monkeypatch):
    # frame 0 would be read off whole; a NaN among its IoUs sends it to the
    # solver, whose finite check raises
    track_frames, gt_frames = _perfect_case(num_objects=3, num_frames=4)
    real = metrics.iou3d_rows

    def one_nan(a, b):
        ious = real(a, b)
        ious[1] = math.nan
        return ious

    monkeypatch.setattr(metrics, "iou3d_rows", one_nan)
    with pytest.raises(ValueError, match="finite"):
        evaluate(track_frames, gt_frames)


def test_motp_adds_the_true_positive_ious_left_to_right(monkeypatch):
    # 3 objects 10 m apart over 4 frames: each frame's prescreen passes each
    # object's (gt, track) pair alone, so the batch runs frame after frame,
    # object after object. Object k's track scores 0.75, 0.5 or 0.25, so a
    # level keeps the first 1, 2 or 3 objects; every seeded IoU reaches the
    # threshold, so every kept pair is a true positive.
    gt_frames = {t: [(obj, _box(10.0 * obj, t)) for obj in range(3)] for t in range(4)}
    track_frames = {t: [(100 + obj, _box(10.0 * obj, t), 0.75 - 0.25 * obj)
                        for obj in range(3)] for t in range(4)}
    ious = np.random.default_rng(28).uniform(0.5, 1.0, 12)
    assert ious.min() >= RunConfig.eval_iou_threshold
    batch = []
    monkeypatch.setattr(metrics, "iou3d_rows",
                        lambda a, b: batch.append(a.copy()) or ious[:len(a)].copy())
    report = evaluate(track_frames, gt_frames)
    objects = np.rint(batch[0][:, 0] / 10.0).astype(int).tolist()
    assert objects == [0, 1, 2] * 4
    # these values tell the three orders apart: pairwise (np.sum) and
    # compensated (math.fsum, and sum() on Python >= 3.12) addition differ
    values = ious.tolist()
    left_to_right = functools.reduce(operator.add, values)
    assert len({left_to_right / 12, float(np.sum(ious)) / 12, math.fsum(values) / 12}) == 3
    achievable = [lv for lv in report.levels if lv.achievable]
    assert sorted({lv.tp for lv in achievable}) == [4, 8, 12]
    for lv in achievable:
        kept = [v for obj, v in zip(objects, values) if obj < lv.tp // 4]
        assert lv.motp.hex() == (functools.reduce(operator.add, kept) / lv.tp).hex()


def test_evaluate_batches_each_frames_pairs_in_row_major_order(monkeypatch):
    # frame 0: gt 0 overlaps tracks 0 and 1, gt 1 track 1; frame 1: the far gt
    # overlaps nothing; frame 2: one gt, one track
    gt_frames = {0: [(0, _box(0.0)), (1, _box(6.0))], 1: [(2, _box(90.0))],
                 2: [(0, _box(0.5))]}
    track_frames = {0: [(5, _box(0.2), 0.9), (6, _box(2.0, 1.0), 0.8)],
                    1: [(7, _box(40.0), 0.7)], 2: [(5, _box(0.7), 0.9)]}
    batches, real = [], metrics.iou3d_rows
    monkeypatch.setattr(metrics, "iou3d_rows",
                        lambda a, b: batches.append((a.copy(), b.copy())) or real(a, b))
    evaluate(track_frames, gt_frames)
    assert len(batches) == 1
    gt_side, track_side = batches[0]
    g, k = gt_frames, track_frames
    np.testing.assert_array_equal(gt_side, box_rows(
        [g[0][0][1], g[0][0][1], g[0][1][1], g[2][0][1]]))
    np.testing.assert_array_equal(track_side, box_rows(
        [k[0][0][1], k[0][1][1], k[0][1][1], k[2][0][1]]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_evaluate_equals_rebuilding_each_levels_matrices_on_tracked_scenes(seed):
    # a short v2v_mini scene tracked with constant and with seeded learned
    # noise; the tracker's output leaves stars (a gt under two tracks, or a
    # track over two gts) for the read-off
    frames = sim.generate(sim.preset_v2v_mini(seed=seed, duration=30))
    packets = [packets_from_sim_frame(f) for f in frames]
    gt_frames = {f.timestep: list(f.gt) for f in frames}
    learned = init_params_for_run(RunConfig(seed=seed), np.random.default_rng(seed))
    stars = 0
    for provider in (ConstantCovariance(), LearnedCovariance(learned)):
        tracker = CoopTracker(cov_provider=provider)
        reports = [tracker.step(frame) for frame in packets]
        track_frames = track_frames_from_reports(reports, [f.timestep for f in frames])
        assert repr(evaluate(track_frames, gt_frames)) == repr(
            _reference_evaluate(track_frames, gt_frames))
        for t, items in track_frames.items():
            overlap = build_cost_matrix(box_rows(b for _, b in gt_frames[t]),
                                        box_rows(b for _, b, _s in items)) < 0.0
            stars += int((overlap.sum(axis=0) >= 2).any() or (overlap.sum(axis=1) >= 2).any())
    assert stars > 0


def test_evaluate_keeps_no_solve_between_calls():
    track_frames, gt_frames = _perfect_case(num_objects=2, num_frames=6)
    moved = {t: [(tid, _box(box.x + 2.5, box.y), score) for tid, box, score in items]
             for t, items in track_frames.items()}
    first = repr(evaluate(track_frames, gt_frames))
    assert repr(evaluate(moved, gt_frames)) != first
    assert repr(evaluate(track_frames, gt_frames)) == first


def test_recall_target_counts_true_positives_exactly():
    # num_gt = 100: recall 22/40 = 0.55 needs exactly 55 true positives,
    # though 0.55 * 100 evaluates to 55.00000000000001 in floating point.
    gt_frames, track_frames = {}, {}
    for t in range(100):
        gt_frames[t] = [(t, _box(0.0, t))]
        track_frames[t] = [(t, _box(0.0, t), 1.0 - t / 1000.0)]
    level = evaluate(track_frames, gt_frames).levels[21]
    assert level.recall_target == pytest.approx(0.55)
    assert level.threshold == 1.0 - 54 / 1000.0
    assert (level.tp, level.fn, level.fp) == (55, 45, 0)


def test_two_track_threshold_sweep_by_hand():
    # Two objects, 10 frames each (num_gt = 20). Track 100 covers object 0
    # with score 0.9, track 200 covers object 1 with score 0.4. Levels up to
    # recall 0.5 threshold at 0.9 and keep only track 100 (MOTA 0.5); levels
    # above keep both (MOTA 1.0). AMOTA = (20*0.5 + 20*1.0)/40 = 0.75.
    gt_frames, track_frames = {}, {}
    for t in range(10):
        gt_frames[t] = [(0, _box(0.0, t)), (1, _box(30.0, t))]
        track_frames[t] = [(100, _box(0.0, t), 0.9), (200, _box(30.0, t), 0.4)]
    rep = evaluate(track_frames, gt_frames)
    assert rep.amota == pytest.approx(75.0)
    # At threshold 0.9 the kept errors exactly fill the recall allowance, so
    # every level's sMOTA is 1.0.
    assert rep.samota == pytest.approx(100.0)
    assert rep.mota == pytest.approx(100.0)
    assert rep.ids == 0
    assert rep.mt == pytest.approx(100.0)
    for lv in rep.levels:
        assert lv.achievable
        expect = 0.5 if lv.recall_target <= 0.5 else 1.0
        assert lv.mota == pytest.approx(expect)


def test_id_switch_counted_once_at_full_recall():
    # One object, 10 frames; identity changes once at frame 5.
    gt_frames, track_frames = {}, {}
    for t in range(10):
        gt_frames[t] = [(0, _box(0.0, t))]
        tid, score = (100, 0.9) if t < 5 else (200, 0.8)
        track_frames[t] = [(tid, _box(0.0, t), score)]
    rep = evaluate(track_frames, gt_frames)
    full = rep.levels[-1]
    assert full.recall_target == 1.0
    assert full.ids == 1
    assert full.mota == pytest.approx(0.9)
    # Levels at or below recall 0.5 keep only the first half: no switch seen.
    assert rep.levels[0].ids == 0


def test_unachievable_levels_contribute_zero():
    # Object visible 10 frames, tracked for only 4: recall beyond 0.4 is
    # unattainable and those levels contribute 0 to the average.
    gt_frames, track_frames = {}, {}
    for t in range(10):
        gt_frames[t] = [(0, _box(0.0, t))]
        if t < 4:
            track_frames[t] = [(100, _box(0.0, t), 0.9)]
    rep = evaluate(track_frames, gt_frames)
    achievable = [lv for lv in rep.levels if lv.achievable]
    assert len(achievable) == 16  # ceil(r*10) <= 4 up to r = 0.4
    for lv in rep.levels:
        if lv.achievable:
            # tp=4, fn=6: mota = 1 - 6/10.
            assert lv.mota == pytest.approx(0.4)
    assert rep.amota == pytest.approx(100.0 * 16 * 0.4 / NUM_RECALL_LEVELS)


def test_amota_never_exceeds_samota():
    rng = np.random.default_rng(80)
    for trial in range(5):
        gt_frames, track_frames = {}, {}
        for t in range(30):
            gt_frames[t] = [(obj, _box(20.0 * obj, t)) for obj in range(3)]
            items = []
            for obj in range(3):
                if rng.uniform() < 0.7:
                    tid = 100 * (obj + 1) + (t // 15)  # occasional id switch
                    items.append((tid, _box(20.0 * obj + rng.uniform(-0.5, 0.5), t),
                                  float(rng.uniform(0.2, 1.0))))
            if rng.uniform() < 0.3:
                items.append((999, _box(500.0, t), float(rng.uniform(0.2, 1.0))))
            track_frames[t] = items
        rep = evaluate(track_frames, gt_frames)
        assert rep.amota <= rep.samota + 1e-9
        for lv in rep.levels:
            assert lv.mota <= lv.smota + 1e-12


def test_mostly_tracked_mostly_lost_boundaries():
    # Object 0 tracked 8/10 frames (exactly MT), object 1 tracked 2/10
    # (exactly ML), object 2 tracked 5/10 (neither).
    gt_frames, track_frames = {}, {}
    coverage = {0: 8, 1: 2, 2: 5}
    for t in range(10):
        gt_frames[t] = [(obj, _box(30.0 * obj, t)) for obj in range(3)]
        items = []
        for obj, frames_covered in coverage.items():
            if t < frames_covered:
                items.append((100 + obj, _box(30.0 * obj, t), 0.9))
        track_frames[t] = items
    rep = evaluate(track_frames, gt_frames)
    assert rep.mt == pytest.approx(100.0 / 3.0)
    assert rep.ml == pytest.approx(100.0 / 3.0)


def test_motp_reflects_localization_quality():
    gt_frames, track_frames = {}, {}
    for t in range(10):
        gt_frames[t] = [(0, _box(0.0, t))]
        track_frames[t] = [(100, _box(0.4, t), 0.9)]  # constant offset
    rep = evaluate(track_frames, gt_frames)
    assert 0.0 < rep.amotp < 100.0


def test_every_report_field_is_a_python_bool_int_or_float():
    gt_frames, track_frames = {}, {}
    for t in range(10):
        gt_frames[t] = [(0, _box(0.0, t)), (1, _box(20.0, t))]
        track_frames[t] = [(100, _box(0.4, t), 0.9), (101, _box(20.0, t), 0.5 + 0.01 * t)]
    rep = evaluate(track_frames, gt_frames)
    assert 0.0 < rep.amotp < 100.0 and rep.levels
    for record in (rep, *rep.levels):
        for f in dataclasses.fields(record):
            if f.name != "levels":
                assert type(getattr(record, f.name)) in (bool, int, float), (f.name, record)


def test_comm_cost_arithmetic():
    cost = CommCost(num_shared_detections=1000, num_frames=100,
                    reals_per_detection=SHARED_REALS)
    assert cost.bytes_total == 1000 * SHARED_REALS * 4
    assert cost.mb_total == pytest.approx(1000 * 17 * 4 / MEGABYTE)
    assert cost.mb_per_frame == pytest.approx(cost.mb_total / 100)
    assert cost.ratio_vs_box_only == pytest.approx(17.0 / 7.0)
    assert PAYLOAD_RATIO == pytest.approx(2.4286, abs=5e-5)
    assert SHARED_REALS == 17 and BOX_REALS == 7
    # Scaling a 0.003 MB box-only payload by the ratio lands at ~0.0073 MB.
    assert 0.003 * PAYLOAD_RATIO == pytest.approx(0.0073, abs=1e-4)


def test_comm_cost_skips_host():
    cost = comm_cost([{0: 1, 1: 2}, {0: 1, 2: 1}], SHARED_REALS)
    assert cost.num_shared_detections == 3
    assert cost.num_frames == 2
    # the host is the lowest vehicle id in the whole sequence, not per frame
    assert comm_cost([{1: 2}, {2: 1}, {}], BOX_REALS).num_shared_detections == 1
    assert comm_cost([], BOX_REALS).mb_per_frame == 0.0


def test_comm_cost_summary_keeps_float_order():
    cost = comm_cost([{0: 3, 1: 5}] * 3, BOX_REALS)
    summary = cost.as_dict()
    assert summary == {"num_shared_detections": 15, "reals_per_detection": 7,
                       "bytes_total": 15 * 7 * 4, "mb_total": 420 / MEGABYTE,
                       "mb_per_frame": 420 / MEGABYTE / 3, "ratio_vs_box_only": 1.0}
    assert comm_cost([{0: 1, 1: 1}], SHARED_REALS).ratio_vs_box_only == PAYLOAD_RATIO


def test_summary_csv_round_trip(tmp_path):
    track_frames, gt_frames = _perfect_case()
    rep = evaluate(track_frames, gt_frames)
    path = tmp_path / "summary.csv"
    write_summary_csv(str(path), [("fusion", rep, 0.0073)])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "AMOTA", "AMOTP", "sAMOTA", "MOTA", "MT", "ML",
                       "IDS", "Cost_MB"]
    assert rows[1][0] == "fusion"
    assert float(rows[1][1]) == pytest.approx(100.0)
    assert float(rows[1][8]) == pytest.approx(0.0073)


def test_recall_table_csv(tmp_path):
    track_frames, gt_frames = _perfect_case()
    rep = evaluate(track_frames, gt_frames)
    path = tmp_path / "levels.csv"
    write_recall_table_csv(str(path), rep)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + NUM_RECALL_LEVELS
    assert float(rows[-1][0]) == pytest.approx(1.0)


def test_record_adapters():
    tf = track_frames_from_records([
        {"t": 3, "id": 9, "box": [1, 2, 0, 0, 4, 2, 1.5], "score": 0.7}])
    assert set(tf) == {3}
    tid, box, score = tf[3][0]
    assert tid == 9 and score == 0.7 and box.x == 1.0
    gf = gt_frames_from_records([{"t": 0, "obj": 2, "box": [0, 0, 0, 0, 4, 2, 1.5]}])
    assert gf[0][0][0] == 2
