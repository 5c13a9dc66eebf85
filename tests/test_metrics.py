"""Evaluation metric tests.

The recall-sweep cases are small enough to resolve by hand: scores are
arranged so each sweep level's threshold, kept-track set, and error counts
are exactly predictable, and the expected AMOTA values are written out from
that arithmetic rather than from the code under test.
"""

import csv
import math

import numpy as np
import pytest

from cooptrack import metrics
from cooptrack.association import build_cost_matrix
from cooptrack.geometry import Box7, box_rows
from cooptrack.io import gt_frames_from_records, track_frames_from_records
from cooptrack.metrics import (
    BOX_REALS,
    MEGABYTE,
    NUM_RECALL_LEVELS,
    PAYLOAD_RATIO,
    SHARED_REALS,
    CommCost,
    comm_cost,
    count_id_switches,
    evaluate,
    match_frame,
    write_recall_table_csv,
    write_summary_csv,
)


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
    """match_frame on the frame's full gt x track cost matrix, keeping every
    track unless `keep` lists the kept columns."""
    cost = build_cost_matrix(box_rows(b for _, b in gts), box_rows(b for _, b in tracks))
    keep = list(range(len(tracks))) if keep is None else keep
    return match_frame([tid for tid, _ in tracks], [gid for gid, _ in gts], cost, keep)


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


def test_evaluate_builds_one_cost_matrix_per_frame(monkeypatch):
    # every level is reachable here and thresholds at 0.9
    track_frames, gt_frames = _perfect_case(num_objects=3, num_frames=10)
    track_frames[10] = [(200, _box(500.0), 0.5)]  # a frame without ground truth
    shapes, real = [], metrics.build_cost_matrix
    monkeypatch.setattr(metrics, "build_cost_matrix",
                        lambda gts, tracks: shapes.append((len(gts), len(tracks)))
                        or real(gts, tracks))
    solved = []
    real_match = metrics.match_frame
    monkeypatch.setattr(metrics, "match_frame",
                        lambda *args, **kwargs: solved.append(len(args[3]))
                        or real_match(*args, **kwargs))
    assert evaluate(track_frames, gt_frames).levels[-1].achievable
    assert shapes == [(3, 3)] * 10 + [(0, 1)]
    # one solve per distinct (frame, kept count): frames 0-9 keep their three
    # tracks in every pass; frame 10 keeps its 0.5 track only at full recall
    assert solved == [3] * 10 + [1, 0]


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
