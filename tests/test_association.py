"""Association and lifecycle tests.

Hungarian oracle: brute-force enumeration of padded-square permutations.
The exhaustive 500-matrix sweep is in the acceptance suite; here a smaller
seeded sweep plus structural cases keeps the unit run fast.
"""

import itertools
import math

import numpy as np
import pytest

from cooptrack.association import (
    Assignment,
    Lifecycle,
    LifecycleConfig,
    associate,
    build_cost_matrix,
    finish_timestep,
    hungarian_solve,
    reportable,
)
from cooptrack.geometry import Box7, box_rows


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Minimum assignment cost on the zero-padded square by full enumeration."""
    n, m = cost.shape
    size = max(n, m)
    padded = np.zeros((size, size))
    padded[:n, :m] = cost
    best = math.inf
    for perm in itertools.permutations(range(size)):
        best = min(best, sum(padded[i, perm[i]] for i in range(size)))
    return best


def solution_cost(cost: np.ndarray, pairs) -> float:
    n, m = cost.shape
    total = sum(cost[r, c] for r, c in pairs)
    # Padded entries cost zero, so the real-pair sum is the full matching cost.
    assert len(pairs) <= min(n, m)
    return total


def test_hungarian_matches_brute_force_seeded_sweep():
    rng = np.random.default_rng(50)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        cost = rng.uniform(-1.0, 1.0, size=(n, m))
        pairs = hungarian_solve(cost)
        assert solution_cost(cost, pairs) == pytest.approx(brute_force_min_cost(cost), abs=1e-12)


def test_hungarian_rectangular_pads_with_zeros():
    # With strongly negative costs every real pair is worth taking.
    cost = np.array([[-5.0, -1.0], [-1.0, -5.0], [-3.0, -3.0]])
    pairs = hungarian_solve(cost)
    assert len(pairs) == 2
    assert solution_cost(cost, pairs) == pytest.approx(-10.0)
    # Positive costs: optimal matching routes real rows to padded columns.
    cost = np.array([[5.0, 6.0], [7.0, 8.0], [9.0, 1.0]])
    pairs = hungarian_solve(cost)
    assert solution_cost(cost, pairs) == pytest.approx(brute_force_min_cost(cost), abs=1e-12)


def test_hungarian_empty_and_invalid():
    assert hungarian_solve(np.zeros((0, 3))) == []
    assert hungarian_solve(np.zeros((3, 0))) == []
    with pytest.raises(ValueError):
        hungarian_solve(np.array([[np.inf, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        hungarian_solve(np.array([[np.nan]]))


def _box(x, y, yaw=0.0, l=4.0, w=2.0, h=1.6, z=0.0) -> Box7:
    return Box7(x, y, z, yaw, l, w, h)


def test_build_cost_matrix_is_negated_iou():
    tracks = [_box(0, 0), _box(10, 0)]
    dets = [_box(0.5, 0), _box(100, 100)]
    cost = build_cost_matrix(box_rows(tracks), box_rows(dets))
    assert cost.shape == (2, 2)
    assert cost[0, 0] < -0.3  # heavy overlap
    assert cost[0, 1] == 0.0  # prescreened far pair
    assert cost[1, 1] == 0.0


def test_associate_obvious_pairs():
    tracks = [_box(0, 0), _box(20, 0)]
    dets = [_box(20.3, 0), _box(0.2, 0)]
    out = associate(build_cost_matrix(box_rows(tracks), box_rows(dets)), 0.1)
    assert sorted((t, d) for t, d, _ in out.matches) == [(0, 1), (1, 0)]
    assert out.unmatched_detections == []


def test_associate_threshold_demotes_weak_pairs():
    tracks = [_box(0, 0)]
    dets = [_box(3.5, 0)]  # slight overlap, IoU well below 0.5
    weak = associate(build_cost_matrix(box_rows(tracks), box_rows(dets)), 0.5)
    assert weak.matches == []
    assert weak.unmatched_detections == [0]
    strong = associate(build_cost_matrix(box_rows(tracks), box_rows(dets)), 0.01)
    assert len(strong.matches) == 1


def test_associate_empty_sides():
    out = associate(build_cost_matrix(box_rows([]), box_rows([_box(0, 0)])), 0.1)
    assert out.matches == [] and out.unmatched_detections == [0]
    out = associate(build_cost_matrix(box_rows([_box(0, 0)]), box_rows([])), 0.1)
    assert out.matches == [] and out.unmatched_detections == []


def test_associate_validates_threshold():
    with pytest.raises(ValueError):
        associate(np.zeros((0, 0)), 0.0)
    with pytest.raises(ValueError):
        associate(np.zeros((0, 0)), 1.0)


def _track(tid, hits=0, misses=0, age=0, score=1.0) -> Lifecycle:
    return Lifecycle(id=tid, hits=hits, misses=misses, age=age, score=score)


def test_finish_timestep_hit_miss_bookkeeping():
    cfg = LifecycleConfig(min_hits=3, max_age=2, score_decay=0.9)
    tracks = [_track(0, hits=1, misses=1, score=0.8), _track(1, hits=4, score=0.5)]
    survivors, killed = finish_timestep(tracks, [True, False], cfg)
    assert killed == []
    assert survivors[0].hits == 2 and survivors[0].misses == 0 and survivors[0].score == 0.8
    assert survivors[1].hits == 4 and survivors[1].misses == 1
    assert survivors[1].score == pytest.approx(0.45)


def test_finish_timestep_kills_after_max_age():
    cfg = LifecycleConfig(min_hits=3, max_age=2, score_decay=0.9)
    trk = _track(7, hits=5, misses=2)
    survivors, killed = finish_timestep([trk], [False], cfg)
    # Third consecutive miss exceeds max_age=2.
    assert survivors == []
    assert killed == [7]


def test_miss_streak_reset_by_hit():
    cfg = LifecycleConfig(min_hits=3, max_age=2, score_decay=0.9)
    trk = _track(0)
    for matched in [False, False, True, False, False]:
        [trk], killed = finish_timestep([trk], [matched], cfg)
        assert killed == []
    # Streak was broken, so the track is still alive at misses=2.
    assert trk.misses == 2


def test_reportable_early_and_confirmed():
    cfg = LifecycleConfig(min_hits=3, max_age=2)
    # Young track: reported while age < min_hits even with few hits.
    assert reportable(_track(0, hits=1, age=0), cfg)
    assert reportable(_track(0, hits=2, age=2), cfg)
    # Old but unconfirmed: suppressed.
    assert not reportable(_track(0, hits=2, age=3), cfg)
    # Confirmed: reported regardless of age.
    assert reportable(_track(0, hits=3, age=50), cfg)

