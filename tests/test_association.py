"""Association and lifecycle tests.

Hungarian oracle: brute-force enumeration of padded-square permutations.
The exhaustive 500-matrix sweep is in the acceptance suite; here a smaller
seeded sweep plus structural cases keeps the unit run fast.
"""

import importlib.machinery
import importlib.util
import itertools
import math

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linear_sum_assignment

from cooptrack import association
from cooptrack.association import (
    Lifecycle,
    LifecycleConfig,
    associate,
    build_cost_matrix,
    finish_timestep,
    hungarian_solve,
    prescreen_pairs,
    reportable,
)
from cooptrack.geometry import _APART_MARGIN, Box7, box_rows, iou3d


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


def test_the_directly_loaded_solver_is_scipy_optimizes_own():
    # the extension loaded without the package is the one the package exports,
    # so every assignment keeps its bits by construction
    assert association.linear_sum_assignment is scipy.optimize.linear_sum_assignment


def test_without_the_extension_the_solver_comes_from_the_package(monkeypatch):
    def no_load(spec):
        raise AssertionError(f"{spec.name} was loaded although no extension suffix exists")

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    monkeypatch.setattr(importlib.util, "module_from_spec", no_load)
    fallback = association._compiled_linear_sum_assignment()
    monkeypatch.undo()
    assert fallback is scipy.optimize.linear_sum_assignment

    rng = np.random.default_rng(51)
    costs = [rng.uniform(-1.0, 1.0, size=tuple(rng.integers(1, 8, size=2))) for _ in range(60)]
    loaded = [hungarian_solve(cost) for cost in costs]
    monkeypatch.setattr(association, "linear_sum_assignment", fallback)
    assert [hungarian_solve(cost) for cost in costs] == loaded


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", range(7))
@pytest.mark.parametrize("side", ["track", "detection"])
def test_a_non_finite_row_value_is_rejected_naming_its_side_and_row(side, column, value):
    # a NaN centre used to score 0.0 with no error, and an infinite yaw
    # failed inside `iou3d`; the check also runs before the prescreen's
    # `np.cos`, which would warn on an infinite yaw
    rows = {"track": box_rows([_box(0, 0), _box(10, 0), _box(30, 0)]),
            "detection": box_rows([_box(0.5, 0), _box(10, 0), _box(20, 0)])}
    rows[side][1, column] = value
    rows[side][-1, column] = math.nan  # a later bad row is not the one named
    with pytest.raises(ValueError, match=rf"^{side} row 1 has a non-finite value {value} "
                                         rf"in column {column}$"):
        build_cost_matrix(rows["track"], rows["detection"])


def _half_spans(box):
    """Half the x and the y extent of a box's footprint."""
    c, s = abs(math.cos(box.a)), abs(math.sin(box.a))
    return 0.5 * (box.l * c + box.w * s), 0.5 * (box.l * s + box.w * c)


def _extent_margin_pairs(shift):
    """Pairs around (shift, shift) whose x or y extents lie apart by f times
    `_APART_MARGIN` of their summed half spans, f in (-1, 0.9, 1, 1.1), the
    other axis overlapping, at yaws 0, +-1e-7, pi/4, pi/2 and next to +-pi."""
    yaws = (0.0, 1e-7, -1e-7, 0.25 * math.pi, 0.5 * math.pi,
            math.nextafter(math.pi, 0.0), -math.pi, math.nextafter(-math.pi, 0.0))
    pairs = []
    for yaw_p, yaw_q in itertools.product(yaws, repeat=2):
        p = Box7(shift, shift, 0.0, yaw_p, 4.5, 1.9, 1.6)
        q = Box7(0.0, 0.0, 0.1, yaw_q, 5.0, 2.0, 1.8)
        (px, py), (qx, qy) = _half_spans(p), _half_spans(q)
        for axis, sign in itertools.product((0, 1), (1.0, -1.0)):
            span = px + qx if axis == 0 else py + qy
            for f in (-1.0, 0.9, 1.0, 1.1):
                d = sign * span * (1.0 + f * _APART_MARGIN)
                dx, dy = (d, 0.3) if axis == 0 else (0.3, d)
                pairs.append((p, Box7(p.x + dx, p.y + dy, q.z, q.a, q.l, q.w, q.h)))
    return pairs


@pytest.mark.parametrize("shift", [0.0, 1e4, 1e6])
def test_the_prescreen_drops_pairs_apart_by_its_margin_and_no_closer(shift):
    pairs = _extent_margin_pairs(shift)
    kept = np.array([len(prescreen_pairs(box_rows([p]), box_rows([q]))[0]) == 1
                     for p, q in pairs]).reshape(-1, 4)
    # overlapping by the margin and apart by 0.9 of it are kept, apart by
    # 1.1 of it dropped; at the margin itself rounding decides
    assert kept[:, :2].all() and not kept[:, 3].any()
    for (p, q), keep in zip(pairs, kept.ravel()):
        if not keep:
            assert iou3d(p, q) == 0.0
    assert any(iou3d(p, q) > 0.0 for p, q in pairs[::4])  # overlapping by the margin
    # and each (p, all of its q) matrix has every pair's bits
    for k in range(0, len(pairs), 16):
        p, dets = pairs[k][0], [q for _, q in pairs[k:k + 16]]
        want = np.array([[-iou3d(p, q) for q in dets]])
        cost = build_cost_matrix(box_rows([p]), box_rows(dets))
        assert (cost + 0.0).tobytes() == (want + 0.0).tobytes()


def test_associate_obvious_pairs():
    tracks = [_box(0, 0), _box(20, 0)]
    dets = [_box(20.3, 0), _box(0.2, 0)]
    out = associate(build_cost_matrix(box_rows(tracks), box_rows(dets)), 0.1)
    assert [(t, d) for t, d, _ in out] == [(0, 1), (1, 0)]
    assert all(iou > 0.5 for _, _, iou in out)


def test_associate_threshold_demotes_weak_pairs():
    tracks = [_box(0, 0)]
    dets = [_box(3.5, 0)]  # slight overlap, IoU well below 0.5
    weak = associate(build_cost_matrix(box_rows(tracks), box_rows(dets)), 0.5)
    assert weak == []
    strong = associate(build_cost_matrix(box_rows(tracks), box_rows(dets)), 0.01)
    assert len(strong) == 1 and 0.01 <= strong[0][2] < 0.5


def test_associate_empty_sides():
    out = associate(build_cost_matrix(box_rows([]), box_rows([_box(0, 0)])), 0.1)
    assert out == []
    out = associate(build_cost_matrix(box_rows([_box(0, 0)]), box_rows([])), 0.1)
    assert out == []


def test_associate_validates_threshold():
    with pytest.raises(ValueError):
        associate(np.zeros((0, 0)), 0.0)
    with pytest.raises(ValueError):
        associate(np.zeros((0, 0)), 1.0)


def _list_hungarian_solve(cost):
    """`hungarian_solve` as it was before it cut the solution with a slice and
    filtered plain ints: the reference for that path."""
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if n == 0 or m == 0:
        return []
    size = max(n, m)
    padded = np.zeros((size, size), dtype=float)
    padded[:n, :m] = cost
    rows, cols = linear_sum_assignment(padded)
    return [(int(r), int(c)) for r, c in zip(rows, cols) if r < n and c < m]


def _list_associate(cost, iou_threshold):
    return [(r, c, float(-cost[r, c])) for r, c in _list_hungarian_solve(cost)
            if -cost[r, c] >= iou_threshold]


def _typed(pairs):
    """Each value's repr: its type, and a float's sign and every bit."""
    return [tuple(map(repr, pair)) for pair in pairs]


def _solver_cases():
    """Random, tied, tall, wide and empty negated-IoU matrices, zeros included."""
    rng = np.random.default_rng(61)
    for _ in range(200):
        n, m = (int(k) for k in rng.integers(0, 8, size=2))
        kind = rng.integers(0, 3)
        if kind == 0:
            cost = -rng.uniform(0.0, 1.0, size=(n, m))
        elif kind == 1:  # few distinct values: many ties, exact zeros and -0.0
            cost = -rng.integers(0, 3, size=(n, m)) / 2.0
        else:  # sparse: most pairs prescreened away
            cost = -rng.uniform(0.0, 1.0, size=(n, m)) * (rng.uniform(size=(n, m)) < 0.3)
        yield cost
    yield from (np.zeros((0, 0)), np.zeros((0, 4)), np.zeros((4, 0)),
                -np.ones((5, 2)), -np.ones((2, 5)), -np.full((3, 3), 0.5))


def test_solve_path_returns_what_the_old_list_comprehensions_returned():
    shapes = set()
    for cost in _solver_cases():
        shapes.add((cost.shape[0] > cost.shape[1]) - (cost.shape[0] < cost.shape[1]))
        assert _typed(hungarian_solve(cost)) == _typed(_list_hungarian_solve(cost))
        for threshold in (0.1, 0.5, 0.7):
            assert (_typed(associate(cost, threshold))
                    == _typed(_list_associate(cost, threshold)))
    assert shapes == {-1, 0, 1}


def _track(tid, hits=0, misses=0, age=0, score=1.0) -> Lifecycle:
    return Lifecycle(id=tid, hits=hits, misses=misses, age=age, score=score)


def test_finish_timestep_hit_miss_bookkeeping():
    cfg = LifecycleConfig(min_hits=3, max_age=2, score_decay=0.9)
    tracks = [_track(0, hits=1, misses=1, score=0.8), _track(1, hits=4, score=0.5)]
    assert finish_timestep(tracks, [True, False], cfg) == [0, 1]
    assert tracks[0].hits == 2 and tracks[0].misses == 0 and tracks[0].score == 0.8
    assert tracks[1].hits == 4 and tracks[1].misses == 1
    assert tracks[1].score == pytest.approx(0.45)


def test_finish_timestep_kills_after_max_age():
    cfg = LifecycleConfig(min_hits=3, max_age=2, score_decay=0.9)
    tracks = [_track(6, misses=1), _track(7, hits=5, misses=2), _track(8, misses=2)]
    # Third consecutive miss exceeds max_age=2; the rows that survive keep their order.
    assert finish_timestep(tracks, [False, False, True], cfg) == [0, 2]
    assert tracks[1].misses == 3


def test_miss_streak_reset_by_hit():
    cfg = LifecycleConfig(min_hits=3, max_age=2, score_decay=0.9)
    trk = _track(0)
    for matched in [False, False, True, False, False]:
        assert finish_timestep([trk], [matched], cfg) == [0]
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

