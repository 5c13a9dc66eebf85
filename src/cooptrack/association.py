"""IoU-based matching between tracks and detections, plus track lifecycle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import Box7, iou3d

DEFAULT_IOU_THRESHOLD = 0.1
DEFAULT_MIN_HITS = 3
DEFAULT_MAX_AGE = 2
SCORE_DECAY = 0.9


@dataclass
class Assignment:
    """Partition of track and detection indices after thresholded matching."""

    matches: list  # (track_index, detection_index, iou)
    unmatched_tracks: list
    unmatched_detections: list


def build_cost_matrix(tracks, detections) -> np.ndarray:
    """Negated pairwise 3D IoU between track boxes and detection boxes.

    A center-distance prescreen skips pairs whose BEV circumcircles cannot
    overlap; those entries are exactly zero IoU anyway.
    """
    n, m = len(tracks), len(detections)
    cost = np.zeros((n, m), dtype=float)
    if n == 0 or m == 0:
        return cost
    tc = np.array([[b.x, b.y] for b in tracks])
    dc = np.array([[b.x, b.y] for b in detections])
    tr = np.array([0.5 * np.hypot(b.l, b.w) for b in tracks])
    dr = np.array([0.5 * np.hypot(b.l, b.w) for b in detections])
    dist = np.hypot(tc[:, 0:1] - dc[None, :, 0], tc[:, 1:2] - dc[None, :, 1])
    near = dist <= tr[:, None] + dr[None, :]
    for i, j in zip(*np.nonzero(near)):
        cost[i, j] = -iou3d(tracks[i], detections[j])
    return cost


def hungarian_solve(cost: np.ndarray):
    """Minimum-total-cost perfect matching on the zero-padded square matrix.

    Returns (row, col) pairs restricted to the real (unpadded) entries.
    """
    cost = np.asarray(cost, dtype=float)
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix entries must be finite")
    n, m = cost.shape
    if n == 0 or m == 0:
        return []
    size = max(n, m)
    padded = np.zeros((size, size), dtype=float)
    padded[:n, :m] = cost
    rows, cols = linear_sum_assignment(padded)
    return [(int(r), int(c)) for r, c in zip(rows, cols) if r < n and c < m]


def associate(cost, iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> Assignment:
    """Hungarian matching on a negated-IoU matrix with sub-threshold pairs demoted.

    `cost` is a (tracks, detections) matrix as built by `build_cost_matrix`.
    A matched pair whose IoU falls below the threshold is returned as
    unmatched on both sides.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    matches = [(r, c, -cost[r, c]) for r, c in hungarian_solve(cost)
               if -cost[r, c] >= iou_threshold]
    n, m = np.shape(cost)
    return Assignment(matches=matches,
                      unmatched_tracks=sorted(set(range(n)) - {r for r, _, _ in matches}),
                      unmatched_detections=sorted(set(range(m)) - {c for _, c, _ in matches}))


@dataclass(frozen=True)
class LifecycleConfig:
    min_hits: int = DEFAULT_MIN_HITS
    max_age: int = DEFAULT_MAX_AGE
    score_decay: float = SCORE_DECAY


@dataclass
class Lifecycle:
    """Lifecycle counters of one live track; its belief is a row of the filter bank."""

    id: int
    hits: int = 0
    misses: int = 0
    age: int = 0
    score: float = 1.0


def finish_timestep(tracks, matched_flags, cfg: LifecycleConfig):
    """End-of-timestep bookkeeping, run once per timestep after every round.

    Tracks matched by any sensor this timestep get hits += 1 and misses
    reset; the rest accumulate a miss, decay their score, and die once
    misses exceeds max_age. Returns (surviving_tracks, killed_ids).
    """
    survivors, killed = [], []
    for trk, matched in zip(tracks, matched_flags):
        if matched:
            trk.hits += 1
            trk.misses = 0
        else:
            trk.misses += 1
            trk.score *= cfg.score_decay
        if trk.misses > cfg.max_age:
            killed.append(trk.id)
        else:
            survivors.append(trk)
    return survivors, killed


def reportable(track, cfg: LifecycleConfig) -> bool:
    """Early-report convention: confirmed tracks, or any track still young."""
    return track.hits >= cfg.min_hits or track.age < cfg.min_hits
