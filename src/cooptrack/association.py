"""IoU-based matching between tracks and detections, plus track lifecycle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import iou3d

DEFAULT_IOU_THRESHOLD = 0.1
DEFAULT_MIN_HITS = 3
DEFAULT_MAX_AGE = 2
SCORE_DECAY = 0.9


@dataclass
class Assignment:
    """Thresholded matches and the detections left unmatched; a track not in
    `matches` is unmatched."""

    matches: list  # (track_index, detection_index, iou)
    unmatched_detections: list


def build_cost_matrix(tracks, detections) -> np.ndarray:
    """Negated pairwise 3D IoU between (n, 7) track rows and (m, 7) detection rows.

    Each row is a box's (x, y, z, a, l, w, h) with its yaw wrapped as Box7
    wraps it (`geometry.box_rows` turns Box7s into such rows). A
    center-distance prescreen skips pairs whose BEV circumcircles cannot
    overlap; those entries are exactly zero IoU anyway. Every other pair
    is one `iou3d` call on the two rows.
    """
    n, m = len(tracks), len(detections)
    cost = np.zeros((n, m), dtype=float)
    if n == 0 or m == 0:
        return cost
    tracks, detections = np.asarray(tracks, dtype=float), np.asarray(detections, dtype=float)
    tr = 0.5 * np.hypot(tracks[:, 4], tracks[:, 5])
    dr = 0.5 * np.hypot(detections[:, 4], detections[:, 5])
    dist = np.hypot(tracks[:, 0:1] - detections[None, :, 0],
                    tracks[:, 1:2] - detections[None, :, 1])
    ii, jj = np.nonzero(dist <= tr[:, None] + dr[None, :])
    track_rows, det_rows = tracks.tolist(), detections.tolist()
    cost[ii, jj] = [-iou3d(track_rows[i], det_rows[j])
                    for i, j in zip(ii.tolist(), jj.tolist())]
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
    return Assignment(matches=matches,
                      unmatched_detections=sorted(set(range(np.shape(cost)[1]))
                                                  - {c for _, c, _ in matches}))


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
