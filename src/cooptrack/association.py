"""IoU-based matching between tracks and detections, plus track lifecycle.

The assignment solver is scipy's compiled `linear_sum_assignment`, loaded
from its own extension file without importing the `scipy.optimize` package.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass
from importlib import machinery

import numpy as np
import scipy

from .geometry import iou3d


def _compiled_linear_sum_assignment():
    """scipy's `linear_sum_assignment`, loaded from the `scipy.optimize._lsap` extension.

    Importing `scipy.optimize` for this one function would load the whole
    package (about 0.3 s and 45 MB). Loading the extension registers it in
    `sys.modules` under its own name, so a later `import scipy.optimize`
    reuses it and exports this same function object. A scipy that lays the
    solver out otherwise gets the package import.
    """
    finder = machinery.FileFinder(os.path.join(os.path.dirname(scipy.__file__), "optimize"),
                                  (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.optimize._lsap")
    if spec is not None:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        if hasattr(module, "linear_sum_assignment"):
            return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment


linear_sum_assignment = _compiled_linear_sum_assignment()


def prescreen_pairs(a, b):
    """Index arrays (i, j) of every pair of an (n, 7) and an (m, 7) box-row array
    whose BEV circumcircles overlap, in row-major order. Every other pair has
    an IoU of exactly zero."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ra = 0.5 * np.hypot(a[:, 4], a[:, 5])
    rb = 0.5 * np.hypot(b[:, 4], b[:, 5])
    dist = np.hypot(a[:, 0:1] - b[None, :, 0], a[:, 1:2] - b[None, :, 1])
    return np.nonzero(dist <= ra[:, None] + rb[None, :])


def build_cost_matrix(tracks, detections) -> np.ndarray:
    """Negated pairwise 3D IoU between (n, 7) track rows and (m, 7) detection rows.

    Each row is a box's (x, y, z, a, l, w, h) with its yaw wrapped as Box7
    wraps it (`geometry.box_rows` turns Box7s into such rows). Pairs that
    `prescreen_pairs` drops are exactly zero IoU; every other pair is one
    `iou3d` call on the two rows. A tracker's matrix holds too few pairs for
    the batched `iou3d_rows` to pay for its fixed cost.
    """
    n, m = len(tracks), len(detections)
    cost = np.zeros((n, m), dtype=float)
    if n == 0 or m == 0:
        return cost
    tracks, detections = np.asarray(tracks, dtype=float), np.asarray(detections, dtype=float)
    ii, jj = prescreen_pairs(tracks, detections)
    track_rows, det_rows = tracks.tolist(), detections.tolist()
    cost[ii, jj] = [-iou3d(track_rows[i], det_rows[j])
                    for i, j in zip(ii.tolist(), jj.tolist())]
    return cost


def hungarian_solve(cost: np.ndarray):
    """Minimum-total-cost perfect matching on the zero-padded square matrix.

    Returns (row, col) int pairs restricted to the real (unpadded) entries,
    in ascending row order. On a square matrix the solver gives the rows in
    order, so the real rows are the first n, and their real columns those
    below m.
    """
    cost = np.asarray(cost, dtype=float)
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix entries must be finite")
    n, m = cost.shape
    if n == 0 or m == 0:
        return []
    size = max(n, m)
    padded = np.zeros((size, size), dtype=float)
    padded[:n, :m] = cost
    _rows, cols = linear_sum_assignment(padded)
    return [(r, c) for r, c in enumerate(cols[:n].tolist()) if c < m]


def associate(cost, iou_threshold: float) -> list:
    """Hungarian matching on a negated-IoU matrix, keeping the pairs that reach the threshold.

    `cost` is a (tracks, detections) matrix as built by `build_cost_matrix`.
    Returns (row, col, iou) for every solved pair whose IoU is at least
    `iou_threshold`, in ascending row order, with row and col ints and iou
    the float read from `cost`; a row or column in no returned pair is
    unmatched.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    return [(r, c, iou) for r, c in hungarian_solve(cost)
            if (iou := -cost.item(r, c)) >= iou_threshold]


@dataclass(frozen=True)
class LifecycleConfig:
    min_hits: int = 3
    max_age: int = 2
    score_decay: float = 0.9


@dataclass
class Lifecycle:
    """Lifecycle counters of one live track; its belief is a row of the filter bank."""

    id: int
    hits: int = 0
    misses: int = 0
    age: int = 0
    score: float = 1.0


def finish_timestep(tracks, matched, cfg: LifecycleConfig) -> list:
    """End-of-timestep bookkeeping, run once per timestep after every round.

    `matched[i]` says whether any sensor matched `tracks[i]` this timestep
    (a track born this timestep counts as matched). Matched tracks get
    hits += 1 and misses reset; the rest accumulate a miss, decay their
    score, and die once misses exceeds max_age. Returns the indices of the
    surviving tracks, in order.
    """
    for trk, hit in zip(tracks, matched):
        if hit:
            trk.hits += 1
            trk.misses = 0
        else:
            trk.misses += 1
            trk.score *= cfg.score_decay
    return [i for i, trk in enumerate(tracks) if trk.misses <= cfg.max_age]


def reportable(track, cfg: LifecycleConfig) -> bool:
    """Early-report convention: confirmed tracks, or any track still young."""
    return track.hits >= cfg.min_hits or track.age < cfg.min_hits
