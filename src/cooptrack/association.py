"""IoU-based matching between tracks and detections, plus track lifecycle.

A cost matrix scores only the pairs whose footprints' x and y extents meet
(`prescreen_pairs`): a box footprint projects onto the world x axis exactly
as [x - hx, x + hx] (`footprint_reach`), so a pair whose centres lie
farther apart on x or y than its two half spans shares no area. Within
`_APART_MARGIN` of touching, a pair is kept and scored. This is the
separating-axis test of Gottschalk, Lin and Manocha ("OBBTree", SIGGRAPH
1996) on the two world axes, and the only test that decides a pair is
apart: `iou3d` itself clips every pair that overlaps in z.

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


# The share of a pair's summed half spans by which its footprints must lie apart
# on x or y for `prescreen_pairs` to drop it (`extents_meet`).
_APART_MARGIN = 1e-9

# a pair's two reaches on an axis add up to its two half spans there, widened
# by `_APART_MARGIN` of their sum (to within an ulp of the sum)
_REACH_SCALE = 0.5 * (1.0 + _APART_MARGIN)


def footprint_reach(rows):
    """Half the x extent and half the y extent of each (n, 7) box row's footprint,
    both widened by `_APART_MARGIN` of themselves.

    The footprint projects onto the x axis as [x - hx, x + hx], with
    hx = (l |cos a| + w |sin a|) / 2, and onto the y axis with the cosine
    and sine swapped.
    """
    c, s = np.abs(np.cos(rows[:, 3])), np.abs(np.sin(rows[:, 3]))
    l, w = rows[:, 4], rows[:, 5]
    return _REACH_SCALE * (l * c + w * s), _REACH_SCALE * (l * s + w * c)


def extents_meet(dx, dy, reach_x, reach_y):
    """Whether pairs whose centres lie (dx, dy) apart may overlap, given the sums
    of their two boxes' reaches on x and on y (`footprint_reach`).

    A pair is dropped only where |dx| or |dy| exceeds its two half spans by
    more than `_APART_MARGIN` of their sum. `iou3d` forms dx by the same
    subtraction, and numpy's trig and the spans' rounding move a span by a
    few ulps, far below the margin; so each dropped pair's footprints are
    truly apart, its clip keeps no vertex, and its IoU is exactly 0.0.
    """
    return (np.abs(dx) <= reach_x) & (np.abs(dy) <= reach_y)


def prescreen_pairs(a, b):
    """Index arrays (i, j) of every pair of an (n, 7) and an (m, 7) box-row array
    whose footprints' x and y extents meet (`extents_meet`), in row-major
    order. Every other pair has an IoU of exactly zero. The rows must be
    finite."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = len(a)
    reach_x, reach_y = footprint_reach(np.concatenate((a, b)))
    return np.nonzero(extents_meet(a[:, 0:1] - b[:, 0], a[:, 1:2] - b[:, 1],
                                   reach_x[:n, None] + reach_x[n:],
                                   reach_y[:n, None] + reach_y[n:]))


def build_cost_matrix(tracks, detections) -> np.ndarray:
    """Negated pairwise 3D IoU between (n, 7) track rows and (m, 7) detection rows.

    Each row is a box's (x, y, z, a, l, w, h) with its yaw wrapped as Box7
    wraps it (`geometry.box_rows` turns Box7s into such rows). A non-finite
    value raises a `ValueError` naming its side and row. Pairs whose x and y
    extents lie apart (`prescreen_pairs`) are exactly zero IoU; every other
    pair is one `iou3d` call on the two rows. A tracker's matrix holds too
    few pairs for the batched `iou3d_rows` to pay for its fixed cost.
    """
    n, m = len(tracks), len(detections)
    cost = np.zeros((n, m), dtype=float)
    if n == 0 or m == 0:
        return cost
    tracks, detections = np.asarray(tracks, dtype=float), np.asarray(detections, dtype=float)
    for side, rows in (("track", tracks), ("detection", detections)):
        finite = np.isfinite(rows)
        if not finite.all():
            i, k = np.argwhere(~finite)[0]
            raise ValueError(f"{side} row {i} has a non-finite value {rows[i, k]} in column {k}")
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
