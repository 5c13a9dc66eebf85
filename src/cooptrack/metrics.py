"""Tracking evaluation and communication-cost accounting.

The headline accuracy numbers average MOTA/MOTP over a sweep of 40 recall
levels. For each level, the score threshold is picked so that the retained
true-positive matches reach that recall; tracks are kept or dropped whole,
using their per-track average score. MOTA, MT, and ML are reported at the
best-MOTA level of the sweep. All metric fields are percentages.

IoU does not depend on the score threshold, so each frame's gt x track IoU
matrix is built once. The IoUs are batched per `evaluate` call: every frame's
prescreened pairs are scored in one `geometry.iou3d_rows` call, whose fixed
cost a whole sequence's pairs repay; the tracker's per-frame matrices are too
small for that and stay on the per-pair path (`association.build_cost_matrix`).
A pass keeps each frame's n best-scored tracks (ties kept together), so a
frame's matches depend on n alone: they are found once per (frame, n) and
replayed in every later pass of the same call. Most of them need no solver.
Up to a frame's matching limit (`_read_off`), the kept tracks' positive-IoU
entries pair each ground truth with at most one track and each track with at
most one ground truth, and every optimal assignment holds each of those
pairs: an optimum that left out (g, t) pairs g and t at cost 0 each, and
swapping (g, t) in lowers the total by IoU(g, t) > 0. Those matches are read
off the frame's pairs that reach the IoU threshold; only a kept count past
the limit is solved (`match_frame`). Id switches are counted pass by pass
from the replayed matches, and levels that share a threshold share one pass.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .association import associate, prescreen_pairs
from .geometry import box_rows, iou3d_rows
from .io import RunConfig, replace_file

NUM_RECALL_LEVELS = 40
MT_FRACTION = 0.8
ML_FRACTION = 0.2

BYTES_PER_REAL = 4
BOX_REALS = 7
SHARED_REALS = 17  # 7 box variables + 10 covariance residuals
PAYLOAD_RATIO = SHARED_REALS / BOX_REALS
MEGABYTE = 1e6


@dataclass
class RecallLevel:
    recall_target: float
    achievable: bool
    threshold: float = math.nan
    recall: float = 0.0
    tp: int = 0
    fp: int = 0
    fn: int = 0
    ids: int = 0
    mota: float = 0.0
    smota: float = 0.0
    motp: float = 0.0


@dataclass
class EvalReport:
    amota: float
    amotp: float
    samota: float
    mota: float
    mt: float
    ml: float
    ids: int
    num_gt: int
    levels: list = field(default_factory=list)


def match_frame(track_ids, gt_ids, cost, keep, iou_threshold: float) -> list:
    """Match one frame's kept tracks to ground truth by IoU.

    `cost` is the frame's negated-IoU matrix (as `association.build_cost_matrix`
    builds it) with one row per id in `gt_ids` and one column per id in
    `track_ids`; only the columns listed in `keep` (ascending) take part.
    Returns (gt_id, track_id, iou) for every solved pair whose IoU reaches
    `iou_threshold`.
    """
    kept = np.asarray(keep).tolist()
    return [(gt_ids[r], track_ids[kept[c]], iou)
            for r, c, iou in associate(cost[:, keep], iou_threshold)]


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


def _track_average_scores(track_frames) -> dict:
    totals, counts = {}, {}
    for items in track_frames.values():
        for track_id, _box, score in items:
            totals[track_id] = totals.get(track_id, 0.0) + score
            counts[track_id] = counts.get(track_id, 0) + 1
    return {tid: totals[tid] / counts[tid] for tid in totals}


def _read_off(cost, ranks, iou_threshold):
    """One frame's matching limit and the matches it fixes.

    `cost` is the frame's negated-IoU matrix; `ranks[c]` counts the tracks
    scoring above track c, so a pass keeping n tracks keeps the columns of
    rank < n. The limit is the largest n for which no kept column has two
    negative entries and no row has two among its kept columns: the lowest
    rank of a column with two negative rows, or the second-lowest rank of a
    row's negative columns, whichever is smaller. A matrix with a non-finite
    entry has limit 0, so its solves (and the solver's finite check) all
    run. Returns the limit and (rank, row, col, iou) for every entry whose
    IoU reaches `iou_threshold`, in row-major order, iou read as `associate`
    reads it.
    """
    cols = cost.shape[1]
    if not np.isfinite(cost).all():
        return 0, []
    overlap = cost < 0.0
    limit = ranks[overlap.sum(axis=0) >= 2].min(initial=cols)
    if cols >= 2:
        row_ranks = np.partition(np.where(overlap, ranks, cols), 1, axis=1)
        limit = row_ranks[:, 1].min(initial=limit)
    rows, hits = np.nonzero(-cost >= iou_threshold)
    return int(limit), list(zip(ranks[hits].tolist(), rows.tolist(), hits.tolist(),
                                (-cost[rows, hits]).tolist()))


def _sweep(scored, threshold, solved, iou_threshold):
    """One full pass over the sequence keeping tracks with score >= threshold.

    A frame keeping its n best tracks reuses the matches `solved[frame, n]`
    from an earlier pass of the same `evaluate` call, or finds and stores
    them: read off the frame's fixed pairs of rank < n while n is within its
    matching limit (see `_read_off`), solved by `match_frame` past it. Id
    switches follow this pass's own matches in frame order.
    Returns the TP, kept-track and ID-switch counts, the summed TP IoU, the
    number of matched frames per ground-truth id, and the track id of every
    TP match.
    """
    tp = kept = ids = 0
    iou_sum = 0.0
    last_ids = {}
    matched_frames = {}
    matched_tracks = []
    for i, (gt_ids, track_ids, scores, neg_sorted, cost, limit, fixed) in enumerate(scored):
        n = bisect_right(neg_sorted, -threshold)
        kept += n
        pairs = solved.get((i, n))
        if pairs is None:
            if n <= limit:
                pairs = [(gt_ids[r], track_ids[c], iou)
                         for rank, r, c, iou in fixed if rank < n]
            else:
                pairs = match_frame(track_ids, gt_ids, cost,
                                    np.flatnonzero(scores >= threshold), iou_threshold)
            solved[i, n] = pairs
        tp += len(pairs)
        ids += count_id_switches(pairs, last_ids)
        for gt_id, tid, iou in pairs:
            iou_sum += iou
            matched_frames[gt_id] = matched_frames.get(gt_id, 0) + 1
            matched_tracks.append(tid)
    return tp, kept, ids, iou_sum, matched_frames, matched_tracks


def evaluate(track_frames: dict, gt_frames: dict,
             iou_threshold: float = RunConfig.eval_iou_threshold) -> EvalReport:
    """Full recall-sweep evaluation.

    `track_frames`: timestep -> list of (track_id, Box7, score).
    `gt_frames`: timestep -> list of (gt_id, Box7).
    """
    num_gt = sum(len(v) for v in gt_frames.values())
    if num_gt == 0:
        raise ValueError("ground truth is empty; metrics are undefined")
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    frames = sorted(set(gt_frames) | set(track_frames))
    avg_score = _track_average_scores(track_frames)
    # each frame's prescreened pairs, scored below in one IoU batch
    pairs, gt_side, track_side = [], [], []
    for t in frames:
        gts, items = gt_frames.get(t, []), track_frames.get(t, [])
        gt_rows, track_rows = box_rows(b for _, b in gts), box_rows(b for _, b, _s in items)
        ii, jj = prescreen_pairs(gt_rows, track_rows)
        pairs.append((ii, jj))
        gt_side.append(gt_rows[ii])
        track_side.append(track_rows[jj])
    neg_iou = -iou3d_rows(np.concatenate(gt_side), np.concatenate(track_side))
    # per frame: gt ids, track ids, track average scores, those scores negated
    # and sorted (a pass's kept count is one bisection), the gt x track cost
    # matrix, and its matching limit and fixed pairs
    scored = []
    start = 0
    for t, (ii, jj) in zip(frames, pairs):
        gts, items = gt_frames.get(t, []), track_frames.get(t, [])
        cost = np.zeros((len(gts), len(items)))
        cost[ii, jj] = neg_iou[start:start + len(ii)]
        start += len(ii)
        scores = np.array([avg_score[tid] for tid, _b, _s in items])
        neg_sorted = sorted((-scores).tolist())
        ranks = np.searchsorted(neg_sorted, -scores, side="left")
        scored.append(([g for g, _ in gts], [tid for tid, _b, _s in items], scores,
                       neg_sorted, cost, *_read_off(cost, ranks, iou_threshold)))
    # (frame index, kept count) -> that frame's matches; tied scores are kept
    # together, so the count fixes the kept columns
    solved = {}

    # full-recall pass: collect the score of every achievable TP match
    *_, full_recall_tracks = _sweep(scored, -math.inf, solved, iou_threshold)
    tp_scores = sorted((avg_score[tid] for tid in full_recall_tracks), reverse=True)

    gt_lifetime = {}
    for items in gt_frames.values():
        for gt_id, _box in items:
            gt_lifetime[gt_id] = gt_lifetime.get(gt_id, 0) + 1

    levels = []
    passes = {}  # threshold -> that pass's totals; equal thresholds repeat a pass
    best = None
    best_matched = {}
    for k in range(1, NUM_RECALL_LEVELS + 1):
        target = k / NUM_RECALL_LEVELS
        needed = -(-k * num_gt // NUM_RECALL_LEVELS)  # ceil(target * num_gt), exactly
        if needed > len(tp_scores):
            levels.append(RecallLevel(recall_target=target, achievable=False))
            continue
        threshold = tp_scores[needed - 1]
        if threshold not in passes:
            passes[threshold] = _sweep(scored, threshold, solved, iou_threshold)
        tp, kept, ids, iou_sum, matched, _ = passes[threshold]
        fp, fn = kept - tp, num_gt - tp
        recall = tp / num_gt
        mota = max(0.0, 1.0 - (fp + fn + ids) / num_gt)
        if tp == 0:
            smota = 0.0
        else:
            smota = min(1.0, max(0.0, 1.0 - (fp + fn + ids - (1.0 - recall) * num_gt)
                                 / (recall * num_gt)))
        motp = iou_sum / tp if tp else 0.0
        level = RecallLevel(recall_target=target, achievable=True, threshold=threshold,
                            recall=recall, tp=tp, fp=fp, fn=fn, ids=ids,
                            mota=mota, smota=smota, motp=motp)
        levels.append(level)
        if best is None or level.mota > best.mota:
            best = level
            best_matched = matched

    amota = 100.0 * sum(lv.mota for lv in levels) / NUM_RECALL_LEVELS
    samota = 100.0 * sum(lv.smota for lv in levels) / NUM_RECALL_LEVELS
    amotp = 100.0 * sum(lv.motp for lv in levels) / NUM_RECALL_LEVELS
    if best is None:
        return EvalReport(amota=0.0, amotp=0.0, samota=0.0, mota=0.0, mt=0.0,
                          ml=100.0, ids=0, num_gt=num_gt, levels=levels)
    num_traj = len(gt_lifetime)
    mt = sum(1 for g, life in gt_lifetime.items()
             if best_matched.get(g, 0) >= MT_FRACTION * life) / num_traj
    ml = sum(1 for g, life in gt_lifetime.items()
             if best_matched.get(g, 0) <= ML_FRACTION * life) / num_traj
    return EvalReport(amota=amota, amotp=amotp, samota=samota,
                      mota=100.0 * best.mota, mt=100.0 * mt, ml=100.0 * ml,
                      ids=best.ids, num_gt=num_gt, levels=levels)


# --- communication cost -------------------------------------------------------


@dataclass(frozen=True)
class CommCost:
    num_shared_detections: int
    num_frames: int
    reals_per_detection: int

    @property
    def bytes_total(self) -> int:
        return self.num_shared_detections * self.reals_per_detection * BYTES_PER_REAL

    @property
    def mb_total(self) -> float:
        return self.bytes_total / MEGABYTE

    @property
    def mb_per_frame(self) -> float:
        return self.mb_total / self.num_frames if self.num_frames else 0.0

    @property
    def ratio_vs_box_only(self) -> float:
        return self.reals_per_detection / BOX_REALS

    def as_dict(self) -> dict:
        """The cost summary a tracking run records (see `io.write_track_output`)."""
        return {"num_shared_detections": self.num_shared_detections,
                "reals_per_detection": self.reals_per_detection,
                "bytes_total": self.bytes_total,
                "mb_total": self.mb_total,
                "mb_per_frame": self.mb_per_frame,
                "ratio_vs_box_only": self.ratio_vs_box_only}


def comm_cost(frames, reals_per_detection: int) -> CommCost:
    """Cost of sending every detection to the host vehicle.

    `frames` holds one {cav_id: detections sent} mapping per frame. The host
    is the lowest vehicle id anywhere in the sequence; its own detections
    travel no link and cost nothing.
    """
    host = min((cav for frame in frames for cav in frame), default=None)
    shared = sum(n for frame in frames for cav, n in frame.items() if cav != host)
    return CommCost(num_shared_detections=shared, num_frames=len(frames),
                    reals_per_detection=reals_per_detection)


# --- CSV emission -------------------------------------------------------------

SUMMARY_COLUMNS = ["label", "AMOTA", "AMOTP", "sAMOTA", "MOTA", "MT", "ML",
                   "IDS", "Cost_MB"]


def write_summary_csv(path: str, rows):
    """rows: iterable of (label, EvalReport, cost_mb)."""
    with replace_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for label, report, cost_mb in rows:
            writer.writerow([label,
                             f"{report.amota:.4f}", f"{report.amotp:.4f}",
                             f"{report.samota:.4f}", f"{report.mota:.4f}",
                             f"{report.mt:.4f}", f"{report.ml:.4f}",
                             report.ids, f"{cost_mb:.6f}"])


def write_recall_table_csv(path: str, report: EvalReport):
    with replace_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["recall_target", "achievable", "threshold", "recall",
                         "TP", "FP", "FN", "IDS", "MOTA", "sMOTA", "MOTP"])
        for lv in report.levels:
            writer.writerow([f"{lv.recall_target:.4f}", int(lv.achievable),
                             "" if math.isnan(lv.threshold) else f"{lv.threshold:.6f}",
                             f"{lv.recall:.4f}", lv.tp, lv.fp, lv.fn, lv.ids,
                             f"{lv.mota:.6f}", f"{lv.smota:.6f}", f"{lv.motp:.6f}"])
