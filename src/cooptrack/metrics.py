"""Tracking evaluation and communication-cost accounting.

The headline accuracy numbers average MOTA/MOTP over a sweep of 40 recall
levels. For each level, the score threshold is picked so that the retained
true-positive matches reach that recall; tracks are kept or dropped whole,
using their per-track average score. MOTA, MT, and ML are reported at the
best-MOTA level of the sweep. All metric fields are percentages.

An `evaluate` call sets its whole sequence up once, as arrays (`_Sequence`),
in one pass over its frames: every gt and track item with its box row, id and
score, and each track's average score, one `np.bincount` over its items in
`track_frames` order. A non-finite box or score raises a `ValueError`. Then
each frame's (gt, track) pairs in row-major order, frame after frame,
prescreened by `association.prescreen_pairs`' test (`footprint_reach` and
`extents_meet`: a pair is kept unless its footprints' x or y extents lie
apart) and scored in one `geometry.iou3d_rows` call, whose fixed cost a whole
sequence's pairs repay (the tracker's per-frame matrices are too small for
that and stay on the per-pair path, `association.build_cost_matrix`).
A pass keeps each frame's n best-scored tracks (ties kept together), so a
frame's matches depend on n alone, and most of them need no solver. Up to a
frame's star limit, every component of the kept tracks' positive-IoU graph is
a star (one gt with some tracks, or one track with some gts; a single pair is
the one-leaf star), and no gt or track holds two positive IoUs within
`STAR_MARGIN`. Then every optimal assignment of the zero-padded matrix holds
each star's best pair and no other pair of it: the components are independent,
and any two pairs of a star share its centre, so an optimum holds at most one
of them; it holds the best one, which beats every other by more than the
margin. Those matches are the kept pairs that reach the IoU threshold and hold
the largest IoU at both their gt and their track, one mask over the whole
sequence; only a kept count past the limit is solved (`match_frame`), once per
(frame, n) of the call. A pass's TP, kept-track and id-switch counts are then
array reductions, and its TP IoUs are added left to right, frame after frame.
Levels that share a threshold share one pass.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .association import associate, extents_meet, footprint_reach
from .geometry import box_rows, iou3d_rows
from .io import RunConfig, replace_file

NUM_RECALL_LEVELS = 40
MT_FRACTION = 0.8
ML_FRACTION = 0.2

BYTES_PER_REAL = 4
BOX_REALS = 7
SHARED_REALS = 17  # 7 box variables + a 10-entry noise diagonal
PAYLOAD_RATIO = SHARED_REALS / BOX_REALS
MEGABYTE = 1e6

# two positive IoUs of one gt or one track closer than this send a frame to the
# solver: far above the rounding of its shortest augmenting paths on costs in
# [-1, 0], so the solver's choice between them is never guessed
STAR_MARGIN = 1e-9


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


class _Sequence:
    """One `evaluate` call's frames as arrays, and its recall passes.

    Gt rows and track rows run frame after frame, each frame's in list order,
    gathered in one pass over the frames. A track's average score adds its
    scores in `track_frames` order (the order of the dict's frames, each
    frame's items in list order), as a loop over the dict would, so its bits
    do not depend on how the frames are sorted here. A non-finite gt box,
    track box or track score raises a `ValueError` naming its timestep and
    id, before any trig runs on the boxes.
    A track's rank counts the tracks of its frame that score strictly above
    it, so a pass that keeps a frame's n best tracks keeps its rows of
    rank < n. A frame's star limit is the largest n at which its kept
    tracks' positive IoUs form stars only, with no two IoUs of one gt or one
    track within `STAR_MARGIN`. Kept tracks only add pairs as n grows, so
    the limit is the smallest n - 1 at which one of these appears: a
    positive pair whose track has two positive gts, once that track and a
    second positive track of its gt are kept; two IoUs within the margin at
    a track, once it is kept; two at a gt, once both of their tracks are
    kept. A frame with a
    non-finite IoU has limit 0, so its solves (and the solver's finite
    check) all run. The positive pairs are sorted once, here: a pair that
    reaches the IoU threshold and holds its track's largest IoU is read off
    by a pass whose n keeps its track and is at most both the frame's limit
    and the lowest rank of a track of larger IoU at its gt (`hit_cap`).
    Past the limit a frame's matches are solved by `match_frame`, once per
    (frame, n) of the call.
    """

    def __init__(self, frames, track_frames, gt_frames, iou_threshold):
        self.gts, self.items, gt_items, track_items = [], [], [], []
        for t in frames:
            gts, items = gt_frames.get(t, []), track_frames.get(t, [])
            self.gts.append(gts)
            self.items.append(items)
            gt_items += gts
            track_items += items
        self.iou_threshold = iou_threshold
        num_gts = np.fromiter(map(len, self.gts), dtype=int, count=len(frames))
        num_tracks = np.fromiter(map(len, self.items), dtype=int, count=len(frames))
        self.gt_start = np.cumsum(num_gts) - num_gts
        self.track_start = np.cumsum(num_tracks) - num_tracks
        gt_frame = np.repeat(np.arange(len(frames)), num_gts)
        self.track_frame = np.repeat(np.arange(len(frames)), num_tracks)
        gt_ids, gt_boxes = zip(*gt_items)
        track_ids, track_boxes, scores = zip(*track_items) if track_items else ((), (), ())
        gt_rows, track_rows = box_rows(gt_boxes), box_rows(track_boxes)
        self.gt_ids = np.array(gt_ids)
        scores = np.array(scores, dtype=float)
        for kind, ids, frame, rows in (("gt", gt_ids, gt_frame, gt_rows),
                                       ("track", track_ids, self.track_frame, track_rows)):
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            if len(bad):
                k = bad[0]
                raise ValueError(f"{kind} {ids[k]} at timestep {frames[frame[k]]}"
                                 f" has a non-finite box {tuple(rows[k].tolist())}")
        bad = np.flatnonzero(~np.isfinite(scores))
        if len(bad):
            k = bad[0]
            raise ValueError(f"track {track_ids[k]} at timestep {frames[self.track_frame[k]]}"
                             f" has a non-finite score {scores[k]}")

        # a track's average score adds its scores in `track_frames` order, as a
        # loop over the dict would: `np.bincount` adds its weights in order
        track_ids = np.array(track_ids)
        self.distinct_ids, code = np.unique(track_ids, return_inverse=True)
        position = {t: k for k, t in enumerate(track_frames)}
        in_order = np.argsort(np.array([position.get(t, 0) for t in frames],
                                       dtype=int)[self.track_frame], kind="stable")
        self.avg_score = np.bincount(code[in_order], weights=scores[in_order]) \
            / np.bincount(code)
        self.scores = self.avg_score[code]

        # every (gt, track) pair of each frame in row-major order, frame after
        # frame, prescreened by `prescreen_pairs`' test and scored in one IoU
        # batch
        width = num_tracks[gt_frame]
        pair_gt = np.repeat(np.arange(len(gt_frame)), width)
        pair_track = np.arange(len(pair_gt)) - np.repeat(
            np.cumsum(width) - width - self.track_start[gt_frame], width)
        gt_x, gt_y = footprint_reach(gt_rows)
        track_x, track_y = footprint_reach(track_rows)
        near = np.flatnonzero(extents_meet(
            gt_rows[:, 0][pair_gt] - track_rows[:, 0][pair_track],
            gt_rows[:, 1][pair_gt] - track_rows[:, 1][pair_track],
            gt_x[pair_gt] + track_x[pair_track], gt_y[pair_gt] + track_y[pair_track]))
        self.pair_gt, self.pair_track = pair_gt[near], pair_track[near]
        self.pair_frame = gt_frame[self.pair_gt]
        self.iou = iou3d_rows(gt_rows[self.pair_gt], track_rows[self.pair_track])

        # ranks: tied scores share the rank of the first of them
        order = np.lexsort((-self.scores, self.track_frame))
        neg_sorted, frame_sorted = -self.scores[order], self.track_frame[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (frame_sorted[1:] != frame_sorted[:-1]) | (neg_sorted[1:] != neg_sorted[:-1])
        tie_start = np.maximum.accumulate(np.where(first, np.arange(len(order)), 0))
        rank = np.empty(len(order), dtype=int)
        rank[order] = tie_start - self.track_start[frame_sorted]

        # star limits (see the class docstring), from the positive pairs
        self.limit = num_tracks.copy()
        positive = np.flatnonzero(self.iou > 0.0)
        pos_gt, pos_track, pos_iou = self.pair_gt[positive], self.pair_track[positive], \
            self.iou[positive]
        pos_rank, pos_frame = rank[pos_track], self.pair_frame[positive]
        # a pair whose track has two positive gts joins two stars once its
        # track and its gt's second-ranked positive track are both kept
        by_rank = np.lexsort((pos_rank, pos_gt))
        gt_sorted, rank_sorted = pos_gt[by_rank], pos_rank[by_rank]
        later = np.flatnonzero(gt_sorted[1:] == gt_sorted[:-1]) + 1  # all but each gt's lowest
        second = num_tracks[gt_frame]
        np.minimum.at(second, gt_sorted[later], rank_sorted[later])
        forked = np.flatnonzero(np.bincount(pos_track, minlength=len(rank))[pos_track] >= 2)
        np.minimum.at(self.limit, pos_frame[forked],
                      np.maximum(pos_rank[forked], second[pos_gt[forked]]))
        # two IoUs within the margin at one gt or one track, once both are kept:
        # in (centre, IoU) order every close pair of a centre is found at some
        # offset k, and no offset past the first without one holds any
        for centre in (pos_gt, pos_track):
            by_iou = np.lexsort((pos_iou, centre))
            c, v, r, f = centre[by_iou], pos_iou[by_iou], pos_rank[by_iou], pos_frame[by_iou]
            for k in range(1, len(by_iou)):
                close = np.flatnonzero((c[k:] == c[:-k]) & (v[k:] - v[:-k] <= STAR_MARGIN))
                if not len(close):
                    break
                np.minimum.at(self.limit, f[close], np.maximum(r[close], r[close + k]))
        self.limit[self.pair_frame[~np.isfinite(self.iou)]] = 0

        # a star's read-off pair holds the largest IoU at its track (among
        # every gt) and at its gt (among the kept tracks): so it is read off
        # while the lowest-ranked track of larger IoU at its gt is not kept
        by_track = np.lexsort((-pos_iou, pos_track))
        best = np.zeros(len(positive), dtype=bool)
        best[by_track[np.flatnonzero(np.diff(pos_track[by_track], prepend=-1))]] = True
        by_gt = np.lexsort((-pos_iou, pos_gt))
        g, r = pos_gt[by_gt], pos_rank[by_gt]
        first = np.diff(g, prepend=-1) != 0
        above = np.where(first, num_tracks[gt_frame[g]], np.roll(r, 1))  # the previous pair's rank
        # a running minimum that restarts at each gt: the k-th gt of the
        # order is shifted below every earlier one
        shift = (np.cumsum(first) - 1) * (num_tracks.max(initial=0) + 1)
        beaten = np.empty(len(positive), dtype=int)
        beaten[by_gt] = np.minimum.accumulate(above - shift) + shift

        hit = np.flatnonzero(best & (pos_iou >= iou_threshold))
        self.hit_frame = pos_frame[hit]
        self.hit_rank = pos_rank[hit]
        self.hit_cap = np.minimum(self.limit[self.hit_frame], beaten[hit])
        self.hit_gt = self.gt_ids[pos_gt[hit]]
        self.hit_track = track_ids[pos_track[hit]]
        self.hit_iou = pos_iou[hit]
        self.matrices = {}  # frame -> its track ids, gt ids and negated-IoU matrix
        self.solved = {}  # (frame, n) -> that frame's matches when it keeps n tracks

    def sweep(self, threshold):
        """One pass over the sequence keeping tracks with score >= threshold.

        Returns the TP, kept-track and id-switch counts, the TP IoUs added
        left to right (frame after frame, each frame's in pair order), and
        the gt id and the track id of every TP match in that order.
        """
        kept = np.bincount(self.track_frame[self.scores >= threshold],
                           minlength=len(self.items))
        n = kept[self.hit_frame]
        read_off = np.flatnonzero((self.hit_rank < n) & (n <= self.hit_cap))
        gt, track, iou = self.hit_gt[read_off], self.hit_track[read_off], self.hit_iou[read_off]
        contested = np.flatnonzero(kept > self.limit)
        if len(contested):
            solved = [self._solve(f, count, threshold)
                      for f, count in zip(contested.tolist(), kept[contested].tolist())]
            matches = [m for pairs in solved for m in pairs]
            order = np.argsort(np.concatenate((self.hit_frame[read_off], np.repeat(
                contested, [len(pairs) for pairs in solved]))), kind="stable")
            gt = np.concatenate((gt, np.array([g for g, _t, _i in matches], dtype=gt.dtype)))[order]
            track = np.concatenate((track, np.array([t for _g, t, _i in matches],
                                                    dtype=track.dtype)))[order]
            iou = np.concatenate((iou, [i for _g, _t, i in matches]))[order]
        # a gt matched to another track than at its previous match is a switch
        by_gt = np.argsort(gt, kind="stable")
        gt_sorted, track_sorted = gt[by_gt], track[by_gt]
        ids = np.count_nonzero((gt_sorted[1:] == gt_sorted[:-1])
                               & (track_sorted[1:] != track_sorted[:-1]))
        iou_sum = float(np.add.accumulate(iou)[-1]) if len(iou) else 0.0
        return len(iou), int(kept.sum()), int(ids), iou_sum, gt, track

    def _solve(self, f, n, threshold):
        """Frame f's (gt id, track id, iou) matches when it keeps its n best
        tracks, solved on the first request of the call."""
        if (f, n) not in self.solved:
            if f not in self.matrices:
                gts, items = self.gts[f], self.items[f]
                lo, hi = np.searchsorted(self.pair_frame, (f, f + 1))
                cost = np.zeros((len(gts), len(items)))
                cost[self.pair_gt[lo:hi] - self.gt_start[f],
                     self.pair_track[lo:hi] - self.track_start[f]] = -self.iou[lo:hi]
                self.matrices[f] = ([tid for tid, _b, _s in items], [g for g, _ in gts], cost)
            track_ids, gt_ids, cost = self.matrices[f]
            start = self.track_start[f]
            keep = np.flatnonzero(self.scores[start:start + len(track_ids)] >= threshold)
            self.solved[f, n] = match_frame(track_ids, gt_ids, cost, keep, self.iou_threshold)
        return self.solved[f, n]


def evaluate(track_frames: dict, gt_frames: dict,
             iou_threshold: float = RunConfig.eval_iou_threshold) -> EvalReport:
    """Full recall-sweep evaluation.

    `track_frames`: timestep -> list of (track_id, Box7, score).
    `gt_frames`: timestep -> list of (gt_id, Box7).
    Raises a `ValueError` for empty ground truth, an IoU threshold outside
    (0, 1), or a non-finite box or track score.
    """
    num_gt = sum(len(v) for v in gt_frames.values())
    if num_gt == 0:
        raise ValueError("ground truth is empty; metrics are undefined")
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    frames = sorted(set(gt_frames) | set(track_frames))
    sequence = _Sequence(frames, track_frames, gt_frames, iou_threshold)

    # full-recall pass: collect the score of every achievable TP match
    *_, full_recall_tracks = sequence.sweep(-math.inf)
    tp_scores = sorted(sequence.avg_score[np.searchsorted(sequence.distinct_ids,
                                                          full_recall_tracks)].tolist(),
                       reverse=True)

    levels = []
    passes = {}  # threshold -> that pass's totals; equal thresholds repeat a pass
    best = None
    best_gt = None
    for k in range(1, NUM_RECALL_LEVELS + 1):
        target = k / NUM_RECALL_LEVELS
        needed = -(-k * num_gt // NUM_RECALL_LEVELS)  # ceil(target * num_gt), exactly
        if needed > len(tp_scores):
            levels.append(RecallLevel(recall_target=target, achievable=False))
            continue
        threshold = tp_scores[needed - 1]
        if threshold not in passes:
            passes[threshold] = sequence.sweep(threshold)
        tp, kept, ids, iou_sum, matched_gt, _ = passes[threshold]
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
            best_gt = matched_gt

    amota = 100.0 * sum(lv.mota for lv in levels) / NUM_RECALL_LEVELS
    samota = 100.0 * sum(lv.smota for lv in levels) / NUM_RECALL_LEVELS
    amotp = 100.0 * sum(lv.motp for lv in levels) / NUM_RECALL_LEVELS
    if best is None:
        return EvalReport(amota=0.0, amotp=0.0, samota=0.0, mota=0.0, mt=0.0,
                          ml=100.0, ids=0, num_gt=num_gt, levels=levels)
    # frames in which each gt is matched at the best level, against its lifetime
    gt_ids, lifetime = np.unique(sequence.gt_ids, return_counts=True)
    matched_ids, matches = np.unique(best_gt, return_counts=True)
    matched = np.zeros_like(lifetime)
    matched[np.searchsorted(gt_ids, matched_ids)] = matches
    mt = int(np.count_nonzero(matched >= MT_FRACTION * lifetime)) / len(gt_ids)
    ml = int(np.count_nonzero(matched <= ML_FRACTION * lifetime)) / len(gt_ids)
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
