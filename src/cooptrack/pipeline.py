"""Per-timestep fusion of all vehicles' detections into one track set.

Each timestep runs one association + Kalman-update round per vehicle, in
ascending vehicle id (ego first). Detections unmatched in a round birth new
tracks immediately, so later rounds in the same timestep can match them;
deferring births would let two vehicles seed duplicate tracks for the same
object. Lifecycle counting (hits, misses, kills) happens once per timestep,
after the final round, followed by the predict step for the next frame.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import covnet, metrics
from . import io as cio
from .association import (Lifecycle, LifecycleConfig, associate, build_cost_matrix,
                          finish_timestep, reportable)
# encode_detection is not called here, but the benchmark's tracer test looks it up here
from .features import (DEFAULT_BOUNDS, chebyshev_rows, encode_detection,  # noqa: F401
                       positional_rows)
from .filter import (OBS_DIM, OBSERVATION_MATRIX, STATE_DIM, ObservationModel, ProcessModel,
                     TrackBank, predict, update)
from .geometry import Box7, PoseYawT, box_rows, transform_rows, wrap_angle


@dataclass(frozen=True)
class FramePacket:
    """One vehicle's detections for one timestep, in its local frame."""

    timestep: int
    cav_id: int
    pose: PoseYawT
    detections: tuple  # objects with .box (Box7), .confidence, .appearance


@dataclass(frozen=True)
class ReportedTrack:
    """One reported track of one timestep.

    Every report of a timestep shares `frame`, the (reported, 10) state
    means of that timestep's reported tracks (one tape node during
    training), and `row` picks this track's mean from it. `mean` indexes
    the frame on demand, so each read during training records a node.
    """

    track_id: int
    box: Box7          # global frame, value level
    score: float
    frame: object      # (reported, 10) means, tape node during training
    row: int

    @property
    def mean(self):
        """This track's 10-vector state mean."""
        return ad.getitem(self.frame, self.row)


class ConstantCovariance:
    """Zero residuals: identity observation noise and identity initial covariance."""

    reals_per_detection = metrics.BOX_REALS

    def residual_rows(self, packets):
        """Each packet's (N, 10) residual rows, all zero."""
        return [np.zeros((len(p.detections), covnet.RESIDUAL_DIM)) for p in packets]


class LearnedCovariance:
    """Covariance-network residuals, one parameter set per vehicle.

    `params_by_cav` maps cav_id to CovNetParams, whose arrays may be tape
    nodes (a training pass), or to a (name -> array/node mapping,
    CovNetConfig) pair, which is wrapped as CovNetParams here. Vehicles
    share a set as `io.set_owners` says, by holding one arrays mapping. A
    provider reads its weights once, when it is built: it folds each set for
    its passes then (`covnet.fold`, one tape node per set for lifted
    weights), so weights changed later, as by an optimizer step, need a new
    provider. A provider keeps no state besides its folded sets and their
    owners: `residual_rows` makes one network pass per parameter set over
    whatever packets it is given, a frame's when tracking, a whole window's
    in training. The network reads each detection's local box and its
    vehicle's pose (`features`). Every pass runs on the calling thread.
    """

    reals_per_detection = metrics.SHARED_REALS

    def __init__(self, params_by_cav: dict, bounds=DEFAULT_BOUNDS):
        params = {cav: entry if isinstance(entry, covnet.CovNetParams)
                  else covnet.CovNetParams(entry[1], entry[0])
                  for cav, entry in params_by_cav.items()}
        self.owners = cio.set_owners(params)
        folded = {cav: covnet.fold(params[cav]) for cav, owner in self.owners.items()
                  if cav == owner}
        self.params_by_cav = {cav: folded[owner] for cav, owner in self.owners.items()}
        self.bounds = bounds

    def _appearance(self, packets, config: covnet.CovNetConfig):
        """The appearance tensors of every detection of `packets`, stacked;
        None without the appearance branch. ValueError for a detection
        without one, or for tensors not of the configured shape."""
        if not config.use_appearance:
            return None
        apps = [d.appearance for p in packets for d in p.detections]
        if any(a is None for a in apps):
            raise ValueError("detection has no appearance tensor but the "
                             "appearance branch is enabled")
        f_app = np.stack(apps)
        covnet.check_appearance(config, f_app, len(apps))
        return f_app

    def residual_rows(self, packets):
        """Each packet's (N, 10) residual rows, in packet order; row j of a
        packet's rows belongs to its detection j.

        One network pass per parameter set covers that set's non-empty
        `packets`, be they one frame's or a whole window's, and each packet
        takes its slice of the pass's rows. An empty packet gets (0, 10)
        rows and needs no parameters. Every input is checked before any pass
        runs: every vehicle is looked up (KeyError for one without
        parameters), then every set's appearance tensors are stacked
        (ValueError for a missing one or a wrong shape). Each pass reads its
        packets' normalized positional rows (`features.positional_rows`) as
        Chebyshev rows (`features.chebyshev_rows`).
        """
        packets = list(packets)
        out = [None if p.detections else np.zeros((0, covnet.RESIDUAL_DIM)) for p in packets]
        groups = {}  # owner -> its [(index, packet)]
        for i, packet in enumerate(packets):
            if packet.detections:
                if packet.cav_id not in self.owners:
                    raise KeyError(f"no covariance network parameters for vehicle {packet.cav_id}")
                groups.setdefault(self.owners[packet.cav_id], []).append((i, packet))
        groups = [(self.params_by_cav[owner], group) for owner, group in groups.items()]
        f_app = [self._appearance([p for _i, p in group], params.config)
                 for params, group in groups]
        for (params, group), app in zip(groups, f_app):
            xb = [positional_rows(box_rows(d.box for d in p.detections), p.pose, self.bounds)
                  for _i, p in group]
            rows = covnet.forward(params, app,
                                  chebyshev_rows(xb[0] if len(xb) == 1 else np.concatenate(xb)))
            start = 0
            for i, packet in group:
                stop = start + len(packet.detections)
                out[i] = rows[start:stop]
                start = stop
        return out


class CoopTracker:
    """Stateful multi-vehicle tracker for one sequence.

    The live tracks' beliefs form one TrackBank, `bank`; `tracks` lists
    their Lifecycle records, item i belonging to row i of the bank.
    """

    def __init__(self, cov_provider=None,
                 q_velocity: float = cio.TrackerSettings.process_noise_velocity,
                 assoc_iou_threshold: float = cio.TrackerSettings.assoc_iou_threshold,
                 lifecycle: LifecycleConfig = None):
        self.cov = cov_provider if cov_provider is not None else ConstantCovariance()
        self.process = ProcessModel.constant_velocity(q_velocity=q_velocity)
        self.assoc_iou_threshold = assoc_iou_threshold
        self.lifecycle = lifecycle if lifecycle is not None else LifecycleConfig()
        self.bank = TrackBank.empty()
        self.tracks = []
        self.ids = itertools.count()

    @property
    def skipped_updates(self) -> int:
        """Matched detections not fused because their innovation covariance was degenerate."""
        return self.bank.skipped

    def step(self, packets) -> list:
        """Run one timestep; returns the reported tracks (post-update).

        Packets must share one timestep and have distinct vehicle ids; they
        are processed in ascending cav_id regardless of input order. Each
        round with matches is one bank update; a matched track whose update
        is degenerate keeps its predicted state, still counts as matched,
        and is counted in `skipped_updates`.

        The provider computes every packet's residual rows first
        (`residual_rows`, which checks every input), before the first
        round, so a pass that fails leaves the tracker as it was.

        Association works on float rows: each packet's detections reach the
        global frame as one (N, 7) array, and the live tracks enter each
        round as the bank's rows (`_track_rows`). Box7s are built only for
        the reported tracks.
        """
        packets = sorted(packets, key=lambda p: p.cav_id)
        if len({p.timestep for p in packets}) > 1:
            raise ValueError("packets span multiple timesteps")
        if len({p.cav_id for p in packets}) != len(packets):
            raise ValueError("duplicate cav_id in packets")

        residuals = self.cov.residual_rows(packets)
        matched = [False] * len(self.tracks)  # per bank row: matched this timestep
        for packet, sigmas in zip(packets, residuals):
            det_global, matches = self._associate(packet)
            # a zero residual gives the identity's diagonals
            obs_rows = covnet.residual_to_obs_noise_diag(sigmas)
            init_rows = covnet.residual_to_init_noise_diag(sigmas)
            dets = np.array([dj for _ti, dj, _iou in matches], dtype=np.intp)
            if matches:
                rows = np.array([ti for ti, _dj, _iou in matches], dtype=np.intp)
                obs = det_global[dets]
                self.bank = update(self.bank, obs,
                                   ObservationModel(OBSERVATION_MATRIX,
                                                    ad.getitem(obs_rows, dets)),
                                   rows)
                for ti, dj, _iou in matches:
                    life = self.tracks[ti]
                    confidence = packet.detections[dj].confidence
                    life.score = max(life.score, confidence) if matched[ti] else confidence
                    matched[ti] = True
            unmatched = np.ones(len(det_global), dtype=bool)
            unmatched[dets] = False
            born = np.flatnonzero(unmatched)
            if len(born):
                mean = np.concatenate([det_global[born],
                                       np.zeros((len(born), STATE_DIM - OBS_DIM))], axis=1)
                self.bank = self.bank.append(mean, ad.diag(ad.getitem(init_rows, born)))
                self.tracks.extend(Lifecycle(id=next(self.ids),
                                             score=packet.detections[dj].confidence)
                                   for dj in born.tolist())
                matched.extend([True] * len(born))

        alive = finish_timestep(self.tracks, matched, self.lifecycle)
        if len(alive) < len(self.tracks):
            self.bank = self.bank.take(alive)
            self.tracks = [self.tracks[i] for i in alive]
        boxes = self._box_vectors().tolist()
        shown = [i for i, life in enumerate(self.tracks) if reportable(life, self.lifecycle)]
        frame = ad.getitem(self.bank.mean, np.array(shown, dtype=np.intp))
        reported = [ReportedTrack(self.tracks[i].id, Box7(*boxes[i]), self.tracks[i].score,
                                  frame, row)
                    for row, i in enumerate(shown)]
        self.bank = predict(self.bank, self.process)
        for life in self.tracks:
            life.age += 1
        return reported

    def _associate(self, packet):
        """A round's association: (the packet's detections as global rows,
        `associate`'s matches of the live tracks to them)."""
        det_global = transform_rows(box_rows(d.box for d in packet.detections), packet.pose)
        return det_global, associate(build_cost_matrix(self._track_rows(), det_global),
                                     self.assoc_iou_threshold)

    def _box_vectors(self) -> np.ndarray:
        """The observed 7 state variables of every live track, as float64 rows."""
        return np.asarray(ad.val(self.bank.mean)[:, :OBS_DIM], dtype=float)

    def _track_rows(self) -> np.ndarray:
        """The live tracks' boxes as association rows: `_box_vectors` with the
        yaw wrapped as `Box7.from_vector` wraps it.

        Raises ValueError, as Box7 does, if an extent is not positive.
        """
        rows = np.array(self._box_vectors())
        valid = np.all(rows[:, 4:] > 0.0, axis=1)
        if not valid.all():
            l, w, h = rows[np.argmin(valid), 4:]
            raise ValueError(f"box extents must be positive, got l={l} w={w} h={h}")
        rows[:, 3] = wrap_angle(rows[:, 3])
        return rows


def packets_from_sim_frame(frame) -> list:
    """Adapt one simulator frame into per-vehicle packets."""
    return [FramePacket(timestep=frame.timestep, cav_id=cav_id,
                        pose=frame.poses[cav_id], detections=tuple(dets))
            for cav_id, dets in sorted(frame.detections.items())]


def frames_to_packets(frames, cav_filter=None):
    """Per-frame packet lists, keeping only the vehicles in `cav_filter`."""
    return [[p for p in packets_from_sim_frame(frame)
             if cav_filter is None or p.cav_id in cav_filter]
            for frame in frames]


def packets_comm_cost(frame_packets, reals_per_detection: int) -> metrics.CommCost:
    """Cost of sending every packet's detections to the host; one frame per packet list."""
    return metrics.comm_cost([{p.cav_id: len(p.detections) for p in packets}
                              for packets in frame_packets], reals_per_detection)


def tracker_from_settings(settings: cio.TrackerSettings, provider) -> CoopTracker:
    """The one place a tracker is built from configured settings."""
    return CoopTracker(cov_provider=provider,
                       q_velocity=settings.process_noise_velocity,
                       assoc_iou_threshold=settings.assoc_iou_threshold,
                       lifecycle=settings)


def tracker_from_config(cfg: cio.RunConfig, provider) -> CoopTracker:
    return tracker_from_settings(cfg.tracker, provider)


def run_sequence(frame_packets, tracker: CoopTracker):
    """Track a whole sequence; returns (per-frame reports, metrics.CommCost).

    The cost charges the tracker's covariance provider's payload size for
    every detection the host vehicle receives.
    """
    frame_packets = list(frame_packets)
    reports = []
    for index, packets in enumerate(frame_packets):
        try:
            reports.append(tracker.step(packets))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"frame {index}: {exc}") from exc
    return reports, packets_comm_cost(frame_packets, tracker.cov.reals_per_detection)


def run_tracking(cfg: cio.RunConfig, frames, checkpoint_path=None, cav_filter=None):
    """Track a loaded sequence; returns (per-frame reports, metrics.CommCost).

    A checkpoint whose network overflows on the sequence raises LogFormatError.
    """
    packets = frames_to_packets(frames, cav_filter)
    if not checkpoint_path:
        return run_sequence(packets, tracker_from_config(cfg, ConstantCovariance()))
    ckpt = cio.load_checkpoint(checkpoint_path, expect_config=cfg)
    provider = LearnedCovariance(ckpt.params_by_cav, bounds=cfg.normalization_bounds)
    with cio.checkpoint_overflow_rejected(checkpoint_path):
        return run_sequence(packets, tracker_from_config(cfg, provider))
