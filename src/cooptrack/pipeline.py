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
from .features import (DEFAULT_BOUNDS, ENCODING_HALF_WIDTH, POSITIONAL_DIM,
                       encode_detection)
from .filter import (OBS_DIM, STATE_DIM, ObservationModel, ProcessModel, TrackBank,
                     observation_matrix, predict, update)
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
    track_id: int
    box: Box7          # global frame, value level
    score: float
    mean: object       # 10-vector, tape node during training


class ConstantCovariance:
    """Zero residuals: identity observation noise and identity initial covariance."""

    reals_per_detection = metrics.BOX_REALS

    def packet_residuals(self, packet, det_global):
        return np.zeros((len(packet.detections), covnet.RESIDUAL_DIM))


class LearnedCovariance:
    """Covariance-network residuals, one parameter set per vehicle.

    `params_by_cav` maps cav_id to either CovNetParams (plain inference) or
    a (lifted mapping, CovNetConfig) pair produced for a training tape.
    Packets are served one network pass each, or, after `precompute`, as
    slices of one pass per parameter set over a whole window.
    """

    reals_per_detection = metrics.SHARED_REALS

    def __init__(self, params_by_cav: dict, bounds=DEFAULT_BOUNDS):
        self.params_by_cav = params_by_cav
        self.bounds = bounds
        self._window = None  # (timestep, cav_id) -> (rows, start, stop)

    def _params(self, cav_id):
        """(parameters, config) of a vehicle's network."""
        if cav_id not in self.params_by_cav:
            raise KeyError(f"no covariance network parameters for vehicle {cav_id}")
        entry = self.params_by_cav[cav_id]
        if isinstance(entry, covnet.CovNetParams):
            return entry, entry.config
        return entry

    def residuals(self, packets, det_globals):
        """Residual rows of every detection of `packets`, from one network pass.

        The packets' vehicles must share one parameter set. `det_globals`
        holds each packet's boxes in the global frame as (N, 7) rows. Rows
        come packet after packet, each packet's in detection order.
        """
        params, config = self._params(packets[0].cav_id)
        sizes = [len(p.detections) for p in packets]
        f_pos = np.empty((sum(sizes), POSITIONAL_DIM, 2 * ENCODING_HALF_WIDTH))
        start = 0
        for packet, det_global, size in zip(packets, det_globals, sizes):
            encode_detection(det_global, box_rows(d.box for d in packet.detections),
                             packet.pose, self.bounds, out=f_pos[start:start + size])
            start += size
        f_app = None
        if config.use_appearance:
            apps = [d.appearance for p in packets for d in p.detections]
            if any(a is None for a in apps):
                raise ValueError("detection has no appearance tensor but the "
                                 "appearance branch is enabled")
            f_app = np.stack(apps)
        return covnet.forward(params, f_app, f_pos, config)

    def precompute(self, frame_packets):
        """Compute a window's residual rows before its frames are tracked.

        `frame_packets` lists the packets of each frame of the window. The
        network's input depends only on the detections and the poses, so
        each parameter set (each vehicle's, or the one shared set) takes
        every row of the window in one pass; a vehicle without detections
        takes none. From then on `packet_residuals` hands out slices of
        those rows, and raises ValueError for a packet not in the window.
        """
        groups = {}
        for packets in frame_packets:
            for packet in packets:
                if packet.detections:
                    params, _ = self._params(packet.cav_id)
                    groups.setdefault(id(params), []).append(packet)
        window = {}
        for group in groups.values():
            det_globals = [transform_rows(box_rows(d.box for d in p.detections), p.pose)
                           for p in group]
            rows = self.residuals(group, det_globals)
            start = 0
            for packet in group:
                stop = start + len(packet.detections)
                window[(packet.timestep, packet.cav_id)] = (rows, start, stop)
                start = stop
        self._window = window

    def packet_residuals(self, packet, det_global):
        """Residual rows (N, 10) for a packet's N detections.

        Row j belongs to detection j; `det_global` holds the detections'
        boxes in the global frame as (N, 7) rows. Without a precomputed
        window this is one network pass over the packet.
        """
        if self._window is None:
            return self.residuals([packet], [det_global])
        entry = self._window.get((packet.timestep, packet.cav_id))
        if entry is None or entry[2] - entry[1] != len(packet.detections):
            raise ValueError(f"the precomputed window holds no packet of vehicle "
                             f"{packet.cav_id} at t={packet.timestep} with "
                             f"{len(packet.detections)} detections")
        rows, start, stop = entry
        return rows[start:stop]


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

    def _noise_rows(self, packet, det_global):
        """Observation-noise and initial-variance diagonals, one row per detection.

        Both come from the provider's residual rows, one provider call per
        non-empty packet; a zero residual gives the identity's diagonal.
        """
        sigmas = (self.cov.packet_residuals(packet, det_global) if packet.detections
                  else np.zeros((0, covnet.RESIDUAL_DIM)))
        return (covnet.residual_to_obs_noise_diag(sigmas),
                covnet.residual_to_init_noise_diag(sigmas))

    def step(self, packets) -> list:
        """Run one timestep; returns the reported tracks (post-update).

        Packets must share one timestep and have distinct vehicle ids; they
        are processed in ascending cav_id regardless of input order. Each
        round with matches is one bank update; a matched track whose update
        is degenerate keeps its predicted state, still counts as matched,
        and is counted in `skipped_updates`.

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

        matched_ids = set()
        for packet in packets:
            det_global = transform_rows(box_rows(d.box for d in packet.detections),
                                        packet.pose)
            obs_rows, init_rows = self._noise_rows(packet, det_global)
            assignment = associate(build_cost_matrix(self._track_rows(), det_global),
                                   self.assoc_iou_threshold)
            if assignment.matches:
                rows = np.array([ti for ti, _dj, _iou in assignment.matches], dtype=np.intp)
                dets = np.array([dj for _ti, dj, _iou in assignment.matches], dtype=np.intp)
                obs = det_global[dets]
                self.bank = update(self.bank, obs,
                                   ObservationModel(observation_matrix(),
                                                    ad.getitem(obs_rows, dets)),
                                   rows)
                for ti, dj in zip(rows, dets):
                    life = self.tracks[ti]
                    confidence = packet.detections[dj].confidence
                    if life.id in matched_ids:
                        life.score = max(life.score, confidence)
                    else:
                        life.score = confidence
                    matched_ids.add(life.id)
            if assignment.unmatched_detections:
                born = np.array(assignment.unmatched_detections, dtype=np.intp)
                mean = np.concatenate([det_global[born],
                                       np.zeros((len(born), STATE_DIM - OBS_DIM))], axis=1)
                self.bank = self.bank.append(mean, ad.diag(ad.getitem(init_rows, born)))
                for dj in born:
                    life = Lifecycle(id=next(self.ids), score=packet.detections[dj].confidence)
                    matched_ids.add(life.id)
                    self.tracks.append(life)

        flags = [life.id in matched_ids for life in self.tracks]
        survivors, killed = finish_timestep(self.tracks, flags, self.lifecycle)
        if killed:
            self.bank = self.bank.take([i for i, life in enumerate(self.tracks)
                                        if life.id not in killed])
            self.tracks = survivors
        boxes = self._box_vectors().tolist()
        reported = [ReportedTrack(life.id, Box7(*boxes[i]), life.score,
                                  ad.getitem(self.bank.mean, i))
                    for i, life in enumerate(self.tracks)
                    if reportable(life, self.lifecycle)]
        self.bank = predict(self.bank, self.process)
        for life in self.tracks:
            life.age += 1
        return reported

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
