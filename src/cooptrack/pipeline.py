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
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import covnet, metrics
from . import io as cio
from .association import (Lifecycle, LifecycleConfig, associate, build_cost_matrix,
                          finish_timestep, reportable)
# encode_detection is not called here, but the benchmark's tracer test looks it up here
from .features import (DEFAULT_BOUNDS, chebyshev_rows, encode_detection,  # noqa: F401
                       normalize, pose_columns, positional_columns)
from .filter import (OBS_DIM, OBSERVATION_MATRIX, STATE_DIM, ObservationModel, ProcessModel,
                     TrackBank, predict, update)
from .geometry import Box7, PoseYawT, box_rows, transform_rows, wrap_angle


@dataclass(frozen=True)
class FramePacket:
    """One vehicle's detections for one timestep, in its local frame.

    `local_rows` and `global_rows` are the detections' boxes as (N, 7)
    float rows, in the vehicle's frame (`box_rows`) and carried through
    `pose` (`transform_rows`). Both are built when the packet is made and
    kept, read-only, so the provider's features, association and births all
    read one conversion of each detection.
    """

    timestep: int
    cav_id: int
    pose: PoseYawT
    detections: tuple  # objects with .box (Box7), .confidence, .appearance
    local_rows: np.ndarray = field(init=False, repr=False, compare=False)
    global_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        local = box_rows(d.box for d in self.detections)
        moved = transform_rows(local, self.pose)
        for name, rows in (("local_rows", local), ("global_rows", moved)):
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)


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
    """Identity observation noise and identity initial covariance."""

    reals_per_detection = metrics.BOX_REALS

    def noise_rows(self, packets):
        """Each packet's (N, 10) noise rows, all ones."""
        return [np.ones((len(p.detections), STATE_DIM)) for p in packets]


class LearnedCovariance:
    """Covariance-network noise rows, one parameter set per vehicle.

    `params_by_cav` maps cav_id to CovNetParams, whose arrays may be tape
    nodes (a training pass), or to a (name -> array/node mapping,
    CovNetConfig) pair, which is wrapped as CovNetParams here. Vehicles
    share a set as `io.set_owners` says, by holding one arrays mapping. A
    provider keeps no state besides its sets and their owners: `noise_rows`
    makes one network pass per parameter set, reading its arrays as they are
    then, over whatever packets it is given, a frame's when tracking, a
    whole window's in training. The network reads each detection's local
    box and its vehicle's pose (`features`). Every pass runs on the calling
    thread.
    """

    reals_per_detection = metrics.SHARED_REALS

    def __init__(self, params_by_cav: dict, bounds=DEFAULT_BOUNDS):
        params = {cav: entry if isinstance(entry, covnet.CovNetParams)
                  else covnet.CovNetParams(entry[1], entry[0])
                  for cav, entry in params_by_cav.items()}
        self.owners = cio.set_owners(params)
        self.params_by_cav = {cav: params[owner] for cav, owner in self.owners.items()}
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

    def noise_rows(self, packets):
        """Each packet's (N, 10) noise rows, in packet order; row j of a
        packet's rows belongs to its detection j.

        One network pass per parameter set covers that set's non-empty
        `packets`, be they one frame's or a whole window's; its residual
        rows are mapped to noise rows once (`covnet.residual_to_noise_diag`),
        and each packet takes its slice of them. An empty packet gets (0, 10)
        rows and needs no parameters. Every input is checked before any pass
        runs: every vehicle is looked up (KeyError for one without
        parameters), then every set's appearance tensors are stacked
        (ValueError for a missing one or a wrong shape). The features of
        all of `packets` are built once per call: their box rows
        (`FramePacket.local_rows`, `global_rows`) with each packet's pose
        columns make one array of positional rows, which is normalized and
        read as Chebyshev rows (`features.chebyshev_rows`) in one go, every
        entry as `features.normalize` of `features.extract_positional` gives
        it packet by packet. Each pass reads its set's slice of them.
        """
        packets = list(packets)
        out = [None if p.detections else np.ones((0, STATE_DIM)) for p in packets]
        groups = {}  # owner -> its [(index, packet)]
        for i, packet in enumerate(packets):
            if packet.detections:
                if packet.cav_id not in self.owners:
                    raise KeyError(f"no covariance network parameters for vehicle {packet.cav_id}")
                groups.setdefault(self.owners[packet.cav_id], []).append((i, packet))
        groups = [(self.params_by_cav[owner], group) for owner, group in groups.items()]
        f_app = [self._appearance([p for _i, p in group], params.config)
                 for params, group in groups]
        if not groups:
            return out  # every packet is empty
        live = [p for _params, group in groups for _i, p in group]  # set by set
        f_pos = chebyshev_rows(normalize(positional_columns(
            np.concatenate([p.local_rows for p in live]),
            np.concatenate([p.global_rows for p in live]),
            np.repeat([pose_columns(p.pose) for p in live],
                      [len(p.detections) for p in live], axis=0)), self.bounds))
        offset = 0
        for (params, group), app in zip(groups, f_app):
            size = sum(len(p.detections) for _i, p in group)
            rows = covnet.residual_to_noise_diag(covnet.forward(
                params, app, f_pos[offset:offset + size]))
            offset += size
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

        The provider computes every packet's noise rows first
        (`noise_rows`, which checks every input), before the first round,
        so a pass that fails leaves the tracker as it was. A matched
        detection's row gives its observation noise (entries 0..6), a
        born track's its initial covariance diagonal (all 10).

        Association works on float rows: each packet's detections enter
        their round as its global rows (`FramePacket.global_rows`), built
        when the packet was made and also read by a learned provider's
        features, so no detection is converted during a step, and the live
        tracks enter as the bank's rows (`_track_rows`). Matched
        observations and births gather from those rows. Box7s are built only
        for the reported tracks.
        """
        packets = sorted(packets, key=lambda p: p.cav_id)
        if len({p.timestep for p in packets}) > 1:
            raise ValueError("packets span multiple timesteps")
        if len({p.cav_id for p in packets}) != len(packets):
            raise ValueError("duplicate cav_id in packets")

        frame_noise = self.cov.noise_rows(packets)
        matched = [False] * len(self.tracks)  # per bank row: matched this timestep
        for packet, noise in zip(packets, frame_noise):
            det_global = packet.global_rows
            matches = associate(build_cost_matrix(self._track_rows(), det_global),
                                self.assoc_iou_threshold)
            dets = np.array([dj for _ti, dj, _iou in matches], dtype=np.intp)
            if matches:
                rows = np.array([ti for ti, _dj, _iou in matches], dtype=np.intp)
                obs = det_global[dets]
                self.bank = update(self.bank, obs,
                                   ObservationModel(OBSERVATION_MATRIX,
                                                    ad.getitem(noise, (dets, slice(OBS_DIM)))),
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
                self.bank = self.bank.append(mean, ad.diag(ad.getitem(noise, born)))
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


def packets_from_sim_frame(frame, cav_filter=None) -> list:
    """Adapt one simulator frame into per-vehicle packets, only for the
    vehicles in `cav_filter` when one is given."""
    return [FramePacket(timestep=frame.timestep, cav_id=cav_id,
                        pose=frame.poses[cav_id], detections=tuple(dets))
            for cav_id, dets in sorted(frame.detections.items())
            if cav_filter is None or cav_id in cav_filter]


def frames_to_packets(frames, cav_filter=None):
    """Per-frame packet lists, keeping only the vehicles in `cav_filter`."""
    return [packets_from_sim_frame(frame, cav_filter) for frame in frames]


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
    return reports, metrics.comm_cost([{p.cav_id: len(p.detections) for p in packets}
                                       for packets in frame_packets],
                                      tracker.cov.reals_per_detection)


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
