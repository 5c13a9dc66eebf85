"""Per-timestep fusion of all vehicles' detections into one track set.

Each timestep runs one association + Kalman-update round per vehicle, in
ascending vehicle id (ego first). Detections unmatched in a round birth new
tracks immediately, so later rounds in the same timestep can match them;
deferring births would let two vehicles seed duplicate tracks for the same
object. Lifecycle counting (hits, misses, kills) happens once per timestep,
after the final round, followed by the predict step for the next frame.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import itertools
import os
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


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity
        return os.cpu_count() or 1


@functools.cache
def _pass_pool(workers: int) -> concurrent.futures.ThreadPoolExecutor:
    """The worker threads of `map_passes`, built on first use."""
    return concurrent.futures.ThreadPoolExecutor(max_workers=workers,
                                                 thread_name_prefix="cooptrack-pass")


def map_passes(fn, items) -> list:
    """`[fn(item) for item in items]`, the calls running concurrently.

    Each call is one independent piece of a parameter set's work (a network
    pass, a section of the backward sweep, a gradient norm's squared sums,
    an Adam step), whose time goes mostly to numpy and BLAS calls that
    release the GIL. With more than one CPU (`_cpu_count`, the process's
    affinity) and more than one item, items 1.. go to a pool of CPUs - 1
    threads while the calling thread runs item 0; otherwise the calls run
    one after another. Each worker's call runs in a copy of the caller's
    context, so the caller's `np.errstate` holds in it. Returns once every
    call has finished; a failed call's exception is raised then, the first
    in item order. `fn` must not call `map_passes` itself: a worker would
    wait on the pool it occupies.

    Calls may record on one tape when their subgraphs are disjoint, as the
    passes of different parameter sets are: each node's consumers are then
    recorded by one thread, in that thread's order, so every gradient of
    the sweep keeps its bits (`autodiff.Tape`).
    """
    items = list(items)
    workers = _cpu_count() - 1
    if workers < 1 or len(items) < 2:
        return [fn(item) for item in items]
    pool = _pass_pool(workers)
    futures = [pool.submit(contextvars.copy_context().run, fn, item) for item in items[1:]]
    try:
        first = fn(items[0])
    finally:
        concurrent.futures.wait(futures)
    return [first] + [future.result() for future in futures]


# Detections a pass needs to gain from running beside others. Measured on
# 2 vCPUs over frames of 2 or 3 vehicles with n detections each: for n = 5
# to 7 the concurrent passes took 11-33 % longer than sequential ones, for
# n = 8 to 12 between 2 and 31 % less.
CONCURRENT_MIN_ROWS = 8


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

    def frame_residuals(self, packets) -> list:
        return [np.zeros((len(p.detections), covnet.RESIDUAL_DIM)) for p in packets]


class LearnedCovariance:
    """Covariance-network residuals, one parameter set per vehicle.

    `params_by_cav` maps cav_id to CovNetParams, whose arrays may be tape
    nodes (a training pass), or to a (name -> array/node mapping,
    CovNetConfig) pair, which is wrapped as CovNetParams here. Rows come
    from one network pass per parameter set over a frame
    (`frame_residuals`) or, after `precompute`, over a whole window, whose
    rows each frame then takes as slices. The network reads each
    detection's local box and its vehicle's pose
    (`features.encode_detection`).
    """

    reals_per_detection = metrics.SHARED_REALS

    def __init__(self, params_by_cav: dict, bounds=DEFAULT_BOUNDS):
        self.params_by_cav = {
            cav: entry if isinstance(entry, covnet.CovNetParams)
            else covnet.CovNetParams(entry[1], entry[0])
            for cav, entry in params_by_cav.items()}
        self.bounds = bounds
        self._window = None  # `_rows` of the precomputed window

    def _params(self, cav_id) -> covnet.CovNetParams:
        """A vehicle's network; KeyError for a vehicle that has none."""
        if cav_id not in self.params_by_cav:
            raise KeyError(f"no covariance network parameters for vehicle {cav_id}")
        return self.params_by_cav[cav_id]

    def _residuals(self, packets):
        """Residual rows of every detection of `packets`, from one network pass.

        The packets' vehicles must share one parameter set. Rows come packet
        after packet, each packet's in detection order.
        """
        params = self._params(packets[0].cav_id)
        sizes = [len(p.detections) for p in packets]
        f_pos = np.empty((sum(sizes), POSITIONAL_DIM, 2 * ENCODING_HALF_WIDTH))
        start = 0
        for packet, size in zip(packets, sizes):
            encode_detection(box_rows(d.box for d in packet.detections), packet.pose,
                             self.bounds, out=f_pos[start:start + size])
            start += size
        f_app = None
        if params.config.use_appearance:
            apps = [d.appearance for p in packets for d in p.detections]
            if any(a is None for a in apps):
                raise ValueError("detection has no appearance tensor but the "
                                 "appearance branch is enabled")
            f_app = np.stack(apps)
        return covnet.forward(params, f_app, f_pos)

    def _rows(self, packets) -> dict:
        """Residual rows of the non-empty `packets`, one pass per parameter set.

        Vehicles share a set when their entries hold one arrays mapping.
        Every packet's vehicle is looked up before any pass runs, so one
        without parameters raises KeyError. The sets' passes run
        concurrently (`map_passes`) when each holds at least
        CONCURRENT_MIN_ROWS detections: on a tape they record disjoint
        subgraphs, so the gradients keep the bits of passes made one after
        another. Returns {(timestep, cav_id): (rows, start, stop)}, the
        packet's rows being `rows[start:stop]`.
        """
        groups = {}
        for packet in packets:
            if packet.detections:
                arrays = self._params(packet.cav_id).arrays
                groups.setdefault(id(arrays), []).append(packet)
        groups = list(groups.values())
        if all(sum(len(p.detections) for p in g) >= CONCURRENT_MIN_ROWS for g in groups):
            passes = map_passes(self._residuals, groups)
        else:
            passes = [self._residuals(group) for group in groups]
        slices = {}
        for group, rows in zip(groups, passes):
            start = 0
            for packet in group:
                stop = start + len(packet.detections)
                slices[(packet.timestep, packet.cav_id)] = (rows, start, stop)
                start = stop
        return slices

    def precompute(self, frame_packets):
        """Compute a window's residual rows before its frames are tracked.

        `frame_packets` lists the packets of each frame of the window. The
        network's input depends only on the detections and the poses, so
        each parameter set (each vehicle's, or the one shared set) takes
        every row of the window in one pass (`_rows`); a vehicle without
        detections takes none. From then on `frame_residuals` hands out
        slices of those rows.
        """
        self._window = self._rows(p for packets in frame_packets for p in packets)

    def frame_residuals(self, packets) -> list:
        """Residual rows of each of one frame's packets: (N, 10) for N detections.

        Row j of a packet's rows belongs to its detection j. An empty packet
        gets no rows and needs no parameters. The rows are slices of the
        precomputed window, or else of `_rows` of this frame: one pass per
        parameter set, which for a vehicle with its own set is one pass over
        its packet. After `precompute`, a packet the window does not hold
        raises ValueError.
        """
        slices = self._rows(packets) if self._window is None else self._window
        out = []
        for packet in packets:
            if not packet.detections:
                out.append(np.zeros((0, covnet.RESIDUAL_DIM)))
                continue
            entry = slices.get((packet.timestep, packet.cav_id))
            if entry is None or entry[2] - entry[1] != len(packet.detections):
                raise ValueError(f"the precomputed window holds no packet of vehicle "
                                 f"{packet.cav_id} at t={packet.timestep} with "
                                 f"{len(packet.detections)} detections")
            rows, start, stop = entry
            out.append(rows[start:stop])
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
        and is counted in `skipped_updates`. Every packet's residual rows
        come from the provider before the first round (`frame_residuals`),
        so a pass that fails leaves the tracker as it was.

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

        residuals = self.cov.frame_residuals(packets)
        matched = [False] * len(self.tracks)  # per bank row: matched this timestep
        for packet, sigmas in zip(packets, residuals):
            det_global = transform_rows(box_rows(d.box for d in packet.detections),
                                        packet.pose)
            # a zero residual gives the identity's diagonals
            obs_rows = covnet.residual_to_obs_noise_diag(sigmas)
            init_rows = covnet.residual_to_init_noise_diag(sigmas)
            matches = associate(build_cost_matrix(self._track_rows(), det_global),
                                self.assoc_iou_threshold)
            dets = np.array([dj for _ti, dj, _iou in matches], dtype=np.intp)
            if matches:
                rows = np.array([ti for ti, _dj, _iou in matches], dtype=np.intp)
                obs = det_global[dets]
                self.bank = update(self.bank, obs,
                                   ObservationModel(observation_matrix(),
                                                    ad.getitem(obs_rows, dets)),
                                   rows)
                for ti, dj in zip(rows, dets):
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
                                   for dj in born)
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
