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
import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import covnet, metrics
from . import io as cio
from .association import (Lifecycle, LifecycleConfig, associate, build_cost_matrix,
                          finish_timestep, reportable)
# encode_detection is not called here, but the benchmark's tracer test looks it up here
from .features import (DEFAULT_BOUNDS, ENCODING_HALF_WIDTH, POSITIONAL_DIM,  # noqa: F401
                       encode_detection, fill_encoding, positional_rows)
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
    """The worker threads of `start_passes`, built on first use."""
    return concurrent.futures.ThreadPoolExecutor(max_workers=workers,
                                                 thread_name_prefix="cooptrack-pass")


def start_passes(fn, items):
    """Start `[fn(item) for item in items]`, the calls running concurrently;
    returns `join`, which returns their results.

    Each call is one independent piece of a parameter set's work (the bulk
    kernels of a network pass, a section of the backward sweep, a gradient
    norm's squared sums, a block of an Adam step), whose time goes mostly
    to numpy and BLAS calls that release the GIL. With more than one CPU
    (`_cpu_count`, the process's affinity) and more than one item, up to
    CPUs - 1 pool threads start at once, each taking the next item not yet
    started, in item order, until none is left; `join()` makes the calling
    thread take items the same way, waits until every call has finished
    and returns the results in item order. A failed call's exception is
    raised then, the first in item order; a later `join()` returns the same
    results or raises the same error. With one CPU or one item, the first
    `join` runs every call in the calling thread, one after another. Every
    call runs in a copy of the caller's context at the start, so the
    caller's `np.errstate` holds in it.

    A call may wait for an earlier item's call, which has started by then.
    `fn` must not start passes itself: a worker would wait on the pool it
    occupies.

    The calls fill arrays, multiply or sweep; they record no tape node.
    The calling thread records every node, in the same order with any
    number of CPUs, so the tape and every gradient of its sweep keep their
    bits (`autodiff.Tape`).
    """
    items = list(items)
    cpus = _cpu_count()
    context = contextvars.copy_context()
    results, errors = [None] * len(items), [None] * len(items)
    claim, taken = threading.Lock(), itertools.count()

    def drain():
        while True:
            with claim:
                index = next(taken)
            if index >= len(items):
                return
            try:
                results[index] = context.copy().run(fn, items[index])
            except Exception as exc:  # raised by join, in item order
                errors[index] = exc

    workers = min(cpus, len(items)) - 1
    futures = [_pass_pool(cpus - 1).submit(drain) for _ in range(workers)]

    def join() -> list:
        try:
            drain()
        finally:
            concurrent.futures.wait(futures)
        for future in futures:
            future.result()
        for error in errors:
            if error is not None:
                raise error
        return results

    return join


def map_passes(fn, items) -> list:
    """`[fn(item) for item in items]`, the calls running concurrently: the
    results of `start_passes(fn, items)`, joined at once."""
    return start_passes(fn, items)()


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

    def start_residuals(self, packets):
        """A function returning each packet's (N, 10) residual rows, all zero."""
        rows = [np.zeros((len(p.detections), covnet.RESIDUAL_DIM)) for p in packets]
        return lambda: rows


class LearnedCovariance:
    """Covariance-network residuals, one parameter set per vehicle.

    `params_by_cav` maps cav_id to CovNetParams, whose arrays may be tape
    nodes (a training pass), or to a (name -> array/node mapping,
    CovNetConfig) pair, which is wrapped as CovNetParams here. Rows come
    from one network pass per parameter set over a frame
    (`start_residuals`) or, after `precompute`, over a whole window, whose
    rows each frame then takes as slices. The network reads each
    detection's local box and its vehicle's pose (`features`).

    Only a pass's two GIL-free bulk kernels go to the pool: the fill of its
    (N, 18, 256) encoding (`features.fill_encoding`) and the first product
    of its positional branch (`covnet.first_product`). The calling thread
    does everything else: each set's inputs, its appearance branch and the
    rest of its pass (`covnet.forward`), and, in a tracker's step, the
    first association round.
    """

    reals_per_detection = metrics.SHARED_REALS

    def __init__(self, params_by_cav: dict, bounds=DEFAULT_BOUNDS):
        self.params_by_cav = {
            cav: entry if isinstance(entry, covnet.CovNetParams)
            else covnet.CovNetParams(entry[1], entry[0])
            for cav, entry in params_by_cav.items()}
        self.bounds = bounds
        self._window = None  # the rows of the precomputed window (`_start_rows`)

    def _params(self, cav_id) -> covnet.CovNetParams:
        """A vehicle's network; KeyError for a vehicle that has none."""
        if cav_id not in self.params_by_cav:
            raise KeyError(f"no covariance network parameters for vehicle {cav_id}")
        return self.params_by_cav[cav_id]

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

    def _start_rows(self, packets):
        """Start the residual rows of the non-empty `packets`, one pass per
        parameter set; returns `collect`, which finishes the passes and
        returns {(timestep, cav_id): (rows, start, stop)}, the packet's
        rows being `rows[start:stop]`.

        Vehicles share a set when their entries hold one arrays mapping.
        Every input is checked before any kernel starts, so a bad one
        raises here with nothing begun: every vehicle is looked up
        (KeyError for one without parameters), then every set's appearance
        tensors are stacked (ValueError for a missing one or a wrong
        shape). Each set's normalized positional rows are built
        (`features.positional_rows`), and then the bulk kernels start
        (`start_passes`): every set's encoding fill, then every set's first
        product, each product waiting for its set's fill.

        `collect` runs every set's appearance branch while the kernels
        run, then takes any kernel still left (the `join`), then finishes
        each set's pass through `covnet.forward`. The passes record their
        tape nodes in this thread, in the same order with any number of
        CPUs, and the sets' subgraphs are disjoint, so every gradient keeps
        the bits of passes made one after another.
        """
        groups = {}
        for packet in packets:
            if packet.detections:
                arrays = self._params(packet.cav_id).arrays
                groups.setdefault(id(arrays), []).append(packet)
        groups = list(groups.values())
        params = [self._params(group[0].cav_id) for group in groups]
        f_app = [self._appearance(group, p.config) for group, p in zip(groups, params)]
        normalized = []
        for group in groups:
            xb = [positional_rows(box_rows(d.box for d in p.detections), p.pose, self.bounds)
                  for p in group]
            normalized.append(xb[0] if len(xb) == 1 else np.concatenate(xb))
        sizes = [[len(p.detections) for p in group] for group in groups]
        f_pos = [np.empty((sum(s), POSITIONAL_DIM, 2 * ENCODING_HALF_WIDTH)) for s in sizes]
        encoded = [_Handoff() for _ in groups]

        def fill(k):
            try:
                encoded[k].put(fill_encoding(normalized[k], f_pos[k], sizes[k]))
            except BaseException as exc:  # never leave a product waiting
                encoded[k].fail(exc)
                raise

        def product(k):
            return covnet.first_product(params[k], encoded[k].get())

        jobs = ([functools.partial(fill, k) for k in range(len(groups))]
                + [functools.partial(product, k) for k in range(len(groups))])
        join = start_passes(_call, jobs)

        def collect() -> dict:
            try:
                apps = [None if f_app[k] is None else covnet.appearance_branch(params[k],
                                                                               f_app[k])
                        for k in range(len(groups))]
            finally:
                products = join()[len(groups):]
            passes = [covnet.forward(params[k], f_app[k], f_pos[k], first=products[k],
                                     app=apps[k])
                      for k in range(len(groups))]
            slices = {}
            for group, rows in zip(groups, passes):
                start = 0
                for packet in group:
                    stop = start + len(packet.detections)
                    slices[(packet.timestep, packet.cav_id)] = (rows, start, stop)
                    start = stop
            return slices

        return collect

    def precompute(self, frame_packets):
        """Compute a window's residual rows before its frames are tracked.

        `frame_packets` lists the packets of each frame of the window. The
        network's input depends only on the detections and the poses, so
        each parameter set (each vehicle's, or the one shared set) takes
        every row of the window in one pass (`_start_rows`); a vehicle
        without detections takes none. From then on `start_residuals` hands
        out slices of those rows.
        """
        self._window = self._start_rows(p for packets in frame_packets for p in packets)()

    def start_residuals(self, packets):
        """Start the residual rows of one frame's packets; returns a function
        that waits for them and returns them, (N, 10) for each packet of N
        detections.

        Row j of a packet's rows belongs to its detection j. An empty packet
        gets no rows and needs no parameters. The rows are slices of the
        precomputed window, or else of this frame's passes (`_start_rows`):
        one pass per parameter set, which for a vehicle with its own set is
        one pass over its packet. Every input is checked before this
        returns; after `precompute`, a packet the window does not hold
        raises ValueError.
        """
        if self._window is None:
            collect = self._start_rows(packets)
            return lambda: _packet_rows(packets, collect())
        rows = _packet_rows(packets, self._window)
        return lambda: rows


def _packet_rows(packets, slices) -> list:
    """Each packet's rows, taken from `slices` (`LearnedCovariance._start_rows`)."""
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


def _call(job):
    return job()


class _Handoff:
    """One value passed to the threads that wait for it: `put` or `fail`
    once, and each `get` waits until then and returns the value or raises
    the error. A `concurrent.futures.Future` without callbacks or
    cancellation, at a tenth of its cost: one lock, held until then."""

    __slots__ = ("_held", "_value", "_error")

    def __init__(self):
        self._held = threading.Lock()
        self._held.acquire()
        self._value = self._error = None

    def put(self, value):
        self._value = value
        self._held.release()

    def fail(self, error: BaseException):
        self._error = error
        self._held.release()

    def get(self):
        with self._held:
            pass
        if self._error is not None:
            raise self._error
        return self._value


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

        The provider starts every packet's residual rows first
        (`start_residuals`, which checks every input), and the first
        round's association runs while its passes do: it reads no residual
        and changes nothing. The rows are then collected before the first
        update, so a pass that fails leaves the tracker as it was; a failed
        pass's error takes precedence over one of that association.

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

        collect = self.cov.start_residuals(packets)
        try:
            first = self._associate(packets[0]) if packets else None
        finally:
            residuals = collect()
        matched = [False] * len(self.tracks)  # per bank row: matched this timestep
        for k, (packet, sigmas) in enumerate(zip(packets, residuals)):
            det_global, matches = first if k == 0 else self._associate(packet)
            # a zero residual gives the identity's diagonals
            obs_rows = covnet.residual_to_obs_noise_diag(sigmas)
            init_rows = covnet.residual_to_init_noise_diag(sigmas)
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
