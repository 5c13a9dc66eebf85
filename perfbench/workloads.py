"""Workloads of the cooptrack benchmark.

Every workload runs the cycle that `cooptrack simulate`, `train`, `track`
and `eval` run in turn, as a pass of rounds and training epochs. Each
round and epoch first sets up a scene of its own: it generates the scene
and carries it through the on-disk formats. So no input is processed
twice in one process. In each round, constant and learned covariance each
track a held-out scene with a fresh tracker, and `metrics.evaluate`
scores both. Each epoch trains on its own scene, from the weights the
previous epoch left. Everything is a closed loop in one thread: a frame, window or
evaluation starts only when the previous one has finished.

Every timing is calibrated (see `Calibrated`): on a shared machine, other
tenants slow this process by up to two times for stretches of seconds to
minutes, and a run's share of such stretches varies from none to all.

The workloads differ in the scene, and so in which layers dominate:

- `v2v`: the `v2v_mini` preset (12 objects, 2 vehicles). Eight 20-frame
  training scenes (2 windows each), ten 50-frame held-out scenes.
- `dense`: a 40-object, 3-vehicle scene built from `sim`'s public
  constructors. Cost matrices are several times larger and each packet
  carries several times the detections. Four 10-frame training scenes
  (1 window each), eight 25-frame held-out scenes.

Only the package's public API is called: `sim`, `training.train`,
`training.init_params_for_run`, `pipeline.CoopTracker.step`,
`pipeline.packets_from_sim_frame`, `metrics.evaluate`, and the `cli`
functions through which `simulate` and `track` write, read and track
scenes. Functions are looked up on their modules at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from cooptrack import cli, io, metrics, pipeline, sim, training

# BENCHMARK.json's run_seconds: each workload's rounds and epochs fill about
# this many seconds of measurement at the commit that defined the benchmark
REFERENCE_SECONDS = 40
# The probe's time on a quiet core of a 2-vCPU KVM guest (Xeon, Sapphire
# Rapids); every timing is reported at that speed of the machine
PROBE_QUIET_S = 0.0007
PROBE_LOOPS = 3000
PROBE_SOLVES = 30
PROBE_MATRIX = np.random.default_rng(0).random((16, 16)) + 16.0 * np.eye(16)
MODES = ("const", "learned")
SCENE_FILES = (cli.GT_FILE, cli.DETECTIONS_FILE, cli.TENSORS_FILE)
MAX_MESSAGES = 20


# --- calibrated timing ---------------------------------------------------------


def probe_s() -> float:
    """Seconds for a fixed mix of interpreter loop and small numpy calls, as in a frame."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    for _ in range(PROBE_SOLVES):
        np.linalg.inv(PROBE_MATRIX)
    return time.perf_counter() - start


class Calibrated:
    """Converts measured seconds to seconds at the quiet speed of the machine.

    The probe runs before and after each timed piece of work, and the
    work's seconds are scaled by PROBE_QUIET_S over the mean of the two
    probe times. The probe after one piece of work is the probe before the
    next. Slowed stretches then no longer move a run's figures, while a
    change to the package's own speed does: the probe is benchmark code.
    """

    def __init__(self, probes: list):
        self.probes = probes    # every probe time, for the run record
        self.last = self._probe()

    def _probe(self) -> float:
        self.probes.append(probe_s())
        return self.probes[-1]

    def __call__(self, seconds: float) -> float:
        before, self.last = self.last, self._probe()
        return seconds * PROBE_QUIET_S / ((before + self.last) / 2)


# --- scenes ---------------------------------------------------------------------


def derived_seed(seed: int, k: int) -> int:
    """Seed of the k-th scene derived from the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


DENSE_LANES = 8
DENSE_PER_LANE = 5
DENSE_EXTENTS = ((4.5, 1.9, 1.6), (4.2, 1.8, 1.5), (5.0, 2.0, 1.8), (4.8, 1.9, 1.7))
DENSE_BASE_STD = (0.22, 0.22, 0.05, 0.035, 0.10, 0.06, 0.06)
DENSE_MAX_RANGE = 170.0


def dense_scenario(seed: int, frames: int) -> sim.Scenario:
    """40 objects in 8 lanes around 3 vehicles; layout drawn from `seed`.

    Lanes are 4 m apart and each lane moves at its own speed, so no two
    boxes ever overlap. Objects drift at most 1.5 m/s against the vehicles
    (8 m/s), which keeps every object within every sensor's range for up to
    200 frames.
    """
    rng = np.random.default_rng(seed)
    objects = []
    for lane in range(DENSE_LANES):
        y = -14.0 + 4.0 * lane
        speed = 8.0 + rng.uniform(-1.5, 1.5)
        x = rng.uniform(-40.0, -25.0)
        for _ in range(DENSE_PER_LANE):
            extents = DENSE_EXTENTS[int(rng.integers(len(DENSE_EXTENTS)))]
            objects.append(sim.constant_turn_trajectory(
                (x, y), 0.0, 0.0, speed, 0.0, extents, frames))
            x += rng.uniform(18.0, 26.0)

    def sensor(miss, occlusion, fp, degrade, multiplier):
        return sim.SensorModel(base_std=DENSE_BASE_STD, dist_coeff=0.004,
                               max_range=DENSE_MAX_RANGE, base_miss_prob=miss,
                               occlusion_extra_prob=occlusion, fp_rate=fp,
                               degrade_prob=degrade, degrade_multiplier=multiplier)

    # the vehicles drive between lanes: ego, one 45 m behind, one 40 m ahead
    cavs = (
        sim.CavSpec(sim.straight_pose_track((0.0, 0.0), 0.0, 8.0, frames),
                    sensor(0.12, 0.30, 0.30, 0.30, 4.0)),
        sim.CavSpec(sim.straight_pose_track((-45.0, 4.0), 0.0, 8.0, frames),
                    sensor(0.18, 0.35, 0.40, 0.55, 5.0)),
        sim.CavSpec(sim.straight_pose_track((40.0, -4.0), 0.0, 8.0, frames),
                    sensor(0.15, 0.30, 0.35, 0.40, 4.5)),
    )
    return sim.Scenario(duration=frames, objects=tuple(objects), cavs=cavs, seed=seed)


def v2v_scenario(seed: int, frames: int) -> sim.Scenario:
    return sim.preset_v2v_mini(seed=seed, duration=frames)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: object        # (seed, frames) -> sim.Scenario
    num_cavs: int
    train_frames: int       # length of each training scene; 10-frame windows
    track_frames: int       # length of each held-out scene
    rounds: int             # held-out scenes, each tracked in both modes and scored
    epochs: int             # training scenes, one epoch each, between rounds


WORKLOADS = {
    "v2v": Workload("v2v", v2v_scenario, num_cavs=2, train_frames=20, track_frames=50,
                    rounds=10, epochs=8),
    "dense": Workload("dense", dense_scenario, num_cavs=3, train_frames=10,
                      track_frames=25, rounds=8, epochs=4),
}


def sized(workload: Workload, seconds: float) -> Workload:
    """The workload with rounds and epochs scaled from REFERENCE_SECONDS to `seconds`.

    The amount of work depends on `seconds` alone, never on how fast the
    code runs, so every commit measures the same work.
    """
    scale = seconds / REFERENCE_SECONDS
    return dataclasses.replace(workload, rounds=max(1, round(workload.rounds * scale)),
                               epochs=max(1, round(workload.epochs * scale)))


# --- the pass -------------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed; an operation is a frame, window or evaluate call."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def fail(self, count: int, message: str = None):
        self.failed += count
        if message is not None and len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)


@dataclass
class PassResult:
    """Timings and outputs of a pass, in the order they were produced."""

    config: object                                # io.RunConfig
    setup_s_per_frame: list = field(default_factory=list)   # per scene
    frames_set_up: int = 0
    probes: list = field(default_factory=list)    # every probe time, in seconds
    inputs: object = field(default_factory=hashlib.sha256)  # of every scene file
    frame_ms: dict = field(default_factory=lambda: {m: [] for m in MODES})  # per round
    eval_s: list = field(default_factory=list)    # per evaluate call
    train_s: list = field(default_factory=list)   # per epoch
    windows: int = 0
    params: dict = None                           # weights the last epoch left
    adam: object = None
    loss_curves: list = field(default_factory=list)   # per epoch
    track_records: dict = field(default_factory=lambda: {m: [] for m in MODES})
    amota: dict = field(default_factory=lambda: {m: [] for m in MODES})   # per round

    def fingerprints(self) -> dict:
        """sha256 of the inputs, the loss curves and each mode's tracks; AMOTA as text."""
        out = {"inputs": self.inputs.hexdigest(), "loss_curve": _sha(self.loss_curves)}
        for mode in MODES:
            out[mode] = _sha(self.track_records[mode])
            out[mode + ".amota"] = repr(self.amota[mode])
        return out


def _sha(records) -> str:
    return hashlib.sha256("\n".join(io.canonical_json(r) for r in records).encode()).hexdigest()


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _scene(workload: Workload, scene_seed: int, frames: int, work_dir: str,
           out: PassResult) -> list:
    """Generate a scene, write it as `simulate` does and read it back as `track` does."""
    clock = Calibrated(out.probes)
    start = time.perf_counter()
    cli.write_sim_output(sim.generate(workload.scenario(scene_seed, frames)), work_dir,
                         tuple(out.config.covnet.app_shape))
    loaded = cli.load_sim_frames(work_dir)[0]
    out.setup_s_per_frame.append(clock(time.perf_counter() - start) / frames)
    out.frames_set_up += frames
    for name in SCENE_FILES:
        with open(os.path.join(work_dir, name), "rb") as fh:
            out.inputs.update(fh.read())
    return loaded


def _train(frames: list, epoch: int, out: PassResult, tally: Tally):
    """One epoch on a training scene, continuing from the previous epoch's weights.

    A failed epoch fails its windows and those of every later epoch.
    """
    config = out.config
    settings = dataclasses.replace(config.train, epochs=1)
    windows = len(frames) // settings.window_length
    tally.attempted += windows
    if epoch == 0:
        out.params = training.init_params_for_run(config, np.random.default_rng(config.seed))
    elif out.params is None:
        tally.fail(windows)
        return
    clock = Calibrated(out.probes)
    start = time.perf_counter()
    try:
        result = training.train(frames, out.params, settings, config.tracker,
                                bounds=config.normalization_bounds, adam=out.adam)
    except Exception:
        out.params = None
        tally.fail(windows, f"training epoch {epoch}: " + traceback.format_exc(limit=3))
        return
    out.train_s.append(clock(time.perf_counter() - start))
    out.windows += windows
    out.params, out.adam = result.params_by_cav, result.adam
    bad = [r for r in result.loss_curve if not _finite([r["loss"]])]
    if bad:
        tally.fail(len(bad), f"training epoch {epoch}: {len(bad)} non-finite window losses")
    out.loss_curves.append(result.loss_curve)


def _track(config, frames, provider, mode: str, out: PassResult, tally: Tally):
    """Track one scene with a fresh tracker; returns {timestep: tracks} or None."""
    tracker = cli.tracker_from_config(config, provider)
    tracks, frame_ms = {}, []
    clock = Calibrated(out.probes)
    for index, frame in enumerate(frames):
        tally.attempted += 1
        packets = pipeline.packets_from_sim_frame(frame)
        start = time.perf_counter()
        try:
            reported = tracker.step(packets)
        except Exception:  # the rest of the sequence fails with this frame
            tally.attempted += len(frames) - index - 1
            tally.fail(len(frames) - index,
                       f"{mode} frame {index}: " + traceback.format_exc(limit=3))
            return None
        frame_ms.append(1e3 * clock(time.perf_counter() - start))
        if not all(_finite(rt.box.to_vector()) and _finite([rt.score]) for rt in reported):
            tally.fail(1, f"{mode} frame {index}: non-finite track box or score")
        tracks[frame.timestep] = [(rt.track_id, rt.box, rt.score) for rt in reported]
        out.track_records[mode] += [io.track_record(frame.timestep, rt.track_id, rt.box,
                                                    rt.score) for rt in reported]
    out.frame_ms[mode].append(frame_ms)
    return tracks


def _evaluate(config, tracks, gt_frames, mode: str, out: PassResult, tally: Tally):
    tally.attempted += 1
    if tracks is None:
        tally.fail(1, f"{mode}: no tracks to evaluate")
        return
    clock = Calibrated(out.probes)
    start = time.perf_counter()
    try:
        report = metrics.evaluate(tracks, gt_frames, iou_threshold=config.eval_iou_threshold)
    except Exception:
        tally.fail(1, f"{mode} evaluate: " + traceback.format_exc(limit=3))
        return
    out.eval_s.append(clock(time.perf_counter() - start))
    if not (math.isfinite(report.amota) and 0.0 <= report.amota <= 100.0):
        tally.fail(1, f"{mode}: AMOTA {report.amota} outside [0, 100]")
        return
    out.amota[mode].append(report.amota)


def _round(frames: list, out: PassResult, tally: Tally):
    """Track a held-out scene in each mode, then score both."""
    config = out.config
    # learned mode runs seeded, untrained weights: per detection they cost
    # what trained weights cost, and they do not depend on the training
    learned = training.init_params_for_run(config, np.random.default_rng(config.seed))
    providers = {"const": pipeline.ConstantCovariance(),
                 "learned": pipeline.LearnedCovariance(learned,
                                                       bounds=config.normalization_bounds)}
    tracks = {mode: _track(config, frames, p, mode, out, tally) for mode, p in providers.items()}
    gt_frames = {f.timestep: list(f.gt) for f in frames}
    for mode in MODES:
        _evaluate(config, tracks[mode], gt_frames, mode, out, tally)


def run_pass(workload: Workload, seed: int, work_dir: str, tally: Tally) -> PassResult:
    """Every round, with the training epochs spread between them in order.

    Each round and epoch first sets up its own scene: training scene e has
    the seed `derived_seed(seed, 2 e)`, held-out scene r `derived_seed(seed,
    2 r + 1)`.
    """
    rounds, epochs = workload.rounds, workload.epochs
    train_after = [e * rounds // epochs for e in range(epochs)]
    out = PassResult(config=io.RunConfig(seed=seed, num_cavs=workload.num_cavs))
    epoch = 0
    for r in range(rounds):
        _round(_scene(workload, derived_seed(seed, 2 * r + 1), workload.track_frames,
                      work_dir, out), out, tally)
        while epoch < epochs and train_after[epoch] == r:
            _train(_scene(workload, derived_seed(seed, 2 * epoch), workload.train_frames,
                          work_dir, out), epoch, out, tally)
            epoch += 1
    return out


# --- end-to-end metrics -------------------------------------------------------------


def end_to_end(out: PassResult, import_s: float, tally: Tally, peak_rss_mb: float) -> dict:
    """Every end-to-end metric of one pass; every timing is calibrated.

    Frame percentiles are taken over every frame of every round, `eval_s`
    is the median evaluate call, and the training rate is all windows over
    all training time, and the final loss the mean over the supervised
    windows of the last half of the epochs. `setup_s` is the import time
    plus the set-up of all scenes, estimated as the median per-frame set-up
    time of a scene times all their frames. AMOTA is the mean over rounds.
    """
    def frame_pct(mode, q):
        frames = [t for r in out.frame_ms[mode] for t in r]
        return float(np.percentile(frames, q)) if frames else math.nan

    late = out.loss_curves[len(out.loss_curves) // 2:]
    late = [r["loss"] for curve in late for r in curve if r["supervised"] > 0]
    return {
        "setup_s": import_s + statistics.median(out.setup_s_per_frame) * out.frames_set_up,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
        "train_windows_per_s": out.windows / sum(out.train_s) if out.train_s else math.nan,
        "train_loss_final": _mean(late),
        "const_frame_ms_p50": frame_pct("const", 50),
        "const_frame_ms_p95": frame_pct("const", 95),
        "learned_frame_ms_p50": frame_pct("learned", 50),
        "learned_frame_ms_p95": frame_pct("learned", 95),
        "eval_s": statistics.median(out.eval_s) if out.eval_s else math.nan,
        "amota_const": _mean(out.amota["const"]),
        "amota_learned": _mean(out.amota["learned"]),
    }


def _mean(values) -> float:
    return float(np.mean(values)) if values else math.nan
