"""Synthetic multi-vehicle tracking scenarios.

Generates ground-truth object trajectories, per-vehicle pose tracks, and
noisy per-vehicle detections with heteroscedastic noise, dropouts, false
positives, confidence scores, and synthetic appearance tensors. Everything
is a deterministic function of the scenario seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import (DEFAULT_APPEARANCE_SHAPE, appearance_tensors, synth_appearance,
                       texture_size)
from .geometry import Box7, PoseYawT, box_rows, inverse_pose, transform_rows, wrap_angle

FRAME_RATE_HZ = 10.0
FRAME_DT = 1.0 / FRAME_RATE_HZ  # seconds between frames
CONFIDENCE_COEFF = 1.2  # detection score = exp(-coeff * positional std)
MIN_EXTENT = 0.05  # extent noise is truncated here so boxes stay valid
MAX_POSE_STEP = 5.0


@dataclass(frozen=True)
class SensorModel:
    """Box-level detection noise model for one vehicle's detector."""

    base_std: tuple = (0.15, 0.15, 0.05, 0.03, 0.08, 0.05, 0.05)  # x,y,z,a,l,w,h
    dist_coeff: float = 0.0          # std multiplier grows by this per meter
    max_range: float = 50.0
    base_miss_prob: float = 0.0
    occlusion_extra_prob: float = 0.0  # added when line of sight is blocked
    fp_rate: float = 0.0             # probability of one false positive per frame
    degrade_prob: float = 0.0        # chance a detection comes out degraded
    degrade_multiplier: float = 1.0  # extra noise scale on degraded detections
    appearance_shape: tuple = DEFAULT_APPEARANCE_SHAPE

    def __post_init__(self):
        if any(s < 0 for s in self.base_std):
            raise ValueError("sensor stds must be nonnegative")
        for name, rate in (("base_miss_prob", self.base_miss_prob),
                           ("occlusion_extra_prob", self.occlusion_extra_prob),
                           ("fp_rate", self.fp_rate),
                           ("degrade_prob", self.degrade_prob)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {rate}")
        if self.degrade_multiplier < 1.0:
            raise ValueError("degrade_multiplier must be >= 1")
        texture_size(self.appearance_shape)  # at least the 3 signal channels

    def noise_scale(self, rng_range):
        """Positional std multiplier at the given sensing range (or ranges)."""
        return 1.0 + self.dist_coeff * rng_range

    def positional_std(self, rng_range: float) -> float:
        return self.base_std[0] * self.noise_scale(rng_range)

    def confidence(self, rng_range: float) -> float:
        return max(1e-3, min(1.0, math.exp(-CONFIDENCE_COEFF
                                           * self.positional_std(rng_range))))


@dataclass(frozen=True)
class CavSpec:
    """One vehicle: a pose per frame plus its sensor."""

    poses: tuple  # PoseYawT per frame
    sensor: SensorModel

    def __post_init__(self):
        for a, b in zip(self.poses, self.poses[1:]):
            step = math.hypot(b.t_x - a.t_x, b.t_y - a.t_y)
            if step >= MAX_POSE_STEP:
                raise ValueError(f"pose jump of {step:.2f} m exceeds {MAX_POSE_STEP} m")


@dataclass(frozen=True)
class Scenario:
    duration: int
    objects: tuple   # per object: tuple of Box7 per frame (global)
    cavs: tuple      # CavSpec per vehicle
    seed: int

    def __post_init__(self):
        for traj in self.objects:
            if len(traj) != self.duration:
                raise ValueError("every object needs one box per frame")
        for cav in self.cavs:
            if len(cav.poses) != self.duration:
                raise ValueError("every vehicle needs one pose per frame")


@dataclass(frozen=True)
class Detection:
    """One noisy detection in the sensing vehicle's local frame."""

    box: Box7
    confidence: float
    appearance: np.ndarray
    is_false_positive: bool = False


@dataclass(frozen=True)
class SimFrame:
    timestep: int
    gt: tuple          # (object_id, Box7 global) pairs
    detections: dict   # cav_id -> list of Detection
    poses: dict        # cav_id -> PoseYawT


def constant_turn_trajectory(start_xy, z, yaw, speed, turn_rate, extents, frames) -> tuple:
    """Box7 per frame under constant speed and constant yaw rate, FRAME_DT apart.

    turn_rate = 0 gives straight constant-velocity motion; the box yaw always
    equals the instantaneous heading.
    """
    l, w, h = extents
    x, y = start_xy
    a = yaw
    out = []
    for _ in range(frames):
        out.append(Box7(x, y, z, wrap_angle(a), l, w, h))
        x += speed * FRAME_DT * math.cos(a)
        y += speed * FRAME_DT * math.sin(a)
        a += turn_rate * FRAME_DT
    return tuple(out)


def straight_pose_track(start_xy, yaw, speed, frames) -> tuple:
    """A vehicle pose per frame, at height 0, driving straight at constant speed."""
    x, y = start_xy
    out = []
    for _ in range(frames):
        out.append(PoseYawT(x, y, 0.0, wrap_angle(yaw)))
        x += speed * FRAME_DT * math.cos(yaw)
        y += speed * FRAME_DT * math.sin(yaw)
    return tuple(out)


def _line_of_sight_blocked(boxes, sx: float, sy: float) -> np.ndarray:
    """Cheap occlusion test for every object at once: whether another object's
    disc meets the sight segment from the sensor at (sx, sy) to the object.

    `boxes` holds the objects' global (n, 7) box rows; an object's disc has
    half its footprint's diagonal as radius. Object i is blocked when some
    object j != i projects onto the segment strictly between 5 % and 95 % of
    its length, at a distance of at most j's radius. An object never hides
    itself, nor does an equal box: its quotient is exactly 1. A sensor whose
    squared distance to i's centre is below 1e-9 m² sees i. Every pair takes
    the operations, in the order, of a loop over pairs in Python floats, and
    each distance and radius is `math.hypot`'s, so the flags are that loop's.
    """
    x, y = boxes[:, 0], boxes[:, 1]
    radii = 0.5 * np.array(list(map(math.hypot, boxes[:, 4].tolist(), boxes[:, 5].tolist())),
                           dtype=float)
    dx, dy = x - sx, y - sy
    seg_len2 = dx * dx + dy * dy
    # a sensor on its target divides by about 0 (that row is masked out below),
    # and far-off coordinates overflow to inf as Python floats do, silently
    with np.errstate(all="ignore"):
        u = ((x - sx) * dx[:, None] + (y - sy) * dy[:, None]) / seg_len2[:, None]
    near = (0.05 < u) & (u < 0.95) & ~(seg_len2 < 1e-9)[:, None]
    target, other = np.nonzero(near)
    u = u[target, other]
    off_x = x[other] - (sx + u * dx[target])
    off_y = y[other] - (sy + u * dy[target])
    dist = np.array(list(map(math.hypot, off_x.tolist(), off_y.tolist())), dtype=float)
    blocked = np.zeros(len(boxes), dtype=bool)
    blocked[target[dist <= radii[other]]] = True
    return blocked


def _false_positive(sensor: SensorModel, rng: np.random.Generator):
    r = sensor.max_range * math.sqrt(rng.uniform())
    ang = rng.uniform(-math.pi, math.pi)
    box = Box7(r * math.cos(ang), r * math.sin(ang), rng.uniform(-0.5, 0.5),
               rng.uniform(-math.pi, math.pi),
               rng.uniform(3.0, 5.5), rng.uniform(1.5, 2.2), rng.uniform(1.3, 1.9))
    conf = rng.uniform(0.05, 0.3)
    app = synth_appearance(r, 1.0, rng, sensor.appearance_shape)
    return Detection(box=box, confidence=conf, appearance=app, is_false_positive=True)


def _detect(boxes, pose: PoseYawT, sensor: SensorModel, rng: np.random.Generator) -> list:
    """One vehicle's detections of the objects with global box rows `boxes`, in
    object order, then its false positive."""
    # every object draws its miss and degrade coins, then its box noise and
    # appearance texture, visible or not, so visibility changes never shift
    # other objects' randomness
    coins = np.empty((len(boxes), 2))
    normals = np.empty((len(boxes), 7 + texture_size(sensor.appearance_shape)))
    for coin, normal in zip(coins, normals):
        rng.random(out=coin)
        rng.standard_normal(out=normal)
    local = transform_rows(boxes, inverse_pose(pose))
    ranges = np.array(list(map(math.hypot, local[:, 0].tolist(), local[:, 1].tolist())),
                      dtype=float)
    miss_prob = np.where(_line_of_sight_blocked(boxes, pose.t_x, pose.t_y),
                         min(1.0, sensor.base_miss_prob + sensor.occlusion_extra_prob),
                         sensor.base_miss_prob)
    kept = np.flatnonzero(~(ranges > sensor.max_range) & ~(coins[:, 0] < miss_prob))
    ranges, local, normals = ranges[kept], local[kept], normals[kept]
    scale = sensor.noise_scale(ranges)
    scale = np.where(coins[kept, 1] < sensor.degrade_prob,
                     scale * sensor.degrade_multiplier, scale)
    noise = normals[:, :7] * (np.array(sensor.base_std) * scale[:, None])
    det_rows = local + noise
    det_rows[:, 3] = wrap_angle(det_rows[:, 3])
    extents = det_rows[:, 4:]
    det_rows[:, 4:] = np.where(extents > MIN_EXTENT, extents, MIN_EXTENT)
    # appearance channel 2 carries the true per-detection noise level;
    # detector confidence stays range-based, so quality of a degraded box is
    # visible only through appearance
    apps = appearance_tensors(ranges, sensor.base_std[0] * scale, normals[:, 7:],
                              sensor.appearance_shape)
    dets = [Detection(box=Box7(*row), confidence=sensor.confidence(rng_range), appearance=app)
            for row, rng_range, app in zip(det_rows.tolist(), ranges.tolist(), apps)]
    if rng.uniform() < sensor.fp_rate:
        dets.append(_false_positive(sensor, rng))
    return dets


def generate(scenario: Scenario) -> list:
    """Render the scenario into per-frame ground truth and detections.

    Deterministic per seed: the random stream is consumed in a fixed
    (frame, vehicle, object) order regardless of outcomes.
    """
    rng = np.random.default_rng(scenario.seed)
    frames = []
    for t in range(scenario.duration):
        gt = tuple((obj_id, traj[t]) for obj_id, traj in enumerate(scenario.objects))
        boxes = box_rows(box for _, box in gt)
        detections = {}
        poses = {}
        for cav_id, cav in enumerate(scenario.cavs):
            detections[cav_id] = _detect(boxes, cav.poses[t], cav.sensor, rng)
            poses[cav_id] = cav.poses[t]
        frames.append(SimFrame(timestep=t, gt=gt, detections=detections, poses=poses))
    return frames


@dataclass(frozen=True)
class ScenarioConfig:
    """The `preset_v2v_mini` settings a run config holds (its `scenario` section)."""

    duration: int = 200
    noise_multiplier: float = 1.0
    miss_multiplier: float = 1.0
    fp_multiplier: float = 1.0


def preset_v2v_mini(seed: int = 0, duration: int = ScenarioConfig.duration,
                    noise_multiplier: float = ScenarioConfig.noise_multiplier,
                    miss_multiplier: float = ScenarioConfig.miss_multiplier,
                    fp_multiplier: float = ScenarioConfig.fp_multiplier,
                    app_shape: tuple = DEFAULT_APPEARANCE_SHAPE) -> Scenario:
    """Canonical 2-vehicle, 12-object scenario.

    The ego vehicle leads; the second vehicle trails 45 m behind on the next
    lane. Both detectors occasionally emit degraded boxes (four to five
    times noisier), the trailing one on more than half its detections, and
    detection confidence does not reflect degradation; the quality signal
    lives only in the appearance tensor. The trailing vehicle also drops
    more detections but covers objects the ego misses. Multipliers scale
    noise/dropout/false-positive rates; all zero gives a noiseless,
    lossless variant. Both detectors draw appearance tensors of `app_shape`.
    """
    frames = duration
    # multi-lane traffic flowing +x around the ego so every object stays in
    # sensor range for the whole sequence: (start_xy, yaw, speed, turn_rate)
    specs = [
        ((18.0, 2.0), 0.0, 7.0, 0.0), ((30.0, -2.0), 0.0, 8.5, 0.0),
        ((45.0, 2.0), 0.0, 6.0, 0.0), ((60.0, -2.0), 0.0, 8.0, 0.0),
        ((75.0, 2.0), 0.0, 8.5, 0.0), ((12.0, -6.0), 0.0, 5.5, 0.0),
        ((25.0, 6.0), 0.0, 9.5, 0.0), ((40.0, 10.0), 0.0, 7.5, 0.0),
        ((55.0, -10.0), 0.0, 6.5, 0.0),
        ((35.0, 16.0), 0.0, 6.0, -0.01),
        ((70.0, -16.0), 0.0, 7.5, 0.01),
        ((8.0, 6.0), 0.0, 8.0, 0.0),
    ]
    extent_choices = [(4.5, 1.9, 1.6), (4.2, 1.8, 1.5), (5.0, 2.0, 1.8),
                      (4.8, 1.9, 1.7)]
    objects = tuple(
        constant_turn_trajectory(xy, 0.0, yaw, speed, turn, extent_choices[i % 4], frames)
        for i, (xy, yaw, speed, turn) in enumerate(specs)
    )
    base_std = tuple(np.array((0.22, 0.22, 0.05, 0.035, 0.10, 0.06, 0.06))
                     * noise_multiplier)
    ego = CavSpec(
        poses=straight_pose_track((0.0, 0.0), 0.0, 8.0, frames),
        sensor=SensorModel(base_std=base_std, dist_coeff=0.004, max_range=80.0,
                           base_miss_prob=min(1.0, 0.12 * miss_multiplier),
                           occlusion_extra_prob=min(1.0, 0.30 * miss_multiplier),
                           fp_rate=min(1.0, 0.30 * fp_multiplier),
                           degrade_prob=0.30, degrade_multiplier=4.0,
                           appearance_shape=app_shape),
    )
    trailing = CavSpec(
        poses=straight_pose_track((-45.0, 4.0), 0.0, 8.0, frames),
        sensor=SensorModel(base_std=base_std, dist_coeff=0.004, max_range=160.0,
                           base_miss_prob=min(1.0, 0.18 * miss_multiplier),
                           occlusion_extra_prob=min(1.0, 0.35 * miss_multiplier),
                           fp_rate=min(1.0, 0.40 * fp_multiplier),
                           degrade_prob=0.55, degrade_multiplier=5.0,
                           appearance_shape=app_shape),
    )
    return Scenario(duration=frames, objects=objects, cavs=(ego, trailing), seed=seed)
