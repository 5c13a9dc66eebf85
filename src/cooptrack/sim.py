"""Synthetic multi-vehicle tracking scenarios.

Generates ground-truth object trajectories, per-vehicle pose tracks, and
noisy per-vehicle detections with heteroscedastic noise, dropouts, false
positives, confidence scores, and synthetic appearance tensors. Everything
is a deterministic function of the scenario seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .features import DEFAULT_APPEARANCE_SHAPE, synth_appearance
from .geometry import Box7, PoseYawT, inverse_pose, transform_box, wrap_angle

FRAME_RATE_HZ = 10.0
MIN_EXTENT = 0.05  # extent noise is truncated here so boxes stay valid
MAX_POSE_STEP = 5.0


@dataclass(frozen=True)
class SensorModel:
    """Box-level detection noise model for one vehicle's detector."""

    base_std: tuple = (0.15, 0.15, 0.05, 0.03, 0.08, 0.05, 0.05)  # x,y,z,a,l,w,h
    dist_coeff: float = 0.0          # std multiplier grows by this per meter
    far_range: float = 30.0          # beyond this range the far multiplier kicks in
    far_multiplier: float = 1.0
    max_range: float = 50.0
    base_miss_prob: float = 0.0
    occlusion_extra_prob: float = 0.0  # added when line of sight is blocked
    miss_overrides: dict = field(default_factory=dict)  # object_id -> miss prob
    fp_rate: float = 0.0             # probability of one false positive per frame
    degrade_prob: float = 0.0        # chance a detection comes out degraded
    degrade_multiplier: float = 1.0  # extra noise scale on degraded detections
    confidence_coeff: float = 1.2    # score = exp(-coeff * positional std)
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
        for prob in self.miss_overrides.values():
            if not 0.0 <= prob <= 1.0:
                raise ValueError("miss_overrides probabilities must be in [0,1]")

    def noise_scale(self, rng_range: float) -> float:
        """Positional std multiplier at the given sensing range."""
        scale = 1.0 + self.dist_coeff * rng_range
        if rng_range > self.far_range:
            scale *= self.far_multiplier
        return scale

    def positional_std(self, rng_range: float) -> float:
        return self.base_std[0] * self.noise_scale(rng_range)

    def confidence(self, rng_range: float) -> float:
        return max(1e-3, min(1.0, math.exp(-self.confidence_coeff
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


def constant_turn_trajectory(start_xy, z, yaw, speed, turn_rate, extents, frames,
                             dt: float = 1.0 / FRAME_RATE_HZ) -> tuple:
    """Box7 per frame under constant speed and constant yaw rate.

    turn_rate = 0 gives straight constant-velocity motion; the box yaw always
    equals the instantaneous heading.
    """
    l, w, h = extents
    x, y = start_xy
    a = yaw
    out = []
    for _ in range(frames):
        out.append(Box7(x, y, z, wrap_angle(a), l, w, h))
        x += speed * dt * math.cos(a)
        y += speed * dt * math.sin(a)
        a += turn_rate * dt
    return tuple(out)


def straight_pose_track(start_xy, yaw, speed, frames,
                        dt: float = 1.0 / FRAME_RATE_HZ, z: float = 0.0) -> tuple:
    x, y = start_xy
    out = []
    for _ in range(frames):
        out.append(PoseYawT(x, y, z, wrap_angle(yaw)))
        x += speed * dt * math.cos(yaw)
        y += speed * dt * math.sin(yaw)
    return tuple(out)


def _line_of_sight_blocked(sensor_xy, target_box: Box7, others) -> bool:
    """Cheap occlusion test: another object's disc intersects the sight segment."""
    sx, sy = sensor_xy
    tx, ty = target_box.x, target_box.y
    dx, dy = tx - sx, ty - sy
    seg_len2 = dx * dx + dy * dy
    if seg_len2 < 1e-9:
        return False
    for other in others:
        radius = 0.5 * math.hypot(other.l, other.w)
        u = ((other.x - sx) * dx + (other.y - sy) * dy) / seg_len2
        if not 0.05 < u < 0.95:
            continue
        px, py = sx + u * dx, sy + u * dy
        if math.hypot(other.x - px, other.y - py) <= radius:
            return True
    return False


def _false_positive(sensor: SensorModel, rng: np.random.Generator):
    r = sensor.max_range * math.sqrt(rng.uniform())
    ang = rng.uniform(-math.pi, math.pi)
    box = Box7(r * math.cos(ang), r * math.sin(ang), rng.uniform(-0.5, 0.5),
               rng.uniform(-math.pi, math.pi),
               rng.uniform(3.0, 5.5), rng.uniform(1.5, 2.2), rng.uniform(1.3, 1.9))
    conf = rng.uniform(0.05, 0.3)
    app = synth_appearance(r, 1.0, rng, sensor.appearance_shape)
    return Detection(box=box, confidence=conf, appearance=app, is_false_positive=True)


def generate(scenario: Scenario) -> list:
    """Render the scenario into per-frame ground truth and detections.

    Deterministic per seed: the random stream is consumed in a fixed
    (frame, vehicle, object) order regardless of outcomes.
    """
    rng = np.random.default_rng(scenario.seed)
    frames = []
    for t in range(scenario.duration):
        gt = tuple((obj_id, traj[t]) for obj_id, traj in enumerate(scenario.objects))
        detections = {}
        poses = {}
        for cav_id, cav in enumerate(scenario.cavs):
            pose = cav.poses[t]
            inv = inverse_pose(pose)
            sensor = cav.sensor
            dets = []
            for obj_id, box in gt:
                # every draw (miss coin, degrade coin, box noise, appearance
                # texture) happens for every object, visible or not, so
                # visibility changes never shift other objects' randomness
                miss_draw = rng.uniform()
                degrade_draw = rng.uniform()
                local = transform_box(box, inv)
                rng_range = math.hypot(local.x, local.y)
                noise_draw = rng.standard_normal(7)
                scale = sensor.noise_scale(rng_range)
                if degrade_draw < sensor.degrade_prob:
                    scale *= sensor.degrade_multiplier
                # appearance channel 2 carries the true per-detection noise
                # level; detector confidence stays range-based, so quality
                # of a degraded box is visible only through appearance
                app = synth_appearance(rng_range, sensor.base_std[0] * scale,
                                       rng, sensor.appearance_shape)
                if rng_range > sensor.max_range:
                    continue
                miss_prob = sensor.miss_overrides.get(obj_id, sensor.base_miss_prob)
                others = [b for oid, b in gt if oid != obj_id]
                if _line_of_sight_blocked((pose.t_x, pose.t_y), box, others):
                    miss_prob = min(1.0, miss_prob + sensor.occlusion_extra_prob)
                if miss_draw < miss_prob:
                    continue
                std = np.array(sensor.base_std) * scale
                noise = noise_draw * std
                det_box = Box7(local.x + noise[0], local.y + noise[1],
                               local.z + noise[2], wrap_angle(local.a + noise[3]),
                               max(MIN_EXTENT, local.l + noise[4]),
                               max(MIN_EXTENT, local.w + noise[5]),
                               max(MIN_EXTENT, local.h + noise[6]))
                conf = sensor.confidence(rng_range)
                dets.append(Detection(box=det_box, confidence=conf, appearance=app))
            if rng.uniform() < sensor.fp_rate:
                dets.append(_false_positive(sensor, rng))
            detections[cav_id] = dets
            poses[cav_id] = pose
        frames.append(SimFrame(timestep=t, gt=gt, detections=detections, poses=poses))
    return frames


def preset_v2v_mini(seed: int = 0, duration: int = 200,
                    noise_multiplier: float = 1.0,
                    miss_multiplier: float = 1.0,
                    fp_multiplier: float = 1.0,
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
        sensor=SensorModel(base_std=base_std, dist_coeff=0.004, far_range=30.0,
                           far_multiplier=1.0, max_range=80.0,
                           base_miss_prob=min(1.0, 0.12 * miss_multiplier),
                           occlusion_extra_prob=min(1.0, 0.30 * miss_multiplier),
                           fp_rate=min(1.0, 0.30 * fp_multiplier),
                           degrade_prob=0.30, degrade_multiplier=4.0,
                           appearance_shape=app_shape),
    )
    trailing = CavSpec(
        poses=straight_pose_track((-45.0, 4.0), 0.0, 8.0, frames),
        sensor=SensorModel(base_std=base_std, dist_coeff=0.004, far_range=30.0,
                           far_multiplier=1.0, max_range=160.0,
                           base_miss_prob=min(1.0, 0.18 * miss_multiplier),
                           occlusion_extra_prob=min(1.0, 0.35 * miss_multiplier),
                           fp_rate=min(1.0, 0.40 * fp_multiplier),
                           degrade_prob=0.55, degrade_multiplier=5.0,
                           appearance_shape=app_shape),
    )
    return Scenario(duration=frames, objects=objects, cavs=(ego, trailing), seed=seed)
