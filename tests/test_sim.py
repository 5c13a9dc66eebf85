"""Simulator tests: determinism, noise model structure, dropout/false
positive behavior, and the canonical two-vehicle preset."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cooptrack import io, sim
from cooptrack.geometry import Box7, PoseYawT, box_rows, inverse_pose, transform_box


def _tiny_scenario(seed=5, duration=20, **sensor_kwargs):
    objects = (
        sim.constant_turn_trajectory((10.0, 2.0), 0.0, 0.0, 5.0, 0.0, (4.5, 1.9, 1.6), duration),
        sim.constant_turn_trajectory((18.0, -3.0), 0.0, 0.0, 6.0, 0.0, (4.2, 1.8, 1.5), duration),
    )
    cav = sim.CavSpec(
        poses=sim.straight_pose_track((0.0, 0.0), 0.0, 5.0, duration),
        sensor=sim.SensorModel(**sensor_kwargs),
    )
    return sim.Scenario(duration=duration, objects=objects, cavs=(cav,), seed=seed)


def test_sensor_model_validation():
    with pytest.raises(ValueError):
        sim.SensorModel(base_miss_prob=1.5)
    with pytest.raises(ValueError):
        sim.SensorModel(fp_rate=-0.1)
    with pytest.raises(ValueError):
        sim.SensorModel(base_std=(-1.0,) * 7)
    with pytest.raises(ValueError):
        sim.SensorModel(occlusion_extra_prob=2.0)
    with pytest.raises(ValueError):
        sim.SensorModel(degrade_multiplier=0.5)


def test_sensor_model_rejects_fewer_than_3_appearance_channels():
    # at construction, not at the first object's draw
    with pytest.raises(ValueError, match="appearance tensor needs at least 3 channels"):
        sim.SensorModel(appearance_shape=(2, 8, 8))
    sim.SensorModel(appearance_shape=(3, 1, 1))


def test_noise_scale_grows_with_distance():
    s = sim.SensorModel(dist_coeff=0.01)
    assert s.noise_scale(0.0) == pytest.approx(1.0)
    assert s.noise_scale(10.0) == pytest.approx(1.1)
    assert s.noise_scale(40.0) == pytest.approx(1.4)
    assert s.confidence(0.0) > s.confidence(40.0)
    assert 1e-3 <= s.confidence(1e9) <= 1.0


def test_cav_spec_rejects_pose_jumps():
    poses = (PoseYawT(0, 0, 0, 0), PoseYawT(10.0, 0, 0, 0))
    with pytest.raises(ValueError):
        sim.CavSpec(poses=poses, sensor=sim.SensorModel())


def test_scenario_length_validation():
    objects = (sim.constant_turn_trajectory((0, 0), 0, 0, 1, 0, (4, 2, 1.5), 5),)
    cav = sim.CavSpec(poses=sim.straight_pose_track((0, 0), 0, 1, 4), sensor=sim.SensorModel())
    with pytest.raises(ValueError):
        sim.Scenario(duration=5, objects=objects, cavs=(cav,), seed=0)


def test_constant_turn_straight_motion():
    traj = sim.constant_turn_trajectory((0.0, 0.0), 0.5, 0.0, 10.0, 0.0, (4, 2, 1.5), 5)
    assert len(traj) == 5
    for t, box in enumerate(traj):
        assert box.x == pytest.approx(t * 1.0)  # 10 m/s at 10 Hz
        assert box.y == 0.0 and box.z == 0.5 and box.a == 0.0


def test_constant_turn_heading_tracks_yaw_rate():
    traj = sim.constant_turn_trajectory((0.0, 0.0), 0.0, 0.0, 5.0, 1.0, (4, 2, 1.5), 20)
    assert traj[10].a == pytest.approx(1.0)  # 1 rad/s after 1 s
    assert traj[10].y > 0.0  # curving left


def test_generate_deterministic_per_seed():
    a = sim.generate(_tiny_scenario(seed=9))
    b = sim.generate(_tiny_scenario(seed=9))
    c = sim.generate(_tiny_scenario(seed=10))
    for fa, fb in zip(a, b):
        assert len(fa.detections[0]) == len(fb.detections[0])
        for da, db in zip(fa.detections[0], fb.detections[0]):
            np.testing.assert_array_equal(da.box.to_vector(), db.box.to_vector())
            np.testing.assert_array_equal(da.appearance, db.appearance)
            assert da.confidence == db.confidence
    diff = any(
        len(fa.detections[0]) != len(fc.detections[0])
        or any(not np.array_equal(da.box.to_vector(), dc.box.to_vector())
               for da, dc in zip(fa.detections[0], fc.detections[0]))
        for fa, fc in zip(a, c))
    assert diff, "different seeds should produce different detections"


def test_generate_noiseless_is_exact():
    frames = sim.generate(_tiny_scenario(base_std=(0.0,) * 7))
    for frame in frames:
        assert len(frame.detections[0]) == 2  # no dropouts, no false positives
        inv = inverse_pose(frame.poses[0])
        for det, (_, gt_box) in zip(frame.detections[0], frame.gt):
            local = transform_box(gt_box, inv)
            np.testing.assert_allclose(det.box.to_vector(), local.to_vector(), atol=1e-12)
            assert not det.is_false_positive


def test_generate_detections_are_local_frame():
    # A sensor sitting right on top of an object sees it at the origin.
    duration = 3
    objects = (tuple(Box7(7.0, 3.0, 0.0, 0.4, 4.5, 1.9, 1.6) for _ in range(duration)),)
    cav = sim.CavSpec(
        poses=tuple(PoseYawT(7.0, 3.0, 0.0, 0.4) for _ in range(duration)),
        sensor=sim.SensorModel(base_std=(0.0,) * 7),
    )
    frames = sim.generate(sim.Scenario(duration=duration, objects=objects, cavs=(cav,), seed=0))
    det = frames[0].detections[0][0]
    assert det.box.x == pytest.approx(0.0, abs=1e-12)
    assert det.box.y == pytest.approx(0.0, abs=1e-12)
    assert det.box.a == pytest.approx(0.0, abs=1e-12)


def test_max_range_drops_far_objects():
    frames = sim.generate(_tiny_scenario(max_range=12.0))
    # Object 1 starts 18 m out: invisible until the ego closes the gap.
    assert len(frames[0].detections[0]) == 1


def test_certain_miss_suppresses_the_object():
    duration = 20
    objects = (sim.constant_turn_trajectory((10.0, 2.0), 0.0, 0.0, 5.0, 0.0,
                                            (4.5, 1.9, 1.6), duration),)
    cav = sim.CavSpec(poses=sim.straight_pose_track((0.0, 0.0), 0.0, 5.0, duration),
                      sensor=sim.SensorModel(base_miss_prob=1.0))
    frames = sim.generate(sim.Scenario(duration=duration, objects=objects, cavs=(cav,),
                                       seed=5))
    assert all(frame.detections[0] == [] for frame in frames)


def _queue_scenario(seed, occlusion_extra_prob):
    """Two objects driving in line ahead of the sensor, the far one hidden
    behind the near one."""
    duration = 20
    objects = tuple(sim.constant_turn_trajectory((x, 0.0), 0.0, 0.0, 5.0, 0.0,
                                                 (4.5, 1.9, 1.6), duration)
                    for x in (10.0, 20.0))
    cav = sim.CavSpec(poses=sim.straight_pose_track((0.0, 0.0), 0.0, 5.0, duration),
                      sensor=sim.SensorModel(base_std=(0.1,) * 7,
                                             occlusion_extra_prob=occlusion_extra_prob))
    return sim.Scenario(duration=duration, objects=objects, cavs=(cav,), seed=seed)


def test_certain_occlusion_suppresses_the_hidden_object():
    for frame in sim.generate(_queue_scenario(5, 1.0)):
        assert len(frame.detections[0]) == 1
        assert frame.detections[0][0].box.x < 15.0


def _blocked_one_pair_at_a_time(sensor_xy, target_box, others) -> bool:
    """The simulator's occlusion rule for one target, one other object at a time."""
    sx, sy = sensor_xy
    dx, dy = target_box.x - sx, target_box.y - sy
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


_COORD = st.one_of(st.integers(-16, 16).map(float),
                   st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False))
_EXTENT = st.one_of(st.sampled_from([0.5, 1.9, 4.5, 6.0, 8.0]), st.floats(0.05, 12.0))


@st.composite
def _occlusion_scene(draw):
    """Boxes and a sensor position, with some of these cases added:
    - a box repeated under a second id;
    - the sensor on a target's centre or up to 1e-4 m from it, with a box over
      the sight segment's midpoint;
    - a disc of radius 5 (a 6 x 8 footprint) exactly touching, or just clear
      of, a sight line whose quotient and foot point are exact;
    - a box centred on a sight line at exactly 5 % or 95 % of its length."""
    boxes = [Box7(draw(_COORD), draw(_COORD), 0.0, draw(st.floats(-3.0, 3.0)),
                  draw(_EXTENT), draw(_EXTENT), 1.5)
             for _ in range(draw(st.integers(1, 7)))]
    sensor = (draw(_COORD), draw(_COORD))
    for case in draw(st.sets(st.sampled_from(["repeat", "on_target", "touch", "ends"]))):
        i = draw(st.integers(0, len(boxes) - 1))
        if case == "repeat":
            boxes.insert(draw(st.integers(0, len(boxes))), boxes[i])
        elif case == "on_target":
            offset = draw(st.sampled_from([0.0, 1e-5, -1e-5, 1e-4]))
            sensor = (boxes[i].x + offset, boxes[i].y)
            boxes.append(Box7(boxes[i].x + 0.5 * offset, boxes[i].y + 1.0, 0.0, 0.0,
                              4.5, 1.9, 1.5))
        elif case == "touch":
            length = draw(st.sampled_from([4.0, 8.0, 16.0, 32.0]))
            gap = draw(st.sampled_from([0.0, 1e-9, -1e-9]))
            sensor = (boxes[i].x - length, boxes[i].y)
            boxes.append(Box7(sensor[0] + 0.25 * length, sensor[1] + 5.0 + gap, 0.0,
                              0.0, 6.0, 8.0, 1.5))
        else:
            sensor = (boxes[i].x - 20.0, boxes[i].y)
            boxes.append(Box7(sensor[0] + draw(st.sampled_from([1.0, 19.0])), sensor[1],
                              0.0, 0.0, 4.5, 1.9, 1.5))
    return boxes, sensor


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(scene=_occlusion_scene())
def test_occlusion_of_every_object_at_once_equals_the_one_pair_rule(scene):
    boxes, (sx, sy) = scene
    blocked = sim._line_of_sight_blocked(box_rows(boxes), sx, sy)
    assert blocked.dtype == bool and blocked.shape == (len(boxes),)
    for i, box in enumerate(boxes):
        others = [b for j, b in enumerate(boxes) if j != i]
        assert blocked[i] == _blocked_one_pair_at_a_time((sx, sy), box, others), i


def test_occlusion_edge_cases():
    box = Box7(8.0, 0.0, 0.0, 0.0, 4.5, 1.9, 1.6)
    touching = Box7(2.0, 5.0, 0.0, 0.0, 6.0, 8.0, 1.5)  # radius 5, foot point (2, 0)
    clear = Box7(2.0, 5.0 + 1e-9, 0.0, 0.0, 6.0, 8.0, 1.5)
    assert sim._line_of_sight_blocked(box_rows([box, touching]), 0.0, 0.0).tolist() == \
        [True, False]
    assert sim._line_of_sight_blocked(box_rows([box, clear]), 0.0, 0.0).tolist() == \
        [False, False]
    # an equal box under another id hides nothing from a sensor on its centre,
    # and a sensor off the centre sees neither twin past the other at u = 1
    assert sim._line_of_sight_blocked(box_rows([box, box]), 8.0, 0.0).tolist() == \
        [False, False]
    assert sim._line_of_sight_blocked(box_rows([box, box]), 0.0, 0.0).tolist() == \
        [False, False]
    # a box on the sight line at exactly 5 % or 95 % of its length hides nothing
    for at in (1.0, 19.0):
        far = Box7(20.0, 0.0, 0.0, 0.0, 4.5, 1.9, 1.6)
        between = Box7(at, 0.0, 0.0, 0.0, 4.5, 1.9, 1.6)
        assert sim._line_of_sight_blocked(box_rows([far, between]), 0.0, 0.0).tolist() == \
            [False, False]
    # a sensor 1e-5 m from a target's centre sees it past a box over the segment,
    # one 1e-4 m away does not
    for offset, hidden in ((1e-5, False), (1e-4, True)):
        over = Box7(8.0 + 0.5 * offset, 1.0, 0.0, 0.0, 4.5, 1.9, 1.6)
        assert sim._line_of_sight_blocked(box_rows([box, over]), 8.0 + offset,
                                          0.0).tolist() == [hidden, False]
    assert sim._line_of_sight_blocked(box_rows([]), 0.0, 0.0).tolist() == []


def test_false_positive_rate_and_flag():
    frames = sim.generate(_tiny_scenario(duration=400, fp_rate=0.5))
    fp_frames = sum(
        1 for f in frames if any(d.is_false_positive for d in f.detections[0]))
    assert 140 < fp_frames < 260  # binomial(400, 0.5) within ~5 sigma
    for f in frames:
        for d in f.detections[0]:
            if d.is_false_positive:
                assert d.confidence <= 0.3
                assert math.hypot(d.box.x, d.box.y) <= 50.0 + 1e-9


def test_noise_statistics_match_model():
    # With miss/fp off, detection residuals should have roughly the
    # configured std (positional, at near range where scale is ~1).
    frames = sim.generate(_tiny_scenario(seed=3, duration=500, base_std=(0.2,) * 7))
    residuals = []
    for frame in frames:
        inv = inverse_pose(frame.poses[0])
        det = frame.detections[0][0]
        local = transform_box(frame.gt[0][1], inv)
        residuals.append(det.box.x - local.x)
    std = float(np.std(residuals))
    assert 0.17 < std < 0.23


def test_outcome_isolation_between_objects():
    """Dropping one object must not perturb another object's noise."""
    base = sim.generate(_queue_scenario(12, 0.0))
    dropped = sim.generate(_queue_scenario(12, 1.0))
    for fa, fb in zip(base, dropped):
        # The near object 0 is the only detection left in the dropped run.
        assert len(fa.detections[0]) == 2 and len(fb.detections[0]) == 1
        da = fa.detections[0][0]
        db = fb.detections[0][0]
        np.testing.assert_array_equal(da.box.to_vector(), db.box.to_vector())


def test_preset_v2v_mini_shape():
    scn = sim.preset_v2v_mini(seed=0, duration=50)
    assert scn.duration == 50
    assert len(scn.objects) == 12
    assert len(scn.cavs) == 2
    frames = sim.generate(scn)
    assert len(frames) == 50
    assert set(frames[0].detections) == {0, 1}
    # Ego leads, second vehicle trails on a neighboring lane.
    assert scn.cavs[0].poses[0].t_x > scn.cavs[1].poses[0].t_x


def test_preset_noiseless_variant_sees_everything():
    scn = sim.preset_v2v_mini(seed=0, duration=100, noise_multiplier=0.0,
                              miss_multiplier=0.0, fp_multiplier=0.0)
    frames = sim.generate(scn)
    for frame in frames:
        # The trailing vehicle's 160 m range covers the whole scene.
        assert len(frame.detections[1]) == 12
        for det in frame.detections[1]:
            assert not det.is_false_positive


def test_preset_multipliers_scale_noise():
    quiet = sim.preset_v2v_mini(seed=1, noise_multiplier=0.5)
    loud = sim.preset_v2v_mini(seed=1, noise_multiplier=2.0)
    assert loud.cavs[0].sensor.base_std[0] == pytest.approx(
        4.0 * quiet.cavs[0].sensor.base_std[0])


def _lane_scenario(seed=4, duration=12):
    """40 objects in 8 lanes around 3 vehicles, one of them turned, built from the
    public constructors; the last lane runs beyond the middle vehicle's range."""
    rng = np.random.default_rng(seed)
    objects = []
    for lane in range(8):
        speed = 8.0 + rng.uniform(-1.5, 1.5)
        x = rng.uniform(-40.0, -25.0)
        for _ in range(5):
            extents = ((4.5, 1.9, 1.6), (4.2, 1.8, 1.5), (5.0, 2.0, 1.8))[int(rng.integers(3))]
            objects.append(sim.constant_turn_trajectory(
                (x, -14.0 + 4.0 * lane), 0.1 * rng.uniform(-1.0, 1.0), 0.0, speed,
                0.02 * (lane % 3 - 1), extents, duration))
            x += rng.uniform(18.0, 26.0)

    def sensor(miss, occlusion, fp, degrade, multiplier, max_range=170.0):
        return sim.SensorModel(base_std=(0.22, 0.22, 0.05, 0.035, 0.10, 0.06, 0.06),
                               dist_coeff=0.004, max_range=max_range, base_miss_prob=miss,
                               occlusion_extra_prob=occlusion, fp_rate=fp,
                               degrade_prob=degrade, degrade_multiplier=multiplier)

    cavs = (
        sim.CavSpec(sim.straight_pose_track((0.0, 0.0), 0.0, 8.0, duration),
                    sensor(0.12, 0.30, 0.30, 0.30, 4.0)),
        sim.CavSpec(sim.straight_pose_track((-45.0, 4.0), 0.05, 8.0, duration),
                    sensor(0.18, 0.95, 0.40, 0.55, 5.0, max_range=60.0)),
        sim.CavSpec(sim.straight_pose_track((40.0, -4.0), -3.0, 8.0, duration),
                    sensor(0.15, 0.30, 0.35, 0.40, 4.5)),
    )
    return sim.Scenario(duration=duration, objects=tuple(objects), cavs=cavs, seed=seed)


# sha256 of gt.jsonl, detections.jsonl and tensors.bin, in that order
_SIMULATE_DIGESTS = {
    "v2v_mini": ("212784b2bfa045b597af2969adb73e4507bc1d128e6e29d536d2769b5ba99894",
                 "ab2d15e2d2de59eb6677c25b509846d6fdfd1997e3dff1f6230d906047202a94",
                 "676126aa163472136d640a3b2840952faa4fff9d0513bdeafd1ade6941a316c7"),
    "noisy": ("ac137fef0c693e81133dc1bce98602322e2cfff360a215dcdaa6b15194b28ecb",
              "a9d72a7b2e4dc6e414e3620348d09add3c2ce45778812c8c1a97e9a6ad2355d6",
              "aa9952b204672df3d19b6b9197ccc45ceeb6eeae75a568387e7c38405c0209bb"),
    "no_texture": ("a7c82bc03eb57f8102022633d0be95b991ccb8c19526b6f5c3d8c128495d0cde",
                   "477178c22ce29ce8c8b953819e3ccb0b843463d0bbc47148fa896c2350b0ea45",
                   "0dd13fabd60f32506f31c9000ab3014ace84fa7848608c4cf0be8cf9d005fe61"),
    "lanes": ("f47e8f4921df8e27400ed035b3ca645263d8f7235a9061482fb4179ee720d586",
              "c89b5f7b54f0061aca9789863af3947501e99a61896b9a8e2fb5010b5b87b995",
              "9feae8fff245ecaaef8c962246abe820b954819dac567a09b7fbf1e174eb7045"),
}
_SIMULATED = {
    "v2v_mini": (lambda: sim.preset_v2v_mini(), (8, 8, 8)),
    "noisy": (lambda: sim.preset_v2v_mini(seed=3, duration=60, noise_multiplier=2.0,
                                          miss_multiplier=3.0, fp_multiplier=3.0), (8, 8, 8)),
    "no_texture": (lambda: sim.preset_v2v_mini(seed=5, duration=40, app_shape=(3, 4, 4)),
                   (3, 4, 4)),
    "lanes": (_lane_scenario, (8, 8, 8)),
}


@pytest.mark.parametrize("name", sorted(_SIMULATED))
def test_simulate_bytes_are_pinned(tmp_path, name):
    # the simulator's stream and the log formats are fixed: a scene's files keep
    # every byte that earlier releases wrote for it
    make, app_shape = _SIMULATED[name]
    io.write_sim_output(sim.generate(make()), str(tmp_path), app_shape)
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in (io.GT_FILE, io.DETECTIONS_FILE, io.TENSORS_FILE))
    assert digests == _SIMULATE_DIGESTS[name]
