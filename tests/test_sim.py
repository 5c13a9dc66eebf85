"""Simulator tests: determinism, noise model structure, dropout/false
positive behavior, and the canonical two-vehicle preset."""

import math

import numpy as np
import pytest

from cooptrack import sim
from cooptrack.geometry import Box7, PoseYawT, inverse_pose, transform_box


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
