"""Fusion pipeline tests: lifecycle through scripted detection sequences,
multi-vehicle duplicate suppression, payload accounting, and the learned
provider's zero-parameter equivalence to the constant tracker."""

import dataclasses

import numpy as np
import pytest

from cooptrack import covnet, metrics, pipeline, sim
from cooptrack.association import LifecycleConfig
from cooptrack.covnet import CovNetConfig, CovNetParams, layer_shapes
from cooptrack.features import chebyshev_rows, extract_positional, normalize
from cooptrack.filter import (OBSERVATION_MATRIX, ObservationModel, ProcessModel, TrackBank,
                              TrackState, observation_matrix,
                              predict, update)
from cooptrack.geometry import Box7, PoseYawT, box_rows, transform_rows
from cooptrack.pipeline import (
    ConstantCovariance,
    CoopTracker,
    FramePacket,
    LearnedCovariance,
    packets_from_sim_frame,
    run_sequence,
    tracker_from_settings,
)
from cooptrack.io import TrackerSettings, set_owners

IDENT = PoseYawT(0.0, 0.0, 0.0, 0.0)


def _zero_params(cfg=CovNetConfig()):
    return CovNetParams(cfg, {name: np.zeros(shape) for name, shape in layer_shapes(cfg).items()})


def _det(x, y, conf=0.9, yaw=0.0):
    return sim.Detection(box=Box7(x, y, 0.0, yaw, 4.5, 1.9, 1.6),
                         confidence=conf, appearance=None)


def _packet(t, cav, dets, pose=IDENT):
    return FramePacket(timestep=t, cav_id=cav, pose=pose, detections=tuple(dets))


def _chebyshev(detections, pose):
    """The Chebyshev rows of detections seen through `pose`, a pass's `f_pos`:
    one packet's normalized positional rows, read as Chebyshev values."""
    return chebyshev_rows(normalize(extract_positional(box_rows(d.box for d in detections),
                                                       pose)))


def _beliefs(tracker) -> list:
    """The live tracks' filter beliefs, one TrackState per row of the bank."""
    return [TrackState(tracker.bank.mean[i], tracker.bank.cov[i])
            for i in range(len(tracker.tracks))]


def test_step_validates_packets():
    tracker = CoopTracker()
    with pytest.raises(ValueError):
        tracker.step([_packet(0, 0, []), _packet(1, 1, [])])
    with pytest.raises(ValueError):
        tracker.step([_packet(0, 0, []), _packet(0, 0, [])])


def test_birth_and_early_report():
    tracker = CoopTracker(lifecycle=LifecycleConfig(min_hits=3, max_age=2))
    reported = tracker.step([_packet(0, 0, [_det(10.0, 0.0)])])
    # Brand-new track: age 0 < min_hits, so it is reported immediately.
    assert len(reported) == 1
    assert reported[0].score == pytest.approx(0.9)
    assert reported[0].box.x == pytest.approx(10.0)


def test_step_births_from_unmatched_detections():
    tracker = CoopTracker()
    tracker.step([_packet(0, 0, [_det(0.0, 0.0)])])
    reported = tracker.step([_packet(1, 0, [_det(0.1, 0.0), _det(50.0, 50.0)])])
    # the near detection refreshes track 0; the far one births track 1
    assert [t.id for t in tracker.tracks] == [0, 1]
    assert [t.hits for t in tracker.tracks] == [2, 1]
    assert sorted(r.track_id for r in reported) == [0, 1]


def test_unconfirmed_track_suppressed_when_old():
    tracker = CoopTracker(lifecycle=LifecycleConfig(min_hits=3, max_age=4))
    tracker.step([_packet(0, 0, [_det(10.0, 0.0)])])
    # Object disappears; the track ages past min_hits without confirming.
    for t in range(1, 4):
        reported = tracker.step([_packet(t, 0, [])])
    assert reported == []
    assert len(tracker.tracks) == 1  # still alive, just not reported


def test_kill_after_max_age_misses():
    tracker = CoopTracker(lifecycle=LifecycleConfig(min_hits=1, max_age=2))
    tracker.step([_packet(0, 0, [_det(5.0, 0.0)])])
    assert len(tracker.tracks) == 1
    for t in (1, 2):
        tracker.step([_packet(t, 0, [])])
        assert len(tracker.tracks) == 1
    tracker.step([_packet(3, 0, [])])  # third consecutive miss
    assert tracker.tracks == []
    tracker.step([_packet(4, 0, [_det(5.0, 0.0)])])  # ids are never reused
    assert [t.id for t in tracker.tracks] == [1]


def test_score_decay_on_miss():
    tracker = CoopTracker(lifecycle=LifecycleConfig(min_hits=1, max_age=5, score_decay=0.9))
    tracker.step([_packet(0, 0, [_det(5.0, 0.0, conf=0.8)])])
    reported = tracker.step([_packet(1, 0, [])])
    assert reported[0].score == pytest.approx(0.72)
    reported = tracker.step([_packet(2, 0, [])])
    assert reported[0].score == pytest.approx(0.648)


def test_score_replaced_by_match_confidence():
    tracker = CoopTracker(lifecycle=LifecycleConfig(min_hits=1, max_age=5))
    tracker.step([_packet(0, 0, [_det(5.0, 0.0, conf=0.9)])])
    reported = tracker.step([_packet(1, 0, [_det(5.0, 0.0, conf=0.4)])])
    # Replacement, not max-over-time: the stale 0.9 does not stick.
    assert reported[0].score == pytest.approx(0.4)


@pytest.mark.parametrize("confidences", [(0.6, 0.8), (0.8, 0.6)],
                         ids=["low-first", "high-first"])
def test_same_timestep_two_cavs_yield_one_track(confidences):
    tracker = CoopTracker()
    reported = tracker.step([
        _packet(0, 0, [_det(10.0, 0.0, conf=confidences[0])]),
        _packet(0, 1, [_det(10.2, 0.0, conf=confidences[1])]),
    ])
    # Round-two association matches the round-one birth: no duplicate.
    assert len(reported) == 1
    # Score is the max confidence across same-timestep matches, in either order.
    assert reported[0].score == pytest.approx(0.8)


def test_cav_rounds_processed_in_id_order():
    tracker = CoopTracker()
    # Same packets, shuffled order: ascending cav_id must be canonical.
    reported = tracker.step([
        _packet(0, 1, [_det(10.2, 0.0, conf=0.8)]),
        _packet(0, 0, [_det(10.0, 0.0, conf=0.6)]),
    ])
    tracker2 = CoopTracker()
    reported2 = tracker2.step([
        _packet(0, 0, [_det(10.0, 0.0, conf=0.6)]),
        _packet(0, 1, [_det(10.2, 0.0, conf=0.8)]),
    ])
    assert len(reported) == len(reported2) == 1
    np.testing.assert_array_equal(reported[0].box.to_vector(), reported2[0].box.to_vector())


def test_track_follows_moving_object():
    tracker = CoopTracker(lifecycle=LifecycleConfig(min_hits=1, max_age=2))
    for t in range(12):
        reported = tracker.step([_packet(t, 0, [_det(10.0 + 0.8 * t, 0.0)])])
    assert len(reported) == 1
    assert reported[0].box.x == pytest.approx(10.0 + 0.8 * 11, abs=0.2)
    # Constant-velocity state has locked onto the 0.8 m/frame motion.
    vel = np.asarray(reported[0].mean[7:10] if isinstance(reported[0].mean, np.ndarray)
                     else reported[0].mean)[0]
    assert vel == pytest.approx(0.8, abs=0.1)


def test_coasting_track_keeps_moving():
    tracker = CoopTracker(lifecycle=LifecycleConfig(min_hits=1, max_age=3))
    for t in range(10):
        tracker.step([_packet(t, 0, [_det(0.0 + 1.0 * t, 0.0)])])
    # Two missed frames: the predicted position keeps advancing.
    r1 = tracker.step([_packet(10, 0, [])])
    r2 = tracker.step([_packet(11, 0, [])])
    assert r2[0].box.x > r1[0].box.x


def test_track_ids_unique_and_stable():
    tracker = CoopTracker(lifecycle=LifecycleConfig(min_hits=1, max_age=1))
    first = tracker.step([_packet(0, 0, [_det(0.0, 0.0), _det(30.0, 0.0)])])
    ids0 = {r.track_id for r in first}
    assert len(ids0) == 2
    second = tracker.step([_packet(1, 0, [_det(0.0, 0.0), _det(30.0, 0.0)])])
    assert {r.track_id for r in second} == ids0
    # Kill both, then birth a new object: its id must be fresh.
    for t in (2, 3):
        tracker.step([_packet(t, 0, [])])
    third = tracker.step([_packet(4, 0, [_det(60.0, 0.0)])])
    assert third[0].track_id not in ids0


def test_run_sequence_cost_counts_non_host_only():
    packets = [
        _packet(0, 0, [_det(1, 0), _det(2, 0)]),  # host: free
        _packet(0, 1, [_det(3, 0)]),
        _packet(0, 2, [_det(4, 0), _det(5, 0), _det(6, 0)]),
    ]
    _, cost = run_sequence([packets], CoopTracker())
    assert cost.num_shared_detections == 4
    assert cost.bytes_total == 4 * metrics.BOX_REALS * metrics.BYTES_PER_REAL
    _, solo = run_sequence([[_packet(0, 0, [_det(1, 0)])]], CoopTracker())
    assert solo.num_shared_detections == 0


def test_run_sequence_reports_and_comm():
    frames = sim.generate(sim.preset_v2v_mini(seed=4, duration=30))
    packets = [packets_from_sim_frame(f) for f in frames]
    reports, cost = run_sequence(packets, CoopTracker())
    assert len(reports) == cost.num_frames == 30
    shared = sum(len(f.detections[1]) for f in frames)
    assert cost.num_shared_detections == shared
    # constant covariance ships boxes only
    assert cost.reals_per_detection == metrics.BOX_REALS
    assert cost.bytes_total == shared * metrics.BOX_REALS * metrics.BYTES_PER_REAL


def test_run_sequence_error_carries_frame_index():
    packets = [[_packet(0, 0, [])], [_packet(1, 0, []), _packet(1, 0, [])]]
    with pytest.raises(ValueError, match="frame 1"):
        run_sequence(packets, CoopTracker())


def test_a_step_builds_a_box_only_for_each_reported_track(monkeypatch):
    tracker = CoopTracker(lifecycle=LifecycleConfig(min_hits=2, max_age=5))
    tracker.step([_packet(0, 0, [_det(x, 0.0) for x in (0.0, 20.0, 40.0)])])
    tracker.step([_packet(1, 0, [_det(x, 0.0) for x in (0.0, 20.0)])])
    # the track at x=40 is now old and unconfirmed; x=60 births a fourth track
    packets = [_packet(2, 0, [_det(0.0, 0.1), _det(60.0, 0.0)]),
               _packet(2, 1, [_det(20.0, 0.1)])]
    built, real = [], Box7.__init__

    def counting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Box7, "__init__", counting)
    reported = tracker.step(packets)
    assert len(tracker.tracks) == 4 and len(reported) == 3
    assert built == [r.box for r in reported]


def test_association_rows_are_the_bits_of_the_boxes_of_the_bank():
    tracker = CoopTracker()
    tracker.step([_packet(0, 0, [_det(10.0 * k, 0.0, yaw=3.0) for k in range(5)])])
    # yaws past the seam, on it and within one ulp of it
    tracker.bank.mean[:, 3] = [3.5, -7.0, np.pi, -np.pi, np.nextafter(np.pi, 0.0)]
    want = box_rows(Box7.from_vector(v) for v in tracker._box_vectors())
    assert tracker._track_rows().tobytes() == want.tobytes()


@pytest.mark.parametrize("extent", [-1.0, 0.0, float("nan")], ids=["negative", "zero", "nan"])
def test_a_live_track_without_a_positive_extent_fails_its_frame(extent):
    tracker = CoopTracker(lifecycle=LifecycleConfig(min_hits=2, max_age=5))
    run_sequence([[_packet(t, 0, [_det(0.0, 0.0)] + [_det(20.0, 0.0)] * (t == 0))]
                  for t in range(3)], tracker)
    # the second track is old and unconfirmed: association alone reads its box
    tracker.bank.mean[1, 5] = extent
    with pytest.raises(ValueError, match="frame 0: box extents must be positive"):
        run_sequence([[_packet(3, 0, [_det(0.1, 0.0)])]], tracker)


def test_learned_provider_requires_params_and_appearance():
    params = {0: _zero_params()}
    provider = LearnedCovariance(params)
    tracker = CoopTracker(cov_provider=provider)
    with pytest.raises(ValueError, match="frame 0"):
        # cav 1 has no parameter set -> KeyError -> wrapped with frame index
        run_sequence([[_packet(0, 1, [_det(5.0, 0.0)])]], tracker)
    tracker2 = CoopTracker(cov_provider=provider)
    with pytest.raises(ValueError, match="appearance"):
        tracker2.step([_packet(0, 0, [_det(5.0, 0.0)])])


def test_a_vehicle_without_parameters_fails_its_frame_before_any_round():
    cfg = CovNetConfig()
    rng = np.random.default_rng(5)
    tracker = CoopTracker(cov_provider=LearnedCovariance({0: CovNetParams.init(cfg, rng)}))
    run_sequence([[_learned_packet(rng, 0, 0, [0.0, 20.0], cfg)]], tracker)
    mean, cov = tracker.bank.mean.copy(), tracker.bank.cov.copy()
    lives = [dataclasses.astuple(life) for life in tracker.tracks]
    # vehicle 0's round would match and update both tracks
    frame = [_learned_packet(rng, 1, 0, [0.1, 20.1], cfg),
             _learned_packet(rng, 1, 1, [40.0], cfg)]
    with pytest.raises(ValueError, match="frame 0: .*no covariance network parameters "
                                         "for vehicle 1"):
        run_sequence([frame], tracker)
    assert tracker.bank.mean.tobytes() == mean.tobytes()
    assert tracker.bank.cov.tobytes() == cov.tobytes()
    assert [dataclasses.astuple(life) for life in tracker.tracks] == lives


@pytest.mark.parametrize("shared", [False, True], ids=["per-vehicle", "shared"])
def test_a_second_run_gives_the_bits_of_the_first(shared):
    # a run leaves nothing behind (in its provider or the parameter sets)
    # that changes a later run's tracks
    frames = sim.generate(sim.preset_v2v_mini(seed=4, duration=12))
    rng = np.random.default_rng(6)
    first = CovNetParams.init(CovNetConfig(), rng)
    params = {0: first, 1: first if shared else CovNetParams.init(CovNetConfig(), rng)}

    def run():
        tracker = CoopTracker(cov_provider=LearnedCovariance(params))
        reports, _ = run_sequence([packets_from_sim_frame(f) for f in frames], tracker)
        return [(r.track_id, r.box.to_vector().tobytes(), r.score,
                 np.asarray(r.mean).tobytes()) for frame in reports for r in frame]

    once = run()
    assert run() == once
    assert sum(map(len, once)) > 0


# kind of bad input -> (the exception it raises, its message)
BAD_INPUTS = {"no appearance": (ValueError, "no appearance tensor"),
              "wrong shape": (ValueError, "appearance shape"),
              "no parameters": (KeyError, "no covariance network parameters")}


@pytest.mark.parametrize("bad", [0, 2])
@pytest.mark.parametrize("steps", [1, 2, 4])
def test_an_encoding_that_raises_fails_its_frame_and_leaves_the_tracker(steps, bad,
                                                                         monkeypatch):
    # steps: the frames the tracker takes before the failing one
    cfg = CovNetConfig()
    rng = np.random.default_rng(12)
    params = {cav: CovNetParams.init(cfg, rng) for cav in (0, 1, 2)}
    tracker = CoopTracker(cov_provider=LearnedCovariance(params))

    def frame(t, kind=None):
        packets = [_learned_packet(rng, t, cav, [10.0 * k + cav for k in range(8)], cfg)
                   for cav in (0, 1, 2)]
        packet = packets[bad]
        if kind == "no appearance":
            packets[bad] = dataclasses.replace(packet, detections=tuple(
                dataclasses.replace(d, appearance=None) for d in packet.detections))
        elif kind == "wrong shape":
            packets[bad] = dataclasses.replace(packet, detections=tuple(
                dataclasses.replace(d, appearance=d.appearance[1:]) for d in packet.detections))
        elif kind == "no parameters":
            packets[bad] = dataclasses.replace(packet, cav_id=7)
        return packets

    for t in range(steps):
        tracker.step(frame(t))
    mean, cov = tracker.bank.mean.copy(), tracker.bank.cov.copy()
    lives = [dataclasses.astuple(life) for life in tracker.tracks]
    passes, forward = [], covnet.forward

    def recording(*args, **kwargs):
        passes.append(args)
        return forward(*args, **kwargs)

    monkeypatch.setattr(covnet, "forward", recording)
    for kind, (error, message) in BAD_INPUTS.items():
        with pytest.raises(error, match=message):
            tracker.step(frame(steps, kind))
        assert passes == [], f"{kind}: a pass ran before the inputs were checked"
        assert tracker.bank.mean.tobytes() == mean.tobytes()
        assert tracker.bank.cov.tobytes() == cov.tobytes()
        assert [dataclasses.astuple(life) for life in tracker.tracks] == lives


@pytest.mark.parametrize("bad", [0, 2])
@pytest.mark.parametrize("steps", [1, 2, 4])
def test_a_pass_that_raises_fails_its_step_and_leaves_the_tracker(steps, bad, monkeypatch):
    # one set's network pass raises after the inputs are checked and the
    # features built. steps: the frames the tracker takes before the failing one
    cfg = CovNetConfig()
    rng = np.random.default_rng(21)
    params = {cav: CovNetParams.init(cfg, rng) for cav in (0, 1, 2)}
    # the failing set is the one with 5 detections; the others have 8
    frames = [[_learned_packet(rng, t, cav, [10.0 * k + cav for k in range(5 if cav == bad
                                                                              else 8)], cfg)
               for cav in (0, 1, 2)] for t in range(steps + 1)]
    expected = CoopTracker(cov_provider=LearnedCovariance(params))
    for packets in frames:
        expected.step(packets)
    tracker = CoopTracker(cov_provider=LearnedCovariance(params))
    for packets in frames[:steps]:
        tracker.step(packets)
    mean, cov = tracker.bank.mean.copy(), tracker.bank.cov.copy()
    lives = [dataclasses.astuple(life) for life in tracker.tracks]

    failing, real_forward = [True], covnet.forward

    def forward(params, f_app, f_pos):
        if failing[0] and len(f_pos) == 5:
            raise RuntimeError("pass failed")
        return real_forward(params, f_app, f_pos)

    monkeypatch.setattr(covnet, "forward", forward)
    with pytest.raises(RuntimeError, match="pass failed"):
        tracker.step(frames[steps])
    assert tracker.bank.mean.tobytes() == mean.tobytes()
    assert tracker.bank.cov.tobytes() == cov.tobytes()
    assert [dataclasses.astuple(life) for life in tracker.tracks] == lives
    # the tracker steps on as one that never failed
    failing[0] = False
    tracker.step(frames[steps])
    assert tracker.bank.mean.tobytes() == expected.bank.mean.tobytes()
    assert tracker.bank.cov.tobytes() == expected.bank.cov.tobytes()
    assert ([dataclasses.astuple(life) for life in tracker.tracks]
            == [dataclasses.astuple(life) for life in expected.tracks])


def test_zero_params_equal_constant_covariance_exactly():
    """sqrt(1)+0 squared is exactly 1.0, so a zero network must reproduce
    the constant tracker's floating point stream bit for bit."""
    frames = sim.generate(sim.preset_v2v_mini(seed=11, duration=40))
    packets = [packets_from_sim_frame(f) for f in frames]
    zero_params = {0: _zero_params(), 1: _zero_params()}
    rep_learned, cost_l = run_sequence(packets, CoopTracker(LearnedCovariance(zero_params)))
    rep_const, cost_c = run_sequence(packets, CoopTracker(ConstantCovariance()))
    assert cost_l.num_shared_detections == cost_c.num_shared_detections
    assert (cost_c.reals_per_detection, cost_l.reals_per_detection) == (
        metrics.BOX_REALS, metrics.SHARED_REALS)
    assert len(rep_learned) == len(rep_const)
    for fl, fc in zip(rep_learned, rep_const):
        assert len(fl) == len(fc)
        for a, b in zip(fl, fc):
            assert a.track_id == b.track_id
            assert a.score == b.score  # exact equality, not approx
            assert a.box.to_vector().tobytes() == b.box.to_vector().tobytes()


def test_learned_provider_accepts_lifted_params():
    from cooptrack import autodiff as ad
    cfg = CovNetConfig()
    params = CovNetParams.init(cfg, np.random.default_rng(3))
    tape = ad.Tape()
    provider = LearnedCovariance({0: (params.lift(tape), cfg)})
    tracker = CoopTracker(cov_provider=provider)
    app = np.zeros(cfg.app_shape)
    det = sim.Detection(box=Box7(5.0, 0.0, 0.0, 0.0, 4.5, 1.9, 1.6),
                        confidence=0.9, appearance=app)
    reported = tracker.step([_packet(0, 0, [det])])
    assert len(reported) == 1
    # Track covariance is on the tape, ready for a backward pass.
    assert isinstance(_beliefs(tracker)[0].cov, ad.Node)


def _learned_packet(rng, t, cav, xs, cfg):
    dets = [sim.Detection(box=Box7(x, 0.0, 0.0, 0.0, 4.5, 1.9, 1.6), confidence=0.9,
                          appearance=rng.standard_normal(cfg.app_shape)) for x in xs]
    return _packet(t, cav, dets)


def test_step_calls_the_network_once_per_non_empty_packet(monkeypatch):
    cfg = CovNetConfig()
    rng = np.random.default_rng(5)
    params = {cav: CovNetParams.init(cfg, rng) for cav in (0, 1, 2)}
    provider = LearnedCovariance(params)
    cav_of = {id(provider.params_by_cav[cav]): owner  # the sets the passes read
              for cav, owner in set_owners(provider.params_by_cav).items()}
    batches = {}  # vehicle -> rows of each of its passes
    real_forward = covnet.forward

    def counting_forward(params, f_app, f_pos):
        batches.setdefault(cav_of[id(params)], []).append(len(f_pos))
        return real_forward(params, f_app, f_pos)

    monkeypatch.setattr(covnet, "forward", counting_forward)
    tracker = CoopTracker(cov_provider=provider)
    tracker.step([_learned_packet(rng, 0, 0, [0.0, 20.0, 40.0], cfg),
                  _learned_packet(rng, 0, 1, [], cfg),
                  _learned_packet(rng, 0, 2, [0.2, 60.0], cfg)])
    # matched and born detections alike come from one pass per packet
    assert batches == {0: [3], 2: [2]}
    tracker.step([_learned_packet(rng, 1, 1, [0.0, 20.0], cfg)])
    assert batches == {0: [3], 1: [2], 2: [2]}
    CoopTracker().step([_learned_packet(rng, 0, 0, [0.0, 20.0], cfg)])
    assert batches == {0: [3], 1: [2], 2: [2]}  # constant covariance runs no network


@pytest.mark.parametrize("vehicles", [1, 2, 4])
def test_per_vehicle_frame_rows_equal_one_forward_per_packet(vehicles):
    cfg = CovNetConfig()
    rng = np.random.default_rng(8)
    params = {cav: CovNetParams.init(cfg, rng) for cav in range(vehicles)}
    packets = [dataclasses.replace(
        _learned_packet(rng, 3, cav, [10.0 * k + cav for k in range(8 + cav)], cfg),
        pose=PoseYawT(5.0 * cav, -2.0, 0.0, 0.3 * cav)) for cav in range(vehicles)]
    want = [covnet.residual_to_noise_diag(covnet.forward(
                params[p.cav_id], np.stack([d.appearance for d in p.detections]),
                _chebyshev(p.detections, p.pose)))
            for p in packets]
    got = LearnedCovariance(params).noise_rows(packets)
    assert all(type(rows) is np.ndarray for rows in got)
    assert [rows.tobytes() for rows in got] == [rows.tobytes() for rows in want]


def test_a_shared_set_takes_one_pass_per_frame_with_the_rows_of_its_window(monkeypatch):
    cfg = CovNetConfig()
    rng = np.random.default_rng(9)
    shared = CovNetParams.init(cfg, rng)
    params = {0: shared, 1: shared}
    frame = [_learned_packet(rng, 2, 0, [0.0, 20.0, 40.0], cfg),
             dataclasses.replace(_learned_packet(rng, 2, 1, [5.0, 15.0, 25.0, 35.0], cfg),
                                 pose=PoseYawT(-8.0, 3.0, 0.0, 0.4))]
    window = covnet.residual_to_noise_diag(covnet.forward(
        shared, np.stack([d.appearance for p in frame for d in p.detections]),
        np.concatenate([_chebyshev(p.detections, p.pose) for p in frame])))
    want = [window[:3], window[3:]]
    batches, real = [], covnet.forward

    def counting(params, f_app, f_pos):
        batches.append(len(f_pos))
        return real(params, f_app, f_pos)

    monkeypatch.setattr(covnet, "forward", counting)
    got = LearnedCovariance(params).noise_rows(frame)
    assert batches == [7]
    assert [rows.tobytes() for rows in got] == [rows.tobytes() for rows in want]


def _spec_noise_rows(params_by_cav, packets):
    """Each packet's noise rows by the per-packet specification: one forward
    per parameter set over the Chebyshev rows of each of its non-empty
    packets (`_chebyshev`), in packet order."""
    owners = set_owners(params_by_cav)
    out = [np.ones((0, 10)) for _p in packets]
    for owner in sorted(set(owners.values())):
        mine = [i for i, p in enumerate(packets) if p.detections and owners[p.cav_id] == owner]
        if not mine:
            continue
        dets = [d for i in mine for d in packets[i].detections]
        rows = covnet.residual_to_noise_diag(covnet.forward(
            params_by_cav[owner], np.stack([d.appearance for d in dets]),
            np.concatenate([_chebyshev(packets[i].detections, packets[i].pose) for i in mine])))
        start = 0
        for i in mine:
            out[i] = rows[start:start + len(packets[i].detections)]
            start += len(packets[i].detections)
    return out


@pytest.mark.parametrize("shared", [False, True], ids=["per-vehicle", "shared"])
@pytest.mark.parametrize("vehicles", [1, 2, 3])
def test_noise_rows_equal_one_forward_per_set_on_each_packets_own_rows(vehicles, shared):
    cfg = CovNetConfig()
    rng = np.random.default_rng(30 + vehicles)
    first = CovNetParams.init(cfg, rng)
    params = {cav: first if shared or cav == 0 else CovNetParams.init(cfg, rng)
              for cav in range(vehicles)}
    sizes = [0, 1, 7, 3]  # detections of each packet, cycling over timesteps and vehicles
    window = [[dataclasses.replace(
        _learned_packet(rng, t, cav, [9.0 * k - 4.0 * cav + t for k in
                                      range(sizes[(t + cav) % len(sizes)])], cfg),
        pose=PoseYawT(6.0 * cav - t, 2.0 * t, 0.1 * cav, 0.4 * cav - 0.2 * t))
        for cav in range(vehicles)] for t in range(4)]
    provider = LearnedCovariance(params)
    for packets in [*window, [p for frame in window for p in frame]]:
        got = provider.noise_rows(packets)
        want = _spec_noise_rows(params, packets)
        assert [rows.shape for rows in got] == [(len(p.detections), 10) for p in packets]
        assert [rows.tobytes() for rows in got] == [rows.tobytes() for rows in want]


def test_a_step_builds_each_packets_rows_once_and_keeps_them_read_only(monkeypatch):
    cfg = CovNetConfig()
    rng = np.random.default_rng(14)
    params = {cav: CovNetParams.init(cfg, rng) for cav in (0, 1, 2)}
    built, real_rows = [], pipeline.box_rows

    def counting(boxes):
        built.append(1)
        return real_rows(boxes)

    monkeypatch.setattr(pipeline, "box_rows", counting)
    for provider in (ConstantCovariance(), LearnedCovariance(params)):
        tracker = CoopTracker(cov_provider=provider)
        for t in range(3):
            built.clear()
            packets = [_learned_packet(rng, t, 0, [0.0, 20.0, 40.0], cfg),
                       _learned_packet(rng, t, 1, [], cfg),
                       dataclasses.replace(_learned_packet(rng, t, 2, [0.3, 60.0], cfg),
                                           pose=PoseYawT(1.0, -0.5, 0.0, 0.2))]
            # each packet builds its rows when it is made, and `replace`
            # makes a second packet
            assert len(built) == len(packets) + 1
            built.clear()
            tracker.step(packets)
            assert built == []
            for packet in packets:
                for rows in (packet.local_rows, packet.global_rows):
                    assert not rows.flags.writeable
                    with pytest.raises(ValueError):
                        rows[:1] = 0.0
                assert packet.global_rows.tobytes() == transform_rows(
                    real_rows(d.box for d in packet.detections), packet.pose).tobytes()
            assert built == []


def test_step_records_the_same_tape_nodes_however_many_tracks_it_reports():
    from cooptrack import autodiff as ad
    cfg = CovNetConfig()
    rng = np.random.default_rng(7)
    params = CovNetParams.init(cfg, rng)
    per_frame = {}
    for objects in (2, 12):
        tape = ad.Tape()
        tracker = CoopTracker(cov_provider=LearnedCovariance({0: (params.lift(tape), cfg)}))
        xs = [20.0 * k for k in range(objects)]
        counts = []
        for t in range(5):
            before = len(tape)
            reported = tracker.step([_learned_packet(rng, t, 0, xs, cfg)])
            assert len(reported) == objects
            counts.append(len(tape) - before)
        assert len({id(rt.frame) for rt in reported}) == 1
        assert [rt.row for rt in reported] == list(range(objects))
        per_frame[objects] = counts
    assert per_frame[2] == per_frame[12]


def test_each_detection_takes_its_own_row():
    cfg = CovNetConfig()
    rng = np.random.default_rng(6)
    params = CovNetParams.init(cfg, rng)
    first = _learned_packet(rng, 0, 0, [0.0, 20.0, 40.0], cfg)
    tracker = CoopTracker(cov_provider=LearnedCovariance({0: params}))
    tracker.step([first])
    process = ProcessModel.constant_velocity(TrackerSettings.process_noise_velocity)
    # births: each track's initial covariance comes from its detection's row
    for trk, det in zip(_beliefs(tracker), first.detections):
        row = covnet.forward(params, det.appearance[None], _chebyshev([det], IDENT))[0]
        born = np.diag(covnet.residual_to_noise_diag(row))
        np.testing.assert_allclose(trk.cov, process.A @ born @ process.A.T + process.Q,
                                   rtol=1e-12)
    # matches: a match updates with its own detection's noise, in any order
    second = _learned_packet(rng, 1, 0, [40.1, 0.1, 20.1], cfg)
    rows = covnet.forward(params, np.stack([d.appearance for d in second.detections]),
                          _chebyshev(second.detections, IDENT))
    expected = []
    for trk in _beliefs(tracker):
        dj = int(np.argmin([abs(d.box.x - trk.mean[0]) for d in second.detections]))
        model = ObservationModel(observation_matrix(),
                                 covnet.residual_to_noise_diag(rows[dj])[:7])
        expected.append(update(trk, second.detections[dj].box.to_vector(), model).mean)
    tracker.step([second])
    for got, want in zip(_beliefs(tracker), expected):
        np.testing.assert_allclose(got.mean, process.A @ want, rtol=1e-12, atol=1e-12)


class _NoiseRows:
    """Arbitrary positive noise rows, drawn afresh for every packet: a
    per-detection R and initial covariance."""

    reals_per_detection = metrics.SHARED_REALS

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.given = {}  # (timestep, cav) -> the rows handed out

    def noise_rows(self, packets):
        frame = [self.rng.uniform(0.05, 8.0, size=(len(p.detections), 10)) for p in packets]
        self.given.update(((p.timestep, p.cav_id), rows) for p, rows in zip(packets, frame))
        return frame


def test_a_step_fuses_and_births_with_the_providers_noise_rows_as_given():
    process = ProcessModel.constant_velocity(TrackerSettings.process_noise_velocity)
    provider = _NoiseRows(11)
    tracker = CoopTracker(cov_provider=provider)
    first = _packet(0, 0, [_det(x, 0.0) for x in (0.0, 20.0, 40.0)])
    tracker.step([first])
    # a birth's covariance is its detection's row on the diagonal, before predict
    obs = transform_rows(box_rows(d.box for d in first.detections), IDENT)
    born = TrackBank(np.concatenate([obs, np.zeros((3, 3))], axis=1),
                     np.stack([np.diag(row) for row in provider.given[0, 0]]))
    want = predict(born, process)
    assert tracker.bank.mean.tobytes() == want.mean.tobytes()
    assert tracker.bank.cov.tobytes() == want.cov.tobytes()
    # a match updates with entries 0..6 of its detection's row, in any
    # detection order; the unmatched detection births track 3
    before = tracker.bank
    second = _packet(1, 0, [_det(40.2, 0.1), _det(90.0, 0.0), _det(0.2, -0.1), _det(20.1, 0.2)])
    tracker.step([second])
    rows = provider.given[1, 0]
    obs = transform_rows(box_rows(d.box for d in second.detections), IDENT)
    dets = np.array([2, 3, 0])  # the detections of tracks 0, 1 and 2
    fused = update(before, obs[dets], ObservationModel(OBSERVATION_MATRIX, rows[dets, :7]),
                   np.arange(3))
    want = predict(fused.append(np.concatenate([obs[1:2], np.zeros((1, 3))], axis=1),
                                np.diag(rows[1])[None]), process)
    assert [t.id for t in tracker.tracks] == [0, 1, 2, 3] and fused.skipped == 0
    assert tracker.bank.mean.tobytes() == want.mean.tobytes()
    assert tracker.bank.cov.tobytes() == want.cov.tobytes()


def test_empty_packet_needs_no_parameters():
    # a call whose packets are all empty builds no features and runs no pass
    provider = LearnedCovariance({0: _zero_params()})
    empty = [_packet(0, 7, []), _packet(0, 8, [])]
    assert [rows.shape for rows in provider.noise_rows(empty)] == [(0, 10), (0, 10)]
    assert CoopTracker(cov_provider=provider).step(empty) == []
    assert [p.global_rows.shape for p in empty] == [(0, 7), (0, 7)]


def test_default_tracker_takes_the_default_settings():
    default, configured = CoopTracker(), tracker_from_settings(TrackerSettings(), None)
    assert default.assoc_iou_threshold == configured.assoc_iou_threshold
    np.testing.assert_array_equal(default.process.Q, configured.process.Q)
    assert dataclasses.astuple(default.lifecycle) == dataclasses.astuple(LifecycleConfig())


class _DegenerateNoiseAt:
    """Identity noise, except one huge observation variance for one detection."""

    reals_per_detection = metrics.SHARED_REALS

    def __init__(self, timestep, detection):
        self.timestep, self.detection = timestep, detection

    def noise_rows(self, packets):
        frame = [np.ones((len(p.detections), 10)) for p in packets]
        for packet, rows in zip(packets, frame):
            if packet.timestep == self.timestep:
                rows[self.detection, 0] = (1 + 1e7) ** 2  # S is beyond the guard
        return frame


def test_one_degenerate_update_does_not_abort_the_sequence():
    process = ProcessModel.constant_velocity(TrackerSettings.process_noise_velocity)
    tracker = CoopTracker(cov_provider=_DegenerateNoiseAt(timestep=1, detection=1),
                          lifecycle=LifecycleConfig(min_hits=1, max_age=2))
    xs = (0.0, 20.0, 40.0)
    tracker.step([_packet(0, 0, [_det(x, 0.0) for x in xs])])
    ids, before = [t.id for t in tracker.tracks], _beliefs(tracker)
    second = [_det(x + 0.3, 0.1) for x in xs]
    tracker.step([_packet(1, 0, second)])
    assert tracker.skipped_updates == 1
    after = _beliefs(tracker)
    assert [t.id for t in tracker.tracks] == ids and [t.hits for t in tracker.tracks] == [2] * 3
    # the degenerate row keeps its prediction; the others equal the per-track update
    np.testing.assert_array_equal(after[1].mean, predict(before[1], process).mean)
    np.testing.assert_array_equal(after[1].cov, predict(before[1], process).cov)
    for i in (0, 2):
        model = ObservationModel(observation_matrix(), np.ones(7))
        want = predict(update(before[i], second[i].box.to_vector(), model), process)
        np.testing.assert_allclose(after[i].mean, want.mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(after[i].cov, want.cov, rtol=1e-12, atol=1e-12)
    for t in range(2, 6):
        reported = tracker.step([_packet(t, 0, [_det(x + 0.3 * t, 0.0) for x in xs])])
    assert len(reported) == 3 and tracker.skipped_updates == 1
