"""Tests for the training loop: loss, clipping, Adam, resume."""

import copy
import dataclasses
import gc
import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from cooptrack import autodiff as ad
from cooptrack import covnet, pipeline, sim, training
from cooptrack.covnet import CovNetConfig, CovNetParams
from cooptrack.geometry import Box7, wrap_angle
from cooptrack.io import NetSettings, RunConfig, TrainSettings, TrackerSettings, set_owners
from cooptrack.pipeline import (LearnedCovariance, ReportedTrack, packets_from_sim_frame,
                                tracker_from_settings)
from test_covnet import full_width_arrays, package_params

EXTENTS = (4.2, 1.9, 1.6)


def tiny_scenario(duration=8, seed=5, base_std=(0.05, 0.05, 0.02, 0.01, 0.03, 0.02, 0.02),
                  starts=((0.0, 0.0), (2.0, -4.0))):
    """Vehicles (two by default) watching two slow straight movers; small noise."""
    objects = tuple(
        sim.constant_turn_trajectory((x0, y0), 0.0, 0.0, speed, 0.0, EXTENTS, duration)
        for x0, y0, speed in ((8.0, 0.0, 4.0), (14.0, 3.5, 5.0)))
    sensor = sim.SensorModel(base_std=base_std)
    cavs = tuple(
        sim.CavSpec(poses=sim.straight_pose_track(start, 0.0, 0.0, duration),
                    sensor=sensor)
        for start in starts)
    return sim.Scenario(duration=duration, objects=objects, cavs=cavs, seed=seed)


def small_net() -> CovNetConfig:
    return NetSettings(conv_channels=(4, 8), pos_hidden=8, pos_out=32,
                       head_hidden=8).covnet_config()


def small_run_config(**kw) -> RunConfig:
    defaults = dict(
        covnet=NetSettings(conv_channels=(4, 8), pos_hidden=8, pos_out=32,
                           head_hidden=8),
        train=TrainSettings(window_length=4, epochs=2),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


# --- window splitting -----------------------------------------------------------


def test_split_drops_trailing_remainder():
    frames = list(range(23))
    windows = training.split_subsequences(frames, 10)
    assert windows == [list(range(10)), list(range(10, 20))]


def test_split_exact_fit():
    assert training.split_subsequences(list(range(8)), 4) == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_split_rejects_tiny_window():
    with pytest.raises(ValueError):
        training.split_subsequences(list(range(8)), 1)


# --- window loss ----------------------------------------------------------------


def fake_frame(*means):
    """One frame's reports, sharing one (tracks, 10) array of means."""
    frame = np.asarray(means, dtype=float).reshape(len(means), 10)
    return [ReportedTrack(i, None, 1.0, frame, i) for i in range(len(means))]


def boxed(x, y, z=0.0, a=0.0):
    return Box7(x, y, z, a, *EXTENTS)


def test_loss_matches_hand_computed_norm():
    mean = [1.0, 2.0, 0.5, 0.1, 4.0, 2.0, 1.5, 9.9, 9.9, 9.9]
    gt = boxed(1.3, 2.4, 0.5, 0.1)
    loss, n = training.window_loss([fake_frame(mean)], [[(0, gt)]])
    assert n == 1
    expected = np.linalg.norm(np.array(mean[:7]) - np.array(gt.to_vector()))
    assert math.isclose(float(loss), expected, rel_tol=1e-12)
    # velocity entries (indices 7..9) must not contribute
    mean2 = mean[:7] + [0.0, 0.0, 0.0]
    loss2, _ = training.window_loss([fake_frame(mean2)], [[(0, gt)]])
    assert float(loss2) == float(loss)


def test_loss_gates_on_center_radius():
    gt = boxed(0.0, 0.0)
    inside = [1.9, 0, 0, 0, 4.2, 1.9, 1.6, 0, 0, 0]
    outside = [2.1, 0, 0, 0, 4.2, 1.9, 1.6, 0, 0, 0]
    loss, n = training.window_loss([fake_frame(inside, outside)], [[(0, gt)]])
    assert n == 1
    assert math.isclose(float(loss), 1.9, rel_tol=1e-12)


def test_loss_2d_gating_ignores_height():
    # 2d mode: z offset of 5 m does not disqualify, and the residual still
    # includes z because only the gate changes
    gt = boxed(0.0, 0.0, 0.0)
    rep = fake_frame([1.0, 0, 5.0, 0, 4.2, 1.9, 1.6, 0, 0, 0])
    loss3d, n3d = training.window_loss([rep], [[(0, gt)]], center_mode="3d")
    assert n3d == 0 and loss3d is None
    loss2d, n2d = training.window_loss([rep], [[(0, gt)]], center_mode="2d")
    assert n2d == 1
    assert math.isclose(float(loss2d), math.sqrt(1.0 + 25.0), rel_tol=1e-12)


def test_loss_picks_nearest_gt_with_lower_index_tiebreak():
    rep = fake_frame([0.0, 0, 0, 0, 4.2, 1.9, 1.6, 0, 0, 0])
    near = boxed(0.5, 0.0)
    far = boxed(1.5, 0.0)
    loss, _ = training.window_loss([rep], [[(7, far), (3, near)]])
    assert math.isclose(float(loss), 0.5, rel_tol=1e-12)
    # exact tie goes to the earlier list entry
    left = boxed(-1.0, 0.0)
    right = boxed(1.0, 0.0, a=0.2)
    loss_tie, _ = training.window_loss([rep], [[(1, left), (2, right)]])
    assert math.isclose(float(loss_tie), 1.0, rel_tol=1e-12)


def test_loss_yaw_residual_crosses_angle_cut():
    gt = boxed(0.0, 0.0, a=-3.1)
    rep = fake_frame([0.0, 0, 0, 3.1, 4.2, 1.9, 1.6, 0, 0, 0])
    loss, _ = training.window_loss([rep], [[(0, gt)]])
    short_way = abs(wrap_angle(3.1 - (-3.1)))
    assert math.isclose(float(loss), short_way, rel_tol=1e-10)
    assert float(loss) < 0.1


def test_loss_none_when_nothing_qualifies():
    loss, n = training.window_loss([[]], [[(0, boxed(0, 0))]])
    assert loss is None and n == 0
    loss, n = training.window_loss([fake_frame([99] * 10)], [[(0, boxed(0, 0))]])
    assert loss is None and n == 0
    loss, n = training.window_loss([fake_frame([0] * 10)], [[]])
    assert loss is None and n == 0


def test_loss_averages_over_tracks_and_frames():
    gt = boxed(0.0, 0.0)
    r1 = fake_frame([1.0, 0, 0, 0, 4.2, 1.9, 1.6, 0, 0, 0])
    r2 = fake_frame([0.0, 0.5, 0, 0, 4.2, 1.9, 1.6, 0, 0, 0])
    loss, n = training.window_loss([r1, r2], [[(0, gt)], [(0, gt)]])
    assert n == 2
    assert math.isclose(float(loss), (1.0 + 0.5) / 2.0, rel_tol=1e-12)


def test_loss_reads_each_report_by_its_row():
    gt = boxed(0.0, 0.0)
    reports = fake_frame(*([d, 0, 0, 0, 4.2, 1.9, 1.6, 0, 0, 0] for d in (0.5, 3.0, 1.0)))
    loss, n = training.window_loss([reports[::-1]], [[(0, gt)]])
    assert n == 2 and float(loss) == (1.0 + 0.5) / 2.0
    loss, n = training.window_loss([reports[2:]], [[(0, gt)]])
    assert n == 1 and float(loss) == 1.0
    with pytest.raises(ValueError, match="share their frame"):
        training.window_loss([reports[:1] + fake_frame(reports[1].mean)], [[(0, gt)]])


def per_pair_window_loss(reports_per_frame, gt_per_frame, radius, center_mode):
    """Reference: the nearest ground truth found with one distance per (track, gt) pair."""
    terms = []
    for reported, gts in zip(reports_per_frame, gt_per_frame):
        for rt in reported:
            m = rt.mean
            dists = [math.hypot(m[0] - b.x, m[1] - b.y) if center_mode == "2d"
                     else math.sqrt((m[0] - b.x) ** 2 + (m[1] - b.y) ** 2 + (m[2] - b.z) ** 2)
                     for _gid, b in gts]
            if not dists or min(dists) > radius:
                continue
            target = np.array(gts[dists.index(min(dists))][1].to_vector())
            target[3] = m[3] - wrap_angle(m[3] - target[3])
            terms.append(np.sqrt(np.sum((m[:7] - target) ** 2)))
    return (sum(terms) / len(terms) if terms else None), len(terms)


def _clear_of_ties_and_radius(reports_per_frame, gt_per_frame, radius, center_mode,
                              margin=1e-6):
    for reported, gts in zip(reports_per_frame, gt_per_frame):
        for rt in reported:
            m = rt.mean
            d = sorted(math.hypot(m[0] - b.x, m[1] - b.y) if center_mode == "2d"
                       else math.dist(m[:3], (b.x, b.y, b.z)) for _gid, b in gts)
            if (d and abs(d[0] - radius) < margin) or (len(d) > 1 and d[1] - d[0] < margin):
                return False
    return True


@pytest.mark.parametrize("center_mode", ["3d", "2d"])
def test_loss_equals_the_per_pair_reference_on_random_scenes(center_mode):
    rng = np.random.default_rng(21)
    checked = supervised = 0
    while checked < 40:
        frames, truths = [], []
        for _ in range(rng.integers(1, 4)):
            gts = [(gid, boxed(*rng.uniform(-4.0, 4.0, 2), rng.uniform(-1.0, 1.0),
                               rng.uniform(-math.pi, math.pi)))
                   for gid in range(rng.integers(0, 7))]
            means = rng.uniform(-4.0, 4.0, (rng.integers(0, 9), 10))
            means[:, 2] = rng.uniform(-1.5, 1.5, len(means))
            means[:, 3] = rng.uniform(-math.pi, math.pi, len(means))
            frames.append(fake_frame(*means))
            truths.append(gts)
        if not _clear_of_ties_and_radius(frames, truths, 2.0, center_mode):
            continue
        checked += 1
        loss, n = training.window_loss(frames, truths, radius=2.0, center_mode=center_mode)
        want, want_n = per_pair_window_loss(frames, truths, 2.0, center_mode)
        assert n == want_n
        if want is None:
            assert loss is None
        else:
            assert math.isclose(float(loss), want, rel_tol=1e-12)
        supervised += n
    assert supervised > 40  # the scenes do exercise the gate and the nearest pick


@pytest.mark.parametrize("frames", [1, 3])
def test_loss_tape_nodes_do_not_grow_with_supervised_tracks(frames):
    gt = boxed(0.0, 0.0)
    counts = set()
    for tracks in (1, 4, 16):
        tape = ad.Tape()
        reports = []
        for _ in range(frames):
            means = tape.var([[0.1 * i, 0, 0, 0, 4.2, 1.9, 1.6, 0, 0, 0]
                              for i in range(tracks)])
            reports.append([ReportedTrack(i, None, 1.0, means, i) for i in range(tracks)])
        leaves = len(tape)
        _, n = training.window_loss(reports, [[(0, gt)]] * frames)
        assert n == tracks * frames
        counts.add(len(tape) - leaves)
    assert len(counts) == 1


def per_track_loss(reports_per_frame, gt_per_frame, radius=2.0):
    """Reference on the tape: one norm per supervised track, summed in order."""
    terms = []
    for reported, gts in zip(reports_per_frame, gt_per_frame):
        for rt in reported:
            m = ad.val(rt.mean)
            dists = [math.dist(m[:3], (b.x, b.y, b.z)) for _gid, b in gts]
            if not dists or min(dists) > radius:
                continue
            target = gts[dists.index(min(dists))][1].to_vector()
            target[3] = m[3] - wrap_angle(m[3] - target[3])
            terms.append(ad.sqrt(ad.asum(ad.square(ad.sub(rt.mean[0:7], target)))))
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    return ad.div(total, float(len(terms))), len(terms)


def window_graph(seed):
    """A window's graph on a fresh tape: the tracker's reports over
    `tiny_scenario()` with `fresh_params(small_net(), seed)` lifted. The
    backward sweep consumes a graph, so each sweep needs its own."""
    frames = sim.generate(tiny_scenario())
    tape = ad.Tape()
    params = fresh_params(small_net(), seed)
    lifted = {cav: p.lift(tape) for cav, p in params.items()}
    tracker = tracker_from_settings(
        TrackerSettings(), LearnedCovariance({cav: (lifted[cav], small_net()) for cav in lifted}))
    reports = [tracker.step(packets_from_sim_frame(f)) for f in frames]
    return tape, lifted, reports, [f.gt for f in frames]


def leaf_gradient_bytes(lifted):
    return [ad.grad_of(node).tobytes() for cav in sorted(lifted)
            for _name, node in sorted(lifted[cav].items())]


def test_batched_loss_gradient_bits_equal_the_per_track_reference():
    grads = []
    for loss_fn in (training.window_loss, per_track_loss):
        tape, lifted, reports, truths = window_graph(1)
        loss, n = loss_fn(reports, truths)
        tape.backward(loss)
        grads.append((float(ad.val(loss)), n, leaf_gradient_bytes(lifted)))
    (batched, n, got), (reference, want_n, want) = grads
    assert n == want_n > 10
    assert math.isclose(batched, reference, rel_tol=1e-14)
    assert got == want


def test_a_second_backward_gives_the_same_gradients_as_isolated_adjoints():
    """Gradients may share memory (`Tape.backward` stores first gradients as
    given); no adjoint may write into one. Sweep the window's graph, a
    second graph built afresh from the same seed, and a third whose every
    adjoint is fed its own copy and made to return a fresh array: all
    three give every leaf the same bits."""

    def gradient_bytes(isolate):
        tape, lifted, reports, truths = window_graph(2)
        loss, n = training.window_loss(reports, truths)
        assert n > 10
        nodes, reached = list(tape._nodes), set()

        def isolated(node, adjoint):
            def run(g):
                reached.add(id(node))
                return np.array(adjoint(np.array(g)))
            return run

        if isolate:
            for node in nodes:
                node._adjoints = tuple(isolated(node, adjoint) for adjoint in node._adjoints)
        tape.backward(loss)
        reached.update(id(node) for node in nodes if node.is_leaf and node.grad is not None)
        return leaf_gradient_bytes(lifted), len(reached), len(nodes)

    first, _, _ = gradient_bytes(False)
    assert gradient_bytes(False)[0] == first
    isolated, reached, nodes = gradient_bytes(True)
    assert isolated == first
    assert reached > nodes // 2


def test_the_backward_sweep_adds_less_than_twice_the_leaf_gradients():
    """The sweep frees each adjoint and non-leaf gradient once it has run,
    so at its peak it holds little beyond the leaf gradients it returns."""
    tracemalloc.start()
    try:
        tape, lifted, reports, truths = window_graph(1)
        loss, _ = training.window_loss(reports, truths)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(loss)
        added = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    leaf_bytes = sum(ad.grad_of(node).nbytes for nodes in lifted.values()
                     for node in nodes.values())
    assert added < 2 * leaf_bytes


# --- the window's network passes -------------------------------------------------


def silence(frames, cav, timesteps):
    """`frames` with vehicle `cav`'s packets emptied at the given timesteps."""
    return [dataclasses.replace(f, detections={**f.detections, cav: []})
            if f.timestep in timesteps else f for f in frames]


def window_rollout(frames, params_by_cav, window, monkeypatch):
    """Rows, loss gradients and network passes of one window on a fresh tape,
    the rows from one pass over the whole window (`training._WindowRows`)
    if `window`, else from each frame's passes.

    Returns ({(t, cav): rows}, {(cav, name): gradient}, {cav: [rows per
    pass]}); a shared parameter set is lifted once, and its gradients and
    passes are keyed by its owner (`set_owners`).
    """
    passes, real = {}, covnet.forward

    def counting(params, f_app, f_pos):
        passes.setdefault(cav_of[id(params.arrays)], []).append(len(f_pos))
        return real(params, f_app, f_pos)

    monkeypatch.setattr(covnet, "forward", counting)
    tape = ad.Tape()
    owners = set_owners(params_by_cav)
    lifted = {cav: params_by_cav[cav].lift(tape) for cav in dict.fromkeys(owners.values())}
    provider = LearnedCovariance({cav: (lifted[owner], params_by_cav[cav].config)
                                  for cav, owner in owners.items()})
    # a set's arrays -> its owner
    cav_of = {id(provider.params_by_cav[cav].arrays): owner for cav, owner in owners.items()}
    frame_packets = [packets_from_sim_frame(f) for f in frames]
    if window:
        packets = [p for frame in frame_packets for p in frame]
        provider = training._WindowRows(packets, provider.noise_rows(packets))
    rows = {(p.timestep, p.cav_id): ad.val(provider.noise_rows([p])[0])
            for packets in frame_packets for p in packets if p.detections}
    tracker = tracker_from_settings(TrackerSettings(), provider)
    reports = [tracker.step(packets) for packets in frame_packets]
    loss, supervised = training.window_loss(reports, [f.gt for f in frames])
    assert supervised > 0
    tape.backward(loss)
    monkeypatch.undo()
    grads = {(cav, name): ad.grad_of(node)
             for cav, nodes in lifted.items() for name, node in nodes.items()}
    return rows, grads, passes


@pytest.mark.parametrize("case", ["gaps", "silent", "shared"])
def test_window_rows_and_gradients_equal_the_streamed_ones(case, monkeypatch):
    frames = sim.generate(tiny_scenario())
    quiet = range(8) if case == "silent" else (1, 2, 5)
    frames = silence(frames, 1, quiet)
    rng = np.random.default_rng(4)
    if case == "shared":
        shared = CovNetParams.init(small_net(), rng)
        params = {0: shared, 1: shared}
    else:
        params = {cav: CovNetParams.init(small_net(), rng) for cav in (0, 1)}
    rows, grads, passes = window_rollout(frames, params, True, monkeypatch)
    want_rows, want_grads, streamed = window_rollout(frames, params, False, monkeypatch)
    count = {cav: sum(len(f.detections[cav]) for f in frames) for cav in (0, 1)}
    assert passes == {"gaps": {0: [count[0]], 1: [count[1]]}, "silent": {0: [count[0]]},
                      "shared": {0: [count[0] + count[1]]}}[case]
    assert sum(map(len, streamed.values())) > sum(map(len, passes.values()))
    assert rows.keys() == want_rows.keys()
    for key, want in want_rows.items():
        np.testing.assert_allclose(rows[key], want, rtol=1e-12, atol=0)
    assert grads.keys() == want_grads.keys()
    for key, want in want_grads.items():
        scale = np.max(np.abs(want))
        assert np.max(np.abs(grads[key] - want)) <= 1e-10 * scale
        if case == "silent" and key[0] == 1:
            assert scale == 0.0 and not np.any(grads[key])
        else:
            assert scale > 0.0


def test_a_clipped_window_steps_as_scaled_copies_would(monkeypatch):
    frames = sim.generate(tiny_scenario())
    cfg = small_run_config(train=TrainSettings(window_length=4, epochs=2, grad_clip_norm=1e-3))
    real_step = training.adam_step
    scales = []

    def scaled_copies(param_sets, grads, state, lr, weight_decay, scale=1.0):
        scales.append(scale)
        real_step(param_sets, {key: g * scale for key, g in grads.items()}, state, lr,
                  weight_decay)

    runs = []
    for step in (real_step, scaled_copies):
        monkeypatch.setattr(training, "adam_step", step)
        result = training.train(frames, fresh_params(small_net(), 1), cfg.train, cfg.tracker)
        runs.append((param_bytes(result.params_by_cav),
                     [(m.tobytes(), result.adam.v[key].tobytes())
                      for key, m in result.adam.m.items()]))
    assert runs[0] == runs[1]
    assert len(scales) == 4 and all(0.0 < scale < 1.0 for scale in scales)


def test_the_provider_keeps_no_state_between_calls():
    frames = silence(sim.generate(tiny_scenario()), 1, (2,))
    rng = np.random.default_rng(4)
    params = {cav: CovNetParams.init(small_net(), rng) for cav in (0, 1)}
    provider = LearnedCovariance(params)
    before = {name: copy.copy(value) for name, value in vars(provider).items()}
    provider.noise_rows([p for f in frames[:4] for p in packets_from_sim_frame(f)])
    frame = packets_from_sim_frame(frames[4])
    got = provider.noise_rows(frame)
    assert vars(provider) == before
    want = LearnedCovariance(params).noise_rows(frame)
    assert [rows.tobytes() for rows in got] == [rows.tobytes() for rows in want]


def test_train_runs_the_network_once_per_vehicle_per_window(monkeypatch):
    frames = silence(sim.generate(tiny_scenario()), 1, range(4, 8))
    cfg = small_run_config(train=TrainSettings(window_length=4, epochs=1))
    passes, real = [], covnet.forward

    def counting(params, f_app, f_pos, **parts):
        passes.append(len(f_pos))
        return real(params, f_app, f_pos, **parts)

    monkeypatch.setattr(covnet, "forward", counting)
    runs = []
    for _ in range(2):
        passes.clear()
        result = training.train(frames, fresh_params(small_net(), 1), cfg.train, cfg.tracker)
        runs.append(param_bytes(result.params_by_cav))
    # window 0: both vehicles; window 1: vehicle 1 sees nothing and takes no pass
    rows = [sum(len(f.detections[cav]) for f in frames[w:w + 4])
            for w, cav in ((0, 0), (0, 1), (4, 0))]
    assert passes == rows and min(rows) > 4
    assert result.adam.step == 2
    assert runs[0] == runs[1]


def test_a_window_builds_each_packets_rows_once(monkeypatch):
    frames = silence(sim.generate(tiny_scenario()), 1, range(4, 8))
    cfg = small_run_config(train=TrainSettings(window_length=4, epochs=3))
    built, real_rows = [], pipeline.box_rows

    def counting(boxes):
        rows = real_rows(boxes)
        built.append(rows.tobytes())
        return rows

    monkeypatch.setattr(pipeline, "box_rows", counting)
    result = training.train(frames, fresh_params(small_net(), 1), cfg.train, cfg.tracker)
    assert result.epochs_done == 3
    # one build per packet of each window in the whole run, the empty ones
    # included: every epoch's noise rows and steps read the same packets
    want = [real_rows(d.box for d in p.detections).tobytes()
            for f in frames for p in packets_from_sim_frame(f)]
    assert len(training.split_subsequences(frames, 4)) * 4 == len(frames)
    assert sorted(built) == sorted(want)


@pytest.mark.parametrize("shared", [False, True])
def test_a_window_maps_each_pass_to_noise_once(shared, monkeypatch):
    frames = silence(sim.generate(tiny_scenario()), 1, range(4, 8))
    cfg = small_run_config(train=TrainSettings(window_length=4, epochs=1))
    params = fresh_params(small_net(), 1)
    if shared:
        params = {0: params[0], 1: params[0]}
    passes, mapped = [], []
    real_forward, real_map = covnet.forward, covnet.residual_to_noise_diag

    def forward(params, f_app, f_pos):
        passes.append(real_forward(params, f_app, f_pos))
        return passes[-1]

    def noise_map(sigma_residual):
        mapped.append(sigma_residual)
        return real_map(sigma_residual)

    monkeypatch.setattr(covnet, "forward", forward)
    monkeypatch.setattr(covnet, "residual_to_noise_diag", noise_map)
    training.train(frames, params, cfg.train, cfg.tracker)
    # window 0: one pass per set; window 1: vehicle 1 sees nothing
    assert len(passes) == (2 if shared else 3)
    assert len(mapped) == len(passes) and all(m is p for m, p in zip(mapped, passes))


# --- gradient clipping ----------------------------------------------------------


def test_clip_rescales_to_unit_global_norm():
    grads = {("a", "w"): np.array([3.0, 0.0]), ("b", "w"): np.array([[4.0]])}
    scale, norm = training.clip_gradients(grads, 1.0)
    assert math.isclose(norm, 5.0, rel_tol=1e-12)
    assert scale == 1.0 / norm
    clipped = {key: g * scale for key, g in grads.items()}
    assert np.allclose(clipped[("a", "w")], [0.6, 0.0])
    assert np.allclose(clipped[("b", "w")], [[0.8]])
    total = training.global_grad_norm(clipped)
    assert math.isclose(total, 1.0, rel_tol=1e-12)


def test_clip_leaves_small_gradients_alone():
    grads = {("a", "w"): np.array([0.3, 0.4])}
    scale, norm = training.clip_gradients(grads, 1.0)
    assert math.isclose(norm, 0.5, rel_tol=1e-12)
    assert scale == 1.0


def test_clip_zero_gradients_noop():
    grads = {("a", "w"): np.zeros(3)}
    scale, norm = training.clip_gradients(grads, 1.0)
    assert norm == 0.0
    assert scale == 1.0


# --- Adam -----------------------------------------------------------------------


def reference_adam(w0, gs, lr, wd, steps):
    """Independent Adam with L2-in-gradient decay, written step by step."""
    w = np.array(w0, dtype=float)
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t in range(1, steps + 1):
        g = np.array(gs[t - 1], dtype=float) + wd * w
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return w


def test_adam_two_steps_match_reference():
    w0 = np.array([0.5, -1.2, 2.0])
    gs = [np.array([0.1, -0.3, 0.02]), np.array([-0.05, 0.2, 0.4])]
    lr, wd = 1e-3, 1e-5

    params = SimpleNamespace(arrays={"w": w0.copy()})
    sets = {0: params}
    state = training.AdamState.init(sets)
    for g in gs:
        training.adam_step(sets, {(0, "w"): g}, state, lr, wd)
    expected = reference_adam(w0, gs, lr, wd, 2)
    assert state.step == 2
    np.testing.assert_allclose(params.arrays["w"], expected, rtol=0, atol=1e-15)


def test_adam_bias_correction_first_step():
    # with zero decay the first step moves by almost exactly lr per entry
    w0 = np.array([0.0, 0.0])
    params = SimpleNamespace(arrays={"w": w0.copy()})
    sets = {0: params}
    state = training.AdamState.init(sets)
    training.adam_step(sets, {(0, "w"): np.array([0.7, -0.2])}, state, 1e-3, 0.0)
    np.testing.assert_allclose(params.arrays["w"], [-1e-3, 1e-3], rtol=1e-6)


def textbook_adam_step(param_sets, grads, state, lr, weight_decay):
    """Reference: `adam_step` written as out-of-place expressions."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - training.ADAM_BETA1 ** t
    bc2 = 1.0 - training.ADAM_BETA2 ** t
    for cav, params in param_sets.items():
        for name, arr in params.arrays.items():
            key = (cav, name)
            g = grads[key] + weight_decay * arr
            m = state.m[key] = training.ADAM_BETA1 * state.m[key] + (1.0 - training.ADAM_BETA1) * g
            v = state.v[key] = (training.ADAM_BETA2 * state.v[key]
                                + (1.0 - training.ADAM_BETA2) * (g * g))
            arr -= lr * (m / bc1) / (np.sqrt(v / bc2) + training.ADAM_EPS)


@pytest.mark.parametrize("sets", ["per_vehicle", "shared", "three_sets"])
def test_adam_step_gives_the_bits_of_the_textbook_expressions(sets):
    rng = np.random.default_rng(17)
    if sets == "shared":
        one = CovNetParams.init(small_net(), rng)
        params = {0: one}
    else:
        params = fresh_params(small_net(), 17, num_cavs=3 if sets == "three_sets" else 2)
    want = copy.deepcopy(params)
    state, want_state = training.AdamState.init(params), training.AdamState.init(want)
    moments = {key: (state.m[key], state.v[key]) for key in state.m}
    size = sum(arr.size for p in params.values() for arr in p.arrays.values())
    clipped = 0
    for step in range(6):
        scale = (0.3, 3.0)[step % 2] / math.sqrt(size)  # global norms near 0.3 and 3
        grads = {(cav, name): rng.standard_normal(arr.shape) * scale
                 for cav, p in params.items() for name, arr in p.arrays.items()}
        factor, norm = training.clip_gradients(grads, 1.0)
        clipped += norm > 1.0
        before = {key: g.copy() for key, g in grads.items()}
        for g in grads.values():
            g.flags.writeable = False
        training.adam_step(params, grads, state, 1e-2, 1e-3, factor)
        # the reference steps with the scaled copies an unfused clip would make
        textbook_adam_step(want, {key: g * factor for key, g in before.items()}, want_state,
                           1e-2, 1e-3)
        assert all(np.array_equal(g, before[key]) for key, g in grads.items())
        assert state.step == want_state.step == step + 1
        assert param_bytes(params) == param_bytes(want)
        for key, (m, v) in moments.items():
            assert state.m[key] is m and state.v[key] is v
            assert m.tobytes() == want_state.m[key].tobytes()
            assert v.tobytes() == want_state.v[key].tobytes()
    assert 0 < clipped < 6


def test_adam_state_init_covers_all_params():
    cfg = small_net()
    rng = np.random.default_rng(0)
    sets = {0: CovNetParams.init(cfg, rng), 1: CovNetParams.init(cfg, rng)}
    state = training.AdamState.init(sets)
    assert set(state.m) == {(cav, name) for cav in (0, 1)
                            for name in sets[cav].arrays}
    for key, arr in state.m.items():
        assert arr.shape == sets[key[0]].arrays[key[1]].shape
        assert np.all(arr == 0.0) and np.all(state.v[key] == 0.0)


# --- end-to-end training behavior -------------------------------------------------


def fresh_params(cfg_net, seed, num_cavs=2):
    rng = np.random.default_rng(seed)
    return {cav: CovNetParams.init(cfg_net, rng) for cav in range(num_cavs)}


def param_bytes(params_by_cav):
    return b"".join(params_by_cav[cav].arrays[name].tobytes()
                    for cav in sorted(params_by_cav)
                    for name in sorted(params_by_cav[cav].arrays))


def test_train_updates_params_and_logs_curve():
    frames = sim.generate(tiny_scenario())
    cfg = small_run_config()
    params = fresh_params(small_net(), 1)
    before = param_bytes(params)
    result = training.train(frames, params, cfg.train, cfg.tracker)
    assert param_bytes(result.params_by_cav) != before
    assert result.epochs_done == cfg.train.epochs
    windows = len(frames) // cfg.train.window_length
    assert len(result.loss_curve) == cfg.train.epochs * windows
    for entry in result.loss_curve:
        assert entry["supervised"] > 0
        assert math.isfinite(entry["loss"])
    assert result.adam.step == len(result.loss_curve)


def test_train_is_deterministic():
    frames = sim.generate(tiny_scenario())
    cfg = small_run_config()
    runs = []
    for _ in range(2):
        params = fresh_params(small_net(), 1)
        result = training.train(frames, params, cfg.train, cfg.tracker)
        runs.append(param_bytes(result.params_by_cav))
    assert runs[0] == runs[1]


def test_train_resume_matches_uninterrupted():
    frames = sim.generate(tiny_scenario())
    net = small_net()
    full_cfg = small_run_config(train=TrainSettings(window_length=4, epochs=4))
    half_cfg = small_run_config(train=TrainSettings(window_length=4, epochs=2))

    params_full = fresh_params(net, 1)
    full = training.train(frames, params_full, full_cfg.train, full_cfg.tracker)

    params_half = fresh_params(net, 1)
    half = training.train(frames, params_half, half_cfg.train, half_cfg.tracker)
    resumed = training.train(frames, half.params_by_cav, full_cfg.train,
                             full_cfg.tracker, adam=half.adam,
                             epochs_done=half.epochs_done)

    assert param_bytes(full.params_by_cav) == param_bytes(resumed.params_by_cav)
    assert full.adam.step == resumed.adam.step
    for key in full.adam.m:
        assert full.adam.m[key].tobytes() == resumed.adam.m[key].tobytes()
        assert full.adam.v[key].tobytes() == resumed.adam.v[key].tobytes()
    # second half of the loss curve lines up with the uninterrupted run
    tail = [e["loss"] for e in full.loss_curve[len(half.loss_curve):]]
    assert tail == [e["loss"] for e in resumed.loss_curve]


def test_train_skips_step_when_window_unsupervised():
    # sensors see nothing: no tracks form, every window logs zero loss and
    # the optimizer never steps
    scenario = tiny_scenario()
    blind = sim.SensorModel(max_range=0.5)
    scenario = sim.Scenario(duration=scenario.duration, objects=scenario.objects,
                            cavs=tuple(sim.CavSpec(poses=c.poses, sensor=blind)
                                       for c in scenario.cavs),
                            seed=scenario.seed)
    frames = sim.generate(scenario)
    assert all(not dets for f in frames for dets in f.detections.values())
    cfg = small_run_config()
    params = fresh_params(small_net(), 1)
    before = copy.deepcopy({c: p.arrays for c, p in params.items()})
    result = training.train(frames, params, cfg.train, cfg.tracker)
    assert result.adam.step == 0
    for entry in result.loss_curve:
        assert entry["loss"] == 0.0 and entry["supervised"] == 0
    for cav, arrays in before.items():
        for name, arr in arrays.items():
            assert np.array_equal(result.params_by_cav[cav].arrays[name], arr)


def test_exact_hits_give_a_zero_loss_gradient_not_nan(monkeypatch):
    # noiseless sensors on a static scene: every supervised box equals its truth
    norms, real = [], training.clip_gradients

    def spy(grads, max_norm):
        scale, norm = real(grads, max_norm)
        norms.append(norm)
        return scale, norm

    monkeypatch.setattr(training, "clip_gradients", spy)
    objects = tuple(sim.constant_turn_trajectory((x0, y0), 0.0, 0.0, 0.0, 0.0, EXTENTS, 10)
                    for x0, y0 in ((8.0, 0.0), (14.0, 3.5), (20.0, -3.5)))
    sensor = sim.SensorModel(base_std=(0.0,) * 7)
    cavs = tuple(sim.CavSpec(poses=sim.straight_pose_track(start, 0.0, 0.0, 10), sensor=sensor)
                 for start in ((0.0, 0.0), (2.0, -4.0)))
    frames = sim.generate(sim.Scenario(duration=10, objects=objects, cavs=cavs, seed=5))
    cfg = small_run_config(train=TrainSettings(window_length=10, epochs=1))
    result = training.train(frames, fresh_params(small_net(), 1), cfg.train, cfg.tracker)
    assert result.loss_curve == [{"epoch": 0, "window": 0, "loss": 0.0, "supervised": 30}]
    assert norms == [0.0] and result.adam.step == 1
    for params in result.params_by_cav.values():
        assert all(np.all(np.isfinite(arr)) for arr in params.arrays.values())


def test_non_finite_gradient_norm_raises_before_adam_moves(monkeypatch):
    real = training.clip_gradients

    def poisoned(grads, max_norm):
        key = next(iter(grads))
        return real({**grads, key: grads[key] * np.nan}, max_norm)

    monkeypatch.setattr(training, "clip_gradients", poisoned)
    frames = sim.generate(tiny_scenario())
    cfg = small_run_config()
    params = fresh_params(small_net(), 1)
    before = param_bytes(params)
    adam = training.AdamState.init(params)
    with pytest.raises(FloatingPointError, match="gradient norm nan in epoch 0, window 0"):
        training.train(frames, params, cfg.train, cfg.tracker, adam=adam)
    assert param_bytes(params) == before
    assert adam.step == 0
    assert all(np.all(m == 0.0) for m in adam.m.values())
    assert all(np.all(v == 0.0) for v in adam.v.values())


@pytest.mark.parametrize("blind", [False, True], ids=["stepped", "skipped"])
def test_each_window_graph_is_freed_without_the_cycle_collector(monkeypatch, blind):
    refs = []

    class RecordingTape(ad.Tape):
        def var(self, value):
            node = super().var(value)
            refs.append(weakref.ref(node))
            return node

    monkeypatch.setattr(ad, "Tape", RecordingTape)
    scenario = tiny_scenario()
    if blind:
        blind_sensor = sim.SensorModel(max_range=0.5)
        scenario = sim.Scenario(duration=scenario.duration, objects=scenario.objects,
                                cavs=tuple(sim.CavSpec(poses=c.poses, sensor=blind_sensor)
                                           for c in scenario.cavs),
                                seed=scenario.seed)
    frames = sim.generate(scenario)
    cfg = small_run_config()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = training.train(frames, fresh_params(small_net(), 1), cfg.train, cfg.tracker)
        assert refs and all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()
    assert result.adam.step == (0 if blind else len(result.loss_curve))


@pytest.mark.parametrize("caller_gc, loss_shift", [(True, 0.0), (False, 0.0), (True, math.inf)],
                         ids=["gc-on", "gc-off", "raises"])
def test_train_pauses_the_cycle_collector_and_restores_the_callers_state(
        monkeypatch, caller_gc, loss_shift):
    seen, real = [], training.window_loss

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        loss, supervised = real(*args, **kwargs)
        return (loss if loss is None else ad.add(loss, loss_shift)), supervised

    monkeypatch.setattr(training, "window_loss", spy)
    frames = sim.generate(tiny_scenario())
    cfg = small_run_config()
    enabled = gc.isenabled()
    (gc.enable if caller_gc else gc.disable)()
    try:
        if math.isinf(loss_shift):
            with pytest.raises(FloatingPointError, match="non-finite loss"):
                training.train(frames, fresh_params(small_net(), 1), cfg.train, cfg.tracker)
        else:
            training.train(frames, fresh_params(small_net(), 1), cfg.train, cfg.tracker)
        assert gc.isenabled() is caller_gc
    finally:
        (gc.enable if enabled else gc.disable)()
    assert seen and not any(seen)


def test_train_shared_weights_updates_single_set():
    frames = sim.generate(tiny_scenario())
    cfg = small_run_config()
    rng = np.random.default_rng(3)
    shared = CovNetParams.init(small_net(), rng)
    params = {0: shared, 1: shared}
    result = training.train(frames, params, cfg.train, cfg.tracker)
    assert result.params_by_cav[0] is result.params_by_cav[1]
    assert {cav for cav, _name in result.adam.m} == {0}


def test_aliased_arrays_train_bit_for_bit_like_one_shared_set():
    # two CovNetParams holding one arrays mapping are one set (`set_owners`): it used to
    # be stepped twice per window, with Adam moments kept under both vehicles
    frames = sim.generate(tiny_scenario())
    cfg = small_run_config()
    one = CovNetParams.init(small_net(), np.random.default_rng(3))
    twin = copy.deepcopy(one)
    aliased = training.train(frames, {0: one, 1: CovNetParams(one.config, one.arrays)},
                             cfg.train, cfg.tracker)
    shared = training.train(frames, {0: twin, 1: twin}, cfg.train, cfg.tracker)
    assert aliased.params_by_cav[1].arrays is one.arrays
    assert param_bytes(aliased.params_by_cav) == param_bytes(shared.params_by_cav)
    assert list(aliased.adam.m) == list(shared.adam.m) == [(0, name) for name in one.arrays]
    assert aliased.adam.step == shared.adam.step == len(shared.loss_curve) > 0
    for key in shared.adam.m:
        assert aliased.adam.m[key].tobytes() == shared.adam.m[key].tobytes()
        assert aliased.adam.v[key].tobytes() == shared.adam.v[key].tobytes()
    assert aliased.loss_curve == shared.loss_curve


def test_init_params_for_run_honors_sharing_flag():
    cfg = small_run_config()
    rng = np.random.default_rng(0)
    separate = training.init_params_for_run(cfg, rng)
    assert separate[0] is not separate[1]

    shared_cfg = small_run_config(
        covnet=NetSettings(conv_channels=(4, 8), pos_hidden=8, pos_out=32,
                           head_hidden=8, shared_weights=True))
    rng = np.random.default_rng(0)
    shared = training.init_params_for_run(shared_cfg, rng)
    assert shared[0] is shared[1]


def test_each_vehicles_initial_set_is_the_fold_of_its_own_full_width_draw():
    # the vehicles' sets come from one generator in turn, so each set's
    # full-width draw leaves it where the next set's draw starts
    cfg = small_run_config()
    net_cfg = cfg.covnet.covnet_config()
    params = training.init_params_for_run(cfg, np.random.default_rng(3))
    spec = np.random.default_rng(3)
    for cav in (0, 1):
        want = package_params(net_cfg, full_width_arrays(net_cfg, spec))
        assert list(params[cav].arrays) == list(want.arrays)
        assert all(params[cav].arrays[name].tobytes() == arr.tobytes()
                   for name, arr in want.arrays.items())


def test_train_builds_its_trackers_from_the_tracker_settings(monkeypatch):
    frames = sim.generate(tiny_scenario())
    cfg = small_run_config()
    built = []
    real = training.tracker_from_settings

    def spy(settings, provider):
        tracker = real(settings, provider)
        built.append((settings, tracker))
        return tracker

    monkeypatch.setattr(training, "tracker_from_settings", spy)
    settings = TrackerSettings(process_noise_velocity=0.05, assoc_iou_threshold=0.3,
                               min_hits=2)
    training.train(frames, fresh_params(small_net(), 1), cfg.train, settings)
    assert len(built) == cfg.train.epochs * (len(frames) // cfg.train.window_length)
    for passed, tracker in built:
        assert passed is settings and tracker.lifecycle is settings
        assert tracker.assoc_iou_threshold == 0.3
        assert tracker.process.Q[7, 7] == 0.05
