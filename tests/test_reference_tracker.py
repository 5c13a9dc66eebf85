"""Differential test: `CoopTracker` against a plain reference tracker.

The reference is the tracker the README describes, written out the slow
way, with none of `CoopTracker`'s fast paths: one `TrackState` per track
and one `filter.update` per matched detection (no bank), `iou3d` on every
track-detection pair (no prescreen), one `hungarian_solve` per vehicle
round, the lifecycle rules spelled out here rather than taken from
`association`, and one network pass per packet on its full (N, 18 x 256)
sinusoidal encoding and full-width weights drawn here, one vehicle after
another; `CoopTracker` is given those weights folded into the Chebyshev
basis.
Both trackers run the same drawn scenes with constant and with seeded
learned observation noise; ids, births, kills and skipped updates must be
equal, and boxes, scores and means agree within `TOL`.

A scene whose association, on the reference's own beliefs, sits within
`TIE` of a tie (two assignments whose kept pairs differ, or an IoU at the
threshold) is set aside: there, the last bits of a belief may pick either
side.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cooptrack import autodiff as ad
from cooptrack import sim
from cooptrack.association import hungarian_solve
from cooptrack.covnet import CovNetConfig, CovNetParams
from cooptrack.features import encode_detection
from cooptrack.filter import (OBS_DIM, R_FLOOR, STATE_DIM, DegenerateCovariance,
                              ObservationModel, ProcessModel, TrackState, observation_matrix,
                              predict, update)
from cooptrack.geometry import (Box7, PoseYawT, box_rows, inverse_pose, iou3d, transform_box,
                                wrap_angle)
from cooptrack.io import TrackerSettings
from cooptrack.pipeline import ConstantCovariance, CoopTracker, FramePacket, LearnedCovariance
from test_covnet import full_width_arrays, package_params

TOL = 1e-9  # boxes, scores and means: absolute, in metres, radians and score units
TIE = 1e-9  # an association this close to a tie is set aside


def _total(cost, pairs) -> float:
    return sum(cost[r, c] for r, c in pairs)


def tie_gap(cost, threshold: float) -> float:
    """How far a round's kept pairs are from changing: the smallest distance
    of an IoU from the threshold, and of the optimum from the best
    assignment that leaves out one of its pairs above the threshold or takes
    in one it left out."""
    if cost.size == 0:
        return math.inf
    gap = float(np.min(np.abs(-cost - threshold)))
    chosen = set(hungarian_solve(cost))
    best = _total(cost, chosen)
    big = max(cost.shape) + 1.0
    for r, c in zip(*np.nonzero(-cost >= threshold)):
        pair = (int(r), int(c))
        other = cost.copy()
        other[pair] = big if pair in chosen else -big
        pairs = hungarian_solve(other)
        if (pair in pairs) != (pair in chosen):
            gap = min(gap, _total(cost, pairs) - best)
    return gap


def test_tie_gap_sees_ties_and_the_threshold():
    assert tie_gap(np.array([[-0.5, -0.5], [-0.5, -0.5]]), 0.1) == 0.0  # either pairing
    assert tie_gap(np.array([[-0.6, -0.2], [-0.3, -0.5]]), 0.1) == pytest.approx(0.1)
    assert tie_gap(np.array([[-0.6, 0.0], [-0.1, 0.0]]), 0.1) == 0.0  # an IoU at the threshold
    # the optimum leaves out a pair above the threshold, by 0.03 of the total
    assert tie_gap(np.array([[-0.5, -0.45], [-0.02, 0.0]]), 0.1) == pytest.approx(0.03)
    assert tie_gap(np.zeros((0, 3)), 0.1) == math.inf


@dataclasses.dataclass
class _Track:
    id: int
    state: TrackState
    score: float
    hits: int = 0
    misses: int = 0
    age: int = 0


def full_width_network(params: CovNetParams, f_app, f_pos) -> np.ndarray:
    """The covariance network as the README specifies it: the appearance
    convolutions, and the (N, 18, 256) encodings `f_pos` as (N, 4608) rows
    times the full-width (18 x 256, hidden) `pos.lin1.w`; (N, 10) residual rows."""
    cfg, arr = params.config, params.arrays
    n = len(f_pos)
    a = f_app
    for i in range(1, len(cfg.conv_channels) + 1):
        a = np.maximum(ad.conv2d(a, arr[f"app.conv{i}.w"], arr[f"app.conv{i}.b"],
                                 stride=cfg.stride, pad=cfg.pad), 0.0)
    x = np.maximum(np.reshape(f_pos, (n, -1)) @ arr["pos.lin1.w"] + arr["pos.lin1.b"], 0.0)
    x = np.maximum(x @ arr["pos.lin2.w"] + arr["pos.lin2.b"], 0.0)
    h = np.concatenate([np.reshape(a, (n, -1)), x], axis=1)
    h = np.maximum(h @ arr["head.lin1.w"] + arr["head.lin1.b"], 0.0)
    return h @ arr["head.lin2.w"] + arr["head.lin2.b"]


class ReferenceTracker:
    """The README's tracker, one track and one detection at a time."""

    def __init__(self, params_by_cav=None, settings=TrackerSettings()):
        self.params_by_cav = params_by_cav
        self.settings = settings
        self.process = ProcessModel.constant_velocity(settings.process_noise_velocity)
        self.tracks = []
        self.next_id = 0
        self.skipped = 0
        self.gap = math.inf  # the smallest tie gap of any round so far

    def residuals(self, packet) -> np.ndarray:
        """The packet's (N, 10) residual rows: zero, or its own network pass."""
        n = len(packet.detections)
        if self.params_by_cav is None or n == 0:
            return np.zeros((n, STATE_DIM))
        f_pos = encode_detection(box_rows(d.box for d in packet.detections), packet.pose)
        f_app = np.stack([d.appearance for d in packet.detections])
        return full_width_network(self.params_by_cav[packet.cav_id], f_app, f_pos)

    def step(self, packets) -> list:
        """One timestep; returns (id, box, score, mean) for each reported track."""
        cfg = self.settings
        matched = set()  # ids matched (or born) this timestep
        for packet in sorted(packets, key=lambda p: p.cav_id):
            sigmas = self.residuals(packet)
            dets = [transform_box(d.box, packet.pose) for d in packet.detections]
            cost = np.zeros((len(self.tracks), len(dets)))
            for i, track in enumerate(self.tracks):
                box = Box7.from_vector(track.state.mean[:OBS_DIM])
                for j, det in enumerate(dets):
                    cost[i, j] = -iou3d(box, det)
            self.gap = min(self.gap, tie_gap(cost, cfg.assoc_iou_threshold))
            used = set()
            for i, j in hungarian_solve(cost):
                if -cost[i, j] < cfg.assoc_iou_threshold:
                    continue
                track, used = self.tracks[i], used | {j}
                r_diag = np.maximum((1.0 + sigmas[j, :OBS_DIM]) ** 2, R_FLOOR)
                try:
                    track.state = update(track.state, dets[j].to_vector(),
                                         ObservationModel(observation_matrix(), r_diag))
                except DegenerateCovariance:
                    self.skipped += 1  # keeps its prediction, and still counts as matched
                confidence = packet.detections[j].confidence
                track.score = max(track.score, confidence) if track.id in matched else confidence
                matched.add(track.id)
            for j, det in enumerate(dets):
                if j in used:
                    continue
                mean = np.concatenate([det.to_vector(), np.zeros(STATE_DIM - OBS_DIM)])
                cov = np.diag(np.maximum((1.0 + sigmas[j]) ** 2, R_FLOOR))
                self.tracks.append(_Track(self.next_id, TrackState(mean, cov),
                                          packet.detections[j].confidence))
                matched.add(self.next_id)
                self.next_id += 1

        for track in self.tracks:
            if track.id in matched:
                track.hits, track.misses = track.hits + 1, 0
            else:
                track.misses += 1
                track.score *= cfg.score_decay
        self.tracks = [t for t in self.tracks if t.misses <= cfg.max_age]
        reports = [(t.id, Box7.from_vector(t.state.mean[:OBS_DIM]), t.score, t.state.mean)
                   for t in self.tracks if t.hits >= cfg.min_hits or t.age < cfg.min_hits]
        for track in self.tracks:
            track.state = predict(track.state, self.process)
            track.age += 1
        return reports


NET = CovNetConfig(conv_channels=(4, 8), pos_hidden=8, pos_out=32, head_hidden=8)
FULL_WIDTH_NETS = [CovNetParams(NET, full_width_arrays(NET, np.random.default_rng(90 + k)))
                   for k in range(3)]


@st.composite
def scenes(draw):
    """Frames of packets: 2-3 vehicles around up to 8 boxes, each moving at
    constant velocity over a span of the frames, and seen by each vehicle in
    most frames, with noise and a few false detections."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cavs = draw(st.integers(2, 3))
    frames = draw(st.integers(1, 10))
    count = draw(st.integers(0, 8))
    start = rng.uniform(-15.0, 15.0, (count, 2))
    velocity = rng.uniform(-1.5, 1.5, (count, 2))
    yaw = rng.uniform(-math.pi, math.pi, count)
    size = np.column_stack([rng.uniform(3.5, 5.0, count), rng.uniform(1.6, 2.1, count),
                            rng.uniform(1.4, 1.8, count)])
    first = rng.integers(0, frames, count)
    last = first + rng.integers(1, frames + 1, count)
    poses = [PoseYawT(*rng.uniform(-10.0, 10.0, 2), 0.0, rng.uniform(-math.pi, math.pi))
             for _ in range(cavs)]
    seen = draw(st.floats(0.5, 1.0))
    noise = draw(st.sampled_from([0.05, 0.2, 0.5]))
    out = []
    for t in range(frames):
        packets = []
        for cav, pose in enumerate(poses):
            local = []
            for k in range(count):
                if first[k] <= t < last[k] and rng.random() < seen:
                    x, y = start[k] + t * velocity[k] + rng.normal(0.0, noise, 2)
                    box = Box7(x, y, 0.0, yaw[k] + rng.normal(0.0, 0.1 * noise), *size[k])
                    local.append(transform_box(box, inverse_pose(pose)))
            for _ in range(rng.integers(0, 2)):  # a false detection
                local.append(Box7(*rng.uniform(-20.0, 20.0, 2), 0.0,
                                  rng.uniform(-math.pi, math.pi), 4.5, 1.9, 1.6))
            order = rng.permutation(len(local))
            dets = tuple(sim.Detection(box=local[i], confidence=float(rng.uniform(0.2, 1.0)),
                                       appearance=rng.standard_normal(NET.app_shape))
                         for i in order)
            packets.append(FramePacket(timestep=t, cav_id=cav, pose=pose, detections=dets))
        out.append(packets[::-1] if rng.random() < 0.5 else packets)  # any packet order
    return out, cavs


def _close(a, b) -> bool:
    """Equal within TOL, yaw (entry 3) compared through its wrapped difference."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    diff[3] = wrap_angle(diff[3])
    return bool(np.all(np.abs(diff) <= TOL))


def _births_and_kills(live) -> list:
    """(born, killed) ids of each step, from the live ids after each step."""
    before, out = set(), []
    for ids in live:
        out.append((sorted(set(ids) - before), sorted(before - set(ids))))
        before = set(ids)
    return out


@pytest.mark.parametrize("learned", [False, True], ids=["constant", "learned"])
@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scene=scenes())
def test_the_tracker_agrees_with_the_reference_tracker(learned, scene):
    frames, cavs = scene
    params = {cav: FULL_WIDTH_NETS[cav] for cav in range(cavs)} if learned else None
    reference = ReferenceTracker(params)
    want, want_live = [], []
    for packets in frames:
        want.append(reference.step(packets))
        want_live.append([track.id for track in reference.tracks])
    assume(reference.gap > TIE)

    tracker = CoopTracker(LearnedCovariance({cav: package_params(NET, p.arrays)
                                             for cav, p in params.items()})
                          if learned else ConstantCovariance())
    got, live = [], []
    for packets in frames:
        got.append(tracker.step(packets))
        live.append([life.id for life in tracker.tracks])
    assert _births_and_kills(live) == _births_and_kills(want_live)
    assert live == want_live
    assert [[r.track_id for r in frame] for frame in got] == [[w[0] for w in frame]
                                                            for frame in want]
    for t, (frame, wanted) in enumerate(zip(got, want)):
        for r, (_id, box, score, mean) in zip(frame, wanted):
            assert _close(r.box.to_vector(), box.to_vector()), (t, r.track_id)
            assert abs(r.score - score) <= TOL, (t, r.track_id)
            assert _close(np.asarray(r.mean, dtype=float), mean), (t, r.track_id)
    assert tracker.skipped_updates == reference.skipped
