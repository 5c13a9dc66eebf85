"""Kalman filter tests.

The central oracle: folding one update per sensor over a track must equal
the joint update with all observations stacked into one tall measurement.
The stacked form is written directly from textbook equations with numpy's
own inverse, independent of the production code path.
"""

import math

import numpy as np
import pytest

from cooptrack import autodiff as ad
from cooptrack.filter import (
    OBS_DIM,
    OBSERVATION_MATRIX,
    STATE_DIM,
    DegenerateCovariance,
    ObservationModel,
    ProcessModel,
    TrackBank,
    TrackState,
    constant_velocity_transition,
    default_process_noise,
    fuse_sequential,
    observation_matrix,
    predict,
    update,
)
from cooptrack.geometry import wrap_angle


def joint_update(mean, cov, observations):
    """Stacked-measurement Kalman update over all sensors at once."""
    H = np.vstack([m.H for _, m in observations])
    z = np.concatenate([np.asarray(o, dtype=float) for o, _ in observations])
    R = np.diag(np.concatenate([np.asarray(m.r_diag, dtype=float) for _, m in observations]))
    S = H @ cov @ H.T + R
    K = cov @ H.T @ np.linalg.inv(S)
    new_mean = mean + K @ (z - H @ mean)
    new_cov = (np.eye(STATE_DIM) - K @ H) @ cov
    return new_mean, new_cov


IDENTITY_NOISE = ObservationModel(observation_matrix(), np.ones(OBS_DIM))


def random_track(rng) -> TrackState:
    mean = rng.uniform(-5, 5, size=STATE_DIM)
    mean[3] = rng.uniform(-1.0, 1.0)  # yaw within range, far from the wrap seam
    mean[4:7] = rng.uniform(1.0, 4.0, size=3)
    m = rng.standard_normal((STATE_DIM, STATE_DIM))
    cov = m @ m.T + STATE_DIM * np.eye(STATE_DIM)
    return TrackState(mean, cov)


def random_obs_near(mean, rng):
    obs = mean[:OBS_DIM] + 0.2 * rng.standard_normal(OBS_DIM)
    model = ObservationModel(observation_matrix(), rng.uniform(0.2, 3.0, size=OBS_DIM))
    return obs, model


def test_transition_matrix_structure():
    A = constant_velocity_transition()
    want = np.eye(STATE_DIM)
    want[0, 7] = want[1, 8] = want[2, 9] = 1.0
    np.testing.assert_array_equal(A, want)


def test_process_noise_only_on_velocity():
    Q = default_process_noise(0.01)
    assert Q.shape == (STATE_DIM, STATE_DIM)
    np.testing.assert_array_equal(np.diag(Q)[:7], np.zeros(7))
    np.testing.assert_array_equal(np.diag(Q)[7:], np.full(3, 0.01))
    assert np.count_nonzero(Q - np.diag(np.diag(Q))) == 0


def test_observation_matrix_selects_box_variables():
    H = observation_matrix()
    assert H.shape == (OBS_DIM, STATE_DIM)
    np.testing.assert_array_equal(H[:, :OBS_DIM], np.eye(OBS_DIM))
    np.testing.assert_array_equal(H[:, OBS_DIM:], np.zeros((OBS_DIM, 3)))


def test_predict_moves_position_by_velocity():
    model = ProcessModel.constant_velocity(q_velocity=0.01)
    mean = np.zeros(STATE_DIM)
    mean[7:] = [1.0, -2.0, 0.5]
    state = TrackState(mean, np.eye(STATE_DIM))
    out = predict(state, model)
    np.testing.assert_allclose(ad.val(out.mean)[:3], [1.0, -2.0, 0.5])
    np.testing.assert_allclose(ad.val(out.mean)[3:7], np.zeros(4))
    # Sigma' = A Sigma A^T + Q against direct arithmetic.
    want = model.A @ np.eye(STATE_DIM) @ model.A.T + model.Q
    np.testing.assert_allclose(ad.val(out.cov), want)


def test_update_matches_textbook_equations():
    rng = np.random.default_rng(41)
    for _ in range(50):
        state = random_track(rng)
        obs, model = random_obs_near(ad.val(state.mean), rng)
        out = update(state, obs, model)
        want_mean, want_cov = joint_update(ad.val(state.mean), ad.val(state.cov), [(obs, model)])
        np.testing.assert_allclose(ad.val(out.mean), want_mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(ad.val(out.cov), want_cov, rtol=1e-10, atol=1e-12)


def test_update_reduces_variance_on_observed_block():
    rng = np.random.default_rng(42)
    state = random_track(rng)
    obs, model = random_obs_near(ad.val(state.mean), rng)
    out = update(state, obs, model)
    before = np.diag(ad.val(state.cov))[:OBS_DIM]
    after = np.diag(ad.val(out.cov))[:OBS_DIM]
    assert np.all(after <= before + 1e-12)


def test_sequential_equals_joint_small():
    rng = np.random.default_rng(43)
    for _ in range(100):
        state = random_track(rng)
        n_obs = rng.integers(1, 5)
        observations = [random_obs_near(ad.val(state.mean), rng) for _ in range(n_obs)]
        fused = fuse_sequential(state, observations)
        want_mean, want_cov = joint_update(ad.val(state.mean), ad.val(state.cov), observations)
        np.testing.assert_allclose(ad.val(fused.mean), want_mean, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(ad.val(fused.cov), want_cov, rtol=1e-8, atol=1e-10)


def test_fuse_order_invariance():
    rng = np.random.default_rng(44)
    state = random_track(rng)
    observations = [random_obs_near(ad.val(state.mean), rng) for _ in range(3)]
    a = fuse_sequential(state, observations)
    b = fuse_sequential(state, observations[::-1])
    np.testing.assert_allclose(ad.val(a.mean), ad.val(b.mean), rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(ad.val(a.cov), ad.val(b.cov), rtol=1e-9, atol=1e-11)


def test_yaw_innovation_wraps_across_seam():
    # Predicted yaw near +pi, observed near -pi: the filter must treat them
    # as nearly identical headings, not a 2*pi disagreement.
    mean = np.zeros(STATE_DIM)
    mean[3] = math.pi - 0.05
    mean[4:7] = 2.0
    state = TrackState(mean, np.eye(STATE_DIM))
    obs = mean[:OBS_DIM].copy()
    obs[3] = -math.pi + 0.05  # 0.1 rad away across the seam
    out = update(state, obs, IDENTITY_NOISE)
    got = float(ad.val(out.mean)[3])
    # Halfway between the two headings (equal variances), wrapped.
    assert abs(wrap_angle(got - math.pi)) < 0.06
    assert -math.pi <= got < math.pi


def test_yaw_flip_for_opposite_heading():
    # Observation heading off by ~pi: treated as the same box flipped, so
    # the update must not drag the yaw halfway around the circle.
    mean = np.zeros(STATE_DIM)
    mean[3] = 0.1
    mean[4:7] = 2.0
    state = TrackState(mean, np.eye(STATE_DIM))
    obs = mean[:OBS_DIM].copy()
    obs[3] = wrap_angle(0.2 + math.pi)
    out = update(state, obs, IDENTITY_NOISE)
    got = float(ad.val(out.mean)[3])
    assert abs(got - 0.15) < 1e-9


def test_updated_yaw_always_in_range():
    rng = np.random.default_rng(45)
    for _ in range(200):
        state = random_track(rng)
        m = ad.val(state.mean).copy()
        m[3] = rng.uniform(-math.pi, math.pi)
        state = TrackState(m, ad.val(state.cov))
        obs = m[:OBS_DIM] + rng.standard_normal(OBS_DIM)
        obs[3] = rng.uniform(-math.pi, math.pi)
        out = update(state, obs, IDENTITY_NOISE)
        assert -math.pi <= float(ad.val(out.mean)[3]) < math.pi


def test_zero_innovation_is_fixed_point():
    mean = np.arange(STATE_DIM, dtype=float)
    mean[3] = 0.5
    state = TrackState(mean, 2.0 * np.eye(STATE_DIM))
    out = update(state, mean[:OBS_DIM], IDENTITY_NOISE)
    np.testing.assert_array_equal(ad.val(out.mean), mean)


def test_update_rejects_bad_shapes_and_degenerate_S():
    state = TrackState(np.zeros(STATE_DIM), np.eye(STATE_DIM))
    with pytest.raises(ValueError):
        update(state, np.zeros(5), IDENTITY_NOISE)
    # Negative R diagonal makes S indefinite.
    bad = ObservationModel(observation_matrix(), np.full(OBS_DIM, -2.0))
    with pytest.raises(DegenerateCovariance):
        update(state, np.zeros(OBS_DIM), bad)


def test_update_gradient_flows_through_r_diag():
    """Training differentiates the loss w.r.t. R; check against FD."""
    rng = np.random.default_rng(46)
    state0 = random_track(rng)
    obs = ad.val(state0.mean)[:OBS_DIM] + 0.3
    target = ad.val(state0.mean)[:OBS_DIM] + 0.1

    def loss_value(r_diag):
        # float64 state mixed with a longdouble r_diag promotes, so the FD
        # evaluations run at extended precision without touching update().
        model = ObservationModel(observation_matrix(), r_diag)
        out = update(TrackState(ad.val(state0.mean), ad.val(state0.cov)), obs, model)
        diff = ad.sub(ad.getitem(out.mean, slice(0, OBS_DIM)), target)
        return ad.asum(ad.square(diff))

    r0 = rng.uniform(0.5, 2.0, size=OBS_DIM)
    tape = ad.Tape()
    leaf = tape.var(r0)
    tape.backward(loss_value(leaf))
    got = ad.grad_of(leaf)

    step = 1e-6
    want = np.zeros(OBS_DIM)
    for i in range(OBS_DIM):
        hi = r0.astype(np.longdouble)
        hi[i] += step
        lo = r0.astype(np.longdouble)
        lo[i] -= step
        want[i] = (float(loss_value(hi)) - float(loss_value(lo))) / (2 * step)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-9)


def test_update_requires_h_to_select_the_box_variables():
    state = TrackState(np.zeros(STATE_DIM), np.eye(STATE_DIM))
    swapped = observation_matrix()[::-1].copy()
    with pytest.raises(ValueError, match=r"H = \[I 0\]"):
        update(state, np.zeros(OBS_DIM), ObservationModel(swapped, np.ones(OBS_DIM)))
    wide = np.eye(OBS_DIM + 1, STATE_DIM)
    with pytest.raises(ValueError, match=r"H = \[I 0\]"):
        update(state, np.zeros(OBS_DIM + 1), ObservationModel(wide, np.ones(OBS_DIM + 1)))


def test_degenerate_row_keeps_its_prediction_and_the_rest_update():
    rng = np.random.default_rng(47)
    tracks = [random_track(rng) for _ in range(5)]
    bank = TrackBank(np.stack([t.mean for t in tracks]), np.stack([t.cov for t in tracks]))
    rows = np.array([4, 1, 2, 0])
    obs = np.stack([tracks[i].mean[:OBS_DIM] + 0.2 * rng.standard_normal(OBS_DIM)
                    for i in rows])
    r_diag = rng.uniform(0.2, 3.0, size=(len(rows), OBS_DIM))
    r_diag[2, 0] = 1e14  # row 2 of the batch (bank row 2): S far beyond the condition guard
    with pytest.raises(DegenerateCovariance):
        update(tracks[2], obs[2], ObservationModel(observation_matrix(), r_diag[2]))

    out = update(bank, obs, ObservationModel(observation_matrix(), r_diag), rows)
    assert out.skipped == 1
    np.testing.assert_array_equal(out.mean[2], bank.mean[2])
    np.testing.assert_array_equal(out.cov[2], bank.cov[2])
    np.testing.assert_array_equal(out.mean[3], bank.mean[3])  # not in the round
    for j, i in enumerate(rows):
        if i == 2:
            continue
        want = update(tracks[i], obs[j], ObservationModel(observation_matrix(), r_diag[j]))
        np.testing.assert_allclose(out.mean[i], want.mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.cov[i], want.cov, rtol=1e-12, atol=1e-12)
        ref_mean, ref_cov = joint_update(tracks[i].mean, tracks[i].cov,
                                         [(obs[j], ObservationModel(observation_matrix(),
                                                                    r_diag[j]))])
        np.testing.assert_allclose(out.mean[i], ref_mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(out.cov[i], ref_cov, rtol=1e-10, atol=1e-12)


def _bank_round(seed, size=3, k=2):
    """A bank of `size` random tracks and k observations with their R rows."""
    rng = np.random.default_rng(seed)
    tracks = [random_track(rng) for _ in range(size)]
    bank = TrackBank(np.stack([t.mean for t in tracks]), np.stack([t.cov for t in tracks]))
    obs = np.stack([tracks[i].mean[:OBS_DIM] + 0.2 * rng.standard_normal(OBS_DIM)
                    for i in range(k)])
    return bank, obs, rng.uniform(0.2, 3.0, size=(k, OBS_DIM))


def _bank_bytes(bank) -> tuple:
    return bank.mean.tobytes(), bank.cov.tobytes(), bank.skipped


@pytest.mark.parametrize("rows, bad", [([-1, 2], -1), ([0, 3], 3), ([-4, 0], -4),
                                       (np.array([2, -3], dtype=np.intp), -3)])
def test_bank_rows_outside_the_bank_are_rejected_before_any_work(rows, bad):
    bank, obs, r_diag = _bank_round(60)
    before = _bank_bytes(bank)
    with pytest.raises(ValueError, match=rf"bank row {bad} is outside the bank's 3 rows"):
        update(bank, obs, ObservationModel(OBSERVATION_MATRIX, r_diag), rows)
    assert _bank_bytes(bank) == before
    # without the check, row -1 aliased row 2 and the second write won
    with pytest.raises(ValueError, match="outside"):
        update(bank, obs, ObservationModel(OBSERVATION_MATRIX, r_diag), [2, -1])


def test_valid_bank_rows_keep_their_bits_however_they_are_given():
    bank, obs, r_diag = _bank_round(61)
    model = ObservationModel(OBSERVATION_MATRIX, r_diag)
    want = _bank_bytes(update(bank, obs, model, [2, 0]))
    for rows in ([np.int64(2), np.int32(0)], np.array([2, 0]), np.array([2, 0], dtype=np.intp),
                 (2, 0)):
        assert _bank_bytes(update(bank, obs, model, rows)) == want
    # each row's update is its own: one row at a time gives the same bits
    first = update(bank, obs[:1], ObservationModel(OBSERVATION_MATRIX, r_diag[:1]), [2])
    second = update(first, obs[1:], ObservationModel(OBSERVATION_MATRIX, r_diag[1:]), [0])
    assert _bank_bytes(second) == want


@pytest.mark.parametrize("rows", [[1, 1], np.array([1, 1], dtype=np.intp),
                                  [np.int64(1), np.int32(1)], [0, 2, 0]],
                         ids=["list", "intp", "numpy-ints", "three"])
def test_repeated_bank_rows_are_rejected(rows):
    bank, obs, r_diag = _bank_round(62, k=len(rows))
    before = _bank_bytes(bank)
    with pytest.raises(ValueError, match="bank rows of one update must be distinct"):
        update(bank, obs, ObservationModel(OBSERVATION_MATRIX, r_diag), rows)
    assert _bank_bytes(bank) == before


def test_an_h_equal_to_the_shared_one_gives_its_bits():
    bank, obs, r_diag = _bank_round(64)
    fresh = observation_matrix()
    assert fresh is not OBSERVATION_MATRIX
    for H in (fresh, fresh.astype(np.float32), fresh.tolist()):
        assert (_bank_bytes(update(bank, obs, ObservationModel(H, r_diag), [1, 2]))
                == _bank_bytes(update(bank, obs, ObservationModel(OBSERVATION_MATRIX, r_diag),
                                      [1, 2])))
    state = TrackState(bank.mean[0], bank.cov[0])
    got = update(state, obs[0], ObservationModel(fresh, r_diag[0]))
    want = update(state, obs[0], ObservationModel(OBSERVATION_MATRIX, r_diag[0]))
    assert (got.mean.tobytes(), got.cov.tobytes()) == (want.mean.tobytes(), want.cov.tobytes())


def test_an_h_one_entry_off_is_still_rejected():
    state = TrackState(np.zeros(STATE_DIM), np.eye(STATE_DIM))
    off = observation_matrix()
    off[0, 7] = 1e-300
    with pytest.raises(ValueError, match=r"H = \[I 0\]"):
        update(state, np.zeros(OBS_DIM), ObservationModel(off, np.ones(OBS_DIM)))


def test_the_shared_h_is_read_only_and_observation_matrix_returns_a_writable_copy():
    assert not OBSERVATION_MATRIX.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        OBSERVATION_MATRIX[0, 0] = 2.0
    fresh = observation_matrix()
    assert fresh.flags.writeable and not np.shares_memory(fresh, OBSERVATION_MATRIX)
    np.testing.assert_array_equal(fresh, OBSERVATION_MATRIX)
    fresh[0, 0] = 2.0  # a caller's copy is its own
    np.testing.assert_array_equal(observation_matrix(), OBSERVATION_MATRIX)
