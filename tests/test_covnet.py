"""Covariance network tests.

The forward oracle is a straight-line reimplementation using only numpy
(explicit loop convolution, explicit matmuls) so a bug in the autodiff
primitives cannot hide in both sides.
"""

import numpy as np
import pytest

from cooptrack import autodiff as ad
from cooptrack.covnet import (
    BRANCH_WIDTH_TOLERANCE,
    RESIDUAL_DIM,
    CovNetConfig,
    CovNetParams,
    forward,
    layer_shapes,
    residual_to_init_noise_diag,
    residual_to_obs_noise_diag,
)
from cooptrack.features import ENCODING_HALF_WIDTH, POSITIONAL_DIM
from cooptrack.filter import OBS_DIM, R_FLOOR, STATE_DIM


SMALL = CovNetConfig(conv_channels=(4, 8), pos_hidden=8, pos_out=32, head_hidden=8)


def _zero_params(cfg):
    return CovNetParams(cfg, {name: np.zeros(shape) for name, shape in layer_shapes(cfg).items()})


def _inputs(rng, cfg=None, n=1):
    """A batch of n detections' appearance tensors and positional encodings."""
    cfg = cfg or CovNetConfig()
    f_app = rng.standard_normal((n,) + cfg.app_shape)
    f_pos = rng.uniform(-1, 1, size=(n, POSITIONAL_DIM, 2 * ENCODING_HALF_WIDTH))
    return f_app, f_pos


def reference_forward(params: CovNetParams, f_app, f_pos):
    """Nested-loop conv + explicit matmul re-derivation of forward() for one
    detection: f_app is (c, h, w), f_pos (18, 256), the result a 10-vector."""
    cfg = params.config
    arr = params.arrays

    def conv(x, w, b, stride, pad):
        c_in, h, wd = x.shape
        c_out = w.shape[0]
        k = w.shape[2]
        xp = np.zeros((c_in, h + 2 * pad, wd + 2 * pad))
        xp[:, pad:pad + h, pad:pad + wd] = x
        ho = (h + 2 * pad - k) // stride + 1
        wo = (wd + 2 * pad - k) // stride + 1
        out = np.zeros((c_out, ho, wo))
        for co in range(c_out):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[:, i * stride:i * stride + k, j * stride:j * stride + k]
                    out[co, i, j] = np.sum(patch * w[co]) + b[co]
        return out

    pieces = []
    if cfg.use_appearance:
        a = f_app
        for i in range(1, len(cfg.conv_channels) + 1):
            a = np.maximum(conv(a, arr[f"app.conv{i}.w"], arr[f"app.conv{i}.b"],
                                cfg.stride, cfg.pad), 0.0)
        pieces.append(a.reshape(-1))
    if cfg.use_positional:
        x = f_pos.reshape(-1)
        x = np.maximum(x @ arr["pos.lin1.w"] + arr["pos.lin1.b"], 0.0)
        x = np.maximum(x @ arr["pos.lin2.w"] + arr["pos.lin2.b"], 0.0)
        pieces.append(x)
    h = np.concatenate(pieces)
    h = np.maximum(h @ arr["head.lin1.w"] + arr["head.lin1.b"], 0.0)
    return h @ arr["head.lin2.w"] + arr["head.lin2.b"]


def test_config_branch_widths_within_tolerance():
    cfg = CovNetConfig()
    a = cfg.appearance_flat_width()
    p = cfg.pos_out
    assert abs(a - p) <= BRANCH_WIDTH_TOLERANCE * max(a, p)
    # Defaults: 8x8 input through two stride-2 convs -> 2x2x32 = 128 = pos_out.
    assert a == 128 and p == 128


def test_config_rejects_mismatched_widths_and_no_branches():
    with pytest.raises(ValueError):
        CovNetConfig(pos_out=256)
    with pytest.raises(ValueError):
        CovNetConfig(use_appearance=False, use_positional=False)


def test_layer_shapes_defaults():
    shapes = layer_shapes(CovNetConfig())
    assert shapes["app.conv1.w"] == (16, 8, 3, 3)
    assert shapes["app.conv2.w"] == (32, 16, 3, 3)
    assert shapes["pos.lin1.w"] == (POSITIONAL_DIM * 2 * ENCODING_HALF_WIDTH, 64)
    assert shapes["pos.lin2.w"] == (64, 128)
    assert shapes["head.lin1.w"] == (256, 64)
    assert shapes["head.lin2.w"] == (64, RESIDUAL_DIM)
    # Single-branch configs drop the other branch's parameters entirely.
    app_only = layer_shapes(CovNetConfig(use_positional=False))
    assert not any(k.startswith("pos.") for k in app_only)
    assert app_only["head.lin1.w"] == (128, 64)


def test_params_init_distribution_and_determinism():
    cfg = CovNetConfig()
    p1 = CovNetParams.init(cfg, np.random.default_rng(9))
    p2 = CovNetParams.init(cfg, np.random.default_rng(9))
    for name, shape in layer_shapes(cfg).items():
        assert p1.arrays[name].shape == shape
        np.testing.assert_array_equal(p1.arrays[name], p2.arrays[name])
        if name.endswith(".b"):
            np.testing.assert_array_equal(p1.arrays[name], np.zeros(shape))
        else:
            fan_in = shape[1] * shape[2] * shape[3] if len(shape) == 4 else shape[0]
            k = 1.0 / np.sqrt(fan_in)
            assert np.all(np.abs(p1.arrays[name]) <= k)
            # A uniform draw at this size lands well inside but not at zero.
            assert np.max(np.abs(p1.arrays[name])) > 0.5 * k


def test_forward_matches_reference():
    rng = np.random.default_rng(70)
    for cfg in (CovNetConfig(),
                CovNetConfig(use_positional=False),
                CovNetConfig(use_appearance=False)):
        params = CovNetParams.init(cfg, rng)
        f_app, f_pos = _inputs(rng, cfg)
        got = forward(params, f_app, f_pos)
        want = reference_forward(params, f_app[0], f_pos[0])
        assert got.shape == (1, RESIDUAL_DIM)
        np.testing.assert_allclose(got[0], want, rtol=1e-12, atol=1e-12)


def test_batched_forward_matches_single_rows_and_reference():
    rng = np.random.default_rng(75)
    for cfg in (CovNetConfig(),
                CovNetConfig(use_positional=False),
                CovNetConfig(use_appearance=False)):
        params = CovNetParams.init(cfg, rng)
        f_app, f_pos = _inputs(rng, cfg, n=5)
        batch = forward(params, f_app, f_pos)
        assert batch.shape == (5, RESIDUAL_DIM)
        for j in range(5):
            single = forward(params, f_app[j:j + 1], f_pos[j:j + 1])
            np.testing.assert_allclose(batch[j], single[0], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(batch[j], reference_forward(params, f_app[j], f_pos[j]),
                                       rtol=1e-12, atol=1e-12)


def test_forward_tape_matches_plain_bitwise():
    rng = np.random.default_rng(71)
    params = CovNetParams.init(CovNetConfig(), rng)
    for n in (1, 5):
        f_app, f_pos = _inputs(rng, n=n)
        plain = forward(params, f_app, f_pos)
        tape = ad.Tape()
        lifted = params.lift(tape)
        taped = forward(CovNetParams(params.config, lifted), f_app, f_pos)
        assert plain.tobytes() == ad.val(taped).tobytes()


def test_forward_zero_params_zero_output():
    params = _zero_params(CovNetConfig())
    rng = np.random.default_rng(72)
    for n in (1, 4, 13):
        f_app, f_pos = _inputs(rng, n=n)
        np.testing.assert_array_equal(forward(params, f_app, f_pos),
                                      np.zeros((n, RESIDUAL_DIM)))


def test_forward_validates_input_shapes():
    params = _zero_params(CovNetConfig())
    rng = np.random.default_rng(73)
    f_app, f_pos = _inputs(rng, n=2)
    with pytest.raises(ValueError):
        forward(params, f_app[:, :, :4, :], f_pos)
    with pytest.raises(ValueError):
        forward(params, f_app, f_pos[:, :, :10])
    with pytest.raises(ValueError):
        forward(params, f_app[0], f_pos[0])  # one detection still needs the batch axis
    with pytest.raises(ValueError):
        forward(params, f_app[:1], f_pos)  # the branches disagree on N


def test_residual_to_obs_noise_formula():
    sigma = np.array([0.5, -0.2, 0.0, 1.0, -0.5, 2.0, 0.1, 9.9, 9.9, 9.9])
    got = residual_to_obs_noise_diag(sigma)
    want = np.maximum((1.0 + sigma[:OBS_DIM]) ** 2, R_FLOOR)
    np.testing.assert_allclose(got, want)
    # Entries 7..9 must not influence the observation noise.
    other = sigma.copy()
    other[7:] = -3.0
    np.testing.assert_array_equal(got, residual_to_obs_noise_diag(other))


def test_residual_to_obs_noise_floor():
    sigma = np.full(STATE_DIM, 1.0)
    sigma[0] = -1.0  # 1 + (-1) = 0 -> squared 0 -> floored
    got = residual_to_obs_noise_diag(sigma)
    assert got[0] == R_FLOOR
    np.testing.assert_allclose(got[1:], np.full(OBS_DIM - 1, 4.0))


def test_residual_to_init_noise_uses_all_ten():
    sigma = np.linspace(-0.3, 0.6, STATE_DIM)
    got = residual_to_init_noise_diag(sigma)
    want = np.maximum((1.0 + sigma) ** 2, R_FLOOR)
    np.testing.assert_allclose(got, want)
    assert got.shape == (STATE_DIM,)


def test_zero_residual_reproduces_defaults_exactly():
    # sqrt(1.0) + 0.0 squared is exactly 1.0 in IEEE arithmetic; this
    # anchors the zero-checkpoint equivalence to the constant tracker.
    zero = np.zeros(STATE_DIM)
    np.testing.assert_array_equal(residual_to_obs_noise_diag(zero), np.ones(OBS_DIM))
    np.testing.assert_array_equal(residual_to_init_noise_diag(zero), np.ones(STATE_DIM))


def test_forward_gradient_reaches_all_parameters():
    rng = np.random.default_rng(74)
    params = CovNetParams.init(CovNetConfig(), rng)
    f_app = np.abs(rng.standard_normal((2,) + params.config.app_shape)) + 0.1
    f_pos = rng.uniform(0.1, 1.0, size=(2, POSITIONAL_DIM, 2 * ENCODING_HALF_WIDTH))
    tape = ad.Tape()
    lifted = params.lift(tape)
    out = forward(CovNetParams(params.config, lifted), f_app, f_pos)
    tape.backward(ad.asum(ad.square(out)))
    for name, leaf in lifted.items():
        g = ad.grad_of(leaf)
        assert g.shape == leaf.value.shape
        assert np.any(g != 0.0), f"no gradient reached {name}"


def test_forward_gradient_on_a_batch_matches_finite_differences():
    """Directional derivatives of a loss over a batch of 3 detections, against
    central differences evaluated in longdouble."""
    rng = np.random.default_rng(76)
    params = CovNetParams.init(SMALL, rng)
    f_app, f_pos = _inputs(rng, SMALL, n=3)
    weights = rng.standard_normal((3, RESIDUAL_DIM))

    def loss(arrays):
        out = forward(CovNetParams(SMALL, arrays), f_app, f_pos)
        return ad.asum(ad.square(ad.sub(out, weights)))

    tape = ad.Tape()
    lifted = params.lift(tape)
    tape.backward(loss(lifted))
    names = sorted(params.arrays)
    grad = np.concatenate([ad.grad_of(lifted[k]).ravel() for k in names])
    flat = np.concatenate([params.arrays[k].ravel() for k in names]).astype(np.longdouble)

    def loss_at(vec):
        arrays, offset = {}, 0
        for k in names:
            size = params.arrays[k].size
            arrays[k] = vec[offset:offset + size].reshape(params.arrays[k].shape)
            offset += size
        return loss(arrays)

    h = np.longdouble(1e-6)
    for _ in range(5):
        d = rng.standard_normal(flat.size)
        d /= np.linalg.norm(d)
        d_ld = d.astype(np.longdouble)
        fd = float((loss_at(flat + h * d_ld) - loss_at(flat - h * d_ld)) / (2 * h))
        assert grad @ d == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_residual_maps_work_row_wise_on_a_batch():
    sigmas = np.random.default_rng(77).uniform(-1.5, 2.0, size=(4, STATE_DIM))
    obs, init = residual_to_obs_noise_diag(sigmas), residual_to_init_noise_diag(sigmas)
    assert obs.shape == (4, OBS_DIM) and init.shape == (4, STATE_DIM)
    for j in range(4):
        assert obs[j].tobytes() == residual_to_obs_noise_diag(sigmas[j]).tobytes()
        assert init[j].tobytes() == residual_to_init_noise_diag(sigmas[j]).tobytes()
