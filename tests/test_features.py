"""Feature extraction tests: positional layout, normalization, sinusoidal
encoding against the direct formula, its Chebyshev basis, and the synthetic
appearance tensor."""

import math

import numpy as np
import pytest
from scipy.special import jv

from cooptrack.features import (
    DEFAULT_BOUNDS,
    CHEBYSHEV_BASIS,
    CHEBYSHEV_DEGREE,
    ENCODING_HALF_WIDTH,
    POSITIONAL_DIM,
    _chebyshev_basis,
    chebyshev_rows,
    encode_detection,
    extract_positional,
    normalize,
    positional_encoding,
    synth_appearance,
)
from cooptrack.geometry import Box7, PoseYawT, box_rows, transform_box


def _packet(rng, n):
    """n local box rows seen through one pose."""
    pose = PoseYawT(*rng.uniform(-40, 40, size=3), rng.uniform(-math.pi, math.pi))
    local = [Box7(*rng.uniform(-30, 30, size=2), rng.uniform(-2, 2),
                  rng.uniform(-math.pi, math.pi), *rng.uniform(1, 5, size=3))
             for _ in range(n)]
    return box_rows(local), pose


def _per_row_encoding(row, bounds=DEFAULT_BOUNDS):
    """The encoding of one 18-vector, one scalar normalization at a time."""
    xb = []
    for k, x in enumerate(row):
        lo, hi = bounds[k]
        u = min(1.0, max(0.0, (float(x) - lo) / (hi - lo)))
        xb.append(-math.pi + 2.0 * math.pi * u)
    d = ENCODING_HALF_WIDTH
    phases = np.array(xb)[:, None] / (2.0 ** (np.arange(d) / d))[None, :]
    out = np.empty((POSITIONAL_DIM, 2 * d))
    out[:, 0::2] = np.sin(phases)
    out[:, 1::2] = np.cos(phases)
    return out


def test_extract_positional_layout():
    pose = PoseYawT(10.0, -20.0, 1.0, 0.5)
    local = Box7(3.0, 4.0, 0.5, 0.2, 4.5, 1.9, 1.6)
    g = transform_box(local, pose)
    f = extract_positional(box_rows([local, local]), pose)
    assert f.shape == (2, POSITIONAL_DIM)
    v = f[1]
    np.testing.assert_allclose(v[0:7], g.to_vector())
    assert v[7] == pytest.approx(math.hypot(g.x, g.y))
    np.testing.assert_allclose(v[8:12], [local.x, local.y, local.z, local.a])
    assert v[12] == pytest.approx(5.0)  # hypot(3, 4)
    np.testing.assert_allclose(v[13:17], [10.0, -20.0, 1.0, 0.5])
    assert v[17] == pytest.approx(math.hypot(10.0, -20.0))
    np.testing.assert_array_equal(f[0], v)


def test_extract_positional_shape_validation():
    local, pose = _packet(np.random.default_rng(64), 4)
    assert extract_positional(local[:0], pose).shape == (0, POSITIONAL_DIM)
    with pytest.raises(ValueError, match="shape"):
        extract_positional(local[:, :6], pose)
    with pytest.raises(ValueError, match="shape"):
        extract_positional(local[0], pose)  # one box still needs the batch axis


def test_positional_feature_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        positional_encoding(np.zeros((2, 17)))
    with pytest.raises(ValueError, match="shape"):
        positional_encoding(np.zeros(POSITIONAL_DIM))  # one row still needs the batch axis
    assert positional_encoding(np.zeros((0, POSITIONAL_DIM))).shape == (
        0, POSITIONAL_DIM, 2 * ENCODING_HALF_WIDTH)


def test_normalize_var_endpoints_and_clamp():
    # Variable 0 has bounds (-100, 100); the other columns ride along.
    values = np.zeros((5, POSITIONAL_DIM))
    values[:, 0] = [-100.0, 100.0, 0.0, -500.0, 500.0]
    got = normalize(values)[:, 0]
    np.testing.assert_allclose(got[:3], [-math.pi, math.pi, 0.0], atol=1e-15)
    # Out-of-range values clamp to the endpoints rather than extrapolate.
    np.testing.assert_allclose(got[3:], [-math.pi, math.pi])


def test_normalize_var_rejects_degenerate_bounds():
    degenerate = ((1.0, 1.0),) * POSITIONAL_DIM
    for _ in range(2):  # a refused tuple is refused again, not cached
        with pytest.raises(ValueError, match="min < max for every variable"):
            normalize(np.zeros((1, POSITIONAL_DIM)), bounds=degenerate)
    with pytest.raises(ValueError, match="min < max for every variable"):
        normalize(np.zeros((1, POSITIONAL_DIM)), bounds=[list(b) for b in degenerate])


def test_normalize_takes_the_bits_of_its_bounds_in_any_sequence():
    values = np.random.default_rng(60).uniform(-150.0, 150.0, (6, POSITIONAL_DIM))
    want = normalize(values)
    assert normalize(values, DEFAULT_BOUNDS).tobytes() == want.tobytes()
    assert normalize(values, [list(b) for b in DEFAULT_BOUNDS]).tobytes() == want.tobytes()
    lo, hi = np.asarray(DEFAULT_BOUNDS).T
    direct = -math.pi + 2.0 * math.pi * np.clip((values - lo) / (hi - lo), 0.0, 1.0)
    assert want.tobytes() == direct.tobytes()


def test_positional_encoding_matches_direct_formula():
    rng = np.random.default_rng(60)
    f = rng.uniform(-50, 50, size=(3, POSITIONAL_DIM))
    enc = positional_encoding(f)
    d = ENCODING_HALF_WIDTH
    assert enc.shape == (3, POSITIONAL_DIM, 2 * d)
    for r in range(3):
        for k in (0, 5, 17):
            lo, hi = DEFAULT_BOUNDS[k]
            u = min(1.0, max(0.0, (f[r, k] - lo) / (hi - lo)))
            xb = -math.pi + 2.0 * math.pi * u
            for i in (0, 1, 63, 127):
                phase = xb / (2.0 ** (i / d))
                assert enc[r, k, 2 * i] == pytest.approx(math.sin(phase), abs=1e-12)
                assert enc[r, k, 2 * i + 1] == pytest.approx(math.cos(phase), abs=1e-12)


def test_positional_encoding_bounded_and_shape_checked():
    rng = np.random.default_rng(61)
    enc = positional_encoding(rng.uniform(-200, 200, size=(4, POSITIONAL_DIM)))
    assert np.all(enc <= 1.0) and np.all(enc >= -1.0)
    with pytest.raises(ValueError):
        positional_encoding(np.zeros((1, 5)))


def test_encode_detection_composes():
    rng = np.random.default_rng(62)
    local, pose = _packet(rng, 3)
    via_compose = encode_detection(local, pose)
    via_steps = positional_encoding(extract_positional(local, pose))
    np.testing.assert_array_equal(via_compose, via_steps)


def test_batched_encoding_is_bit_identical_to_per_row_formula():
    rng = np.random.default_rng(65)
    local, pose = _packet(rng, 7)
    batch = encode_detection(local, pose)
    assert batch.shape == (7, POSITIONAL_DIM, 2 * ENCODING_HALF_WIDTH)
    for j in range(7):
        row = extract_positional(local[j:j + 1], pose)[0]
        assert batch[j].tobytes() == _per_row_encoding(row).tobytes()
        # one detection is a batch of one
        assert batch[j].tobytes() == encode_detection(local[j:j + 1], pose)[0].tobytes()


@pytest.mark.parametrize("n", [1, 10, 25, 85, 250])
def test_encoding_written_in_place_has_the_bits_of_whole_sin_and_cos_arrays(n):
    # the sinusoids are written straight into the encoding's strided halves
    local, pose = _packet(np.random.default_rng(66), n)
    xb = normalize(extract_positional(local, pose))
    phases = xb[..., None] / (2.0 ** (np.arange(ENCODING_HALF_WIDTH) / ENCODING_HALF_WIDTH))
    want = np.empty((n, POSITIONAL_DIM, 2 * ENCODING_HALF_WIDTH))
    want[..., 0::2] = np.sin(phases)
    want[..., 1::2] = np.cos(phases)
    assert positional_encoding(extract_positional(local, pose)).tobytes() == want.tobytes()
    assert encode_detection(local, pose).tobytes() == want.tobytes()


# the stated bound on the Chebyshev interpolants' error, and the grid it holds on
# (at the chosen degree the error is 1.0e-15; one degree less gives 6.6e-15)
BASIS_BOUND = 2e-15
GRID = np.linspace(-math.pi, math.pi, 200_001)


def test_the_chebyshev_degree_is_the_smallest_within_the_bound():
    assert GRID[0] == -math.pi and GRID[-1] == math.pi
    bases = [_chebyshev_basis(degree) for degree in range(CHEBYSHEV_DEGREE + 1)]
    errors = np.zeros(CHEBYSHEV_DEGREE + 1)  # each degree's largest error so far
    for lo in range(0, len(GRID), 20_000):
        x = GRID[lo:lo + 20_000]
        phases = x[:, None] / (2.0 ** (np.arange(ENCODING_HALF_WIDTH) / ENCODING_HALF_WIDTH))
        want = np.empty((len(x), 2 * ENCODING_HALF_WIDTH))
        want[:, 0::2] = np.sin(phases)
        want[:, 1::2] = np.cos(phases)
        rows = chebyshev_rows(x)
        for degree, basis in enumerate(bases):
            if degree == CHEBYSHEV_DEGREE or errors[degree] <= BASIS_BOUND:
                got = rows[:, :degree + 1] @ basis
                errors[degree] = max(errors[degree], np.abs(got - want).max())
    assert errors[-1] <= BASIS_BOUND
    assert np.all(errors[:-1] > BASIS_BOUND), errors
    assert CHEBYSHEV_BASIS.tobytes() == bases[-1].tobytes()
    assert not CHEBYSHEV_BASIS.flags.writeable


def test_the_basis_holds_the_jacobi_anger_coefficients():
    # sin(z t) = 2 sum_k (-1)^k J_{2k+1}(z) T_{2k+1}(t) and cos(z t) = J_0(z)
    # + 2 sum_k (-1)^k J_{2k}(z) T_{2k}(t), z = pi / 2^(i/128); interpolating
    # at n = D + 1 points of the first kind folds degree 2n -+ j onto j
    n = CHEBYSHEV_DEGREE + 1
    z = math.pi / 2.0 ** (np.arange(ENCODING_HALF_WIDTH) / ENCODING_HALF_WIDTH)
    j = np.arange(4 * n)[:, None]
    series = np.empty((4 * n, 2 * ENCODING_HALF_WIDTH))
    series[:, 0::2] = np.where(j % 2 == 1, 2.0 * (-1.0) ** ((j - 1) // 2) * jv(j, z), 0.0)
    series[:, 1::2] = np.where(j % 2 == 0, 2.0 * (-1.0) ** (j // 2) * jv(j, z), 0.0)
    series[0] /= 2.0
    want = np.empty((n, 2 * ENCODING_HALF_WIDTH))
    want[0] = series[0] - series[2 * n]
    want[1:] = series[1:n] - series[2 * n - 1:n:-1] - series[2 * n + 1:3 * n]
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(CHEBYSHEV_BASIS - want) <= 2e-15 * scale + 1e-18)


def test_chebyshev_rows_follow_the_recurrence_in_any_float_dtype():
    xb = normalize(np.random.default_rng(67).uniform(-150.0, 150.0, (6, POSITIONAL_DIM)))
    rows = chebyshev_rows(xb)
    assert rows.shape == (6, POSITIONAL_DIM, CHEBYSHEV_DEGREE + 1) and rows.dtype == np.float64
    want = np.polynomial.chebyshev.chebvander(xb / math.pi, CHEBYSHEV_DEGREE)
    np.testing.assert_allclose(rows, want, rtol=0.0, atol=1e-13)
    long = chebyshev_rows(xb.astype(np.longdouble))
    assert long.dtype == np.longdouble
    np.testing.assert_allclose(long.astype(float), rows, rtol=0.0, atol=1e-13)
    # one detection is a batch of one
    assert chebyshev_rows(xb[2:3]).tobytes() == rows[2:3].tobytes()


def test_synth_appearance_channels():
    rng = np.random.default_rng(63)
    a = synth_appearance(distance=40.0, noise_scale=0.5, rng=rng)
    assert a.shape == (8, 8, 8)
    np.testing.assert_array_equal(a[0], np.ones((8, 8)))
    np.testing.assert_array_equal(a[1], np.full((8, 8), 0.4))
    np.testing.assert_array_equal(a[2], np.full((8, 8), 0.5))
    assert np.std(a[3:]) > 0.0


def test_synth_appearance_zero_noise_is_deterministic():
    # Zero noise: texture channels vanish, so rng state cannot leak in.
    a1 = synth_appearance(10.0, 0.0, np.random.default_rng(1))
    a2 = synth_appearance(10.0, 0.0, np.random.default_rng(999))
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(a1[3:], np.zeros((5, 8, 8)))


def test_synth_appearance_validates_channels():
    with pytest.raises(ValueError):
        synth_appearance(1.0, 0.1, np.random.default_rng(0), shape=(2, 8, 8))
