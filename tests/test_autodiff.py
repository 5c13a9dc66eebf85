"""Tape autodiff tests: per-op finite differences, plain/tape bit identity,
and the SPD inverse's adjoint and guard rails."""

import numpy as np
import pytest

from cooptrack import autodiff as ad


def central_diff(f, x, step=1e-6):
    """Central-difference gradient of scalar f, evaluated in longdouble."""
    x = np.asarray(x, dtype=np.longdouble)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        saved = xf[i]
        xf[i] = saved + step
        hi = f(x)
        xf[i] = saved - step
        lo = f(x)
        xf[i] = saved
        flat[i] = (hi - lo) / (2.0 * step)
    return np.asarray(g, dtype=float)


def check_grad(build, x0, rtol=1e-6, atol=1e-8, step=1e-6):
    """Compare tape gradient of scalar-valued `build` against central differences.

    Ops dispatch on Node-ness, so `build` runs in plain mode when handed the
    raw array; the FD side exploits that to evaluate in longdouble.
    """
    tape = ad.Tape()
    leaf = tape.var(np.asarray(x0, dtype=float))
    loss = build(leaf)
    tape.backward(loss)
    got = ad.grad_of(leaf)
    want = central_diff(lambda x: float(ad.val(build(x))), np.asarray(x0, dtype=float), step=step)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


def test_add_broadcast_grad():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((3, 4))
    w = rng.standard_normal((1, 4))
    check_grad(lambda x: ad.asum(ad.square(ad.add(x, w))), x0)
    check_grad(lambda x: ad.asum(ad.square(ad.add(w, ad.asum(x, axis=0)))), x0)


def test_sub_div_grad():
    rng = np.random.default_rng(1)
    x0 = rng.uniform(0.5, 2.0, size=(4,))
    c = rng.uniform(0.5, 2.0, size=(4,))
    check_grad(lambda x: ad.asum(ad.div(ad.sub(x, c), ad.add(x, 3.0))), x0)


def test_matmul_grad():
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 2))
    v = rng.standard_normal(3)
    check_grad(lambda x: ad.asum(ad.square(ad.matmul(x, b))), x0)
    check_grad(lambda x: ad.asum(ad.square(ad.matmul(b.T, x))), x0)
    check_grad(lambda x: ad.asum(ad.square(ad.matmul(x, v))), x0)
    check_grad(lambda x: ad.asum(ad.square(ad.matmul(v, x))), x0)
    # the vector operand's own adjoint, and both operands on the tape
    check_grad(lambda u: ad.square(ad.matmul(u, v)), v)  # 1-D @ 1-D
    check_grad(lambda u: ad.square(ad.matmul(u, u)), v)
    check_grad(lambda u: ad.asum(ad.square(ad.matmul(u, b))), v)  # 1-D @ 2-D
    check_grad(lambda u: ad.asum(ad.square(ad.matmul(b.T, u))), v)  # 2-D @ 1-D
    check_grad(lambda x: ad.asum(ad.square(ad.matmul(x, x))), x0)


def test_getitem_concat_reshape_grad():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(6)

    def build(x):
        head = ad.getitem(x, slice(0, 3))
        tail = ad.getitem(x, slice(3, 6))
        joined = ad.concat([ad.square(head), tail], axis=0)
        return ad.asum(ad.square(ad.reshape(joined, (2, 3))))

    check_grad(build, x0)


def test_getitem_adjoint_equals_add_at_for_basic_and_fancy_indices():
    rng = np.random.default_rng(14)
    x0 = rng.standard_normal((4, 5))
    for idx in (2, np.int64(-1), slice(1, 4), (slice(None), slice(0, 3)), (1, 3),
                (slice(None, None, 2), -2), [0, 2, 0], (np.array([3, 3]), slice(1, 3))):
        tape = ad.Tape()
        x = tape.var(x0)
        part = ad.getitem(x, idx)
        g = rng.standard_normal(np.shape(part.value))
        g.flat[0] = -0.0
        want = np.zeros_like(x0)
        np.add.at(want, idx, g)
        (got,) = part._vjp(g)
        assert got.tobytes() == want.tobytes(), idx


def test_stack_grad():
    rng = np.random.default_rng(15)
    x0 = rng.standard_normal((2, 3))
    w = rng.standard_normal(3)
    check_grad(lambda x: ad.asum(ad.square(ad.stack([x[0], ad.square(x[1]), x[0], w]))), x0)
    assert ad.stack([x0[0], w]).tolist() == [x0[0].tolist(), w.tolist()]


def test_sqrt_adjoint_is_zero_where_the_root_is_zero():
    tape = ad.Tape()
    x = tape.var([0.0, 4.0, 0.0])
    tape.backward(ad.asum(ad.sqrt(ad.asum(ad.square(ad.reshape(x, (3, 1))), axis=1))))
    np.testing.assert_array_equal(ad.grad_of(x), [0.0, 1.0, 0.0])


def test_square_sqrt_relu_grad():
    rng = np.random.default_rng(4)
    # Keep entries away from 0 where relu/sqrt are non-differentiable.
    x0 = np.concatenate([rng.uniform(0.3, 2.0, 4), rng.uniform(-2.0, -0.3, 4)])
    check_grad(lambda x: ad.asum(ad.relu(x)), x0)
    check_grad(lambda x: ad.asum(ad.sqrt(ad.add(ad.square(x), 1.0))), x0)


def test_floor_clamp_grad_blocks_below_floor():
    tape = ad.Tape()
    x = tape.var(np.array([0.5, 2.0e-7, -1.0]))
    y = ad.floor_clamp(x, 1e-6)
    tape.backward(ad.asum(y))
    # Entries at the floor are flat; entries above pass gradient through.
    np.testing.assert_array_equal(ad.grad_of(x), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(ad.val(y), [0.5, 1e-6, 1e-6])


def test_diag_roundtrip_grad():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(0.5, 2.0, size=5)
    check_grad(lambda x: ad.asum(ad.diag(ad.square(x))), x0)


def test_asum_axis_grad():
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal((3, 4))
    check_grad(lambda x: ad.asum(ad.square(ad.asum(x, axis=0))), x0)


def test_spd_inverse_value_and_adjoint():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        a0 = m @ m.T + 4.0 * np.eye(4)
        got = ad.spd_inverse_rows(a0[None])[0][0]
        np.testing.assert_allclose(got, np.linalg.inv(a0), rtol=1e-10, atol=1e-12)

    w = rng.standard_normal((4, 4))
    w = 0.5 * (w + w.T)

    def build(x):  # tr(W A^-1) as the dot product of the flattened matrices
        inv, _cond = ad.spd_inverse_rows(ad.reshape(x, (1, 4, 4)))
        return ad.matmul(ad.reshape(inv, (16,)), w.reshape(16))

    m = rng.standard_normal((4, 4))
    a0 = m @ m.T + 4.0 * np.eye(4)
    tape = ad.Tape()
    leaf = tape.var(a0)
    tape.backward(build(leaf))
    got = ad.grad_of(leaf)
    # d tr(W A^-1) / dA = -A^-1 W A^-1 (W symmetric).
    inv = np.linalg.inv(a0)
    want = -(inv @ w @ inv)
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10)


def test_spd_inverse_longdouble():
    m = np.array([[2.0, 0.3], [0.3, 1.0]], dtype=np.longdouble)
    inv = ad.spd_inverse_rows(m[None])[0][0]
    assert inv.dtype == np.longdouble
    np.testing.assert_allclose(np.asarray(m @ inv, dtype=float), np.eye(2), atol=1e-14)


def test_batched_matmul_grad():
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal((3, 4, 2))
    batch = rng.standard_normal((3, 2, 5))
    left = rng.standard_normal((3, 5, 4))
    mat = rng.standard_normal((5, 4))
    check_grad(lambda x: ad.asum(ad.square(ad.matmul(x, batch))), x0)  # 3-D @ 3-D
    check_grad(lambda x: ad.asum(ad.square(ad.matmul(left, x))), x0)  # 3-D @ 3-D
    check_grad(lambda x: ad.asum(ad.square(ad.matmul(mat, x))), x0)  # 2-D @ 3-D
    check_grad(lambda x: ad.asum(ad.square(ad.matmul(x, mat[:2]))), x0)  # 3-D @ 2-D
    check_grad(lambda x: ad.asum(ad.square(ad.matmul(x, mat[0, :2]))), x0)  # 3-D @ 1-D
    check_grad(lambda u: ad.asum(ad.square(ad.matmul(u, x0))), mat[0])  # 1-D @ 3-D
    # the broadcast 2-D operand sums its adjoint over the batch
    check_grad(lambda w: ad.asum(ad.square(ad.matmul(x0, w))), mat[:2])
    check_grad(lambda w: ad.asum(ad.square(ad.matmul(w, x0))), mat)


def _spd_stack(rng, k, n):
    m = rng.standard_normal((k, n, n))
    return m @ np.swapaxes(m, -1, -2) + n * np.eye(n)


def test_batched_spd_inverse_value_and_adjoint():
    rng = np.random.default_rng(14)
    a0 = _spd_stack(rng, 3, 4)
    np.testing.assert_allclose(ad.spd_inverse_rows(a0)[0], np.linalg.inv(a0), rtol=1e-10,
                               atol=1e-12)
    # the Cholesky reads one triangle, so differentiate through (X + X^T) / 2
    transpose = np.arange(a0.size).reshape(a0.shape).transpose(0, 2, 1)

    def sym(x):
        return ad.div(ad.add(x, ad.gather(x, transpose)), 2.0)

    w = rng.standard_normal((3, 4, 4))
    check_grad(lambda x: ad.asum(ad.square(ad.sub(ad.spd_inverse_rows(sym(x))[0], w))), a0,
               rtol=1e-6, atol=1e-9)


def test_lapack_and_hand_rolled_inverses_agree():
    rng = np.random.default_rng(15)
    a = _spd_stack(rng, 6, 7)
    lapack, cond = ad._spd_inverse_rows(a)
    hand, cond_ld = ad._spd_inverse_rows(a.astype(np.longdouble))
    assert hand.dtype == np.longdouble
    np.testing.assert_allclose(np.asarray(hand, dtype=float), lapack, rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.asarray(cond_ld, dtype=float), cond, rtol=1e-12)
    # an indefinite matrix sends a float64 stack down the hand-rolled loop
    mixed = a.copy()
    mixed[2] = -np.eye(7)
    fallback, _ = ad._spd_inverse_rows(mixed)
    keep = [0, 1, 3, 4, 5]
    np.testing.assert_allclose(fallback[keep], lapack[keep], rtol=0, atol=1e-13)


def test_bad_row_in_a_batch_is_reported_not_raised():
    rng = np.random.default_rng(16)
    a = _spd_stack(rng, 4, 3)
    a[1] = np.diag([1.0, -1.0, 1.0])  # indefinite: a pivot fails
    a[3] = np.diag([1.0, 1e-14, 1.0])  # positive definite but beyond the condition guard
    tape = ad.Tape()
    leaf = tape.var(a)
    inv, cond = ad.spd_inverse_rows(leaf)
    assert np.isinf(cond[1]) and cond[3] > ad.SPD_CONDITION_LIMIT
    assert np.all(cond[[0, 2]] <= ad.SPD_CONDITION_LIMIT)
    np.testing.assert_array_equal(inv.value[[1, 3]], 0.0)
    np.testing.assert_allclose(inv.value[[0, 2]], np.linalg.inv(a[[0, 2]]), rtol=1e-10)
    tape.backward(ad.asum(inv))
    np.testing.assert_array_equal(ad.grad_of(leaf)[[1, 3]], 0.0)


def test_batched_diag_and_scatter_rows_grad():
    rng = np.random.default_rng(17)
    x0 = rng.uniform(0.5, 2.0, size=(3, 4))
    got = ad.diag(x0)
    np.testing.assert_array_equal(got, np.stack([np.diag(row) for row in x0]))
    check_grad(lambda x: ad.asum(ad.square(ad.diag(ad.square(x)))), x0)

    base = rng.standard_normal((5, 2, 2))
    rows = np.array([3, 0])
    vals = rng.standard_normal((2, 2, 2))
    out = ad.scatter_rows(base, rows, vals)
    np.testing.assert_array_equal(out[rows], vals)
    np.testing.assert_array_equal(out[[1, 2, 4]], base[[1, 2, 4]])
    w = rng.standard_normal((5, 2, 2))
    check_grad(lambda x: ad.asum(ad.square(ad.sub(ad.scatter_rows(x, rows, vals), w))), base)
    check_grad(lambda v: ad.asum(ad.square(ad.sub(ad.scatter_rows(base, rows, v), w))), vals)
    # longdouble rows promote a float64 base; they are never rounded into it
    wide = ad.scatter_rows(base, rows, vals.astype(np.longdouble) / 3)
    assert wide.dtype == np.longdouble
    assert wide[3, 0, 0] == np.longdouble(vals[0, 0, 0]) / 3


def test_linear_matches_manual():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(5)
    w = rng.standard_normal((5, 3))
    b = rng.standard_normal(3)
    np.testing.assert_array_equal(ad.linear(x, w, b), x @ w + b)


def test_linear_grad():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(5)
    w0 = rng.standard_normal((5, 3))
    b0 = rng.standard_normal(3)
    check_grad(lambda w: ad.asum(ad.square(ad.linear(x, w, b0))), w0)
    check_grad(lambda b: ad.asum(ad.square(ad.linear(x, w0, b))), b0)


def reference_conv2d(x, w, b, stride, pad):
    """Direct nested-loop convolution of one (c, h, w) image: the conv2d oracle."""
    c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    xp = np.zeros((c_in, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + wd] = x
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((c_out, ho, wo), dtype=x.dtype)
    for co in range(c_out):
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, i * stride:i * stride + k, j * stride:j * stride + k]
                out[co, i, j] = np.sum(patch * w[co]) + b[co]
    return out


def test_conv2d_matches_reference():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 3, 8, 7))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    for stride, pad in ((2, 1), (1, 0), (1, 2)):
        got = ad.conv2d(x, w, b, stride=stride, pad=pad)
        for n in range(3):
            want = reference_conv2d(x[n], w, b, stride, pad)
            assert got.shape[1:] == want.shape
            np.testing.assert_allclose(got[n], want, rtol=1e-12, atol=1e-12)
            # one image is a batch of one
            np.testing.assert_allclose(ad.conv2d(x[n:n + 1], w, b, stride, pad)[0], want,
                                       rtol=1e-12, atol=1e-12)


def test_conv2d_grad():
    # a batch of 3 images: gradients of weights, bias and input
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 2, 4, 4))
    w0 = rng.standard_normal((3, 2, 3, 3))
    b0 = rng.standard_normal(3)
    check_grad(lambda w: ad.asum(ad.square(ad.conv2d(x, w, b0))), w0, rtol=1e-5)
    check_grad(lambda b: ad.asum(ad.square(ad.conv2d(x, w0, b))), b0, rtol=1e-5)
    tape = ad.Tape()
    xleaf = tape.var(x)
    tape.backward(ad.asum(ad.square(ad.conv2d(xleaf, w0, b0))))

    def f(xv):
        return float(sum(np.sum(np.asarray(reference_conv2d(
            img, w0.astype(xv.dtype), b0.astype(xv.dtype), 2, 1)) ** 2) for img in xv))

    want = central_diff(f, x)
    np.testing.assert_allclose(ad.grad_of(xleaf), want, rtol=1e-5, atol=1e-8)


def test_gather_reads_zero_past_the_end_and_scatters_back():
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal((2, 3))
    idx = np.array([[0, 5, 5, 6], [6, 2, 0, 1]])  # repeats, and 6 = x.size reads zero
    got = ad.gather(x0, idx)
    np.testing.assert_array_equal(got, [[x0[0, 0], x0[1, 2], x0[1, 2], 0.0],
                                        [0.0, x0[0, 2], x0[0, 0], x0[0, 1]]])
    w = rng.standard_normal(idx.shape)
    check_grad(lambda x: ad.asum(ad.square(ad.sub(ad.gather(x, idx), w))), x0)
    assert ad.gather(x0.astype(np.longdouble), idx).dtype == np.longdouble


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_gather_adjoint_equals_add_at_bit_for_bit(dtype):
    idx, _, _ = ad.im2col_indices(2, 3, 6, 6, 3, 2, 1)
    assert np.unique(idx).size < idx.size  # patches overlap, so entries repeat
    rng = np.random.default_rng(16)
    tape = ad.Tape()
    x = tape.var(rng.standard_normal((2, 3, 6, 6)).astype(dtype))
    out = ad.gather(x, idx)
    g = rng.standard_normal(idx.shape).astype(dtype)
    want = np.zeros(x.value.size + 1, dtype=dtype)
    np.add.at(want, idx, g)
    (got,) = out._vjp(g)
    assert got.dtype == dtype
    assert got.tobytes() == want[:-1].reshape(x.shape).tobytes()


def test_im2col_indices_are_built_once_and_read_only():
    first = ad.im2col_indices(3, 8, 8, 8, 3, 2, 1)
    assert ad.im2col_indices(3, 8, 8, 8, 3, 2, 1) is first
    idx, out_h, out_w = first
    assert idx.shape == (8 * 3 * 3, 3 * out_h * out_w) and (out_h, out_w) == (4, 4)
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0, 0] = 1


def test_tape_plain_bit_identity():
    """Tape mode must run the identical arithmetic as plain evaluation."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 4))
    a = x @ x.T + 3.0 * np.eye(4)
    v = rng.standard_normal(4)

    def compute(inp_a, inp_v):
        inv = ad.reshape(ad.spd_inverse_rows(ad.reshape(inp_a, (1, 4, 4)))[0], (4, 4))
        y = ad.matmul(inv, ad.reshape(inp_v, (4, 1)))
        z = ad.relu(ad.sub(y, 0.1))
        return ad.asum(ad.sqrt(ad.add(ad.square(z), 1e-3)))

    plain = compute(a, v)
    tape = ad.Tape()
    taped = compute(tape.var(a), tape.var(v))
    assert float(plain) == float(ad.val(taped))


def test_backward_requires_scalar_and_same_tape():
    tape = ad.Tape()
    x = tape.var(np.ones(3))
    with pytest.raises(ValueError):
        tape.backward(ad.square(x))
    other = ad.Tape()
    y = other.var(np.ones(1))
    with pytest.raises(ValueError):
        tape.backward(ad.asum(y))


def test_grad_of_unused_leaf_is_zero():
    tape = ad.Tape()
    x = tape.var(np.ones(3))
    y = tape.var(np.full(3, 2.0))
    tape.backward(ad.asum(ad.square(x)))
    np.testing.assert_array_equal(ad.grad_of(y), np.zeros(3))


def test_gradient_accumulates_over_reuse():
    tape = ad.Tape()
    x = tape.var(np.array([3.0]))
    # loss = x.x uses the leaf twice; d/dx = 2x.
    tape.backward(ad.matmul(x, x))
    np.testing.assert_allclose(ad.grad_of(x), [6.0])
