"""Tape autodiff tests: per-op finite differences, plain/tape bit identity,
the SPD inverse's adjoint and guard rails, and the consuming sweep."""

import ast
import dataclasses
import itertools
import pathlib
import weakref

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
        (adjoint,) = part._adjoints
        got = adjoint(g)
        assert got.tobytes() == want.tobytes(), idx


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
    def sym(x):
        return ad.div(ad.add(x, ad.transpose(x, (0, 2, 1))), 2.0)

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


def test_a_lapack_stack_gives_each_matrix_the_bits_of_its_own_call():
    rng = np.random.default_rng(18)
    a = _spd_stack(rng, 5, 7)
    a[3] = np.diag([1.0, 1e-14, 1.0, 1.0, 1.0, 1.0, 1.0])  # factored, but over the limit
    for stack in (a[[0, 1, 2, 4]], a):  # no matrix over the limit, then one
        inv, cond = ad._spd_inverse_rows(stack)
        for k, matrix in enumerate(stack):
            own, own_cond = ad._spd_inverse_rows(matrix[None])
            assert inv[k].tobytes() == own[0].tobytes()
            assert cond[k].tobytes() == own_cond[0].tobytes()
    assert cond[3] > ad.SPD_CONDITION_LIMIT and not inv[3].any()


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
    check_grad(lambda w: ad.asum(ad.square(ad.conv2d(x, w, b0, 2, 1))), w0, rtol=1e-5)
    check_grad(lambda b: ad.asum(ad.square(ad.conv2d(x, w0, b, 2, 1))), b0, rtol=1e-5)
    tape = ad.Tape()
    xleaf = tape.var(x)
    tape.backward(ad.asum(ad.square(ad.conv2d(xleaf, w0, b0, 2, 1))))

    def f(xv):
        return float(sum(np.sum(np.asarray(reference_conv2d(
            img, w0.astype(xv.dtype), b0.astype(xv.dtype), 2, 1)) ** 2) for img in xv))

    want = central_diff(f, x)
    np.testing.assert_allclose(ad.grad_of(xleaf), want, rtol=1e-5, atol=1e-8)


def test_im2col_reads_zero_in_the_border_and_scatters_back():
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal((2, 2, 3, 4))
    got = ad.im2col(x0, 3, 1, 1)
    padded = np.pad(x0, ((0, 0), (0, 0), (1, 1), (1, 1)))
    want = np.array([[padded[i, c, oi + ki, oj + kj] for i in range(2)
                      for oi in range(3) for oj in range(4)]
                     for c in range(2) for ki in range(3) for kj in range(3)])
    np.testing.assert_array_equal(got, want)
    assert got[0, 0] == 0.0  # the top-left kernel entry of the first patch is border
    w = rng.standard_normal(want.shape)
    check_grad(lambda x: ad.asum(ad.square(ad.sub(ad.im2col(x, 3, 1, 1), w))), x0)
    assert ad.im2col(x0.astype(np.longdouble), 3, 1, 1).dtype == np.longdouble


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_im2col_adjoint_equals_add_at_bit_for_bit(dtype):
    n, c, h, w = 3, 3, 6, 6
    idx, out_h, out_w = ad.im2col_indices(c, h, w, 3, 2, 1)
    assert np.unique(idx).size < idx.size  # patches overlap, so entries repeat
    # the flat indices of the whole batch, columns by (image, output position)
    size = n * c * h * w
    batch = np.concatenate([np.where(idx == c * h * w, size, idx + i * c * h * w)
                            for i in range(n)], axis=1)
    rng = np.random.default_rng(16)
    tape = ad.Tape()
    x = tape.var(rng.standard_normal((n, c, h, w)).astype(dtype))
    out = ad.im2col(x, 3, 2, 1)
    assert out.shape == batch.shape == (c * 9, n * out_h * out_w)
    np.testing.assert_array_equal(out.value, np.append(x.value.ravel(), 0.0)[batch])
    g = rng.standard_normal(batch.shape).astype(dtype)
    g[0, :4] = -0.0  # a -0.0 gradient adds as +0.0
    want = np.zeros(size + 1, dtype=dtype)
    np.add.at(want, batch, g)
    want = want[:-1].reshape(x.shape)
    (adjoint,) = out._adjoints
    got = adjoint(g)
    assert got.dtype == dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_im2col_indices_are_built_once_and_read_only():
    first = ad.im2col_indices(8, 8, 8, 3, 2, 1)
    assert ad.im2col_indices(8, 8, 8, 3, 2, 1) is first
    idx, out_h, out_w = first
    assert idx.shape == (8 * 3 * 3, out_h * out_w) and (out_h, out_w) == (4, 4)
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0, 0] = 1


def test_conv_index_cache_does_not_grow_with_batch_size():
    rng = np.random.default_rng(17)
    w1, b1 = rng.standard_normal((4, 3, 3, 3)), np.zeros(4)
    w2, b2 = rng.standard_normal((5, 4, 3, 3)), np.zeros(5)
    ad.im2col_indices.cache_clear()
    sizes = set()
    for n in range(1, 301):
        x = rng.standard_normal((n, 3, 8, 8))
        if n % 50:
            ad.conv2d(ad.conv2d(x, w1, b1, 2, 1), w2, b2, 2, 1)
        else:  # now and then on the tape, backward pass included
            tape = ad.Tape()
            inner = ad.conv2d(tape.var(x), w1, b1, 2, 1)
            tape.backward(ad.asum(ad.conv2d(inner, w2, b2, 2, 1)))
        sizes.add(ad.im2col_indices.cache_info().currsize)
    assert sizes == {2}  # one entry per conv layer's image shape


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


def test_backward_consumes_the_graph_and_keeps_only_leaf_gradients():
    tape = ad.Tape()
    w0 = np.arange(6.0).reshape(3, 2)
    w = tape.var(w0)
    x = np.ones((4, 3))  # held only by the adjoint of the weight's matmul
    x_alive = weakref.ref(x)
    hidden = ad.linear(x, w, np.zeros(2))
    loss = ad.asum(ad.square(hidden))
    del x
    assert w.value is w0
    assert x_alive() is not None
    tape.backward(loss)
    assert x_alive() is None
    assert len(tape) == 5 and hidden.value.shape == (4, 2)
    np.testing.assert_array_equal(ad.grad_of(w), 2.0 * np.ones((3, 4)) @ hidden.value)
    for node in (hidden, loss):
        assert node.grad is None
        with pytest.raises(ValueError, match="leaf"):
            ad.grad_of(node)


def test_a_consumed_or_released_tape_cannot_sweep_again():
    tape = ad.Tape()
    x = tape.var(np.array([1.0, 2.0]))
    loss = ad.asum(ad.square(x))
    with pytest.raises(ValueError, match="leaf"):
        ad.grad_of(loss)
    tape.backward(loss)
    with pytest.raises(ValueError, match="swept"):
        tape.backward(loss)
    np.testing.assert_array_equal(ad.grad_of(x), [2.0, 4.0])
    released = ad.Tape()
    loss = ad.asum(released.var(np.ones(2)))
    released.release()
    with pytest.raises(ValueError, match="swept"):
        released.backward(loss)


def test_gradient_accumulates_over_reuse():
    tape = ad.Tape()
    x = tape.var(np.array([3.0]))
    # loss = x.x uses the leaf twice; d/dx = 2x.
    tape.backward(ad.matmul(x, x))
    np.testing.assert_allclose(ad.grad_of(x), [6.0])


# every taped op, as (call on its operands, operands drawn from an rng)
OPS = {
    "add": (ad.add, lambda r: [r.standard_normal((3, 4)), r.standard_normal((1, 4))]),
    "sub": (ad.sub, lambda r: [r.standard_normal((3, 4)), r.standard_normal(4)]),
    "div": (ad.div, lambda r: [r.standard_normal((3, 4)), r.uniform(0.5, 2.0, (3, 1))]),
    "matmul": (ad.matmul, lambda r: [r.standard_normal((2, 3, 4)), r.standard_normal(4)]),
    "getitem": (lambda a: ad.getitem(a, (slice(None), [0, 2, 0])),
                lambda r: [r.standard_normal((3, 4))]),
    "scatter_rows": (lambda base, values: ad.scatter_rows(base, [3, 0], values),
                     lambda r: [r.standard_normal((4, 3)), r.standard_normal((2, 3))]),
    "concat": (lambda *parts: ad.concat(list(parts), axis=-1),
               lambda r: [r.standard_normal((2, n)) for n in (3, 1, 2)]),
    "reshape": (lambda a: ad.reshape(a, (4, 3)), lambda r: [r.standard_normal((2, 6))]),
    "asum": (lambda a: ad.asum(a, axis=1), lambda r: [r.standard_normal((3, 4))]),
    "square": (ad.square, lambda r: [r.standard_normal((3, 4))]),
    "sqrt": (ad.sqrt, lambda r: [np.append(r.uniform(0.5, 2.0, 5), 0.0)]),
    "floor_clamp": (lambda a: ad.floor_clamp(a, 0.1), lambda r: [r.standard_normal((3, 4))]),
    "diag": (ad.diag, lambda r: [r.standard_normal((2, 3))]),
    "spd_inverse_rows": (lambda a: ad.spd_inverse_rows(a)[0], lambda r: [_spd_stack(r, 2, 3)]),
    "im2col": (lambda x: ad.im2col(x, 3, 2, 1), lambda r: [r.standard_normal((2, 2, 5, 5))]),
    "transpose": (lambda a: ad.transpose(a, (2, 0, 1)),
                  lambda r: [r.standard_normal((2, 3, 4))]),
}


def _run(name, on_tape):
    """The op's value and each operand's gradient (None for a plain operand) with
    operand i a Node where `on_tape[i]`, under the loss sum(out * weights)."""
    call, draw = OPS[name]
    rng = np.random.default_rng(sorted(OPS).index(name))
    tape = ad.Tape()
    args = [tape.var(x) if node else x for x, node in zip(draw(rng), on_tape)]
    out = call(*args)
    if not isinstance(out, ad.Node):
        return out, [None] * len(args)
    weights = rng.standard_normal(out.value.size)
    tape.backward(ad.matmul(ad.reshape(out, (-1,)), weights))
    return out.value, [ad.grad_of(a) if isinstance(a, ad.Node) else None for a in args]


@pytest.mark.parametrize("name, on_tape", [
    (name, on_tape) for name, (_, draw) in OPS.items()
    for on_tape in itertools.product((False, True), repeat=len(draw(np.random.default_rng())))
    if any(on_tape)
], ids=lambda v: "-".join("node" if x else "plain" for x in v) if isinstance(v, tuple) else v)
def test_each_operand_may_be_plain_or_a_node(name, on_tape):
    plain, _ = _run(name, [False] * len(on_tape))
    value, grads = _run(name, on_tape)
    assert value.dtype == plain.dtype and value.shape == plain.shape
    assert value.tobytes() == plain.tobytes()
    _, all_grads = _run(name, [True] * len(on_tape))
    for i, (grad, want) in enumerate(zip(grads, all_grads)):
        if on_tape[i]:
            assert grad.dtype == want.dtype and grad.tobytes() == want.tobytes(), i
        else:
            assert grad is None


def test_nodes_are_made_only_by_the_leaf_and_the_recording_helper():
    tree = ast.parse(pathlib.Path(ad.__file__).read_text(encoding="utf-8"))
    homes = [f for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "Tape"
             for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "var"]
    homes += [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_record"]
    assert len(homes) == 2
    allowed = {n.lineno for f in homes for n in ast.walk(f) if hasattr(n, "lineno")}
    made = []
    for path in sorted(pathlib.Path(ad.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            name = getattr(func, "id", getattr(func, "attr", None))
            if isinstance(node, ast.Call) and name == "Node" and not (
                    path.name == "autodiff.py" and node.lineno in allowed):
                made.append(f"{path.name}:{node.lineno}")
    assert not made, "make nodes through autodiff._record: " + ", ".join(made)


def test_no_module_starts_a_thread():
    # every pass and every piece of the optimizer runs on the calling thread
    found = []
    for path in sorted(pathlib.Path(ad.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            func = getattr(node, "func", None)
            called = getattr(func, "id", getattr(func, "attr", None))
            if any(m.split(".")[0] in ("threading", "concurrent") for m in modules) or (
                    isinstance(node, ast.Call) and called in ("Thread", "ThreadPoolExecutor")):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "cooptrack starts no thread: " + ", ".join(found)


# names a module imports only so that callers can reach them as `<module>.<name>`
REEXPORTS = {
    "cli.py": {"GT_FILE", "DETECTIONS_FILE", "TENSORS_FILE", "TRACKS_FILE",
               "load_sim_frames", "reports_to_records", "write_sim_output"},
    # the benchmark's tracer test looks it up as `pipeline.encode_detection`
    "pipeline.py": {"encode_detection"},
}


def test_every_imported_name_is_used_in_its_module():
    dead = []
    for path in sorted(pathlib.Path(ad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exempt = REEXPORTS.get(path.name, set())
        dead += [f"{path.name}:{line} {name}" for name, line in imported.items()
                 if name not in used and name not in exempt]
    assert not dead, "imported but never used: " + ", ".join(sorted(dead))


def test_no_module_reads_another_modules_private_name():
    # a name two modules share is public, and defined in the module that owns it
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for path in sorted(pathlib.Path(ad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = _module_bindings(path.stem, tree, {})
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:  # `from .geometry import _x`
                found += [f"{path.name}:{node.lineno} {node.module}.{alias.name}"
                          for alias in node.names if private(alias.name)]
            elif isinstance(node, ast.Attribute) and private(node.attr):  # `geometry._x`
                name = _qualified(node, bound)
                if name:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, "private to another module: " + ", ".join(found)


# names defined in src/ that no code there uses, each kept for the reason given
UNREFERENCED_KEPT = {
    "features.encode_detection": "the specification of a packet's (N, 18, 256) encoding, "
                                 "from which the pipeline and reference tracker tests "
                                 "take their full-width reference",
    "filter.fuse_sequential": "acceptance criterion 1 folds the update with it",
    "geometry.transform_box": "the per-box reference the geometry and simulator tests hold "
                              "transform_rows to, bit for bit",
    "io.save_config": "the acceptance and CLI tests write their config files with it",
    "metrics.PAYLOAD_RATIO": "the shared-to-box payload ratio that acceptance criterion 7 "
                             "reads",
    "pipeline.CoopTracker.skipped_updates": "the count of degenerate updates a run skips, "
                                            "which the planned consistency report records",
}


def _module_bindings(module, tree, defined):
    """What each module-level name of `module` stands for: the qualified name of a
    module or definition of the package, or None for anything from outside it."""
    bound = {name.split(".")[1]: name for name in defined
             if name.startswith(module + ".") and name.count(".") == 1}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.split(".")[0], None)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                target = None  # `import numpy as np`, `from dataclasses import field`
                if node.level and node.module is None:  # `from . import autodiff as ad`
                    target = alias.name
                elif node.level:  # `from .geometry import Box7`
                    target = f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = target
    return bound


def _qualified(expr, bound):
    """The qualified name of a Name or attribute chain, or None when it is not
    rooted in a package name (`np.stack`, `self.bank`, `f(x).y`)."""
    if isinstance(expr, ast.Name):
        return bound.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = _qualified(expr.value, bound)
        return base and f"{base}.{expr.attr}"
    return None


def unreferenced_definitions(src) -> list:
    """Functions, classes, (non-dunder) methods and (non-dunder) names assigned at
    module level (constants) defined in the modules of `src` that no code there
    refers to outside their own definition. A qualified use (`ad.conv2d`,
    `CovNetParams.init`, `metrics.BOX_REALS`) counts for that name alone; an
    attribute of anything else (`self.lift`, `params.lift`) counts for every method
    so named."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(src).glob("*.py"))}
    spans = {}  # qualified name -> (module, first line, last line)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                spans[f"{module}.{node.name}"] = (module, node.lineno, node.end_lineno)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                spans.update((f"{module}.{name.id}", (module, node.lineno, node.end_lineno))
                             for target in targets for name in ast.walk(target)
                             if isinstance(name, ast.Name) and not name.id.startswith("__"))
            if isinstance(node, ast.ClassDef):
                spans.update((f"{module}.{node.name}.{item.name}",
                              (module, item.lineno, item.end_lineno))
                             for item in node.body if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("__"))
    uses = []  # (qualified name, or None for any method named `attr`; attr; module; line)
    for module, tree in trees.items():
        bound = _module_bindings(module, tree, spans)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and bound.get(node.id):
                uses.append((bound[node.id], None, module, node.lineno))
            elif isinstance(node, ast.Attribute):
                base = _qualified(node.value, bound)
                if base:
                    uses.append((f"{base}.{node.attr}", None, module, node.lineno))
                elif not (isinstance(node.value, ast.Name) and node.value.id in bound):
                    uses.append((None, node.attr, module, node.lineno))
    unused = []
    for name, (module, first, last) in spans.items():
        method = name.count(".") == 2 and name.rsplit(".", 1)[1]
        if not any((q == name or (q is None and attr == method))
                   and not (m == module and first <= line <= last)
                   for q, attr, m, line in uses):
            unused.append(name)
    return unused


def test_every_definition_is_used_in_the_package():
    unused = set(unreferenced_definitions(pathlib.Path(ad.__file__).parent))
    assert unused <= set(UNREFERENCED_KEPT), (
        "defined but never used in src/: " + ", ".join(sorted(unused - set(UNREFERENCED_KEPT))))
    assert set(UNREFERENCED_KEPT) <= unused, "kept names now used in src/: drop them from the list"


def test_no_name_is_defined_twice_in_one_scope():
    # a second definition silently replaces the first; a second `test_` drops a test
    twice = []
    for root in (pathlib.Path(ad.__file__).parent, pathlib.Path(__file__).parent):
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
                names = [node.name for node in scope.body if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
                twice += [f"{path.name}: {getattr(scope, 'name', 'module')}.{name}"
                          for name in sorted(set(names)) if names.count(name) > 1]
    assert not twice, "defined twice in one scope: " + ", ".join(twice)


def _readme_target(expr, names):
    """What an expression of README code reads attributes from: ("object", x)
    for a cooptrack module, class or function, ("instance", cls) for a call of
    a cooptrack class (or a name bound to one), else None."""
    if isinstance(expr, ast.Name):
        return names.get(expr.id)
    if isinstance(expr, ast.Call):
        target = _readme_target(expr.func, names)
        if target and target[0] == "object" and isinstance(target[1], type):
            return ("instance", target[1])
    if isinstance(expr, ast.Attribute):
        target = _readme_target(expr.value, names)
        if target and target[0] == "object" and hasattr(target[1], expr.attr):
            return ("object", getattr(target[1], expr.attr))
    return None


def _readme_has(target, attr) -> bool:
    """Whether `attr` can be read from a README target: an attribute of the
    object or class, or a dataclass field of an instance."""
    kind, obj = target
    return hasattr(obj, attr) or (kind == "instance" and dataclasses.is_dataclass(obj)
                                  and attr in {f.name for f in dataclasses.fields(obj)})


def test_the_readme_python_block_reads_only_attributes_that_exist():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```")[0] for part in readme.split("```python\n")[1:]]
    assert blocks
    missing = []
    for block in blocks:
        tree = ast.parse(block)
        compile(tree, "README.md", "exec")
        names = {}  # local name -> _readme_target
        for node in tree.body:
            for attr in ast.walk(node):
                if isinstance(attr, ast.Attribute):
                    target = _readme_target(attr.value, names)
                    if target and not _readme_has(target, attr.attr):
                        missing.append(f"{ast.unparse(attr.value)}.{attr.attr}")
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "cooptrack":
                imported = {}  # an ImportError names what the block imports in vain
                exec(compile(ast.Module([node], []), "README.md", "exec"), imported)
                names.update((name, ("object", value)) for name, value in imported.items()
                             if name != "__builtins__")
            elif isinstance(node, ast.Assign):
                value = _readme_target(node.value, names)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.pop(target.id, None)
                        if value:
                            names[target.id] = value
    assert not missing, "README reads attributes that do not exist: " + ", ".join(missing)
