"""Reverse-mode differentiation tape for the tracking loss.

The primitive set is exactly what the differentiable filter, the covariance
network, and the training loss need: broadcasting addition, subtraction and
division, matmul, slicing (`node[idx]`), concatenation and reshaping, sums,
elementwise square and square root, ReLU, a floor clamp, diagonal
embedding, a flat gather (patch extraction for batched convolutions), and
a symmetric positive definite inverse.

Every operation dispatches on whether an operand is a `Node`. With raw
ndarrays it computes and returns plain values; with at least one `Node` it
runs the identical arithmetic and records the adjoint rule. Tape mode is
therefore bit-identical to plain mode by construction. All ops preserve the
operand dtype, so the whole pipeline can run in float64 or in longdouble
(used by the finite-difference gradient oracles).
"""

from __future__ import annotations

import functools

import numpy as np


class SpdError(ValueError):
    """A matrix handed to the SPD inverse is not usably positive definite."""


class Tape:
    """Records primal operations in execution order.

    Execution order is a topological order of the dataflow graph, so the
    backward pass is one reverse sweep that visits each node exactly once.
    """

    def __init__(self):
        self._nodes = []

    def var(self, value, dtype=None):
        """Create a leaf node whose gradient will be accumulated."""
        v = np.asarray(value, dtype=dtype) if dtype is not None else np.asarray(value)
        return Node(self, v.copy(), (), None)

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss: "Node"):
        """Populate `.grad` on every node reachable from `loss`.

        `loss` must be scalar. Nodes not on a path to the loss keep
        `grad = None`; read leaves through `grad_of` to get exact zeros.
        """
        if loss.tape is not self:
            raise ValueError("loss node belongs to a different tape")
        if np.size(loss.value) != 1:
            raise ValueError(f"loss must be scalar, got shape {np.shape(loss.value)}")
        for n in self._nodes:
            n.grad = None
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self._nodes):
            g = node.grad
            if g is None or node._vjp is None:
                continue
            parent_grads = node._vjp(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None:
                    continue
                if parent.grad is None:
                    parent.grad = pg.copy() if isinstance(pg, np.ndarray) else np.asarray(pg)
                else:
                    parent.grad = parent.grad + pg


class Node:
    """One tape entry: a primal value plus the adjoint rule that produced it."""

    __slots__ = ("tape", "value", "_parents", "_vjp", "grad")

    def __init__(self, tape, value, parents, vjp):
        self.tape = tape
        self.value = value
        self._parents = parents
        self._vjp = vjp
        self.grad = None
        tape._nodes.append(self)

    @property
    def shape(self):
        return np.shape(self.value)

    def __getitem__(self, idx):
        return getitem(self, idx)


def val(x):
    """Primal value of `x`, whether it is a Node or already an array."""
    return x.value if isinstance(x, Node) else x


def grad_of(leaf: Node):
    """Gradient accumulated on a leaf, as an exact zero array if untouched."""
    if leaf.grad is None:
        return np.zeros_like(leaf.value)
    return leaf.grad


def _tape_of(*args):
    for a in args:
        if isinstance(a, Node):
            return a.tape
    return None


def _unbroadcast(grad, shape):
    """Reduce `grad` back to `shape` after a broadcasting forward op."""
    if np.shape(grad) == tuple(shape):
        return grad
    g = np.asarray(grad)
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    out = val(a) + val(b)
    tape = _tape_of(a, b)
    if tape is None:
        return out
    sa, sb = np.shape(val(a)), np.shape(val(b))

    def vjp(g):
        return (
            _unbroadcast(g, sa) if isinstance(a, Node) else None,
            _unbroadcast(g, sb) if isinstance(b, Node) else None,
        )

    return Node(tape, out, tuple(x for x in (a, b) if isinstance(x, Node)),
                _pack_vjp(vjp, (a, b)))


def sub(a, b):
    out = val(a) - val(b)
    tape = _tape_of(a, b)
    if tape is None:
        return out
    sa, sb = np.shape(val(a)), np.shape(val(b))

    def vjp(g):
        return (
            _unbroadcast(g, sa) if isinstance(a, Node) else None,
            _unbroadcast(-g, sb) if isinstance(b, Node) else None,
        )

    return Node(tape, out, tuple(x for x in (a, b) if isinstance(x, Node)),
                _pack_vjp(vjp, (a, b)))


def div(a, b):
    av, bv = val(a), val(b)
    out = av / bv
    tape = _tape_of(a, b)
    if tape is None:
        return out
    sa, sb = np.shape(av), np.shape(bv)

    def vjp(g):
        return (
            _unbroadcast(g / bv, sa) if isinstance(a, Node) else None,
            _unbroadcast(-g * av / (bv * bv), sb) if isinstance(b, Node) else None,
        )

    return Node(tape, out, tuple(x for x in (a, b) if isinstance(x, Node)),
                _pack_vjp(vjp, (a, b)))


def _pack_vjp(raw_vjp, operands):
    """Strip grads for non-Node operands so they line up with `_parents`."""

    def vjp(g):
        grads = raw_vjp(g)
        return tuple(pg for op, pg in zip(operands, grads) if isinstance(op, Node))

    return vjp


def matmul(a, b):
    av, bv = val(a), val(b)
    out = av @ bv
    tape = _tape_of(a, b)
    if tape is None:
        return out
    a_nd, b_nd = np.ndim(av), np.ndim(bv)

    def vjp(g):
        ga = gb = None
        if isinstance(a, Node):
            if a_nd == 2 and b_nd == 2:
                ga = g @ bv.T
            elif a_nd == 2 and b_nd == 1:
                ga = np.outer(g, bv)
            elif a_nd == 1 and b_nd == 2:
                ga = bv @ g
            else:
                ga = g * bv
        if isinstance(b, Node):
            if a_nd == 2 and b_nd == 2:
                gb = av.T @ g
            elif a_nd == 2 and b_nd == 1:
                gb = av.T @ g
            elif a_nd == 1 and b_nd == 2:
                gb = np.outer(av, g)
            else:
                gb = g * av
        return (ga, gb)

    return Node(tape, out, tuple(x for x in (a, b) if isinstance(x, Node)),
                _pack_vjp(vjp, (a, b)))


def getitem(a, idx):
    if not isinstance(a, Node):
        return a[idx]
    out = a.value[idx]
    shape = a.value.shape
    dtype = a.value.dtype

    def vjp(g):
        full = np.zeros(shape, dtype=dtype)
        np.add.at(full, idx, g)
        return (full,)

    return Node(a.tape, out, (a,), vjp)


def concat(parts, axis=0):
    values = [val(p) for p in parts]
    out = np.concatenate(values, axis=axis)
    tape = _tape_of(*parts)
    if tape is None:
        return out
    sizes = [v.shape[axis] for v in values]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        grads = []
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if isinstance(p, Node):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                grads.append(g[tuple(sl)])
            else:
                grads.append(None)
        return tuple(grads)

    return Node(tape, out, tuple(p for p in parts if isinstance(p, Node)),
                _pack_vjp(vjp, tuple(parts)))


def reshape(a, shape):
    if not isinstance(a, Node):
        return np.reshape(a, shape)
    orig = a.value.shape
    out = np.reshape(a.value, shape)
    return Node(a.tape, out, (a,), lambda g: (np.reshape(g, orig),))


def asum(a, axis=None):
    if not isinstance(a, Node):
        return np.sum(a, axis=axis)
    out = np.sum(a.value, axis=axis)
    shape = a.value.shape
    dtype = a.value.dtype

    def vjp(g):
        if axis is None:
            return (np.ones(shape, dtype=dtype) * g,)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return Node(a.tape, out, (a,), vjp)


def square(a):
    av = val(a)
    out = av * av
    if not isinstance(a, Node):
        return out
    return Node(a.tape, out, (a,), lambda g: (g * (2.0 * av),))


def sqrt(a):
    av = val(a)
    out = np.sqrt(av)
    if not isinstance(a, Node):
        return out
    return Node(a.tape, out, (a,), lambda g: (g / (2.0 * out),))


def relu(a):
    av = val(a)
    out = np.maximum(av, 0.0)
    if not isinstance(a, Node):
        return out
    mask = av > 0.0
    return Node(a.tape, out, (a,), lambda g: (g * mask,))


def floor_clamp(a, lo):
    """max(a, lo) elementwise; gradient is zero wherever the floor is active."""
    av = val(a)
    out = np.maximum(av, lo)
    if not isinstance(a, Node):
        return out
    mask = av > lo
    return Node(a.tape, out, (a,), lambda g: (g * mask,))


def diag(v):
    """Embed a vector as a diagonal matrix."""
    vv = val(v)
    out = np.diag(vv)
    if not isinstance(v, Node):
        return out
    return Node(v.tape, out, (v,), lambda g: (np.diagonal(g).copy(),))


# --- symmetric positive definite inverse -----------------------------------
#
# Hand-rolled Cholesky so the op works in any float dtype (LAPACK-backed
# np.linalg does not accept longdouble, which the gradient oracles need).
# The 7x7 and 10x10 systems here make the O(n^3) loops irrelevant.

SPD_CONDITION_LIMIT = 1e12


def _cholesky(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    L = np.zeros_like(a)
    for i in range(n):
        for j in range(i + 1):
            s = a[i, j] - L[i, :j] @ L[j, :j]
            if i == j:
                if s <= 0.0:
                    raise SpdError(f"matrix is not positive definite (pivot {i})")
                L[i, j] = np.sqrt(s)
            else:
                L[i, j] = s / L[j, j]
    return L


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = L.shape[0]
    X = np.zeros_like(B)
    for i in range(n):
        X[i] = (B[i] - L[i, :i] @ X[:i]) / L[i, i]
    return X


def _solve_upper(U: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = U.shape[0]
    X = np.zeros_like(B)
    for i in range(n - 1, -1, -1):
        X[i] = (B[i] - U[i, i + 1:] @ X[i + 1:]) / U[i, i]
    return X


def _spd_inverse_value(a: np.ndarray) -> np.ndarray:
    L = _cholesky(a)
    d = np.diagonal(L)
    cond_est = (np.max(d) / np.min(d)) ** 2
    if cond_est > SPD_CONDITION_LIMIT:
        raise SpdError(f"degenerate covariance: condition estimate {cond_est:.3e}")
    eye = np.eye(a.shape[0], dtype=a.dtype)
    return _solve_upper(L.T, _solve_lower(L, eye))


def spd_inverse(a):
    """Inverse of a symmetric positive definite matrix via Cholesky.

    Adjoint: for Y = X^-1, dL/dX = -Y^T (dL/dY) Y^T.
    """
    av = val(a)
    out = _spd_inverse_value(av)
    if not isinstance(a, Node):
        return out
    return Node(a.tape, out, (a,), lambda g: (-(out.T @ g @ out.T),))


# --- convolution and linear stages ------------------------------------------


@functools.lru_cache(maxsize=256)
def im2col_indices(n, c, h, w, k, stride, pad):
    """Gather indices of the conv patches of an (n, c, h, w) batch.

    Built once per shape. Returns read-only (idx, out_h, out_w): idx has
    shape (c*k*k, n*out_h*out_w), rows ordered by (channel, kernel row,
    kernel column) and columns by (image, output row, output column), and
    holds flat indices into the batch; positions in the zero border hold
    n*c*h*w, the index `gather` reads as zero.
    """
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    ci, ki, kj, ni, oi, oj = np.ix_(np.arange(c), np.arange(k), np.arange(k),
                                    np.arange(n), np.arange(out_h), np.arange(out_w))
    rows = stride * oi + ki - pad
    cols = stride * oj + kj - pad
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    idx = np.where(inside, ((ni * c + ci) * h + rows) * w + cols, n * c * h * w)
    idx = idx.reshape(c * k * k, n * out_h * out_w)
    idx.flags.writeable = False
    return idx, out_h, out_w


@functools.lru_cache(maxsize=256)
def _batch_major_indices(c, n, p):
    """Read-only flat indices reordering a (c, n, p) array to (n, c, p)."""
    idx = np.arange(c * n * p).reshape(c, n, p).transpose(1, 0, 2).copy()
    idx.flags.writeable = False
    return idx


def gather(x, idx):
    """Entries of `x` at the flat indices `idx`; the index x.size reads zero.

    Patch extraction for convolutions (the zero border maps to x.size) and
    the reorder of their output. The adjoint scatter-adds onto `x`.
    """
    xv = val(x)
    flat = np.concatenate([xv.reshape(-1), np.zeros(1, dtype=xv.dtype)])
    out = flat[idx]
    if not isinstance(x, Node):
        return out

    def vjp(g):
        full = np.zeros(flat.size, dtype=xv.dtype)
        np.add.at(full, idx, g)
        return (full[:-1].reshape(xv.shape),)

    return Node(x.tape, out, (x,), vjp)


def linear(x, weight, bias):
    """x @ weight + bias, tape-aware in any operand."""
    return add(matmul(x, weight), bias)


def conv2d(x, weight, bias, stride=2, pad=1):
    """2D convolution of an (n, c, h, w) batch with (c_out, c, k, k) weights.

    One matmul covers the patches of all n images; the adjoint follows by
    composition. Returns an (n, c_out, out_h, out_w) tensor.
    """
    n, c_x, h, w = val(x).shape
    c_out, c_in, k, _ = val(weight).shape
    if c_x != c_in:
        raise ValueError(f"conv input has {c_x} channels, weights expect {c_in}")
    idx, out_h, out_w = im2col_indices(n, c_in, h, w, k, stride, pad)
    wmat = reshape(weight, (c_out, c_in * k * k))
    out = add(matmul(wmat, gather(x, idx)), reshape(bias, (c_out, 1)))
    out = gather(out, _batch_major_indices(c_out, n, out_h * out_w))
    return reshape(out, (n, c_out, out_h, out_w))
