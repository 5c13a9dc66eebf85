"""Reverse-mode differentiation tape for the tracking loss.

The primitive set is exactly what the differentiable filter, the covariance
network, and the training loss need: broadcasting addition, subtraction and
division, batched matmul, slicing (`node[idx]`), a row scatter,
concatenation and reshaping, sums, elementwise square and square root, a
floor clamp (ReLU is the clamp at zero), batched diagonal embedding, axis
permutation, convolution patch extraction (im2col), and a batched
symmetric positive definite inverse that reports the matrices it cannot
invert instead of raising.

Every operation dispatches on whether an operand is a `Node`. With raw
ndarrays it computes and returns plain values, before it builds any adjoint;
with at least one `Node` it runs the identical arithmetic and hands the
result to `_record`, the one place a non-leaf node is made. `_record` takes
one adjoint per operand, each mapping the output gradient to that operand's
gradient, and keeps those of the operands that are Nodes: they become the
node's parents, in operand order, so parents and gradients line up and an
adjoint never runs for a plain operand. Tape mode is therefore
bit-identical to plain mode by construction. All ops preserve the
operand dtype, so the whole pipeline can run in float64 or in longdouble
(used by the finite-difference gradient oracles).

A graph is swept once. `Tape.backward` consumes it as it goes: once a
node's adjoints have run it drops them and the node's parents, which frees
the operand arrays the adjoints held, and a non-leaf also drops its
gradient, so only leaves keep `.grad`. Node values stay until
`Tape.release`. A graph that must be swept again is built again.
"""

from __future__ import annotations

import functools
import operator

import numpy as np


class Tape:
    """Records primal operations in execution order.

    Execution order is a topological order of the dataflow graph, so the
    backward pass is one reverse sweep that visits each node exactly once.
    The sweep consumes the graph (`backward`), so a tape is swept at most
    once.
    """

    def __init__(self):
        self._nodes = []
        self._swept = False

    def var(self, value):
        """Create a leaf node whose gradient will be accumulated.

        The leaf holds `value` itself when it is already an array, uncopied,
        and the adjoints of the ops that read it hold it too: nothing may
        write into that array while the tape can still sweep, that is until
        `backward` or `release`.
        """
        return Node(self, np.asarray(value), (), ())

    def __len__(self):
        return len(self._nodes)

    def release(self):
        """Forget the recorded nodes.

        Every node refers to its tape, so while the tape lists its nodes a
        graph is a reference cycle that only the cyclic collector frees.
        Once released, the node values are freed by reference counting as
        soon as nothing else holds their nodes, and the tape cannot sweep.
        Call it once the leaf gradients have been read.
        """
        self._nodes = []
        self._swept = True

    def backward(self, loss: "Node"):
        """Populate `.grad` on the leaves reachable from `loss`, consuming the graph.

        `loss` must be scalar. The reverse sweep visits every node; once a
        node's adjoints have run it drops them and the node's parents, which
        frees the operand arrays the adjoints held, and a non-leaf also
        drops its gradient. Afterwards only leaves hold `.grad`, and node
        values stay until `release`. A second call raises ValueError, so a
        consumed graph never yields partial gradients: build the graph
        again to sweep it again.

        Leaves not on a path to the loss keep `grad = None`; read leaves
        through `grad_of` to get exact zeros. A node's first gradient is
        stored as its adjoint returned it and every later one is added into
        a new array, so a leaf's gradient may share memory with another
        leaf's: treat every `.grad` as read-only.
        """
        if loss.tape is not self:
            raise ValueError("loss node belongs to a different tape")
        if np.size(loss.value) != 1:
            raise ValueError(f"loss must be scalar, got shape {np.shape(loss.value)}")
        if self._swept:
            raise ValueError("the tape has already been swept or released; "
                             "record the graph again to sweep it again")
        self._swept = True
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self._nodes):
            g = node.grad
            if g is not None:
                for parent, adjoint in zip(node._parents, node._adjoints):
                    pg = adjoint(g)
                    if parent.grad is None:
                        parent.grad = np.asarray(pg)
                    else:
                        parent.grad = parent.grad + pg
            if not node.is_leaf:
                node._parents = node._adjoints = ()
                node.grad = None


class Node:
    """One tape entry: a primal value, its parents, and one adjoint per parent
    that maps this node's gradient to that parent's. A leaf has neither, and
    a swept non-leaf no longer has them either (`Tape.backward`)."""

    __slots__ = ("tape", "value", "_parents", "_adjoints", "grad", "is_leaf", "__weakref__")

    def __init__(self, tape, value, parents, adjoints):
        self.tape = tape
        self.value = value
        self._parents = parents
        self._adjoints = adjoints
        self.grad = None
        self.is_leaf = not parents
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
    """Gradient accumulated on a leaf (`Tape.var`), as an exact zero array if untouched.

    A non-leaf raises ValueError: the sweep drops its gradient
    (`Tape.backward`), so it would read as zeros. The array may share
    memory with other leaves' gradients, so it is read-only: copy it
    before writing into it.
    """
    if not leaf.is_leaf:
        raise ValueError("grad_of takes a leaf made by Tape.var; the backward sweep "
                         "keeps no gradient on a non-leaf node")
    if leaf.grad is None:
        return np.zeros_like(leaf.value)
    return leaf.grad


def _record(out, operands, adjoints):
    """The node of `out`, computed from `operands`: the one place a non-leaf
    Node is made.

    `adjoints[i]` maps the output gradient to operand i's gradient. Only the
    operands that are Nodes become parents, in operand order, and only their
    adjoints are kept. Ops call this after their plain-value return, so at
    least one operand is a Node; a single operand always is.
    """
    if len(operands) > 1:
        on_tape = [isinstance(x, Node) for x in operands]
        if not all(on_tape):
            operands = tuple(x for x, keep in zip(operands, on_tape) if keep)
            adjoints = tuple(r for r, keep in zip(adjoints, on_tape) if keep)
    return Node(operands[0].tape, out, operands, adjoints)


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
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return out
    sa, sb = np.shape(val(a)), np.shape(val(b))
    return _record(out, (a, b), (lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(g, sb)))


def sub(a, b):
    out = val(a) - val(b)
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return out
    sa, sb = np.shape(val(a)), np.shape(val(b))
    return _record(out, (a, b), (lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(-g, sb)))


def div(a, b):
    av, bv = val(a), val(b)
    out = av / bv
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return out
    sa, sb = np.shape(av), np.shape(bv)
    return _record(out, (a, b), (lambda g: _unbroadcast(g / bv, sa),
                                 lambda g: _unbroadcast(-g * av / (bv * bv), sb)))


def matmul(a, b):
    """a @ b for operands of any rank.

    The adjoint promotes a 1-D operand as matmul does (a row for `a`, a
    column for `b`) and sums broadcast batch axes back to each operand's
    shape.
    """
    av, bv = val(a), val(b)
    out = av @ bv
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return out
    av, bv = np.asarray(av), np.asarray(bv)
    a2 = av[np.newaxis, :] if av.ndim == 1 else av
    b2 = bv[:, np.newaxis] if bv.ndim == 1 else bv

    def promote(g):
        if bv.ndim == 1:
            g = np.expand_dims(g, -1)
        if av.ndim == 1:
            g = np.expand_dims(g, -2)
        return g

    return _record(out, (a, b), (
        lambda g: _unbroadcast(promote(g) @ np.swapaxes(b2, -1, -2), a2.shape).reshape(av.shape),
        lambda g: _unbroadcast(np.swapaxes(a2, -1, -2) @ promote(g), b2.shape).reshape(bv.shape)))


def _is_basic_index(idx):
    """True for an int, a slice, or a tuple of them: an index that repeats no entry."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(p, slice)
               or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
               for p in parts)


def getitem(a, idx):
    """`a[idx]`. The adjoint of a basic index adds into a view of the zeros,
    which gives the bits of `np.add.at` (including +0.0 for a -0.0 gradient)
    without its scatter; a fancy index, which may repeat entries, keeps it."""
    if not isinstance(a, Node):
        return a[idx]
    out = a.value[idx]
    shape = a.value.shape
    dtype = a.value.dtype
    basic = _is_basic_index(idx)

    def adjoint(g):
        full = np.zeros(shape, dtype=dtype)
        if basic:
            full[idx] += g
        else:
            np.add.at(full, idx, g)
        return full

    return _record(out, (a,), (adjoint,))


def scatter_rows(base, rows, values):
    """`base` with the rows `rows` (distinct) replaced by `values`.

    The result takes the wider dtype of the two, so longdouble rows promote
    a float64 base instead of being rounded into it.
    """
    bv, vv = val(base), val(values)
    out = bv.astype(np.result_type(bv, vv))
    out[rows] = vv
    if not (isinstance(base, Node) or isinstance(values, Node)):
        return out

    def base_adjoint(g):
        g_base = g.copy()
        g_base[rows] = 0.0
        return g_base

    return _record(out, (base, values), (base_adjoint, operator.itemgetter(rows)))


def concat(parts, axis=0):
    values = [val(p) for p in parts]
    out = np.concatenate(values, axis=axis)
    if not any(isinstance(p, Node) for p in parts):
        return out
    lead = (slice(None),) * (axis % out.ndim)
    offsets = np.cumsum([0] + [v.shape[axis] for v in values])
    return _record(out, tuple(parts), [operator.itemgetter(lead + (slice(lo, hi),))
                                       for lo, hi in zip(offsets[:-1], offsets[1:])])


def reshape(a, shape):
    if not isinstance(a, Node):
        return np.reshape(a, shape)
    orig = a.value.shape
    return _record(np.reshape(a.value, shape), (a,), (lambda g: np.reshape(g, orig),))


def asum(a, axis=None):
    if not isinstance(a, Node):
        return np.sum(a, axis=axis)
    out = np.sum(a.value, axis=axis)
    shape = a.value.shape
    dtype = a.value.dtype
    if axis is None:
        return _record(out, (a,), (lambda g: np.ones(shape, dtype=dtype) * g,))
    return _record(out, (a,), (lambda g: np.broadcast_to(np.expand_dims(g, axis), shape).copy(),))


def square(a):
    av = val(a)
    out = av * av
    if not isinstance(a, Node):
        return out
    return _record(out, (a,), (lambda g: g * (2.0 * av),))


def sqrt(a):
    """Elementwise square root. Where the root is zero the adjoint is zero,
    not infinite: on the tape sqrt takes norms, whose minimum at zero has
    zero as a subgradient, so an exact fit adds nothing instead of NaN."""
    av = val(a)
    out = np.sqrt(av)
    if not isinstance(a, Node):
        return out
    return _record(out, (a,), (lambda g: np.divide(
        g, 2.0 * out, out=np.zeros(np.shape(out), dtype=out.dtype), where=out != 0.0),))


def relu(a):
    return floor_clamp(a, 0.0)


def floor_clamp(a, lo):
    """max(a, lo) elementwise; gradient is zero wherever the floor is active."""
    av = val(a)
    out = np.maximum(av, lo)
    if not isinstance(a, Node):
        return out
    mask = av > lo
    return _record(out, (a,), (lambda g: g * mask,))


def diag(v):
    """Embed a vector (n,) as a diagonal matrix, or rows (..., n) as a stack of them."""
    vv = val(v)
    n = vv.shape[-1]
    out = np.zeros(vv.shape + (n,), dtype=vv.dtype)
    i = np.arange(n)
    out[..., i, i] = vv
    if not isinstance(v, Node):
        return out
    return _record(out, (v,), (lambda g: g[..., i, i],))


# --- symmetric positive definite inverse -----------------------------------
#
# Float64 stacks go to LAPACK. Other dtypes, and float64 stacks in which
# some matrix fails LAPACK's Cholesky, take a hand-rolled Cholesky whose
# loops run over the matrix entries and are vectorised over the stack, so
# the op works in any float dtype (np.linalg does not accept longdouble,
# which the gradient oracles need) and reports each failing matrix. The one
# entry point, `spd_inverse_rows`, never raises: `filter` skips a bank row
# whose matrix fails and raises DegenerateCovariance for a single track.

SPD_CONDITION_LIMIT = 1e12


def _cholesky_rows(a: np.ndarray):
    """Lower Cholesky factors of a stack (k, n, n) and the mask of failed pivots.

    A matrix whose pivot is not positive gets a unit pivot from there on so
    the others finish; its factor is meaningless and is marked failed.
    """
    k, n, _ = a.shape
    L = np.zeros_like(a)
    failed = np.zeros(k, dtype=bool)
    for i in range(n):
        for j in range(i + 1):
            s = a[:, i, j] - np.sum(L[:, i, :j] * L[:, j, :j], axis=-1)
            if i == j:
                bad = ~(s > 0.0)
                failed |= bad
                L[:, i, i] = np.sqrt(np.where(bad, 1.0, s))
            else:
                L[:, i, j] = s / L[:, j, j]
    return L, failed


def _inverse_lower_rows(L: np.ndarray) -> np.ndarray:
    """L^-1 for a stack of lower-triangular matrices, by forward substitution."""
    n = L.shape[-1]
    X = np.zeros_like(L)
    eye = np.eye(n, dtype=L.dtype)
    for i in range(n):
        X[:, i] = (eye[i] - np.sum(L[:, i, :i, None] * X[:, :i], axis=1)) / L[:, i, i, None]
    return X


def _spd_inverse_rows(a: np.ndarray):
    """Inverses of a stack (k, n, n) and each matrix's condition estimate.

    The estimate is (max / min Cholesky pivot)^2, inf where a pivot fails.
    Matrices whose estimate exceeds SPD_CONDITION_LIMIT (or is NaN) get a
    zero inverse.
    """
    L = failed = None
    if a.dtype == np.float64:
        try:
            L = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            pass  # some matrix failed; the hand-rolled loop finds which
    if L is not None:
        L_inv = np.linalg.inv(L)
    else:
        L, failed = _cholesky_rows(a)
        L_inv = _inverse_lower_rows(L)
    d = np.diagonal(L, axis1=-2, axis2=-1)
    cond = (np.max(d, axis=-1) / np.min(d, axis=-1)) ** 2
    if failed is not None:  # LAPACK factored every matrix otherwise
        cond = np.where(failed, np.inf, cond)
    out = np.swapaxes(L_inv, -1, -2) @ L_inv
    over = ~(cond <= SPD_CONDITION_LIMIT)
    if over.any():
        out[over] = 0.0
    return out, cond


def spd_inverse_rows(a):
    """Inverses of a stack (k, n, n) of symmetric positive definite matrices.

    Returns (inverse, cond): cond[i] is matrix i's condition estimate, inf
    where its Cholesky pivot fails. A matrix with cond above
    SPD_CONDITION_LIMIT (or NaN) has a zero inverse, which carries no
    gradient back to it; failures are reported, never raised. On the tape,
    Y = X^-1 has the adjoint dL/dX = -Y^T (dL/dY) Y^T.
    """
    out, cond = _spd_inverse_rows(val(a))
    if not isinstance(a, Node):
        return out, cond
    out_t = np.swapaxes(out, -1, -2)
    return _record(out, (a,), (lambda g: -(out_t @ g @ out_t),)), cond


# --- convolution and linear stages ------------------------------------------


@functools.lru_cache(maxsize=64)
def im2col_indices(c, h, w, k, stride, pad):
    """Gather indices of the conv patches of one (c, h, w) image.

    Built once per image shape, whatever the batch size. Returns read-only
    (idx, out_h, out_w): idx has shape (c*k*k, out_h*out_w), rows ordered by
    (channel, kernel row, kernel column) and columns by (output row, output
    column), and holds flat indices into the image; positions in the zero
    border hold c*h*w, the index `im2col` reads as zero.
    """
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    ci, ki, kj, oi, oj = np.ix_(np.arange(c), np.arange(k), np.arange(k),
                                np.arange(out_h), np.arange(out_w))
    rows = stride * oi + ki - pad
    cols = stride * oj + kj - pad
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    idx = np.where(inside, (ci * h + rows) * w + cols, c * h * w)
    idx = idx.reshape(c * k * k, out_h * out_w)
    idx.flags.writeable = False
    return idx, out_h, out_w


def im2col(x, k, stride, pad):
    """Conv patches of an (n, c, h, w) batch as one (c*k*k, n*out_h*out_w) matrix.

    Rows follow `im2col_indices`, columns are ordered by (image, output row,
    output column); every image is gathered with the one image's indices.
    The adjoint sums the patch entries back onto their pixels by index, in
    the order of the patch matrix. In float64 that is `np.bincount`, which
    adds in the same order as `np.add.at` and so gives the same bits without
    its scatter; bincount only weighs in float64, so other dtypes keep
    `np.add.at`. Its flat batch indices are built only in the backward pass.
    """
    xv = val(x)
    n, c, h, w = xv.shape
    idx, out_h, out_w = im2col_indices(c, h, w, k, stride, pad)
    flat = np.concatenate([xv.reshape(n, c * h * w), np.zeros((n, 1), dtype=xv.dtype)],
                          axis=1)
    out = np.take(flat, idx, axis=1).transpose(1, 0, 2).reshape(c * k * k, -1)
    if not isinstance(x, Node):
        return out

    def adjoint(g):
        # image i's pixels and its zero slot start at flat index i*(c*h*w + 1)
        batch = idx[:, None, :] + np.arange(0, flat.size, flat.shape[1])[:, None]
        if xv.dtype == g.dtype == np.float64:
            full = np.bincount(batch.ravel(), weights=g.ravel(), minlength=flat.size)
        else:
            full = np.zeros(flat.size, dtype=xv.dtype)
            np.add.at(full, batch.ravel(), g.ravel())
        return full.reshape(flat.shape)[:, :-1].reshape(xv.shape)

    return _record(out, (x,), (adjoint,))


def transpose(a, axes):
    """`a` with its axes permuted; the adjoint permutes them back."""
    if not isinstance(a, Node):
        return np.transpose(a, axes)
    inverse = np.argsort(axes)
    return _record(np.transpose(a.value, axes), (a,), (lambda g: np.transpose(g, inverse),))


def linear(x, weight, bias):
    """x @ weight + bias, tape-aware in any operand."""
    return add(matmul(x, weight), bias)


def conv2d(x, weight, bias, stride, pad):
    """2D convolution of an (n, c, h, w) batch with (c_out, c, k, k) weights.

    One matmul covers the patches of all n images; the adjoint follows by
    composition. Returns an (n, c_out, out_h, out_w) tensor.
    """
    n, c_x, h, w = val(x).shape
    c_out, c_in, k, _ = val(weight).shape
    if c_x != c_in:
        raise ValueError(f"conv input has {c_x} channels, weights expect {c_in}")
    _, out_h, out_w = im2col_indices(c_in, h, w, k, stride, pad)
    wmat = reshape(weight, (c_out, c_in * k * k))
    out = add(matmul(wmat, im2col(x, k, stride, pad)), reshape(bias, (c_out, 1)))
    out = transpose(reshape(out, (c_out, n, out_h * out_w)), (1, 0, 2))
    return reshape(out, (n, c_out, out_h, out_w))
