"""Reverse-mode automatic differentiation over the dense/sparse ops the losses use.

A :class:`Tape` records primal values in topological order; :func:`backward`
replays it in reverse to accumulate exact gradients for the leaves. Sparse
matrices are always constants on the tape; only dense leaves receive gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import SparseMatrixCSR, segment_reduce, spmm_csr, transpose


@dataclass
class Node:
    value: np.ndarray
    parents: tuple = ()
    vjps: tuple = ()   # one callable per parent: output_grad -> parent grad piece


class Tape:
    """Append-only record of operations; single-threaded by design.

    A tape made with ``record=False`` keeps no nodes: each value lives only as
    long as its Var, so a pass that needs no gradients frees its intermediates
    as it goes. ``backward`` refuses such a tape.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.nodes: list[Node] = []

    def _record(self, value, parents=(), vjps=()) -> "Var":
        value = np.asarray(value, dtype=np.float64)
        if not self.record:
            return Var(self, -1, value)
        self.nodes.append(Node(value, tuple(parents), tuple(vjps)))
        return Var(self, len(self.nodes) - 1, value)

    def leaf(self, value) -> "Var":
        return self._record(value)


@dataclass(frozen=True, eq=False)
class Var:
    """Handle to a tape node and its value."""

    tape: Tape
    idx: int
    value: np.ndarray

    @property
    def shape(self):
        return self.value.shape


def _as_var(tape: Tape, x) -> Var:
    if isinstance(x, Var):
        if x.tape is not tape:
            raise ValueError("mixing variables from different tapes")
        return x
    return tape.leaf(x)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# -- arithmetic --------------------------------------------------------------

# A VJP closes over arrays and shapes, never over a Var: a Var refers to its
# tape, and that cycle would keep a finished tape alive until the cyclic
# garbage collector runs.

def add(a: Var, b) -> Var:
    tape = a.tape
    b = _as_var(tape, b)
    a_shape, b_shape = a.value.shape, b.value.shape
    return tape._record(a.value + b.value, (a.idx, b.idx),
                        (lambda g: _unbroadcast(g, a_shape),
                         lambda g: _unbroadcast(g, b_shape)))


def sub(a: Var, b) -> Var:
    tape = a.tape
    b = _as_var(tape, b)
    a_shape, b_shape = a.value.shape, b.value.shape
    return tape._record(a.value - b.value, (a.idx, b.idx),
                        (lambda g: _unbroadcast(g, a_shape),
                         lambda g: _unbroadcast(-g, b_shape)))


def scalar_mul(c: float, a: Var) -> Var:
    c = float(c)
    return a.tape._record(c * a.value, (a.idx,), (lambda g: c * g,))


def mul(a: Var, b) -> Var:
    tape = a.tape
    b = _as_var(tape, b)
    av, bv = a.value, b.value
    return tape._record(av * bv, (a.idx, b.idx),
                        (lambda g: _unbroadcast(g * bv, av.shape),
                         lambda g: _unbroadcast(g * av, bv.shape)))


def matmul(a: Var, b) -> Var:
    tape = a.tape
    b = _as_var(tape, b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("matmul operands must be 2-D")
    if av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch {av.shape} @ {bv.shape}")
    return tape._record(av @ bv, (a.idx, b.idx),
                        (lambda g: g @ bv.T, lambda g: av.T @ g))


def csr_matmat(A: SparseMatrixCSR, X: Var) -> Var:
    """A @ X with A constant sparse, X a differentiable dense n-by-k matrix.

    A^T is built only when the gradient is asked for, so a tape that does not
    record never transposes.
    """
    return X.tape._record(spmm_csr(A, X.value), (X.idx,),
                          (lambda g: spmm_csr(transpose(A), g),))


def power(x: Var, p: float) -> Var:
    v = x.value
    if p != int(p) and np.any(v < 0):
        raise ValueError("negative base with non-integer exponent")
    out = v ** p
    return x.tape._record(out, (x.idx,), (lambda g: g * p * v ** (p - 1.0),))


def sqrt(x: Var) -> Var:
    out = np.sqrt(x.value)
    return x.tape._record(out, (x.idx,), (lambda g: g * 0.5 / out,))


def relu(x: Var) -> Var:
    v = x.value
    mask = v > 0  # subgradient at 0 is 0
    return x.tape._record(np.where(mask, v, 0.0), (x.idx,), (lambda g: g * mask,))


def leaky_relu(x: Var, slope: float = 0.01) -> Var:
    v = x.value
    factor = np.where(v > 0, 1.0, slope)  # slope applies for x <= 0
    return x.tape._record(v * factor, (x.idx,), (lambda g: g * factor,))


# -- reductions --------------------------------------------------------------

def vsum(x: Var, axis=None) -> Var:
    shape = x.value.shape
    if axis is None:
        return x.tape._record(x.value.sum(), (x.idx,),
                              (lambda g: np.broadcast_to(g, shape).copy(),))
    return x.tape._record(x.value.sum(axis=axis), (x.idx,),
                          (lambda g: np.broadcast_to(np.expand_dims(g, axis), shape).copy(),))


def vmax(x: Var) -> Var:
    """Max over all entries; gradient flows to the first attaining (lowest) index."""
    v = x.value
    flat_idx = int(np.argmax(v.ravel()))

    def vjp(g):
        grad = np.zeros_like(v).ravel()
        grad[flat_idx] = g
        return grad.reshape(v.shape)

    return x.tape._record(v.ravel()[flat_idx], (x.idx,), (vjp,))


def l2_norm(x: Var, axis=None) -> Var:
    """Euclidean norm over all entries, or per-column/row with ``axis``."""
    return sqrt(vsum(mul(x, x), axis=axis))


def concat(parts: list[Var], axis: int = 0) -> Var:
    tape = parts[0].tape
    values = [p.value for p in parts]
    sizes = [v.shape[axis] for v in values]
    offsets = np.concatenate(([0], np.cumsum(sizes)))

    def make_vjp(k):
        lo, hi = offsets[k], offsets[k + 1]
        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]
        return vjp

    return tape._record(np.concatenate(values, axis=axis),
                        tuple(p.idx for p in parts),
                        tuple(make_vjp(k) for k in range(len(parts))))


def split(x: Var, sizes) -> list[Var]:
    """Consecutive blocks of ``sizes`` rows; the inverse of concat on axis 0."""
    v = x.value
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    if offsets[-1] != len(v):
        raise ValueError(f"block sizes {list(sizes)} do not cover {len(v)} rows")

    def block(lo, hi):
        def vjp(g):
            grad = np.zeros_like(v)
            grad[lo:hi] = g
            return grad

        return x.tape._record(v[lo:hi], (x.idx,), (vjp,))

    return [block(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]


def gather(x: Var, indices) -> Var:
    """Select rows by an index list; backward scatter-adds."""
    indices = np.asarray(indices, dtype=np.int64)
    v = x.value
    out = v[indices]
    rows = indices % max(len(v), 1)   # a negative index counts from the end

    def vjp(g):
        # one weighted bincount over (row, column) slots adds each slot's
        # pieces in index order, the order (and so the bits) of np.add.at
        width = int(np.prod(v.shape[1:]))
        slots = (rows[:, None] * width + np.arange(width)).ravel()
        return np.bincount(slots, weights=g.ravel(), minlength=v.size).reshape(v.shape)

    return x.tape._record(out, (x.idx,), (vjp,))


def reshape(x: Var, shape) -> Var:
    old = x.value.shape
    return x.tape._record(x.value.reshape(shape), (x.idx,),
                          (lambda g: g.reshape(old),))


# -- segment reductions (contiguous blocks delimited by `splits`) ------------

def _check_splits(x, splits):
    splits = np.asarray(splits, dtype=np.int64)
    if splits[0] != 0 or splits[-1] != len(x.value):
        raise ValueError("splits must cover the input rows exactly")
    return splits


def segment_sum(x: Var, splits) -> Var:
    splits = _check_splits(x, splits)
    out = segment_reduce(np.add, x.value, splits)
    seg_of_row = np.repeat(np.arange(len(out)), np.diff(splits))

    def vjp(g):
        return g[seg_of_row]

    return x.tape._record(out, (x.idx,), (vjp,))


def segment_mean(x: Var, splits) -> Var:
    splits = _check_splits(x, splits)
    counts = np.maximum(np.diff(splits), 1).astype(np.float64)
    total = segment_sum(x, splits)
    return mul(total, (1.0 / counts).reshape((-1,) + (1,) * (x.value.ndim - 1)))


def _segment_extreme(x: Var, splits, ufunc) -> Var:
    splits = _check_splits(x, splits)
    v = x.value
    out = segment_reduce(ufunc, v, splits)

    def vjp(g):
        # the first row of each segment attaining the extreme, per column, is
        # the least row number among its attaining rows; rows that miss count
        # as len(v), so a segment holding a nan has no winner
        width = int(np.prod(v.shape[1:]))
        v2, out2 = v.reshape(len(v), width), out.reshape(len(out), width)
        seg_of_row = np.repeat(np.arange(len(out)), np.diff(splits))
        hit = v2 == out2[seg_of_row]
        first = segment_reduce(np.minimum, np.where(hit, np.arange(len(v))[:, None], len(v)),
                               splits)
        # an empty segment reduces to 0, not to a winner
        segs, cols = np.nonzero((first < len(v)) & (np.diff(splits) > 0)[:, None])
        grad = np.zeros_like(v2)
        grad[first[segs, cols].astype(np.int64), cols] = g.reshape(out2.shape)[segs, cols]
        return grad.reshape(v.shape)

    return x.tape._record(out, (x.idx,), (vjp,))


def segment_min(x: Var, splits) -> Var:
    """Per-segment minimum; ties route the gradient to the lowest row index."""
    return _segment_extreme(x, splits, np.minimum)


def segment_max(x: Var, splits) -> Var:
    return _segment_extreme(x, splits, np.maximum)


# -- backward pass -----------------------------------------------------------

def backward(tape: Tape, output: Var) -> dict[int, np.ndarray]:
    """Exact reverse-mode gradients of a scalar output for the tape's leaves.

    Returns a map from leaf node index to gradient array. An interior node's
    gradient is dropped once it has reached the node's parents.
    """
    if not tape.record:
        raise ValueError("backward needs a tape that records its operations")
    if output.value.size != 1:
        raise ValueError("backward requires a scalar output")
    grads: dict[int, np.ndarray] = {output.idx: np.ones_like(output.value)}
    for idx in range(output.idx, -1, -1):
        node = tape.nodes[idx]
        g = grads.pop(idx, None) if node.parents else grads.get(idx)
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            piece = vjp(g)
            if parent in grads:
                grads[parent] = grads[parent] + piece
            else:
                # views are fine: accumulation above always allocates fresh arrays
                grads[parent] = np.asarray(piece, dtype=np.float64)
    return grads

