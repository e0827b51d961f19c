"""Tape reverse-mode autodiff: op gradients, segment reductions, finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd
from gnla import autodiff as ad
from gnla.autodiff import Tape, backward


def grad_check(f, params: np.ndarray, step: float = 1e-6) -> float:
    """Max relative error of autodiff against central finite differences.

    ``f(tape, params_var) -> scalar Var`` defines the function.
    """
    params = np.asarray(params, dtype=np.float64)
    tape = Tape()
    p = tape.leaf(params)
    analytic = backward(tape, f(tape, p))[p.idx].ravel()

    def plain(theta):
        t = Tape()
        return float(f(t, t.leaf(theta.reshape(params.shape))).value)

    worst = 0.0
    flat = params.ravel().copy()
    for k in range(params.size):
        orig = flat[k]
        flat[k] = orig + step
        hi = plain(flat)
        flat[k] = orig - step
        lo = plain(flat)
        flat[k] = orig
        fd = (hi - lo) / (2 * step)
        denom = max(abs(fd), abs(analytic[k]), 1e-8)
        worst = max(worst, abs(fd - analytic[k]) / denom)
    return worst


def scalar_fn_check(f, x0, tol=1e-7, **kw):
    assert grad_check(f, np.asarray(x0, dtype=np.float64), **kw) < tol


def test_add_mul_chain():
    scalar_fn_check(lambda t, p: ad.vsum(ad.mul(ad.add(p, 2.0), p)),
                    [1.0, -3.0, 0.5])


def test_broadcasting_gradients():
    def f(t, p):
        col = ad.reshape(p, (3, 1))
        return ad.vsum(ad.mul(col, t.leaf(np.arange(6.0).reshape(3, 2))))
    scalar_fn_check(f, [1.0, 2.0, 3.0])


def test_matmul_gradient():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 3))
    def f(t, p):
        return ad.vsum(ad.matmul(ad.reshape(p, (2, 4)), t.leaf(B)))
    scalar_fn_check(f, rng.standard_normal(8))


def test_matmul_requires_2d():
    t = Tape()
    with pytest.raises(ValueError):
        ad.matmul(t.leaf(np.ones(3)), t.leaf(np.ones((3, 2))))


def test_csr_matmat_gradient():
    rng = np.random.default_rng(2)
    A = random_spd(rng, 6, 0.4)
    def f(t, p):
        Y = ad.csr_matmat(A, ad.reshape(p, (6, 2)))
        return ad.vsum(ad.mul(Y, Y))
    scalar_fn_check(f, rng.standard_normal(12))


@pytest.mark.parametrize("op", [ad.sqrt,
                                lambda x: ad.power(x, 3.0),
                                lambda x: ad.power(x, 0.5)])
def test_elementwise_ops(op):
    scalar_fn_check(lambda t, p: ad.vsum(op(p)), [0.5, 1.5, 3.0])


def test_relu_and_leaky_relu():
    scalar_fn_check(lambda t, p: ad.vsum(ad.relu(p)), [-1.0, 0.5, 2.0])
    scalar_fn_check(lambda t, p: ad.vsum(ad.leaky_relu(p, 0.01)), [-1.0, 0.5, 2.0])


def test_max_gradient_goes_to_first_attaining_index():
    t = Tape()
    p = t.leaf(np.array([3.0, 5.0, 5.0]))
    g = backward(t, ad.vmax(p))[p.idx]
    assert np.array_equal(g, [0.0, 1.0, 0.0])


def test_l2_norm_axis():
    def f(t, p):
        return ad.vsum(ad.l2_norm(ad.reshape(p, (3, 2)), axis=0))
    scalar_fn_check(f, np.arange(1.0, 7.0))


def test_concat_and_gather():
    def f(t, p):
        a = ad.reshape(p, (4, 1))
        c = ad.concat([a, ad.mul(a, a)], axis=1)
        return ad.vsum(ad.gather(c, np.array([0, 2, 2, 3])))
    scalar_fn_check(f, [1.0, 2.0, 3.0, 4.0])


def test_segment_sum_and_mean():
    splits = np.array([0, 2, 2, 5])
    def f_sum(t, p):
        return ad.vsum(ad.mul(ad.segment_sum(ad.reshape(p, (5, 1)), splits),
                              t.leaf(np.array([[1.0], [2.0], [3.0]]))))
    scalar_fn_check(f_sum, np.arange(1.0, 6.0))
    def f_mean(t, p):
        return ad.vsum(ad.segment_mean(ad.reshape(p, (5, 1)), splits))
    scalar_fn_check(f_mean, np.arange(1.0, 6.0))


def test_segment_sum_empty_segment_is_zero():
    t = Tape()
    p = t.leaf(np.arange(4.0).reshape(4, 1))
    out = ad.segment_sum(p, np.array([0, 0, 4]))
    assert np.array_equal(out.value, [[0.0], [6.0]])


def test_segment_extremes_gradient_and_values():
    t = Tape()
    p = t.leaf(np.array([[3.0], [1.0], [1.0], [4.0]]))
    splits = np.array([0, 3, 4])
    mn = ad.segment_min(p, splits)
    assert np.array_equal(mn.value, [[1.0], [4.0]])
    g = backward(t, ad.vsum(mn))[p.idx]
    assert np.array_equal(g[:, 0], [0.0, 1.0, 0.0, 1.0])  # tie -> lowest row


# -- property tests against dense np.add.at oracles ---------------------------

def _vjp(op, values, upstream):
    """op's value on ``values`` and the gradient it sends back for ``upstream``."""
    t = Tape()
    x = t.leaf(values)
    y = op(x)
    return y.value, backward(t, ad.vsum(ad.mul(y, t.leaf(upstream))))[x.idx]


@st.composite
def gathers(draw):
    """Source rows (possibly none) and indices, negative ones too, that repeat
    and skip rows."""
    n = draw(st.integers(0, 6))
    indices = draw(st.lists(st.integers(-n, n - 1), max_size=15)) if n else []
    width = draw(st.sampled_from([None, 1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n,) if width is None else (n, width)
    return rng.standard_normal(shape), np.array(indices, dtype=np.int64), rng


@settings(max_examples=200, deadline=None)
@given(gathers())
def test_gather_matches_add_at_oracle(case):
    values, indices, rng = case
    upstream = rng.standard_normal((len(indices),) + values.shape[1:])
    got, grad = _vjp(lambda x: ad.gather(x, indices), values, upstream)
    want = np.zeros_like(values)
    np.add.at(want, indices, upstream)
    assert np.array_equal(got, values[indices])
    assert np.array_equal(grad, want)   # same summation order, same bits


@st.composite
def segmented(draw):
    """Rows drawn from a few values (so ties are common), cut into segments
    that may be empty; zero rows allowed; 1-D or 2-D."""
    n = draw(st.integers(0, 12))
    width = draw(st.sampled_from([None, 1, 3]))
    shape = (n,) if width is None else (n, width)
    size = int(np.prod(shape))
    values = draw(st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0]),
                           min_size=size, max_size=size))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(values, dtype=np.float64).reshape(shape), np.array([0] + cuts + [n]), rng


@pytest.mark.parametrize("op, pick", [(ad.segment_min, np.argmin),
                                      (ad.segment_max, np.argmax)])
@settings(max_examples=200, deadline=None)
@given(case=segmented())
def test_segment_extremes_match_add_at_oracle(op, pick, case):
    values, splits, rng = case
    width = 1 if values.ndim == 1 else values.shape[1]
    v2, n_seg = values.reshape(len(values), width), len(splits) - 1
    upstream = rng.standard_normal((n_seg,) + values.shape[1:])
    got, grad = _vjp(lambda x: op(x, splits), values, upstream)
    # oracle: the first attaining row of each non-empty (segment, column)
    want = np.zeros((n_seg, width))
    rows, cols, segs = [], [], []
    for s in range(n_seg):
        lo, hi = splits[s], splits[s + 1]
        if hi > lo:
            first = lo + pick(v2[lo:hi], axis=0)
            want[s] = v2[first, np.arange(width)]
            rows += first.tolist()
            cols += range(width)
            segs += [s] * width
    want_grad = np.zeros_like(v2)
    np.add.at(want_grad, (rows, cols), upstream.reshape(n_seg, width)[segs, cols])
    assert np.array_equal(got, want.reshape(upstream.shape))
    assert np.array_equal(grad, want_grad.reshape(values.shape))


def test_segment_sum_and_mean_of_a_vector():
    t = Tape()
    p = t.leaf(np.array([1.0, 2.0, 3.0, 6.0]))
    splits = np.array([0, 1, 1, 4])
    assert np.array_equal(ad.segment_sum(p, splits).value, [1.0, 0.0, 11.0])
    mean = ad.segment_mean(p, splits)
    assert mean.value.shape == (3,)
    g = backward(t, ad.vsum(mean))[p.idx]
    assert np.allclose(g, [1.0, 1 / 3, 1 / 3, 1 / 3])


def test_split_is_the_inverse_of_concat():
    t = Tape()
    p = t.leaf(np.arange(12.0).reshape(6, 2))
    a, b = ad.split(p, [2, 4])
    assert np.array_equal(ad.concat([a, b]).value, p.value)
    g = backward(t, ad.vsum(ad.mul(b, b)))[p.idx]
    assert np.array_equal(g, np.concatenate([np.zeros((2, 2)), 2 * p.value[2:]]))
    with pytest.raises(ValueError):
        ad.split(p, [2, 3])


def test_segment_splits_validated():
    t = Tape()
    p = t.leaf(np.ones((4, 1)))
    with pytest.raises(ValueError):
        ad.segment_sum(p, np.array([0, 2]))


def test_tape_without_recording_keeps_no_nodes():
    t = Tape(record=False)
    x = t.leaf(np.array([1.0, -2.0]))
    y = ad.vsum(ad.mul(ad.relu(x), x))
    assert float(y.value) == 1.0
    assert t.nodes == []
    with pytest.raises(ValueError, match="records"):
        backward(t, y)


def test_backward_requires_scalar():
    t = Tape()
    p = t.leaf(np.ones(3))
    with pytest.raises(ValueError):
        backward(t, p)


def test_mixing_tapes_rejected():
    t1, t2 = Tape(), Tape()
    with pytest.raises(ValueError):
        ad.add(t1.leaf(np.ones(2)), t2.leaf(np.ones(2)))


def test_fanout_accumulates():
    # y = x used twice: dy/dx must sum both paths
    t = Tape()
    p = t.leaf(np.array([2.0]))
    out = ad.vsum(ad.add(ad.mul(p, p), p))
    assert backward(t, out)[p.idx][0] == pytest.approx(5.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_composite_program(seed):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((5, 4))
    def f(t, p):
        x = ad.reshape(p, (1, 5))
        h = ad.leaky_relu(ad.matmul(x, t.leaf(W)), 0.01)
        return ad.vmax(ad.mul(h, h))
    assert grad_check(f, rng.standard_normal(5)) < 1e-6
