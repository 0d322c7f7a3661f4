"""Autodiff core against naive references and finite differences."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftconvnet.autograd import (
    ContractViolation,
    Tensor,
    accumulate_grad,
    add,
    backward,
    concat_channels,
    conv2d,
    grad_check,
    graph_out,
    hslice_pad,
    hslice_pads,
    leaky_relu,
    maxpool2d,
    transposed_conv2d,
)
from shiftconvnet import autograd
from shiftconvnet.autograd import (
    LEAKY_SLOPE,
    TAP_BLOCK_BYTES,
    _conv_flat,
    _conv_input_grad,
    _dy_layout,
    _leaky_grad,
    _lower,
)
from scalar_ops import mul, sum_all

GRAD_TOL = 1e-4


# ---------------------------------------------------------------------------
# reference implementations (deliberately naive, structured nothing like the
# production code)
# ---------------------------------------------------------------------------

def conv_ref(x, w, b=None, stride=1, padding=0):
    x = np.asarray(x, np.float64)
    w = np.asarray(w, np.float64)
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for ni in range(n):
        for oci in range(oc):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(ic):
                        for ki in range(kh):
                            for kj in range(kw):
                                yy = i * stride + ki - padding
                                xx = j * stride + kj - padding
                                if 0 <= yy < h and 0 <= xx < wd:
                                    acc += x[ni, ci, yy, xx] * w[oci, ci, ki, kj]
                    out[ni, oci, i, j] = acc
            if b is not None:
                out[ni, oci] += np.asarray(b).reshape(-1)[oci]
    return out


def tconv_ref(x, w, b=None, stride=2, padding=1):
    # scatter form: every input pixel sprays its kernel into the output
    x = np.asarray(x, np.float64)
    w = np.asarray(w, np.float64)
    n, c, h, wd = x.shape
    ic, oc, kh, kw = w.shape
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (wd - 1) * stride - 2 * padding + kw
    out = np.zeros((n, oc, oh, ow))
    for ni in range(n):
        for ci in range(ic):
            for i in range(h):
                for j in range(wd):
                    for ki in range(kh):
                        for kj in range(kw):
                            yy = i * stride + ki - padding
                            xx = j * stride + kj - padding
                            if 0 <= yy < oh and 0 <= xx < ow:
                                out[ni, :, yy, xx] += x[ni, ci, i, j] * w[ci, :, ki, kj]
    if b is not None:
        out += np.asarray(b).reshape(1, oc, 1, 1)
    return out


def pool_ref(x):
    x = np.asarray(x, np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2))
    for i in range(h // 2):
        for j in range(w // 2):
            out[:, :, i, j] = x[:, :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max((2, 3))
    return out


def rand(shape, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


# ---------------------------------------------------------------------------
# tensor basics
# ---------------------------------------------------------------------------

def test_tensor_requires_rank_4():
    with pytest.raises(ContractViolation):
        Tensor(np.zeros((3, 3)))


def test_tensor_coerces_to_float32():
    t = Tensor(np.zeros((1, 1, 2, 2), dtype=np.int64))
    assert t.dtype == np.float32


def test_tensor_keeps_float64():
    t = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float64))
    assert t.dtype == np.float64


def test_item_rejects_non_scalar():
    with pytest.raises(ContractViolation):
        Tensor(np.zeros((1, 1, 2, 2))).item()


def test_backward_rejects_non_scalar():
    x = Tensor(rand((1, 1, 2, 2)), requires_grad=True)
    with pytest.raises(ContractViolation):
        backward(add(x, x))


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv_delta_kernel_is_identity():
    x = Tensor(rand((1, 3, 6, 7), seed=1))
    w = np.zeros((3, 3, 3, 3))
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    out = conv2d(x, Tensor(w), padding=1)
    np.testing.assert_array_equal(out.data, x.data)


def _conv_case(stride, padding, k, hw):
    # 7x8 inputs keep the plain "stride-padding-k" id; others add "-HxW";
    # a kH x kW kernel is given as a pair
    suffix = "" if hw == (7, 8) else f"-{hw[0]}x{hw[1]}"
    kid = k if isinstance(k, int) else f"{k[0]}x{k[1]}"
    return pytest.param(stride, padding, k, hw, id=f"{stride}-{padding}-{kid}{suffix}")


# 1x2 and 2x1 are the extents of the smallest maps (the desk bottleneck).
# The channel pairs fall on both sides of the tap-merging rule (in < 2 * out)
# for the forward, the weight gradient and, with in and out exchanged, the
# input gradient, at every stride (a stride-s fold multiplies in by s*s);
# padding beyond k - 1 comes at every stride (at stride 1 the output
# gradient's rows then end after the input gradient's reads; at stride 3
# the fold has rows and columns no tap reaches), and non-square kernels
# place the output gradient at different row and column offsets.
@pytest.mark.parametrize("stride,padding,k,hw", [
    _conv_case(*case, hw)
    for case in ((1, 0, 1), (1, 0, 3), (1, 1, 3), (1, 2, 5), (2, 1, 3), (2, 0, 4 - 1),
                 (3, 1, 3), (3, 0, 5), (1, 2, 1), (1, 1, (1, 3)), (2, 1, (3, 1)),
                 (2, 2, 1), (3, 3, 3))
    for hw in ((7, 8), (1, 2), (2, 1))
])
@pytest.mark.parametrize("cin,cout", [(1, 1), (3, 2), (1, 2), (3, 1), (2, 2), (1, 9), (1, 19)])
def test_conv_matches_reference(stride, padding, k, hw, cin, cout):
    kh, kw = (k, k) if isinstance(k, int) else k
    x = rand((2, cin, *hw), seed=stride * 10 + padding)
    w = rand((cout, cin, kh, kw), seed=kh * 10 + kw if kh != kw else kh)
    b = rand((1, cout, 1, 1), seed=5)
    oh, ow = ((e + 2 * padding - ke) // stride + 1 for e, ke in zip(hw, (kh, kw)))
    if oh < 1 or ow < 1:
        with pytest.raises(ContractViolation, match="non-positive"):
            conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        return
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    got = conv2d(xt, wt, bt, stride=stride, padding=padding)
    want = conv_ref(x, w, b, stride=stride, padding=padding)
    np.testing.assert_allclose(got.data, want, rtol=1e-10, atol=1e-12)

    # conv is linear in x and in w, so its gradients are the adjoints:
    # <conv(u; w), y> = <u, dx(y)> and <conv(x; v), y> = <v, dw(y)>
    y = rand(got.shape, seed=6)
    backward(sum_all(mul(got, Tensor(y))))
    u, v = rand(x.shape, seed=7), rand(w.shape, seed=8)
    for lhs, probe, grad in (
        (conv_ref(u, w, stride=stride, padding=padding), u, xt.grad),
        (conv_ref(x, v, stride=stride, padding=padding), v, wt.grad),
    ):
        terms = lhs * y
        assert abs(terms.sum() - (probe * grad).sum()) <= 1e-10 * np.abs(terms).sum()
    np.testing.assert_allclose(bt.grad, y.sum(axis=(0, 2, 3)).reshape(b.shape), rtol=1e-12)


def conv_ref_windows(x, w, padding):
    # stride-1 reference for maps too large for conv_ref: one einsum over
    # every kH x kW window of the padded map
    xp = np.pad(np.asarray(x, np.float64), ((0, 0), (0, 0)) + ((padding, padding),) * 2)
    win = np.lib.stride_tricks.sliding_window_view(xp, w.shape[2:], axis=(2, 3))
    return np.einsum("ncyxij,ocij->noyx", win, np.asarray(w, np.float64), optimize=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_blocks_do_not_depend_on_the_batch(dtype):
    # 8 channels of 40 rows at 302 padded columns span several column
    # blocks, the last one partial.  Blocks are cut from one image's size,
    # so a batched conv and its input gradient are bit-identical to
    # per-image ones; the weight gradient sums over the batch.
    x = rand((2, 8, 40, 300), seed=64, dtype=dtype)
    w = rand((8, 8, 3, 3), seed=65, dtype=dtype)
    c = rand((2, 8, 40, 300), seed=66, dtype=dtype)
    assert 8 * 9 * 302 * x.itemsize * 40 > 3 * TAP_BLOCK_BYTES

    def run(images):
        xt, wt = Tensor(x[images], requires_grad=True), Tensor(w, requires_grad=True)
        out = conv2d(xt, wt, padding=1)
        backward(sum_all(mul(out, Tensor(c[images]))))
        return out.data, xt.grad, wt.grad

    out, dx, dw = run(slice(None))
    for i in range(2):
        one = run(slice(i, i + 1))
        assert np.array_equal(out[i : i + 1], one[0])
        assert np.array_equal(dx[i : i + 1], one[1])

    # against the float64 reference: the forward, then both gradients as
    # adjoints, <conv(u; w), c> = <u, dx> and <conv(x; v), c> = <v, dw>
    tol = 1e-10 if dtype == np.float64 else 1e-5
    want = conv_ref_windows(x, w, 1)
    np.testing.assert_allclose(out, want, rtol=tol, atol=tol * np.abs(want).max())
    u, v = rand(x.shape, seed=67), rand(w.shape, seed=68)
    for lhs, probe, grad in ((conv_ref_windows(u, w, 1), u, dx),
                             (conv_ref_windows(x, v, 1), v, dw)):
        terms = lhs * c
        assert abs(terms.sum() - (probe * grad).sum()) <= tol * np.abs(terms).sum()


def test_one_term_conv_keeps_signed_zeros():
    # a 1x1 kernel over one channel is a one-term sum, taken as a broadcast
    # product: -1 * 0.0 stays -0.0, where a GEMM's zeroed accumulator would
    # return +0.0.  The stride-1 transposed conv is the input gradient.
    v = np.array([[[[0.0, -0.0, 2.0, -3.0]]]])
    w = Tensor(np.full((1, 1, 1, 1), -1.0))
    for out in (conv2d(Tensor(v), w).data,
                transposed_conv2d(Tensor(v), w, stride=1, padding=0).data):
        np.testing.assert_array_equal(out, -v)
        np.testing.assert_array_equal(np.signbit(out), ~np.signbit(v))


def test_conv_channel_mismatch():
    with pytest.raises(ContractViolation, match="channels"):
        conv2d(Tensor(rand((1, 2, 4, 4))), Tensor(rand((1, 3, 3, 3))))


def test_conv_even_kernel_rejected():
    with pytest.raises(ContractViolation, match="odd"):
        conv2d(Tensor(rand((1, 1, 4, 4))), Tensor(rand((1, 1, 2, 2))))


def test_conv_bad_bias_shape():
    with pytest.raises(ContractViolation, match="bias"):
        conv2d(Tensor(rand((1, 1, 4, 4))), Tensor(rand((2, 1, 3, 3))),
               Tensor(rand((1, 1, 1, 1))), padding=1)


def test_conv_deterministic():
    x, w = Tensor(rand((1, 2, 8, 8))), Tensor(rand((3, 2, 3, 3), seed=2))
    a = conv2d(x, w, padding=1).data
    b = conv2d(x, w, padding=1).data
    assert np.array_equal(a, b)


def test_conv_grad_check():
    # out x in: 2x2 merges the taps in the forward and both gradients, 1x3
    # keeps per-tap GEMMs in the forward and weight gradient, 3x1 in the
    # input gradient
    for oc, ic in ((2, 2), (1, 3), (3, 1)):
        w = Tensor(rand((oc, ic, 3, 3), seed=3))
        b = Tensor(rand((1, oc, 1, 1), seed=4))
        x0 = Tensor(rand((1, ic, 5, 6), seed=5))

        assert grad_check(lambda t: sum_all(conv2d(t, w, b, padding=1)), x0) < GRAD_TOL
        assert grad_check(lambda t: sum_all(conv2d(x0, t, b, padding=1)), w) < GRAD_TOL
        assert grad_check(lambda t: sum_all(conv2d(x0, w, t, padding=1)), b) < GRAD_TOL


def test_conv_strided_grad_check():
    # at stride 3 the fold of the padded 8x8 map has a last row and column
    # that no output's taps reach: their input gradient is zero-filled
    w = Tensor(rand((2, 1, 3, 3), seed=6))
    x0 = Tensor(rand((1, 1, 6, 6), seed=7))
    for s in (2, 3):
        assert grad_check(lambda t: sum_all(conv2d(t, w, stride=s, padding=1)), x0) < GRAD_TOL
        assert grad_check(lambda t: sum_all(conv2d(x0, t, stride=s, padding=1)), w) < GRAD_TOL


# ---------------------------------------------------------------------------
# transposed_conv2d
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stride,padding,k,h,w", [
    (2, 1, 4, 3, 4), (2, 1, 4, 5, 5), (1, 1, 3, 4, 4), (2, 0, 3, 3, 3),
    (3, 1, 5, 4, 5), (3, 0, 3, 3, 2),
])
def test_tconv_matches_scatter_reference(stride, padding, k, h, w):
    x = rand((2, 3, h, w), seed=h)
    wt = rand((3, 2, k, k), seed=k + 1)
    b = rand((1, 2, 1, 1), seed=9)
    got = transposed_conv2d(Tensor(x), Tensor(wt), Tensor(b),
                            stride=stride, padding=padding)
    want = tconv_ref(x, wt, b, stride=stride, padding=padding)
    np.testing.assert_allclose(got.data, want, rtol=1e-10, atol=1e-12)


def test_tconv_batch_does_not_change_per_image_results():
    # the decoder's smallest deconv: one image's output must not depend on
    # which other images share its batch
    x = rand((2, 64, 2, 4), seed=17, dtype=np.float32)
    w = Tensor(rand((64, 32, 4, 4), seed=18, dtype=np.float32))
    both = transposed_conv2d(Tensor(x), w).data
    for i in range(2):
        one = transposed_conv2d(Tensor(x[i : i + 1]), w).data
        assert np.array_equal(both[i : i + 1], one)


def test_tconv_doubles_extents():
    out = transposed_conv2d(Tensor(rand((1, 2, 5, 9))), Tensor(rand((2, 4, 4, 4))))
    assert out.shape == (1, 4, 10, 18)


def test_conv_tconv_adjoint():
    # <conv(x), y> == <x, tconv(y)> with the shared kernel: the transposed
    # op must be the exact adjoint of the strided conv.
    w = rand((3, 2, 3, 3), seed=11)
    x = rand((1, 2, 7, 9), seed=12)
    y = rand((1, 3, 4, 5), seed=13)
    conv_out = conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
    assert conv_out.shape == y.shape
    tconv_out = transposed_conv2d(Tensor(y), Tensor(w), stride=2, padding=1).data
    lhs = float((conv_out * y).sum())
    rhs = float((x * tconv_out).sum())
    assert abs(lhs - rhs) / max(abs(lhs), 1e-12) < 1e-10


def test_tconv_adjoint_of_reference_conv_4x4():
    # the production 4x4 deconv, checked against the naive conv reference
    # (conv2d itself only accepts odd kernels)
    w = rand((3, 2, 4, 4), seed=11)
    x = rand((1, 2, 6, 8), seed=12)
    y = rand((1, 3, 3, 4), seed=13)
    conv_out = conv_ref(x, w, stride=2, padding=1)
    assert conv_out.shape == y.shape
    tconv_out = transposed_conv2d(Tensor(y), Tensor(w), stride=2, padding=1).data
    lhs = float((conv_out * y).sum())
    rhs = float((x * tconv_out).sum())
    assert abs(lhs - rhs) / max(abs(lhs), 1e-12) < 1e-10


def test_tconv_grad_check():
    # in x out: with 2x2 only the forward merges its taps, with 4x1 (whose
    # fold has 4 x 1 channels) the forward and both gradients do
    for ic, oc in ((2, 2), (4, 1)):
        wt = Tensor(rand((ic, oc, 4, 4), seed=14))
        b = Tensor(rand((1, oc, 1, 1), seed=15))
        x0 = Tensor(rand((1, ic, 3, 4), seed=16))
        assert grad_check(lambda t: sum_all(transposed_conv2d(t, wt, b)), x0) < GRAD_TOL
        assert grad_check(lambda t: sum_all(transposed_conv2d(x0, t, b)), wt) < GRAD_TOL
        assert grad_check(lambda t: sum_all(transposed_conv2d(x0, wt, t)), b) < GRAD_TOL


def test_tconv_channel_mismatch():
    with pytest.raises(ContractViolation, match="channels"):
        transposed_conv2d(Tensor(rand((1, 3, 4, 4))), Tensor(rand((2, 3, 4, 4))))


# ---------------------------------------------------------------------------
# maxpool2d
# ---------------------------------------------------------------------------

def test_maxpool_matches_reference():
    x = rand((2, 3, 8, 10), seed=17)
    # windows with ties, signed zeros and NaN
    x[0, 0, 0:2, 0:2] = [[3.0, 3.0], [3.0, 3.0]]
    x[0, 0, 0:2, 2:4] = [[-0.0, 0.0], [0.0, 0.0]]
    x[0, 0, 0:2, 4:6] = [[0.0, -0.0], [-0.0, -0.0]]
    x[0, 1, 0:2, 0:2] = [[1.0, np.nan], [2.0, 0.5]]
    x[0, 1, 2:4, 0:2] = [[-np.inf, -np.inf], [-np.inf, np.nan]]
    for tracked in (False, True):
        got = maxpool2d(Tensor(x, requires_grad=tracked)).data
        np.testing.assert_array_equal(got, pool_ref(x))  # NaN compares equal
        # the value is the first maximum in row-major order: -0.0 vs 0.0
        assert np.signbit(got[0, 0, 0, 1]) and not np.signbit(got[0, 0, 0, 2])


def test_maxpool_odd_extents_rejected():
    with pytest.raises(ContractViolation, match="even"):
        maxpool2d(Tensor(rand((1, 1, 3, 4))))


def test_maxpool_tie_routes_to_first_in_row_major_order():
    x = Tensor(np.array([[[[5.0, 5.0], [0.0, 0.0]]]]), requires_grad=True)
    out = sum_all(maxpool2d(x))
    assert out.item() == 5.0
    backward(out)
    np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


def test_maxpool_routes_each_window_to_its_argmax():
    # every window of values drawn from {-1, -0.0, 0, 1, NaN}: the gradient
    # goes where np.argmax of the row-major window points (the first
    # maximum, or the first NaN)
    vals = np.array([-1.0, -0.0, 0.0, 1.0, np.nan])
    idx = np.indices((5,) * 4).reshape(4, -1)
    x = vals[idx].T.reshape(1, 1, -1, 2, 2).transpose(0, 1, 3, 2, 4)
    x = np.ascontiguousarray(x.reshape(1, 1, 2, -1))
    xt = Tensor(x, requires_grad=True)
    backward(sum_all(maxpool2d(xt)))
    win = x.reshape(1, 1, 1, 2, -1, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
    want = np.zeros_like(win)
    want[np.arange(len(win)), np.argmax(win, axis=-1)] = 1.0
    got = xt.grad.reshape(1, 1, 1, 2, -1, 2).transpose(0, 1, 2, 4, 3, 5)
    np.testing.assert_array_equal(got.reshape(-1, 4), want)


def _window_scatter(g, x):
    """The gradient a maxpool of x sends back for g, built as a zeroed
    (..., 4) window array that takes g at each window's first maximum."""
    win = x.reshape(*x.shape[:2], x.shape[2] // 2, 2, -1, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(*g.shape, 4)
    dwin = np.zeros(win.shape, g.dtype)
    np.put_along_axis(dwin, np.argmax(win, axis=-1)[..., None], g[..., None], axis=-1)
    return dwin.reshape(*g.shape, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_backward_writes_the_window_scatter_bit_for_bit(dtype):
    # x's gradient takes g in its phase views: copied the first time (a
    # -0.0 stays -0.0, +0.0 elsewhere), added to later contributions
    x = rand((2, 3, 6, 8), seed=18, dtype=dtype)
    g1, g2 = (rand((2, 3, 3, 4), seed=s, dtype=dtype) for s in (19, 20))
    g1[0, 0, 0, :2] = -0.0
    for conv_input in (False, True):  # a conv output's gradient sits in its layout
        xt = Tensor(x, requires_grad=True)
        h = (conv2d(xt, Tensor(np.eye(3, dtype=dtype).reshape(3, 3, 1, 1)))
             if conv_input else xt)
        a, b = maxpool2d(h), maxpool2d(h)
        a._backward(g1)
        first = np.array(h.grad)
        b._backward(g2)
        want = _window_scatter(g1, x)
        assert first.tobytes() == want.tobytes()
        assert h.grad.tobytes() == (want + _window_scatter(g2, x)).tobytes()


def test_maxpool_tie_joint_direction_matches_fd():
    # Perturbing both tied entries together keeps the function smooth; the
    # central difference along that direction must equal the summed
    # analytic gradient over the tied pair (1 + 0).
    base = np.array([[[[5.0, 5.0], [0.0, 0.0]]]])
    h = 1e-6
    up = pool_ref(base + np.array([[[[h, h, ], [0, 0]]]])).sum()
    down = pool_ref(base - np.array([[[[h, h], [0, 0]]]])).sum()
    assert abs((up - down) / (2 * h) - 1.0) < 1e-9


def test_maxpool_grad_check_on_distinct_values():
    # distinct entries keep the pooling locally linear, so the FD oracle is valid
    base = np.arange(1 * 2 * 4 * 6, dtype=np.float64).reshape(1, 2, 4, 6)
    x0 = Tensor(base + rand((1, 2, 4, 6), seed=18) * 0.1)
    assert grad_check(lambda t: sum_all(maxpool2d(t)), x0) < GRAD_TOL


# ---------------------------------------------------------------------------
# activations and shape ops
# ---------------------------------------------------------------------------

def test_leaky_relu_values():
    v = np.array([[[[-2.0, 0.0, 3.0, -0.5, -0.0, np.nan, -np.inf, np.inf]]]])
    want = [[[[-0.2, 0.0, 3.0, -0.05, -0.0, np.nan, -np.inf, np.inf]]]]
    for dtype in (np.float32, np.float64):
        for tracked in (False, True):
            out = leaky_relu(Tensor(v.astype(dtype), requires_grad=tracked)).data
            assert out.dtype == dtype
            np.testing.assert_allclose(out, want, rtol=1e-6)
            np.testing.assert_array_equal(np.signbit(out[..., :5]),
                                          np.signbit(v[..., :5]))


def test_leaky_relu_derivative_at_zero_is_one():
    x = Tensor(np.array([[[[0.0]]]]), requires_grad=True)
    backward(sum_all(leaky_relu(x)))
    assert x.grad.reshape(()) == 1.0


def test_leaky_relu_grad_check_away_from_kink():
    v = rand((1, 2, 4, 5), seed=19)
    v = np.where(np.abs(v) < 0.1, 0.5, v)  # keep probes off the kink
    x0 = Tensor(v)
    assert grad_check(lambda t: sum_all(leaky_relu(t)), x0) < GRAD_TOL


def _fused_and_composed(op, x, w, b, tracked, **kw):
    """Outputs and x/w/b gradients of op(..., leaky=True) and of
    leaky_relu(op(...)), each from fresh leaves; the gradients are taken of
    <out, c> for a fixed random c."""
    runs = []
    for fused in (True, False):
        leaves = [Tensor(a.copy(), requires_grad=tracked)
                  for a in (x, w) + (() if b is None else (b,))]
        out = (op(*leaves, leaky=True, **kw) if fused
               else leaky_relu(op(*leaves, **kw)))
        runs.append([out.data])
        if tracked:
            c = Tensor(rand(out.shape, seed=40, dtype=x.dtype))
            backward(sum_all(mul(out, c)))
            runs[-1] += [t.grad for t in leaves]
    return runs


def _assert_bit_identical(runs):
    for got, want in zip(*runs):
        np.testing.assert_array_equal(got, want)  # NaN compares equal
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tracked", [False, True])
@pytest.mark.parametrize("bias", [False, True])
def test_fused_leaky_epilogue_is_bit_identical(dtype, tracked, bias):
    x = rand((2, 3, 6, 7), seed=41, dtype=dtype)
    b = rand((1, 4, 1, 1), seed=43, dtype=dtype) if bias else None
    for stride in (1, 2):
        w = rand((4, 3, 3, 3), seed=42, dtype=dtype)
        _assert_bit_identical(_fused_and_composed(
            conv2d, x, w, b, tracked, stride=stride, padding=1))
        w = rand((3, 4, 4, 4), seed=44, dtype=dtype)
        _assert_bit_identical(_fused_and_composed(
            transposed_conv2d, x, w, b, tracked, stride=stride, padding=1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tracked", [False, True])
def test_fused_leaky_epilogue_passes_special_values_through(dtype, tracked):
    # a 1x1 kernel of weight 1 (and a -0.0 bias) leaves every input bit
    # intact, so the epilogue sees the signed zeros, NaN, infinities and a
    # negative subnormal whose 0.1-multiple rounds to -0.0: the mask must
    # come from the input, not the output, for its derivative to be 0.1
    tiny = np.finfo(dtype).smallest_subnormal
    v = np.array([[[[-2.0, 0.0, 3.0, -0.5, -0.0, np.nan, -np.inf, np.inf,
                     -tiny]]]], dtype=dtype)
    w = np.ones((1, 1, 1, 1), dtype)
    for b in (None, np.full((1, 1, 1, 1), -0.0, dtype)):
        runs = _fused_and_composed(conv2d, v, w, b, tracked)
        _assert_bit_identical(runs)
        out = runs[0][0]
        np.testing.assert_array_equal(np.signbit(out[..., :5]),
                                      np.signbit(v[..., :5]))
        assert out[0, 0, 0, 8] == 0 and np.signbit(out[0, 0, 0, 8])
    if tracked:
        x = Tensor(v[..., 8:], requires_grad=True)
        backward(sum_all(conv2d(x, Tensor(w), leaky=True)))
        assert x.grad.reshape(()) == dtype(0.1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_grad_matches_the_select_on_special_values(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    special = [0.0, -0.0, tiny, -tiny, 3 * tiny, np.inf, -np.inf, np.nan, -np.nan,
               np.finfo(dtype).max, 1.0, -2.5]
    rng = np.random.default_rng(106)
    g = rng.choice(np.array(special, dtype), size=(2, 3, 5, 11))
    mask = rng.random(g.shape) < 0.5
    want = np.where(mask, g, dtype(LEAKY_SLOPE) * g)
    bits = np.packbits(mask.reshape(2, 3, -1), axis=-1)  # over each flat plane
    got = _leaky_grad(g, bits, np.empty_like(g))
    assert got.tobytes() == want.tobytes()
    # g's rows as the first 11 columns of planes whose rows are 13 wide
    wide = rng.random((2, 3, 5, 13)) < 0.5
    wide[..., :11] = mask
    wide_bits = np.packbits(wide.reshape(2, 3, -1), axis=-1)
    got = _leaky_grad(g, wide_bits, np.empty_like(g), rw=13)
    assert got.tobytes() == want.tobytes()
    flat = g.reshape(2, 3, -1)
    assert _leaky_grad(flat, bits, flat) is flat and g.tobytes() == want.tobytes()


def _off_kink(op, x0, w, b, **kw):
    pre = op(x0, w, b, **kw).data
    assert np.abs(pre).min() > 1e-2  # probes of 1e-5 never cross the kink
    return lambda t: sum_all(op(t, w, b, leaky=True, **kw))


def test_conv_leaky_grad_check():
    w = Tensor(rand((2, 2, 3, 3), seed=45))
    b = Tensor(rand((1, 2, 1, 1), seed=46))
    x0 = Tensor(rand((1, 2, 5, 6), seed=47))
    assert grad_check(_off_kink(conv2d, x0, w, b, padding=1), x0) < GRAD_TOL
    assert grad_check(lambda t: sum_all(conv2d(x0, t, b, padding=1, leaky=True)),
                      w) < GRAD_TOL
    assert grad_check(lambda t: sum_all(conv2d(x0, w, t, padding=1, leaky=True)),
                      b) < GRAD_TOL


def test_tconv_leaky_grad_check():
    wt = Tensor(rand((2, 2, 4, 4), seed=48))
    b = Tensor(rand((1, 2, 1, 1), seed=49))
    x0 = Tensor(rand((1, 2, 3, 4), seed=50))
    assert grad_check(_off_kink(transposed_conv2d, x0, wt, b), x0) < GRAD_TOL
    assert grad_check(lambda t: sum_all(transposed_conv2d(x0, t, b, leaky=True)),
                      wt) < GRAD_TOL
    assert grad_check(lambda t: sum_all(transposed_conv2d(x0, wt, t, leaky=True)),
                      b) < GRAD_TOL


def test_concat_slice_roundtrip():
    a = Tensor(rand((1, 2, 3, 4), seed=20), requires_grad=True)
    b = Tensor(rand((1, 3, 3, 4), seed=21), requires_grad=True)
    cat = concat_channels([a, b])
    assert cat.shape == (1, 5, 3, 4)
    np.testing.assert_array_equal(cat.data[:, 0:2], a.data)
    np.testing.assert_array_equal(cat.data[:, 2:5], b.data)


def test_concat_routes_gradients():
    a = Tensor(rand((1, 2, 2, 2), seed=22), requires_grad=True)
    b = Tensor(rand((1, 1, 2, 2), seed=23), requires_grad=True)
    out = concat_channels([a, b])
    backward(sum_all(mul(out, out)))
    np.testing.assert_allclose(a.grad, 2 * a.data, rtol=1e-12)
    np.testing.assert_allclose(b.grad, 2 * b.data, rtol=1e-12)


def test_concat_shape_mismatch():
    with pytest.raises(ContractViolation, match="mismatch"):
        concat_channels([Tensor(rand((1, 1, 2, 2))), Tensor(rand((1, 1, 2, 3)))])


# ---------------------------------------------------------------------------
# conv2d over a sequence of inputs
# ---------------------------------------------------------------------------

def _sequence_and_concat(parts, w, b, tracked, **kw):
    """Outputs and gradients of conv2d(parts, ...) and of
    conv2d(concat_channels(parts), ...), each from fresh leaves.  `tracked`
    says which parts require grad; w and b do when any part does.  The
    gradients are taken of <out, c> for a fixed random c."""
    runs = []
    for as_sequence in (True, False):
        xs = [Tensor(a.copy(), requires_grad=t) for a, t in zip(parts, tracked)]
        params = [Tensor(a.copy(), requires_grad=any(tracked))
                  for a in (w,) + (() if b is None else (b,))]
        x = xs if as_sequence else concat_channels(xs)
        out = conv2d(x, *params, **kw)
        runs.append([out.data])
        if any(tracked):
            c = Tensor(rand(out.shape, seed=52, dtype=w.dtype))
            backward(sum_all(mul(out, c)))
            runs[-1] += [t.grad for t in xs + params if t.requires_grad]
    return runs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tracked", [(False, False), (True, True), (False, True)])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("leaky", [False, True])
def test_conv_sequence_is_bit_identical_to_concat(dtype, tracked, bias, leaky):
    parts = (rand((2, 2, 6, 7), seed=53, dtype=dtype),
             rand((2, 3, 6, 7), seed=54, dtype=dtype))
    w = rand((4, 5, 3, 3), seed=55, dtype=dtype)
    b = rand((1, 4, 1, 1), seed=56, dtype=dtype) if bias else None
    for stride in (1, 2):
        runs = _sequence_and_concat(parts, w, b, tracked, stride=stride,
                                    padding=1, leaky=leaky)
        want = 1 + sum(tracked) + (1 + bias) * any(tracked)
        assert len(runs[0]) == len(runs[1]) == want
        _assert_bit_identical(runs)


def test_conv_single_tensor_is_a_one_element_sequence():
    x = Tensor(rand((1, 2, 5, 6), seed=57))
    w, b = Tensor(rand((3, 2, 3, 3), seed=58)), Tensor(rand((1, 3, 1, 1), seed=59))
    np.testing.assert_array_equal(conv2d(x, w, b, padding=1).data,
                                  conv2d([x], w, b, padding=1).data)


@pytest.mark.parametrize("parts, match", [
    ([], "at least one"),
    ([(1, 2, 4, 4), (2, 1, 4, 4)], "mismatch"),
    ([(1, 2, 4, 4), (1, 1, 5, 4)], "mismatch"),
    ([(1, 2, 4, 4), (1, 1, 4, 5)], "mismatch"),
    ([(1, 2, 4, 4), (1, 2, 4, 4)], "channels"),
], ids=["empty", "batch", "height", "width", "channel-sum"])
def test_conv_sequence_contract(parts, match):
    with pytest.raises(ContractViolation, match=match):
        conv2d([Tensor(rand(s)) for s in parts], Tensor(rand((2, 3, 3, 3))),
               padding=1)


def test_conv_sequence_grad_check():
    a0 = Tensor(rand((1, 2, 5, 6), seed=60))
    b0 = Tensor(rand((1, 1, 5, 6), seed=61))
    w = Tensor(rand((2, 3, 3, 3), seed=62))
    bias = Tensor(rand((1, 2, 1, 1), seed=63))

    def conv(a, b, w_, bias_):
        return sum_all(conv2d((a, b), w_, bias_, padding=1))

    assert grad_check(lambda t: conv(t, b0, w, bias), a0) < GRAD_TOL
    assert grad_check(lambda t: conv(a0, t, w, bias), b0) < GRAD_TOL
    assert grad_check(lambda t: conv(a0, b0, t, bias), w) < GRAD_TOL
    assert grad_check(lambda t: conv(a0, b0, w, t), bias) < GRAD_TOL


def test_hslice_pad_examples():
    x = Tensor(np.array([[[[1.0, 2.0, 3.0, 4.0]]]]))
    np.testing.assert_array_equal(hslice_pad(x, 1).data, [[[[2, 3, 4, 0]]]])
    np.testing.assert_array_equal(hslice_pad(x, -1).data, [[[[0, 1, 2, 3]]]])
    np.testing.assert_array_equal(hslice_pad(x, 0).data, x.data)


def test_hslice_pad_zero_regions():
    x = Tensor(rand((1, 2, 3, 8), seed=24))
    for d in (2, 5):
        assert np.all(hslice_pad(x, d).data[..., 8 - d:] == 0)
        assert np.all(hslice_pad(x, -d).data[..., :d] == 0)


def test_hslice_pad_displacement_bound():
    x = Tensor(rand((1, 1, 2, 4)))
    with pytest.raises(ContractViolation):
        hslice_pad(x, 4)
    with pytest.raises(ContractViolation):
        hslice_pad(x, -4)


def test_hslice_pad_adjoint():
    # shifting left and shifting right are transposes of each other
    x = rand((1, 1, 2, 6), seed=25)
    y = rand((1, 1, 2, 6), seed=26)
    for d in (-3, -1, 0, 2, 4):
        lhs = float((hslice_pad(Tensor(x), d).data * y).sum())
        rhs = float((x * hslice_pad(Tensor(y), -d).data).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_hslice_pad_grad_check():
    x0 = Tensor(rand((1, 2, 3, 6), seed=27))
    for d in (-2, 0, 3):
        assert grad_check(lambda t, d=d: sum_all(mul(hslice_pad(t, d),
                                                     hslice_pad(t, d))), x0) < GRAD_TOL


def _shifted_ref(x: np.ndarray, d: int) -> np.ndarray:
    # a fresh zero-filled copy per displacement
    out = np.zeros_like(x)
    w = x.shape[3]
    if d >= 0:
        out[..., : w - d] = x[..., d:]
    else:
        out[..., -d:] = x[..., : w + d]
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hslice_pads_views_equal_hslice_pad_bit_for_bit(dtype):
    x = rand((2, 3, 4, 9), seed=28, dtype=dtype)
    x[0, 0, 0, :3] = (-0.0, np.inf, np.nan)
    # mixed signs, d = 0 twice, |d| = W - 1 both ways
    ds = [3, -2, 0, 8, -8, 1, 0, -1]
    views = hslice_pads(Tensor(x), ds)
    assert len(views) == len(ds)
    for d, v in zip(ds, views):
        for want in (_shifted_ref(x, d), hslice_pad(Tensor(x), d).data):
            assert (v.dtype, v.shape) == (want.dtype, want.shape)
            assert np.ascontiguousarray(v.data).tobytes() == want.tobytes()
    # one zero-extended copy behind them all: W + 8 + 8 columns
    base = views[0].data.base
    assert all(v.data.base is base for v in views)
    assert base.shape == (2, 3, 4, 9 + 16)
    assert hslice_pads(Tensor(x), []) == []


def test_hslice_pads_grad_check():
    x0 = Tensor(rand((1, 2, 3, 6), seed=29))
    ds = (-5, -2, 0, 0, 3, 5)
    probes = [Tensor(rand(x0.shape, seed=30 + i)) for i in range(len(ds))]

    def fn(t):
        return add(*(sum_all(mul(mul(v, v), p))
                     for v, p in zip(hslice_pads(t, ds), probes)))

    assert grad_check(fn, x0) < GRAD_TOL


def test_hslice_pads_displacement_bound():
    x = Tensor(rand((1, 1, 2, 4)))
    for ds in ([1, 4], [-4, 0], [3, -3, 5]):
        with pytest.raises(ContractViolation):
            hslice_pads(x, ds)


# ---------------------------------------------------------------------------
# elementwise, reductions, graph behavior
# ---------------------------------------------------------------------------

def test_elementwise_semantics():
    a = Tensor(np.full((1, 1, 1, 2), 3.0))
    b = Tensor(np.full((1, 1, 1, 2), 2.0))
    np.testing.assert_array_equal(add(a, b).data, [[[[5.0, 5.0]]]])
    np.testing.assert_array_equal(mul(a, b).data, [[[[6.0, 6.0]]]])
    assert sum_all(a).item() == 6.0


def test_elementwise_shape_mismatch():
    a, b = Tensor(rand((1, 1, 2, 2))), Tensor(rand((1, 1, 2, 3)))
    for op in (add, mul):
        with pytest.raises(ContractViolation):
            op(a, b)
    with pytest.raises(ContractViolation):
        add(a, a, b)


@pytest.mark.parametrize("count", [2, 3, 5])
def test_add_of_many_is_one_node_equal_to_chained_adds(count):
    parts = [rand((2, 3, 4, 5), seed=100 + i, dtype=np.float32) for i in range(count)]
    parts[0][0, 0, 0, :3] = [-0.0, np.inf, 1e-45]  # a signed zero, inf, subnormal
    runs = []
    for fused in (True, False):
        ts = [Tensor(p.copy(), requires_grad=True) for p in parts]
        if fused:
            out = add(*ts)
            assert set(map(id, out._parents)) == {id(t._record) for t in ts}
        else:
            out = ts[0]
            for t in ts[1:]:
                out = add(out, t)
        backward(sum_all(mul(out, Tensor(rand(out.shape, seed=99, dtype=np.float32)))))
        runs.append([out.data] + [t.grad for t in ts])
    assert [a.tobytes() for a in runs[0]] == [a.tobytes() for a in runs[1]]


def test_add_of_many_grad_check():
    others = [Tensor(rand((1, 2, 3, 3), seed=105 + i)) for i in range(3)]
    x0 = Tensor(rand((1, 2, 3, 3), seed=104))
    assert grad_check(lambda t: sum_all(mul(add(t, *others, t), others[0])),
                      x0) < GRAD_TOL


def test_reused_tensor_accumulates_gradient():
    x = Tensor(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
    a = mul(x, x)
    s = sum_all(add(a, a))  # 2*x^2, derivative 4x = 12
    backward(s)
    assert float(x.grad.reshape(())) == pytest.approx(12.0)


def test_graph_pruned_without_requires_grad():
    x = Tensor(rand((1, 1, 2, 2)))
    out = sum_all(mul(x, x))
    assert out.requires_grad is False and out._parents == ()


def _conv_chain():
    x = Tensor(rand((1, 1, 5, 5), seed=33), requires_grad=True)
    w1 = Tensor(rand((2, 1, 3, 3), seed=34), requires_grad=True)
    w2 = Tensor(rand((1, 2, 3, 3), seed=35), requires_grad=True)
    h1 = conv2d(x, w1, padding=1)
    loss = sum_all(conv2d(h1, w2, padding=1))
    # the second conv is chained: its backward reads h1's born-padded buffer
    return loss, weakref.ref(h1.data.base), (x, w1, w2)


def test_backward_releases_the_graph_as_it_goes():
    loss, h1, leaves = _conv_chain()
    assert h1() is not None
    backward(loss)
    assert h1() is None  # nothing but the graph held the intermediate's buffer
    assert all(t.grad is not None for t in leaves)
    assert loss._parents == () and loss.grad is None


def test_a_record_reads_its_value_only_while_the_value_lives():
    x = Tensor(rand((1, 2, 4, 4), seed=39), requires_grad=True)
    y = maxpool2d(x)
    record = y._record
    assert record.data is y.data and record._parents == (x._record,)
    assert (record.shape, record.dtype) == (y.shape, y.dtype)
    ref = weakref.ref(y.data)
    del y  # maxpool's backward holds x's record and its argmax, not y
    assert ref() is None and record.data.size == 0
    assert Tensor(x.data)._record is None  # an untracked tensor has none


def test_backward_over_a_released_graph_raises():
    loss, _, _ = _conv_chain()
    backward(loss)
    with pytest.raises(ContractViolation, match="consumed"):
        backward(loss)

    x = Tensor(rand((1, 1, 3, 3), seed=36), requires_grad=True)
    y = conv2d(x, Tensor(rand((1, 1, 3, 3), seed=37)), padding=1)
    backward(sum_all(y))
    with pytest.raises(ContractViolation, match="consumed"):
        backward(sum_all(mul(y, y)))


def test_a_lone_negative_zero_gradient_stays_negative():
    # the first contribution is stored as is, not added to a +0.0 array
    x = Tensor(np.array([[[[2.0, 3.0]]]]), requires_grad=True)
    backward(sum_all(mul(x, Tensor(np.array([[[[-0.0, 1.0]]]])))))
    assert x.grad[0, 0, 0, 0] == 0 and np.signbit(x.grad[0, 0, 0, 0])
    np.testing.assert_array_equal(x.grad, [[[[-0.0, 1.0]]]])
    assert x.grad.flags.c_contiguous and x.grad.dtype == x.dtype


def _traced(fn):
    """fn()'s result, the bytes it left allocated and its peak above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - base, peak - base


def _placed(y: Tensor, g: np.ndarray) -> np.ndarray:
    """g where accumulate_grad places y's gradient: a conv2d output's in its
    layout, so that y's closure can be called with it."""
    accumulate_grad(y, g)
    return autograd._pop_grad(y)


def _same_conv():
    # 1 MiB maps, four times a column block
    x = Tensor(rand((1, 32, 64, 128), seed=60, dtype=np.float32),
               requires_grad=True)
    w = Tensor(rand((32, 32, 3, 3), seed=61, dtype=np.float32) * 0.1,
               requires_grad=True)
    b = Tensor(rand((1, 32, 1, 1), seed=62, dtype=np.float32),
               requires_grad=True)
    return x, w, b


def test_leaky_conv_node_keeps_its_mask_as_bits():
    x, w, b = _same_conv()
    y, kept, _ = _traced(lambda: conv2d(x, w, b, padding=1, leaky=True))
    # beside the output's born-padded buffer (its map plus the padding
    # ring), one bit per activation (1/32 of float32 bytes), plus the node's
    # records and numpy's first-call caches; a bool mask would be 1/4
    assert kept - y.data.base.nbytes <= y.data.nbytes // 32 + 16384


def test_untracked_leaky_conv_frees_the_core_result_before_the_activation():
    x = Tensor(rand((1, 1, 128, 256), seed=64, dtype=np.float32))
    w = Tensor(rand((8, 1, 3, 3), seed=65, dtype=np.float32))
    b = Tensor(rand((1, 8, 1, 1), seed=66, dtype=np.float32))
    conv2d(x, w, b, padding=1, leaky=True)  # numpy's first-call caches
    y, _, peak = _traced(lambda: conv2d(x, w, b, padding=1, leaky=True))
    core = y.data.nbytes * 258 // 256  # the result over the padded width
    # the padded input and one column block, then the output's padded
    # buffer and the activation's one temporary block
    assert peak <= 2 * core + x.data.nbytes * 2 + TAP_BLOCK_BYTES


def test_same_conv_backward_holds_one_padded_gradient_buffer():
    x, w, b = _same_conv()
    n, c, h, wd = x.shape
    padded = n * c * ((h + 2) * (wd + 2) + 2) * x.data.itemsize

    def backward_peak(y):
        # fresh leaves, so that the backward stores their first gradients;
        # g placed as accumulate_grad places it (in a conv2d output's layout)
        g = _placed(y, rand(y.shape, seed=63, dtype=np.float32))
        return _traced(lambda: y._backward(g))[2]

    # the output gradient's buffer (as many channels as dx here), dx on the
    # padded-width grid and the stored x.grad, then the column blocks or
    # the leaky table's block
    assert backward_peak(conv2d(x, w, b, padding=1, leaky=True)) <= (
        3 * padded + 2 * TAP_BLOCK_BYTES)
    # stride 2: a quarter-size buffer and no copy of dy beside it; with the
    # stored x.grad, one folded map at a time: dx's fold as it is unfolded,
    # or x's as the weight gradient reads it (2.27 padded maps; the parent,
    # which padded dy and x before folding, and folded x twice, 3.53)
    x, w, b = _same_conv()
    assert backward_peak(conv2d(x, w, b, stride=2, padding=1, leaky=True)) <= (
        2 * padded + padded // 4 + TAP_BLOCK_BYTES)

    # the transposed conv's output gradient is folded once, straight from
    # the masked gradient, for both of its adjoints (1.0 padded map beside
    # the masked gradient; the parent, which padded it before folding and
    # folded it twice, 2.57); x's buffer is a quarter map
    xt = Tensor(rand((1, 32, h // 2, wd // 2), seed=64, dtype=np.float32),
                requires_grad=True)
    wt = Tensor(rand((32, 32, 4, 4), seed=65, dtype=np.float32) * 0.1,
                requires_grad=True)
    y = transposed_conv2d(xt, wt, _same_conv()[2], leaky=True)
    assert y.shape == x.shape
    assert backward_peak(y) <= y.data.nbytes + padded + TAP_BLOCK_BYTES


# ---------------------------------------------------------------------------
# same convs: outputs born in the next same conv's padded layout
# ---------------------------------------------------------------------------

def test_same_conv_output_is_born_in_its_consumers_operand():
    # the bias makes the core's wrap columns non-zero before they are zeroed
    for leaky, bias in ((False, False), (True, True)):
        x = Tensor(rand((2, 3, 5, 7), seed=70, dtype=np.float32))
        w = Tensor(rand((4, 3, 3, 3), seed=71, dtype=np.float32))
        b = Tensor(rand((1, 4, 1, 1), seed=72, dtype=np.float32)) if bias else None
        y = conv2d(x, w, b, padding=1, leaky=leaky)
        padded = y.data.base
        want = _lower((y.data,), 1, 1, (3, 3))
        assert (padded.dtype, padded.shape) == (want.dtype, want.shape)
        assert padded.tobytes() == want.tobytes()  # a ring of +0.0
    # only a same conv's output is born padded: another's base is the
    # core's result, not the operand a same conv lowers it to
    for y in (conv2d(x, w, stride=2, padding=1),
              conv2d(x, Tensor(w.data[:, :, :1, :1]), padding=1)):
        assert y.data.base.shape != _lower((y.data,), 1, 1, (3, 3)).shape


def _copied(t: Tensor) -> Tensor:
    """t's values in a fresh contiguous tensor, behind an identity node."""
    return graph_out(np.array(t.data, order="C"), (t,),
                     lambda g: accumulate_grad(t, g))


SAME, STRIDED, POINTWISE = (3, 1, 1), (3, 2, 1), (1, 1, 0)  # (k, stride, padding)


def _chain_runs(dtype, bias, leaky, links):
    """A chain of three convs, with links[i] the i-th one's (k, stride,
    padding), run as it is and with each input a fresh copy: for each run
    the output and every leaf's gradient."""
    # 3 -> 4 -> 5 merge the taps, 5 -> 2 runs per-tap GEMMs
    runs = []
    for between in (lambda t: t, _copied):
        x = Tensor(rand((2, 3, 6, 7), seed=73, dtype=dtype), requires_grad=True)
        leaves, h = [x], x
        for i, ((oc, ic), (k, s, p)) in enumerate(zip(((4, 3), (5, 4), (2, 5)),
                                                       links)):
            w = Tensor(rand((oc, ic, k, k), seed=74 + i, dtype=dtype),
                       requires_grad=True)
            b = (Tensor(rand((1, oc, 1, 1), seed=77 + i, dtype=dtype),
                        requires_grad=True) if bias else None)
            leaves += [w] if b is None else [w, b]
            h = conv2d(between(h), w, b, stride=s, padding=p, leaky=leaky)
        backward(sum_all(mul(h, Tensor(rand(h.shape, seed=80, dtype=dtype)))))
        runs.append([h.data] + [t.grad for t in leaves])
    return runs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("leaky", [False, True])
def test_same_chain_is_bit_identical_to_one_of_fresh_copies(dtype, bias, leaky):
    _assert_bit_identical(_chain_runs(dtype, bias, leaky, (SAME, SAME, SAME)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("leaky", [False, True])
@pytest.mark.parametrize("links", [
    # a same conv reading a stride-2 or a 1x1 conv's output, and a 1x1 conv
    # reading a same conv's output: none of them is chained
    (STRIDED, SAME, SAME),
    (POINTWISE, SAME, SAME),
    (SAME, SAME, POINTWISE),
], ids=["strided-then-same", "1x1-then-same", "same-then-1x1"])
def test_unchained_links_are_bit_identical_to_fresh_copies(dtype, leaky, links):
    _assert_bit_identical(_chain_runs(dtype, True, leaky, links))


def test_a_chain_conv_lowers_nothing(monkeypatch):
    x = Tensor(rand((2, 3, 6, 7), seed=81), requires_grad=True)
    w1 = Tensor(rand((4, 3, 3, 3), seed=82), requires_grad=True)
    w2 = Tensor(rand((2, 4, 3, 3), seed=83), requires_grad=True)
    h = conv2d(x, w1, padding=1, leaky=True)
    calls = []
    lower = autograd._lower
    monkeypatch.setattr(autograd, "_lower",
                        lambda *args: calls.append(args) or lower(*args))
    y = conv2d(h, w2, padding=1, leaky=True)
    y._backward(_placed(y, rand(y.shape, seed=84)))
    assert h.grad is not None and w2.grad is not None
    assert calls == []


def test_same_chain_grad_check():
    w1 = Tensor(rand((3, 2, 3, 3), seed=85))
    b1 = Tensor(rand((1, 3, 1, 1), seed=86))
    w2 = Tensor(rand((2, 3, 3, 3), seed=87))
    b2 = Tensor(rand((1, 2, 1, 1), seed=88))
    x0 = Tensor(rand((1, 2, 4, 5), seed=89))
    h0 = conv2d(x0, w1, b1, padding=1, leaky=True)
    for pre in (conv2d(x0, w1, b1, padding=1), conv2d(h0, w2, b2, padding=1)):
        assert np.abs(pre.data).min() > 1e-2  # probes never cross a kink

    def chain(x, w):
        return sum_all(conv2d(conv2d(x, w1, b1, padding=1, leaky=True), w,
                              b2, padding=1, leaky=True))

    assert grad_check(lambda t: chain(t, w2), x0) < GRAD_TOL
    # the second conv's weight gradient reads the first one's buffer
    assert grad_check(lambda t: chain(x0, t), w2) < GRAD_TOL


# the fan-out: 3 -> c (leaky), then read by a same conv, a sequence conv
# and maxpool; the reading same conv's input gradient (5 -> c) merges the
# taps with c = 4 and runs per-tap GEMMs with c = 2
def _fan_out(between, dtype, c, conv_last):
    x = Tensor(rand((2, 3, 6, 8), seed=90, dtype=dtype), requires_grad=True)
    z = Tensor(rand((2, 2, 6, 8), seed=91, dtype=dtype), requires_grad=True)
    w1, w2, w3 = (Tensor(rand(shape, seed=92 + i, dtype=dtype), requires_grad=True)
                  for i, shape in enumerate(((c, 3, 3, 3), (5, c, 3, 3),
                                             (3, c + 2, 3, 3))))
    b1 = Tensor(rand((1, c, 1, 1), seed=95, dtype=dtype), requires_grad=True)
    h = conv2d(x, w1, b1, padding=1, leaky=True)
    terms = [conv2d(between(h), w2, padding=1, leaky=True),
             conv2d((between(h), z), w3, padding=1),
             maxpool2d(between(h))]
    if conv_last:  # the sequence conv or maxpool then stores h's first gradient
        terms.reverse()
    loss = add(*(sum_all(mul(t, Tensor(rand(t.shape, seed=96 + i, dtype=dtype))))
                 for i, t in enumerate(terms)))
    backward(loss)
    return [t.grad for t in (x, z, w1, w2, w3, b1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c", [4, 2])
@pytest.mark.parametrize("conv_last", [False, True])
@pytest.mark.parametrize("strided_sum", [False, True])
def test_fan_out_is_bit_identical_to_one_of_fresh_copies(
        monkeypatch, dtype, c, conv_last, strided_sum):
    # strided_sum: the per-tap partial sums go straight into the layout
    if strided_sum:
        monkeypatch.setattr(autograd, "STRIDED_SUM_BYTES", 0)
    _assert_bit_identical([_fan_out(between, dtype, c, conv_last)
                           for between in (lambda t: t, _copied)])


# the per-tap core's two uses on an 11-row map 13 wide (15 padded): the
# forward of an 8 -> 3 conv and the input gradient of a 3 -> 8 one, each a
# core with 8 input and 3 output channels (per-tap, as 8 >= 2 * 3)
def _per_tap_runs(dtype, padded):
    n, h, wd, wp = 2, 11, 13, 15
    x = rand((n, 8, h, wd), seed=100, dtype=dtype)
    w = rand((3, 8, 3, 3), seed=101, dtype=dtype)
    g = rand((n, 8, h, wd), seed=102, dtype=dtype)
    wt = rand((8, 3, 3, 3), seed=103, dtype=dtype)

    def out():  # contiguous, or strided planes as a born-padded output's
        if not padded:
            return None
        buf = np.full((n, 3, (h + 2) * wp + 2), np.nan, dtype)
        return buf[:, :, wp + 1 : (h + 1) * wp + 1]

    y = _conv_flat(_lower((x,), 1, 1, (3, 3)), w, h, wp, out())
    buf, _, dy = _dy_layout(g.shape, dtype, (h, wd), (3, 3), 1, 1)
    dy[...] = g
    dx = _conv_input_grad(buf, wt, 1, 1, (h, wd), out())
    return [np.ascontiguousarray(a).tobytes() for a in (y, dx)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("strided_sum", [False, True])
def test_per_tap_row_blocks_are_bit_identical_to_one_block(
        monkeypatch, dtype, padded, strided_sum):
    # strided_sum: every block's partial sums go straight into the output
    if strided_sum:
        monkeypatch.setattr(autograd, "STRIDED_SUM_BYTES", 0)
    one = _per_tap_runs(dtype, padded)
    # 4 rows a block: blocks of 4, 4 and 3 rows
    monkeypatch.setattr(autograd, "TAP_SUM_BYTES", 3 * 15 * np.dtype(dtype).itemsize * 4)
    assert _per_tap_runs(dtype, padded) == one


def test_a_per_tap_input_gradient_peaks_at_most_two_blocks_above_its_output(
        monkeypatch):
    # a 4 -> 16 conv's input gradient is a per-tap core, 16 -> 4
    h, wd, wp = 128, 256, 258
    wt = rand((16, 4, 3, 3), seed=104, dtype=np.float32)
    buf, _, dy = _dy_layout((1, 16, h, wd), np.float32, (h, wd), (3, 3), 1, 1)
    dy[...] = rand(dy.shape, seed=105, dtype=np.float32)
    monkeypatch.setattr(autograd, "TAP_SUM_BYTES", 1 << 16)
    block = 4 * (((1 << 16) // (4 * wp * 4)) * wp) * 4  # 15 rows
    # beside the blocks, numpy's buffer for an add into strided planes (at
    # most 8192 items) and small arrays
    slack = 8192 * 4 + 16384
    _conv_input_grad(buf, wt, 1, 1, (h, wd))  # numpy's first-call caches
    dx, _, peak = _traced(lambda: _conv_input_grad(buf, wt, 1, 1, (h, wd)))
    # the product and the partial sums' temporaries: a block each (a
    # full-size product temporary would make it twice the output)
    assert peak <= dx.nbytes + 2 * block + slack
    # into a given output, the blocks' temporaries alone
    grid = _dy_layout((1, 4, h, wd), np.float32, (h, wd), (3, 3), 1, 1)[1]
    assert _traced(lambda: _conv_input_grad(buf, wt, 1, 1, (h, wd), grid))[2] <= (
        2 * block + slack)


def test_a_chain_conv_stores_its_input_gradient_in_the_input_layout():
    x, _, _ = _same_conv()
    w1 = Tensor(rand((32, 32, 3, 3), seed=97, dtype=np.float32) * 0.1,
                requires_grad=True)
    h = conv2d(x, w1, padding=1, leaky=True)
    w2 = Tensor(rand((32, 32, 3, 3), seed=98, dtype=np.float32) * 0.1,
                requires_grad=True)
    y = conv2d(h, w2, padding=1, leaky=True)
    g = _placed(y, rand(y.shape, seed=99, dtype=np.float32))
    _, kept, peak = _traced(lambda: y._backward(g))
    buf, grid, dy = _dy_layout(h.shape, h.dtype, *h._layout, h.grad)
    assert h.grad.base is buf
    np.testing.assert_array_equal(dy, h.grad)
    # h's gradient, born in its layout (one padded map: h.data.base plus
    # one row); g is masked in place, and neither dx on the padded-width
    # grid nor a copy of it for h.grad is built (the parent: 3 padded
    # maps); the weight gradient's column blocks and w2.grad come beside it
    padded = buf.nbytes
    assert padded < 1.02 * h.data.base.nbytes
    assert peak <= padded + 2 * TAP_BLOCK_BYTES + 65536
    assert kept <= padded + 65536
    # the padded-width rows' wrap columns are zero, as the layout needs
    assert not grid.reshape(*h.shape[:3], -1)[..., h.shape[3]:].any()


@pytest.mark.parametrize("stride", [1, 2])
def test_a_conv_closure_rejects_a_gradient_outside_its_layout(stride):
    x = Tensor(rand((1, 2, 4, 5), seed=100), requires_grad=True)
    y = conv2d(x, Tensor(rand((3, 2, 3, 3), seed=101)), stride=stride, padding=1)
    with pytest.raises(ContractViolation, match="layout"):
        y._backward(rand(y.shape, seed=102))  # a plain array
    # another conv's layout is the wrong size
    other = conv2d(x, Tensor(rand((3, 2, 1, 1), seed=103)), stride=stride)
    assert other.shape == y.shape
    with pytest.raises(ContractViolation, match="layout"):
        y._backward(_placed(other, rand(y.shape, seed=102)))
    assert x.grad is None


@pytest.mark.parametrize("k, padding", [(3, 0), (3, 1), (1, 0)])
def test_backward_from_a_conv_output_root_matches_grad_check(k, padding):
    # backward seeds the 1x1x1x1 root through accumulate_grad, so that the
    # conv's gradient sits in its layout; (3, 1) is a same conv, and with a
    # same conv before it a chained one
    hw = k - 2 * padding
    x0 = Tensor(rand((1, 2, hw, hw), seed=104))
    w0 = Tensor(rand((1, 2, k, k), seed=105))
    w1 = Tensor(rand((2, 2, k, k), seed=106))
    b = Tensor(rand((1, 1, 1, 1), seed=107), requires_grad=True)

    def root(x, w, leaky):
        return conv2d(x, w, b, padding=padding, leaky=leaky)

    assert root(x0, w0, False).shape == (1, 1, 1, 1)
    for leaky in (False, True):
        assert grad_check(lambda t: root(t, w0, leaky), x0) < GRAD_TOL
        assert grad_check(lambda t: root(x0, t, leaky), w0) < GRAD_TOL
        if hw == 1:
            assert grad_check(lambda t: root(conv2d(t, w1, padding=padding), w0,
                                             leaky), x0) < GRAD_TOL


def test_a_closure_holds_the_only_reference_to_its_gradient():
    # backward detaches an output's gradient before its closure runs, so
    # the closure can free it as soon as it is done with it (a conv does,
    # once the masked gradient sits in its operand buffer)
    x = Tensor(rand((1, 1, 3, 3), seed=38), requires_grad=True)
    seen = []

    def bwd(g):
        seen.append(y.grad)
        accumulate_grad(x, g)  # the first contribution is a copy
        ref = weakref.ref(g)
        del g
        seen.append(ref())

    y = graph_out(x.data.copy(), (x,), bwd)
    backward(sum_all(mul(y, y)))
    assert [v is None for v in seen] == [True, True]
    np.testing.assert_array_equal(x.grad, 2 * x.data)


def _spy(monkeypatch, core: str, saved: list, w: Tensor) -> list:
    """Wrap autograd's input-gradient `core`: each call records whether
    every weakref in `saved` is dead and whether w's gradient is in."""
    seen = []
    run = getattr(autograd, core)

    def spy(*args, **kw):
        seen.append((all(r() is None for r in saved), w.grad is not None))
        return run(*args, **kw)

    monkeypatch.setattr(autograd, core, spy)
    return seen


def test_a_chain_conv_drops_its_input_buffer_before_the_input_gradient(monkeypatch):
    x = Tensor(rand((1, 2, 5, 6), seed=108), requires_grad=True)
    w1 = Tensor(rand((3, 2, 3, 3), seed=109), requires_grad=True)
    w2 = Tensor(rand((2, 3, 3, 3), seed=110), requires_grad=True)
    h = conv2d(x, w1, padding=1, leaky=True)
    y = conv2d(h, w2, padding=1, leaky=True)
    saved = [weakref.ref(h.data.base)]
    del h  # y's closure now holds the only reference to h's buffer
    assert saved[0]() is not None
    seen = _spy(monkeypatch, "_conv_input_grad", saved, w2)
    backward(sum_all(y))
    # y's closure first: its weight gradient in, h's buffer gone; then h's
    assert seen == [(True, True), (True, True)]


def test_a_sequence_conv_drops_its_input_arrays_before_the_input_gradient(
        monkeypatch):
    xa = Tensor(rand((1, 2, 4, 6), seed=111), requires_grad=True)
    xb = Tensor(rand((1, 1, 4, 6), seed=112), requires_grad=True)
    w = Tensor(rand((2, 3, 3, 3), seed=113), requires_grad=True)
    a, b = leaky_relu(xa), leaky_relu(xb)  # values only the conv reads
    y = conv2d((a, b), w, padding=1)
    saved = [weakref.ref(a.data), weakref.ref(b.data)]
    del a, b
    assert all(r() is not None for r in saved)
    seen = _spy(monkeypatch, "_conv_input_grad", saved, w)
    backward(sum_all(y))
    assert seen == [(True, True)]
    assert xa.grad is not None and xb.grad is not None


def test_a_transposed_conv_drops_its_input_array_before_the_input_gradient(
        monkeypatch):
    x0 = Tensor(rand((1, 3, 3, 4), seed=114), requires_grad=True)
    w = Tensor(rand((3, 2, 4, 4), seed=115), requires_grad=True)
    b = Tensor(rand((1, 2, 1, 1), seed=116), requires_grad=True)
    x = leaky_relu(x0)
    y = transposed_conv2d(x, w, b, leaky=True)
    saved = [weakref.ref(x.data)]
    del x
    assert saved[0]() is not None
    # the transposed conv's input gradient is the conv forward core
    seen = _spy(monkeypatch, "_conv_core", saved, w)
    backward(sum_all(y))
    assert seen == [(True, True)]
    assert x0.grad is not None and b.grad is not None


def test_elementwise_grad_checks():
    x0 = Tensor(rand((1, 1, 3, 3), seed=28))
    c = Tensor(rand((1, 1, 3, 3), seed=29))
    assert grad_check(lambda t: sum_all(mul(t, c)), x0) < GRAD_TOL
    assert grad_check(lambda t: sum_all(mul(t, t)), x0) < GRAD_TOL


def test_composite_chain_grad_check():
    w1 = Tensor(rand((2, 1, 3, 3), seed=30))
    w2 = Tensor(rand((2, 4, 4, 4), seed=31))
    x0 = Tensor(rand((1, 1, 6, 6), seed=32))

    def fn(t):
        h1 = leaky_relu(conv2d(t, w1, padding=1))
        h2 = maxpool2d(h1)
        h3 = transposed_conv2d(h2, w2)
        return sum_all(mul(h3, h3))

    assert grad_check(fn, x0) < GRAD_TOL


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.integers(min_value=-5, max_value=5),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_hslice_round_trip_recovers_interior(d, seed):
    x = rand((1, 1, 2, 6), seed=seed)
    out = hslice_pad(hslice_pad(Tensor(x), d), -d).data
    # interior columns survive the round trip, shifted-out ones are zero
    w = 6
    lo, hi = (d, w) if d >= 0 else (0, w + d)
    np.testing.assert_array_equal(out[..., lo:hi], x[..., lo:hi])
    mask = np.ones(w, dtype=bool)
    mask[lo:hi] = False
    assert np.all(out[..., mask] == 0)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_maxpool_dominates_window(seed):
    x = rand((1, 2, 4, 6), seed=seed)
    out = maxpool2d(Tensor(x)).data
    win = x.reshape(1, 2, 2, 2, 3, 2).transpose(0, 1, 2, 4, 3, 5)
    assert np.all(out[..., None, None] >= win.reshape(1, 2, 2, 3, 2, 2) - 1e-12)
