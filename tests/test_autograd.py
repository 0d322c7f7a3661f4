"""Autodiff core against naive references and finite differences."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftconvnet.autograd import (
    ContractViolation,
    Tensor,
    absolute,
    add,
    backward,
    concat_channels,
    conv2d,
    grad_check,
    hslice_pad,
    leaky_relu,
    maxpool2d,
    mul,
    scalar,
    scale,
    sub,
    sum_all,
    transposed_conv2d,
)

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
    # 7x8 inputs keep the plain "stride-padding-k" id; others add "-HxW"
    suffix = "" if hw == (7, 8) else f"-{hw[0]}x{hw[1]}"
    return pytest.param(stride, padding, k, hw, id=f"{stride}-{padding}-{k}{suffix}")


# 1x2 and 2x1 are the extents of the smallest maps (the desk bottleneck)
@pytest.mark.parametrize("stride,padding,k,hw", [
    _conv_case(*case, hw)
    for case in ((1, 0, 1), (1, 0, 3), (1, 1, 3), (1, 2, 5), (2, 1, 3), (2, 0, 4 - 1),
                 (3, 1, 3), (3, 0, 5))
    for hw in ((7, 8), (1, 2), (2, 1))
])
@pytest.mark.parametrize("cin,cout", [(1, 1), (3, 2), (1, 2), (3, 1)])
def test_conv_matches_reference(stride, padding, k, hw, cin, cout):
    x = rand((2, cin, *hw), seed=stride * 10 + padding)
    w = rand((cout, cin, k, k), seed=k)
    b = rand((1, cout, 1, 1), seed=5)
    oh, ow = ((e + 2 * padding - k) // stride + 1 for e in hw)
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
    w = Tensor(rand((2, 2, 3, 3), seed=3))
    b = Tensor(rand((1, 2, 1, 1), seed=4))
    x0 = Tensor(rand((1, 2, 5, 6), seed=5))

    assert grad_check(lambda t: sum_all(conv2d(t, w, b, padding=1)), x0) < GRAD_TOL
    assert grad_check(lambda t: sum_all(conv2d(x0, t, b, padding=1)), w) < GRAD_TOL
    assert grad_check(lambda t: sum_all(conv2d(x0, w, t, padding=1)), b) < GRAD_TOL


def test_conv_strided_grad_check():
    w = Tensor(rand((2, 1, 3, 3), seed=6))
    x0 = Tensor(rand((1, 1, 6, 6), seed=7))
    assert grad_check(lambda t: sum_all(conv2d(t, w, stride=2, padding=1)), x0) < GRAD_TOL
    assert grad_check(lambda t: sum_all(conv2d(x0, t, stride=2, padding=1)), w) < GRAD_TOL


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
    wt = Tensor(rand((2, 2, 4, 4), seed=14))
    b = Tensor(rand((1, 2, 1, 1), seed=15))
    x0 = Tensor(rand((1, 2, 3, 4), seed=16))
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


# ---------------------------------------------------------------------------
# elementwise, reductions, graph behavior
# ---------------------------------------------------------------------------

def test_elementwise_semantics():
    a = Tensor(np.full((1, 1, 1, 2), 3.0))
    b = Tensor(np.full((1, 1, 1, 2), 2.0))
    np.testing.assert_array_equal(add(a, b).data, [[[[5.0, 5.0]]]])
    np.testing.assert_array_equal(sub(a, b).data, [[[[1.0, 1.0]]]])
    np.testing.assert_array_equal(mul(a, b).data, [[[[6.0, 6.0]]]])
    np.testing.assert_array_equal(scale(a, -2.0).data, [[[[-6.0, -6.0]]]])
    assert sum_all(a).item() == 6.0


def test_elementwise_shape_mismatch():
    a, b = Tensor(rand((1, 1, 2, 2))), Tensor(rand((1, 1, 2, 3)))
    for op in (add, sub, mul):
        with pytest.raises(ContractViolation):
            op(a, b)


def test_absolute_derivative_zero_at_zero():
    x = Tensor(np.array([[[[0.0, -2.0, 3.0]]]]), requires_grad=True)
    backward(sum_all(absolute(x)))
    np.testing.assert_array_equal(x.grad, [[[[0.0, -1.0, 1.0]]]])


def test_scalar_helper():
    s = scalar(2.5, dtype=np.float64)
    assert s.shape == (1, 1, 1, 1) and s.item() == 2.5


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


def test_elementwise_grad_checks():
    v = rand((1, 1, 3, 3), seed=28)
    v = np.where(np.abs(v) < 0.1, 0.4, v)
    x0 = Tensor(v)
    c = Tensor(rand((1, 1, 3, 3), seed=29))
    assert grad_check(lambda t: sum_all(mul(t, c)), x0) < GRAD_TOL
    assert grad_check(lambda t: sum_all(mul(t, t)), x0) < GRAD_TOL
    assert grad_check(lambda t: sum_all(scale(sub(t, c), 1.7)), x0) < GRAD_TOL
    assert grad_check(lambda t: sum_all(absolute(t)), x0) < GRAD_TOL


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
