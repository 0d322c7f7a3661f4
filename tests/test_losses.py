"""Loss terms and disparity metrics, checked against hand-worked values."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftconvnet.autograd import (
    ContractViolation,
    Tensor,
    backward,
    grad_check,
    record_of,
)
from shiftconvnet.losses import (
    LossConfig,
    d1_rate,
    epe,
    loss1,
    loss2,
    smooth_l1,
    valid_mask,
    weight_decay,
)
from scalar_ops import mul, sum_all

GRAD_TOL = 1e-4


def t4(values, dtype=np.float32, requires_grad=False):
    arr = np.asarray(values, dtype=dtype)
    while arr.ndim < 4:
        arr = arr[None]
    return Tensor(arr, requires_grad=requires_grad)


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


# ---------------------------------------------------------------------------
# smooth L1
# ---------------------------------------------------------------------------

def test_smooth_l1_exact_values():
    x = t4([0.0, 0.5, 1.0, 2.0, -0.5, -1.0, -2.0])
    got = smooth_l1(x).data.ravel()
    np.testing.assert_array_equal(
        got, np.float32([0.0, 0.125, 0.5, 1.5, 0.125, 0.5, 1.5])
    )


def test_smooth_l1_c1_at_region_boundary():
    eps = 1e-7
    for s in (1.0, -1.0):
        lo = t4([s * (1 - eps)], dtype=np.float64, requires_grad=True)
        hi = t4([s * (1 + eps)], dtype=np.float64, requires_grad=True)
        f_lo, f_hi = smooth_l1(lo), smooth_l1(hi)
        assert abs(f_hi.item() - f_lo.item()) < 1e-6
        backward(sum_all(f_lo))
        backward(sum_all(f_hi))
        assert abs(hi.grad.item() - lo.grad.item()) < 1e-6


def test_smooth_l1_derivative_form():
    x = t4([0.25, -0.75, 3.0, -5.0], dtype=np.float64, requires_grad=True)
    backward(sum_all(smooth_l1(x)))
    np.testing.assert_array_equal(x.grad.ravel(), [0.25, -0.75, 1.0, -1.0])


def test_smooth_l1_grad_check_off_kinks():
    x = Tensor(np.float64([[[[0.3, -0.6, 1.7, -2.2, 0.05, 4.0]]]]))
    assert grad_check(lambda t: sum_all(smooth_l1(t)), x) < GRAD_TOL


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_smooth_l1_even_and_bounded_by_abs(v):
    f = smooth_l1(t4([v], dtype=np.float64)).item()
    g = smooth_l1(t4([-v], dtype=np.float64)).item()
    assert f == g
    assert 0.0 <= f <= abs(v) + 1e-12


# ---------------------------------------------------------------------------
# validity masking
# ---------------------------------------------------------------------------

def test_valid_mask_semantics():
    gt = np.array([0.0, 1.5, -0.1, np.nan, np.inf, -np.inf])
    np.testing.assert_array_equal(
        valid_mask(gt), [True, True, False, False, False, False]
    )


# ---------------------------------------------------------------------------
# stage losses against hand-worked numbers
# ---------------------------------------------------------------------------

def test_loss1_hand_value():
    pred = t4([[1.0, 2.0], [3.0, 4.0]])
    gt = np.array([[1.0, 3.0], [np.nan, 8.0]])
    w = t4([1.0, 2.0]).data.reshape(2, 1, 1, 1)
    cfg = LossConfig(alpha1=0.5)
    # errors over valid pixels: 0, -1, -4 -> smooth-L1 0, 0.5, 3.5; mean 4/3
    # decay: 0.5 * (1 + 4) = 2.5
    got = loss1(pred, gt, [Tensor(w)], cfg).item()
    assert got == pytest.approx(4.0 / 3.0 + 2.5, rel=1e-6)


def test_loss1_without_decay_ignores_weights():
    pred = t4([[1.0, 2.0]])
    gt = np.array([[0.0, 0.0]])
    cfg = LossConfig(alpha1=0.0)
    got = loss1(pred, gt, [], cfg).item()
    assert got == pytest.approx((0.5 + 1.5) / 2, rel=1e-6)


def test_loss1_gradient_is_masked_mean_derivative():
    pred = t4([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    gt = np.array([[1.0, 3.0], [np.nan, 8.0]])
    backward(loss1(pred, gt, [], LossConfig(alpha1=0.0)))
    # d/dx smooth-L1 at errors (0, -1, masked, -4) is (0, -1, 0, -1) / 3
    np.testing.assert_allclose(
        pred.grad.ravel(), [0.0, -1 / 3, 0.0, -1 / 3], rtol=1e-6
    )


def test_loss1_decay_gradient():
    pred = t4([[0.0]])
    w = Tensor(np.float32([3.0]).reshape(1, 1, 1, 1), requires_grad=True)
    backward(loss1(pred, np.zeros((1, 1)), [w], LossConfig(alpha1=0.25)))
    assert w.grad.item() == pytest.approx(2 * 0.25 * 3.0, rel=1e-6)


def test_loss2_hand_value():
    p_f = t4([[2.0, 0.0]])
    gt = np.array([[1.0, -1.0]])          # second pixel invalid
    p_s = t4([[1.0, 3.0]])
    gt_s = np.array([[0.0, 1.0]])
    w = Tensor(np.float32([2.0]).reshape(1, 1, 1, 1))
    cfg = LossConfig(alpha1=1e-4, alpha2=0.5, beta2=0.1)
    # final: smooth-L1(1) = 0.5; small: mean(|1|, |2|) = 1.5; decay: 4
    got = loss2(p_f, gt, p_s, gt_s, [w], cfg).item()
    assert got == pytest.approx(0.5 + 0.5 * 1.5 + 0.1 * 4.0, rel=1e-6)


def test_loss2_small_term_uses_manhattan_distance():
    p_f = t4([[0.0]])
    gt = np.array([[0.0]])
    p_s = t4([[4.0]])
    gt_s = np.array([[1.0]])
    got = loss2(p_f, gt, p_s, gt_s, [], LossConfig(alpha2=1.0, beta2=0.0)).item()
    assert got == pytest.approx(3.0, rel=1e-6)  # |3|, not smooth-L1(3) = 2.5


def test_loss_gt_layouts_are_equivalent():
    pred = t4(rand((2, 1, 3, 4), seed=1).astype(np.float32))
    gt3 = np.abs(rand((2, 3, 4), seed=2)).astype(np.float32)
    cfg = LossConfig(alpha1=0.0)
    a = loss1(pred, gt3, [], cfg).item()
    b = loss1(pred, gt3[:, None], [], cfg).item()
    assert a == b


def test_loss_gt_broadcasts_single_sample():
    pred = t4(np.ones((3, 1, 2, 2), dtype=np.float32))
    gt = np.zeros((2, 2))
    got = loss1(pred, gt, [], LossConfig(alpha1=0.0)).item()
    assert got == pytest.approx(0.5, rel=1e-6)


def test_loss_rejects_all_invalid_gt():
    pred = t4([[1.0, 2.0]])
    with pytest.raises(ContractViolation, match="zero valid"):
        loss1(pred, np.full((1, 2), np.nan), [], LossConfig())


def test_loss_rejects_shape_mismatch():
    pred = t4([[1.0, 2.0]])
    with pytest.raises(ContractViolation, match="mismatch"):
        loss1(pred, np.zeros((3, 3)), [], LossConfig())


def test_weight_decay_is_sum_of_squares():
    ws = [t4([1.0, 2.0]), t4([[3.0]])]
    assert weight_decay(ws).item() == pytest.approx(14.0)
    assert weight_decay([]).item() == 0.0


def test_loss1_grad_check():
    rng = np.random.default_rng(3)
    pred0 = rng.standard_normal((1, 1, 3, 4))
    # keep errors off the |x| = 1 kink and include an invalid pixel
    err = rng.uniform(-0.8, 0.8, size=(1, 1, 3, 4))
    err[0, 0, 0, 0] = 2.0
    gt = pred0 - err
    gt[0, 0, 1, 1] = np.nan
    w0 = Tensor(rng.standard_normal((2, 2, 1, 1)))
    cfg = LossConfig(alpha1=0.3)
    assert grad_check(lambda p: loss1(p, gt, [w0], cfg), Tensor(pred0)) < GRAD_TOL
    assert grad_check(lambda w: loss1(Tensor(pred0), gt, [w], cfg), w0) < GRAD_TOL


def test_loss2_grad_check():
    rng = np.random.default_rng(4)
    p_f0 = rng.standard_normal((1, 1, 2, 3))
    gt = p_f0 - rng.uniform(0.1, 0.8, size=(1, 1, 2, 3))
    p_s0 = rng.standard_normal((1, 1, 1, 2))
    gt_s = p_s0 - rng.uniform(0.2, 0.9, size=(1, 1, 1, 2))
    w0 = Tensor(rng.standard_normal((1, 2, 1, 1)))
    cfg = LossConfig(alpha2=0.5, beta2=0.2)
    assert grad_check(
        lambda p: loss2(p, gt, Tensor(p_s0), gt_s, [w0], cfg), Tensor(p_f0)
    ) < GRAD_TOL
    assert grad_check(
        lambda p: loss2(Tensor(p_f0), gt, p, gt_s, [w0], cfg), Tensor(p_s0)
    ) < GRAD_TOL


def test_loss2_small_term_derivative_is_zero_at_zero_error():
    p_s = t4([[1.0, 2.0, 3.0]], dtype=np.float64, requires_grad=True)
    gt_s = np.array([[1.0, 1.0, 5.0]])
    backward(loss2(t4([[0.0]], dtype=np.float64), np.zeros((1, 1)), p_s, gt_s,
                   [], LossConfig(alpha2=1.0, beta2=0.0)))
    # d|x|/dx at x = 0 is 0
    np.testing.assert_array_equal(p_s.grad.ravel(), [0.0, 1 / 3, -1 / 3])


def _composed_term(pred, gt, kernel_is_abs):
    """One masked-mean term built from smooth_l1, mul, sum_all and numpy:
    (masked sum, d(masked sum)/d pred, 1/count)."""
    dt = pred.dtype
    arr = np.asarray(gt, dtype=dt)[:, None]
    valid = np.isfinite(arr) & (arr >= 0)
    err = pred.data - np.where(valid, arr, 0)
    mask = Tensor(valid.astype(dt))
    if kernel_is_abs:
        total = sum_all(mul(Tensor(np.abs(err)), mask)).data.reshape(())
        grad = np.sign(err) * mask.data
    else:
        d = Tensor(err, requires_grad=True)
        out = sum_all(mul(smooth_l1(d), mask))
        backward(out)
        total, grad = out.data.reshape(()), d.grad
    return total, grad, dt.type(1.0 / int(valid.sum()))


def _composed_decay(weights):
    return sum(sum_all(mul(w, w)).data.reshape(()) for w in weights)


def _ids(tensors):
    return [id(t) for t in tensors]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stage_losses_are_one_node_equal_to_the_composed_loss(dtype):
    rng = np.random.default_rng(5)
    p = Tensor(rng.uniform(0, 4, (2, 1, 3, 4)).astype(dtype), requires_grad=True)
    gt = rng.uniform(0, 4, (2, 3, 4))
    gt[1, 2, 0] = np.nan  # invalid pixel
    p_s = Tensor(rng.uniform(0, 2, (2, 1, 2, 2)).astype(dtype), requires_grad=True)
    gt_s = rng.uniform(0, 2, (2, 2, 2))
    gt_s[0, 1, 1] = -1.0  # invalid pixel
    ws = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
          for s in ((3, 1, 3, 3), (1, 3, 1, 1))]
    cfg = LossConfig(alpha1=0.3, alpha2=0.7, beta2=0.2)
    a1, a2, b2 = (dtype(v) for v in (cfg.alpha1, cfg.alpha2, cfg.beta2))
    sf, gf, inv_f = _composed_term(p, gt, False)
    ss, gs, inv_s = _composed_term(p_s, gt_s, True)
    decay = _composed_decay(ws)

    out = loss1(p, gt, ws, cfg)
    assert _ids(out._parents) == _ids(map(record_of, [p] + ws))
    assert out.data.reshape(()) == sf * inv_f + decay * a1
    backward(out)
    np.testing.assert_array_equal(p.grad, gf * inv_f)
    for w in ws:
        np.testing.assert_array_equal(w.grad, (2 * a1) * w.data)
    assert _ids(loss1(p, gt, ws, LossConfig(alpha1=0.0))._parents) == _ids([record_of(p)])

    p.zero_grad()
    out = loss2(p, gt, p_s, gt_s, ws, cfg)
    assert _ids(out._parents) == _ids(map(record_of, [p, p_s] + ws))
    assert out.data.reshape(()) == sf * inv_f + ss * inv_s * a2 + decay * b2
    backward(out)
    np.testing.assert_array_equal(p.grad, gf * inv_f)
    np.testing.assert_array_equal(p_s.grad, gs * (a2 * inv_s))


def test_loss_dtype_mismatch_is_rejected():
    pred = t4([[1.0]])  # float32
    w = Tensor(np.float64([[[[1.0]]]]))
    with pytest.raises(ContractViolation, match="dtype"):
        loss1(pred, np.zeros((1, 1)), [w], LossConfig(alpha1=0.1))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_epe_fixed_error_set():
    pred = np.array([[0.0, 1.0], [2.0, 5.0]])
    gt = np.zeros((2, 2))
    assert epe(pred, gt) == 2.0


def test_d1_fixed_error_set():
    pred = np.array([[0.0, 2.0], [4.0, 5.0]])
    gt = np.zeros((2, 2))
    assert d1_rate(pred, gt) == 0.5


def test_d1_threshold_is_strict():
    assert d1_rate(np.array([3.0, 0.0]), np.zeros(2)) == 0.0
    assert d1_rate(np.array([3.0 + 1e-9, 0.0]), np.zeros(2)) == 0.5
    assert d1_rate(np.array([2.0, 0.0]), np.zeros(2), threshold=1.5) == 0.5
    # a non-finite prediction is never within the threshold
    assert d1_rate(np.array([np.nan, np.inf, -np.inf, 0.0]), np.zeros(4)) == 0.75


def test_metrics_mask_invalid_gt_by_default():
    pred = np.array([1.0, 100.0, 7.0])
    gt = np.array([0.0, np.nan, -2.0])
    assert epe(pred, gt) == 1.0


def test_metrics_accept_explicit_mask():
    pred = np.array([1.0, 5.0])
    gt = np.zeros(2)
    assert epe(pred, gt, mask=np.array([True, False])) == 1.0
    with pytest.raises(ContractViolation, match="zero pixels"):
        epe(pred, gt, mask=np.zeros(2, dtype=bool))


def test_metrics_reject_shape_mismatch():
    with pytest.raises(ContractViolation):
        epe(np.zeros(3), np.zeros(4))
    with pytest.raises(ContractViolation):
        epe(np.zeros(3), np.zeros(3), mask=np.ones(4, dtype=bool))


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=8),
    st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=8),
)
def test_metric_ranges(pred_vals, gt_vals):
    n = min(len(pred_vals), len(gt_vals))
    pred = np.array(pred_vals[:n])
    gt = np.array(gt_vals[:n])
    assert epe(pred, gt) >= 0.0
    assert 0.0 <= d1_rate(pred, gt) <= 1.0
    full = np.ones(n, dtype=bool)
    assert epe(pred, gt, mask=full) == epe(gt, pred, mask=full)


def test_loss_config_validation():
    with pytest.raises(ContractViolation):
        LossConfig(alpha1=-1e-9)
    with pytest.raises(ContractViolation):
        LossConfig(alpha2=-0.5)
