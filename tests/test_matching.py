"""Cost-volume operators: displacement sweeps, correlation, guided warps."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftconvnet.autograd import (
    ContractViolation,
    Tensor,
    backward,
    grad_check,
    hslice_pad,
)
from shiftconvnet.matching import (
    CONCAT_THEN_CONV,
    CONV_THEN_CONCAT,
    ShiftConvConfig,
    auto_shift_conv,
    correlation_1d,
    round_half_away,
    shift_concat,
    shift_conv_layer,
    warp_horizontal,
)
from scalar_ops import mul, sum_all

GRAD_TOL = 1e-4


def rand(shape, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def aligned_pair(c=2, h=4, w=12, d=3, seed=0, dtype=np.float32):
    """left random, right = left shifted left by d.

    Columns [0, w-d) of the right view correspond exactly; beyond that the
    right view holds unrelated content, as a real right camera would."""
    rng = np.random.default_rng(seed)
    left = (np.abs(rng.standard_normal((1, c, h, w))) + 0.1).astype(dtype)
    right = (np.abs(rng.standard_normal((1, c, h, w))) + 0.1).astype(dtype)
    right[..., : w - d] = left[..., d:]
    return left, right


def corr_ref(left, right, maxdisp):
    # independent loop implementation of the displacement dot products
    n, c, h, w = left.shape
    out = np.zeros((n, maxdisp + 1, h, w))
    for ni in range(n):
        for d in range(maxdisp + 1):
            for y in range(h):
                for x in range(w):
                    if x - d >= 0:
                        out[ni, d, y, x] = (
                            left[ni, :, y, x] * right[ni, :, y, x - d]
                        ).mean()
    return out


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_scale_order_is_stable():
    cfg = ShiftConvConfig(maxdisp=3, clue_filters=2)
    assert cfg.scales() == [0, 1, 2, 3, -1, -2, -3]
    assert cfg.scales() == cfg.scales()
    assert cfg.num_scales == 7
    one_way = ShiftConvConfig(maxdisp=3, clue_filters=2, both_directions=False)
    assert one_way.scales() == [0, 1, 2, 3]
    assert one_way.num_scales == 4


def test_output_channels_same_for_both_variants():
    for variant in (CONV_THEN_CONCAT, CONCAT_THEN_CONV):
        cfg = ShiftConvConfig(maxdisp=2, clue_filters=4, variant=variant)
        assert cfg.output_channels() == 4 * 5


def test_weight_shapes_differ_by_variant():
    shared = ShiftConvConfig(maxdisp=2, clue_filters=4)
    assert shared.weight_shape(8) == (4, 16, 3, 3)
    wide = ShiftConvConfig(maxdisp=2, clue_filters=4, variant=CONCAT_THEN_CONV)
    assert wide.weight_shape(8) == (20, 80, 3, 3)


def test_config_validation():
    with pytest.raises(ContractViolation):
        ShiftConvConfig(maxdisp=0)
    with pytest.raises(ContractViolation):
        ShiftConvConfig(clue_filters=0)
    with pytest.raises(ContractViolation):
        ShiftConvConfig(variant="bogus")


# ---------------------------------------------------------------------------
# shift_concat
# ---------------------------------------------------------------------------

def test_shift_concat_shape():
    left, right = aligned_pair()
    out = shift_concat(Tensor(left), Tensor(right), 2)
    assert out.shape == (1, 4, 4, 12)


def test_shift_concat_alignment_equality():
    # at the true displacement the two halves agree on every non-padded column
    c, w, d = 2, 12, 3
    left, right = aligned_pair(c=c, w=w, d=d)
    out = shift_concat(Tensor(left), Tensor(right), d).data
    np.testing.assert_array_equal(out[:, :c, :, : w - d], out[:, c:, :, : w - d])
    assert not np.array_equal(out[:, :c], out[:, c:])  # pad columns differ


def test_shift_concat_negative_displacement_layout():
    left = Tensor(rand((1, 1, 2, 5), seed=1, dtype=np.float32))
    right = Tensor(rand((1, 1, 2, 5), seed=2, dtype=np.float32))
    out = shift_concat(left, right, -2).data
    np.testing.assert_array_equal(out[:, :1], hslice_pad(right, -2).data)
    np.testing.assert_array_equal(out[:, 1:], left.data)


def test_shift_concat_displacement_zero_is_plain_concat():
    left, right = aligned_pair()
    out = shift_concat(Tensor(left), Tensor(right), 0).data
    np.testing.assert_array_equal(out[:, :2], left)
    np.testing.assert_array_equal(out[:, 2:], right)


def test_shift_concat_bounds_and_mismatch():
    left, right = aligned_pair(w=6)
    with pytest.raises(ContractViolation):
        shift_concat(Tensor(left), Tensor(right), 6)
    with pytest.raises(ContractViolation):
        shift_concat(Tensor(left), Tensor(rand((1, 2, 4, 8))), 1)


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31 - 1))
def test_shift_concat_alignment_property(d, seed):
    left, right = aligned_pair(c=1, h=3, w=8, d=d, seed=seed)
    out = shift_concat(Tensor(left), Tensor(right), d).data
    np.testing.assert_array_equal(out[:, :1, :, : 8 - d], out[:, 1:, :, : 8 - d])


# ---------------------------------------------------------------------------
# shift_conv_layer and the zero-group oracle
# ---------------------------------------------------------------------------

def difference_detector_shared(c):
    """(C, 2C, 3, 3) center-tap weights computing first-half minus second-half."""
    w = np.zeros((c, 2 * c, 3, 3), dtype=np.float32)
    for f in range(c):
        w[f, f, 1, 1] = 1.0
        w[f, c + f, 1, 1] = -1.0
    return w


def difference_detector_blocked(c, num_scales):
    """Block-diagonal version for the wide variant; group k only reads the
    channels of shift k, so the per-scale behavior matches the shared one."""
    f = c
    w = np.zeros((f * num_scales, 2 * c * num_scales, 3, 3), dtype=np.float32)
    for k in range(num_scales):
        w[k * f : (k + 1) * f, k * 2 * c : (k + 1) * 2 * c] = (
            difference_detector_shared(c)
        )
    return w


def group_slices(cfg):
    f = cfg.clue_filters
    return {d: slice(k * f, (k + 1) * f) for k, d in enumerate(cfg.scales())}


def nonpad_columns(d, w):
    return slice(0, w - d) if d >= 0 else slice(-d, w)


@pytest.mark.parametrize("variant", [CONV_THEN_CONCAT, CONCAT_THEN_CONV])
def test_zero_group_oracle_single_direction(variant):
    c, w, d_true = 2, 16, 3
    left, right = aligned_pair(c=c, w=w, d=d_true, seed=5)
    cfg = ShiftConvConfig(maxdisp=5, clue_filters=c, variant=variant,
                          both_directions=False)
    if variant == CONV_THEN_CONCAT:
        weights = difference_detector_shared(c)
    else:
        weights = difference_detector_blocked(c, cfg.num_scales)
    out = shift_conv_layer(Tensor(left), Tensor(right), cfg, Tensor(weights)).data

    for d, sl in group_slices(cfg).items():
        group = out[:, sl]
        valid = group[..., nonpad_columns(d, w)]
        if d == d_true:
            assert np.all(valid == 0.0), f"scale {d} should vanish"
        else:
            assert np.abs(valid).max() > 1e-6, f"scale {d} should respond"


@pytest.mark.parametrize("variant", [CONV_THEN_CONCAT, CONCAT_THEN_CONV])
def test_zero_group_oracle_both_directions(variant):
    # with the mirrored sweep, +d* and -d* describe the same physical
    # hypothesis (frames swapped), so both groups vanish on their own
    # non-padded columns; everything else responds
    c, w, d_true = 2, 16, 3
    left, right = aligned_pair(c=c, w=w, d=d_true, seed=6)
    cfg = ShiftConvConfig(maxdisp=5, clue_filters=c, variant=variant,
                          both_directions=True)
    if variant == CONV_THEN_CONCAT:
        weights = difference_detector_shared(c)
    else:
        weights = difference_detector_blocked(c, cfg.num_scales)
    out = shift_conv_layer(Tensor(left), Tensor(right), cfg, Tensor(weights)).data

    for d, sl in group_slices(cfg).items():
        valid = out[:, sl][..., nonpad_columns(d, w)]
        if d == d_true:
            assert np.all(valid == 0.0)
        elif d == -d_true:
            # zero only where the zero-filled right view actually holds
            # shifted left content, i.e. w-d* onward is itself zero padding
            inner = out[:, sl][..., d_true : w - d_true]
            assert np.all(inner == 0.0)
        else:
            assert np.abs(valid).max() > 1e-6, f"scale {d} should respond"


def test_shift_conv_layer_output_layout():
    left, right = aligned_pair(c=3, w=10, d=2)
    for variant in (CONV_THEN_CONCAT, CONCAT_THEN_CONV):
        cfg = ShiftConvConfig(maxdisp=2, clue_filters=4, variant=variant)
        w = Tensor(rand(cfg.weight_shape(3), seed=7, dtype=np.float32))
        out = shift_conv_layer(Tensor(left), Tensor(right), cfg, w)
        assert out.shape == (1, 20, 4, 10)


def test_shift_conv_layer_weight_shape_enforced():
    left, right = aligned_pair()
    cfg = ShiftConvConfig(maxdisp=2, clue_filters=4)
    with pytest.raises(ContractViolation, match="shape"):
        shift_conv_layer(Tensor(left), Tensor(right), cfg,
                         Tensor(rand((4, 5, 3, 3))))


def test_shift_conv_layer_maxdisp_vs_width():
    left, right = aligned_pair(w=6)
    cfg = ShiftConvConfig(maxdisp=6, clue_filters=1)
    with pytest.raises(ContractViolation, match="width"):
        shift_conv_layer(Tensor(left), Tensor(right), cfg,
                         Tensor(rand(cfg.weight_shape(2))))


@pytest.mark.parametrize("variant", [CONV_THEN_CONCAT, CONCAT_THEN_CONV])
def test_shift_conv_layer_grad_check(variant):
    cfg = ShiftConvConfig(maxdisp=1, clue_filters=2, variant=variant)
    left = Tensor(rand((1, 2, 3, 5), seed=8))
    right = Tensor(rand((1, 2, 3, 5), seed=9))
    w0 = Tensor(rand(cfg.weight_shape(2), seed=10) * 0.5)
    b0 = Tensor(rand((1, w0.shape[0], 1, 1), seed=11) * 0.5)

    assert grad_check(lambda t: sum_all(
        shift_conv_layer(t, right, cfg, w0, b0)), left) < GRAD_TOL
    assert grad_check(lambda t: sum_all(
        shift_conv_layer(left, t, cfg, w0, b0)), right) < GRAD_TOL
    assert grad_check(lambda t: sum_all(
        shift_conv_layer(left, right, cfg, t, b0)), w0) < GRAD_TOL


@pytest.mark.parametrize("variant", [CONV_THEN_CONCAT, CONCAT_THEN_CONV])
def test_shift_conv_layer_graph_keeps_two_extended_maps(variant):
    # the convs' saved operands are views of one zero-extended copy of each
    # map, not one shifted copy per displacement (9 copies of 131 kB here)
    cfg = ShiftConvConfig(maxdisp=4, clue_filters=2, variant=variant)
    n, c, h, w = 1, 8, 32, 64
    left, right = (Tensor(rand((n, c, h, w), seed=s), requires_grad=True)
                   for s in (12, 13))
    wt = Tensor(rand(cfg.weight_shape(c), seed=14), requires_grad=True)
    b = Tensor(rand((1, wt.shape[0], 1, 1), seed=15), requires_grad=True)
    shift_conv_layer(left, right, cfg, wt, b)  # numpy's first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = shift_conv_layer(left, right, cfg, wt, b)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    s = cfg.num_scales
    output = (out.data if out.data.base is None else out.data.base).nbytes
    bits = n * cfg.clue_filters * s * h * -(-(w + 2) // 8)  # padded-width rows
    extended = 2 * n * c * h * (w + cfg.maxdisp) * out.data.itemsize
    records = 2048 * (2 * s + 1)  # views, convs and the concatenation
    assert kept <= output + bits + extended + records
    assert records < n * c * h * w * out.data.itemsize


# ---------------------------------------------------------------------------
# correlation_1d
# ---------------------------------------------------------------------------

def test_correlation_matches_loop_reference():
    left = rand((2, 3, 4, 9), seed=12)
    right = rand((2, 3, 4, 9), seed=13)
    got = correlation_1d(Tensor(left), Tensor(right), maxdisp=4).data
    np.testing.assert_allclose(got, corr_ref(left, right, 4), rtol=1e-10,
                               atol=1e-12)


def test_correlation_identity_on_aligned_pair():
    c, w, d_true = 3, 16, 4
    left, right = aligned_pair(c=c, w=w, d=d_true, seed=14)
    out = correlation_1d(Tensor(left), Tensor(right), maxdisp=6).data
    want = (left.astype(np.float64) ** 2).mean(axis=1)
    np.testing.assert_allclose(out[:, d_true, :, d_true:],
                               want[:, :, d_true:], rtol=1e-6)
    # out-of-range gathers are zero-filled
    assert np.all(out[:, d_true, :, :d_true] == 0.0)


def test_correlation_channel_zero_is_pointwise_product():
    left = rand((1, 2, 3, 5), seed=15)
    right = rand((1, 2, 3, 5), seed=16)
    out = correlation_1d(Tensor(left), Tensor(right), maxdisp=2).data
    np.testing.assert_allclose(out[:, 0], (left * right).mean(axis=1),
                               rtol=1e-12)


def test_correlation_channel_count_and_bounds():
    left, right = aligned_pair(w=8)
    assert correlation_1d(Tensor(left), Tensor(right), 5).shape[1] == 6
    with pytest.raises(ContractViolation):
        correlation_1d(Tensor(left), Tensor(right), 8)


def test_correlation_grad_check():
    left = Tensor(rand((1, 2, 3, 6), seed=17))
    right = Tensor(rand((1, 2, 3, 6), seed=18))
    assert grad_check(lambda t: sum_all(correlation_1d(t, right, 2)), left) < GRAD_TOL
    assert grad_check(lambda t: sum_all(correlation_1d(left, t, 2)), right) < GRAD_TOL


# ---------------------------------------------------------------------------
# rounding and warping
# ---------------------------------------------------------------------------

def test_round_half_away_from_zero():
    vals = np.array([0.5, -0.5, 1.5, -1.5, 2.5, 2.4, -2.4, 0.0])
    want = np.array([1.0, -1.0, 2.0, -2.0, 3.0, 2.0, -2.0, 0.0])
    np.testing.assert_array_equal(round_half_away(vals), want)
    # np.rint would give 2.0 at 2.5 (ties to even); the contract says away
    assert round_half_away(np.array([2.5]))[0] == 3.0


def test_warp_integer_disparity_gathers():
    src = np.arange(6, dtype=np.float32).reshape(1, 1, 1, 6) + 1
    out = warp_horizontal(Tensor(src), np.full((1, 1, 6), 2.0)).data
    np.testing.assert_array_equal(out, [[[[0, 0, 1, 2, 3, 4]]]])
    out = warp_horizontal(Tensor(src), np.full((1, 1, 6), -1.0)).data
    np.testing.assert_array_equal(out, [[[[2, 3, 4, 5, 6, 0]]]])


def test_warp_rounds_half_away():
    src = np.arange(4, dtype=np.float32).reshape(1, 1, 1, 4) + 1
    out = warp_horizontal(Tensor(src), np.full((1, 1, 4), 0.5)).data
    np.testing.assert_array_equal(out, [[[[0, 1, 2, 3]]]])  # shift by 1
    out = warp_horizontal(Tensor(src), np.full((1, 1, 4), 0.4)).data
    np.testing.assert_array_equal(out, src)  # rounds to 0


def test_warp_accepts_hw_disparity_broadcast():
    src = rand((2, 3, 2, 5), seed=19, dtype=np.float32)
    disp = np.ones((2, 5), dtype=np.float32)
    out = warp_horizontal(Tensor(src), disp).data
    assert out.shape == src.shape
    np.testing.assert_array_equal(out[..., 1:], src[..., :-1])
    assert np.all(out[..., 0] == 0)


def test_warp_gradient_accumulates_on_shared_source():
    src = Tensor(np.array([[[[2.0, 7.0]]]]), requires_grad=True)
    disp = np.array([[[0.0, 1.0]]])  # both outputs read source column 0
    out = warp_horizontal(src, disp)
    np.testing.assert_array_equal(out.data, [[[[2.0, 2.0]]]])
    backward(sum_all(out))
    np.testing.assert_array_equal(src.grad, [[[[2.0, 0.0]]]])


def test_warp_grad_check_in_source():
    disp = np.round(rand((1, 3, 6), seed=20) * 2)  # integer field, stable rounding
    src0 = Tensor(rand((1, 2, 3, 6), seed=21))
    assert grad_check(lambda t: sum_all(mul(warp_horizontal(t, disp),
                                            warp_horizontal(t, disp))),
                      src0) < GRAD_TOL


def test_warp_rejects_bad_disparity_shape():
    src = Tensor(rand((1, 1, 3, 4)))
    with pytest.raises(ContractViolation):
        warp_horizontal(src, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# auto_shift_conv
# ---------------------------------------------------------------------------

def test_auto_shift_conv_output_channels_equal_filter_count():
    left = Tensor(rand((1, 1, 4, 8), seed=22, dtype=np.float32))
    right = Tensor(rand((1, 1, 4, 8), seed=23, dtype=np.float32))
    w = Tensor(rand((8, 2, 3, 3), seed=24, dtype=np.float32))
    out = auto_shift_conv(left, right, np.zeros((4, 8)), w)
    assert out.shape == (1, 8, 4, 8)


def test_auto_shift_conv_is_sum_of_single_delta_branches():
    left = Tensor(rand((1, 1, 4, 8), seed=25, dtype=np.float32))
    right = Tensor(rand((1, 1, 4, 8), seed=26, dtype=np.float32))
    w = Tensor(rand((4, 2, 3, 3), seed=27, dtype=np.float32))
    b = Tensor(rand((1, 4, 1, 1), seed=28, dtype=np.float32))
    base = np.round(rand((4, 8), seed=29) * 2).astype(np.float32)

    swept = auto_shift_conv(left, right, base, w, b, delta_range=2).data
    total = None
    for delta in range(-2, 3):
        branch = auto_shift_conv(left, right, base + delta, w, b,
                                 delta_range=0).data
        total = branch if total is None else total + branch
    np.testing.assert_array_equal(swept, total)


def test_auto_shift_conv_sums_its_branches_in_one_node():
    left = Tensor(rand((1, 1, 4, 8), seed=25, dtype=np.float32))
    right = Tensor(rand((1, 1, 4, 8), seed=26, dtype=np.float32))
    base = np.round(rand((4, 8), seed=29) * 2).astype(np.float32)
    outs = []
    for tracked in (False, True):
        w = Tensor(rand((4, 2, 3, 3), seed=27, dtype=np.float32), requires_grad=tracked)
        outs.append(auto_shift_conv(left, right, base, w, delta_range=2))
    # one node over all five branches, summed in delta order with or
    # without a graph, so every bit is the same
    assert outs[0]._parents == () and len(outs[1]._parents) == 5
    assert outs[0].data.tobytes() == outs[1].data.tobytes()


def test_auto_shift_conv_weight_channels_checked():
    left = Tensor(rand((1, 3, 4, 8)))
    right = Tensor(rand((1, 3, 4, 8)))
    with pytest.raises(ContractViolation, match="input channels"):
        auto_shift_conv(left, right, np.zeros((4, 8)),
                        Tensor(rand((4, 4, 3, 3))))


def test_auto_shift_conv_grad_check():
    left = Tensor(rand((1, 1, 3, 6), seed=30))
    right = Tensor(rand((1, 1, 3, 6), seed=31))
    w0 = Tensor(rand((2, 2, 3, 3), seed=32) * 0.5)
    base = np.round(rand((3, 6), seed=33) * 2)

    assert grad_check(lambda t: sum_all(
        auto_shift_conv(left, right, base, t, delta_range=1)), w0) < GRAD_TOL
    assert grad_check(lambda t: sum_all(
        auto_shift_conv(t, right, base, w0, delta_range=1)), left) < GRAD_TOL
    assert grad_check(lambda t: sum_all(
        auto_shift_conv(left, t, base, w0, delta_range=1)), right) < GRAD_TOL
