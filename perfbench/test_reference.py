"""Tests of the float64 reference forward on inputs worked out by hand.

Run with `python -m pytest perfbench` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref

ROOT = Path(__file__).resolve().parent.parent


def grid(values):
    return np.asarray(values, np.float64)[None, None]


def test_conv_all_ones_kernel_sums_the_padded_window():
    x = grid([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    out = ref.conv2d(x, np.ones((1, 1, 3, 3)), np.array([0.5]))[0, 0]
    # centre: 1+...+9; corner (0,0): 1+2+4+5; edge (0,1): 1+2+3+4+5+6
    assert out[1, 1] == 45.5
    assert out[0, 0] == 12.5
    assert out[0, 1] == 21.5


def test_conv_single_tap_kernel_shifts_the_image():
    x = grid([[1, 2], [3, 4]])
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 0, 0] = 2.0  # reads xpad[y, x] = x[y-1, x-1]
    out = ref.conv2d(x, k)[0, 0]
    assert out.tolist() == [[0, 0], [0, 2]]


def test_conv_stride_two_keeps_every_other_output():
    x = grid(np.arange(16).reshape(4, 4))
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1, 1] = 1.0  # identity tap
    assert ref.conv2d(x, k, stride=2)[0, 0].tolist() == [[0, 2], [8, 10]]


def test_transposed_conv_of_one_pixel_is_the_cropped_kernel():
    # a single input value v scatters v*w into a 4x4 window; stride 2 and
    # padding 1 crop one border, leaving 2x2 = v * w[1:3, 1:3]
    w = np.arange(1, 17, dtype=np.float64).reshape(1, 1, 4, 4)
    out = ref.transposed_conv2d(grid([[2.0]]), w)[0, 0]
    assert out.tolist() == [[12, 14], [20, 22]]


def test_transposed_conv_is_the_adjoint_of_the_strided_conv():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 2, 4, 4))  # conv: 2 -> 3 channels
    x = rng.standard_normal((2, 2, 8, 12))
    y = rng.standard_normal((2, 3, 4, 6))
    lhs = np.sum(ref.conv2d(x, w, stride=2, padding=1) * y)
    # the transposed conv maps 3 -> 2 channels with (in, out, kH, kW) = w
    rhs = np.sum(x * ref.transposed_conv2d(y, w, stride=2, padding=1))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_maxpool_and_leaky_relu():
    x = grid([[1, 3, -1, -4], [2, 0, -2, -3]])
    assert ref.maxpool2d(x)[0, 0].tolist() == [[3, -1]]
    assert ref.leaky_relu(np.array([-2.0, 0.0, 3.0])).tolist() == [-0.2, 0.0, 3.0]


def test_hshift_fills_with_zeros():
    row = np.array([1.0, 2.0, 3.0, 4.0])
    assert ref.hshift(row, 1).tolist() == [2, 3, 4, 0]
    assert ref.hshift(row, -1).tolist() == [0, 1, 2, 3]
    assert ref.hshift(row, 0).tolist() == [1, 2, 3, 4]


def test_warp_rounds_halves_away_from_zero():
    src = np.array([10.0, 20.0, 30.0, 40.0]).reshape(1, 1, 1, 4)
    disp = np.array([0.0, 1.0, 0.5, 2.5]).reshape(1, 1, 4)
    # rounded [0, 1, 1, 3] -> source columns [0, 0, 1, 0]
    assert ref.warp(src, disp)[0, 0, 0].tolist() == [10, 10, 20, 10]
    disp = np.array([-0.5, 1.5, 3.0, -1.0]).reshape(1, 1, 4)
    # rounded [-1, 2, 3, -1] -> columns [1, -1 (outside), -1 (outside), 4 (outside)]
    assert ref.warp(src, disp)[0, 0, 0].tolist() == [20, 0, 0, 0]


def test_resize_nearest_rescales_disparity():
    small = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    up = ref.resize_nearest(small, 4, 4, is_disparity=True)[0]
    assert up.tolist() == [[2, 2, 4, 4], [2, 2, 4, 4], [6, 6, 8, 8], [6, 6, 8, 8]]
    down = ref.resize_nearest(np.arange(16.0).reshape(1, 4, 4), 2, 2)[0]
    assert down.tolist() == [[5, 7], [13, 15]]  # rows/cols 1 and 3


def test_cost_volume_groups_follow_the_displacement_order():
    rng = np.random.default_rng(1)
    left = rng.standard_normal((1, 2, 3, 6))
    right = rng.standard_normal((1, 2, 3, 6))
    w = rng.standard_normal((2, 4, 3, 3))
    b = rng.standard_normal(2)
    vol = ref.cost_volume(left, right, w, b, maxdisp=2)
    assert vol.shape == (1, 2 * 5, 3, 6)
    # group 0 is displacement 0; group 4 is displacement -2 (right shifted)
    g0 = ref.leaky_relu(ref.conv2d(np.concatenate([left, right], 1), w, b))
    g4 = ref.leaky_relu(ref.conv2d(
        np.concatenate([ref.hshift(right, -2), left], 1), w, b))
    assert np.array_equal(vol[:, 0:2], g0)
    assert np.array_equal(vol[:, 8:10], g4)


def test_reference_forward_matches_the_program_on_the_tiny_network():
    sys.path.insert(0, str(ROOT / "src"))
    from shiftconvnet import ShiftConvNet, Tensor, tiny_config
    from shiftconvnet.training import frozen_params

    cfg = tiny_config()
    model = ShiftConvNet(cfg, seed=3).astype(np.float64)
    rng = np.random.default_rng(2)
    left = rng.random((1, 1, 64, 128))
    right = np.roll(left, -2, axis=3)
    with frozen_params(model):
        out = model.forward(Tensor(left), Tensor(right))
    params = {k: t.data for k, t in model.params.items()}
    coarse, small, refined = ref.forward(
        params, left, right, cfg.shift_cfg.maxdisp,
        cfg.shift_cfg.both_directions, cfg.small_map_scale)
    np.testing.assert_allclose(out.coarse_disp.data, coarse, rtol=0, atol=1e-10)
    np.testing.assert_allclose(out.small_disp.data, small, rtol=0, atol=1e-10)
    np.testing.assert_allclose(out.refined_disp.data, refined, rtol=0, atol=1e-10)
