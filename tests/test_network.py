"""End-to-end network structure: shapes, branch isolation, and wiring."""

import numpy as np
import pytest

from shiftconvnet.autograd import (
    ContractViolation,
    Tensor,
    add,
    backward,
    grad_check,
    mul,
    sum_all,
)
from shiftconvnet.matching import CONCAT_THEN_CONV, ShiftConvConfig
from shiftconvnet.network import (
    CORRELATION,
    SHIFT_CONV,
    NetworkConfig,
    ShiftConvNet,
    config_from_scalars,
    config_to_scalars,
    desk_config,
    tiny_config,
)


def image(shape, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0, 1, size=shape).astype(dtype))


def squared_total(out):
    total = sum_all(mul(out.coarse_disp, out.coarse_disp))
    total = add(total, sum_all(mul(out.small_disp, out.small_disp)))
    if out.refined_disp is not None:
        total = add(total, sum_all(mul(out.refined_disp, out.refined_disp)))
    return total


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_small_block_index_table():
    for scale, block in {1: 6, 2: 5, 4: 4, 8: 3, 16: 2, 32: 1}.items():
        assert desk_config(small_map_scale=scale).small_block_index() == block


def test_cost_volume_channels():
    cfg = desk_config()  # maxdisp 8 both directions, 8 clue filters
    assert cfg.cost_volume_channels() == 8 * 17
    assert desk_config(cost_volume=CORRELATION).cost_volume_channels() == 9


def test_config_validation():
    with pytest.raises(ContractViolation):
        desk_config(image_channels=2)
    with pytest.raises(ContractViolation):
        desk_config(feat_channels=(8, 8, 16))
    with pytest.raises(ContractViolation):
        desk_config(decode_channels=(1, 2, 3))
    with pytest.raises(ContractViolation):
        desk_config(encode_channels=(32, 0, 32, 32))
    with pytest.raises(ContractViolation):
        desk_config(cost_volume="census")
    with pytest.raises(ContractViolation):
        desk_config(small_map_scale=3)
    with pytest.raises(ContractViolation):
        desk_config(small_map_scale=64)


@pytest.mark.parametrize("cfg", [
    desk_config(),
    tiny_config(),
    desk_config(cost_volume=CORRELATION, refine_enabled=False),
    desk_config(image_channels=3, small_map_scale=8),
    desk_config(shift_cfg=ShiftConvConfig(maxdisp=4, clue_filters=2,
                                          variant=CONCAT_THEN_CONV,
                                          both_directions=False)),
])
def test_config_scalar_round_trip(cfg):
    assert config_from_scalars(config_to_scalars(cfg)) == cfg


def test_config_from_scalars_rejects_missing_keys():
    scalars = config_to_scalars(desk_config())
    del scalars["maxdisp"]
    with pytest.raises(ContractViolation, match="maxdisp"):
        config_from_scalars(scalars)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_deterministic_in_seed():
    a = ShiftConvNet(desk_config(), seed=0)
    b = ShiftConvNet(desk_config(), seed=0)
    c = ShiftConvNet(desk_config(), seed=1)
    assert sorted(a.params) == sorted(b.params)
    for name in sorted(a.params):
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    assert not np.array_equal(a.params["feat.conv1.w"].data,
                              c.params["feat.conv1.w"].data)


def test_init_biases_zero_and_weight_scale():
    model = ShiftConvNet(desk_config(), seed=0)
    for name, t in model.params.items():
        if name.endswith(".b"):
            assert np.all(t.data == 0.0)
            assert t.data.shape == (1, t.data.shape[1], 1, 1)
    w = model.params["enc.conv5.w"].data  # largest tensor: stable std estimate
    fan_in = w.shape[1] * w.shape[2] * w.shape[3]
    assert w.std() == pytest.approx(np.sqrt(2.0 / fan_in), rel=0.05)


def test_param_name_catalog():
    names = sorted(ShiftConvNet(desk_config(), seed=0).params)
    stems = ["feat.conv1", "feat.conv2", "feat.conv3", "feat.conv4",
             "shift.clue", "redir",
             "enc.conv5", "enc.conv6", "enc.conv7", "enc.conv8",
             "head.small", "head.coarse",
             "refine.match", "refine.c1", "refine.c2", "refine.c3"]
    stems += [f"dec.b{i}.{part}" for i in range(1, 7) for part in ("up", "sm")]
    expected = sorted(s + e for s in stems for e in (".w", ".b"))
    assert names == expected


def test_correlation_model_drops_clue_params_only():
    shift_names = set(ShiftConvNet(desk_config(), seed=0).params)
    corr_names = set(ShiftConvNet(desk_config(cost_volume=CORRELATION),
                                  seed=0).params)
    assert shift_names - corr_names == {"shift.clue.w", "shift.clue.b"}
    assert corr_names < shift_names


def test_refine_params_exist_even_when_disabled():
    model = ShiftConvNet(desk_config(refine_enabled=False), seed=0)
    assert "refine.c3.w" in model.params


# ---------------------------------------------------------------------------
# forward shapes
# ---------------------------------------------------------------------------

def test_forward_shape_closure_desk():
    model = ShiftConvNet(desk_config(), seed=0)
    left = image((2, 1, 64, 128), seed=1)
    right = image((2, 1, 64, 128), seed=2)
    out = model.forward(left, right)
    assert out.coarse_disp.shape == (2, 1, 64, 128)
    assert out.refined_disp.shape == (2, 1, 64, 128)
    assert out.small_disp.shape == (2, 1, 16, 32)
    assert out.left_feat.shape == (2, 16, 16, 32)
    assert out.cost_volume.shape == (2, 136, 16, 32)
    assert out.bottleneck.shape == (2, 32, 1, 2)
    assert [s.shape[2:] for s in out.encoder_skips] == [(8, 16), (4, 8), (2, 4)]
    assert out.feat_skips[0].shape == (2, 16, 16, 32)   # /4
    assert out.feat_skips[1].shape == (2, 16, 32, 64)   # /2


def test_forward_small_scale_variants():
    left = image((1, 1, 64, 128), seed=3)
    right = image((1, 1, 64, 128), seed=4)
    for scale in (1, 2, 8):
        model = ShiftConvNet(desk_config(small_map_scale=scale), seed=0)
        out = model.forward(left, right, refine=False)
        assert out.small_disp.shape == (1, 1, 64 // scale, 128 // scale)


def test_forward_correlation_cost_volume():
    model = ShiftConvNet(desk_config(cost_volume=CORRELATION), seed=0)
    out = model.forward(image((1, 1, 64, 64), seed=5),
                        image((1, 1, 64, 64), seed=6))
    assert out.cost_volume.shape == (1, 9, 16, 16)
    assert out.coarse_disp.shape == (1, 1, 64, 64)


def test_forward_input_validation():
    model = ShiftConvNet(desk_config(), seed=0)
    with pytest.raises(ContractViolation, match="mismatch"):
        model.forward(image((1, 1, 64, 64)), image((1, 1, 64, 128)))
    with pytest.raises(ContractViolation, match="divisible"):
        model.forward(image((1, 1, 32, 32)), image((1, 1, 32, 32)))
    with pytest.raises(ContractViolation, match="channel"):
        model.forward(image((1, 3, 64, 64)), image((1, 3, 64, 64)))
    with pytest.raises(ContractViolation, match="divisible"):
        model.feature_extract(image((1, 1, 6, 6)))


def test_refine_flag_precedence():
    left, right = image((1, 1, 64, 64), seed=7), image((1, 1, 64, 64), seed=8)
    on = ShiftConvNet(desk_config(), seed=0)
    assert on.forward(left, right).refined_disp is not None
    assert on.forward(left, right, refine=False).refined_disp is None
    off = ShiftConvNet(desk_config(refine_enabled=False), seed=0)
    assert off.forward(left, right).refined_disp is None
    assert off.forward(left, right, refine=True).refined_disp is not None


# ---------------------------------------------------------------------------
# wiring properties
# ---------------------------------------------------------------------------

def test_left_branch_does_not_see_right_image():
    model = ShiftConvNet(desk_config(), seed=0)
    left = image((1, 1, 64, 64), seed=9)
    out_a = model.forward(left, image((1, 1, 64, 64), seed=10))
    out_b = model.forward(left, image((1, 1, 64, 64), seed=11))
    np.testing.assert_array_equal(out_a.left_feat.data, out_b.left_feat.data)
    for sa, sb in zip(out_a.feat_skips, out_b.feat_skips):
        np.testing.assert_array_equal(sa.data, sb.data)
    assert not np.array_equal(out_a.right_feat.data, out_b.right_feat.data)
    assert not np.array_equal(out_a.coarse_disp.data, out_b.coarse_disp.data)


def test_feature_tower_weights_are_shared():
    model = ShiftConvNet(desk_config(), seed=0)
    same = image((1, 1, 64, 64), seed=12)
    out = model.forward(same, same)
    np.testing.assert_array_equal(out.left_feat.data, out.right_feat.data)


def test_zeroed_refine_output_layer_gives_zero_refined_map():
    model = ShiftConvNet(desk_config(), seed=0)
    model.params["refine.c3.w"].data[:] = 0.0
    model.params["refine.c3.b"].data[:] = 0.0
    out = model.forward(image((1, 1, 64, 64), seed=13),
                        image((1, 1, 64, 64), seed=14))
    assert np.all(out.refined_disp.data == 0.0)
    assert not np.all(out.coarse_disp.data == 0.0)


def test_refine_base_is_detached_from_small_head():
    # the upsampled small map steers the warp but must carry no gradient;
    # gradients into head.small come only from terms that read small_disp
    model = ShiftConvNet(tiny_config(), seed=0)
    left = image((1, 1, 64, 64), seed=15)
    right = image((1, 1, 64, 64), seed=16)
    out = model.forward(left, right, refine=True)
    model.zero_grad()
    backward(sum_all(mul(out.refined_disp, out.refined_disp)))
    g = model.params["head.small.w"].grad
    assert g is None or np.all(g == 0.0)


def test_every_parameter_receives_gradient():
    model = ShiftConvNet(tiny_config(), seed=0)
    left = image((1, 1, 64, 64), seed=17)
    right = image((1, 1, 64, 64), seed=18)
    out = model.forward(left, right, refine=True)
    model.zero_grad()
    backward(squared_total(out))
    dead = [n for n, t in model.params.items()
            if t.grad is None or not np.any(t.grad)]
    assert dead == [], f"parameters with no gradient: {dead}"


def test_batch_forward_matches_single_sample():
    model = ShiftConvNet(desk_config(), seed=0)
    a = image((1, 1, 64, 64), seed=19)
    b = image((1, 1, 64, 64), seed=20)
    batch_left = Tensor(np.concatenate([a.data, b.data], axis=0))
    batch_right = Tensor(np.concatenate([b.data, a.data], axis=0))
    full = model.forward(batch_left, batch_right)
    one = model.forward(a, b)
    two = model.forward(b, a)
    np.testing.assert_allclose(full.coarse_disp.data[0], one.coarse_disp.data[0],
                               atol=1e-5)
    np.testing.assert_allclose(full.coarse_disp.data[1], two.coarse_disp.data[0],
                               atol=1e-5)


def test_batched_forward_is_bit_identical_to_single_forwards():
    model = ShiftConvNet(desk_config(), seed=0)
    left = image((2, 1, 64, 128), seed=23)
    right = image((2, 1, 64, 128), seed=24)
    both = model.forward(left, right)
    for i in range(2):
        one = model.forward(Tensor(left.data[i : i + 1]), Tensor(right.data[i : i + 1]))
        for key in ("refined_disp", "coarse_disp", "small_disp"):
            assert np.array_equal(getattr(both, key).data[i : i + 1],
                                  getattr(one, key).data), key


# ---------------------------------------------------------------------------
# full-path finite differences (float64, tiny widths)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["feat.conv1.w", "head.coarse.b", "refine.c3.w"])
def test_full_network_gradient_finite_difference(name):
    model = ShiftConvNet(tiny_config(), seed=1).astype(np.float64)
    left = image((1, 1, 64, 64), seed=21, dtype=np.float64)
    right = image((1, 1, 64, 64), seed=22, dtype=np.float64)

    def fn(t):
        old = model.params[name]
        model.params[name] = t
        try:
            return squared_total(model.forward(left, right, refine=True))
        finally:
            model.params[name] = old

    # step small enough that the probe stays inside one piecewise-linear
    # region of the activations; early-layer params move every downstream
    # pre-activation, so larger steps cross kinks and poison the quotient
    assert grad_check(fn, model.params[name], step=1e-6) < 1e-4
