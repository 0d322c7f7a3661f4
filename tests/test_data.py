"""Synthetic data generator invariants and file codec round trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftconvnet.autograd import ContractViolation
from shiftconvnet.data import (
    CodecError,
    StereoSample,
    SynthConfig,
    encode_disparity_pnm,
    gen_synthetic_pair,
    load_dataset,
    read_image,
    read_pfm,
    read_pnm,
    resize_nearest,
    write_dataset,
    write_pfm,
    write_pnm,
)


def correspondence_holds(sample: StereoSample) -> np.ndarray:
    """Bit-exact check of left[x] == right[x - d] wherever both views see
    the pixel; returns the per-pixel boolean result on the visible set."""
    h, w = sample.gt_disp.shape
    xs = np.arange(w)[None, :]
    target = xs - sample.gt_disp.astype(np.int64)
    ok = np.ones((h, w), dtype=bool)
    vis = sample.occlusion_mask
    tclip = np.clip(target, 0, w - 1)
    ys = np.arange(h)[:, None]
    matched = np.all(
        sample.left == sample.right[:, ys, tclip], axis=0
    ) & (target >= 0) & (target < w)
    ok[vis] = matched[vis]
    return ok[vis]


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_generator_basic_shapes_and_ranges():
    s = gen_synthetic_pair(SynthConfig(width=96, height=48, seed=1))
    assert s.left.shape == (1, 48, 96)
    assert s.right.shape == (1, 48, 96)
    assert s.gt_disp.shape == (48, 96)
    assert s.occlusion_mask.shape == (48, 96)
    assert s.left.dtype == np.float32 and s.right.dtype == np.float32
    assert s.gt_disp.dtype == np.float32
    assert s.occlusion_mask.dtype == np.bool_
    assert s.height == 48 and s.width == 96
    assert 0.0 <= s.left.min() and s.left.max() <= 1.0
    assert 0.0 <= s.right.min() and s.right.max() <= 1.0


def test_generator_correspondence_bit_exact_many_configs():
    rng = np.random.default_rng(7)
    for _ in range(40):
        w = int(rng.integers(32, 160))
        h = int(rng.integers(16, 80))
        dmax = int(rng.integers(1, w // 2))
        dmin = int(rng.integers(0, dmax + 1))
        cfg = SynthConfig(
            width=w, height=h,
            num_shapes=int(rng.integers(0, 7)),
            disp_min=dmin, disp_max=dmax,
            background_disp=int(rng.integers(0, w // 2)),
            seed=int(rng.integers(0, 2**31)),
            channels=int(rng.choice([1, 3])),
        )
        s = gen_synthetic_pair(cfg)
        assert s.occlusion_mask.any()
        assert correspondence_holds(s).all(), f"mismatch for {cfg}"
        d = s.gt_disp
        assert np.all(d == np.round(d))
        assert d.min() >= min(cfg.disp_min, cfg.background_disp)
        assert d.max() <= max(cfg.disp_max, cfg.background_disp)


def test_generator_constant_scene_mask_is_exact():
    # with no shapes the only geometry is the background plane; a pixel is
    # visible in both views exactly when its match column exists
    cfg = SynthConfig(width=40, height=8, num_shapes=0, background_disp=6,
                      seed=3)
    s = gen_synthetic_pair(cfg)
    assert np.all(s.gt_disp == 6.0)
    want = np.broadcast_to(np.arange(40)[None, :] >= 6, (8, 40))
    np.testing.assert_array_equal(s.occlusion_mask, want)


def test_generator_produces_occlusions():
    # shapes at different disparities must hide parts of the background
    for seed in range(10):
        cfg = SynthConfig(width=96, height=48, num_shapes=5, disp_min=2,
                          disp_max=12, background_disp=1, seed=seed)
        s = gen_synthetic_pair(cfg)
        xs = np.arange(96)[None, :]
        in_range = (xs - s.gt_disp.astype(np.int64)) >= 0
        if np.any(~s.occlusion_mask & in_range):
            return
    raise AssertionError("no seed produced an occluded in-range pixel")


def test_generator_deterministic_in_seed():
    a = gen_synthetic_pair(SynthConfig(seed=11))
    b = gen_synthetic_pair(SynthConfig(seed=11))
    c = gen_synthetic_pair(SynthConfig(seed=12))
    np.testing.assert_array_equal(a.left, b.left)
    np.testing.assert_array_equal(a.right, b.right)
    np.testing.assert_array_equal(a.gt_disp, b.gt_disp)
    np.testing.assert_array_equal(a.occlusion_mask, b.occlusion_mask)
    assert not np.array_equal(a.left, c.left)


def test_generator_texture_has_local_contrast():
    # matching is ill posed on flat texture; neighboring columns must differ
    s = gen_synthetic_pair(SynthConfig(width=64, height=32, seed=5))
    col_diff = np.abs(np.diff(s.left, axis=2))
    assert np.median(col_diff) > 1e-4


def test_synth_config_validation():
    with pytest.raises(ContractViolation):
        SynthConfig(width=16, disp_max=8)           # disp_max >= width/2
    with pytest.raises(ContractViolation):
        SynthConfig(disp_min=5, disp_max=4)
    with pytest.raises(ContractViolation):
        SynthConfig(background_disp=64, width=128)
    with pytest.raises(ContractViolation):
        SynthConfig(channels=2)


# ---------------------------------------------------------------------------
# PFM codec
# ---------------------------------------------------------------------------

def test_pfm_round_trip_bit_exact_grayscale():
    arr = np.random.default_rng(0).standard_normal((5, 7)).astype(np.float32)
    arr[0, 0] = np.nan
    arr[1, 2] = -np.inf
    back = read_pfm(write_pfm(arr))
    np.testing.assert_array_equal(
        back.view(np.uint32), arr.view(np.uint32)
    )  # compare bit patterns so NaN counts as equal


def test_pfm_round_trip_color():
    arr = np.random.default_rng(1).standard_normal((3, 4, 6)).astype(np.float32)
    np.testing.assert_array_equal(read_pfm(write_pfm(arr)), arr)


def test_pfm_header_is_canonical():
    data = write_pfm(np.zeros((2, 3), dtype=np.float32))
    assert data.startswith(b"Pf\n3 2\n-1.0\n")
    assert len(data) == len(b"Pf\n3 2\n-1.0\n") + 2 * 3 * 4


def test_pfm_accepts_leading_channel_axis():
    arr = np.ones((1, 2, 3), dtype=np.float32)
    assert read_pfm(write_pfm(arr)).shape == (2, 3)


def test_pfm_rows_are_stored_bottom_to_top():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    payload = write_pfm(arr)[len(b"Pf\n2 2\n-1.0\n"):]
    first_row = np.frombuffer(payload, dtype="<f4", count=2)
    np.testing.assert_array_equal(first_row, [3.0, 4.0])


def test_pfm_big_endian_and_scale():
    vals = np.array([[1.5, -2.0, 3.25]], dtype=">f4")
    data = b"Pf\n3 1\n2.0\n" + vals.tobytes()  # positive scale: big endian

    np.testing.assert_array_equal(read_pfm(data), [[3.0, -4.0, 6.5]])


def test_pfm_errors_carry_byte_offsets():
    with pytest.raises(CodecError) as e:
        read_pfm(b"P7\n1 1\n-1.0\n" + b"\0" * 4)
    assert e.value.offset == 0

    with pytest.raises(CodecError) as e:
        read_pfm(b"Pf\nxx 1\n-1.0\n")
    assert e.value.offset == 3

    good = write_pfm(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(CodecError, match="truncated") as e:
        read_pfm(good[:-4])
    assert e.value.offset == len(good) - 4

    for token in (b"0.0", b"1e-50"):  # 1e-50 is 0 in float32
        with pytest.raises(CodecError, match="nonzero"):
            read_pfm(b"Pf\n1 1\n" + token + b"\n" + b"\0" * 4)
    # 1e39 is finite, but overflows float32: the values would decode to inf
    for token in (b"nan", b"inf", b"-inf", b"1e39", b"-1e39"):
        with pytest.raises(CodecError, match="finite") as e:
            read_pfm(b"Pf\n3 1\n" + token + b"\n" + b"\0" * 12)
        assert e.value.offset == 7
    with pytest.raises(CodecError, match="extents"):
        read_pfm(b"Pf\n0 1\n-1.0\n")
    with pytest.raises(CodecError, match="end of header"):
        read_pfm(b"Pf\n1")


def test_pfm_rejects_bad_write_shape():
    with pytest.raises(ContractViolation):
        write_pfm(np.zeros((2, 2, 2)))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_pfm_round_trip_property(h, w, seed):
    arr = (np.random.default_rng(seed).standard_normal((h, w)) * 100).astype(np.float32)
    np.testing.assert_array_equal(read_pfm(write_pfm(arr)), arr)


# ---------------------------------------------------------------------------
# PGM / PPM codec
# ---------------------------------------------------------------------------

def test_pnm_round_trip_8bit_exact_on_grid():
    levels = np.arange(256, dtype=np.float32) / 255.0
    arr = levels.reshape(1, 16, 16)
    np.testing.assert_array_equal(read_pnm(write_pnm(arr)), arr)


def test_pnm_round_trip_16bit():
    arr = np.linspace(0, 1, 12, dtype=np.float32).reshape(1, 3, 4)
    back = read_pnm(write_pnm(arr, maxval=65535))
    assert np.abs(back - arr).max() <= 0.5 / 65535


def test_pnm_color_round_trip():
    rng = np.random.default_rng(2)
    arr = (np.rint(rng.uniform(0, 1, (3, 4, 5)) * 255) / 255).astype(np.float32)
    data = write_pnm(arr)
    assert data.startswith(b"P6\n5 4\n255\n")
    np.testing.assert_array_equal(read_pnm(data), arr)


def test_pnm_quantization_error_bound():
    rng = np.random.default_rng(3)
    arr = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
    back = read_pnm(write_pnm(arr))
    assert np.abs(back - arr).max() <= 0.5 / 255 + 1e-7


def test_pnm_header_comments_are_skipped():
    data = b"P5 # magic\n# a comment line\n2 1 # extents\n255\n\x07\x3f"
    arr = read_pnm(data)
    np.testing.assert_array_equal(arr, np.float32([[[7, 63]]]) / np.float32(255))


def test_pnm_16bit_is_big_endian():
    data = b"P5\n1 1\n65535\n\x01\x00"
    assert read_pnm(data)[0, 0, 0] == np.float32(256 / 65535)


def test_pnm_errors():
    with pytest.raises(CodecError) as e:
        read_pnm(b"P4\n1 1\n255\n\0")
    assert e.value.offset == 0
    with pytest.raises(CodecError, match="maxval"):
        read_pnm(b"P5\n1 1\n128\n\0")
    good = write_pnm(np.zeros((1, 2, 2), dtype=np.float32))
    with pytest.raises(CodecError, match="truncated") as e:
        read_pnm(good[:-1])
    assert e.value.offset == len(good) - 1
    with pytest.raises(ContractViolation):
        write_pnm(np.zeros((2, 2, 2)))
    with pytest.raises(ContractViolation):
        write_pnm(np.zeros((1, 2, 2)), maxval=100)


def test_encode_disparity_pnm():
    disp = np.array([[0.0, 4.0, 8.0, 12.0]], dtype=np.float32)
    data = encode_disparity_pnm(disp, disp_cap=8.0)
    back = read_pnm(data)[0]
    np.testing.assert_allclose(back * 8.0, [[0.0, 4.0, 8.0, 8.0]], atol=8 / 255)
    for cap in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ContractViolation, match="positive and finite"):
            encode_disparity_pnm(disp, disp_cap=cap)


# ---------------------------------------------------------------------------
# nearest-neighbor resize
# ---------------------------------------------------------------------------

def test_resize_index_rule_downsample():
    arr = np.array([[0.0, 1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(resize_nearest(arr, 1, 2), [[1.0, 3.0]])


def test_resize_index_rule_upsample():
    arr = np.array([[5.0, 9.0]])
    np.testing.assert_array_equal(resize_nearest(arr, 1, 4),
                                  [[5.0, 5.0, 9.0, 9.0]])


def test_resize_identity():
    arr = np.random.default_rng(4).standard_normal((3, 5, 6))
    np.testing.assert_array_equal(resize_nearest(arr, 5, 6), arr)


def test_resize_disparity_rescales_values_exactly():
    disp = np.full((4, 960), 100.0, dtype=np.float32)
    out = resize_nearest(disp, 4, 768, is_disparity=True)
    assert out.shape == (4, 768)
    np.testing.assert_array_equal(out, np.full((4, 768), 80.0, dtype=np.float32))


def test_resize_plain_does_not_rescale_values():
    disp = np.full((4, 960), 100.0, dtype=np.float32)
    np.testing.assert_array_equal(resize_nearest(disp, 4, 768),
                                  np.full((4, 768), 100.0, dtype=np.float32))


def test_resize_channel_layout_and_errors():
    arr = np.random.default_rng(5).standard_normal((3, 8, 8))
    out = resize_nearest(arr, 4, 4)
    assert out.shape == (3, 4, 4)
    for c in range(3):
        np.testing.assert_array_equal(out[c], resize_nearest(arr[c], 4, 4))
    with pytest.raises(ContractViolation):
        resize_nearest(arr, 0, 4)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10))
def test_resize_output_values_come_from_input(h, w, nh, nw):
    arr = np.random.default_rng(h * 1000 + w * 100 + nh * 10 + nw).standard_normal((h, w))
    out = resize_nearest(arr, nh, nw)
    assert out.shape == (nh, nw)
    assert np.isin(out, arr).all()


# ---------------------------------------------------------------------------
# dataset round trip
# ---------------------------------------------------------------------------

def test_dataset_round_trip(tmp_path):
    samples = [gen_synthetic_pair(SynthConfig(width=48, height=24, seed=s))
               for s in range(3)]
    ids = write_dataset(tmp_path, samples)
    assert ids == ["000000", "000001", "000002"]
    back = load_dataset(tmp_path)
    assert len(back) == 3
    for orig, got in zip(samples, back):
        np.testing.assert_array_equal(got.gt_disp, orig.gt_disp)  # PFM: exact
        np.testing.assert_array_equal(got.occlusion_mask, orig.occlusion_mask)
        assert np.abs(got.left - orig.left).max() <= 0.5 / 255 + 1e-7
        assert np.abs(got.right - orig.right).max() <= 0.5 / 255 + 1e-7


def test_dataset_color_uses_ppm(tmp_path):
    samples = [gen_synthetic_pair(SynthConfig(width=32, height=16, seed=0,
                                              channels=3))]
    write_dataset(tmp_path, samples)
    assert (tmp_path / "left" / "000000.ppm").exists()
    assert load_dataset(tmp_path)[0].left.shape == (3, 16, 32)


def test_dataset_missing_occlusion_defaults_to_all_visible(tmp_path):
    samples = [gen_synthetic_pair(SynthConfig(width=32, height=16, seed=1))]
    write_dataset(tmp_path, samples)
    (tmp_path / "occ" / "000000.pgm").unlink()
    back = load_dataset(tmp_path)
    assert back[0].occlusion_mask.all()


def test_dataset_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope")
    write_dataset(tmp_path, [gen_synthetic_pair(SynthConfig(width=32, height=16))])
    (tmp_path / "right" / "000000.pgm").unlink()
    with pytest.raises(FileNotFoundError, match="right"):
        load_dataset(tmp_path)


def test_read_image_dispatch(tmp_path):
    arr = np.random.default_rng(6).standard_normal((4, 5)).astype(np.float32)
    p = tmp_path / "x.pfm"
    p.write_bytes(write_pfm(arr))
    got = read_image(p)
    assert got.shape == (1, 4, 5)
    np.testing.assert_array_equal(got[0], arr)

    q = tmp_path / "y.pgm"
    q.write_bytes(write_pnm(np.zeros((1, 2, 2), dtype=np.float32)))
    assert read_image(q).shape == (1, 2, 2)
