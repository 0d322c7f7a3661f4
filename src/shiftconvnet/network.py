"""Full stereo network: shared feature extraction, a displacement-sweep cost
volume, an hourglass encoder/decoder with left-branch skips, and a
disparity-guided refinement head.

Resolutions, with input extents divisible by 64: feature extraction pools
twice (/4), the encoder pools four more times (/64), and six upsampling
blocks restore /1.  The coarse head reads the final block, the small head
reads the block at 1/small_map_scale, and the refinement head re-examines
the image pair around the upsampled small map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import (
    ContractViolation,
    Tensor,
    concat_channels,
    conv2d,
    leaky_relu,
    maxpool2d,
    transposed_conv2d,
)
from .data import resize_nearest
from .matching import (
    CONCAT_THEN_CONV,
    CONV_THEN_CONCAT,
    ShiftConvConfig,
    auto_shift_conv,
    correlation_1d,
    shift_conv_layer,
)

SHIFT_CONV = "shiftconv"
CORRELATION = "correlation"

# Refinement head geometry: matching-clue filter count of the guided warp
# sweep, then the channel widths of the two hidden 3x3 layers before the
# single-filter output.
AUTO_SHIFT_FILTERS = 8
REFINE_CHANNELS = (16, 32)


@dataclass
class NetworkConfig:
    """Channel widths and wiring switches for the whole network."""

    image_channels: int = 1
    feat_channels: tuple = (32, 32, 64, 64)
    redir_channels: int = 32
    encode_channels: tuple = (128, 256, 512, 512)
    decode_channels: tuple = (256, 128, 64, 32, 16, 16)
    shift_cfg: ShiftConvConfig = field(default_factory=ShiftConvConfig)
    cost_volume: str = SHIFT_CONV
    refine_enabled: bool = True
    small_map_scale: int = 4

    def __post_init__(self):
        self.feat_channels = tuple(int(v) for v in self.feat_channels)
        self.encode_channels = tuple(int(v) for v in self.encode_channels)
        self.decode_channels = tuple(int(v) for v in self.decode_channels)
        if self.image_channels not in (1, 3):
            raise ContractViolation(
                f"image_channels must be 1 or 3; got {self.image_channels}"
            )
        if len(self.feat_channels) != 4:
            raise ContractViolation("feat_channels needs exactly 4 entries")
        if len(self.encode_channels) != 4:
            raise ContractViolation("encode_channels needs exactly 4 entries")
        if len(self.decode_channels) != 6:
            raise ContractViolation("decode_channels needs exactly 6 entries")
        for group in (self.feat_channels, self.encode_channels,
                      self.decode_channels, (self.redir_channels,)):
            if any(v < 1 for v in group):
                raise ContractViolation(f"channel widths must be >= 1; got {group}")
        if self.cost_volume not in (SHIFT_CONV, CORRELATION):
            raise ContractViolation(
                f"cost_volume must be {SHIFT_CONV!r} or {CORRELATION!r}; "
                f"got {self.cost_volume!r}"
            )
        s = self.small_map_scale
        if s < 1 or s > 32 or (s & (s - 1)) != 0:
            raise ContractViolation(
                f"small_map_scale must be a power of two in [1, 32]; got {s}"
            )

    def cost_volume_channels(self) -> int:
        if self.cost_volume == SHIFT_CONV:
            return self.shift_cfg.output_channels()
        return self.shift_cfg.maxdisp + 1

    def small_block_index(self) -> int:
        """1-based upsampling block whose output sits at 1/small_map_scale."""
        return 6 - self.small_map_scale.bit_length() + 1


@dataclass
class ForwardOutputs:
    """Disparity maps plus the intermediates tests want to inspect.

    `coarse_disp` and `refined_disp` are (N, 1, H, W); `small_disp` is
    (N, 1, H/s, W/s) in small-map pixel units.
    """

    coarse_disp: Tensor
    small_disp: Tensor
    refined_disp: Tensor | None
    left_feat: Tensor
    right_feat: Tensor
    feat_skips: tuple
    cost_volume: Tensor
    encoder_skips: tuple
    bottleneck: Tensor


# --- config <-> flat scalars, for embedding in checkpoints ----------------

_VARIANT_CODE = {CONV_THEN_CONCAT: 0.0, CONCAT_THEN_CONV: 1.0}
_COST_CODE = {SHIFT_CONV: 0.0, CORRELATION: 1.0}


def config_to_scalars(cfg: NetworkConfig) -> dict[str, float]:
    out = {"image_channels": float(cfg.image_channels),
           "redir_channels": float(cfg.redir_channels),
           "maxdisp": float(cfg.shift_cfg.maxdisp),
           "clue_filters": float(cfg.shift_cfg.clue_filters),
           "variant": _VARIANT_CODE[cfg.shift_cfg.variant],
           "both_directions": float(cfg.shift_cfg.both_directions),
           "cost_volume": _COST_CODE[cfg.cost_volume],
           "refine_enabled": float(cfg.refine_enabled),
           "small_map_scale": float(cfg.small_map_scale)}
    for i, v in enumerate(cfg.feat_channels):
        out[f"feat{i + 1}"] = float(v)
    for i, v in enumerate(cfg.encode_channels):
        out[f"enc{i + 5}"] = float(v)
    for i, v in enumerate(cfg.decode_channels):
        out[f"dec{i + 1}"] = float(v)
    return out


def config_from_scalars(values: dict[str, float]) -> NetworkConfig:
    expected = set(config_to_scalars(NetworkConfig()))
    missing = expected - set(values)
    if missing:
        raise ContractViolation(
            f"config scalars missing keys: {sorted(missing)}"
        )

    def whole(key):
        v = values[key]
        if not (math.isfinite(v) and v == int(v)):
            raise ContractViolation(f"config scalar {key} = {v!r} is not an integer")
        return int(v)

    def named(key, codes):
        names = {code: name for name, code in codes.items()}
        if values[key] not in names:
            raise ContractViolation(
                f"config scalar {key} = {values[key]!r} is not one of "
                f"{sorted(names)}"
            )
        return names[values[key]]

    return NetworkConfig(
        image_channels=whole("image_channels"),
        feat_channels=tuple(whole(f"feat{i}") for i in range(1, 5)),
        redir_channels=whole("redir_channels"),
        encode_channels=tuple(whole(f"enc{i}") for i in range(5, 9)),
        decode_channels=tuple(whole(f"dec{i}") for i in range(1, 7)),
        shift_cfg=ShiftConvConfig(
            maxdisp=whole("maxdisp"),
            clue_filters=whole("clue_filters"),
            variant=named("variant", _VARIANT_CODE),
            both_directions=bool(whole("both_directions")),
        ),
        cost_volume=named("cost_volume", _COST_CODE),
        refine_enabled=bool(whole("refine_enabled")),
        small_map_scale=whole("small_map_scale"),
    )


class ShiftConvNet:
    """The trainable model: a name->Tensor parameter dict plus the wiring.

    Weights are fan-in-scaled Gaussians (variance 2/fan_in), biases zero,
    deterministic in `seed`.  Refinement parameters always exist so a model
    trained coarse-only can later enable the head without re-keying
    checkpoints.
    """

    def __init__(self, config: NetworkConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)

        def conv_param(name, out_c, in_c, k=3):
            std = np.sqrt(2.0 / (in_c * k * k))
            w = rng.normal(0.0, std, size=(out_c, in_c, k, k))
            self.params[name + ".w"] = Tensor(w.astype(np.float32),
                                              requires_grad=True)
            self.params[name + ".b"] = Tensor(
                np.zeros((1, out_c, 1, 1), np.float32), requires_grad=True)

        def deconv_param(name, in_c, out_c, k=4):
            std = np.sqrt(2.0 / (in_c * k * k))
            w = rng.normal(0.0, std, size=(in_c, out_c, k, k))
            self.params[name + ".w"] = Tensor(w.astype(np.float32),
                                              requires_grad=True)
            self.params[name + ".b"] = Tensor(
                np.zeros((1, out_c, 1, 1), np.float32), requires_grad=True)

        c_img = config.image_channels
        f1, f2, f3, f4 = config.feat_channels
        conv_param("feat.conv1", f1, c_img)
        conv_param("feat.conv2", f2, f1)
        conv_param("feat.conv3", f3, f2)
        conv_param("feat.conv4", f4, f3)

        if config.cost_volume == SHIFT_CONV:
            oc, ic, kh, kw = config.shift_cfg.weight_shape(f4)
            std = np.sqrt(2.0 / (ic * kh * kw))
            w = rng.normal(0.0, std, size=(oc, ic, kh, kw))
            self.params["shift.clue.w"] = Tensor(w.astype(np.float32),
                                                 requires_grad=True)
            self.params["shift.clue.b"] = Tensor(
                np.zeros((1, oc, 1, 1), np.float32), requires_grad=True)

        conv_param("redir", config.redir_channels, f4)

        cost_c = config.cost_volume_channels()
        e5, e6, e7, e8 = config.encode_channels
        conv_param("enc.conv5", e5, cost_c + config.redir_channels)
        conv_param("enc.conv6", e6, e5)
        conv_param("enc.conv7", e7, e6)
        conv_param("enc.conv8", e8, e7)

        d = config.decode_channels
        up_in = (e8, d[0], d[1], d[2], d[3], d[4])
        skip_c = (e7, e6, e5, f4, f4, c_img)
        for i in range(6):
            deconv_param(f"dec.b{i + 1}.up", up_in[i], d[i])
            conv_param(f"dec.b{i + 1}.sm", d[i], d[i] + skip_c[i])

        conv_param("head.small", 1, d[config.small_block_index() - 1])
        conv_param("head.coarse", 1, d[5])

        conv_param("refine.match", AUTO_SHIFT_FILTERS, 2 * c_img)
        r1, r2 = REFINE_CHANNELS
        conv_param("refine.c1", r1, AUTO_SHIFT_FILTERS + 1)
        conv_param("refine.c2", r2, r1)
        conv_param("refine.c3", 1, r2)

    # -- parameter access ---------------------------------------------------

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def astype(self, dtype) -> "ShiftConvNet":
        """Cast all parameters in place (float64 for finite-difference runs)."""
        for name, t in self.params.items():
            fresh = Tensor(t.data.astype(dtype), requires_grad=t.requires_grad)
            self.params[name] = fresh
        return self

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    # -- stages of the forward pass ------------------------------------------

    def feature_extract(self, image: Tensor):
        """Shared two-pool feature tower.

        Returns the /4 feature map plus the /2 and /4 skip candidates; the
        /4 skip is the feature map itself."""
        n, c, h, w = image.shape
        if c != self.config.image_channels:
            raise ContractViolation(
                f"expected {self.config.image_channels}-channel images; got {c}"
            )
        if h % 4 or w % 4:
            raise ContractViolation(
                f"image extents must be divisible by 4; got {h}x{w}"
            )
        x = leaky_relu(conv2d(image, self._p("feat.conv1.w"),
                              self._p("feat.conv1.b"), padding=1))
        x = leaky_relu(conv2d(x, self._p("feat.conv2.w"),
                              self._p("feat.conv2.b"), padding=1))
        x = maxpool2d(x)
        x = leaky_relu(conv2d(x, self._p("feat.conv3.w"),
                              self._p("feat.conv3.b"), padding=1))
        half = leaky_relu(conv2d(x, self._p("feat.conv4.w"),
                                 self._p("feat.conv4.b"), padding=1))
        feat = maxpool2d(half)
        return feat, half, feat

    def build_cost_volume(self, left_feat: Tensor, right_feat: Tensor) -> Tensor:
        if self.config.cost_volume == SHIFT_CONV:
            return shift_conv_layer(left_feat, right_feat, self.config.shift_cfg,
                                    self._p("shift.clue.w"),
                                    self._p("shift.clue.b"))
        return correlation_1d(left_feat, right_feat, self.config.shift_cfg.maxdisp)

    def encode(self, cost_volume: Tensor, left_feat: Tensor):
        """Redirected left features join the cost volume; four conv+pool
        stages take /4 down to the /64 bottleneck, keeping the /8, /16 and
        /32 pooled activations as decoder skips."""
        if cost_volume.shape[2:] != left_feat.shape[2:]:
            raise ContractViolation(
                f"cost volume {tuple(cost_volume.shape)} and left features "
                f"{tuple(left_feat.shape)} disagree spatially"
            )
        redir = leaky_relu(conv2d(left_feat, self._p("redir.w"),
                                  self._p("redir.b"), padding=1))
        x = concat_channels([cost_volume, redir])
        skips = []
        for i in range(5, 9):
            x = leaky_relu(conv2d(x, self._p(f"enc.conv{i}.w"),
                                  self._p(f"enc.conv{i}.b"), padding=1))
            x = maxpool2d(x)
            if i < 8:
                skips.append(x)
        return x, tuple(skips)

    def decode(self, bottleneck: Tensor, encoder_skips, feat_skips,
               left_image: Tensor):
        """Six deconv+smooth blocks with one resolution-matched skip each.

        Skips, block by block: encoder /32, /16, /8, then the left feature
        tower at /4 and /2, then the left image at /1.  The small head taps
        the block at 1/small_map_scale, the coarse head the final block;
        both are linear single-filter 3x3 convs."""
        feat_quarter, half = feat_skips[0], feat_skips[1]
        skips = (encoder_skips[2], encoder_skips[1], encoder_skips[0],
                 feat_quarter, half, left_image)
        small_at = self.config.small_block_index()
        x = bottleneck
        small = None
        for i in range(6):
            x = leaky_relu(transposed_conv2d(x, self._p(f"dec.b{i + 1}.up.w"),
                                             self._p(f"dec.b{i + 1}.up.b")))
            skip = skips[i]
            if x.shape[0] != skip.shape[0] or x.shape[2:] != skip.shape[2:]:
                raise ContractViolation(
                    f"decode block {i + 1}: upsampled {tuple(x.shape)} does "
                    f"not match skip {tuple(skip.shape)}"
                )
            x = concat_channels([x, skip])
            x = leaky_relu(conv2d(x, self._p(f"dec.b{i + 1}.sm.w"),
                                  self._p(f"dec.b{i + 1}.sm.b"), padding=1))
            if i + 1 == small_at:
                small = conv2d(x, self._p("head.small.w"),
                               self._p("head.small.b"), padding=1)
        coarse = conv2d(x, self._p("head.coarse.w"),
                        self._p("head.coarse.b"), padding=1)
        return x, coarse, small

    def refine(self, coarse_disp: Tensor, small_disp: Tensor,
               left_image: Tensor, right_image: Tensor) -> Tensor:
        """Warp-and-compare refinement around the upsampled small map.

        The small map is nearest-upsampled to full resolution with its
        values rescaled to full-image pixel units and detached: it steers
        the warp but receives no gradient through it."""
        if small_disp is None:
            raise ContractViolation("refinement requires the small-map output")
        n, _, h, w = left_image.shape
        base = resize_nearest(small_disp.data[:, 0], h, w, is_disparity=True)
        match = auto_shift_conv(left_image, right_image, base,
                                self._p("refine.match.w"),
                                self._p("refine.match.b"))
        x = concat_channels([match, coarse_disp])
        x = leaky_relu(conv2d(x, self._p("refine.c1.w"),
                              self._p("refine.c1.b"), padding=1))
        x = leaky_relu(conv2d(x, self._p("refine.c2.w"),
                              self._p("refine.c2.b"), padding=1))
        return conv2d(x, self._p("refine.c3.w"), self._p("refine.c3.b"),
                      padding=1)

    # -- full pass ------------------------------------------------------------

    def forward(self, left: Tensor, right: Tensor,
                refine: bool | None = None) -> ForwardOutputs:
        if left.shape != right.shape:
            raise ContractViolation(
                f"stereo pair shape mismatch: {tuple(left.shape)} vs "
                f"{tuple(right.shape)}"
            )
        n, c, h, w = left.shape
        if h % 64 or w % 64:
            raise ContractViolation(
                f"input extents must be divisible by 64; got {h}x{w}"
            )
        do_refine = self.config.refine_enabled if refine is None else refine

        left_feat, l_half, l_quarter = self.feature_extract(left)
        right_feat, _, _ = self.feature_extract(right)
        cost = self.build_cost_volume(left_feat, right_feat)
        bottleneck, enc_skips = self.encode(cost, left_feat)
        _, coarse, small = self.decode(bottleneck, enc_skips,
                                       (l_quarter, l_half), left)
        refined = self.refine(coarse, small, left, right) if do_refine else None
        return ForwardOutputs(
            coarse_disp=coarse,
            small_disp=small,
            refined_disp=refined,
            left_feat=left_feat,
            right_feat=right_feat,
            feat_skips=(l_quarter, l_half),
            cost_volume=cost,
            encoder_skips=enc_skips,
            bottleneck=bottleneck,
        )


def desk_config(**overrides) -> NetworkConfig:
    """A small configuration that trains in minutes on a CPU."""
    base = dict(
        image_channels=1,
        feat_channels=(8, 8, 16, 16),
        redir_channels=8,
        encode_channels=(32, 32, 32, 32),
        decode_channels=(32, 32, 16, 16, 16, 16),
        shift_cfg=ShiftConvConfig(maxdisp=8, clue_filters=8),
        cost_volume=SHIFT_CONV,
        refine_enabled=True,
        small_map_scale=4,
    )
    base.update(overrides)
    return NetworkConfig(**base)


def tiny_config(**overrides) -> NetworkConfig:
    """Minimal channel widths for finite-difference gradient runs."""
    base = dict(
        image_channels=1,
        feat_channels=(2, 2, 2, 2),
        redir_channels=2,
        encode_channels=(4, 4, 4, 4),
        decode_channels=(4, 4, 4, 4, 4, 4),
        shift_cfg=ShiftConvConfig(maxdisp=1, clue_filters=2),
        cost_volume=SHIFT_CONV,
        refine_enabled=True,
        small_map_scale=4,
    )
    base.update(overrides)
    return NetworkConfig(**base)
