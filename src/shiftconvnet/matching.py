"""Cost-volume construction by shift concatenation and learned matching.

This module holds the matching primitives: `shift_concat` aligns two
feature maps at a candidate displacement, `shift_conv_layer` turns the
full displacement sweep into a learned cost volume (two wiring variants),
`correlation_1d` is the fixed multiplicative baseline, and
`warp_horizontal` / `auto_shift_conv` implement the disparity-guided
matching used by the refinement head.

Displacement conventions follow the rectified-stereo setup: ground-truth
disparity d >= 0 means left[x] corresponds to right[x - d].  Slicing the
left map from start column d (left-shift with right-side zero padding)
therefore lines it up with the right map, and the mirrored right-map slice
(right-shift with left-side zero padding) lines up with the left map.
`_shift_pair` is that one alignment rule.  A sweep's shifts of a map are
views of one zero-extended copy of it, so the graph keeps two such copies,
not one shifted copy per displacement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import (
    ContractViolation,
    Tensor,
    accumulate_grad,
    add,
    concat_channels,
    conv2d,
    graph_out,
    hslice_pads,
    record_of,
)

CONV_THEN_CONCAT = "conv_then_concat"
CONCAT_THEN_CONV = "concat_then_conv"
_VARIANTS = (CONV_THEN_CONCAT, CONCAT_THEN_CONV)


@dataclass
class ShiftConvConfig:
    """Shape of the shift-convolution sweep.

    `maxdisp` is the maximum displacement at feature-map scale.  The scale
    set is the left-sliced displacements 0..maxdisp plus, when
    `both_directions` is set, the right-sliced displacements -1..-maxdisp,
    giving S = 2*maxdisp + 1 scales (displacement 0 appears once).
    `clue_filters` is the number of matching-clue filters F per scale.
    """

    maxdisp: int = 40
    clue_filters: int = 16
    variant: str = CONV_THEN_CONCAT
    both_directions: bool = True

    def __post_init__(self):
        if self.maxdisp < 1:
            raise ContractViolation(f"maxdisp must be >= 1; got {self.maxdisp}")
        if self.clue_filters < 1:
            raise ContractViolation(
                f"clue_filters must be >= 1; got {self.clue_filters}"
            )
        if self.variant not in _VARIANTS:
            raise ContractViolation(
                f"unknown shift-conv variant {self.variant!r}; "
                f"expected one of {_VARIANTS}"
            )

    def scales(self) -> list[int]:
        """Ordered displacement set; index k owns output channel group k."""
        out = list(range(self.maxdisp + 1))
        if self.both_directions:
            out += [-d for d in range(1, self.maxdisp + 1)]
        return out

    @property
    def num_scales(self) -> int:
        return 2 * self.maxdisp + 1 if self.both_directions else self.maxdisp + 1

    def output_channels(self) -> int:
        # F * S for either variant; the variants differ only in parameters.
        return self.clue_filters * self.num_scales

    def weight_shape(self, feat_channels: int) -> tuple[int, int, int, int]:
        if self.variant == CONV_THEN_CONCAT:
            return (self.clue_filters, 2 * feat_channels, 3, 3)
        s = self.num_scales
        return (self.clue_filters * s, 2 * feat_channels * s, 3, 3)


def _shift_pair(left: Tensor, right: Tensor,
                displacements) -> list[tuple[Tensor, Tensor]]:
    """(shifted, other) for each displacement d, in order: the pair
    aligned at d.

    d >= 0 slices the left map from column d (zeros on the right) and pairs
    it with the right map; d < 0 slices the right map with left-side zero
    padding and pairs it with the left map.  Each map's shifts are views of
    one zero-extended copy of it (`hslice_pads`), so a sweep copies each
    map once.
    """
    ds = [int(d) for d in displacements]
    lefts = iter(hslice_pads(left, [d for d in ds if d >= 0]))
    rights = iter(hslice_pads(right, [d for d in ds if d < 0]))
    return [(next(lefts), right) if d >= 0 else (next(rights), left) for d in ds]


def shift_concat(left: Tensor, right: Tensor, displacement: int) -> Tensor:
    """Align the pair at one displacement and stack channels.

    The shifted map's channels come first, then the other map's (see
    `_shift_pair` for which map shifts).  Output has 2C channels and
    unchanged spatial extents.
    """
    if left.shape != right.shape:
        raise ContractViolation(
            f"shift_concat shape mismatch: {tuple(left.shape)} vs "
            f"{tuple(right.shape)}"
        )
    return concat_channels(_shift_pair(left, right, (displacement,))[0])


def shift_conv_layer(left: Tensor, right: Tensor, cfg: ShiftConvConfig,
                     w: Tensor, b: Tensor | None = None) -> Tensor:
    """Learned cost volume over the configured displacement sweep.

    CONV_THEN_CONCAT applies one shared 3x3 (2C -> F) convolution plus
    activation to every aligned pair and concatenates the S outputs.
    CONCAT_THEN_CONV runs a single 3x3 (2C*S -> F*S) convolution plus
    activation over all S aligned pairs.  Either way the output is
    (N, F*S, H, W) and channel group k (channels k*F..(k+1)*F-1) belongs
    to scale index k of `cfg.scales()`.  The pairs are `conv2d` input
    sequences, so their channel concatenation is never built, and their
    shifted maps are views of one zero-extended copy per map.
    """
    if left.shape != right.shape:
        raise ContractViolation(
            f"shift_conv_layer shape mismatch: {tuple(left.shape)} vs "
            f"{tuple(right.shape)}"
        )
    expected = cfg.weight_shape(left.shape[1])
    if tuple(w.shape) != expected:
        raise ContractViolation(
            f"shift_conv_layer weights for variant {cfg.variant} must have "
            f"shape {expected}; got {tuple(w.shape)}"
        )
    if cfg.maxdisp >= left.shape[3]:
        raise ContractViolation(
            f"maxdisp {cfg.maxdisp} must be < feature width {left.shape[3]}"
        )

    if cfg.variant == CONV_THEN_CONCAT:
        groups = [conv2d(pair, w, b, padding=1, leaky=True)
                  for pair in _shift_pair(left, right, cfg.scales())]
        return concat_channels(groups)

    parts = [t for pair in _shift_pair(left, right, cfg.scales()) for t in pair]
    return conv2d(parts, w, b, padding=1, leaky=True)


def correlation_1d(left: Tensor, right: Tensor, maxdisp: int) -> Tensor:
    """Fixed multiplicative patch comparison over horizontal displacements.

    Channel d at pixel (y, x) is the channel mean of
    left[:, y, x] * right[:, y, x - d] (zero where x - d is out of range),
    for d in 0..maxdisp.  Differentiable in both inputs.
    """
    if left.shape != right.shape:
        raise ContractViolation(
            f"correlation_1d shape mismatch: {tuple(left.shape)} vs "
            f"{tuple(right.shape)}"
        )
    n, c, h, w = left.shape
    if maxdisp >= w:
        raise ContractViolation(f"maxdisp {maxdisp} must be < width {w}")
    if maxdisp < 0:
        raise ContractViolation(f"maxdisp must be >= 0; got {maxdisp}")

    inv_c = left.dtype.type(1.0 / c)
    ld, rd = left.data, right.data
    lr, rr = record_of(left), record_of(right)
    out = np.zeros((n, maxdisp + 1, h, w), dtype=ld.dtype)
    for d in range(maxdisp + 1):
        out[:, d, :, d:] = np.einsum(
            "nchw->nhw", ld[:, :, :, d:] * rd[:, :, :, : w - d]
        ) * inv_c

    def bwd(g):
        dl = np.zeros_like(ld) if lr.requires_grad else None
        dr = np.zeros_like(rd) if rr.requires_grad else None
        for d in range(maxdisp + 1):
            gd = g[:, d : d + 1, :, d:] * inv_c
            if dl is not None:
                dl[:, :, :, d:] += gd * rd[:, :, :, : w - d]
            if dr is not None:
                dr[:, :, :, : w - d] += gd * ld[:, :, :, d:]
        if dl is not None:
            accumulate_grad(lr, dl)
        if dr is not None:
            accumulate_grad(rr, dr)

    return graph_out(out, (left, right), bwd)


def round_half_away(values: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero (not banker's)."""
    return np.sign(values) * np.floor(np.abs(values) + 0.5)


def _normalize_disparity(disparity: np.ndarray, n: int, h: int, w: int,
                         op: str) -> np.ndarray:
    disp = np.asarray(disparity)
    if disp.ndim == 2 and disp.shape == (h, w):
        disp = np.broadcast_to(disp, (n, h, w))
    if disp.shape != (n, h, w):
        raise ContractViolation(
            f"{op} disparity shape {disp.shape} does not match source "
            f"spatial extents ({n}, {h}, {w})"
        )
    return disp


def warp_horizontal(source: Tensor, disparity: np.ndarray) -> Tensor:
    """Gather source columns at x - round(disparity), zero out of range.

    `disparity` is a plain (H, W) or (N, H, W) array in pixels; the warp is
    a nearest-neighbor gather, differentiable in `source` only.
    """
    n, c, h, w = source.shape
    disp = _normalize_disparity(disparity, n, h, w, "warp_horizontal")
    xs = np.arange(w)[None, None, :]
    idx = (xs - round_half_away(disp)).astype(np.int64)
    valid = (idx >= 0) & (idx < w)
    idx_c = np.clip(idx, 0, w - 1)[:, None, :, :]  # (N, 1, H, W)
    gathered = np.take_along_axis(
        source.data, np.broadcast_to(idx_c, source.shape), axis=3
    )
    mask = valid[:, None, :, :].astype(source.data.dtype)
    out = gathered * mask
    sr = record_of(source)

    def bwd(g):
        if not sr.requires_grad:
            return
        ds = np.zeros(sr.shape, sr.dtype)
        gm = g * mask
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        yy = np.arange(h)[None, None, :, None]
        np.add.at(ds, (nn, cc, yy, np.broadcast_to(idx_c, sr.shape)), gm)
        accumulate_grad(sr, ds)

    return graph_out(out, (source,), bwd)


# the refinement head's sweep around its guide disparity: deltas -2 .. 2
AUTO_SHIFT_DELTA_RANGE = 2


def auto_shift_conv(left_img: Tensor, right_img: Tensor, base_disp: np.ndarray,
                    w: Tensor, b: Tensor | None = None,
                    delta_range: int = AUTO_SHIFT_DELTA_RANGE) -> Tensor:
    """Disparity-guided matching map on the image pair.

    For each delta in [-delta_range, delta_range] the right image is warped
    by base_disp + delta and, after the left image's channels, run through
    one shared 3x3 convolution plus activation; the per-delta
    results are summed elementwise, so the output channel count equals the
    filter count regardless of how many deltas are swept.
    """
    if left_img.shape != right_img.shape:
        raise ContractViolation(
            f"auto_shift_conv image shape mismatch: {tuple(left_img.shape)} "
            f"vs {tuple(right_img.shape)}"
        )
    n, c, h, wd = left_img.shape
    disp = _normalize_disparity(base_disp, n, h, wd, "auto_shift_conv")
    if w.shape[1] != 2 * c:
        raise ContractViolation(
            f"auto_shift_conv weights must take {2 * c} input channels; "
            f"got {w.shape[1]}"
        )
    terms = [conv2d((left_img, warp_horizontal(right_img, disp + delta)), w, b,
                    padding=1, leaky=True)
             for delta in range(-delta_range, delta_range + 1)]
    return add(*terms) if len(terms) > 1 else terms[0]
