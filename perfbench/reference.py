"""Independent float64 forward pass of the ShiftConvNet wiring.

Plain numpy only; nothing here imports shiftconvnet.  Each operator is
written from its definition rather than from the program's kernels:
convolution as a correlation over sliding windows, the transposed
convolution as zero insertion followed by a correlation with the flipped
kernel, pooling as a reshape-max, shifts and warps as explicit index
arithmetic.  `forward` follows the wiring that the docstrings of
`shiftconvnet/network.py` describe (shared feature towers, shift-conv cost
volume, redirected left features, four conv+pool encoder stages, six
deconv+smooth decoder blocks with skips, small and coarse heads, and the
warp-guided refinement head).
"""

from __future__ import annotations

import numpy as np

SLOPE = 0.1
DELTA_RANGE = 2
ROW_BLOCK = 32  # output rows per window block; bounds the im2col copy


def conv2d(x, w, b=None, stride=1, padding=1):
    """out[n,o,y,x] = b[o] + sum_{c,i,j} w[o,c,i,j] xpad[n,c,s*y+i,s*x+j]."""
    kh, kw = w.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    rows = []
    for y0 in range(0, win.shape[2], ROW_BLOCK):
        rows.append(np.einsum("nchwij,ocij->nohw", win[:, :, y0:y0 + ROW_BLOCK],
                              w, optimize=True))
    out = np.concatenate(rows, axis=2)
    return out if b is None else out + b.reshape(1, -1, 1, 1)


def transposed_conv2d(x, w, b=None, stride=2, padding=1):
    """Adjoint of the strided `conv2d`; `w` is (in, out, kH, kW).

    Insert stride-1 zeros between input pixels, pad by k-1-p, and
    correlate with the spatially flipped kernel whose channel axes are
    swapped."""
    n, c, h, wd = x.shape
    kh, kw = w.shape[2:]
    up = np.zeros((n, c, (h - 1) * stride + 1, (wd - 1) * stride + 1))
    up[:, :, ::stride, ::stride] = x
    up = np.pad(up, ((0, 0), (0, 0), (kh - 1 - padding,) * 2,
                     (kw - 1 - padding,) * 2))
    flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return conv2d(up, flipped, b, stride=1, padding=0)


def maxpool2d(x):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def leaky_relu(x):
    return np.where(x >= 0, x, SLOPE * x)


def hshift(x, d):
    """out[..., X] = x[..., X + d] where that column exists, else 0."""
    w = x.shape[-1]
    src = np.arange(w) + d
    inside = (src >= 0) & (src < w)
    return np.where(inside, x[..., np.clip(src, 0, w - 1)], 0.0)


def round_half_away(v):
    return np.where(v >= 0, np.floor(v + 0.5), -np.floor(0.5 - v))


def warp(source, disparity):
    """out[n,c,y,X] = source[n,c,y,X - round(disparity[n,y,X])], 0 outside."""
    n, c, h, w = source.shape
    src = np.arange(w)[None, None, :] - round_half_away(disparity)
    src = src.astype(np.int64)
    inside = (src >= 0) & (src < w)
    nn, yy = np.meshgrid(np.arange(n), np.arange(h), indexing="ij")
    gathered = source[nn[:, :, None], :, yy[:, :, None], np.clip(src, 0, w - 1)]
    # advanced indexing put the channel axis last: (N, H, W, C)
    gathered = gathered.transpose(0, 3, 1, 2)
    return np.where(inside[:, None], gathered, 0.0)


def resize_nearest(a, new_h, new_w, is_disparity=False):
    """(N, H, W) nearest resize; source index floor((dst + 1/2) * src / dst)."""
    h, w = a.shape[-2:]
    ys = np.floor((np.arange(new_h) + 0.5) * h / new_h).astype(np.int64)
    xs = np.floor((np.arange(new_w) + 0.5) * w / new_w).astype(np.int64)
    out = a[..., ys, :][..., xs]
    return out * (new_w / w) if is_disparity else out


def cost_volume(left, right, w, b, maxdisp, both_directions=True):
    """Conv-then-concat shift convolution: one shared 3x3 conv plus
    activation per displacement, groups ordered 0..D then -1..-D."""
    scales = list(range(maxdisp + 1))
    if both_directions:
        scales += [-d for d in range(1, maxdisp + 1)]
    groups = []
    for d in scales:
        pair = (np.concatenate([hshift(left, d), right], axis=1) if d >= 0
                else np.concatenate([hshift(right, d), left], axis=1))
        groups.append(leaky_relu(conv2d(pair, w, b)))
    return np.concatenate(groups, axis=1)


def _layer(p, name, x):
    return leaky_relu(conv2d(x, p[name + ".w"], p[name + ".b"]))


def features(p, image):
    x = _layer(p, "feat.conv1", image)
    x = maxpool2d(_layer(p, "feat.conv2", x))
    x = _layer(p, "feat.conv3", x)
    half = _layer(p, "feat.conv4", x)
    return maxpool2d(half), half


def forward(params, left, right, maxdisp, both_directions=True,
            small_map_scale=4, warp_base_small=None):
    """Return (coarse, small, refined), each (N, 1, h, w) float64.

    `params` maps the program's parameter names to arrays.  The refinement
    warp rounds the upsampled small map to whole pixels; a rounding input
    within an ulp of a half-pixel boundary can round either way in two
    correct implementations, so `warp_base_small` lets a caller steer the
    warp with a given small map (for example the program's own) while every
    other value is computed here."""
    p = {k: np.asarray(v, np.float64) for k, v in params.items()}
    left = np.asarray(left, np.float64)
    right = np.asarray(right, np.float64)
    lfeat, lhalf = features(p, left)
    rfeat, _ = features(p, right)
    cost = cost_volume(lfeat, rfeat, p["shift.clue.w"], p["shift.clue.b"],
                       maxdisp, both_directions)

    x = np.concatenate([cost, _layer(p, "redir", lfeat)], axis=1)
    enc = []
    for i in range(5, 9):
        x = maxpool2d(_layer(p, f"enc.conv{i}", x))
        enc.append(x)

    skips = (enc[2], enc[1], enc[0], lfeat, lhalf, left)
    small_block = 6 - small_map_scale.bit_length() + 1
    small = None
    x = enc[3]
    for i in range(1, 7):
        x = leaky_relu(transposed_conv2d(x, p[f"dec.b{i}.up.w"],
                                         p[f"dec.b{i}.up.b"]))
        x = _layer(p, f"dec.b{i}.sm", np.concatenate([x, skips[i - 1]], axis=1))
        if i == small_block:
            small = conv2d(x, p["head.small.w"], p["head.small.b"])
    coarse = conv2d(x, p["head.coarse.w"], p["head.coarse.b"])

    n, _, h, w = left.shape
    steer = small if warp_base_small is None else np.asarray(warp_base_small)
    base = resize_nearest(steer[:, 0], h, w, is_disparity=True)
    match = 0.0
    for delta in range(-DELTA_RANGE, DELTA_RANGE + 1):
        pair = np.concatenate([left, warp(right, base + delta)], axis=1)
        match = match + leaky_relu(conv2d(pair, p["refine.match.w"],
                                          p["refine.match.b"]))
    x = np.concatenate([match, coarse], axis=1)
    x = _layer(p, "refine.c1", x)
    x = _layer(p, "refine.c2", x)
    refined = conv2d(x, p["refine.c3.w"], p["refine.c3.b"])
    return coarse, small, refined
