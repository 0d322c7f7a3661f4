"""Synthetic stereo pairs with exact ground truth, plus file codecs.

The generator paints a textured background plane and a handful of textured
rectangles at integer disparities, rendering the same texture arrays into
both views so the correspondence ``left[c, y, x] == right[c, y, x - d]``
holds bit-exactly on every pixel visible in both views.  Codecs cover PFM
(the float disparity format) and binary PGM/PPM images; `resize_nearest`
implements nearest-neighbor resizing with the disparity pixel-unit
correction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autograd import ContractViolation


class CodecError(ValueError):
    """Malformed file content; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class StereoSample:
    """One rectified pair with left-reference ground truth.

    `left`/`right` are (C, H, W) float32 arrays in [0, 1]; `gt_disp` is an
    (H, W) float32 disparity map in pixels; `occlusion_mask` is True where
    the pixel is visible in both views.
    """

    left: np.ndarray
    right: np.ndarray
    gt_disp: np.ndarray
    occlusion_mask: np.ndarray

    @property
    def height(self) -> int:
        return self.left.shape[1]

    @property
    def width(self) -> int:
        return self.left.shape[2]


# the side of the smallest rectangle the generator paints, and so the
# smallest image extent it can paint one into
MIN_EXTENT = 4
# pairs generated when neither `gen --count` nor `synth_count` is given
SYNTH_COUNT = 4


@dataclass
class SynthConfig:
    width: int = 128
    height: int = 64
    num_shapes: int = 4
    disp_min: int = 1
    disp_max: int = 8
    background_disp: int = 2
    seed: int = 0
    channels: int = 1

    def __post_init__(self):
        if min(self.height, self.width) < MIN_EXTENT:
            raise ContractViolation(
                f"height and width must be at least {MIN_EXTENT}; got "
                f"{self.height}x{self.width}"
            )
        if self.num_shapes < 0 or self.seed < 0:
            raise ContractViolation(
                f"num_shapes and seed must be >= 0; got {self.num_shapes} "
                f"and {self.seed}"
            )
        if not (0 <= self.disp_min <= self.disp_max < self.width / 2):
            raise ContractViolation(
                f"need 0 <= disp_min <= disp_max < width/2; got "
                f"[{self.disp_min}, {self.disp_max}] for width {self.width}"
            )
        if not (0 <= self.background_disp < self.width / 2):
            raise ContractViolation(
                f"background_disp {self.background_disp} outside [0, width/2)"
            )
        if self.channels not in (1, 3):
            raise ContractViolation(f"channels must be 1 or 3; got {self.channels}")


def _smooth_texture(rng: np.random.Generator, channels: int, h: int, w: int,
                    cell: int = 4) -> np.ndarray:
    """Seeded noise that is smooth at the pixel scale but never flat.

    Bilinear interpolation of a coarse random grid plus a small high
    frequency component keeps local contrast everywhere, so matching is
    well posed at any window size above one pixel."""
    gh, gw = h // cell + 2, w // cell + 2
    grid = rng.uniform(0.1, 0.9, size=(channels, gh, gw))
    ys = np.arange(h) / cell
    xs = np.arange(w) / cell
    y0 = ys.astype(np.int64)
    x0 = xs.astype(np.int64)
    fy = (ys - y0)[None, :, None]
    fx = (xs - x0)[None, None, :]
    g00 = grid[:, y0][:, :, x0]
    g01 = grid[:, y0][:, :, x0 + 1]
    g10 = grid[:, y0 + 1][:, :, x0]
    g11 = grid[:, y0 + 1][:, :, x0 + 1]
    base = (g00 * (1 - fy) * (1 - fx) + g01 * (1 - fy) * fx
            + g10 * fy * (1 - fx) + g11 * fy * fx)
    detail = rng.uniform(-0.06, 0.06, size=(channels, h, w))
    return np.clip(base + detail, 0.0, 1.0).astype(np.float32)


def gen_synthetic_pair(cfg: SynthConfig) -> StereoSample:
    """Render a stereo pair with exact integer ground-truth disparity.

    Elements are drawn back to front (background first, then rectangles
    sorted by disparity, nearest last).  Each element's texture array is
    indexed identically for both views, so correspondence on visible pixels
    is bit-exact.  Deterministic in `cfg.seed`.
    """
    rng = np.random.default_rng(cfg.seed)
    w, h, c = cfg.width, cfg.height, cfg.channels

    # Element = (x0, x1, y0, y1, disparity, texture); coordinates are in the
    # left view.  The background extends width-wise by its disparity so the
    # right view is fully covered.
    bg_d = int(cfg.background_disp)
    elements = [(0, w + bg_d, 0, h, bg_d,
                 _smooth_texture(rng, c, h, w + bg_d))]
    shapes = []
    for _ in range(cfg.num_shapes):
        d = int(rng.integers(cfg.disp_min, cfg.disp_max + 1))
        sw = int(rng.integers(max(MIN_EXTENT, w // 8), max(MIN_EXTENT + 1, w // 3)))
        sh = int(rng.integers(max(MIN_EXTENT, h // 8), max(MIN_EXTENT + 1, h // 2)))
        x0 = int(rng.integers(0, w - sw + 1))
        y0 = int(rng.integers(0, h - sh + 1))
        shapes.append((x0, x0 + sw, y0, y0 + sh, d,
                       _smooth_texture(rng, c, sh, sw)))
    # Painter's order: smaller disparity = farther away = painted first.
    shapes.sort(key=lambda e: e[4])
    elements += shapes

    left = np.zeros((c, h, w), dtype=np.float32)
    right = np.zeros((c, h, w), dtype=np.float32)
    gt = np.zeros((h, w), dtype=np.float32)
    owner_left = np.full((h, w), -1, dtype=np.int64)
    owner_right = np.full((h, w), -1, dtype=np.int64)

    for eid, (x0, x1, y0, y1, d, tex) in enumerate(elements):
        lx0, lx1 = max(x0, 0), min(x1, w)
        if lx0 < lx1:
            left[:, y0:y1, lx0:lx1] = tex[:, :, lx0 - x0 : lx1 - x0]
            gt[y0:y1, lx0:lx1] = d
            owner_left[y0:y1, lx0:lx1] = eid
        rx0, rx1 = max(x0 - d, 0), min(x1 - d, w)
        if rx0 < rx1:
            right[:, y0:y1, rx0:rx1] = tex[:, :, rx0 + d - x0 : rx1 + d - x0]
            owner_right[y0:y1, rx0:rx1] = eid

    xs = np.arange(w)[None, :]
    target = xs - gt.astype(np.int64)
    in_view = (target >= 0) & (target < w)
    tclip = np.clip(target, 0, w - 1)
    ys = np.arange(h)[:, None]
    same_owner = owner_right[ys, tclip] == owner_left
    occlusion = in_view & same_owner

    return StereoSample(left=left, right=right, gt_disp=gt,
                        occlusion_mask=occlusion)


# ---------------------------------------------------------------------------
# PFM codec (float maps, bottom-to-top rows, endianness in the scale sign)
# ---------------------------------------------------------------------------

def _next_token(buf: bytes, pos: int) -> tuple[bytes, int, int]:
    """Whitespace-delimited token starting at or after `pos`.

    Returns (token, token_start, next_pos)."""
    n = len(buf)
    while pos < n and buf[pos : pos + 1].isspace():
        pos += 1
    if pos >= n:
        raise CodecError("unexpected end of header", n)
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    return buf[start:pos], start, pos


def read_pfm(data: bytes) -> np.ndarray:
    """Decode PFM bytes to a float32 array, (H, W) for Pf or (3, H, W) for PF.

    Rows are stored bottom to top; a negative scale marks little-endian
    payload; |scale| != 1 multiplies the decoded values."""
    magic, start, pos = _next_token(data, 0)
    if magic not in (b"Pf", b"PF"):
        raise CodecError(f"bad PFM magic {magic!r}", start)
    channels = 3 if magic == b"PF" else 1

    tok, start, pos = _next_token(data, pos)
    try:
        width = int(tok)
    except ValueError:
        raise CodecError(f"bad PFM width {tok!r}", start) from None
    tok, start, pos = _next_token(data, pos)
    try:
        height = int(tok)
    except ValueError:
        raise CodecError(f"bad PFM height {tok!r}", start) from None
    if width <= 0 or height <= 0:
        raise CodecError(f"non-positive PFM extents {width}x{height}", start)

    tok, start, pos = _next_token(data, pos)
    try:
        scale = float(tok)
    except ValueError:
        raise CodecError(f"bad PFM scale {tok!r}", start) from None
    # the decoded values are multiplied by |scale| as a float32
    magnitude = abs(scale)
    if (not 0 < magnitude <= float(np.finfo(np.float32).max)
            or np.float32(magnitude) == 0):
        raise CodecError(
            f"PFM scale must be finite and nonzero in float32; got {tok!r}", start)

    pos += 1  # exactly one whitespace byte separates header and payload
    count = width * height * channels
    need = count * 4
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise CodecError(
            f"truncated PFM payload: need {need} bytes, have {len(payload)}",
            pos + len(payload),
        )
    dtype = "<f4" if scale < 0 else ">f4"
    values = np.frombuffer(payload, dtype=dtype, count=count).astype(np.float32)
    if magnitude != 1.0:
        # an overflowing product is inf, the value PFM already uses for
        # unknown pixels
        with np.errstate(over="ignore"):
            values = values * np.float32(magnitude)
    if channels == 1:
        return values.reshape(height, width)[::-1].copy()
    img = values.reshape(height, width, 3)[::-1]
    return np.ascontiguousarray(img.transpose(2, 0, 1))


def write_pfm(array: np.ndarray) -> bytes:
    """Encode an (H, W), (1, H, W) or (3, H, W) float array as PFM bytes.

    Writes the canonical little-endian header (scale -1.0); a write-read
    round trip is bit-exact."""
    arr = np.asarray(array, dtype=np.float32)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim == 2:
        magic, payload = b"Pf", arr[::-1]
    elif arr.ndim == 3 and arr.shape[0] == 3:
        magic, payload = b"PF", arr.transpose(1, 2, 0)[::-1]
    else:
        raise ContractViolation(f"cannot encode shape {arr.shape} as PFM")
    h, w = payload.shape[:2]
    header = magic + b"\n" + f"{w} {h}".encode() + b"\n-1.0\n"
    return header + np.ascontiguousarray(payload, dtype="<f4").tobytes()


# ---------------------------------------------------------------------------
# binary PGM (P5) / PPM (P6)
# ---------------------------------------------------------------------------

def _next_pnm_token(buf: bytes, pos: int) -> tuple[bytes, int, int]:
    """PNM header token; '#' starts a comment running to end of line."""
    n = len(buf)
    while pos < n:
        ch = buf[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise CodecError("unexpected end of header", n)
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    return buf[start:pos], start, pos


def read_pnm(data: bytes) -> np.ndarray:
    """Decode binary PGM/PPM bytes to a (C, H, W) float32 array in [0, 1]."""
    magic, start, pos = _next_pnm_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise CodecError(f"unsupported PNM magic {magic!r}", start)
    channels = 3 if magic == b"P6" else 1

    dims = []
    for what in ("width", "height", "maxval"):
        tok, start, pos = _next_pnm_token(data, pos)
        try:
            dims.append(int(tok))
        except ValueError:
            raise CodecError(f"bad PNM {what} {tok!r}", start) from None
    width, height, maxval = dims
    if width <= 0 or height <= 0:
        raise CodecError(f"non-positive PNM extents {width}x{height}", start)
    if maxval not in (255, 65535):
        raise CodecError(f"unsupported PNM maxval {maxval}", start)

    pos += 1  # single whitespace byte before the raster
    count = width * height * channels
    itemsize = 1 if maxval == 255 else 2
    need = count * itemsize
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise CodecError(
            f"truncated PNM raster: need {need} bytes, have {len(payload)}",
            pos + len(payload),
        )
    dtype = np.uint8 if maxval == 255 else ">u2"
    raw = np.frombuffer(payload, dtype=dtype, count=count)
    values = (raw.astype(np.float32) / np.float32(maxval))
    if channels == 1:
        return values.reshape(1, height, width)
    return np.ascontiguousarray(
        values.reshape(height, width, 3).transpose(2, 0, 1)
    )


def write_pnm(array: np.ndarray, maxval: int = 255) -> bytes:
    """Encode a (C, H, W) or (H, W) float array in [0, 1] as binary PGM/PPM."""
    arr = np.asarray(array, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise ContractViolation(f"cannot encode shape {arr.shape} as PNM")
    if maxval not in (255, 65535):
        raise ContractViolation(f"unsupported PNM maxval {maxval}")
    c, h, w = arr.shape
    magic = b"P5" if c == 1 else b"P6"
    q = np.clip(np.rint(arr * maxval), 0, maxval)
    q = q.astype(np.uint8 if maxval == 255 else ">u2")
    raster = q[0] if c == 1 else q.transpose(1, 2, 0)
    header = magic + b"\n" + f"{w} {h}\n{maxval}\n".encode()
    return header + np.ascontiguousarray(raster).tobytes()


def encode_disparity_pnm(disp: np.ndarray, disp_cap: float) -> bytes:
    """Map disparities [0, disp_cap] linearly onto an 8-bit PGM."""
    if not 0 < disp_cap < np.inf:
        raise ContractViolation(
            f"disp_cap must be positive and finite; got {disp_cap}")
    return write_pnm(np.clip(np.asarray(disp, np.float32) / disp_cap, 0, 1))


# ---------------------------------------------------------------------------
# resizing
# ---------------------------------------------------------------------------

def resize_nearest(array: np.ndarray, new_h: int, new_w: int,
                   is_disparity: bool = False) -> np.ndarray:
    """Nearest-neighbor resize of an (H, W) or (C, H, W) array.

    Source index = floor((dst + 0.5) * src / dst), computed exactly in
    integers.  Disparity maps additionally scale values by new_w/old_w so
    they stay measured in their own pixel units."""
    if new_h <= 0 or new_w <= 0:
        raise ContractViolation(f"target extents must be positive; got "
                                f"{new_h}x{new_w}")
    arr = np.asarray(array)
    squeeze = arr.ndim == 2
    if squeeze:
        arr = arr[None]
    c, h, w = arr.shape
    ys = ((2 * np.arange(new_h) + 1) * h) // (2 * new_h)
    xs = ((2 * np.arange(new_w) + 1) * w) // (2 * new_w)
    out = arr[:, ys][:, :, xs]
    if is_disparity:
        # multiply before dividing so integer-valued maps stay exact
        out = out * arr.dtype.type(new_w) / arr.dtype.type(w)
    out = np.ascontiguousarray(out)
    return out[0] if squeeze else out


# ---------------------------------------------------------------------------
# dataset directory layout: <root>/{left,right,disp}/<id>.(pgm|ppm|pfm)
# ---------------------------------------------------------------------------

_IMAGE_SUFFIXES = (".pgm", ".ppm", ".pfm")


def write_dataset(root, samples) -> list[str]:
    """Write samples under `root` in the standard layout; returns the ids.

    Images go to left/ and right/ as PGM or PPM, ground truth to disp/ as
    PFM, and the occlusion mask to occ/ as PGM (255 = visible in both
    views)."""
    root = Path(root)
    for sub in ("left", "right", "disp", "occ"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    ids = []
    for i, s in enumerate(samples):
        sid = f"{i:06d}"
        suffix = ".pgm" if s.left.shape[0] == 1 else ".ppm"
        (root / "left" / (sid + suffix)).write_bytes(write_pnm(s.left))
        (root / "right" / (sid + suffix)).write_bytes(write_pnm(s.right))
        (root / "disp" / (sid + ".pfm")).write_bytes(write_pfm(s.gt_disp))
        (root / "occ" / (sid + ".pgm")).write_bytes(
            write_pnm(s.occlusion_mask.astype(np.float32))
        )
        ids.append(sid)
    return ids


def read_image(path) -> np.ndarray:
    """Read a PGM/PPM/PFM file as a (C, H, W) float32 array."""
    path = Path(path)
    data = path.read_bytes()
    if path.suffix == ".pfm":
        arr = read_pfm(data)
        return arr[None] if arr.ndim == 2 else arr
    return read_pnm(data)


def _find(root: Path, sub: str, sid: str) -> Path:
    for suffix in _IMAGE_SUFFIXES:
        p = root / sub / (sid + suffix)
        if p.exists():
            return p
    raise FileNotFoundError(f"no {sub} image for id {sid} under {root}")


def load_dataset(root) -> list[StereoSample]:
    """Load every sample under `root`; ids come from the left/ directory."""
    root = Path(root)
    left_dir = root / "left"
    if not left_dir.is_dir():
        raise FileNotFoundError(f"{left_dir} is not a directory")
    ids = sorted(p.stem for p in left_dir.iterdir()
                 if p.suffix in _IMAGE_SUFFIXES)
    if not ids:
        raise FileNotFoundError(f"no images under {left_dir}")
    samples = []
    for sid in ids:
        left = read_image(_find(root, "left", sid))
        right = read_image(_find(root, "right", sid))
        disp = read_pfm((root / "disp" / (sid + ".pfm")).read_bytes())
        occ_path = root / "occ" / (sid + ".pgm")
        if occ_path.exists():
            occ = read_pnm(occ_path.read_bytes())[0] > 0.5
        else:
            occ = np.ones(disp.shape, dtype=bool)
        samples.append(StereoSample(left=left, right=right,
                                    gt_disp=disp, occlusion_mask=occ))
    return samples
