"""Dense rank-4 tensors with reverse-mode automatic differentiation.

Every value in the pipeline (images, feature maps, cost volumes, disparity
maps, scalar losses) lives in a `Tensor`: a (batch, channels, height, width)
numpy array plus optional gradient tracking.  Operations record parent links
on their outputs; `backward` walks the recorded graph once in reverse
topological order and accumulates gradients additively into every
grad-tracked tensor on the path.

float32 is the working precision.  float64 inputs propagate through every
op unchanged and exist for finite-difference gradient checking
(`grad_check`).

Convolution uses the cross-correlation convention (no kernel flip) with
zero padding.  The transposed convolution is defined as the adjoint of the
corresponding strided convolution, so `<conv(x), y> == <x, tconv(y)>` for
matched weights.

Stride-1 convolutions work on a flat-offset layout.  The input is
zero-padded once into an (N, C, Hp*Wp + kW - 1) buffer whose rows are
flattened, with Hp, Wp the padded extents.  Computed over the padded width,
output pixel m = y*Wp + x reads tap (i, j) at flat index m + i*Wp + j, so
each tap's operand for all oH*Wp pixels is one contiguous run starting at
offset i*Wp + j: a view that goes straight to one GEMM per tap, where
slicing the (N, C, H, W) map would copy it.  The last kW - 1 columns of
each output row straddle a row boundary; the forward crops them once, and
the gradients zero them in dy first.  Strided and transposed convolutions
run the same cores: a stride-s conv is a stride-1 conv with a ceil(k/s)
kernel once `_fold` moves the s*s phases of map and kernel into channels
(Shi et al., arXiv 1609.07009); `_unfold`, its adjoint, moves them back.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ContractViolation(ValueError):
    """An operation was invoked outside its documented contract."""


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A (N, C, H, W) value grid, optionally tracked for gradients.

    `data` is always a rank-4 float32 or float64 numpy array.  `grad`, when
    present, has the same shape and dtype as `data`.  Tensors are treated
    as immutable after creation except for gradient accumulation during
    `backward` and in-place parameter updates by the optimizer (which must
    happen outside any recorded graph).
    """

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if arr.ndim != 4:
            raise ContractViolation(
                f"tensors are rank-4 (N, C, H, W); got shape {arr.shape}"
            )
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Callable | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation(f"item() on non-scalar tensor {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return (
            f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, "
            f"requires_grad={self.requires_grad})"
        )


def graph_out(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Wrap an op result, recording parents only when gradients are needed.

    `backward(grad)` must accumulate into the parents via `accumulate_grad`.
    Subgraphs with no grad-tracked leaves are pruned at record time.
    """
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def accumulate_grad(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative post-order: parents appear before their consumers.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar loss.

    Afterwards every grad-tracked tensor reachable from `loss` holds
    d(loss)/d(tensor); fan-out contributions accumulate additively.  Each
    graph record is visited exactly once.
    """
    if loss.data.size != 1:
        raise ContractViolation(
            f"backward requires a scalar loss; got shape {tuple(loss.shape)}"
        )
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# convolution cores (shared by conv2d / transposed_conv2d forward + backward)
# ---------------------------------------------------------------------------

def _flat_pad(x: np.ndarray, p: int, kw: int) -> np.ndarray:
    """Zero-pad by p and flatten rows: (N, C, H, W) -> (N, C, Hp*Wp + kW - 1).

    The kW - 1 trailing zeros let the last tap's run end inside the buffer.
    """
    n, c, h, wd = x.shape
    hp, wp = h + 2 * p, wd + 2 * p
    xp = np.zeros((n, c, hp * wp + kw - 1), dtype=x.dtype)
    xp[:, :, : hp * wp].reshape(n, c, hp, wp)[:, :, p : p + h, p : p + wd] = x
    return xp


def _flat_grid(dy: np.ndarray, wp: int) -> np.ndarray:
    """Zero-fill (N, O, oH, oW) into the padded-width grid (N, O, oH*Wp)."""
    n, oc, oh, ow = dy.shape
    grid = np.zeros((n, oc, oh, wp), dtype=dy.dtype)
    grid[..., :ow] = dy
    return grid.reshape(n, oc, oh * wp)


def _tap_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ b; a one-term sum is a broadcast product, exact and faster."""
    if a.shape[-1] == 1:
        return np.multiply(a, b, out=out)
    return np.matmul(a, b, out=out)


def _fold(x: np.ndarray, s: int, p: int) -> np.ndarray:
    """Zero-pad by p up to a multiple of s and move the s*s phases into channels.

    out[n, (c*s + r)*s + q, a, b] = xpad[n, c, a*s + r, b*s + q]
    """
    n, c, h, wd = x.shape
    fh, fw = -(-(h + 2 * p) // s), -(-(wd + 2 * p) // s)
    xp = np.zeros((n, c, fh * s, fw * s), dtype=x.dtype)
    xp[:, :, p : p + h, p : p + wd] = x
    return xp.reshape(n, c, fh, s, fw, s).transpose(0, 1, 3, 5, 2, 4).reshape(n, -1, fh, fw)


def _unfold(f: np.ndarray, s: int, p: int, hw: tuple[int, int]) -> np.ndarray:
    """Adjoint of `_fold`: interleave the phases back, then crop p and the tail."""
    n, _, fh, fw = f.shape
    x = f.reshape(n, -1, s, s, fh, fw).transpose(0, 1, 4, 2, 5, 3)
    x = x.reshape(n, -1, fh * s, fw * s)
    return np.ascontiguousarray(x[:, :, p : p + hw[0], p : p + hw[1]])


def _conv_core(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """out[n,o,y,x] = sum_{c,i,j} w[o,c,i,j] * xpad[n,c,y*s+i,x*s+j].

    The result is a cropped view of the padded-width grid.
    """
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    if stride > 1:
        out = _conv_core(_fold(x, stride, padding), _fold(w, stride, 0), 1, 0)
        return out[..., :oh, :ow]
    wp = wd + 2 * padding
    m = oh * wp
    xp = _flat_pad(x, padding, kw)
    acc = _tap_product(w[:, :, 0, 0], xp[:, :, :m], np.empty((n, oc, m), x.dtype))
    prod = np.empty_like(acc)
    for i in range(kh):
        for j in range(kw):
            if i or j:
                off = i * wp + j
                acc += _tap_product(w[:, :, i, j], xp[:, :, off : off + m], prod)
    return acc.reshape(n, oc, oh, wp)[..., :ow]


def _conv_input_grad(dy: np.ndarray, w: np.ndarray, stride: int, padding: int,
                     in_hw: tuple[int, int]) -> np.ndarray:
    """Adjoint of `_conv_core` in its input: scatter dy back through w."""
    n, oc, oh, ow = dy.shape
    _, ic, kh, kw = w.shape
    h, wd = in_hw
    if stride > 1:
        fhw = (-(-(h + 2 * padding) // stride), -(-(wd + 2 * padding) // stride))
        df = _conv_input_grad(dy, _fold(w, stride, 0), 1, 0, fhw)
        return _unfold(df, stride, padding, in_hw)
    hp, wp = h + 2 * padding, wd + 2 * padding
    m = oh * wp
    dyf = _flat_grid(dy, wp)
    dxp = np.zeros((n, ic, hp * wp + kw - 1), dtype=dy.dtype)
    prod = np.empty((n, ic, m), dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            off = i * wp + j
            dxp[:, :, off : off + m] += _tap_product(w[:, :, i, j].T, dyf, prod)
    dxp = dxp[:, :, : hp * wp].reshape(n, ic, hp, wp)
    return np.ascontiguousarray(dxp[:, :, padding : padding + h, padding : padding + wd])


def _conv_weight_grad(x: np.ndarray, dy: np.ndarray, stride: int, padding: int,
                      kshape: tuple[int, int]) -> np.ndarray:
    """dw[o,c,i,j] = sum_{n,y,x} dy[n,o,y,x] * xpad[n,c,y*s+i,x*s+j]."""
    kh, kw = kshape
    if stride > 1:
        fk = (-(-kh // stride), -(-kw // stride))
        dwf = _conv_weight_grad(_fold(x, stride, padding), dy, 1, 0, fk)
        return _unfold(dwf, stride, 0, kshape)
    n, c, h, wd = x.shape
    _, oc, oh, ow = dy.shape
    dw = np.zeros((oc, c, kh, kw), dtype=x.dtype)
    wp = wd + 2 * padding
    m = oh * wp
    xp = _flat_pad(x, padding, kw)
    dyf = _flat_grid(dy, wp)
    for i in range(kh):
        for j in range(kw):
            off = i * wp + j
            prod = np.matmul(dyf, xp[:, :, off : off + m].transpose(0, 2, 1))
            dw[:, :, i, j] = prod.sum(axis=0)
    return dw


def _check_bias(b: Tensor | None, channels: int, op: str):
    if b is None:
        return
    if b.shape != (1, channels, 1, 1):
        raise ContractViolation(
            f"{op} bias must have shape (1, {channels}, 1, 1); got {tuple(b.shape)}"
        )


# ---------------------------------------------------------------------------
# forward operators
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation with zero padding.

    `w` has shape (out_channels, in_channels, kH, kW) with odd kH, kW.
    Output spatial extents are (H + 2p - kH)/s + 1 by (W + 2p - kW)/s + 1
    and must be positive.
    """
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    if c != ic:
        raise ContractViolation(
            f"conv2d input channels {c} do not match kernel input channels {ic}"
        )
    if kh % 2 == 0 or kw % 2 == 0:
        raise ContractViolation(f"conv2d kernel extents must be odd; got {kh}x{kw}")
    if stride < 1 or padding < 0:
        raise ContractViolation(f"conv2d stride must be >=1 and padding >=0")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ContractViolation(
            f"conv2d output extents {oh}x{ow} non-positive for input {h}x{wd}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    _check_bias(b, oc, "conv2d")

    out = _conv_core(x.data, w.data, stride, padding)
    # the bias add also packs the core's cropped view
    out = np.ascontiguousarray(out) if b is None else out + b.data

    parents = (x, w) if b is None else (x, w, b)

    def bwd(g):
        if x.requires_grad:
            accumulate_grad(x, _conv_input_grad(g, w.data, stride, padding, (h, wd)))
        if w.requires_grad:
            accumulate_grad(w, _conv_weight_grad(x.data, g, stride, padding, (kh, kw)))
        if b is not None and b.requires_grad:
            accumulate_grad(b, g.sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1))

    return graph_out(out, parents, bwd)


def transposed_conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
                      stride: int = 2, padding: int = 1) -> Tensor:
    """Adjoint of the strided `conv2d` sharing the same weight layout.

    `w` has shape (in_channels, out_channels, kH, kW); the forward pass is
    exactly the input-gradient of a conv2d mapping out_channels to
    in_channels.  With the 4x4 / stride 2 / padding 1 configuration the
    output spatial extents are exactly twice the input's.
    """
    n, c, h, wd = x.shape
    ic, oc, kh, kw = w.shape
    if c != ic:
        raise ContractViolation(
            f"transposed_conv2d input channels {c} do not match kernel "
            f"input channels {ic}"
        )
    if stride < 1 or padding < 0:
        raise ContractViolation("transposed_conv2d stride must be >=1 and padding >=0")
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (wd - 1) * stride - 2 * padding + kw
    if oh < 1 or ow < 1:
        raise ContractViolation(
            f"transposed_conv2d output extents {oh}x{ow} non-positive for "
            f"input {h}x{wd}"
        )
    _check_bias(b, oc, "transposed_conv2d")

    out = _conv_input_grad(x.data, w.data, stride, padding, (oh, ow))
    if b is not None:
        out = out + b.data

    parents = (x, w) if b is None else (x, w, b)

    def bwd(g):
        if x.requires_grad:
            accumulate_grad(x, _conv_core(g, w.data, stride, padding))
        if w.requires_grad:
            accumulate_grad(w, _conv_weight_grad(g, x.data, stride, padding, (kh, kw)))
        if b is not None and b.requires_grad:
            accumulate_grad(b, g.sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1))

    return graph_out(out, parents, bwd)


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2.

    Requires even spatial extents.  The output is the first maximum of each
    window in row-major order (NaN propagates), and the backward pass
    routes the gradient to that position.
    """
    n, c, h, w = x.shape
    if h % 2 != 0 or w % 2 != 0:
        raise ContractViolation(f"maxpool2d requires even extents; got {h}x{w}")
    oh, ow = h // 2, w // 2
    v = x.data.reshape(n, c, oh, 2, ow, 2)
    # np.maximum returns its second operand on a tie (+0.0 vs -0.0), so
    # each later candidate goes first to keep the earlier one.
    out = np.maximum(np.maximum(v[:, :, :, 1, :, 1], v[:, :, :, 1, :, 0]),
                     np.maximum(v[:, :, :, 0, :, 1], v[:, :, :, 0, :, 0]))
    am = None
    if x.requires_grad:
        # window flattened in row-major order: argmax picks the first maximum
        win = v.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, 4)
        am = np.argmax(win, axis=-1).astype(np.uint8)

    def bwd(g):
        dwin = np.zeros((n, c, oh, ow, 4), dtype=g.dtype)
        np.put_along_axis(dwin, am[..., None], g[..., None], axis=-1)
        dx = dwin.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        accumulate_grad(x, np.ascontiguousarray(dx.reshape(n, c, h, w)))

    return graph_out(out, (x,), bwd)


LEAKY_SLOPE = 0.1


def leaky_relu(x: Tensor) -> Tensor:
    """x for x >= 0 else LEAKY_SLOPE*x; the derivative at 0 is defined as 1."""
    slope = x.dtype.type(LEAKY_SLOPE)
    # max(x, slope*x) selects x exactly when x >= 0, because 0 <= slope <= 1
    out = np.maximum(x.data, x.data * slope)

    def bwd(g):
        accumulate_grad(x, np.where(x.data >= 0, g, g * slope))

    return graph_out(out, (x,), bwd)


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis, order preserved."""
    if len(tensors) == 0:
        raise ContractViolation("concat_channels requires at least one input")
    first = tensors[0]
    for t in tensors[1:]:
        if t.shape[0] != first.shape[0] or t.shape[2:] != first.shape[2:]:
            raise ContractViolation(
                f"concat_channels spatial/batch mismatch: {tuple(first.shape)} "
                f"vs {tuple(t.shape)}"
            )
    out = np.concatenate([t.data for t in tensors], axis=1)
    sizes = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            accumulate_grad(t, g[:, lo:hi])

    return graph_out(out, tuple(tensors), bwd)


def hslice_pad(x: Tensor, displacement: int) -> Tensor:
    """Shift contents horizontally by `displacement`, filling with zeros.

    d >= 0 slices from column d leftward (out[..., x] = in[..., x+d]) and
    pads zeros on the right; d < 0 moves content right and pads zeros on
    the left.  Output shape equals input shape.
    """
    d = int(displacement)
    n, c, h, w = x.shape
    if abs(d) >= w:
        raise ContractViolation(f"|displacement| {abs(d)} must be < width {w}")
    out = np.zeros_like(x.data)
    if d >= 0:
        out[..., : w - d] = x.data[..., d:]
    else:
        out[..., -d:] = x.data[..., : w + d]

    def bwd(g):
        if not x.requires_grad:
            return
        dx = np.zeros_like(x.data)
        if d >= 0:
            dx[..., d:] = g[..., : w - d]
        else:
            dx[..., : w + d] = g[..., -d:]
        accumulate_grad(x, dx)

    return graph_out(out, (x,), bwd)


# ---------------------------------------------------------------------------
# elementwise / reduction glue
# ---------------------------------------------------------------------------

def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ContractViolation(
            f"{op} shape mismatch: {tuple(a.shape)} vs {tuple(b.shape)}"
        )


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def bwd(g):
        accumulate_grad(a, g)
        accumulate_grad(b, g)

    return graph_out(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def bwd(g):
        accumulate_grad(a, g)
        accumulate_grad(b, -g)

    return graph_out(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")

    def bwd(g):
        accumulate_grad(a, g * b.data)
        accumulate_grad(b, g * a.data)

    return graph_out(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    sv = a.dtype.type(s)

    def bwd(g):
        accumulate_grad(a, g * sv)

    return graph_out(a.data * sv, (a,), bwd)


def absolute(a: Tensor) -> Tensor:
    """|a| elementwise; the derivative at 0 is defined as 0."""
    sign = np.sign(a.data)

    def bwd(g):
        accumulate_grad(a, g * sign)

    return graph_out(np.abs(a.data), (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    """Sum over every element, producing a (1, 1, 1, 1) scalar tensor."""
    out = a.data.sum(dtype=a.dtype).reshape(1, 1, 1, 1)

    def bwd(g):
        accumulate_grad(a, np.full_like(a.data, g.reshape(())))

    return graph_out(out, (a,), bwd)


def scalar(value: float, dtype=np.float32) -> Tensor:
    return Tensor(np.full((1, 1, 1, 1), value, dtype=dtype))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def grad_check(fn: Callable[[Tensor], Tensor], point: Tensor,
               step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `fn` must map a tensor to a scalar tensor and be pure.  Central
    differences (f(x+h) - f(x-h)) / 2h are evaluated for every element of
    `point`; the relative error uses denominator max(|a|, |b|, 1e-8).
    Meaningful results require float64 data.
    """
    pt = Tensor(point.data.copy(), requires_grad=True)
    out = fn(pt)
    backward(out)
    analytic = np.zeros_like(pt.data) if pt.grad is None else pt.grad.copy()

    numeric = np.zeros_like(pt.data)
    flat = numeric.reshape(-1)
    base = point.data.copy()
    for i in range(base.size):
        orig = base.reshape(-1)[i]
        probe = base.copy()
        probe.reshape(-1)[i] = orig + step
        f_plus = fn(Tensor(probe)).item()
        probe.reshape(-1)[i] = orig - step
        f_minus = fn(Tensor(probe)).item()
        flat[i] = (f_plus - f_minus) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    return float(rel.max()) if rel.size else 0.0
