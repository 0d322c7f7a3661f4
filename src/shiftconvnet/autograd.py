"""Dense rank-4 tensors with reverse-mode automatic differentiation.

Every value in the pipeline (images, feature maps, cost volumes, disparity
maps, scalar losses) lives in a `Tensor`: a (batch, channels, height, width)
numpy array plus optional gradient tracking.  Operations record parent links
on their outputs; `backward` walks the recorded graph once in reverse
topological order and accumulates gradients additively into every
grad-tracked tensor on the path.  `backward` consumes the graph: an op
output's gradient is handed over to its backward, and once that has run its
closure and parent links are dropped, so only leaves (tensors no op
produced) keep their gradients, and what a backward saved is freed as soon
as it has run (Chen et al., arXiv 1604.06174).  A second `backward` through
a consumed node raises.

The graph is made of records, not of values.  A grad-tracked tensor is two
objects: the `Tensor`, its value (`data`, and the `_layout` below, which a
forward reads with or without a graph), and its `Record`: requires_grad,
the grad slot, the shape and dtype, `_layout`, the backward closure and the
parents' records.  `Tensor.grad`, `requires_grad`, `_parents` and
`_backward` read through to the record, which refers to its value only
weakly; its `data` is the value's array while the value lives, else an
empty one.  Ops record only through `graph_out(data, parents, backward)`,
and each backward closure holds the records it passes gradients to and
the arrays it reads, nothing else: a conv its inputs' operand arrays (each
input's `data`, or a chained input's born-padded buffer), its weight's
array and its leaky mask bits; a transposed conv its input's array;
maxpool its argmax; `correlation_1d` its two inputs' arrays; the loss its
masks, derivatives and decayed weights' arrays.  `add`, `concat_channels`,
`hslice_pad` and `warp_horizontal` hold records alone; `hslice_pads`'
shifted views share one zero-extended copy of their input, which lives
as long as a view or a consumer's saved operand does.  So a value no
backward reads, such as a summed branch, a concatenated group or a pooled
map's input, is freed during the forward as soon as its caller drops it:
the saved-tensor design of PyTorch's autograd (Paszke et al., arXiv
1912.01703), which applies Chen et al.'s rule when the graph is recorded.
A conv closure applies it inside itself too.  It masks its gradient and
lets go of the mask bits; takes the weight gradient, the last reader of
the saved operand; drops that operand; and only then allocates the input
gradient.  The two adjoints read the same masked gradient and nothing of
each other, so the order changes no value.  An untracked tensor has no
record, so a forward without gradients builds none.

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
each tap's operand for a run of pixels is one contiguous run of the buffer,
offset by i*Wp + j.  The last kW - 1 columns of each output row straddle a
row boundary.  The forward keeps them: its epilogue adds the bias and
applies the activation in place over the flat (N, O, oH*Wp) planes, then
zeroes those columns, and the output's data is the (N, O, oH, oW) view.
The output gradient's layout (below) puts zeros under them.

How the taps meet the kernel depends on its shape.  When in_channels <
2 * out_channels, `_tap_columns` stacks the kH*kW runs of a block of
whole output rows into one (C*kH*kW, rows*Wp) matrix (im2col,
Chellapilla et al. 2006), so the block is one GEMM with a reduction of
C*kH*kW; blocks hold at most `TAP_BLOCK_BYTES` per image, so the copy
stays in cache and out of peak memory (as in MEC, Cho and Brand, arXiv
1706.06873).  Otherwise each tap is one GEMM straight on its run, and the
kH*kW partial products are added up a block of whole output rows at a
time, at most `TAP_SUM_BYTES` per image, into that block of the output:
one block-sized temporary takes each product, so no full-size one is built
beside the output.  The rule is measured.  Both paths were
timed on every conv shape of the desk model (batch 1, a 2-core Xeon,
OpenBLAS 0.3.31, 2 threads).  Merging wins where the input side is thin,
as in the forward of a 1->8 conv at 384x768 (1.9 ms against 14.4 per tap)
or of a 16->32 one (48 against 92 ms), and still where the two sides are
about equal, as in the weight gradient of a 17->16 conv at 384x768 (55
against 77 ms).  Per-tap GEMMs win from twice as many input channels on:
the forward of a 144->32 conv at 96x192 takes 14 ms against 28 merged, and
the weight gradient of a 32->1 conv at 384x768 15 against 39 ms.  Of the
thresholds tried (0.5 to 4.6 times out_channels), this one gave the lowest
total of forward, input gradient and weight gradient over the shapes of a
384x768 step: 818 ms, against 849 with in <= out, 949 merging everywhere
and 811 taking the faster path of every shape; the weight gradient alone
took 320 ms under this rule and 343 with in <= out.  The input gradient is
the same forward core run on dy, with the kernel flipped in both axes and
its channel axes exchanged: the full correlation.  It therefore takes its
path by the same rule with the channels exchanged.  Strided and transposed
convolutions run the same cores: a stride-s conv is a stride-1 conv with a
ceil(k/s) kernel once `_lower` moves the s*s phases of map and kernel into
channels (Shi et al., arXiv 1609.07009); `_unfold`, its adjoint, moves them
back.

`conv2d` also takes a sequence of inputs, which it convolves as the
concatenation of their channels.  The padded buffer above (or the folded
one) is the only place the inputs meet: each is written into its own
channel range, and each takes its own channel slice of the input
gradient, so the concatenation never exists as an array or a graph node.

Both convolutions take `leaky=True` to apply `leaky_relu` to their biased
result in place, a block of channel planes at a time through one reused
temporary.  The values are those of `leaky_relu(conv(...))`, bit for
bit, but the graph keeps one node instead of two and, instead of the float
pre-activation (Rota Bulo et al., arXiv 1712.02616), its sign mask y >= 0
packed at one bit per element of each flat channel plane, padded-width
rows and all (Gist's binarized mask, Jain et al., ISCA 2018).  The mask
cannot be recomputed from the output: a negative subnormal y leaves -0.0,
as y = -0.0 does, yet the derivatives are 0.1 and 1.  The backward
multiplies the gradient, in place, by 1 or 0.1 as the bit says, a block
of channel planes at a time; that equals the select of g and 0.1*g bit
for bit, because g*1 = g.  The factor's bit pattern is bit*(bits(1) -
bits(0.1)) + bits(0.1), so no table is gathered.  A conv2d output's
gradient is masked over the flat planes of its layout's grid (below),
whose wrap columns are +0 and stay +0; any other gradient unpacks the
same bits and crops them to its rows.

Every convolution adjoint reads one layout of the output gradient,
`_dy_layout`.  Take the stride-1 core behind a conv: its input grid is Wp
wide (the padded map, or at s > 1 its phase fold), its kernel kH' x kW'.
dy is written at row kH' - 1, column kW' - 1 of a zeroed flat-row buffer
whose rows are Wp wide.  Its rows end by column Wp - 1 (at s = 1 exactly
there), so the kW' - 1 columns each row wraps into are zeros, and two
identities hold for any kernel, padding and stride.  The input gradient is
the core with the flipped kernel run on the buffer as it stands: read from
flat offset p*Wp + p at s = 1, or from 0 at s > 1 and then unfolded.  The
buffer's view from flat offset (kH' - 1)*Wp + kW' - 1 is exactly the
weight gradient's padded-width grid.  So conv2d's backward masks its
gradient in one such buffer, with no pad, crop or zero fill, and the bias
gradient sums the same view.  transposed_conv2d runs its forward as that
input gradient on x placed in the buffer, its epilogue in place on the
unfolded result; its backward lowers its gradient once, the one operand of
both its adjoints (the conv forward, and the weight gradient with x placed
again as the grid).

Every conv2d output records its layout, `Tensor._layout` = (in_hw, kshape,
stride, padding), the one record of its buffers.  Its gradient is the dy
view of a fresh buffer of that layout: `accumulate_grad` copies the first
contribution there and adds later ones to it, and `backward` seeds a
tracked root through it.  So the conv's backward masks the gradient in
place and takes its base as both adjoints' operand; a gradient anywhere
else raises.

A "same" conv (stride 1, padding 1, 3x3: every stride-1 conv of the
network) has oH = H and Wp = W + 2 = oW + 2, so its zeroed wrap columns
are exactly the padding columns of a map of its own size.  It writes its
core's result at flat offset Wp + 1 of an (N, O, (H+2)*Wp + 2) buffer
whose ring around those rows is zeroed, which is then, bit for bit, the
operand a same conv lowers that output to: the output is born padded, its
data the interior of `data.base`.  A same conv whose single input is a
same conv's output (every same -> same link of the network) is chained.
It reads that buffer as its operand, in the forward and in the weight
gradient, and lowers nothing.  When its input has no gradient yet, it runs
the input gradient straight into the input's layout grid and zeroes the
wrap columns, so neither the padded-width result nor a cropped copy of it
is built.  Such an output's channel planes are strided, so the per-tap
core adds its partial products straight into a block of it only once the
block holds at least `STRIDED_SUM_BYTES` per image; a smaller block's
partial sums stay in a contiguous temporary until the last one.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np


class ContractViolation(ValueError):
    """An operation was invoked outside its documented contract."""


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A (N, C, H, W) value grid, optionally tracked for gradients.

    `data` is always a rank-4 float32 or float64 numpy array.  A tracked
    tensor's graph state lives in its `Record`; `grad`, `requires_grad`,
    `_parents` and `_backward` read through to it.  `grad`, when present,
    has the same shape and dtype as `data`.  Tensors are treated as
    immutable after creation except for gradient accumulation during
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
        # set by conv2d on its output, the one record of its buffers:
        # (in_hw, kshape, stride, padding).  Its gradient is the dy view of
        # that `_dy_layout`; a same conv's `data` is the interior of the
        # born-padded operand `data.base` (see the module docstring)
        self._layout: tuple | None = None
        self._record: Record | None = Record(self) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._record is not None and self._record.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag: bool):
        if self._record is not None:
            self._record.requires_grad = bool(flag)
        elif flag:
            self._record = Record(self)

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._record is None else self._record.grad

    @grad.setter
    def grad(self, value: np.ndarray | None):
        self._record.grad = value  # only a tracked tensor has a grad slot

    @property
    def _parents(self) -> tuple:
        return () if self._record is None else self._record._parents

    @property
    def _backward(self) -> Callable | None:
        return None if self._record is None else self._record._backward

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
        if self._record is not None:
            self._record.grad = None

    def __repr__(self):
        return (
            f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, "
            f"requires_grad={self.requires_grad})"
        )


class Record:
    """The graph record of a grad-tracked tensor, apart from its value.

    It holds `requires_grad`, the grad slot, the value's shape, dtype and
    `_layout`, the backward closure and the parents' records, and refers
    to its value only weakly: `data` is the value's array while the value
    lives, else an empty array.
    """

    __slots__ = ("requires_grad", "grad", "shape", "dtype", "_layout",
                 "_backward", "_parents", "_value")

    def __init__(self, value: Tensor, parents: tuple = (),
                 backward: Callable | None = None, requires_grad: bool = True):
        self.requires_grad = requires_grad
        self.grad = None
        self.shape, self.dtype = value.data.shape, value.data.dtype
        self._layout = value._layout
        self._backward = backward
        self._parents = parents
        self._value = weakref.ref(value)

    @property
    def data(self) -> np.ndarray:
        value = self._value()
        return np.empty(0, self.dtype) if value is None else value.data


# what a backward closure holds of an untracked tensor: it takes no gradient
_UNTRACKED = Record(Tensor(np.empty((0, 0, 0, 0), np.float32)),
                    requires_grad=False)


def record_of(t: Tensor) -> Record:
    """t's graph record, for a backward closure to hold in place of t."""
    return _UNTRACKED if t._record is None else t._record


def graph_out(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Wrap an op result, recording parents only when gradients are needed.

    `backward(grad)` must accumulate into the parents' records via
    `accumulate_grad`, and should hold only the records and the arrays it
    reads, so that no value outlives its caller's use of it.  Subgraphs
    with no grad-tracked leaves are pruned at record time.
    """
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out._record = Record(out, tuple(p._record for p in parents
                                        if p._record is not None), backward)
    return out


def _new_grad(t: Record) -> np.ndarray:
    """An unfilled gradient array for t: the dy view of a fresh
    `_dy_layout` when t is a conv2d output, else a C-ordered array."""
    if t._layout is None:
        return np.empty(t.shape, t.dtype)
    return _dy_layout(t.shape, t.dtype, *t._layout)[2]


def accumulate_grad(t: Record | Tensor, g: np.ndarray):
    """Add g, of t's shape, to t's gradient.

    The first contribution is copied rather than added to zeros (one pass,
    and a lone -0.0 stays -0.0), into the dy view of t's `_dy_layout` when
    t is a conv2d output, else into a fresh C-ordered array.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = _new_grad(t)
        t.grad[...] = g
    else:
        t.grad += g


def _toposort(root: Record) -> list[Record]:
    # Iterative post-order: parents appear before their consumers.
    order: list[Record] = []
    visited: set[int] = set()
    stack: list[tuple[Record, bool]] = [(root, False)]
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


def _released(grad):
    raise ContractViolation(
        "backward through a graph that an earlier backward already consumed"
    )


def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar loss, consuming its graph.

    Afterwards every grad-tracked leaf reachable from `loss` holds
    d(loss)/d(leaf); fan-out contributions accumulate additively.  Each
    graph record is visited exactly once.  An op output's gradient is
    detached before its backward runs, and its closure and parent links
    are dropped after: only leaves keep their gradients, and a later
    `backward` that reaches the output raises `ContractViolation`.
    """
    if loss.data.size != 1:
        raise ContractViolation(
            f"backward requires a scalar loss; got shape {tuple(loss.shape)}"
        )
    root = loss._record
    if root is None:
        return
    order = _toposort(root)
    root.grad = None  # seeded as any gradient is: a conv output's in its layout
    accumulate_grad(root, np.ones(root.shape, root.dtype))
    while order:
        node = order.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            # the closure gets the gradient's only reference, so it can free it
            node._backward(_pop_grad(node))
        node._backward, node._parents = _released, ()


def _pop_grad(t: Record | Tensor) -> np.ndarray:
    g, t.grad = t.grad, None
    return g


# ---------------------------------------------------------------------------
# convolution cores (shared by conv2d / transposed_conv2d forward + backward)
# ---------------------------------------------------------------------------

def _grid(hw: tuple[int, int], kshape: tuple[int, int], stride: int,
          padding: int) -> tuple[int, int, int, int]:
    """(hp, wp, kh, kw): the stride-1 core's input grid, the padded map or
    at s > 1 its phase fold, and its kernel's extents on that grid."""
    s = stride
    return (-(-(hw[0] + 2 * padding) // s), -(-(hw[1] + 2 * padding) // s),
            -(-kshape[0] // s), -(-kshape[1] // s))


def _phases(fold: np.ndarray, x: np.ndarray, s: int, p: int):
    """Yield (part of fold, part of x) view pairs, one per phase (r, q).

    `fold` is (N, C, s, s, hp, wp): fold[n, c, r, q, a, b] = xpad[n, c,
    a*s + r, b*s + q], xpad being x padded by p and with zeros up to a
    multiple of s.  Each pair holds the same pixels of x; at s = 1 the
    one pair is the padded map's interior and x.
    """
    for r in range(s):
        for q in range(s):
            # the phase's first fold row and column that fall inside x
            a, b = -(-(p - r) // s), -(-(p - q) // s)
            part = x[:, :, a * s + r - p :: s, b * s + q - p :: s]
            yield fold[:, :, r, q, a : a + part.shape[2], b : b + part.shape[3]], part


def _lower(xs: Sequence[np.ndarray], stride: int, padding: int,
           kshape: tuple[int, int]) -> np.ndarray:
    """The inputs as the stride-1 core's operand: a zeroed flat-row buffer
    (N, C*s*s, hp*wp + kw - 1) on its grid, C the inputs' channel total.

    Each input fills its own channel range, in order, so the buffer holds
    the padded channel concatenation, its s*s phases moved into channels
    at s > 1 (Shi et al., arXiv 1609.07009).  The kw - 1 trailing zeros,
    kw the kernel's width on the grid, let the last tap's run end inside
    the buffer.
    """
    n, _, h, wd = xs[0].shape
    s = stride
    hp, wp, _, kw = _grid((h, wd), kshape, s, padding)
    c = sum(x.shape[1] for x in xs)
    out = np.zeros((n, c * s * s, hp * wp + kw - 1), dtype=np.result_type(*xs))
    fold = out[:, :, : hp * wp].reshape(n, c, s, s, hp, wp)
    lo = 0
    for x in xs:
        for part, src in _phases(fold[:, lo : lo + x.shape[1]], x, s, padding):
            part[...] = src
        lo += x.shape[1]
    return out


def _lower_kernel(w: np.ndarray, stride: int) -> np.ndarray:
    """The kernel on the core's grid: at s > 1 its phases fold into channels."""
    if stride == 1:
        return w
    oc, _, kh, kw = w.shape
    s = stride
    return _lower((w,), s, 0, (1, 1)).reshape(oc, -1, -(-kh // s), -(-kw // s))


def _unfold(f: np.ndarray, s: int, p: int, hw: tuple[int, int]) -> np.ndarray:
    """Adjoint of the fold: (N, C*s*s, hp, wp) back to the (N, C, H, W) map."""
    n, _, hp, wp = f.shape
    x = np.empty((n, f.shape[1] // (s * s), *hw), f.dtype)
    for part, dst in _phases(f.reshape(n, -1, s, s, hp, wp), x, s, p):
        dst[...] = part
    return x


def _dy_layout(shape: tuple, dtype, in_hw: tuple[int, int],
               kshape: tuple[int, int], stride: int, padding: int,
               g: np.ndarray | None = None):
    """The output-gradient layout: (buf, grid, dy).

    buf is a zeroed flat-row buffer on the core's wp-wide grid; dy, the
    (N, O, oH, oW) view that receives the gradient, sits at row kh - 1,
    column kw - 1 of it, with kh x kw the core's kernel.  grid is buf's
    (N, O, oH*wp) view from that offset, the weight gradient's operand.
    Given g, a gradient placed in such a layout, buf is g.base and nothing
    is allocated; a g whose base is not a buffer of the layout's size
    raises `ContractViolation`.
    """
    n, oc, oh, ow = shape
    hp, wp, kh, kw = _grid(in_hw, kshape, stride, padding)
    # dy ends by hp*wp + kw - 1; the input gradient's taps read rows + kh - 1
    # rows from start, which ends later unless p > k - 1
    start, rows = (0, hp) if stride > 1 else (padding * (wp + 1), in_hw[0])
    size = (n, oc, max(hp * wp, start + (rows + kh - 1) * wp) + kw - 1)
    off = (kh - 1) * wp + kw - 1

    buf = np.zeros(size, dtype) if g is None else g.base
    if buf is None or buf.shape != size:
        raise ContractViolation(
            f"a conv2d output's {g.shape} gradient must sit in its layout, "
            f"a {size} buffer, as accumulate_grad places it")
    grid = buf[:, :, off : off + oh * wp]
    return buf, grid, grid.reshape(n, oc, oh, wp)[..., :ow]


def _tap_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ b; a one-term sum is a broadcast product, exact and faster."""
    if a.shape[-1] == 1:
        return np.multiply(a, b, out=out)
    return np.matmul(a, b, out=out)


# bytes of one image's column block: small enough to stay in cache and out
# of peak RSS (1 MiB blocks raised a 64x128 training step's peak by about
# 1 MB), large enough that each GEMM amortises its call
TAP_BLOCK_BYTES = 1 << 18

# bytes of one image's block of output rows, over which the per-tap path
# sums its taps: 4 MiB kept every shape of a 384x768 step bit-identical to
# one full-size block, where 256 KiB and 1 MiB did not for the 1-channel
# heads
TAP_SUM_BYTES = 1 << 22

# bytes of one image's output block from which the per-tap path adds its
# partial products straight into a strided block of `out`; below, an add
# over strided planes costs up to 3x more than over a contiguous temporary
STRIDED_SUM_BYTES = 1 << 17


def _tap_columns(xp: np.ndarray, kh: int, kw: int, wp: int, oh: int):
    """Yield (lo, hi, col): the taps of output pixels lo..hi-1 stacked as rows.

    col[n, (c*kh + i)*kw + j, m - lo] = xp[n, c, m + i*wp + j], so the
    (oc, ic*kh*kw) reshape of a weight times col gives those pixels'
    outputs in one GEMM.  Blocks are whole rows of the padded-width grid,
    sized from one image's bytes so that they do not depend on N.  One
    strided view holds every tap of every pixel; each block copies a slice
    of it.
    """
    n, c, _ = xp.shape
    t = kh * kw
    rows = max(1, min(oh, TAP_BLOCK_BYTES // (c * t * wp * xp.itemsize)))
    buf = np.empty((n, c, kh, kw, rows * wp), xp.dtype)
    sn, sc, se = xp.strides
    taps = np.lib.stride_tricks.as_strided(
        xp, (n, c, kh, kw, oh * wp), (sn, sc, wp * se, se, se), writeable=False)
    for r in range(0, oh, rows):
        lo, hi = r * wp, min(r + rows, oh) * wp
        col = buf[..., : hi - lo]
        col[...] = taps[..., lo:hi]
        yield lo, hi, col.reshape(n, c * t, hi - lo)


def _conv_flat(xp: np.ndarray, w: np.ndarray, oh: int, wp: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """The stride-1 core on a flat-row buffer: (N, O, oh, wp) over the
    padded width, its last kW - 1 columns straddling a row boundary.

    `out`, when given, is the (N, O, oh*wp) array the result is written to;
    its channel planes need only be contiguous each.
    """
    n, ic = xp.shape[:2]
    oc, _, kh, kw = w.shape
    m = oh * wp
    acc = np.empty((n, oc, m), xp.dtype) if out is None else out
    if ic < 2 * oc:
        w2 = w.reshape(oc, ic * kh * kw)
        for lo, hi, col in _tap_columns(xp, kh, kw, wp, oh):
            _tap_product(w2, col, acc[:, :, lo:hi])
    else:
        taps = [(i * wp + j, w[:, :, i, j]) for i in range(kh) for j in range(kw)]
        rows = max(1, min(oh, TAP_SUM_BYTES // (oc * wp * acc.itemsize)))
        # block-sized temporaries, each block's a contiguous head of them
        size = n * oc * rows * wp
        prods, parts = np.empty(size, acc.dtype), None
        for r in range(0, oh, rows):
            lo, hi = r * wp, min(r + rows, oh) * wp
            blk = acc[:, :, lo:hi]
            prod = prods[: blk.size].reshape(blk.shape)
            # below STRIDED_SUM_BYTES a strided block's partial sums stay
            # contiguous and only the last one goes to the block
            part = blk
            if not (blk.flags.c_contiguous
                    or oc * (hi - lo) * acc.itemsize >= STRIDED_SUM_BYTES):
                parts = np.empty(size, acc.dtype) if parts is None else parts
                part = parts[: blk.size].reshape(blk.shape)
            _tap_product(taps[0][1], xp[:, :, lo:hi], blk if len(taps) == 1 else part)
            for off, wt in taps[1:]:
                np.add(part, _tap_product(wt, xp[:, :, lo + off : hi + off], prod),
                       out=blk if off == taps[-1][0] else part)
    return acc.reshape(n, oc, oh, wp)


def _conv_core(xp: np.ndarray, w: np.ndarray, stride: int, wp: int,
               out_hw: tuple[int, int]) -> np.ndarray:
    """out[n,o,y,x] = sum_{c,i,j} w[o,c,i,j] * xpad[n,c,y*s+i,x*s+j], from
    the lowered input xp; a cropped view of the padded-width grid."""
    return _conv_flat(xp, _lower_kernel(w, stride), out_hw[0], wp)[..., : out_hw[1]]


def _flipped(w: np.ndarray) -> np.ndarray:
    """The input gradient's kernel: flipped in both axes, channel axes exchanged."""
    return w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


def _conv_input_grad(buf: np.ndarray, w: np.ndarray, stride: int, padding: int,
                     in_hw: tuple[int, int], out: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of `_conv_core` in its input, from the output gradient's
    `_dy_layout` buffer: the core with the flipped, transposed kernel.

    At s = 1 the result is the padded-width grid, (N, C, H, wp), written to
    `out` when given (as `_conv_flat`); crop it to W columns.  At s > 1 it
    is the unfolded (N, C, H, W) map.
    """
    hp, wp = _grid(in_hw, w.shape[2:], stride, padding)[:2]
    wf = _flipped(_lower_kernel(w, stride))
    if stride > 1:
        df = _conv_flat(buf, wf, hp, wp)
        del buf  # transposed_conv2d's forward holds no other reference
        return _unfold(df, stride, padding, in_hw)
    return _conv_flat(buf[:, :, padding * (wp + 1) :], wf, in_hw[0], wp, out)


def _conv_weight_grad(xp: np.ndarray, grid: np.ndarray, wp: int,
                      kshape: tuple[int, int], stride: int) -> np.ndarray:
    """dw[o,c,i,j] = sum_{n,y,x} dy[n,o,y,x] * xpad[n,c,y*s+i,x*s+j], from
    the lowered input xp and the output gradient's `_dy_layout` grid."""
    s = stride
    kh, kw = -(-kshape[0] // s), -(-kshape[1] // s)
    ic = xp.shape[1]
    _, oc, m = grid.shape
    oh = m // wp
    if ic < 2 * oc:
        dwt = np.zeros((ic * kh * kw, oc), dtype=xp.dtype)
        for lo, hi, col in _tap_columns(xp, kh, kw, wp, oh):
            dwt += np.matmul(col, grid[:, :, lo:hi].transpose(0, 2, 1)).sum(axis=0)
        dw = dwt.T.reshape(oc, ic, kh, kw)
    else:
        dw = np.zeros((oc, ic, kh, kw), dtype=xp.dtype)
        for i in range(kh):
            for j in range(kw):
                off = i * wp + j
                prod = np.matmul(grid, xp[:, :, off : off + m].transpose(0, 2, 1))
                dw[:, :, i, j] = prod.sum(axis=0)
    return dw if s == 1 else _unfold(dw, s, 0, kshape)


def _check_bias(b: Tensor | None, channels: int, op: str):
    if b is None:
        return
    if b.shape != (1, channels, 1, 1):
        raise ContractViolation(
            f"{op} bias must have shape (1, {channels}, 1, 1); got {tuple(b.shape)}"
        )


LEAKY_SLOPE = 0.1


def _leaky_planes(flat: np.ndarray, keep_bits: bool):
    """leaky in place on flat (N, C, M) channel planes, each one contiguous
    run.  Returns the mask y >= 0 packed along each plane, (N, C,
    ceil(M/8)) bytes (see `_leaky_grad`), when keep_bits, else None.

    A block of channel planes (at most `TAP_BLOCK_BYTES`, or one plane) at
    a time, through one reused temporary, so no full-size one is built.
    """
    n, c, m = flat.shape
    step = max(1, TAP_BLOCK_BYTES // (m * flat.itemsize))
    slope = flat.dtype.type(LEAKY_SLOPE)
    tmp = np.empty((min(step, c), m), flat.dtype)
    bits = np.empty((n, c, -(-m // 8)), np.uint8) if keep_bits else None
    for i in range(n):
        for lo in range(0, c, step):
            blk = flat[i, lo : lo + step]
            if bits is not None:
                bits[i, lo : lo + step] = np.packbits(blk >= 0, axis=-1)
            # max(y, slope*y) selects y exactly when y >= 0, because 0 <= slope <= 1
            np.maximum(blk, np.multiply(blk, slope, out=tmp[: len(blk)]), out=blk)
    return bits


def _leaky_grad(g: np.ndarray, bits: np.ndarray, out: np.ndarray,
                rw: int | None = None) -> np.ndarray:
    """out = g * [slope, 1][bit]: g where the pre-activation was >= 0 (the
    derivative at 0 is 1), else slope*g, bit for bit, because g*1 = g.
    `out` may be g itself.

    g and out are either the (N, C, M) flat planes the bits were packed
    over (rw is then ignored), or (N, C, H, W) maps whose rows are the
    first W columns of the planes' H rows, rw wide (W when rw is None).

    The factor is built as a bit pattern, bit * (bits(1) - bits(slope)) +
    bits(slope) in the unsigned type of g's width (wrapping, so exact for
    any slope), then read as floats: no table gather.  A block of channel
    planes (at most `TAP_BLOCK_BYTES`, or one plane) at a time, so no
    full-size temporary is built.
    """
    n, c = g.shape[:2]
    h, w = g.shape[2:] if g.ndim == 4 else (1, g.shape[2])
    rw = w if g.ndim == 3 or rw is None else rw
    m = h * rw
    one, slope = np.array([1, LEAKY_SLOPE], g.dtype).view(f"u{g.itemsize}")
    rise = np.subtract(one, slope, dtype=one.dtype)  # wraps where slope > 1
    step = max(1, TAP_BLOCK_BYTES // (m * g.itemsize))
    factor = np.empty((min(step, c), m), one.dtype)
    for i in range(n):
        for lo in range(0, c, step):
            blk = (i, slice(lo, lo + step))
            sel = np.unpackbits(bits[blk], axis=-1, count=m)
            f = factor[: len(sel)]
            np.multiply(sel, rise, out=f)
            f += slope
            f = f.view(g.dtype)
            if g.ndim == 4:
                f = f.reshape(len(sel), h, rw)[..., :w]
            np.multiply(g[blk], f, out=out[blk])
    return out


def _conv_epilogue(y: np.ndarray, ow: int, xs: tuple[Tensor, ...], w: Tensor,
                   b: Tensor | None, leaky: bool, operand, input_grad,
                   weight_grad, planes=None) -> Tensor:
    """Add the bias and optionally apply leaky, in place, and record the op.

    `y` is the core's (N, O, oH, rw) result, rows rw >= ow wide, which the
    op owns; each channel plane is one contiguous run.  The bias add and
    the activation pass over those flat planes, the leaky mask is packed
    along each of them, and the rw - ow wrap columns are zeroed last.
    The output's data is the (N, O, oH, ow) view.

    The backward masks the output gradient in place by the leaky mask,
    over `planes(g)`, the gradient's flat (N, O, oH*rw) planes in its
    buffer, when given, else over g itself.  It hands g to `operand`,
    which returns the input and weight gradients' operands, built once.  The gradient is dropped once the bias gradient
    has summed it.  `input_grad` and `weight_grad` are the core's adjoints
    on those operands; each of the inputs `xs` takes its own channel range
    of the input gradient, unless `input_grad` returns None, having stored
    it in the one input already.  The backward holds the parameters' and
    inputs' records, not the tensors.  `weight_grad` alone holds the saved
    input arrays, so the backward takes the weight gradient first and then
    drops `weight_grad`, freeing them before the input gradient is
    allocated; the mask bits go once the mask has run.
    """
    parents = (*xs, w) if b is None else (*xs, w, b)
    inputs = [(record_of(x), x.shape[1]) for x in xs]
    wr = record_of(w)
    br = None if b is None else record_of(b)
    n, oc, oh, rw = y.shape
    flat = y.reshape(n, oc, oh * rw)  # a view: each plane is contiguous
    if b is not None:
        flat += b.data.reshape(1, oc, 1)
    bits = None
    if leaky:
        bits = _leaky_planes(flat, any(p.requires_grad for p in parents))
    if rw > ow:
        y[..., ow:] = 0

    def bwd(g):
        nonlocal bits, weight_grad
        if bits is not None:
            masked = g if planes is None else planes(g)
            _leaky_grad(masked, bits, masked, rw)
            bits = masked = None
        dx_op, dw_op = operand(g)
        if br is not None and br.requires_grad:
            accumulate_grad(br, g.sum(axis=(0, 2, 3)).reshape(br.shape))
        del g
        if wr.requires_grad:
            accumulate_grad(wr, weight_grad(dw_op))
        weight_grad = None  # frees the saved inputs before dx is allocated
        if any(x.requires_grad for x, _ in inputs):
            dx = input_grad(dx_op)
            lo = 0
            for x, c in inputs if dx is not None else ():  # None: already stored
                accumulate_grad(x, dx[:, lo : lo + c])
                lo += c

    return graph_out(y[..., :ow], parents, bwd)


# ---------------------------------------------------------------------------
# forward operators
# ---------------------------------------------------------------------------

def _stackable(tensors: Sequence[Tensor], op: str) -> tuple[Tensor, ...]:
    """The inputs of a channel stack: at least one, equal in N, H and W."""
    tensors = tuple(tensors)
    if not tensors:
        raise ContractViolation(f"{op} requires at least one input")
    first = tensors[0]
    for t in tensors[1:]:
        if t.shape[0] != first.shape[0] or t.shape[2:] != first.shape[2:]:
            raise ContractViolation(
                f"{op} spatial/batch mismatch: {tuple(first.shape)} "
                f"vs {tuple(t.shape)}"
            )
    return tensors


# (kshape, stride, padding) of a "same" conv, as the tail of `Tensor._layout`
_SAME = ((3, 3), 1, 1)


def conv2d(x: Tensor | Sequence[Tensor], w: Tensor, b: Tensor | None = None,
           stride: int = 1, padding: int = 0, leaky: bool = False) -> Tensor:
    """2D cross-correlation with zero padding.

    `x` is a Tensor or a non-empty sequence of Tensors with equal N, H and
    W; a sequence is convolved as the concatenation of its channels, in
    order, without that concatenation ever being built: each input is
    padded into its own channel range of the one padded buffer, and
    receives its own channel slice of the input gradient.  `w` has shape
    (out_channels, in_channels, kH, kW) with odd kH, kW, in_channels being
    the inputs' channel total.  Output spatial extents are
    (H + 2p - kH)/s + 1 by (W + 2p - kW)/s + 1 and must be positive.
    `leaky=True` returns exactly `leaky_relu(conv2d(x, w, b, stride,
    padding))` as one node.  A same conv (stride 1, padding 1, 3x3) returns
    its output born padded (see the module docstring).
    """
    xs = _stackable((x,) if isinstance(x, Tensor) else x, "conv2d")
    n, _, h, wd = xs[0].shape
    c = sum(t.shape[1] for t in xs)
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

    wp = _grid((h, wd), (kh, kw), stride, padding)[1]
    same = ((kh, kw), stride, padding) == _SAME
    # a same conv reading one same conv's output (module docstring)
    chained = same and len(xs) == 1 and (xs[0]._layout or ())[1:] == _SAME
    # the backward reads the inputs' arrays and the weight's, not the tensors
    src = xs[0].data.base if chained else [t.data for t in xs]
    x0, wa = record_of(xs[0]), w.data

    def lowered():
        if chained:  # the input's born-padded buffer, as it stands
            return src
        return _lower(src, stride, padding, (kh, kw))

    def operand(g):  # g sits in its layout: buf and grid are its base's
        return _dy_layout(g.shape, g.dtype, (h, wd), (kh, kw), stride, padding, g)[:2]

    def input_grad(buf):
        if not chained or x0.grad is not None:
            return _conv_input_grad(buf, wa, stride, padding, (h, wd))[..., :wd]
        # x's gradient is born in its own layout, whose grid has this
        # core's rows; the wrap columns are zeroed as in the forward epilogue
        _, grid, x0.grad = _dy_layout(x0.shape, x0.dtype, *x0._layout)
        _conv_input_grad(buf, wa, stride, padding, (h, wd), grid)
        grid.reshape(n, c, h, wp)[..., wd:] = 0
        return None

    xp = lowered()
    if same:
        # born padded: the operand a same conv lowers this output to, with
        # the core's padded-width rows written at row 1, column 1.  Only
        # the ring around them is zeroed here; the epilogue zeroes the wrap
        # columns, which land on the padding in between
        padded = np.empty((n, oc, (oh + 2) * wp + 2), xp.dtype)
        padded[:, :, : wp + 1] = 0
        padded[:, :, (oh + 1) * wp + 1 :] = 0
        core = padded[:, :, wp + 1 : (oh + 1) * wp + 1]
    else:
        core = None
    core = _conv_flat(xp, _lower_kernel(wa, stride), oh, wp, core)
    del xp
    out = _conv_epilogue(
        core, ow, xs, w, b, leaky, operand, input_grad,
        lambda grid: _conv_weight_grad(lowered(), grid, wp, (kh, kw), stride),
        planes=lambda g: operand(g)[1],  # the grid: the core's rows are wp wide
    )
    out._layout = ((h, wd), (kh, kw), stride, padding)
    if out._record is not None:
        out._record._layout = out._layout
    return out


def transposed_conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
                      stride: int = 2, padding: int = 1,
                      leaky: bool = False) -> Tensor:
    """Adjoint of the strided `conv2d` sharing the same weight layout.

    `w` has shape (in_channels, out_channels, kH, kW); the forward pass is
    exactly the input-gradient of a conv2d mapping out_channels to
    in_channels.  With the 4x4 / stride 2 / padding 1 configuration the
    output spatial extents are exactly twice the input's.  `leaky=True`
    returns exactly `leaky_relu(transposed_conv2d(x, w, b, stride, padding))`
    as one node.
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

    wp = _grid((oh, ow), (kh, kw), stride, padding)[1]
    xd, wa = x.data, w.data  # what the backward reads, not the tensors

    def placed():
        # x as the output gradient of the conv this op is the adjoint of
        buf, grid, dy = _dy_layout(xd.shape, xd.dtype, (oh, ow), (kh, kw), stride, padding)
        dy[...] = xd
        return buf, grid

    def operand(g):
        gl = _lower((g,), stride, padding, (kh, kw))  # one fold for both adjoints
        return gl, gl

    y = _conv_input_grad(placed()[0], wa, stride, padding, (oh, ow))
    return _conv_epilogue(
        y, ow, (x,), w, b, leaky, operand,
        lambda gl: _conv_core(gl, wa, stride, wp, (h, wd)),
        lambda gl: _conv_weight_grad(gl, placed()[1], wp, (kh, kw), stride),
    )


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
    v00, v01 = v[:, :, :, 0, :, 0], v[:, :, :, 0, :, 1]
    v10, v11 = v[:, :, :, 1, :, 0], v[:, :, :, 1, :, 1]
    top, bot = np.maximum(v01, v00), np.maximum(v11, v10)
    out = np.maximum(bot, top)
    am = None
    if x.requires_grad:
        # the first maximum's index in the window's row-major order, from
        # the comparisons behind the maxima above; a NaN counts as largest
        def later(a, b):  # b, coming after a, is the larger
            return (a == a) & ~(a >= b)

        bottom = later(top, bot)
        am = bottom.view(np.uint8) << 1
        am |= np.where(bottom, later(v10, v11), later(v00, v01))

    xr = record_of(x)

    def bwd(g):
        # window position k of x's gradient takes g where k is the first
        # maximum, else +0.0: g's bit pattern times the 0/1 selection, exact
        # (as in `_leaky_grad`), written into the phase view k of x's
        # gradient the first time, then added to it
        first = xr.grad is None
        if first:
            xr.grad = _new_grad(xr)
        bits = f"u{g.itemsize}"
        phases = xr.grad.reshape(n, c, oh, 2, ow, 2, copy=False)
        for k in range(4):
            view = phases[:, :, :, k >> 1, :, k & 1]
            if first:
                np.multiply(g.view(bits), am == k, out=view.view(bits))
            else:
                view += np.multiply(g.view(bits), am == k).view(g.dtype)

    return graph_out(out, (x,), bwd)


def leaky_relu(x: Tensor) -> Tensor:
    """x for x >= 0 else LEAKY_SLOPE*x; the derivative at 0 is defined as 1."""
    y = np.array(x.data, order="C")
    n, c, h, w = y.shape
    bits = _leaky_planes(y.reshape(n, c, h * w), x.requires_grad)
    xr = record_of(x)

    def bwd(g):
        accumulate_grad(xr, _leaky_grad(g, bits, g))

    return graph_out(y, (x,), bwd)


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis, order preserved."""
    tensors = _stackable(tensors, "concat_channels")
    out = np.concatenate([t.data for t in tensors], axis=1)
    sizes = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    records = [record_of(t) for t in tensors]

    def bwd(g):
        for r, lo, hi in zip(records, offsets[:-1], offsets[1:]):
            accumulate_grad(r, g[:, lo:hi])

    return graph_out(out, tuple(tensors), bwd)


def hslice_pad(x: Tensor, displacement: int) -> Tensor:
    """Shift contents horizontally by `displacement`, filling with zeros.

    d >= 0 slices from column d leftward (out[..., x] = in[..., x+d]) and
    pads zeros on the right; d < 0 moves content right and pads zeros on
    the left.  Output shape equals input shape.  The one-displacement case
    of `hslice_pads`: its data is a view of a zero-extended copy of x.
    """
    return hslice_pads(x, (displacement,))[0]


def hslice_pads(x: Tensor, displacements: Sequence[int]) -> list[Tensor]:
    """`hslice_pad(x, d)` for every d of `displacements`, in order, as views
    of one zero-extended copy of x.

    The copy holds x between max(0, -min d) zero columns on the left and
    max(0, max d) on the right, so each shift is a W-wide window of it and
    no shift is a copy of its own.  Each view is its own graph node with
    `hslice_pad`'s backward, which holds x's record alone: the copy lives
    as long as a view or an array of one does (a consumer's saved
    operand), not as long as the graph.  |d| >= W raises.
    """
    ds = [int(d) for d in displacements]
    n, c, h, w = x.shape
    for d in ds:
        if abs(d) >= w:
            raise ContractViolation(f"|displacement| {abs(d)} must be < width {w}")
    if not ds:
        return []
    left, right = max(0, -min(ds)), max(0, max(ds))
    ext = np.zeros((n, c, h, left + w + right), x.dtype)
    ext[..., left : left + w] = x.data
    xr = record_of(x)

    def shifted(d: int) -> Tensor:
        def bwd(g):
            if not xr.requires_grad:
                return
            dx = np.zeros(xr.shape, xr.dtype)
            if d >= 0:
                dx[..., d:] = g[..., : w - d]
            else:
                dx[..., : w + d] = g[..., -d:]
            accumulate_grad(xr, dx)

        return graph_out(ext[..., left + d : left + d + w], (x,), bwd)

    return [shifted(d) for d in ds]


# ---------------------------------------------------------------------------
# elementwise / reduction glue
# ---------------------------------------------------------------------------

def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ContractViolation(
            f"{op} shape mismatch: {tuple(a.shape)} vs {tuple(b.shape)}"
        )


def add(a: Tensor, b: Tensor, *more: Tensor) -> Tensor:
    """The sum of same-shape tensors, added left to right, as one node."""
    terms = (a, b, *more)
    for t in terms[1:]:
        _check_same_shape(a, t, "add")
    out = a.data + b.data
    for t in more:
        out += t.data
    records = [record_of(t) for t in terms]

    def bwd(g):
        for r in records:
            accumulate_grad(r, g)

    return graph_out(out, terms, bwd)


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
