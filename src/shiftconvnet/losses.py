"""Training losses and evaluation metrics for disparity regression.

Stage 1 trains the coarse full-resolution prediction with a smooth-L1 data
term plus squared-weight decay; stage 2 adds the refined prediction and a
Manhattan-distance term on the small-scale prediction.  Per-pixel
reductions are means over valid pixels, so the loss coefficients do not
depend on image resolution.  Ground-truth pixels that are non-finite or
negative are treated as invalid and excluded from losses and metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import (ContractViolation, Tensor, accumulate_grad, graph_out,
                       record_of)


@dataclass
class LossConfig:
    """alpha1: stage-1 weight decay; alpha2: small-map term weight in
    stage 2; beta2: stage-2 weight decay.  All must be >= 0."""

    alpha1: float = 1e-4
    alpha2: float = 0.5
    beta2: float = 1e-4

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "beta2"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be >= 0")


def _smooth_l1_parts(x: np.ndarray):
    """(smooth-L1 of x, its derivative), elementwise, in two fresh arrays.

    The selects write into buffers already made: 0.5*x*x over |x| - 0.5
    where |x| < 1, and x over sign(x) in the same places.
    """
    err = np.abs(x)
    quad = err < 1
    half = x.dtype.type(0.5)
    sq = np.multiply(half, x)
    sq *= x
    err -= half
    np.copyto(err, sq, where=quad)
    deriv = np.sign(x, out=sq)
    np.copyto(deriv, x, where=quad)
    return err, deriv


def smooth_l1(x: Tensor) -> Tensor:
    """0.5*x^2 for |x| < 1, |x| - 0.5 otherwise.

    Continuous with continuous first derivative at |x| = 1; the derivative
    is x inside the quadratic region and sign(x) outside.
    """
    out, deriv = _smooth_l1_parts(x.data)
    xr = record_of(x)

    def bwd(g):
        accumulate_grad(xr, g * deriv)

    return graph_out(out, (x,), bwd)


def valid_mask(gt: np.ndarray) -> np.ndarray:
    """Pixels eligible for losses/metrics: finite and non-negative."""
    return np.isfinite(gt) & (gt >= 0)


def _as_target(pred: Tensor, gt: np.ndarray, what: str):
    """Normalize gt to the prediction's (N, 1, H, W) layout.

    Returns (target with invalid pixels zeroed, mask as 0/1 values,
    valid-pixel count).  Accepts (H, W), (N, H, W) or (N, 1, H, W) arrays.
    """
    arr = np.asarray(gt, dtype=pred.data.dtype)
    if arr.ndim == 2:
        arr = arr[None, None]
    elif arr.ndim == 3:
        arr = arr[:, None]
    if arr.ndim != 4 or arr.shape[1] != 1:
        raise ContractViolation(f"{what} ground truth has shape {np.shape(gt)}")
    if arr.shape[0] == 1 and pred.shape[0] > 1:
        arr = np.broadcast_to(arr, (pred.shape[0],) + arr.shape[1:]).copy()
    if arr.shape != pred.shape:
        raise ContractViolation(
            f"{what} shape mismatch: prediction {tuple(pred.shape)} vs "
            f"ground truth {arr.shape}"
        )
    mask = valid_mask(arr)
    count = int(mask.sum())
    if count == 0:
        raise ContractViolation(f"{what} has zero valid ground-truth pixels")
    return np.where(mask, arr, 0), mask.astype(pred.data.dtype), count


def weight_decay(weights):
    """Sum of squared values over the given weight tensors, as a numpy
    scalar (biases are the caller's business; by convention they are
    excluded)."""
    total = np.float32(0)
    for w in weights:
        total = total + (w.data * w.data).sum(dtype=w.dtype)
    return total


def _stage_loss(terms, weights, decay: float) -> Tensor:
    """One graph node for sum_k coef_k * masked-mean(kernel_k(p_k - T_k))
    plus decay * sum(w^2), over (p_k, gt_k, name, kernel_k, coef_k) terms;
    a kernel maps the error to (value, derivative).  The float operations
    run in the order of the elementwise-op composition of the same loss."""
    dtype = terms[0][0].dtype
    decayed = list(weights) if decay != 0 else []
    if any(w.dtype != dtype for w in decayed):
        raise ContractViolation(
            f"loss dtype mismatch: decayed weights must be {dtype} like the predictions"
        )
    decay = dtype.type(decay)
    total, parts = None, []
    for pred, gt, what, kernel, coef in terms:
        target, mask, count = _as_target(pred, gt, what)
        # the difference overwrites the target, and a kernel may overwrite it
        err, deriv = kernel(np.subtract(pred.data, target, out=target))
        del target
        coef, inv = dtype.type(coef), dtype.type(1.0 / count)
        err *= mask
        term = err.sum(dtype=dtype) * inv * coef
        total = term if total is None else total + term
        parts.append((record_of(pred), coef, inv, mask, deriv))
    if decay != 0:
        total = total + weight_decay(decayed) * decay
    # the backward holds records, masks, derivatives and the weights' arrays
    saved = [(record_of(w), w.data) for w in decayed]

    def bwd(g):
        for pred, coef, inv, mask, deriv in parts:
            scaled = g * coef * inv * mask
            scaled *= deriv
            accumulate_grad(pred, scaled)
        for w, wa in saved:
            accumulate_grad(w, (g * 2 * decay) * wa)

    parents = tuple(t[0] for t in terms) + tuple(decayed)
    return graph_out(np.full((1, 1, 1, 1), total, dtype), parents, bwd)


def loss1(p_c: Tensor, gt: np.ndarray, weights, cfg: LossConfig) -> Tensor:
    """Coarse-stage loss: masked mean smooth-L1 plus alpha1 * sum(w^2)."""
    return _stage_loss([(p_c, gt, "loss1", _smooth_l1_parts, 1.0)],
                       weights, cfg.alpha1)


def loss2(p_f: Tensor, gt: np.ndarray, p_s: Tensor, gt_small: np.ndarray,
          weights, cfg: LossConfig) -> Tensor:
    """Refine-stage loss: mean smooth-L1 on the final prediction, plus
    alpha2 * mean |p_s - T_s| on the small map, plus beta2 * sum(w^2).

    `gt_small` must already be in small-map pixel units (resized with the
    nearest-neighbor disparity rule)."""
    # d|x|/dx is sign(x), 0 at x = 0
    return _stage_loss([(p_f, gt, "loss2 final", _smooth_l1_parts, 1.0),
                        (p_s, gt_small, "loss2 small",
                         lambda d: (np.abs(d), np.sign(d, out=d)), cfg.alpha2)],
                       weights, cfg.beta2)


# ---------------------------------------------------------------------------
# metrics (plain arrays, no gradients)
# ---------------------------------------------------------------------------

def _metric_inputs(pred: np.ndarray, gt: np.ndarray, mask):
    pred = np.asarray(pred, dtype=np.float64)
    gt_arr = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt_arr.shape:
        raise ContractViolation(
            f"metric shape mismatch: {pred.shape} vs {gt_arr.shape}"
        )
    m = valid_mask(gt_arr) if mask is None else np.asarray(mask, dtype=bool)
    if m.shape != gt_arr.shape:
        raise ContractViolation(f"mask shape {m.shape} does not match {gt_arr.shape}")
    if not m.any():
        raise ContractViolation("metric mask selects zero pixels")
    return np.abs(pred - gt_arr)[m]


def epe(pred: np.ndarray, gt: np.ndarray, mask=None) -> float:
    """End-point error: mean absolute disparity error over masked pixels."""
    return float(_metric_inputs(pred, gt, mask).mean())


def d1_rate(pred: np.ndarray, gt: np.ndarray, mask=None,
            threshold: float = 3.0) -> float:
    """Fraction of masked pixels with error > threshold, in [0, 1].

    Tables report this value multiplied by 100."""
    err = _metric_inputs(pred, gt, mask)
    # a non-finite prediction is a bad pixel: NaN > threshold is False
    return float((~(err <= threshold)).mean())
