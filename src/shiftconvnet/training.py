"""Two-stage trainer, optimizer, checkpointing, and the evaluation and
ablation harnesses.

Stage 1 trains everything except the refinement head on the coarse-map
loss; stage 2 trains all parameters on the combined refined/small-map
loss.  A single global iteration counter drives both the learning-rate
schedule and the data order, so a resumed run replays the interrupted one
bit for bit.
"""

from __future__ import annotations

import math
import struct
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .autograd import ContractViolation, Tensor, backward
from .data import CodecError, resize_nearest
from .losses import LossConfig, d1_rate, epe, loss1, loss2, valid_mask
from .matching import CONCAT_THEN_CONV, CONV_THEN_CONCAT, ShiftConvConfig
from .network import (
    CORRELATION,
    NetworkConfig,
    ShiftConvNet,
    config_from_scalars,
    config_to_scalars,
    parameter_shapes,
)


class NumericalError(RuntimeError):
    """Training hit a non-finite value; the message says where."""


@dataclass
class TrainConfig:
    base_lr: float = 2e-4
    decay_start: int = 100000
    decay_period: int = 50000
    lr_floor: float = 3e-5
    stage1_iters: int = 2000
    stage2_iters: int = 500
    batch_size: int = 1
    seed: int = 0
    log_interval: int = 100
    checkpoint_interval: int = 0
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if not (self.base_lr >= self.lr_floor > 0):
            raise ContractViolation(
                f"need base_lr >= lr_floor > 0; got {self.base_lr} / {self.lr_floor}"
            )
        for name in ("stage1_iters", "stage2_iters"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be >= 0")
        if self.decay_period < 1 or self.decay_start < 0:
            raise ContractViolation("decay_start must be >= 0, decay_period >= 1")
        if self.batch_size < 1:
            raise ContractViolation("batch_size must be >= 1")
        if self.log_interval < 1:
            raise ContractViolation("log_interval must be >= 1")


def lr_schedule(iteration: int, cfg: TrainConfig) -> float:
    """Base rate, then halving every decay period, clamped at the floor."""
    if iteration < 0:
        raise ContractViolation(f"iteration must be >= 0; got {iteration}")
    if iteration < cfg.decay_start:
        return cfg.base_lr
    # cap the exponent below float64's limit; the floor has long since
    # taken over by then
    halvings = min(1 + (iteration - cfg.decay_start) // cfg.decay_period, 1023)
    return max(cfg.base_lr / (2.0 ** halvings), cfg.lr_floor)


class Adam:
    """Adaptive-moment optimizer over a name->Tensor parameter dict.

    Moments and step counts are tracked per parameter so a tensor first
    activated in stage 2 gets fresh bias correction.  Weight decay is part
    of the loss, not of the update rule.
    """

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.t = {n: 0 for n in params}

    def step(self, lr: float, active=None):
        """Update every active parameter that has a gradient.

        Every gradient is checked before any update, so a `NumericalError`
        (naming the first non-finite parameter in sorted order) leaves the
        parameters, moments and step counts as they were.
        """
        names = sorted(self.params) if active is None else sorted(active)
        grads = [(name, self.params[name].grad) for name in names
                 if self.params[name].grad is not None]
        for name, g in grads:
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient in parameter {name!r}")
        for name, g in grads:
            p = self.params[name]
            t = self.t[name] + 1
            self.t[name] = t
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1 ** t)
            v_hat = self.v[name] / (1 - self.beta2 ** t)
            step = lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.data = p.data - step.astype(p.data.dtype)


# ---------------------------------------------------------------------------
# checkpoint format: magic, u32 version/iteration/stage, then sorted records
# of (u32 name length, name, 4 x u32 extents, little-endian float32 values)
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SCNC"
CHECKPOINT_VERSION = 1
SCALAR_EXTENTS = (1, 1, 1, 1)
# numpy refuses a shape whose byte size exceeds its index type's maximum
_INDEX_MAX = np.iinfo(np.intp).max


@dataclass
class LoadedCheckpoint:
    model: ShiftConvNet
    optimizer: Adam
    iteration: int
    stage: int


def _checkpoint_records(model: ShiftConvNet, optimizer: Adam | None):
    records = {f"cfg.{k}": np.full(SCALAR_EXTENTS, v, np.float32)
               for k, v in config_to_scalars(model.config).items()}
    for name, p in model.params.items():
        records[name] = p.data
    if optimizer is not None:
        for name in model.params:
            records[f"opt.m.{name}"] = optimizer.m[name]
            records[f"opt.v.{name}"] = optimizer.v[name]
            records[f"opt.t.{name}"] = np.full(
                SCALAR_EXTENTS, optimizer.t[name], np.float32)
    return records


def checkpoint_bytes(model: ShiftConvNet, optimizer: Adam | None,
                     iteration: int, stage: int) -> bytes:
    parts = [CHECKPOINT_MAGIC,
             struct.pack("<3I", CHECKPOINT_VERSION, iteration, stage)]
    for name, arr in sorted(_checkpoint_records(model, optimizer).items()):
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<4I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(parts)


def save_checkpoint(path, model: ShiftConvNet, optimizer: Adam | None,
                    iteration: int, stage: int):
    Path(path).write_bytes(checkpoint_bytes(model, optimizer, iteration, stage))


def _take(data: bytes, pos: int, count: int, what: str):
    if pos + count > len(data):
        raise CodecError(f"truncated checkpoint while reading {what}", len(data))
    return data[pos : pos + count], pos + count


def read_checkpoint_blob(data: bytes):
    """Parse checkpoint bytes into (iteration, stage, name->array)."""
    head, pos = _take(data, 0, 4, "magic")
    if head != CHECKPOINT_MAGIC:
        raise CodecError(f"bad checkpoint magic {head!r}", 0)
    head, pos = _take(data, pos, 12, "header")
    version, iteration, stage = struct.unpack("<3I", head)
    if version != CHECKPOINT_VERSION:
        raise CodecError(f"unsupported checkpoint version {version}", 4)
    records: dict[str, np.ndarray] = {}
    while pos < len(data):
        head, pos = _take(data, pos, 4, "record name length")
        (name_len,) = struct.unpack("<I", head)
        raw_name, pos = _take(data, pos, name_len, "record name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CodecError("record name is not UTF-8", pos - name_len) from None
        head, pos = _take(data, pos, 16, f"extents of {name!r}")
        shape = struct.unpack("<4I", head)
        # checked on the nonzero extents: numpy refuses the shape even when
        # another extent is zero
        if math.prod(e for e in shape if e) * 4 > _INDEX_MAX:
            raise CodecError(f"extents {shape} of {name!r} are too large",
                             pos - 16)
        count = math.prod(shape)  # Python ints: no int64 wrap-around
        payload, pos = _take(data, pos, count * 4, f"values of {name!r}")
        arr = np.frombuffer(payload, dtype="<f4")
        finite = np.isfinite(arr)
        # cfg.* scalars are validated by config_from_scalars
        if not name.startswith("cfg.") and not finite.all():
            at = int(np.argmin(finite))
            raise CodecError(f"non-finite value {arr[at]} in {name!r}",
                             pos - 4 * (count - at))
        records[name] = arr.reshape(shape).copy()
    return iteration, stage, records


def load_checkpoint(path) -> LoadedCheckpoint:
    """Rebuild model and optimizer from a checkpoint file.

    The network configuration is embedded as cfg.* scalars, so nothing but
    the file is needed.  The records must be exactly those `checkpoint_bytes`
    writes for that configuration, optimizer state being all or nothing.
    Their names and shapes are compared with that table before anything is
    allocated, and one error names every missing, unexpected and mis-shaped
    record.  Adam cannot continue from a step count that is not a whole
    number >= 0 or from a negative second moment, so those are rejected by
    name too.  The model takes the stored arrays as they are."""
    iteration, stage, records = read_checkpoint_blob(Path(path).read_bytes())
    # a cfg.* record of the wrong shape is reported with the others below
    config = config_from_scalars({name[len("cfg."):]: float(arr.flat[0])
                                  for name, arr in records.items()
                                  if name.startswith("cfg.") and arr.size})
    # compared before any model is allocated: the config alone may ask for
    # arrays far larger than the records the file holds
    shapes = parameter_shapes(config)
    table = {f"cfg.{k}": SCALAR_EXTENTS for k in config_to_scalars(config)} | shapes
    with_optimizer = any(name.startswith("opt.") for name in records)
    if with_optimizer:
        for name, shape in shapes.items():
            table |= {f"opt.m.{name}": shape, f"opt.v.{name}": shape,
                      f"opt.t.{name}": SCALAR_EXTENTS}
    stored = {name: arr.shape for name, arr in records.items()}
    if stored != table:
        problems = {
            "missing": sorted(table.keys() - stored.keys()),
            "unexpected": sorted(stored.keys() - table.keys()),
            "mis-shaped": [f"{name} stored {stored[name]}, expected {table[name]}"
                           for name in sorted(table.keys() & stored.keys())
                           if stored[name] != table[name]],
        }
        raise ContractViolation(
            "checkpoint records disagree with its configuration: "
            + "; ".join(f"{kind} {names}" for kind, names in problems.items()
                        if names))
    unusable = sorted(
        name for name, arr in records.items()
        if name.startswith("opt.t.") and (arr.flat[0] < 0 or arr.flat[0] % 1)
        or name.startswith("opt.v.") and (arr < 0).any())
    if unusable:
        raise ContractViolation(
            f"optimizer records {unusable} hold a step count that is not a "
            f"whole number >= 0 or a negative second moment")

    model = ShiftConvNet.from_arrays(config, records)
    optimizer = Adam(model.params)
    if with_optimizer:
        optimizer.m = {name: records[f"opt.m.{name}"] for name in shapes}
        optimizer.v = {name: records[f"opt.v.{name}"] for name in shapes}
        optimizer.t = {name: int(records[f"opt.t.{name}"].flat[0])
                       for name in shapes}
    return LoadedCheckpoint(model=model, optimizer=optimizer,
                            iteration=iteration, stage=stage)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def batch_indices(num_samples: int, batch_size: int, seed: int,
                  iteration: int) -> np.ndarray:
    """Deterministic sample indices for a global iteration.

    Each epoch re-shuffles with a generator keyed on (seed, epoch); no
    mutable RNG state exists, so any iteration's batch can be recomputed
    in isolation (this is what makes checkpoint-resume exact)."""
    b = min(batch_size, num_samples)
    per_epoch = num_samples // b
    epoch, k = divmod(iteration, per_epoch)
    perm = np.random.default_rng((seed, epoch)).permutation(num_samples)
    return perm[k * b : (k + 1) * b]


def stage_param_names(model: ShiftConvNet, stage: int) -> list[str]:
    if stage not in (1, 2):
        raise ContractViolation(f"stage must be 1 or 2; got {stage}")
    names = sorted(model.params)
    if stage == 1:
        names = [n for n in names if not n.startswith("refine.")]
    return names


def _stack_batch(samples, idx):
    left = np.stack([samples[i].left for i in idx])
    right = np.stack([samples[i].right for i in idx])
    gt = np.stack([samples[i].gt_disp for i in idx])
    return left, right, gt


def _forward_backward(model: ShiftConvNet, left: np.ndarray,
                      right: np.ndarray, gt: np.ndarray, stage: int,
                      decay_weights, loss_cfg: LossConfig, it: int):
    """One step's forward, loss and backward into the parameter gradients.

    Returns (loss value, predicted disparity array).  The graph lives only
    in this frame, so it is freed before the next step builds its own."""
    model.zero_grad()
    out = model.forward(Tensor(left), Tensor(right), refine=(stage == 2))
    if stage == 1:
        loss = loss1(out.coarse_disp, gt, decay_weights, loss_cfg)
        pred = out.coarse_disp.data[:, 0]
    else:
        scale_div = model.config.small_map_scale
        h, w = gt.shape[1:]
        gt_small = resize_nearest(gt, h // scale_div, w // scale_div,
                                  is_disparity=True)
        loss = loss2(out.refined_disp, gt, out.small_disp, gt_small,
                     decay_weights, loss_cfg)
        pred = out.refined_disp.data[:, 0]
    loss_value = loss.item()
    if not np.isfinite(loss_value):
        raise NumericalError(f"non-finite loss at iteration {it}")
    backward(loss)
    return loss_value, pred


def train_stage(model: ShiftConvNet, optimizer: Adam, samples,
                cfg: TrainConfig, stage: int, iterations: int,
                start_iteration: int = 0, log=None,
                checkpoint_cb=None) -> list[dict]:
    """Run `iterations` optimizer steps of the given stage.

    Stage 1 keeps the refinement head out of the forward pass, the update
    set, and the weight-decay sum; stage 2 trains everything.  Returns the
    per-iteration history (iteration, lr, loss, epe); `log` gets one
    formatted line every cfg.log_interval iterations."""
    if not samples:
        raise ContractViolation("training needs at least one sample")
    shapes = {s.left.shape for s in samples}
    if len(shapes) != 1:
        raise ContractViolation(f"samples disagree in shape: {sorted(shapes)}")

    active = stage_param_names(model, stage)
    decay_weights = [model.params[n] for n in active if n.endswith(".w")]
    history = []

    for step in range(iterations):
        it = start_iteration + step
        lr = lr_schedule(it, cfg)
        idx = batch_indices(len(samples), cfg.batch_size, cfg.seed, it)
        left, right, gt = _stack_batch(samples, idx)
        loss_value, pred = _forward_backward(model, left, right, gt, stage,
                                             decay_weights, cfg.loss, it)
        optimizer.step(lr, active)

        batch_epe = epe(pred, gt)
        history.append({"iteration": it, "lr": lr, "loss": loss_value,
                        "epe": batch_epe})
        if log is not None and (it % cfg.log_interval == 0
                                or step == iterations - 1):
            log(f"iter={it} lr={lr:.6g} loss={loss_value:.6g} "
                f"epe={batch_epe:.6g}")
        if (checkpoint_cb is not None and cfg.checkpoint_interval > 0
                and (step + 1) % cfg.checkpoint_interval == 0):
            checkpoint_cb(it + 1)
    return history


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@contextmanager
def frozen_params(model: ShiftConvNet):
    """Temporarily stop gradient tracking so forwards build no graph."""
    flags = {n: t.requires_grad for n, t in model.params.items()}
    for t in model.params.values():
        t.requires_grad = False
    try:
        yield
    finally:
        for n, t in model.params.items():
            t.requires_grad = flags[n]


def render_table(header, rows, width: int | None = None) -> str:
    """A header and rows of string cells as text, each cell right-aligned
    to `width` and cells two spaces apart, or as newline-terminated CSV
    when no width is given."""
    lines = [header, *rows]
    if width is None:
        return "".join(",".join(cells) + "\n" for cells in lines)
    return "\n".join("  ".join(f"{c:>{width}}" for c in cells)
                     for cells in lines)


@dataclass
class EvalRow:
    """One sample's metrics.  A sample whose ground truth has no valid pixel
    has `valid_pixels == 0` and no metrics; the refined pair is None also
    when the sample has no refined map."""
    sample: str
    valid_pixels: int
    epe: float | None = None
    d1: float | None = None
    refined_epe: float | None = None
    refined_d1: float | None = None


@dataclass
class EvalReport:
    rows: list
    mean_epe: float
    mean_d1: float
    refined_mean_epe: float | None
    refined_mean_d1: float | None
    mean_forward_seconds: float

    def _table(self, d1_name: str, places: int) -> tuple:
        """Header and rows, one per sample then the mean over the samples
        with valid pixels: EPE with `places` decimals, D1 in percent with
        two fewer, n/a for a sample without valid pixels, and the refined
        columns only when every sample has a refined map."""
        prefixes = [""] if self.refined_mean_epe is None else ["", "refined_"]
        header = ["sample"] + [p + n for p in prefixes for n in ("epe", d1_name)]
        mean = EvalRow("mean", sum(r.valid_pixels for r in self.rows),
                       self.mean_epe, self.mean_d1, self.refined_mean_epe,
                       self.refined_mean_d1)

        def cell(value, scale, digits):
            return "n/a" if value is None else f"{scale * value:.{digits}f}"

        rows = [[r.sample] + [c for p in prefixes for c in (
                    cell(getattr(r, p + "epe"), 1, places),
                    cell(getattr(r, p + "d1"), 100, places - 2))]
                for r in self.rows + [mean]]
        return header, rows

    def text_table(self) -> str:
        header, rows = self._table("d1%", 4)
        return (render_table(header, rows, width=12)
                + f"\nmean forward time: {self.mean_forward_seconds:.4f} s")

    def csv(self) -> str:
        header, rows = self._table("d1_percent", 6)
        footer = ["mean_forward_seconds", f"{self.mean_forward_seconds:.6f}", ""]
        return render_table(header, rows + [footer])


def predict_disparity(model: ShiftConvNet, left: np.ndarray, right: np.ndarray,
                      refine: bool | None = None):
    """The coarse (H, W) map and the refined one, or None, for one (C, H, W)
    pair of any extents.

    The network needs extents divisible by 64, so the pair is zero-padded
    right and bottom to the next multiple and the maps are cropped back (as
    PSMNet does)."""
    h, w = left.shape[1:]
    pad = ((0, 0), (0, -h % 64), (0, -w % 64))
    out = model.forward(Tensor(np.pad(left, pad)[None]),
                        Tensor(np.pad(right, pad)[None]), refine=refine)
    refined = None
    if out.refined_disp is not None:
        refined = out.refined_disp.data[0, 0, :h, :w]
    return out.coarse_disp.data[0, 0, :h, :w], refined


# Timing of the evaluation and ablation forwards: untimed warm-up rounds,
# then at least this many timed rounds.
WARMUP_ROUNDS = 2
TIMED_ROUNDS = 10


def forward_seconds(forwards, warmup: int, rounds: int,
                    min_seconds: float = 0.0) -> list:
    """Mean wall time of each callable in `forwards`, called with the round
    index.

    Every round calls each callable once, in turn, so a slow spell of the
    host lands on all of them alike.  After `warmup` untimed rounds, timed
    rounds run until there are at least `rounds` of them and `min_seconds`
    have passed.  The slowest tenth of each callable's times is left out of
    its mean, so that one stall of the host does not decide the figure."""
    for i in range(warmup):
        for f in forwards:
            f(i)
    times = [[] for _ in forwards]
    start = time.perf_counter()
    i = 0
    while i < rounds or time.perf_counter() - start < min_seconds:
        for f, ts in zip(forwards, times):
            t0 = time.perf_counter()
            f(i)
            ts.append(time.perf_counter() - t0)
        i += 1
    return [float(np.mean(np.sort(ts)[:len(ts) - len(ts) // 10]))
            for ts in times]


def evaluate(model: ShiftConvNet, samples, refine: bool | None = None,
             warmup: int = WARMUP_ROUNDS, timed_forwards: int = TIMED_ROUNDS,
             predict=None) -> EvalReport:
    """Per-sample EPE/D1 plus mean forward wall time (see `forward_seconds`).

    A sample whose ground truth has no valid pixel gets a row with
    `valid_pixels == 0` and no metrics, and stays out of the means; when no
    sample has a valid pixel, the evaluation raises `ContractViolation`.
    `predict(sample) -> (coarse (H,W), refined (H,W) or None)` can be
    injected for metric plumbing tests; the default runs the model.  The
    model is left untouched (gradients frozen during the run, restored
    after)."""
    if not samples:
        raise ContractViolation("evaluation needs at least one sample")
    do_refine = model.config.refine_enabled if refine is None else refine

    fn = predict if predict is not None else (
        lambda s: predict_disparity(model, s.left, s.right, do_refine))

    with frozen_params(model):
        rows = []
        have_refined = True
        for i, sample in enumerate(samples):
            coarse, refined = fn(sample)
            gt = sample.gt_disp
            row = EvalRow(f"{i:06d}", int(np.count_nonzero(valid_mask(gt))))
            if row.valid_pixels:
                row.epe, row.d1 = epe(coarse, gt), d1_rate(coarse, gt)
            if refined is None:
                have_refined = False
            elif row.valid_pixels:
                row.refined_epe = epe(refined, gt)
                row.refined_d1 = d1_rate(refined, gt)
            rows.append(row)
        scored = [r for r in rows if r.valid_pixels]
        if not scored:
            raise ContractViolation(
                f"none of the {len(rows)} evaluation samples has a valid "
                f"ground-truth pixel"
            )

        [seconds] = forward_seconds(
            [lambda i: fn(samples[i % len(samples)])], warmup, timed_forwards)

    def mean(key):
        return float(np.mean([getattr(r, key) for r in scored]))

    return EvalReport(
        rows=rows,
        mean_epe=mean("epe"),
        mean_d1=mean("d1"),
        refined_mean_epe=mean("refined_epe") if have_refined else None,
        refined_mean_d1=mean("refined_d1") if have_refined else None,
        mean_forward_seconds=seconds,
    )


# ---------------------------------------------------------------------------
# ablation and benchmark harnesses
# ---------------------------------------------------------------------------

ABLATION_FILTER_COUNTS = (8, 12, 16)
# A budget of seconds for timing the ablation cells, not only a count of
# rounds, keeps each cell's sample large when a forward is short, so one
# stall of the host moves its trimmed mean little.
ABLATION_TIMING_SECONDS = 2.0


@dataclass
class AblationRow:
    cost_volume: str
    filters: int | None
    mean_forward_seconds: float
    epe: float


@dataclass
class AblationReport:
    rows: list
    seed: int
    iterations: int

    def _rows(self, places: int, no_filters: str) -> list:
        return [[r.cost_volume,
                 no_filters if r.filters is None else str(r.filters),
                 f"{r.mean_forward_seconds:.{places}f}", f"{r.epe:.{places}f}"]
                for r in self.rows]

    def text_table(self) -> str:
        return (f"seed={self.seed} iterations={self.iterations}\n"
                + render_table(("cost volume", "filters", "time (s)", "epe"),
                               self._rows(4, "-"), width=24))

    def csv(self) -> str:
        return render_table(
            ("cost_volume", "filters", "mean_forward_seconds", "epe"),
            self._rows(6, ""))


def ablation_suite(samples, base_cfg: NetworkConfig, train_cfg: TrainConfig,
                   iterations: int | None = None, log=None) -> AblationReport:
    """Train and evaluate the cost-volume matrix under one seed and budget.

    Rows: both shift-conv variants at 8/12/16 matching-clue filters, plus
    the fixed correlation cost volume; every cell starts from the same
    initialization seed and trains stage 1 for the same iteration count.
    The trained cells are timed together, in interleaved rounds, for at
    least TIMED_ROUNDS rounds and ABLATION_TIMING_SECONDS."""
    iters = train_cfg.stage1_iters if iterations is None else iterations
    cells = []
    for variant in (CONV_THEN_CONCAT, CONCAT_THEN_CONV):
        for filters in ABLATION_FILTER_COUNTS:
            shift = ShiftConvConfig(
                maxdisp=base_cfg.shift_cfg.maxdisp,
                clue_filters=filters,
                variant=variant,
                both_directions=base_cfg.shift_cfg.both_directions,
            )
            cells.append((variant, filters,
                          replace(base_cfg, shift_cfg=shift,
                                  cost_volume="shiftconv")))
    cells.append((CORRELATION, None, replace(base_cfg, cost_volume=CORRELATION)))

    models = []
    for label, filters, cfg in cells:
        if log is not None:
            log(f"ablation cell: {label} filters={filters}")
        model = ShiftConvNet(cfg, seed=train_cfg.seed)
        optimizer = Adam(model.params)
        train_stage(model, optimizer, samples, train_cfg, stage=1,
                    iterations=iters, log=None)
        models.append(model)

    with ExitStack() as frozen:
        for model in models:
            frozen.enter_context(frozen_params(model))
        pairs = [(s.left, s.right) for s in samples]
        epes = [float(np.mean([epe(predict_disparity(model, *p, False)[0], s.gt_disp)
                               for p, s in zip(pairs, samples)])) for model in models]
        seconds = forward_seconds(
            [lambda i, m=model: predict_disparity(m, *pairs[i % len(pairs)], False)
             for model in models],
            WARMUP_ROUNDS, TIMED_ROUNDS, ABLATION_TIMING_SECONDS)
    rows = [AblationRow(cost_volume=label, filters=filters,
                        mean_forward_seconds=t, epe=e)
            for (label, filters, _), t, e in zip(cells, seconds, epes)]
    return AblationReport(rows=rows, seed=train_cfg.seed, iterations=iters)


def parameter_count(model: ShiftConvNet) -> int:
    return int(sum(p.data.size for p in model.params.values()))


BENCH_REPEATS = 5


def bench_forward(cfg: NetworkConfig, height: int, width: int,
                  warmup: int = 2, repeats: int = BENCH_REPEATS,
                  seed: int = 0) -> dict:
    """Wall-time the full forward pass on random images."""
    if repeats < 1:
        raise ContractViolation(f"bench needs at least one timed run; got {repeats}")
    rng = np.random.default_rng(seed)
    shape = (1, cfg.image_channels, height, width)
    left = Tensor(rng.random(shape, dtype=np.float32))
    right = Tensor(rng.random(shape, dtype=np.float32))
    model = ShiftConvNet(cfg, seed=seed)
    with frozen_params(model):
        for _ in range(warmup):
            model.forward(left, right)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            model.forward(left, right)
            times.append(time.perf_counter() - t0)
    return {"mean_seconds": float(np.mean(times)),
            "best_seconds": float(np.min(times)),
            "parameters": parameter_count(model)}
