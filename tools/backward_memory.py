#!/usr/bin/env python3
"""Where a stage-2 training step, and an inference forward, hold their memory.

Run from the repository root:

    python3 tools/backward_memory.py [HEIGHT WIDTH] [--config desk|tiny]

The tool builds the seed-0 model of the configuration (desk by default),
one synthetic pair of HEIGHT x WIDTH (384 x 768 by default; both multiples
of 64) and, under `tracemalloc`, first runs one refine-on forward of the
pair with the parameters frozen, as inference does, then one stage-2
step's forward and loss, as `training.train_stage` does.  The model's
five network stages are wrapped to read the traced peak of each stretch
of either forward.  It then runs `backward` with every closure wrapped.
It prints the no-grad forward's traced peak less the memory traced when
it starts (the model and the pair), so what the forward itself holds at
its peak, and where that falls (a network stage, or `forward`, the glue
between them); then the step's forward peak and where it falls (a
network stage; `forward`; `setup`, building the model and the pair; or
`loss`); then the traced memory when the backward starts (the recorded
graph, the inputs and the model), then one row per closure: the traced
memory before it runs, its peak, and the memory after it, read once the
closure and what only it held are released, as `backward` releases them.  A
closure is named after the one layer whose parameters it reads, else
after the function that recorded it (the loss reads every weight).  The
last two lines name the highest backward peak and the step's peak, the
larger of the forward's and the backward's.  Figures are in MB (10^6
bytes) and count only allocations Python's tracer sees, numpy's arrays
among them.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from shiftconvnet import autograd, data, losses, network, training  # noqa: E402

CONFIGS = {"desk": network.desk_config, "tiny": network.tiny_config}
PAIR_SEED = 1
STAGES = ("feature_extract", "build_cost_volume", "encode", "decode", "refine")


def _mb(nbytes: int) -> float:
    return nbytes / 1e6


def _label(node, names: dict[int, str]) -> str:
    # names maps the parameters' graph records, which node._parents holds
    layers = {names[id(p)].rsplit(".", 1)[0] for p in node._parents if id(p) in names}
    if len(layers) == 1:
        return layers.pop()
    return node._backward.__qualname__.split(".")[0]


def _watched(closure, label: str, rows: list):
    held = [closure]

    def run(g):
        # hand the closure the gradient's only reference, as backward does
        box = [g]
        del g
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        # nor does the wrapper keep the closure past its call, so `after`
        # counts nothing that only the closure held: backward drops it next
        held.pop()(box.pop())
        after, peak = tracemalloc.get_traced_memory()
        rows.append((label, before, peak, after))

    return run


class _Stretches:
    """The traced peak of each labelled stretch of the forward."""

    def __init__(self, label: str):
        self.label, self.peaks = label, {}

    def enter(self, label: str):
        # the peak since the last boundary belongs to the stretch that ends
        peak = tracemalloc.get_traced_memory()[1]
        self.peaks[self.label] = max(self.peaks.get(self.label, 0), peak)
        tracemalloc.reset_peak()
        self.label = label

    def wrap(self, stage):
        def run(*args, **kwargs):
            outer = self.label
            self.enter(stage.__name__)
            try:
                return stage(*args, **kwargs)
            finally:
                self.enter(outer)

        return run

    def restart(self, label: str, peaks: dict | None = None) -> dict:
        """End the current stretch and start over at `label`, from `peaks`
        (none by default); returns the peaks so far."""
        self.enter(label)
        done, self.peaks = self.peaks, dict(peaks or {})
        return done

    def top(self) -> tuple[int, str]:
        """(peak, label) of the highest stretch, the first on a tie: the
        peak of them all."""
        return _top(self.peaks)


def _top(peaks: dict) -> tuple[int, str]:
    label, peak = max(peaks.items(), key=lambda item: item[1])
    return peak, label


def measure(config: str, height: int, width: int):
    """((no-grad forward peak above the memory held when it starts, where
    it falls), (step's forward peak, where it falls), memory at backward
    start, [(label, before, peak, after)]), sizes in bytes."""
    rows: list = []
    tracemalloc.start()
    stretches = _Stretches("setup")
    try:
        model = network.ShiftConvNet(CONFIGS[config](), seed=0)
        pair = data.gen_synthetic_pair(data.SynthConfig(width=width, height=height,
                                                        seed=PAIR_SEED))
        left, right, gt = (a[None] for a in (pair.left, pair.right, pair.gt_disp))
        decay = [model.params[n] for n in training.stage_param_names(model, 2)
                 if n.endswith(".w")]
        scale = model.config.small_map_scale
        gt_small = data.resize_nearest(gt, height // scale, width // scale,
                                       is_disparity=True)
        for stage in STAGES:
            setattr(model, stage, stretches.wrap(getattr(model, stage)))
        # the no-grad forward's stretches are read apart from the step's;
        # its maps are dropped as it returns
        setup = stretches.restart("forward")
        held = tracemalloc.get_traced_memory()[0]
        with training.frozen_params(model):
            model.forward(autograd.Tensor(left), autograd.Tensor(right), refine=True)
        peak, where = _top(stretches.restart("forward", setup))
        no_grad = (peak - held, where)
        out = model.forward(autograd.Tensor(left), autograd.Tensor(right),
                            refine=True)
        stretches.enter("loss")
        loss = losses.loss2(out.refined_disp, gt, out.small_disp, gt_small,
                            decay, training.TrainConfig().loss)
        del out
        names = {id(t._record): name for name, t in model.params.items()}
        for node in autograd._toposort(loss._record):
            if node._backward is not None:
                node._backward = _watched(node._backward, _label(node, names), rows)
        stretches.enter("backward")
        start = tracemalloc.get_traced_memory()[0]
        autograd.backward(loss)
    finally:
        tracemalloc.stop()
    return no_grad, stretches.top(), start, rows


def report(no_grad: tuple[int, str], forward: tuple[int, str], start: int,
           rows: list) -> str:
    forward_peak, where = forward
    lines = [f"no-grad forward peak: {_mb(no_grad[0]):.1f} MB in {no_grad[1]}",
             f"forward peak: {_mb(forward_peak):.1f} MB in {where}",
             f"backward start: {_mb(start):.1f} MB",
             f"{'closure':<24}{'before':>10}{'peak':>10}{'after':>10}"]
    for label, before, peak, after in rows:
        lines.append(f"{label:<24}{_mb(before):>10.1f}{_mb(peak):>10.1f}"
                     f"{_mb(after):>10.1f}")
    top = max(rows, key=lambda r: r[2])
    lines.append(f"backward peak: {_mb(top[2]):.1f} MB in {top[0]}")
    step = max((forward_peak, "forward"), (top[2], top[0]))
    lines.append(f"step peak: {_mb(step[0]):.1f} MB in {step[1]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("size", nargs="*", type=int, default=[384, 768],
                        metavar="HEIGHT WIDTH")
    parser.add_argument("--config", choices=sorted(CONFIGS), default="desk")
    args = parser.parse_args(argv)
    if len(args.size) != 2 or any(v < 64 or v % 64 for v in args.size):
        parser.error("give HEIGHT and WIDTH, each a positive multiple of 64")
    print(report(*measure(args.config, *args.size)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
