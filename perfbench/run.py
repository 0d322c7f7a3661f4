#!/usr/bin/env python3
"""ShiftConvNet benchmark: one workload, one process, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 15 --trace 0

The caller issues the next forward pass or training step only when the
previous one has returned.  The benchmark builds every input from `--seed`,
sets up several times and reports the median set-up, measures for
`--seconds` seconds in whole rounds, checks the outputs against independent
computations, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs the same
workload untraced and then traced (the public functions of each module
wrapped from outside, see spans.py), reports the per-layer metrics plus the
tracing overhead, and writes every span to perfbench_runs/.  See README.md
for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

IMPORT_START = time.perf_counter()

# BLAS threads are fixed before numpy loads: at most nproc, capped at 2 so
# figures from larger machines stay comparable.
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("infer-full", "train-desk", "train-full")

DESK_HW = (64, 128)
FULL_HW = (384, 768)
DESK_PAIRS = 4
FULL_PAIRS = 4
MODEL_SEED = 0
STAGE1_STEPS = 40
STAGE2_STEPS = 16
CHECKPOINT_EVERY = 8
# the desk checkpoint the resume check starts from: mid stage 2
MID_CHECKPOINT = STAGE1_STEPS + CHECKPOINT_EVERY
FULL_STAGE2_STEPS = 4
DESK_EVAL_CYCLES = 3
SETUP_REPEATS = 5

# train-desk: refined EPE after the schedule must be below this share of
# the untrained model's refined EPE on the same pairs
EPE_FACTOR = 0.75
# infer-full: |program - float64 reference| <= REF_TOL * max(1, max|reference|)
REF_TOL = 1e-4
# train-full: |finite difference - |g|| <= DIRDERIV_TOL * |g| with step DIRDERIV_EPS
DIRDERIV_EPS = 1e-4
DIRDERIV_TOL = 1e-3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))
try:
    import numpy as np
    import shiftconvnet
    from shiftconvnet import autograd, data, losses, network, training
except ImportError as exc:
    print(f"perfbench: cannot import shiftconvnet from {ROOT / 'src'}: {exc}",
          file=sys.stderr)
    sys.exit(2)
if not Path(shiftconvnet.__file__).resolve().is_relative_to(ROOT / "src"):
    print(f"perfbench: shiftconvnet imported from {shiftconvnet.__file__}, "
          f"not from {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import reference  # noqa: E402
from spans import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - IMPORT_START
now = time.perf_counter


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def synth(hw, seed):
    h, w = hw
    return data.gen_synthetic_pair(data.SynthConfig(width=w, height=h, seed=seed))


class Inputs:
    """Everything a round needs, built by one set-up."""

    def __init__(self, workload, seed, rundir):
        base = seed * 1000
        desk = [synth(DESK_HW, base + i) for i in range(DESK_PAIRS)]
        self.full = ([synth(FULL_HW, base + 500 + j) for j in range(FULL_PAIRS)]
                     if workload != "train-desk" else [])
        data.write_dataset(rundir / "dataset", desk)
        self.desk = data.load_dataset(rundir / "dataset")
        self.model = network.ShiftConvNet(network.desk_config(), seed=MODEL_SEED)


def warm_up(desk):
    """One step of each stage and one forward on a throwaway model, so
    first-call costs (lazy numpy paths, BLAS start-up) stay out of the
    measured phase."""
    model = network.ShiftConvNet(network.desk_config(), seed=MODEL_SEED)
    opt = training.Adam(model.params)
    cfg = training.TrainConfig()
    training.train_stage(model, opt, desk, cfg, 1, 1)
    training.train_stage(model, opt, desk, cfg, 2, 1, start_iteration=1)
    with training.frozen_params(model):
        model.forward(autograd.Tensor(desk[0].left[None]),
                      autograd.Tensor(desk[0].right[None]))


def set_up(workload, seed, rundir, tracer=None):
    if tracer is not None:
        tracer.begin_root("setup")
    t0 = now()
    inputs = Inputs(workload, seed, rundir)
    warm_up(inputs.desk)
    return inputs, now() - t0


# ---------------------------------------------------------------------------
# timing helpers
# ---------------------------------------------------------------------------

class StepClock:
    """Times each training step from train_stage's per-step log call.

    The log callback fires at the end of every step; checkpoint saves that
    follow it restart the clock so they are not charged to the next step.
    With a tracer, each step becomes its own root."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = {"stage1_step": [], "stage2_step": []}
        self.kind = None
        self.mark = 0.0

    def _root(self, kind):
        if self.tracer is not None:
            self.tracer.begin_root(kind)

    def start(self, kind):
        self.kind = kind
        self._root(kind)
        self.mark = now()

    def lap(self, _line):
        t = now()
        self.times[self.kind].append(t - self.mark)
        self._root(self.kind)
        self.mark = t

    def restart(self):
        self.mark = now()

    def stop(self):
        # the root opened by the last lap holds no step
        if self.tracer is not None:
            self.tracer.roots[-1] = "between"


def forward_maps(model, sample, tracer=None):
    """One refine-on forward pass without gradients; returns the wall time
    and the (coarse, small, refined) arrays."""
    left = autograd.Tensor(sample.left[None])
    right = autograd.Tensor(sample.right[None])
    if tracer is not None:
        tracer.begin_root("forward")
    t0 = now()
    out = model.forward(left, right, refine=True)
    dt = now() - t0
    return dt, (out.coarse_disp.data, out.small_disp.data, out.refined_disp.data)


# ---------------------------------------------------------------------------
# workload phases
# ---------------------------------------------------------------------------

class Run:
    """Accumulates what one measured phase produced."""

    def __init__(self):
        self.forward_s = []
        self.train_s = []
        self.histories = []
        self.epes = []
        self.maps = []          # first cycle's output maps, one per pair
        self.bad_maps = []      # (pair, reason) for any output failing shape/finite
        self.ops = 0
        self.grads = None
        self.clock = None


def desk_schedule(model, desk, rundir, run, clock, stages=(1, 2),
                  after_stage=None):
    """Stage 1 then stage 2 at desk size with periodic checkpoints saved
    through train_stage's callback.  `after_stage(stage)` runs between
    stages, outside the timed training.  Returns the concatenated history,
    the optimizer and the training wall time, checkpoint saves included."""
    opt = training.Adam(model.params)
    cfg = training.TrainConfig(log_interval=1, checkpoint_interval=CHECKPOINT_EVERY)
    history = []
    seconds = 0.0
    current = {"stage": 1}

    def save(iteration):
        training.save_checkpoint(rundir / f"desk.iter{iteration}", model, opt,
                                 iteration, current["stage"])
        clock.restart()

    plan = {1: (STAGE1_STEPS, 0), 2: (STAGE2_STEPS, STAGE1_STEPS)}
    for stage in stages:
        steps, start = plan[stage]
        current["stage"] = stage
        t0 = now()
        clock.start(f"stage{stage}_step")
        history += training.train_stage(model, opt, desk, cfg, stage, steps,
                                        start_iteration=start, log=clock.lap,
                                        checkpoint_cb=save)
        clock.stop()
        seconds += now() - t0
        run.ops += steps
        if after_stage is not None:
            after_stage(stage)
    return history, opt, seconds


def eval_pass(model, pairs, run, tracer, cycles=None, seconds=None):
    """Timed closed-loop forwards over `pairs`, whole cycles only: a fixed
    number of cycles, or cycles until `seconds` have passed.  Keeps and
    returns the first cycle's maps."""
    t_start = now()
    cycle = 0
    first = []
    with training.frozen_params(model):
        while True:
            maps = []
            for j, sample in enumerate(pairs):
                dt, out = forward_maps(model, sample, tracer)
                run.forward_s.append(dt)
                run.ops += 1
                check_maps(out, sample, j, run)
                maps.append(out)
            if cycle == 0:
                first = maps
            cycle += 1
            if cycles is not None and cycle >= cycles:
                break
            if seconds is not None and now() - t_start >= seconds:
                break
    run.maps = first
    return first


def refined_epe(maps, pairs):
    return float(np.mean([losses.epe(m[2][0, 0], s.gt_disp)
                          for m, s in zip(maps, pairs)]))


def desk_epe(model, desk, run):
    """Mean refined EPE over the desk pairs after training (untimed)."""
    maps = []
    with training.frozen_params(model):
        for j, sample in enumerate(desk):
            maps.append(forward_maps(model, sample)[1])
            run.ops += 1
            check_maps(maps[-1], sample, j, run)
    return refined_epe(maps, desk)


def check_maps(maps, sample, j, run):
    h, w = sample.left.shape[1:]
    scale = network.desk_config().small_map_scale
    want = [(1, 1, h, w), (1, 1, h // scale, w // scale), (1, 1, h, w)]
    for name, arr, shape in zip(("coarse", "small", "refined"), maps, want):
        if arr.shape != shape:
            run.bad_maps.append((j, f"{name} shape {arr.shape} != {shape}"))
        elif not np.all(np.isfinite(arr)):
            run.bad_maps.append((j, f"{name} map has non-finite values"))


def phase_train_desk(inputs, rundir, seconds, tracer=None):
    """Rounds of the desk schedule, with timed forwards over the desk pairs
    after each stage (spreading the forward samples over the run); the EPE
    comes from the forwards after stage 2."""
    run = Run()
    run.clock = StepClock(tracer)
    t_start = now()
    model = inputs.model
    while True:
        maps = {}

        def evaluate(stage):
            maps[stage] = eval_pass(model, inputs.desk, run, tracer,
                                    cycles=DESK_EVAL_CYCLES)

        history, _, train_s = desk_schedule(model, inputs.desk, rundir, run,
                                            run.clock, after_stage=evaluate)
        run.train_s.append(train_s)
        run.histories.append(history)
        run.epes.append(refined_epe(maps[2], inputs.desk))
        if now() - t_start >= seconds:
            return run
        model = network.ShiftConvNet(network.desk_config(), seed=MODEL_SEED)


def phase_infer_full(inputs, rundir, seconds, tracer=None):
    run = Run()
    run.clock = StepClock(tracer)
    history, _, train_s = desk_schedule(inputs.model, inputs.desk, rundir, run,
                                        run.clock)
    run.train_s.append(train_s)
    run.histories.append(history)
    run.epes.append(desk_epe(inputs.model, inputs.desk, run))
    eval_pass(inputs.model, inputs.full, run, tracer, seconds=seconds)
    return run


def phase_train_full(inputs, rundir, seconds, tracer=None):
    """Rounds of: desk stage 1, a checkpoint, full-size stage-2 steps, then
    one timed forward per full pair.  After the first step (whose gradient
    the directional-derivative check needs) the stage-2 steps run as one
    `train_stage` call, as a training run does, so the memory that call
    keeps between steps shows in peak RSS."""
    run = Run()
    run.clock = clock = StepClock(tracer)
    t_start = now()
    model = inputs.model
    cfg = training.TrainConfig(log_interval=1)
    while True:
        history, opt, train_s = desk_schedule(model, inputs.desk, rundir, run,
                                              clock, stages=(1,))
        t0 = now()
        training.save_checkpoint(rundir / "theta0", model, opt, STAGE1_STEPS, 1)
        clock.start("stage2_step")
        history += training.train_stage(model, opt, inputs.full, cfg, 2, 1,
                                        start_iteration=STAGE1_STEPS,
                                        log=clock.lap)
        if run.grads is None:
            run.grads = {n: p.grad.copy() for n, p in model.params.items()
                         if p.grad is not None}
        history += training.train_stage(model, opt, inputs.full, cfg, 2,
                                        FULL_STAGE2_STEPS - 1,
                                        start_iteration=STAGE1_STEPS + 1,
                                        log=clock.lap)
        clock.stop()
        train_s += now() - t0
        run.ops += FULL_STAGE2_STEPS
        run.train_s.append(train_s)
        run.histories.append(history)
        run.epes.append(desk_epe(model, inputs.desk, run))
        eval_pass(model, inputs.full, run, tracer, cycles=1)
        if now() - t_start >= seconds:
            return run
        model = network.ShiftConvNet(network.desk_config(), seed=MODEL_SEED)


PHASES = {"train-desk": phase_train_desk, "infer-full": phase_infer_full,
          "train-full": phase_train_full}
# the root kind whose per-root totals the per-layer metrics summarise
PRIMARY_ROOT = {"infer-full": "forward", "train-desk": "stage1_step",
                "train-full": "stage2_step"}


def end_to_end(run, setup_s):
    ms = lambda xs: statistics.median(xs) * 1e3  # noqa: E731
    return {
        "setup_s": IMPORT_S + statistics.median(setup_s),
        "forward_ms": ms(run.forward_s),
        "stage1_step_ms": ms(run.clock.times["stage1_step"]),
        "stage2_step_ms": ms(run.clock.times["stage2_step"]),
        "train_s": statistics.median(run.train_s),
        "epe_px": run.epes[0],
    }


def metric_units(kind):
    """name -> unit for the `end_to_end` or `per_layer` list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# checks (after the peak-RSS reading)
# ---------------------------------------------------------------------------

def note(message):
    print(f"perfbench: {message}", file=sys.stderr)


def check_common(run):
    problems = [f"pair {j}: {why}" for j, why in run.bad_maps]
    for history in run.histories:
        bad = [h["iteration"] for h in history if not np.isfinite(h["loss"])]
        if bad:
            problems.append(f"non-finite loss at iterations {bad}")
    first = [h["loss"] for h in run.histories[0]]
    for k, history in enumerate(run.histories[1:], 1):
        if [h["loss"] for h in history] != first:
            problems.append(f"round {k} losses differ from round 0")
    if any(e != run.epes[0] for e in run.epes):
        problems.append(f"rounds disagree on EPE: {run.epes}")
    return problems


def check_train_desk(run, inputs, rundir):
    problems = []
    untrained = network.ShiftConvNet(network.desk_config(), seed=MODEL_SEED)
    with training.frozen_params(untrained):
        base = np.mean([losses.epe(forward_maps(untrained, s)[1][2][0, 0],
                                   s.gt_disp) for s in inputs.desk])
    note(f"refined EPE {run.epes[0]:.4f} px after the schedule, "
         f"{base:.4f} px untrained (ratio {run.epes[0] / base:.3f}, limit {EPE_FACTOR})")
    if not run.epes[0] < EPE_FACTOR * base:
        problems.append(f"trained EPE {run.epes[0]:.4f} not below "
                        f"{EPE_FACTOR} x untrained {base:.4f}")

    it = MID_CHECKPOINT
    loaded = training.load_checkpoint(rundir / f"desk.iter{it}")
    cfg = training.TrainConfig(log_interval=1, checkpoint_interval=CHECKPOINT_EVERY)
    again = training.train_stage(loaded.model, loaded.optimizer, inputs.desk,
                                 cfg, loaded.stage, 1,
                                 start_iteration=loaded.iteration)
    want = [h["loss"] for h in run.histories[-1] if h["iteration"] == it]
    if [h["loss"] for h in again] != want:
        problems.append(f"resume from iteration {it}: loss {again[0]['loss']!r} "
                        f"!= uninterrupted {want}")
    return problems


def check_infer_full(run, inputs, rundir):
    sample = inputs.full[0]
    model = inputs.model
    coarse, small, refined = run.maps[0]
    cfg = model.config
    params = {k: t.data for k, t in model.params.items()}
    ref = reference.forward(params, sample.left[None], sample.right[None],
                            cfg.shift_cfg.maxdisp, cfg.shift_cfg.both_directions,
                            cfg.small_map_scale, warp_base_small=small)
    problems = []
    for name, got, want in zip(("coarse", "small", "refined"),
                               (coarse, small, refined), ref):
        err = float(np.max(np.abs(got - want)))
        limit = REF_TOL * max(1.0, float(np.max(np.abs(want))))
        note(f"{name} map vs float64 reference: max error {err:.3g}, limit {limit:.3g}")
        if not err <= limit:
            problems.append(f"{name} map differs from the float64 reference "
                            f"by {err:.3g} > {limit:.3g}")
    return problems


def stage2_loss64(model, left, right, gt, base_small, loss_cfg):
    """Stage-2 loss in float64 with the refinement warp steered by
    `base_small`, the detached input the recorded gradient treats as a
    constant."""
    lf, lh, lq = model.feature_extract(left)
    rf = model.feature_extract(right)[0]
    bottleneck, skips = model.encode(model.build_cost_volume(lf, rf), lf)
    _, coarse, small = model.decode(bottleneck, skips, (lq, lh), left)
    refined = model.refine(coarse, autograd.Tensor(base_small), left, right)
    h, w = gt.shape[1:]
    s = model.config.small_map_scale
    gt_small = data.resize_nearest(gt, h // s, w // s, is_disparity=True)
    weights = [model.params[n] for n in sorted(model.params) if n.endswith(".w")]
    return losses.loss2(refined, gt, small, gt_small, weights, loss_cfg).item()


def check_train_full(run, inputs, rundir):
    problems = []
    g = run.grads
    if not all(np.all(np.isfinite(v)) for v in g.values()):
        return ["non-finite gradient on the first full-size batch"]
    names = sorted(g)
    norm = float(np.sqrt(sum(np.sum(g[n].astype(np.float64) ** 2) for n in names)))
    cfg = training.TrainConfig()
    idx = training.batch_indices(len(inputs.full), cfg.batch_size, cfg.seed,
                                 STAGE1_STEPS)
    left = np.stack([inputs.full[i].left for i in idx])
    right = np.stack([inputs.full[i].right for i in idx])
    gt = np.stack([inputs.full[i].gt_disp for i in idx])

    m32 = training.load_checkpoint(rundir / "theta0").model
    with training.frozen_params(m32):
        small32 = m32.forward(autograd.Tensor(left), autograd.Tensor(right)).small_disp
    m64 = training.load_checkpoint(rundir / "theta0").model.astype(np.float64)
    theta = {n: m64.params[n].data.copy() for n in names}
    left64, right64 = autograd.Tensor(left.astype(np.float64)), autograd.Tensor(
        right.astype(np.float64))
    values = []
    with training.frozen_params(m64):
        for sign in (1.0, -1.0):
            for n in names:
                m64.params[n].data = theta[n] + sign * DIRDERIV_EPS * g[n] / norm
            values.append(stage2_loss64(m64, left64, right64, gt,
                                        small32.data.astype(np.float64), cfg.loss))
    fd = (values[0] - values[1]) / (2 * DIRDERIV_EPS)
    note(f"directional derivative {fd:.9g} vs |g| {norm:.9g}: "
         f"rel error {abs(fd - norm) / norm:.3g}, limit {DIRDERIV_TOL}")
    if not abs(fd - norm) <= DIRDERIV_TOL * norm:
        problems.append(f"directional derivative {fd!r} != |g| {norm!r} "
                        f"(rel {abs(fd - norm) / norm:.3g})")
    return problems


CHECKS = {"train-desk": check_train_desk, "infer-full": check_infer_full,
          "train-full": check_train_full}


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------

def traced_pass(workload, seed, seconds, rundir, untraced):
    """Set up once and run the phase again with every module wrapped;
    returns the per-layer metrics, the tracer, the traced end-to-end
    figures and the number of operations run."""
    tracer = Tracer()
    tracer.install(shiftconvnet)
    try:
        inputs, _ = set_up(workload, seed, rundir, tracer)
        run = PHASES[workload](inputs, rundir, seconds, tracer)
        tracer.begin_root("checkpoint")
        ckpt = (rundir / "theta0" if workload == "train-full"
                else rundir / f"desk.iter{MID_CHECKPOINT}")
        training.load_checkpoint(ckpt)
        checkpoint_mb = ckpt.stat().st_size / 1e6
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(PRIMARY_ROOT[workload])
    metrics["training.checkpoint.mb"] = checkpoint_mb
    traced = end_to_end(run, [0.0])
    for name in ("forward_ms", "stage1_step_ms", "stage2_step_ms", "train_s"):
        metrics[f"trace.overhead.{name}"] = 100.0 * (traced[name] / untraced[name] - 1)
    return metrics, tracer, traced, run.ops


# ---------------------------------------------------------------------------

def main(argv):
    args = parse_args(argv)
    workload, seed, seconds = args.workload, args.seed, args.seconds
    runs = ROOT / "perfbench_runs"
    rundir = runs / f"run-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            inputs, dt = set_up(workload, seed, rundir)
            setup_s.append(dt)
        run = PHASES[workload](inputs, rundir, seconds)
        metrics = end_to_end(run, setup_s)
        metrics["peak_rss_mb"] = peak_rss_mb()
        attempted = run.ops

        if args.trace:
            layer, tracer, traced, ops = traced_pass(workload, seed, seconds,
                                                     rundir / "traced", metrics)
            attempted += ops
            tracer.write(runs / f"trace-{workload}-seed{seed}.json",
                         {"workload": workload, "seed": seed,
                          "untraced": metrics, "traced": traced,
                          "per_layer": layer, "blas_threads": BLAS_THREADS})

        problems = check_common(run) + CHECKS[workload](run, inputs, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for p in problems:
        note(f"check failed: {p}")
    reported = layer if args.trace else metrics
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(reported) != set(units):
        raise RuntimeError(f"metrics {sorted(set(reported) ^ set(units))} disagree "
                           f"with BENCHMARK.json")
    out = {k: {"value": reported[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": 0, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
