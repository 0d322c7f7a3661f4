"""Command-line entry points.

Subcommands: `gen` (synthetic dataset), `train`, `eval`, `ablate`, `infer`,
`bench`.  Exit codes: 0 success, 1 usage error, 2 data or parse error or
out of memory, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

from .autograd import ContractViolation
from .config import (
    DATA_KEYS,
    load_samples_from,
    network_config_from,
    parse_config_file,
    train_config_from,
)
from .data import (
    SYNTH_COUNT,
    CodecError,
    SynthConfig,
    encode_disparity_pnm,
    gen_synthetic_pair,
    load_dataset,
    read_image,
    write_dataset,
    write_pfm,
)
from .network import CORRELATION, SHIFT_CONV, ShiftConvNet
from .training import (
    BENCH_REPEATS,
    Adam,
    NumericalError,
    ablation_suite,
    bench_forward,
    evaluate,
    frozen_params,
    load_checkpoint,
    predict_disparity,
    save_checkpoint,
    train_stage,
)


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1; got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number; got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shiftconvnet",
                     description="Stereo disparity network with a "
                                 "shift-convolution cost volume.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic stereo dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--count", type=_positive_int, default=SYNTH_COUNT)
    synth = SynthConfig()
    for f in fields(synth):
        default = getattr(synth, f.name)
        p.add_argument("--" + f.name.replace("_", "-"), type=type(default),
                       default=default)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--from-scratch", action="store_true",
                   help="allow stage 2 without a stage-1 checkpoint")
    p.add_argument("--out", help="checkpoint output path "
                                 "(default checkpoint_stage<N>.scnc)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="dataset root directory")
    p.add_argument("--costvol", choices=("shiftconv", "corr"),
                   help="assert which cost volume the checkpoint uses")
    p.add_argument("--csv", help="also write the report as CSV to this path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="cost-volume ablation matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", help="also write the report as CSV to this path")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("infer", help="predict disparity for one pair")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out", required=True,
                   help="output path; .pfm for float, else 8-bit PGM")
    p.add_argument("--disp-cap", type=_positive_float, default=None,
                   help="disparity mapped to full PGM brightness "
                        "(default 4*maxdisp)")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("bench", help="time the forward pass")
    p.add_argument("--config", required=True)
    p.add_argument("--height", type=_positive_int, default=64)
    p.add_argument("--width", type=_positive_int, default=128)
    p.add_argument("--repeats", type=_positive_int, default=BENCH_REPEATS)
    p.set_defaults(func=_cmd_bench)
    return parser


def _cmd_gen(args) -> int:
    cfg = SynthConfig(**{f.name: getattr(args, f.name)
                         for f in fields(SynthConfig)})
    samples = [gen_synthetic_pair(replace(cfg, seed=cfg.seed + i))
               for i in range(args.count)]
    ids = write_dataset(args.out, samples)
    print(f"wrote {len(ids)} samples under {args.out}")
    return 0


def _cmd_train(args) -> int:
    if args.stage == 2 and not args.resume and not args.from_scratch:
        print("error: --stage 2 needs --resume <checkpoint> or --from-scratch",
              file=sys.stderr)
        return 1
    cm = parse_config_file(args.config)
    train_cfg = train_config_from(cm)
    net_cfg = network_config_from(cm)
    samples = load_samples_from(cm)
    cm.ensure_consumed()

    if args.resume:
        loaded = load_checkpoint(args.resume)
        model, optimizer = loaded.model, loaded.optimizer
        start = loaded.iteration
        print(f"resumed at iteration {start} (stage {loaded.stage} checkpoint)")
    else:
        model = ShiftConvNet(net_cfg, seed=train_cfg.seed)
        optimizer = Adam(model.params)
        start = 0

    iterations = (train_cfg.stage1_iters if args.stage == 1
                  else train_cfg.stage2_iters)
    out = Path(args.out or f"checkpoint_stage{args.stage}.scnc")

    periodic = None
    if train_cfg.checkpoint_interval > 0:
        def periodic(iteration):
            path = out.with_name(out.name + f".iter{iteration}")
            save_checkpoint(path, model, optimizer, iteration, args.stage)
            print(f"checkpoint: {path}")

    train_stage(model, optimizer, samples, train_cfg, stage=args.stage,
                iterations=iterations, start_iteration=start, log=print,
                checkpoint_cb=periodic)
    save_checkpoint(out, model, optimizer, start + iterations, args.stage)
    print(f"saved checkpoint to {out}")
    return 0


def _cmd_eval(args) -> int:
    loaded = load_checkpoint(args.ckpt)
    if args.costvol:
        expected = SHIFT_CONV if args.costvol == "shiftconv" else CORRELATION
        actual = loaded.model.config.cost_volume
        if actual != expected:
            raise ContractViolation(
                f"checkpoint uses cost volume {actual!r}, not {expected!r}"
            )
    samples = load_dataset(args.data)
    report = evaluate(loaded.model, samples)
    print(report.text_table())
    if args.csv:
        Path(args.csv).write_text(report.csv())
        print(f"wrote {args.csv}")
    return 0


def _cmd_ablate(args) -> int:
    cm = parse_config_file(args.config)
    train_cfg = train_config_from(cm)
    net_cfg = network_config_from(cm)
    samples = load_samples_from(cm)
    cm.ensure_consumed()
    report = ablation_suite(samples, net_cfg, train_cfg, log=print)
    print(report.text_table())
    if args.csv:
        Path(args.csv).write_text(report.csv())
        print(f"wrote {args.csv}")
    return 0


def _cmd_infer(args) -> int:
    loaded = load_checkpoint(args.ckpt)
    model = loaded.model
    left = read_image(args.left)
    right = read_image(args.right)
    if left.shape != right.shape:
        raise ContractViolation(
            f"left {left.shape} and right {right.shape} images disagree"
        )
    if left.shape[0] != model.config.image_channels:
        raise ContractViolation(
            f"checkpoint expects {model.config.image_channels}-channel "
            f"images; got {left.shape[0]}"
        )
    with frozen_params(model):
        coarse, refined = predict_disparity(model, left, right)
    pred = refined if refined is not None else coarse
    path = Path(args.out)
    if path.suffix == ".pfm":
        path.write_bytes(write_pfm(pred))
    else:
        cap = args.disp_cap
        if cap is None:
            cap = 4.0 * model.config.shift_cfg.maxdisp
        path.write_bytes(encode_disparity_pnm(pred, cap))
    print(f"wrote {path}")
    return 0


def _cmd_bench(args) -> int:
    cm = parse_config_file(args.config)
    net_cfg = network_config_from(cm)
    train_config_from(cm)  # consume trainer keys present in shared configs
    cm.touch(*DATA_KEYS)
    cm.ensure_consumed()
    result = bench_forward(net_cfg, args.height, args.width,
                           repeats=args.repeats)
    print(f"parameters: {result['parameters']}")
    print(f"forward at {args.height}x{args.width}: "
          f"mean {result['mean_seconds']:.4f} s, "
          f"best {result['best_seconds']:.4f} s over {args.repeats} runs")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (CodecError, ContractViolation, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory. {e}".rstrip(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
