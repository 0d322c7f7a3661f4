#!/usr/bin/env python3
"""Check that two checkouts train and predict bit for bit alike.

Run from the repository root:

    python3 tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are each a directory holding a checkout, used as it is,
or a git revision, checked out as `tools/bench_pairs.py` does.  For each
size of `SIZES`, a fresh process per checkout imports `shiftconvnet` from
the checkout's `src/` and runs one fixed desk schedule: the seed-0 desk
model, two synthetic pairs as one batch, `STAGE1_STEPS` stage-1 steps and
`STAGE2_STEPS` stage-2 steps.  It records every step's loss, every
parameter after the last step, and the coarse, small and refined maps of
a forward on the two pairs.  The records are compared in that order, each
by dtype, shape and bytes (so -0.0 differs from 0.0, and a NaN matches
the same NaN).  The tool prints the first record that differs and exits
1, or prints the record counts and exits 0.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402

SIZES = ((64, 128), (128, 256))
STAGE1_STEPS = 3
STAGE2_STEPS = 3
PAIR_SEEDS = (1, 2)
SIDES = ("parent", "change")


def record(src: str, out: str, height: int, width: int):
    """Run the schedule on the package in `src` and save its records, in
    comparison order, as an .npz file."""
    sys.path.insert(0, src)
    from shiftconvnet import data, network, training
    from shiftconvnet.autograd import Tensor

    model = network.ShiftConvNet(network.desk_config(), seed=0)
    pairs = [data.gen_synthetic_pair(data.SynthConfig(width=width, height=height,
                                                      seed=s))
             for s in PAIR_SEEDS]
    cfg = training.TrainConfig(batch_size=len(pairs))
    opt = training.Adam(model.params)
    history = training.train_stage(model, opt, pairs, cfg, 1, STAGE1_STEPS)
    history += training.train_stage(model, opt, pairs, cfg, 2, STAGE2_STEPS,
                                    start_iteration=STAGE1_STEPS)
    records = {f"loss.{row['iteration']}": np.float64(row["loss"])
               for row in history}
    records |= {f"param.{name}": model.params[name].data
                for name in sorted(model.params)}
    left = Tensor(np.stack([p.left for p in pairs]))
    right = Tensor(np.stack([p.right for p in pairs]))
    with training.frozen_params(model):
        maps = model.forward(left, right, refine=True)
    records |= {"map.coarse": maps.coarse_disp.data,
                "map.small": maps.small_disp.data,
                "map.refined": maps.refined_disp.data}
    np.savez(out, **records)


def first_difference(parent: Path, change: Path) -> str | None:
    """The first record of `parent` that `change` lacks or holds different
    bits for, then any record only `change` has; None when all match."""
    with np.load(parent) as a, np.load(change) as b:
        for key in a.files:
            if key not in b.files:
                return f"{key} (missing from the change)"
            x, y = a[key], b[key]
            if (x.dtype, x.shape) != (y.dtype, y.shape) or x.tobytes() != y.tobytes():
                return key
        extra = [key for key in b.files if key not in a.files]
        return f"{extra[0]} (only in the change)" if extra else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--record"]:  # the per-checkout process started below
        src, out, height, width = argv[1:]
        record(src, out, int(height), int(width))
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        trees = {side: stack.enter_context(bench_pairs.checkout(ref))
                 for side, ref in zip(SIDES, argv)}
        for height, width in SIZES:
            files = {}
            for side in SIDES:
                files[side] = tmp / f"{side}-{height}x{width}.npz"
                subprocess.run([sys.executable, __file__, "--record",
                                str(trees[side] / "src"), str(files[side]),
                                str(height), str(width)], check=True)
            diff = first_difference(files["parent"], files["change"])
            if diff is not None:
                print(f"{height}x{width}: first record that differs: {diff}")
                return 1
            with np.load(files["parent"]) as a:
                print(f"{height}x{width}: all {len(a.files)} records bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
