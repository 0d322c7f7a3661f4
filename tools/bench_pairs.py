#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised as a BENCH file.

Run from the repository root:

    python3 tools/bench_pairs.py PARENT CHANGE --workload train-full \\
        --seeds 1-10 --held-out 11 --claim train-full:peak_rss_mb \\
        --change-note "what the change does" --out BENCH_11.json

PARENT and CHANGE are each a directory holding a checkout, used as it is,
or a git revision, checked out with `git worktree add --detach` into a
temporary directory that is removed afterwards.  For every workload, pair k
runs `python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0`
once in each checkout, one process at a time: the parent first when k is
even, the change first when k is odd.  The seeds are `--seeds` followed by
the `--held-out` ones.  A run that exits non-zero or prints no result line
stops the tool.

The output keeps `BENCH_10.json`'s layout: per workload the seeds, which
side ran first, `correct`, `failed` and `attempted` of every run, and per
end-to-end metric both sides' runs, medians, quartiles (numpy's linear
percentiles), win counts and whether the change stays within the metric's
bound from BENCHMARK.json.  `--claim W:METRIC` adds the verdict of the claim
rule (`claim_verdict`).  Only the standard library and git are used; the
machine's numpy and BLAS versions are read from the change checkout's
interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLAIM_RULE = ("at least ten pairs, one on a held-out seed; the change wins at "
              "least 9 of 10 pairs; the medians differ by more than the "
              "parent's interquartile range")
# every run is measured for the same length, so BENCH files compare
SECONDS = 15
METHOD = ("Alternating pairs of `python3 perfbench/run.py --workload W --seed S "
          f"--seconds {SECONDS} --trace 0`, one process at a time, in two "
          "checkouts: the parent commit and this change. Pair k runs the parent "
          "first when k is even, the change first when k is odd. A change wins "
          "a pair when its value is better (lower where lower is better); ties "
          "count for neither side. Quartiles are numpy's linear percentiles "
          "over the pairs.")
SIDES = ("parent", "change")


def _r(x: float) -> float:
    return round(x, 4)


def quartiles(values) -> dict:
    """Median and quartiles, as numpy's default (linear) percentiles."""
    v = sorted(values)

    def pct(q):
        pos = q * (len(v) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return {"median": _r(pct(0.5)), "q1": _r(pct(0.25)), "q3": _r(pct(0.75))}


def summarize(pairs: list[dict], spec: dict, held_out) -> dict:
    """One workload's BENCH entry from its pairs.

    Each pair is {"seed", "first", "parent", "change"}, the last two being
    run.py's result objects.  `spec` maps each end-to-end metric to its
    {"unit", "bound", "better"} from BENCHMARK.json.
    """
    out = {
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "held_out_seeds": [p["seed"] for p in pairs if p["seed"] in held_out],
        "first_in_pair": [p["first"] for p in pairs],
    }
    for key in ("correct", "failed", "attempted"):
        out[key] = {side: [p[side][key] for p in pairs] for side in SIDES}
    metrics = {}
    for name, m in spec.items():
        runs = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                for side in SIDES}
        sign = 1 if m["better"] == "lower" else -1
        diffs = [sign * (a - b) for a, b in zip(runs["parent"], runs["change"])]
        par, chg = quartiles(runs["parent"]), quartiles(runs["change"])
        rel = (statistics.median(runs["change"]) / statistics.median(runs["parent"])
               - 1 if statistics.median(runs["parent"]) else 0.0)
        metrics[name] = {
            "unit": m["unit"],
            "bound": m["bound"],
            "parent": par,
            "change": chg,
            "parent_runs": [_r(v) for v in runs["parent"]],
            "change_runs": [_r(v) for v in runs["change"]],
            "change_wins": sum(d > 0 for d in diffs),
            "parent_wins": sum(d < 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
            "median_change_rel": _r(rel),
            "within_bound": sign * rel <= m["bound"],
            "median_gap_exceeds_parent_iqr":
                abs(chg["median"] - par["median"]) > par["q3"] - par["q1"],
        }
    out["metrics"] = metrics
    return out


def claim_verdict(summary: dict, workload: str, metric: str,
                  better: str = "lower") -> dict:
    """The claim rule on one workload's summary: at least ten pairs, one on a
    held-out seed, every run correct with nothing failed, the change winning
    at least 9 of 10 pairs, and its median better than the parent's by more
    than the parent's interquartile range."""
    m = summary["metrics"][metric]
    pairs, wins = summary["pairs"], m["change_wins"]
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    gap = m["parent"]["median"] - m["change"]["median"]
    if better != "lower":
        gap = -gap
    clean = all(all(summary["correct"][s]) and not any(summary["failed"][s])
                for s in SIDES)
    met = (pairs >= 10 and bool(summary["held_out_seeds"]) and clean
           and wins * 10 >= 9 * pairs and gap > iqr)
    return {
        "workload": workload,
        "metric": metric,
        "wins": f"{wins} of {pairs}",
        "parent_median": m["parent"]["median"],
        "change_median": m["change"]["median"],
        "parent_iqr": _r(iqr),
        "verdict": "met" if met else "not met",
    }


def benchmark_spec(root: Path = ROOT) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: {"unit": m["unit"], "bound": m["bound"],
                        "better": m["better"]} for m in spec["end_to_end"]}


def benchmark_workloads(root: Path = ROOT) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def machine(checkout: Path) -> dict:
    # BLAS_THREADS is read from the checkout's run.py, which sets it
    probe = ("import json, numpy, perfbench.run as r; b = numpy.show_config("
             "mode='dicts')['Build Dependencies']['blas']; print(json.dumps("
             "[numpy.__version__, b['name'] + ' ' + b['version'], "
             "int(r.BLAS_THREADS)]))")
    numpy_version, blas, blas_threads = json.loads(subprocess.run(
        [sys.executable, "-c", probe], cwd=checkout, check=True,
        capture_output=True, text=True).stdout)
    cpus = len(os.sched_getaffinity(0))
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cpu_count": cpus, "blas_threads": blas_threads,
            "cpu_model": model or platform.processor(), "numpy": numpy_version,
            "blas": blas, "python": platform.python_version()}


@contextmanager
def checkout(ref: str):
    """A directory used as it is, or a git revision in a temporary worktree."""
    if Path(ref).is_dir():
        yield Path(ref).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        path = Path(tmp) / "tree"
        subprocess.run(["git", "worktree", "add", "--detach", str(path), ref],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            yield path
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(path)],
                           cwd=ROOT, check=True, capture_output=True)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,2,5' or a mix: '1-3,7'.  A range must not descend."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"seed range {part!r} is empty")
        seeds += span
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="directory or git revision")
    ap.add_argument("change", help="directory or git revision")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    ap.add_argument("--held-out", type=parse_seeds, default=[])
    ap.add_argument("--claim", help="WORKLOAD:METRIC to give a verdict on")
    ap.add_argument("--change-note", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    spec = benchmark_spec()
    # checked before any run: a bad argument would otherwise fail after hours
    known = benchmark_workloads()
    unknown = sorted(set(args.workload) - set(known))
    if unknown:
        ap.error(f"--workload {unknown} is not a workload of BENCHMARK.json: "
                 f"{known}")
    reused = sorted(set(args.held_out) & set(args.seeds))
    if reused:
        ap.error(f"--held-out seeds {reused} are also in --seeds")
    claim = None if args.claim is None else args.claim.partition(":")
    if claim and not claim[1]:
        ap.error(f"--claim {args.claim!r} is not WORKLOAD:METRIC")
    if claim and claim[0] not in args.workload:
        ap.error(f"--claim workload {claim[0]!r} is not given as a --workload")
    if claim and claim[2] not in spec:
        ap.error(f"--claim metric {claim[2]!r} is not an end-to-end metric "
                 f"of BENCHMARK.json: {sorted(spec)}")

    seeds = args.seeds + args.held_out
    with ExitStack() as stack:
        trees = {side: stack.enter_context(checkout(ref))
                 for side, ref in zip(SIDES, (args.parent, args.change))}
        report = {"change": args.change_note, "parent": args.parent,
                  "method": METHOD,
                  "claim_rule": CLAIM_RULE, "machine": machine(trees["change"]),
                  "workloads": {}}
        for workload in args.workload:
            pairs = []
            for k, seed in enumerate(seeds):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(pair[side])}", file=sys.stderr, flush=True)
                pairs.append(pair)
            report["workloads"][workload] = summarize(pairs, spec, args.held_out)
    if claim:
        workload, _, metric = claim
        report["claim"] = claim_verdict(report["workloads"][workload], workload,
                                        metric, spec[metric]["better"])
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
