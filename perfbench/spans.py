"""Span tracer for the benchmark's traced mode.

The tracer wraps the public functions of each shiftconvnet module from
outside: every module attribute bound to a wrapped function is replaced for
the duration of the traced pass and restored afterwards, so no source file
changes and an untraced run pays nothing.

A span records (name, start, end, root, parent).  `root` identifies the
forward pass, training step, set-up or checkpoint the span belongs to;
`parent` is the index of the enclosing span, or -1.  Counts are recorded at
the same boundaries.  Everything stays in memory until `write` at the end
of the run.  A span's self time is its duration minus the time covered by
its direct children (children nest strictly inside their parent).
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

NETWORK_STAGES = ("feature_extract", "build_cost_volume", "encode", "decode",
                  "refine")

# module -> public functions wrapped; the span is "<module>.<function>"
# unless SPAN_NAMES renames it
FUNCTIONS = {
    "autograd": ("conv2d", "transposed_conv2d", "maxpool2d", "leaky_relu",
                 "hslice_pad", "concat_channels", "backward"),
    "matching": ("shift_conv_layer", "auto_shift_conv", "warp_horizontal"),
    "losses": ("loss1", "loss2"),
    "data": ("resize_nearest", "gen_synthetic_pair", "load_dataset",
             "write_dataset"),
    "training": ("save_checkpoint", "load_checkpoint"),
}
SPAN_NAMES = {"losses.loss1": "losses.loss", "losses.loss2": "losses.loss",
              "training.save_checkpoint": "training.checkpoint_save",
              "training.load_checkpoint": "training.checkpoint_load"}


def _conv_gflop(args, kwargs, out):
    w = args[1]
    # 2 flops per multiply-add; every output element reads C*kH*kW inputs
    return 2.0 * out.data.size * w.shape[1] * w.shape[2] * w.shape[3] / 1e9


def _tconv_gflop(args, kwargs, out):
    x, w = args[0], args[1]
    # every input element scatters into out_channels*kH*kW outputs
    return 2.0 * x.data.size * w.shape[1] * w.shape[2] * w.shape[3] / 1e9


COUNTERS = {
    "autograd.conv2d": ("autograd.conv2d.gflop", _conv_gflop),
    "autograd.transposed_conv2d": ("autograd.transposed_conv2d.gflop",
                                   _tconv_gflop),
    "autograd.concat_channels": ("autograd.concat_channels.mb",
                                 lambda a, k, out: out.data.nbytes / 1e6),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple] = []
        self.roots: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def begin_root(self, kind: str):
        self.roots.append(kind)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None,
                           len(self.roots) - 1, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0):
        self.counts.append((len(self.roots) - 1, name, value))

    def _stage_label(self) -> str:
        for idx in reversed(self._stack):
            name = self.spans[idx][0]
            if name.startswith("network.") or name == "losses.loss":
                return name
        return "other"

    # -- installing the wrappers --------------------------------------------

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.count(counter[0], counter[1](args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_backward(self, fn):
        def traced_backward(loss):
            self.count("autograd.graph_mb", graph_bytes(loss) / 1e6)
            idx = self.open("autograd.backward")
            try:
                return fn(loss)
            finally:
                self.close(idx)

        traced_backward.__wrapped__ = fn
        return traced_backward

    def _wrap_graph_out(self, fn):
        def traced_graph_out(data, parents, backward):
            self.count("autograd.ops")
            label = self._stage_label() + ".bwd"

            def timed(g):
                idx = self.open(label)
                try:
                    backward(g)
                finally:
                    self.close(idx)

            return fn(data, parents, timed)

        traced_graph_out.__wrapped__ = fn
        return traced_graph_out

    def _replace_everywhere(self, package_modules, original, wrapped):
        for mod in package_modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def install(self, package):
        """Wrap the public functions of every module of `package`."""
        mods = {name: getattr(package, name) for name in
                ("autograd", "matching", "network", "losses", "data",
                 "training")}
        everywhere = [package] + list(mods.values())
        for modname, attrs in FUNCTIONS.items():
            for attr in attrs:
                orig = getattr(mods[modname], attr)
                name = SPAN_NAMES.get(f"{modname}.{attr}", f"{modname}.{attr}")
                wrapped = (self._wrap_backward(orig) if attr == "backward"
                           else self._wrap(name, orig))
                self._replace_everywhere(everywhere, orig, wrapped)
        orig = mods["autograd"].graph_out
        self._replace_everywhere(everywhere, orig, self._wrap_graph_out(orig))

        net_cls = mods["network"].ShiftConvNet
        for stage in NETWORK_STAGES:
            orig = vars(net_cls)[stage]
            self._undo.append((net_cls, stage, orig))
            setattr(net_cls, stage, self._wrap(f"network.{stage}", orig))
        adam = mods["training"].Adam
        self._undo.append((adam, "step", vars(adam)["step"]))
        adam.step = self._wrap("training.adam_step", vars(adam)["step"])

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, root, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def per_root(self):
        """root -> {span name: inclusive seconds}, root -> {count: sum},
        root -> {span name: calls}."""
        secs = defaultdict(lambda: defaultdict(float))
        calls = defaultdict(lambda: defaultdict(int))
        counts = defaultdict(lambda: defaultdict(float))
        for name, start, end, root, parent in self.spans:
            secs[root][name] += end - start
            calls[root][name] += 1
        for root, name, value in self.counts:
            counts[root][name] += value
        return secs, counts, calls

    def layer_metrics(self, primary: str) -> dict[str, float]:
        """Medians over the roots of kind `primary` of each layer's total
        per root; set-up and checkpoint figures come from their own roots."""
        secs, counts, calls = self.per_root()

        def median_over(kind, table, key, scale=1.0):
            roots = [r for r, k in enumerate(self.roots) if k == kind]
            if not roots:
                return 0.0
            return statistics.median(table[r].get(key, 0.0) for r in roots) * scale

        out = {}
        for stage in NETWORK_STAGES:
            out[f"network.{stage}.fwd_ms"] = median_over(
                primary, secs, f"network.{stage}", 1e3)
            out[f"network.{stage}.bwd_ms"] = median_over(
                primary, secs, f"network.{stage}.bwd", 1e3)
        for name in ("matching.shift_conv_layer", "matching.auto_shift_conv",
                     "matching.warp_horizontal", "autograd.conv2d",
                     "autograd.transposed_conv2d", "autograd.maxpool2d",
                     "autograd.leaky_relu", "autograd.hslice_pad",
                     "autograd.concat_channels", "autograd.backward",
                     "losses.loss", "training.adam_step", "data.resize_nearest"):
            out[f"{name}.ms"] = median_over(primary, secs, name, 1e3)
        for name in ("matching.auto_shift_conv", "matching.warp_horizontal",
                     "autograd.conv2d", "autograd.transposed_conv2d"):
            out[f"{name}.calls"] = median_over(primary, calls, name)
        for name in ("autograd.conv2d.gflop", "autograd.transposed_conv2d.gflop",
                     "autograd.concat_channels.mb", "autograd.ops",
                     "autograd.graph_mb"):
            out[name] = median_over(primary, counts, name)
        for name in ("data.gen_synthetic_pair", "data.load_dataset"):
            out[f"{name}.ms"] = median_over("setup", secs, name, 1e3)
        for name in ("training.checkpoint_save", "training.checkpoint_load"):
            per_call = [s[2] - s[1] for s in self.spans if s[0] == name]
            out[f"{name}.ms"] = statistics.median(per_call) * 1e3 if per_call else 0.0
        return out

    def write(self, path, extra: dict):
        """Spans, roots, counts and a per-name summary as one JSON file."""
        selfs = self.self_times()
        summary = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for (name, start, end, root, parent), own in zip(self.spans, selfs):
            row = summary[name]
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += own * 1e3
        doc = dict(extra, roots=self.roots, summary=summary,
                   span_fields=["name", "start", "end", "root", "parent"],
                   spans=self.spans, counts=self.counts)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def graph_bytes(loss) -> int:
    """Bytes of op outputs reachable from `loss` that hold a backward
    closure, i.e. what the recorded graph keeps alive at `backward`."""
    seen, stack, total = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            total += t.data.nbytes
        stack.extend(t._parents)
    return total
