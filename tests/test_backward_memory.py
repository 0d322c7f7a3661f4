"""The backward memory report on one tiny stage-2 step."""

import importlib.util
import re
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "tools" / "backward_memory.py"
_spec = importlib.util.spec_from_file_location("backward_memory", _PATH)
backward_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(backward_memory)


def test_tiny_step_reports_every_closure(capsys):
    assert backward_memory.main(["64", "128", "--config", "tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    free = re.fullmatch(r"no-grad forward peak: ([\d.]+) MB in (\S+)", lines[0])
    # a forward without gradients peaks in a network stage or the glue
    assert free[2] in (*backward_memory.STAGES, "forward")
    first = re.fullmatch(r"forward peak: ([\d.]+) MB in (\S+)", lines[1])
    forward_peak = float(first[1])
    # it holds no graph, so it peaks below the step's forward
    assert 0 < float(free[1]) < forward_peak
    # where the forward peaks: a network stage, the glue between, or the loss
    assert first[2] in (*backward_memory.STAGES, "setup", "forward", "loss")
    start = float(re.fullmatch(r"backward start: ([\d.]+) MB", lines[2])[1])
    assert forward_peak >= start
    # one (name, before, peak, after) row per closure, from the loss back
    # to the first feature conv
    rows = [line.split() for line in lines[4:-2]]
    names = [r[0] for r in rows]
    assert names[0] == "_stage_loss"
    for name in ("refine.c3", "refine.c2", "refine.c1", "refine.match", "add",
                 "maxpool2d", "feat.conv1", "shift.clue"):
        assert name in names
    assert names.count("refine.match") == 5
    assert names[-1] == "feat.conv1"
    before, peak, after = ([float(r[i]) for r in rows] for i in (1, 2, 3))
    assert all(p >= max(b, a) for b, p, a in zip(before, peak, after))
    assert before[0] == pytest.approx(start, abs=0.2)
    top = max(peak)
    line = re.fullmatch(r"backward peak: ([\d.]+) MB in (\S+)", lines[-2])
    assert float(line[1]) == top and names[peak.index(top)] == line[2]
    step = re.fullmatch(r"step peak: ([\d.]+) MB in (\S+)", lines[-1])
    assert float(step[1]) == max(forward_peak, top)
    if forward_peak != top:  # printed to 0.1 MB, a tie may name either
        assert step[2] == ("forward" if forward_peak > top else line[2])


def test_after_is_read_once_the_closure_is_released():
    rows = backward_memory.measure("tiny", 64, 128)[3]
    # nothing a closure alone held is counted in its `after`: between two
    # closures backward frees only the finished node's wrapper and parent
    # links (a stage loss closure still held keeps 71 kB)
    gaps = [done[3] - nxt[1] for done, nxt in zip(rows, rows[1:])]
    assert max(map(abs, gaps)) < 4096


def test_the_forward_peak_is_named_after_the_stretch_that_reached_it():
    stretches = backward_memory._Stretches("setup")

    def decode():
        bytearray(2_000_000)

    def refine():
        bytearray(1_000_000)

    def encode():  # back in encode once refine returns
        stretches.wrap(refine)()
        bytearray(3_000_000)

    tracemalloc.start()
    try:
        for stage in (decode, encode):
            stretches.wrap(stage)()
        stretches.enter("backward")
    finally:
        tracemalloc.stop()
    peak, where = stretches.top()
    assert where == "encode" and 3_000_000 <= peak < 3_100_000
    assert 1_000_000 <= stretches.peaks["refine"] < 1_100_000
    assert stretches.peaks["setup"] < 100_000


@pytest.mark.parametrize("size", [["64"], ["64", "100"], ["0", "128"]])
def test_bad_size_is_a_usage_error(size):
    with pytest.raises(SystemExit) as exc:
        backward_memory.main(size)
    assert exc.value.code == 2
