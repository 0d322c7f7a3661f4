"""The pair runner's summary and claim verdict on fixed numbers."""

import importlib.util
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"peak_rss_mb": {"unit": "MB", "bound": 0.25, "better": "lower"}}


def _result(value, attempted=52, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": 0,
            "metrics": {"peak_rss_mb": {"value": value, "unit": "MB"}}}


def _pairs(parent, change, seeds=None):
    seeds = seeds or list(range(1, len(parent) + 1))
    return [{"seed": s, "first": "parent" if k % 2 == 0 else "change",
             "parent": _result(p), "change": _result(c)}
            for k, (s, p, c) in enumerate(zip(seeds, parent, change))]


PARENT = [625.0, 626.0, 640.0, 624.0, 627.0, 630.0, 625.5, 636.0, 628.0, 629.0]


def test_summary_medians_quartiles_and_wins():
    change = [556.0, 559.0, 556.5, 630.0, 560.0, 558.0, 625.5, 557.0, 555.0, 561.0]
    s = bench_pairs.summarize(_pairs(PARENT, change), SPEC, held_out=[10])
    assert s["pairs"] == 10 and s["held_out_seeds"] == [10]
    assert s["first_in_pair"][:3] == ["parent", "change", "parent"]
    assert s["attempted"]["parent"] == [52] * 10
    m = s["metrics"]["peak_rss_mb"]
    for side, runs in (("parent", PARENT), ("change", change)):
        q1, med, q3 = np.percentile(runs, [25, 50, 75])
        assert m[side] == {"median": round(med, 4), "q1": round(q1, 4),
                           "q3": round(q3, 4)}
    assert (m["change_wins"], m["parent_wins"], m["ties"]) == (8, 1, 1)
    assert m["median_change_rel"] == round(558.5 / 627.5 - 1, 4)
    assert m["within_bound"] and m["median_gap_exceeds_parent_iqr"]


@pytest.mark.parametrize("change, held_out, verdict", [
    ([p - 70 for p in PARENT], [10], "met"),
    ([p - 70 for p in PARENT], [], "not met"),               # no held-out seed
    ([p - 70 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]], [10],
     "not met"),                                              # 8 of 10 wins
    ([p - 1 for p in PARENT], [10], "not met"),              # gap inside the IQR
])
def test_claim_verdict(change, held_out, verdict):
    s = bench_pairs.summarize(_pairs(PARENT, change), SPEC, held_out)
    v = bench_pairs.claim_verdict(s, "train-full", "peak_rss_mb")
    assert v["verdict"] == verdict
    assert v["parent_iqr"] == round(np.subtract(*np.percentile(PARENT, [75, 25])), 4)


def test_claim_needs_ten_pairs_and_correct_runs():
    change = [p - 70 for p in PARENT]
    s = bench_pairs.summarize(_pairs(PARENT[:9], change[:9]), SPEC, [9])
    assert bench_pairs.claim_verdict(s, "w", "peak_rss_mb")["verdict"] == "not met"
    pairs = _pairs(PARENT, change)
    pairs[3]["change"]["correct"] = False
    s = bench_pairs.summarize(pairs, SPEC, [10])
    assert bench_pairs.claim_verdict(s, "w", "peak_rss_mb")["verdict"] == "not met"


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_pairs.parse_seeds("11") == [11]


@pytest.mark.parametrize("claim, message", [
    ("train-full", "not WORKLOAD:METRIC"),
    ("infer-full:peak_rss_mb", "not given as a --workload"),
    ("train-full:peak_rss", "not an end-to-end metric"),
])
def test_bad_claim_is_a_usage_error_before_any_run(monkeypatch, capsys, claim, message):
    def no_runs(*args):
        raise AssertionError("a run started before --claim was checked")

    monkeypatch.setattr(bench_pairs, "checkout", no_runs)
    monkeypatch.setattr(bench_pairs, "run_once", no_runs)
    with pytest.raises(SystemExit) as e:
        bench_pairs.main(["p", "c", "--workload", "train-full", "--seeds", "1",
                          "--claim", claim, "--out", "never.json"])
    assert e.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--workload", "train-full", "--workload", "train-ful", "--seeds", "1"],
     "'train-ful'] is not a workload"),
    (["--workload", "train-full", "--seeds", "5-3"], "'5-3' is empty"),
    (["--workload", "train-full", "--seeds", "1-10", "--held-out", "10"],
     "[10] are also in --seeds"),
], ids=["misspelt-second-workload", "descending-seeds", "held-out-in-seeds"])
def test_bad_run_is_a_usage_error_before_any_run(monkeypatch, capsys, flags,
                                                 message):
    def no_runs(*args):
        raise AssertionError("a run started before the arguments were checked")

    monkeypatch.setattr(bench_pairs, "checkout", no_runs)
    monkeypatch.setattr(bench_pairs, "run_once", no_runs)
    with pytest.raises(SystemExit) as e:
        bench_pairs.main(["p", "c", "--out", "never.json"] + flags)
    assert e.value.code == 2
    assert message in capsys.readouterr().err


def test_a_valid_claim_gets_its_verdict(monkeypatch, tmp_path):
    spec = bench_pairs.benchmark_spec()

    @contextmanager
    def checkout(ref):
        yield Path(ref)

    def run_once(tree, workload, seed):
        value = 500.0 if tree.name == "change" else 600.0 + seed
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {name: {"value": value, "unit": m["unit"]}
                            for name, m in spec.items()}}

    monkeypatch.setattr(bench_pairs, "checkout", checkout)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "machine", lambda tree: {})
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["parent", "change", "--workload", "train-full",
                             "--seeds", "1-10", "--held-out", "11",
                             "--claim", "train-full:peak_rss_mb",
                             "--out", str(out)]) == 0
    claim = json.loads(out.read_text())["claim"]
    assert (claim["metric"], claim["wins"], claim["verdict"]) == (
        "peak_rss_mb", "11 of 11", "met")
