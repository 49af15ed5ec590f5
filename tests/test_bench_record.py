"""tools/bench_record.py's paired comparison, on synthetic run records."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def records(tree, parent, metric="ops_per_s"):
    """Run records of one workload, pair i holding tree[i] and parent[i]."""
    runs = []
    for i, (t, p) in enumerate(zip(tree, parent)):
        for name, value in (("tree", t), ("parent", p)):
            runs.append({"workload": "w", "tree": name, "pair": i,
                         "steal_ticks": None, "child_cpu_s": None, "result": {
                             "attempted": 1, "failed": 0, "metrics": {metric: {"value": value}}}})
    return runs


def compare(tree, parent, better="higher"):
    runs = records(tree, parent)
    summary = bench_record.summarize(runs)
    return bench_record.paired_wins(runs, summary, {"ops_per_s": better})["w"]["ops_per_s"]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


@pytest.mark.parametrize("better,shift,gain,loss", [
    ("higher", 10.0, True, False),
    ("higher", -10.0, False, True),
    ("lower", -10.0, True, False),
    ("lower", 10.0, False, True),
    ("higher", 0.0, False, False),
])
def test_gain_and_loss_are_symmetric(better, shift, gain, loss):
    got = compare([p + shift for p in PARENT], PARENT, better)
    assert (got["gain"], got["loss"], got["pairs"]) == (gain, loss, 10)
    assert got["wins"] == (10 if gain else 0)


def test_one_pair_short_or_inside_the_spread_is_neither():
    # 8 of 10 pairs lost: not a loss, however far the medians are apart
    tree = [p - 10.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    got = compare(tree, PARENT)
    assert (got["wins"], got["gain"], got["loss"]) == (2, False, False)
    # every pair lost, by less than the parent's interquartile range
    got = compare([p - 0.05 for p in PARENT], PARENT)
    assert (got["wins"], got["gain"], got["loss"]) == (0, False, False)
