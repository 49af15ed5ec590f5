"""tools/bench_record.py's paired comparison, on synthetic run records, and its machine block."""

import importlib.util
from pathlib import Path

import numpy
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


def verdict(tree, parent, better="higher", bound=0.25):
    summary = bench_record.summarize(records(tree, parent))
    metric = {"name": "ops_per_s", "better": better, "bound": bound}
    return bench_record.verdicts(summary, [metric])["w"]["ops_per_s"]


@pytest.mark.parametrize("better,scale,regressed", [
    ("higher", 0.70, True),   # median 30 % lower
    ("higher", 0.80, False),  # 20 % lower: inside the 25 % bound
    ("higher", 1.50, False),
    ("lower", 1.30, True),    # median 30 % higher
    ("lower", 1.20, False),
    ("lower", 0.50, False),
])
def test_regressed_is_a_median_worse_by_more_than_the_bound(better, scale, regressed):
    got = verdict([p * scale for p in PARENT], PARENT, better)
    assert got == {"regressed": regressed, "unresolved": False}  # parent spread 2 %


# a parent whose runs spread 60 % of their median
WIDE = [100.0, 70.0, 130.0, 90.0, 110.0, 100.0, 95.0, 105.0, 100.0, 100.0]


@pytest.mark.parametrize("better,tree,regressed,unresolved", [
    ("higher", [p + 1.0 for p in WIDE], False, True),       # overlaps the parent's runs
    ("higher", [131.0 + i for i in range(10)], False, False),  # beats every parent run
    ("lower", [p - 1.0 for p in WIDE], False, True),
    ("lower", [69.0 - i for i in range(10)], False, False),
    ("higher", [10.0] * 10, True, True),                    # both flags at once
])
def test_unresolved_when_the_parent_spreads_past_the_bound(better, tree, regressed, unresolved):
    assert verdict(tree, WIDE, better) == {"regressed": regressed, "unresolved": unresolved}


def test_bound_is_per_metric_and_tight_bounds_flag_small_spreads():
    # the same runs: within a 25 % bound, unresolved and regressed under 1 %
    tree = [p * 0.98 for p in PARENT]
    assert verdict(tree, PARENT) == {"regressed": False, "unresolved": False}
    assert verdict(tree, PARENT, bound=0.01) == {"regressed": True, "unresolved": True}


def test_only_metrics_both_trees_report():
    summary = bench_record.summarize(records([1.0] * 3, [1.0] * 3))
    metrics = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
               {"name": "setup_s", "better": "lower", "bound": 0.25}]
    assert bench_record.verdicts(summary, metrics) == {
        "w": {"ops_per_s": {"regressed": False, "unresolved": False}}}


def paired_verdict(tree, parent, better="higher"):
    runs = records(tree, parent)
    summary = bench_record.summarize(runs)
    wins = bench_record.paired_wins(runs, summary, {"ops_per_s": better})
    metric = {"name": "ops_per_s", "better": better, "bound": 0.25}
    return bench_record.verdicts(summary, [metric], wins)["w"]["ops_per_s"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_pair_for_pair_ties_are_resolved(better):
    # the same seed-paired error means on both trees: their spread is the
    # seeds', not noise, and no pair is worse
    assert verdict(WIDE, WIDE, better) == {"regressed": False, "unresolved": True}
    assert paired_verdict(WIDE, WIDE, better) == {"regressed": False, "unresolved": False}


@pytest.mark.parametrize("better,step", [("higher", 1.0), ("lower", -1.0)])
def test_no_pair_lost_is_resolved_one_pair_lost_is_not(better, step):
    tree = [p + step for p in WIDE]  # better in every pair, inside the parent's spread
    assert paired_verdict(tree, WIDE, better) == {"regressed": False, "unresolved": False}
    tree[3] = WIDE[3] - step  # one pair worse
    assert paired_verdict(tree, WIDE, better) == {"regressed": False, "unresolved": True}


def test_paired_wins_counts_losses():
    tree = [p + 1.0 for p in PARENT[:7]] + PARENT[7:9] + [PARENT[9] - 1.0]
    got = compare(tree, PARENT)
    assert (got["wins"], got["losses"], got["pairs"]) == (7, 1, 10)


def test_machine_records_the_blas_build_and_its_thread_settings(monkeypatch):
    # records made under different BLAS builds or thread counts do not compare
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    got = bench_record.machine()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert (got["blas"], got["blas_version"]) == (blas["name"], blas["version"])
    assert got["blas"] and got["blas_version"]
    assert (got["OPENBLAS_NUM_THREADS"], got["OMP_NUM_THREADS"]) == ("1", None)
    assert got["numpy"] == numpy.__version__ and got["nproc"] >= 1
