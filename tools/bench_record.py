"""Record benchmark runs, with the machine they ran on, in one JSON file.

Runs every workload of BENCHMARK.json PAIRS times, each run
``python3 perfbench/run.py --workload W --seed S --seconds T`` with T the
benchmark's ``run_seconds``, as a subprocess, and keeps the last line of its
standard output, the JSON summary (``correct``, ``attempted``, ``failed``,
``metrics``).  Given a second checkout with ``--parent``, pair i of runs uses
seed i on both trees, and the tree that runs first alternates from pair to
pair, so slow drift of a shared machine falls on both sides alike.

    python3 tools/bench_record.py --out BENCH.json
    python3 tools/bench_record.py --out BENCH.json --parent ../parent

The file holds every run, the median, quartiles, minimum and maximum of
each metric per workload and tree, the summed ``attempted`` and ``failed``
ops per workload and tree, nproc, the Python/numpy/scipy versions, numpy's
BLAS name and version, the OPENBLAS_NUM_THREADS and OMP_NUM_THREADS values
and each tree's git revision.  Nothing here imports fadeid.  With
``--parent`` it also holds, per workload and metric of BENCHMARK.json, the
pairs in which the tree beat the parent by the metric's ``better``
direction, whether that is a gain: at least 9 in 10 pairs won, and the
medians apart by more than the parent's interquartile range, the right way,
and whether it is a loss by the same rule turned round: at least 9 in 10
pairs lost, and the medians apart by more than that range the wrong way.
Per workload and end-to-end metric it holds two verdicts, printed at the
end: ``regressed``, the tree's median worse than the parent's by more than
the metric's ``bound``, and ``unresolved``, the parent's runs spread wider
than that bound, (max - min) / median, while some tree run does not beat
every parent run and the tree is worse than the parent in some pair.  A
metric that ties pair for pair, as seed-paired error means of two trees
with the same estimates do, is resolved however far its seeds spread.

Each run also records the host's CPU steal over the run (``steal_ticks``,
from the aggregate ``cpu`` line of /proc/stat, in ``clk_tck`` units) and the
run's own user + system CPU time (``child_cpu_s``, a getrusage(RUSAGE_CHILDREN)
delta); the summary holds their medians next to the metrics'.  Steal marks
a noisy host; CPU time that moves with the tree marks a noisy change.

The exit status is 1 when any run printed no summary or one that is not
``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def revision(tree: Path) -> str:
    """The tree's commit, with "+dirty" when tracked files differ from it."""
    git = ["git", "-C", str(tree)]
    rev = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return (rev or "unknown") + ("+dirty" if dirty else "")


def steal_ticks() -> int | None:
    """The host's CPU steal so far, summed over its CPUs; None where unknown."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])  # cpu user nice system idle iowait irq softirq steal
    except (OSError, IndexError, ValueError):
        return None


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    steal0, cpu0, t0 = steal_ticks(), child_cpu_s(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall, steal1, cpu1 = time.perf_counter() - t0, steal_ticks(), child_cpu_s()
    record = {"returncode": proc.returncode, "wall_s": round(wall, 3),
              "steal_ticks": None if None in (steal0, steal1) else steal1 - steal0,
              "child_cpu_s": round(cpu1 - cpu0, 3)}
    lines = proc.stdout.strip().splitlines()
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["result"] = None
        record["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return record


def stats(v: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
    return {"median": statistics.median(v), "q1": q1, "q3": q3,
            "min": min(v), "max": max(v), "n": len(v)}


def summarize(runs: list[dict]) -> dict:
    """{workload: {tree: {metric: {median, q1, q3, min, max, n}}}} over the
    runs that printed a result; ``steal_ticks`` and ``child_cpu_s`` are
    summarized too, and ``ops`` holds the runs' summed ``attempted`` and
    ``failed``."""
    values: dict = {}
    ops: dict = {}
    for r in runs:
        if r["result"] is None:
            continue
        total = ops.setdefault((r["workload"], r["tree"]), {"attempted": 0, "failed": 0})
        for name in total:
            total[name] += r["result"][name]
        per_metric = values.setdefault(r["workload"], {}).setdefault(r["tree"], {})
        for name, m in r["result"]["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
        for name in ("steal_ticks", "child_cpu_s"):
            if r[name] is not None:
                per_metric.setdefault(name, []).append(r[name])
    return {
        w: {t: {**{m: stats(v) for m, v in metrics.items()}, "ops": ops[w, t]}
            for t, metrics in trees.items()}
        for w, trees in values.items()
    }


def paired_wins(runs: list[dict], summary: dict, better: dict[str, str]) -> dict:
    """{workload: {metric: {wins, losses, pairs, gain, loss}}}: the pairs
    whose tree run beat, or lost to, the parent's by ``better[metric]``
    ("higher" or "lower"); ``gain`` holds when wins >= 0.9 * pairs and the
    medians differ, the better way, by more than the parent's interquartile
    range; ``loss`` when the tree lost that many pairs and the medians differ
    by that much the worse way."""
    sign = {name: 1 if way == "higher" else -1 for name, way in better.items()}
    pairs: dict = {}
    for r in runs:
        for name, m in (r["result"] or {}).get("metrics", {}).items():
            if name in sign:
                by_pair = pairs.setdefault((r["workload"], name), {})
                by_pair.setdefault(r["pair"], {})[r["tree"]] = m["value"]
    wins: dict = {}
    for (w, name), by_pair in pairs.items():
        diffs = [sign[name] * (v["tree"] - v["parent"]) for v in by_pair.values() if len(v) == 2]
        if not diffs:
            continue
        tree, parent = summary[w]["tree"][name], summary[w]["parent"][name]
        gap = sign[name] * (tree["median"] - parent["median"])
        iqr = parent["q3"] - parent["q1"]
        won, lost = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
        wins.setdefault(w, {})[name] = {
            "wins": won, "losses": lost, "pairs": len(diffs),
            "gain": won >= 0.9 * len(diffs) and gap > iqr,
            "loss": lost >= 0.9 * len(diffs) and -gap > iqr}
    return wins


def verdicts(summary: dict, end_to_end: list[dict], wins: dict | None = None) -> dict:
    """{workload: {metric: {regressed, unresolved}}} for each end-to-end
    metric of BENCHMARK.json that both trees report.  ``regressed``: the
    tree's median is worse than the parent's by more than the metric's
    ``bound``, a fraction of the parent's median.  ``unresolved``: the
    parent's runs spread, (max - min) / median, wider than that bound, not
    every tree run beats every parent run and, given ``wins`` from
    :func:`paired_wins`, the tree lost at least one pair, so the record
    cannot tell a change of that size from noise."""
    out: dict = {}
    for w, trees in summary.items():
        for m in end_to_end:
            tree = trees.get("tree", {}).get(m["name"])
            parent = trees.get("parent", {}).get(m["name"])
            if tree is None or parent is None:
                continue
            sign = 1 if m["better"] == "higher" else -1
            limit = m["bound"] * abs(parent["median"])
            beats = tree["min"] > parent["max"] if sign > 0 else tree["max"] < parent["min"]
            paired = (wins or {}).get(w, {}).get(m["name"])
            no_pair_lost = paired is not None and paired["losses"] == 0
            out.setdefault(w, {})[m["name"]] = {
                "regressed": sign * (parent["median"] - tree["median"]) > limit,
                "unresolved": parent["max"] - parent["min"] > limit
                and not (beats or no_pair_lost)}
    return out


def machine() -> dict:
    """The CPUs, versions and BLAS build that a record's runs depend on."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "clk_tck": os.sysconf("SC_CLK_TCK"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        # BLAS threads per process, None when unset (then OpenBLAS uses every CPU)
        **{name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--tree", default=str(ROOT), help="checkout measured (default: this one)")
    p.add_argument("--parent", help="second checkout, run alternately with --tree")
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

    trees = {"tree": Path(args.tree).resolve()}
    if args.parent:
        trees["parent"] = Path(args.parent).resolve()
    data = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T",
        "seconds": seconds,
        "machine": machine(),
        "revisions": {name: revision(path) for name, path in trees.items()},
        "summary": {},
        "runs": [],
    }
    runs = data["runs"]
    for workload in (w["name"] for w in bench["workloads"]):
        for i in range(PAIRS):
            order = list(trees) if i % 2 == 0 else list(reversed(trees))
            for name in order:
                record = {"workload": workload, "tree": name, "pair": i, "seed": i,
                          **run_once(trees[name], workload, i, seconds)}
                runs.append(record)
                result = record["result"] or {}
                print(f"{workload} pair {i} {name}: rc={record['returncode']} "
                      f"correct={result.get('correct')} failed={result.get('failed')} "
                      f"steal={record['steal_ticks']} cpu={record['child_cpu_s']}s",
                      file=sys.stderr, flush=True)
                # rewritten after every run, so an interrupted recording keeps its runs
                data["summary"] = summarize(runs)
                if args.parent:
                    data["wins"] = paired_wins(runs, data["summary"], better)
                    data["verdicts"] = verdicts(data["summary"], bench["end_to_end"], data["wins"])
                Path(args.out).write_text(json.dumps(data, indent=1) + "\n")
    for w, metrics in data.get("verdicts", {}).items():
        for name, flags in metrics.items():
            flagged = [flag for flag, on in flags.items() if on]
            print(f"{w} {name}: {' and '.join(flagged) or 'within bound'}", file=sys.stderr)
    return 0 if all((r["result"] or {}).get("correct") for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
