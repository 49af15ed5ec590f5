"""Benchmark for fadeid: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload single-estimate --seed 3 --seconds 30
    python3 perfbench/run.py --workload csv-two-param --trace 1
    python3 perfbench/run.py --workload all          # every workload, one after another

fadeid is imported from the ``src`` directory next to this one.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit.  See README.md for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SPANS = os.path.join(ROOT, ".perfbench_out")
#: a run stops starting new rounds after this long, whatever it still lacks
HARD_STOP_S = 140.0

# Every set-up pass compiles fadeid from source, so setup_s does not depend on
# whether a bytecode cache happens to exist; and the run leaves none behind.
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import tracing  # noqa: E402  (the benchmark's own modules, found through HERE)
from workloads import WORKLOADS  # noqa: E402


class ChildPeakRss:
    """Sums the peak RSS (VmHWM) of this process's children, sampled from /proc.

    A pool worker's high-water mark only grows, so sampling every 250 ms
    loses at most the growth of its last 250 ms.
    """

    PERIOD_S = 0.25

    def __init__(self):
        self.hwm_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _children(self):
        me = str(os.getpid())
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if fields[1] == me:
                yield int(pid)

    def _sample(self) -> None:
        for pid in self._children():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            self.hwm_kb[pid] = max(self.hwm_kb.get(pid, 0), int(line.split()[1]))
                            break
            except OSError:
                continue

    def _loop(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def take_mb(self) -> float:
        """Sum over children seen since the last call, then forget them."""
        total = sum(self.hwm_kb.values()) / 1024.0
        self.hwm_kb.clear()
        return total


def self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


def setup(wl) -> None:
    """All set-up passes at once, untimed (before a traced run)."""
    for k in range(wl.setup_passes):
        wl.setup_pass(k)


def timed_passes(wl, r: int, setup_times: list) -> None:
    """The set-up passes that come before round ``r``, each timed in seconds."""
    first = r * wl.passes_per_round
    for k in range(first, min(first + wl.passes_per_round, wl.setup_passes)):
        t0 = time.perf_counter()
        wl.setup_pass(k)
        setup_times.append(time.perf_counter() - t0)


def accuracy(rounds, n_acc: int) -> dict:
    errs = [e for rr in rounds[:n_acc] for e in rr.errors]
    return {
        "nu_rel_err_mean": mean([e[0] for e in errs]),
        "d_rel_err_mean": mean([e[1] for e in errs]),
        "combined_rel_err_mean": mean([e[2] for e in errs]),
    }


def run_rounds(wl, seconds: float, min_rounds: int, child_rss=None, tracer=None,
               count: int | None = None, setup_times: list | None = None):
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` are done,
    or exactly ``count`` rounds when given.

    With ``setup_times``, the set-up passes are made between the rounds (see
    ``timed_passes``), so their times sample the machine over the whole run
    as the ops do; the time they take is not counted in ``seconds``.
    """
    rounds, peaks = [], []
    elapsed = 0.0
    r = 0
    while True:
        if setup_times is not None:
            timed_passes(wl, r, setup_times)
        t0 = time.perf_counter()
        rounds.append(wl.run_round(r, tracer=tracer))
        if child_rss is not None:
            peaks.append(child_rss.take_mb())
        elapsed += time.perf_counter() - t0
        r += 1
        done = len(rounds)
        if count is not None:
            if done >= count:
                break
        elif (elapsed >= seconds and done >= min_rounds) or elapsed >= HARD_STOP_S:
            break
    return rounds, peaks


def totals(rounds):
    attempted = sum(rr.ops for rr in rounds)
    failed = sum(rr.failed for rr in rounds)
    reasons = [why for rr in rounds for why in rr.reasons]
    return attempted, failed, reasons


def end_to_end(wl, args) -> tuple[dict, list]:
    setup_times = []
    if wl.name == "table1-sweep":
        with ChildPeakRss() as child_rss:
            rounds, peaks = run_rounds(wl, args.seconds, wl.acc_rounds, child_rss=child_rss,
                                       setup_times=setup_times)
        rss = self_peak_mb() + max(peaks)
    else:
        rounds, _ = run_rounds(wl, args.seconds, wl.acc_rounds, setup_times=setup_times)
        rss = self_peak_mb()
    setup_s = statistics.median(setup_times)
    busy_s = sum(v for rr in rounds for v in rr.latencies_ms) / 1e3
    ops = sum(rr.ops for rr in rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / busy_s, "ops/s"),
        **{k: (v, "1") for k, v in accuracy(rounds, wl.acc_rounds).items()},
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, rounds


PER_LAYER = [
    ("synthdata.synthesize_ms", "ms"), ("synthdata.from_csv_ms", "ms"),
    ("synthdata.to_csv_ms", "ms"), ("synthdata.bytes_read", "B"),
    ("fracpoly.eval_calls", "count"), ("fracpoly.eval_ms", "ms"), ("fracpoly.build_ms", "ms"),
    ("modfun.build_family_ms", "ms"), ("modfun.grid_calls", "count"),
    ("modfun.grid_self_ms", "ms"), ("modfun.grid_bytes", "B"),
    ("estimator.newton_iters", "count"), ("estimator.assemble_ms", "ms"),
    ("estimator.solve_ms", "ms"), ("estimator.self_ms", "ms"),
    ("estimator.alpha_rel_err_mean", "1"),
    ("expcli.workers", "count"), ("expcli.cell_ms_p50", "ms"),
    ("expcli.parallel_efficiency", "1"), ("expcli.write_ms", "ms"),
    ("trace.op_ms", "ms"), ("trace.untraced_op_ms", "ms"),
    ("trace.overhead_ms", "ms"), ("trace.unattributed_ms", "ms"),
]


def layer_metrics(tracer, ops: int) -> dict:
    """Per-op (or per-call where named so) figures from the spans of ``ops`` ops."""
    st = tracer.self_times()

    def per_op(name):
        return st.get(name, (0, 0.0))[1] / ops

    def per_call(name):
        calls, ms = st.get(name, (0, 0.0))
        return ms / calls if calls else 0.0

    grid_calls = st.get("modfun.grid", (0, 0.0))[0]
    return {
        "synthdata.synthesize_ms": per_call("synthdata.synthesize"),
        "synthdata.from_csv_ms": per_op("synthdata.from_csv"),
        "synthdata.to_csv_ms": per_call("synthdata.to_csv"),
        "synthdata.bytes_read": tracer.counts["synthdata.bytes_read"] / ops,
        "fracpoly.eval_calls": st.get("fracpoly.eval", (0, 0.0))[0] / ops,
        "fracpoly.eval_ms": per_op("fracpoly.eval"),
        "fracpoly.build_ms": per_op("fracpoly.build"),
        "modfun.build_family_ms": per_op("modfun.build_family"),
        "modfun.grid_calls": grid_calls / ops,
        "modfun.grid_self_ms": per_call("modfun.grid"),
        "modfun.grid_bytes": tracer.counts["modfun.grid_bytes"] / grid_calls if grid_calls else 0.0,
        "estimator.assemble_ms": per_op("estimator.assemble"),
        "estimator.solve_ms": per_op("estimator.solve"),
        "estimator.self_ms": per_op("estimator.entry"),
    }


def traced_loop(wl, args):
    """Untraced rounds for half the run, then the same rounds traced."""
    setup(wl)
    plain, _ = run_rounds(wl, args.seconds / 2, 1)
    tracer = tracing.Tracer()
    tracer.install(tracing.LAYER_TARGETS)
    try:
        traced, _ = run_rounds(wl, 0, 0, tracer=tracer, count=len(plain))
        if wl.name == "csv-two-param":
            wl.write_files([0])  # rewrite one block to time to_csv per file
    finally:
        tracer.uninstall()
    ops = sum(rr.ops for rr in traced)
    op_ms = mean(tracer.durations_ms(tracing.OP))
    untraced_ms = mean([v for rr in plain for v in rr.latencies_ms])
    m = layer_metrics(tracer, ops)
    m["estimator.newton_iters"] = sum(rr.iterations for rr in traced) / ops
    m["trace.op_ms"] = op_ms
    m["trace.untraced_op_ms"] = untraced_ms
    m["trace.overhead_ms"] = op_ms - untraced_ms
    m["trace.unattributed_ms"] = tracer.self_times().get(tracing.OP, (0, 0.0))[1] / ops
    alpha = [e[3] for rr in traced for e in rr.errors if e[3] is not None]
    m["estimator.alpha_rel_err_mean"] = mean(alpha)
    return m, plain + traced, tracer


def traced_sweep(wl, args):
    """Pooled sweeps with only the CLI traced, then one sweep's cells serially:
    untraced (cell spans only) and fully traced, all in this process."""
    setup(wl)
    cli_tracer = tracing.Tracer()
    cli_tracer.install(tracing.EXPCLI_TARGETS, pool=True)
    try:
        pooled, _ = run_rounds(wl, args.seconds / 3, 1)
    finally:
        cli_tracer.uninstall()
    serial_round = len(pooled)
    serial = []
    plain = tracing.Tracer()
    plain.install((), cell=True)
    try:
        serial.append(wl.run_round(serial_round, extra=("--workers", "1")))
    finally:
        plain.uninstall()
    tracer = tracing.Tracer()
    tracer.install(tracing.LAYER_TARGETS + tracing.EXPCLI_TARGETS, cell=True)
    try:
        serial.append(wl.run_round(serial_round, extra=("--workers", "1")))
    finally:
        tracer.uninstall()
    cells = wl.cells
    cell_plain = plain.durations_ms("expcli.cell")
    cell_traced = tracer.durations_ms("expcli.cell")
    m = layer_metrics(tracer, cells)
    m["estimator.newton_iters"] = serial[-1].iterations / cells
    pooled_wall_ms = statistics.median([v for rr in pooled for v in rr.latencies_ms])
    m["expcli.workers"] = cli_tracer.counts.get("expcli.workers", 1.0)
    m["expcli.cell_ms_p50"] = statistics.median(cell_plain)
    nproc = len(os.sched_getaffinity(0))
    m["expcli.parallel_efficiency"] = sum(cell_plain) / (pooled_wall_ms * nproc)
    m["expcli.write_ms"] = cli_tracer.total_ms("expcli.write") / len(pooled)
    m["trace.op_ms"] = mean(cell_traced)
    m["trace.untraced_op_ms"] = mean(cell_plain)
    m["trace.overhead_ms"] = mean(cell_traced) - mean(cell_plain)
    m["trace.unattributed_ms"] = tracer.self_times().get("expcli.cell", (0, 0.0))[1] / cells
    alpha = [e[3] for rr in serial for e in rr.errors]
    m["estimator.alpha_rel_err_mean"] = mean(alpha)
    tracer.absent += cli_tracer.absent + plain.absent
    return m, pooled + serial, tracer


def per_layer(wl, args) -> tuple[dict, list]:
    if wl.name == "table1-sweep":
        m, rounds, tracer = traced_sweep(wl, args)
    else:
        m, rounds, tracer = traced_loop(wl, args)
    metrics = {name: (float(m.get(name, 0.0)), unit) for name, unit in PER_LAYER}
    tracer.dump(os.path.join(SPANS, f"spans-{wl.name}-seed{args.seed}.jsonl"))
    if tracer.absent:
        print("absent (not traced): " + ", ".join(sorted(set(tracer.absent))))
    return metrics, rounds


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        ok &= results[name]["correct"]
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0, help="input seed, >= 0")
    p.add_argument("--seconds", type=int, default=run_seconds(),
                   help="measured time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run instead")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "fadeid", "__init__.py")):
        print(f"fadeid sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](SRC, workdir, args.seed)
        metrics, rounds = (per_layer if args.trace else end_to_end)(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    attempted, failed, reasons = totals(rounds)
    for why in reasons:
        print(f"failed op: {why}")
    for problem in sorted(set(wl.problems)):
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:16s} {name:32s} {value:14.6g} {unit}")
    print(f"{wl.name:16s} attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": not wl.problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
