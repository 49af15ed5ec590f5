"""The three workloads: set-up passes, rounds of operations and their checks.

A round is a fixed list of operations; every run attempts whole rounds, and
the error means come from the first ``acc_rounds`` rounds only, so they are
the same on every run with the same seed.  A run makes ``setup_passes``
set-up passes, ``passes_per_round`` of them before each of its first rounds.
"""

from __future__ import annotations

import csv
import importlib
import math
import os
import sys
import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import yaml

import gen

M_TABLE1 = 9 * 3500 + 1  # dx = 1/3500 on [0, 9]
M_CSV = 3500 + 1         # dx = 9/3500; see README for why the files are smaller


def tolerance(level: float, M: int) -> float:
    """Largest accepted relative error per parameter.

    1e-3 on noise-free data (acceptance criterion 1); with noise, five times
    the level, scaled by sqrt(M_TABLE1 / M) because white noise averages out
    over the grid points.
    """
    return 1e-3 + 5.0 * level * math.sqrt(M_TABLE1 / M)


def rel_errors(truth: gen.Truth, nu: float, d: float, alpha: float | None):
    e = [abs(nu - truth.nu) / truth.nu, abs(d - truth.d) / truth.d]
    if alpha is not None:
        e.append(abs(alpha - truth.alpha) / truth.alpha)
    combined = math.sqrt(sum(v * v for v in e) / len(e))
    return e, combined


@dataclass
class RoundResult:
    latencies_ms: list[float] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    #: Newton iterations summed over the ops
    iterations: int = 0
    #: (nu, d, combined, alpha or None) per op that did not fail
    errors: list[tuple] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(why)


def fresh_import(src: str):
    """Import fadeid (and its CLI module) from ``src``, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "fadeid" or n.startswith("fadeid.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    fadeid = importlib.import_module("fadeid")
    importlib.import_module("fadeid.expcli")
    if not os.path.abspath(fadeid.__file__).startswith(os.path.join(src, "")):
        raise RuntimeError(f"fadeid imported from {fadeid.__file__}, not from {src}")


class Workload:
    name = ""
    setup_passes = 24
    passes_per_round = 2

    def __init__(self, src: str, workdir: str, seed: int):
        self.src, self.workdir, self.seed = src, workdir, seed
        self.problems: list[str] = []

    def setup_pass(self, k: int) -> None:
        """One set-up pass: import fadeid afresh and check it against the generator."""
        fresh_import(self.src)
        sd = sys.modules["fadeid.synthdata"]
        truth = self.truth
        base = gen.clean(truth, self.M)
        ms = sd.synthesize(sd.TrueModel(truth.nu, truth.d, truth.alpha, truth.L, truth.T), self.M)
        self.problems += [f"synthesize vs generator: {p}" for p in gen.check_against(base, ms)]
        self.base = base

    def mod(self, name: str):
        return sys.modules["fadeid." + name]


class SingleEstimate(Workload):
    """newton_estimate on in-memory Table-1 data, one caller, closed loop."""

    name = "single-estimate"
    truth = gen.TABLE1
    M = M_TABLE1
    ROUND = [(N, lvl) for N in (3, 7, 11) for lvl in (0.02, 0.02, 0.02, 0.02, 0.0)]
    acc_rounds = 15

    def run_round(self, r: int, tracer=None) -> RoundResult:
        out = RoundResult()
        est, sd = self.mod("estimator"), self.mod("synthdata")
        b = self.base
        for j, (N, lvl) in enumerate(self.ROUND):
            c_n, f_n = gen.noisy(b, lvl, [self.seed, r, j])
            ms = sd.MeasurementSet(x=b.x, c=b.c, dcdt=b.dcdt, r=b.r, c_noisy=c_n, dcdt_noisy=f_n)
            cfg = est.EstimatorConfig(L1=9.0, N=N, b=3, alpha0=1.4)
            out.ops += 1
            span = tracer.start_op() if tracer else None
            t0 = time.perf_counter()
            try:
                res = est.newton_estimate(ms, cfg)
            except Exception as exc:  # counted as a failed op
                out.fail(f"N={N} level={lvl}: {type(exc).__name__}: {exc}")
                continue
            finally:
                out.latencies_ms.append((time.perf_counter() - t0) * 1e3)
                if tracer:
                    tracer.end(span)
            out.iterations += len(res.iterations)
            e, comb = rel_errors(self.truth, res.nu, res.d, res.alpha)
            if not res.converged:
                out.fail(f"N={N} level={lvl}: not converged ({res.message})")
            elif max(e) > tolerance(lvl, self.M):
                out.fail(f"N={N} level={lvl}: rel errors {e} above {tolerance(lvl, self.M):.3g}")
            else:
                out.errors.append((e[0], e[1], comb, e[2]))
        return out


class CsvTwoParam(Workload):
    """from_csv then estimate_two_param at the known alpha, one caller, closed loop."""

    name = "csv-two-param"
    truth = gen.EXAMPLE1
    M = M_CSV
    BLOCK = (0.03,) * 15 + (0.0,)  # noise level of each file in a block
    BLOCKS = 16
    L1S = (9.0, 5.0)
    setup_passes = BLOCKS  # one block of files each, before the round that reads it
    passes_per_round = 1
    acc_rounds = BLOCKS  # every file once

    def path(self, i: int) -> str:
        return os.path.join(self.workdir, f"ms{i:04d}.csv")

    def file_arrays(self, i: int):
        lvl = self.BLOCK[i % len(self.BLOCK)]
        c_n, f_n = gen.noisy(self.base, lvl, [self.seed, i])
        return lvl, c_n, f_n

    def write_files(self, blocks) -> None:
        sd = self.mod("synthdata")
        b = self.base
        for blk in blocks:
            for i in range(blk * len(self.BLOCK), (blk + 1) * len(self.BLOCK)):
                _, c_n, f_n = self.file_arrays(i)
                ms = sd.MeasurementSet(x=b.x, c=b.c, dcdt=b.dcdt, r=b.r, c_noisy=c_n, dcdt_noisy=f_n)
                sd.to_csv(ms, self.path(i))

    def setup_pass(self, k: int) -> None:
        super().setup_pass(k)
        self.write_files([k])

    def run_round(self, r: int, tracer=None) -> RoundResult:
        out = RoundResult()
        est, sd = self.mod("estimator"), self.mod("synthdata")
        blk = r % self.BLOCKS
        b = self.base
        for i in range(blk * len(self.BLOCK), (blk + 1) * len(self.BLOCK)):
            lvl, c_n, f_n = self.file_arrays(i)
            for L1 in self.L1S:
                cfg = est.EstimatorConfig(L1=L1, N=3, b=3)
                out.ops += 1
                span = tracer.start_op() if tracer else None
                t0 = time.perf_counter()
                try:
                    ms = sd.from_csv(self.path(i))
                    nu, d, _ = est.estimate_two_param(ms, cfg, self.truth.alpha)
                except Exception as exc:  # counted as a failed op
                    out.fail(f"file {i} L1={L1}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    out.latencies_ms.append((time.perf_counter() - t0) * 1e3)
                    if tracer:
                        tracer.end(span)
                want = (b.x, b.c, b.dcdt, b.r, c_n, f_n)
                got = (ms.x, ms.c, ms.dcdt, ms.r, ms.c_noisy, ms.dcdt_noisy)
                if not all(np.array_equal(g, w) for g, w in zip(got, want)):
                    out.fail(f"file {i}: CSV round trip is not bit-exact")
                    continue
                e, comb = rel_errors(self.truth, nu, d, None)
                if max(e) > tolerance(lvl, self.M):
                    out.fail(f"file {i} L1={L1}: rel errors {e} above {tolerance(lvl, self.M):.3g}")
                else:
                    out.errors.append((e[0], e[1], comb, None))
        return out


class Table1Sweep(Workload):
    """The Table-1 study through ``fadeid sweep`` at its default parallelism."""

    name = "table1-sweep"
    truth = gen.TABLE1
    M = M_TABLE1
    N_LIST = [3, 5, 7, 9, 11]
    SEEDS_PER_SWEEP = 8
    LEVEL = 0.02
    passes_per_round = 3
    acc_rounds = 8

    @property
    def cells(self) -> int:
        return len(self.N_LIST) * self.SEEDS_PER_SWEEP

    def setup_pass(self, k: int) -> None:
        super().setup_pass(k)
        t = self.truth
        spec = {
            "truth": {"nu": t.nu, "d": t.d, "alpha": t.alpha, "L": t.L, "T": t.T},
            "estimator": {"M": self.M, "b": 3, "alpha0": 1.4},
            "mode": "three-param",
            "noise_levels": [self.LEVEL],
            "n_list": self.N_LIST,
            "L1_list": [9.0],
            "seeds": list(range(self.SEEDS_PER_SWEEP)),
        }
        self.config = os.path.join(self.workdir, "table1.yaml")
        with open(self.config, "w") as fh:
            yaml.safe_dump(spec, fh, sort_keys=False)
        self.outdir = os.path.join(self.workdir, "sweep")

    def seed_offset(self, r: int) -> int:
        return self.seed * 100_000 + r * self.SEEDS_PER_SWEEP

    def argv(self, r: int, extra=()) -> list[str]:
        return ["sweep", "--config", self.config, "--out", self.outdir,
                "--seed", str(self.seed_offset(r)), "--quiet", *extra]

    def run_round(self, r: int, tracer=None, extra=()) -> RoundResult:
        out = RoundResult()
        cli = self.mod("expcli")
        results = os.path.join(self.outdir, "results.csv")
        if os.path.exists(results):
            os.remove(results)  # never check the previous sweep's file
        t0 = time.perf_counter()
        try:
            code = cli.main(self.argv(r, extra))
        except Exception as exc:  # every cell of this sweep then counts as failed
            code = f"{type(exc).__name__}: {exc}"
        out.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        self.check_results(r, code, out)
        return out

    def check_results(self, r: int, code, out: RoundResult) -> None:
        """Read results.csv back and check every cell of sweep ``r``."""
        out.ops += self.cells
        expected = {(n, self.seed_offset(r) + s)
                    for n, s in product(self.N_LIST, range(self.SEEDS_PER_SWEEP))}
        try:
            with open(os.path.join(self.outdir, "results.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            for _ in range(self.cells):
                out.fail(f"sweep {r} (exit {code}): results.csv unreadable: {exc}")
            return
        if code != 0 and not any(row["error"] for row in rows):
            self.problems.append(f"sweep {r}: exit code {code} with no failed cell")
        if len(rows) != self.cells:
            self.problems.append(f"sweep {r}: {len(rows)} rows, expected {self.cells}")
        seen = set()
        for row in rows:
            key = (int(row["n_funcs"]), int(row["seed"]))
            if key not in expected or key in seen or float(row["noise_level"]) != self.LEVEL:
                self.problems.append(f"sweep {r}: unexpected cell {key}")
                continue
            seen.add(key)
            out.iterations += int(row["iterations"])
            if row["error"]:
                out.fail(f"sweep {r} cell {key}: {row['error']}")
                continue
            if row["converged"] != "True":
                out.fail(f"sweep {r} cell {key}: not converged")
                continue
            est = [float(row[f"est_{p}"]) for p in ("nu", "d", "alpha")]
            e, comb = rel_errors(self.truth, *est)
            stored = [float(row[f"err_{p}"]) for p in ("nu", "d", "alpha", "combined")]
            if any(not math.isclose(s, v, rel_tol=1e-12, abs_tol=1e-300)
                   for s, v in zip(stored, e + [comb])):
                out.fail(f"sweep {r} cell {key}: err_* columns {stored} != recomputed {e + [comb]}")
            elif max(e) > tolerance(self.LEVEL, self.M):
                out.fail(f"sweep {r} cell {key}: rel errors {e} above tolerance")
            else:
                out.errors.append((e[0], e[1], comb, e[2]))
        for key in expected - seen:
            out.fail(f"sweep {r}: cell {key} missing")


WORKLOADS = {w.name: w for w in (Table1Sweep, SingleEstimate, CsvTwoParam)}
