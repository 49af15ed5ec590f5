"""Spans around the calls into each fadeid module, recorded from outside.

``Tracer.install`` rebinds a function in its defining module and in every
fadeid module that imported it (``fadeid.estimator.evaluate_on_grid`` is
the same object as ``fadeid.modfun.evaluate_on_grid``), so calls between
modules are seen as well as the benchmark's own calls.  A name that no
longer exists is listed in ``absent`` instead of raising.

Each span is ``[name, start_ns, end_ns, parent, op]``.  Spans stay in memory
until ``dump`` writes them out.  A span's self time is its duration minus
the durations of its direct children (calls nest, one thread).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

#: (module, attribute, span name).  Several functions may share a span name;
#: their times then add up in that layer metric.
LAYER_TARGETS = (
    ("fadeid.synthdata", "synthesize", "synthdata.synthesize"),
    ("fadeid.synthdata", "from_csv", "synthdata.from_csv"),
    ("fadeid.synthdata", "to_csv", "synthdata.to_csv"),
    ("fadeid.fracpoly", "rl_derivative", "fracpoly.build"),
    ("fadeid.fracpoly", "rl_alpha_sensitivity", "fracpoly.build"),
    ("fadeid.fracpoly", "FracExpansion.__call__", "fracpoly.eval"),
    ("fadeid.modfun", "build_family", "modfun.build_family"),
    ("fadeid.modfun", "evaluate_on_grid", "modfun.grid"),
    ("fadeid.estimator", "newton_estimate", "estimator.entry"),
    ("fadeid.estimator", "estimate_two_param", "estimator.entry"),
    ("fadeid.estimator", "assemble_theorem1", "estimator.assemble"),
    ("fadeid.estimator", "assemble_prop1", "estimator.assemble"),
    ("fadeid.estimator", "gradient_Kprime", "estimator.assemble"),
    ("fadeid.estimator", "residual_K_U", "estimator.assemble"),
    ("fadeid.estimator", "solve_2col_least_squares", "estimator.solve"),
    ("fadeid.estimator", "solve_derivative_system", "estimator.solve"),
)
EXPCLI_TARGETS = (
    ("fadeid.expcli", "run", "expcli.run"),
    ("fadeid.expcli", "write_rows", "expcli.write"),
    ("fadeid.expcli", "write_manifest", "expcli.write"),
    ("fadeid.expcli", "emit_plotdata", "expcli.write"),
)
#: one sweep cell; each call starts a new op
CELL_TARGET = ("fadeid.expcli", "_run_cell", "expcli.cell")
#: pool constructor, recorded for the worker count it is asked for
POOL_TARGET = ("fadeid.expcli", "ProcessPoolExecutor")

OP = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def start_op(self) -> int:
        self.op += 1
        return self.begin(OP)

    def _wrap(self, fn, name: str, new_op: bool = False, after=None, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_op:
                self.op += 1
            if before is not None:
                before(args, kwargs)
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            return after(out) if after is not None else out

        return traced

    # -- installing wrappers -------------------------------------------
    def _rebind(self, orig, wrapper) -> None:
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "fadeid" or mname.startswith("fadeid.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def _install_one(self, module: str, attr: str, name: str, **kw) -> None:
        mod = sys.modules.get(module)
        owner, _, method = attr.rpartition(".")
        if owner:  # a method: patch the class attribute
            cls = getattr(mod, owner, None) if mod else None
            orig = cls.__dict__.get(method) if cls is not None else None
            if orig is None:
                self.absent.append(f"{module}.{attr}")
                return
            setattr(cls, method, self._wrap(orig, name, **kw))
            self._undo.append((cls, method, orig))
            return
        orig = getattr(mod, attr, None) if mod else None
        if orig is None:
            self.absent.append(f"{module}.{attr}")
            return
        self._rebind(orig, self._wrap(orig, name, **kw))

    def install(self, targets, cell: bool = False, pool: bool = False) -> None:
        for module, attr, name in targets:
            kw = {}
            if attr == "rl_alpha_sensitivity":
                # the evaluator it returns is timed as fracpoly.eval
                kw["after"] = lambda ev: self._wrap(ev, "fracpoly.eval")
            elif attr == "evaluate_on_grid":
                kw["before"] = self._count_grid_bytes
            elif attr == "from_csv":
                kw["before"] = self._count_bytes_read
            self._install_one(module, attr, name, **kw)
        if cell:
            self._install_one(*CELL_TARGET, new_op=True)
        if pool:
            module, attr = POOL_TARGET
            mod = sys.modules.get(module)
            orig = getattr(mod, attr, None) if mod else None
            if orig is None:
                self.absent.append(f"{module}.{attr}")
            else:
                def pool_factory(*args, **kwargs):
                    workers = kwargs.get("max_workers", args[0] if args else None)
                    self.counts["expcli.workers"] = float(workers or os.cpu_count() or 1)
                    return orig(*args, **kwargs)

                self._rebind(orig, pool_factory)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _count_grid_bytes(self, args, kwargs) -> None:
        fam = args[0] if args else kwargs.get("fam")
        M = args[2] if len(args) > 2 else kwargs.get("M")
        # four N x M float64 blocks: phi, phi', D^alpha phi, its alpha-sensitivity
        self.counts["modfun.grid_bytes"] += 4 * fam.n_funcs * int(M) * 8

    def _count_bytes_read(self, args, kwargs) -> None:
        path = args[0] if args else kwargs.get("path")
        self.counts["synthdata.bytes_read"] += os.path.getsize(path)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, total self time in ms)}."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (t1 - t0 - child_ns[i]) / 1e6
        return {k: (calls[k], self_ms[k]) for k in calls}

    def total_ms(self, name: str) -> float:
        return sum((s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name)

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name]

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "op": op}) + "\n")
