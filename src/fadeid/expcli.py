"""Experiment runner: one-shot estimation, sweep studies and plot-data export.

Subcommands:

    estimate   one estimation run, summary printed to stdout
    sweep      full (noise x N x L1 x seed) sweep from a YAML spec,
               results.csv + manifest.yaml + per-figure CSVs written out
    selftest   fast invariant checks, one PASS/FAIL line each

Configuration is a YAML file with nested sections mirroring
:class:`ExperimentSpec`; every default is documented in ``--help``.

A sweep's data set depends only on (truth, grid, noise level, seed), so the
N x L1 cells of one (noise level, seed) pair fit the same samples.  The data
set is the unit of work, made once for all of its cells: a process
synthesizes the noise-free profile once and adds each data set's noise to
it.  A data set's cells at one L1 share one moment block, built for the
largest swept N; each cell fits that block lifted to its own N, and the
cells share its grid contraction at every alpha they have in common.  The
blocks at one L1 share one grid basis, built once per process.  A process
keeps one block alive, freeing it before the next block or data set is
made.  Each block is built in one step: the clean profile, the data set's
noise and the L1's basis where not yet made, then the block.  An exception
from any of them takes the block's place for that L1's cells, so every
failure reaches ``row.error`` one way; a data set whose noise failed is
tried again, and fails again, at its next L1.  Every data set has the same
cells, so W worker processes split them evenly by stride: process k runs
data sets k, k + W, k + 2W, ...  The calling process is process 0; it
starts the other W - 1 and passes each the spec once with its share, and
each sends its rows back over a one-way pipe.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, asdict, replace, field
from itertools import product
from multiprocessing import Pipe, Process
from numbers import Integral
from pathlib import Path

import yaml

from . import __version__
from .estimator import EstimatorConfig, linearize, newton_fit
from .modfun import DataMoments, GridBasis, build_family, snap_node
from .synthdata import TrueModel, add_noise, check_noise, synthesize

MODES = ("two-param", "three-param")
#: libyaml's safe loader and dumper where PyYAML was built with it
_YAML_LOADER, _YAML_DUMPER = ((yaml.CSafeLoader, yaml.CSafeDumper) if yaml.__with_libyaml__
                              else (yaml.SafeLoader, yaml.SafeDumper))
#: cells x grid points per worker: on 2 CPUs, 2/3/4/8 Table-1 data sets
#: (5 cells at M = 31501) took 20/30/36/73 ms serially, 22/27/32/52 ms on the
#: calling process and one started process (medians of 15 fresh processes);
#: 3 data sets gain too little over the spread of their runs
_POOL_CELL_POINTS = 2 * 5 * 31501


@dataclass
class ExperimentSpec:
    """A sweep; each (noise level, seed) data set passes add_noise's check_noise."""

    truth: TrueModel = field(default_factory=TrueModel)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    mode: str = "three-param"
    noise_levels: list[float] = field(default_factory=lambda: [0.0])
    n_list: list[int] = field(default_factory=lambda: [3])
    L1_list: list[float] = field(default_factory=lambda: [9.0])
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "results"
    #: synthesis grid size on [0, L]; default spacing is 1/1500
    grid_points: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        if self.truth.nu == 0:
            raise ValueError("truth.nu must be nonzero: errors are relative to nu")
        for name in ("noise_levels", "n_list", "L1_list", "seeds"):
            if not (isinstance(getattr(self, name), list) and getattr(self, name)):
                raise ValueError(f"sweep list '{name}' must be a non-empty list")
        for level, seed in product(self.noise_levels, self.seeds):
            check_noise(level, seed)
        for n, L1 in product(self.n_list, self.L1_list):
            replace(self.estimator, N=n, L1=L1)  # the estimator's own N and L1 rules
        if self.grid_points is None:
            self.grid_points = int(round(self.truth.L * 1500)) + 1
        if not (isinstance(self.grid_points, Integral) and self.grid_points >= 3):
            raise ValueError(f"grid_points must be an integer >= 3, got {self.grid_points!r}")
        for L1 in self.L1_list:  # the node GridBasis will snap L1 to
            snap_node(L1, float(self.truth.L), self.grid_points)


@dataclass
class ResultRow:
    cell_index: int
    noise_level: float
    n_funcs: int
    L1: float
    seed: int
    est_nu: float = math.nan
    est_d: float = math.nan
    est_alpha: float = math.nan
    err_nu: float = math.nan
    err_d: float = math.nan
    err_alpha: float = math.nan
    err_combined: float = math.nan
    iterations: int = 0
    converged: bool = False
    error: str = ""


CSV_FIELDS = list(ResultRow.__dataclass_fields__)


def _mapping(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a mapping, got {type(value).__name__}")
    return value


def spec_from_dict(data: dict) -> ExperimentSpec:
    data = dict(_mapping(data, "the spec"))
    data.pop("fadeid_version", None)  # written by write_manifest
    truth = TrueModel(**_mapping(data.pop("truth", {}), "'truth'"))
    est_raw = dict(_mapping(data.pop("estimator", {}), "'estimator'"))
    for name, sweep in (("N", "n_list"), ("L1", "L1_list")):
        if name in est_raw:
            raise ValueError(f"estimator.{name} is swept; set '{sweep}' instead")
    # the grid size on [0, L] is grid_points, or M in the estimator section
    if "M" in est_raw:
        if "grid_points" in data:
            raise ValueError("give the grid as grid_points or as estimator.M, not both")
        data["grid_points"] = est_raw.pop("M")
    return ExperimentSpec(truth=truth, estimator=EstimatorConfig(**est_raw), **data)


def load_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        return spec_from_dict(yaml.load(fh, Loader=_YAML_LOADER) or {})


def _run_cell(spec, block: DataMoments | Exception, row: ResultRow) -> ResultRow:
    """Fill ``row`` with the fit of its cell on the block lifted to its N, or
    with ``block`` when it is the exception that stopped the block's build."""
    truth = spec.truth
    try:
        if isinstance(block, Exception):
            raise block
        mom = block.lift(build_family(row.n_funcs, spec.estimator.b))
        if spec.mode == "two-param":
            lin = linearize(mom, truth.alpha)
            row.est_nu, row.est_d, row.est_alpha = lin.nu, lin.d, truth.alpha
            row.converged = True
        else:
            res = newton_fit(mom, spec.estimator.alpha0)
            row.est_nu, row.est_d, row.est_alpha = res.nu, res.d, res.alpha
            row.iterations = len(res.iterations)
            row.converged = res.converged
        row.err_nu = abs(row.est_nu - truth.nu) / abs(truth.nu)
        row.err_d = abs(row.est_d - truth.d) / abs(truth.d)
        row.err_alpha = abs(row.est_alpha - truth.alpha) / abs(truth.alpha)
        errs = [row.err_nu, row.err_d]
        if spec.mode == "three-param":
            errs.append(row.err_alpha)
        # RMS combination (this reproduces the customary single-number column)
        row.err_combined = math.sqrt(sum(e * e for e in errs) / len(errs))
    except Exception as exc:  # recorded per-cell, the sweep continues
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def _run_data_set(spec, tasks) -> list[ResultRow]:
    """Fit the cells of each ((noise, seed), {L1: [(idx, n)]}) task, one block
    per L1; an exception from any step of a block's build takes its place."""
    rows, clean, bases = [], None, {}
    fam = build_family(max(spec.n_list), spec.estimator.b)
    for (noise, seed), by_L1 in tasks:
        ms = None  # the last data set is freed before this one is made
        for L1, cells in by_L1.items():
            block = None  # the last block is freed before this one is built
            try:
                if clean is None:
                    clean = synthesize(spec.truth, spec.grid_points)
                if ms is None:
                    ms = add_noise(clean, noise, seed)
                if L1 not in bases:
                    bases[L1] = GridBasis(ms.x, L1, fam)
                block = DataMoments(ms, bases[L1])
            except Exception as exc:  # every cell at this L1 records it
                block = exc
            rows += [_run_cell(spec, block, ResultRow(idx, noise, n, L1, seed))
                     for idx, n in cells]
    return rows


def _send_rows(writer, spec, tasks) -> None:
    """A worker process's body: fit its data sets, send their rows back."""
    with writer:
        writer.send(_run_data_set(spec, tasks))


def run(spec: ExperimentSpec, workers: int | None = None) -> list[ResultRow]:
    """Run every (noise, N, L1, seed) cell; failures are recorded, not raised.

    Uses at most ``workers`` processes (default: the CPUs this process may
    run on), one per data set and per ``_POOL_CELL_POINTS``, and deals the
    data sets to them by stride.  A worker that exits without sending its
    rows raises RuntimeError; workers still running when the sweep ends or
    is interrupted are terminated.  Rows come back in product order.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    groups: dict[tuple, dict] = {}  # (noise, seed) -> {L1: [(idx, n)]} of that data set
    cells = list(product(spec.noise_levels, spec.n_list, spec.L1_list, spec.seeds))
    for idx, (noise, n, L1, seed) in enumerate(cells):
        groups.setdefault((noise, seed), {}).setdefault(L1, []).append((idx, n))
    tasks = list(groups.items())
    cap = min(len(tasks), len(cells) * spec.grid_points // _POOL_CELL_POINTS)
    if cap > 1 and workers is None:  # macOS and Windows lack sched_getaffinity
        affinity = getattr(os, "sched_getaffinity", None)
        workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(workers, cap) if cap > 1 else 1
    children = []  # (process, the read end of its pipe)
    try:
        for k in range(1, workers):
            reader, writer = Pipe(duplex=False)
            child = Process(target=_send_rows, args=(writer, spec, tasks[k::workers]), daemon=True)
            children.append((child, reader))
            child.start()
            writer.close()  # the child holds the only write end: EOF once it exits
        parts = [_run_data_set(spec, tasks[::workers])]
        for child, reader in children:
            try:
                parts.append(reader.recv())
            except EOFError:
                child.join()
                raise RuntimeError(f"worker process exited with code {child.exitcode} "
                                   "before sending its rows") from None
    finally:
        for child, reader in children:
            if child.is_alive():  # the sweep was interrupted or another worker failed
                child.terminate()
            child.join()
            reader.close()
    return sorted((r for part in parts for r in part), key=lambda r: r.cell_index)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path, header, records) -> None:
    """The one CSV writer: the header, then each record's cells through _fmt."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_fmt(v) for v in record] for record in records)


def write_rows(rows: list[ResultRow], path) -> None:
    _write_csv(path, CSV_FIELDS, ([getattr(r, f) for f in CSV_FIELDS] for r in rows))


def write_manifest(spec: ExperimentSpec, path) -> None:
    data = {"fadeid_version": __version__, **asdict(spec)}
    del data["estimator"]["N"], data["estimator"]["L1"]  # swept: n_list, L1_list
    with open(path, "w") as fh:
        yaml.dump(data, fh, Dumper=_YAML_DUMPER, sort_keys=False)


def emit_plotdata(rows: list[ResultRow], outdir) -> list[Path]:
    """Tidy (x, series, value) CSVs, one per figure family.

    Failed cells are skipped.  Files are always written, with headers only
    when there is no data.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ok = [r for r in rows if not r.error]

    def errors_vs(x):  # all three error series against the field x
        return [(getattr(r, x), series, getattr(r, series))
                for r in ok for series in ("err_nu", "err_d", "err_alpha")]

    def by_count(err):  # one error against N, one series per noise level
        return [(r.n_funcs, f"noise={r.noise_level:g}", getattr(r, err)) for r in ok]

    files = {
        "fig_interval_length.csv": errors_vs("L1"),
        "fig_noise_levels.csv": errors_vs("noise_level"),
        "fig_modfun_count_err_d.csv": by_count("err_d"),
        "fig_modfun_count_err_nu.csv": by_count("err_nu"),
    }
    for name, records in files.items():
        _write_csv(outdir / name, ["x", "series", "value"], records)
    return [outdir / name for name in files]


def _estimate_spec(args) -> ExperimentSpec:
    if args.config:
        spec = load_spec(args.config)
    else:
        spec = ExperimentSpec()
    # one cell: each swept list becomes [its flag], else its first entry
    flags = {"noise_levels": args.noise, "n_list": args.n, "L1_list": args.L1,
             "seeds": args.seed}
    cell = {name: getattr(spec, name)[:1] if flag is None else [flag]
            for name, flag in flags.items()}
    return replace(spec, mode=args.mode or spec.mode, **cell)


def _cmd_estimate(args, spec: ExperimentSpec) -> int:
    (row,) = run(spec)
    if row.error:
        print(f"estimation failed: {row.error}", file=sys.stderr)
        return 1
    if not args.quiet:
        t = spec.truth
        print(f"mode          {spec.mode}")
        print(f"noise level   {row.noise_level:g}   seed {row.seed}")
        print(f"N={row.n_funcs}  b={spec.estimator.b}  L1={row.L1:g}  "
              f"grid points {spec.grid_points}")
        print(f"nu     {row.est_nu:+.8f}   (true {t.nu:g}, rel err {row.err_nu:.3e})")
        print(f"d      {row.est_d:+.8f}   (true {t.d:g}, rel err {row.err_d:.3e})")
        print(f"alpha  {row.est_alpha:+.8f}   (true {t.alpha:g}, rel err {row.err_alpha:.3e})")
        print(f"combined rel err {row.err_combined:.3e}   "
              f"iterations {row.iterations}   converged {row.converged}")
    return 0 if row.converged else 1


def _sweep_spec(args) -> ExperimentSpec:
    spec = load_spec(args.config)
    if args.out:
        spec = replace(spec, output_dir=args.out)
    if args.seed:
        spec = replace(spec, seeds=[s + args.seed for s in spec.seeds])
    return spec


def _cmd_sweep(args, spec: ExperimentSpec) -> int:
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = run(spec, workers=args.workers)
    if not args.quiet:
        for r in rows:
            status = r.error or ("ok" if r.converged else "not converged")
            print(f"cell {r.cell_index:4d} noise={r.noise_level:g} N={r.n_funcs} "
                  f"L1={r.L1:g} seed={r.seed}: {status}")
    write_rows(rows, outdir / "results.csv")
    write_manifest(spec, outdir / "manifest.yaml")
    emit_plotdata(rows, outdir)
    failures = [r for r in rows if r.error]
    if not args.quiet:
        print(f"{len(rows)} cells, {len(failures)} failed -> {outdir}")
    return 1 if failures else 0


def _worker_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _cmd_selftest(args, spec: None) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest() else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fadeid",
        description="Parameter and differentiation-order estimation for a "
        "space fractional advection-dispersion model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser(
        "estimate",
        help="one estimation run",
        description="Run one estimation cell and print a result summary. "
        "Defaults: truth nu=0.2 d=1 alpha=1.8 L=9 T=1, three-param mode, "
        "N=3, b=3, L1=9, alpha0=1.4, noise 0, seed 0, grid spacing 1/1500.",
    )
    p_est.add_argument("--config", help="YAML experiment spec (optional)")
    p_est.add_argument("--noise", type=float, help="noise level fraction (default 0)")
    p_est.add_argument("--seed", type=int, help="noise seed (default 0)")
    p_est.add_argument("--n", type=int, help="number of modulating functions (default 3)")
    p_est.add_argument("--L1", type=float, help="integration interval length (default 9)")
    p_est.add_argument("--mode", choices=MODES, help="estimation mode (default three-param)")
    p_est.add_argument("--quiet", action="store_true", help="suppress the summary")
    p_est.set_defaults(func=_cmd_estimate, spec=_estimate_spec)

    p_sw = sub.add_parser(
        "sweep",
        help="full sweep from a YAML spec",
        description="Run every (noise, N, L1, seed) cell of the spec and write "
        "results.csv, manifest.yaml and per-figure plot CSVs to the output "
        "directory. Exit code is nonzero if any cell failed.",
    )
    p_sw.add_argument("--config", required=True, help="YAML experiment spec")
    p_sw.add_argument("--out", help="output directory (overrides spec)")
    p_sw.add_argument("--seed", type=int, default=0, help="offset added to every spec seed")
    p_sw.add_argument("--workers", type=_worker_count, default=None,
                      help="cap on the processes that fit cells, this one included (default: "
                      "the CPUs this process may run on); at most one per data set and per "
                      f"{_POOL_CELL_POINTS} cells x grid points")
    p_sw.add_argument("--quiet", action="store_true", help="suppress per-cell progress")
    p_sw.set_defaults(func=_cmd_sweep, spec=_sweep_spec)

    p_st = sub.add_parser(
        "selftest",
        help="fast invariant checks",
        description="Run the built-in invariant checks (integration-by-parts "
        "identity, integer-order consistency, gradient oracles, boundary "
        "conditions) and print one PASS/FAIL line each.",
    )
    p_st.set_defaults(func=_cmd_selftest, spec=None)

    args = parser.parse_args(argv)
    try:
        spec = args.spec(args) if args.spec else None
    except (ValueError, TypeError, OSError, yaml.YAMLError) as exc:
        # a bad, unknown or unreadable spec is a one-line usage error, like a bad flag
        print(f"fadeid {args.command}: error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2
    return args.func(args, spec)


if __name__ == "__main__":
    sys.exit(main())
