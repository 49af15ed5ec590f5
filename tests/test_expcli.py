import csv
import math
import multiprocessing
import os
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from itertools import product
from pathlib import Path
from typing import get_type_hints

import pytest
import yaml

from fadeid import expcli, modfun
from fadeid.estimator import (
    EstimatorConfig,
    linearize,
    measurement_moments,
    newton_estimate,
    newton_fit,
)
from fadeid.modfun import DataMoments, build_family
from fadeid.synthdata import synthesize
from fadeid.expcli import (
    ExperimentSpec,
    ResultRow,
    CSV_FIELDS,
    spec_from_dict,
    load_spec,
    run,
    write_rows,
    write_manifest,
    emit_plotdata,
    main,
    _run_data_set,
)

# small grid + easy noise so CLI-level tests stay fast
FAST = {
    "truth": {"nu": 0.5, "d": 1.0, "alpha": 1.8, "L": 9.0, "T": 1.0},
    "estimator": {"M": 2701, "alpha0": 1.4},
    "mode": "three-param",
    "noise_levels": [0.0],
    "n_list": [3],
    "L1_list": [9.0],
    "seeds": [0],
}


def write_cfg(tmp_path, data, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data))
    return p


#: the seeds of each share of data sets _run_data_set_here ran in this process
_RAN_HERE = []
#: the directory in which a child marks each share or data set it starts
_CHILD_MARKS = None


def _seeds(tasks) -> list[int]:
    return [seed for (_, seed), _ in tasks]


def _run_data_set_here(spec, tasks):
    # a forked worker inherits expcli._run_data_set patched to this
    if multiprocessing.parent_process() is None:  # the calling process
        _RAN_HERE.append(_seeds(tasks))
    else:  # a child's list is its own copy: it leaves a mark named by the seeds
        (_CHILD_MARKS / " ".join(map(str, _seeds(tasks)))).touch()
    return _run_data_set(spec, tasks)


def _exits_in_child(spec, tasks):
    if multiprocessing.parent_process() is None:  # the calling process
        return _run_data_set(spec, tasks)
    os._exit(3)  # a worker that dies before it sends its rows


def _child_shares(marks) -> list[list[int]]:
    return sorted([int(seed) for seed in mark.name.split()] for mark in marks.iterdir())


def _interrupted_here(spec, tasks):
    if multiprocessing.parent_process() is None:  # the calling process
        raise KeyboardInterrupt
    for seed in _seeds(tasks):  # 2 s a share, far longer than run() takes to stop it
        (_CHILD_MARKS / str(seed)).touch()
        time.sleep(0.5)
    return _run_data_set(spec, tasks)


def read_rows(path) -> list[ResultRow]:
    types = get_type_hints(ResultRow)
    parse = {f: (lambda v: v == "True") if t is bool else t for f, t in types.items()}
    with open(path, newline="") as fh:
        return [
            ResultRow(**{f: parse[f](v) for f, v in rec.items()})
            for rec in csv.DictReader(fh)
        ]


class TestSpecConstruction:
    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.mode == "three-param"
        assert spec.grid_points == 9 * 1500 + 1

    def test_grid_points_override(self):
        spec = spec_from_dict({"estimator": {"M": 501}})
        assert spec.grid_points == 501

    def test_grid_given_twice_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            spec_from_dict({"grid_points": 1001, "estimator": {"M": 2001}})

    @pytest.mark.parametrize("key,sweep", [("N", "n_list"), ("L1", "L1_list")])
    def test_swept_estimator_keys_rejected(self, key, sweep):
        with pytest.raises(ValueError, match=sweep):
            spec_from_dict({"estimator": {key: 5}})

    @pytest.mark.parametrize("data", [
        {"grid_points": 2},
        {"grid_points": 2701.0},
        {"estimator": {"M": 2}},
        {"estimator": {"M": 2701.0}},
        {"noise_levels": [-0.1]},
        {"noise_levels": [0.0, float("nan")]},
        {"seeds": 3},
        {"seeds": [0.5]},
        {"seeds": [-1], "noise_levels": [0.02]},
        {"n_list": [3, 1.5]},
        {"n_list": [1]},
        {"L1_list": [-1.0]},
        {"estimator": {"b": 2.5}},
        {"estimator": {"M": 301}, "L1_list": [20.0]},  # beyond the last node
        {"estimator": {"M": 301}, "L1_list": [9.0, 0.04]},  # snaps to node 1
        {"estimator": {"M": 301}, "truth": {"L": math.inf}},
        {"estimator": {"M": 301}, "truth": {"L": math.nan}},
        {"estimator": {"M": 301}, "truth": {"nu": math.nan}},
        {"estimator": {"M": 301}, "truth": {"d": math.inf}},
        {"estimator": {"M": 301}, "truth": {"T": math.nan}},
        {"estimator": {"M": 301}, "truth": {"nu": 0.0}},
    ])
    def test_bad_grid_or_noise_rejected_at_load(self, data):
        with pytest.raises(ValueError):
            spec_from_dict(data)

    @pytest.mark.parametrize("data,match", [
        ({"seeds": [True, False]}, "seeds must be integers"),
        ({"seeds": [0, True]}, "seeds must be integers"),
        ({"noise_levels": [True]}, "noise levels must be finite"),
        ({"L1_list": [True]}, "L1 must be positive"),
        ({"n_list": [True]}, "N and b must be integers"),
        ({"estimator": {"M": 2701, "b": True}}, "N and b must be integers"),
        ({"truth": {"nu": True, "d": True, "L": 9.0}, "mode": "two-param"},
         "nu, d, L and T must be finite numbers"),
    ])
    def test_booleans_rejected(self, data, match):
        # bool is an int subclass: True would pass as seed 1, 100 % noise or L1 = 1
        with pytest.raises(ValueError, match=match):
            spec_from_dict({"estimator": {"M": 2701}, **data})

    def test_L1_snapping_to_last_node_loads(self):
        # 9.01 on a spacing of 0.03 rounds to node 300, the last of 301
        spec = spec_from_dict({**FAST, "estimator": {"M": 301}, "L1_list": [9.01]})
        (row,) = run(spec, workers=1)
        assert row.error == "" and row.converged

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            spec_from_dict({"mode": "four-param"})

    def test_empty_sweep_list(self):
        with pytest.raises(ValueError):
            spec_from_dict({"seeds": []})

    def test_load_yaml(self, tmp_path):
        spec = load_spec(write_cfg(tmp_path, FAST))
        assert spec.truth.nu == 0.5
        assert spec.grid_points == 2701

    def test_load_empty_yaml(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        spec = load_spec(p)
        assert spec.truth.nu == ExperimentSpec().truth.nu


class TestRun:
    def test_single_cell_three_param(self):
        spec = spec_from_dict(FAST)
        rows = run(spec, workers=1)
        assert len(rows) == 1
        r = rows[0]
        assert r.error == ""
        assert r.converged
        assert r.err_nu <= 1e-2 and r.err_d <= 1e-2 and r.err_alpha <= 1e-2
        assert r.err_combined == pytest.approx(
            math.sqrt((r.err_nu**2 + r.err_d**2 + r.err_alpha**2) / 3)
        )

    def test_two_param_mode(self):
        spec = spec_from_dict({**FAST, "mode": "two-param"})
        rows = run(spec, workers=1)
        r = rows[0]
        assert r.est_alpha == spec.truth.alpha
        assert r.iterations == 0
        assert r.err_combined == pytest.approx(
            math.sqrt((r.err_nu**2 + r.err_d**2) / 2)
        )

    def test_cell_ordering_matches_product(self):
        lists = {"noise_levels": [0.0, 0.01], "n_list": [3, 5], "L1_list": [9.0, 5.0],
                 "seeds": [0, 1]}
        spec = spec_from_dict({**FAST, **lists, "mode": "two-param"})
        rows = run(spec, workers=1)
        # rows come back in noise x N x L1 x seed product order
        assert [r.cell_index for r in rows] == list(range(16))
        assert [(r.noise_level, r.n_funcs, r.L1, r.seed) for r in rows] == list(
            product(*lists.values())
        )
        assert all(r.error == "" for r in rows)

    def test_each_data_set_synthesized_once(self, monkeypatch, tmp_path):
        # one noise-free synthesis per process, then one add_noise per data set;
        # each call appends a line to a file, so the children's calls count too
        synth, noise = expcli.synthesize, expcli.add_noise

        def counting_synthesize(*args):
            with open(tmp_path / "synthesized", "a") as fh:
                print(os.getpid(), file=fh)
            return synth(*args)

        def counting_add_noise(clean, level, seed):
            with open(tmp_path / "noised", "a") as fh:
                print(level, seed, file=fh)
            return noise(clean, level, seed)

        monkeypatch.setattr(expcli, "synthesize", counting_synthesize)
        monkeypatch.setattr(expcli, "add_noise", counting_add_noise)
        monkeypatch.setattr(expcli, "_POOL_CELL_POINTS", 1)
        spec = spec_from_dict({
            **FAST, "mode": "two-param", "noise_levels": [0.0, 0.02],
            "n_list": [3, 5, 7], "L1_list": [9.0, 5.0], "seeds": [0, 1],
        })
        for workers in (1, 2):
            for name in ("synthesized", "noised"):
                (tmp_path / name).unlink(missing_ok=True)
            rows = run(spec, workers=workers)
            assert len(rows) == 24 and all(r.error == "" for r in rows)
            pids = (tmp_path / "synthesized").read_text().split()
            assert len(pids) == len(set(pids)) == workers
            assert sorted((tmp_path / "noised").read_text().splitlines()) == [
                "0.0 0", "0.0 1", "0.02 0", "0.02 1"]

    def test_one_basis_per_L1(self, monkeypatch):
        # 4 data sets x 2 L1: 8 blocks on 2 grid bases, each built once
        bases, blocks = [], []

        class CountingBasis(modfun.GridBasis):
            def __init__(self, *args):
                bases.append(self)
                super().__init__(*args)

        class CountingBlock(modfun.DataMoments):
            def __init__(self, *args):
                blocks.append(self)
                super().__init__(*args)

        monkeypatch.setattr(expcli, "GridBasis", CountingBasis)
        monkeypatch.setattr(expcli, "DataMoments", CountingBlock)
        spec = spec_from_dict({**FAST, "mode": "two-param", "noise_levels": [0.0, 0.02],
                               "n_list": [3, 5], "L1_list": [9.0, 5.0], "seeds": [0, 1]})
        rows = run(spec, workers=1)
        assert all(r.converged and not r.error for r in rows)
        assert len(bases) == 2 and len(blocks) == 8
        assert [block.basis for block in blocks] == bases * 4
        assert [(b.fam.n_funcs, b.L1) for b in bases] == [(5, 9.0), (5, 5.0)]

    def test_each_family_built_once_per_process(self):
        # 20 values of N, more than a cache of 16 families holds across data sets
        build_family.cache_clear()
        spec = spec_from_dict({**FAST, "mode": "two-param", "n_list": list(range(3, 23)),
                               "seeds": [0, 1, 2]})
        rows = run(spec, workers=1)
        assert len(rows) == 60 and all(r.converged and not r.error for r in rows)
        assert build_family.cache_info().misses == 20

    @pytest.mark.parametrize("mode", ["two-param", "three-param"])
    def test_rows_match_fresh_synthesis(self, mode):
        spec = spec_from_dict({
            **FAST, "mode": mode, "noise_levels": [0.0, 0.02], "n_list": [3, 5],
            "L1_list": [9.0, 5.0], "seeds": [0, 1],
        })
        for r in run(spec, workers=1):
            # the same path as the sweep: the largest N's block, lifted to the cell's
            ms = synthesize(spec.truth, spec.grid_points, r.noise_level, r.seed)
            cfg = EstimatorConfig(L1=r.L1, N=r.n_funcs, alpha0=1.4)
            block = measurement_moments(ms, replace(cfg, N=max(spec.n_list)))
            mom = block.lift(build_family(r.n_funcs, cfg.b))
            if mode == "two-param":
                lin = linearize(mom, spec.truth.alpha)
                nu, d, alpha = lin.nu, lin.d, spec.truth.alpha
            else:
                res = newton_fit(mom, cfg.alpha0)
                nu, d, alpha = res.nu, res.d, res.alpha
            assert (r.est_nu, r.est_d, r.est_alpha) == (nu, d, alpha)

    @pytest.mark.parametrize("mode,error", [
        ("three-param", "ValueError: a three-parameter fit needs N >= 3, got N=2"),
        ("two-param", ""),
    ])
    def test_two_row_cell(self, mode, error):
        spec = spec_from_dict({**FAST, "mode": mode, "n_list": [2, 3]})
        two, three = run(spec, workers=1)
        assert (two.error, three.error) == (error, "")
        assert two.converged == (error == "") and three.converged

    @pytest.mark.parametrize("L1", [9.0, 5.0])
    def test_lifted_cells_match_single_fits(self, L1):
        # Table-1 grid and noise: each cell fits the N = 11 block lifted to
        # its N; a lone fit builds that N's own block
        spec = spec_from_dict({**FAST, "estimator": {"M": 31501, "alpha0": 1.4},
                               "noise_levels": [0.0, 0.02], "n_list": [3, 5, 7, 9, 11],
                               "L1_list": [L1], "seeds": [0, 1]})
        for r in run(spec, workers=1):
            ms = synthesize(spec.truth, spec.grid_points, r.noise_level, r.seed)
            res = newton_estimate(ms, EstimatorConfig(L1=L1, N=r.n_funcs, alpha0=1.4))
            got, want = (r.est_nu, r.est_d, r.est_alpha), (res.nu, res.d, res.alpha)
            if r.n_funcs == 11:  # the block's own family: nothing is lifted
                assert got == want
            assert got == pytest.approx(want, rel=1e-10, abs=0)
            assert (r.iterations, r.converged) == (len(res.iterations), res.converged)

    def test_lifted_fit_keeps_iterations_and_message(self):
        ms = synthesize(spec_from_dict(FAST).truth, 31501, 0.02, 3)
        block = measurement_moments(ms, EstimatorConfig(N=11))
        for n in (3, 5, 7, 9):
            cfg = EstimatorConfig(N=n, alpha0=1.4)
            lifted = newton_fit(block.lift(build_family(n, 3)), cfg.alpha0)
            lone = newton_estimate(ms, cfg)
            assert (lifted.nu, lifted.d, lifted.alpha) == pytest.approx(
                (lone.nu, lone.d, lone.alpha), rel=1e-10, abs=0)
            assert len(lifted.iterations) == len(lone.iterations)
            assert (lifted.message, lifted.converged) == (lone.message, lone.converged)

    def test_one_block_and_one_contraction_per_alpha(self, monkeypatch):
        blocks, evaluated, contracted = [], [], []
        grid = DataMoments._grid_moments

        def counting_block(ms, basis):
            blocks.append((basis.fam.n_funcs, basis.L1))
            return DataMoments(ms, basis)

        def counting_grid(self, alpha):
            evaluated.append(alpha)
            if alpha not in self._memo:
                contracted.append(alpha)
            return grid(self, alpha)

        monkeypatch.setattr(expcli, "DataMoments", counting_block)
        monkeypatch.setattr(DataMoments, "_grid_moments", counting_grid)
        spec = spec_from_dict({**FAST, "noise_levels": [0.02], "n_list": [3, 5, 7, 9, 11]})
        rows = run(spec, workers=1)
        assert all(r.converged for r in rows)
        assert blocks == [(11, 9.0)]
        assert len(evaluated) == sum(r.iterations for r in rows)  # one per iterate
        assert sorted(contracted) == sorted(set(evaluated))  # each alpha once
        assert len(contracted) < len(evaluated)

    def test_block_failure_recorded_per_cell_at_its_L1(self, monkeypatch):
        def failing_block(ms, basis):
            if basis.L1 == 5.0:
                raise ValueError("synthetic failure")
            return DataMoments(ms, basis)

        monkeypatch.setattr(expcli, "DataMoments", failing_block)
        spec = spec_from_dict({**FAST, "mode": "two-param", "n_list": [3, 5],
                               "L1_list": [9.0, 5.0]})
        rows = run(spec, workers=1)
        assert [(r.L1, r.error) for r in rows] == [
            (9.0, ""), (5.0, "ValueError: synthetic failure")] * 2

    def test_one_block_alive_at_a_time(self, monkeypatch):
        # a weak reference to each block and to the weights its lifted views
        # share: none is reachable once the next block or data set is made
        refs, alive = [], []
        noise = expcli.add_noise

        def checking_add_noise(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return noise(*args)

        def checking_block(ms, basis):
            alive.append(sum(ref() is not None for ref in refs))
            block = DataMoments(ms, basis)
            refs.extend([weakref.ref(block), weakref.ref(block.w)])
            return block

        monkeypatch.setattr(expcli, "add_noise", checking_add_noise)
        monkeypatch.setattr(expcli, "DataMoments", checking_block)
        spec = spec_from_dict({**FAST, "noise_levels": [0.0, 0.02], "n_list": [3, 5],
                               "L1_list": [9.0, 5.0], "seeds": [0, 1]})
        rows = run(spec, workers=1)
        assert all(r.converged and not r.error for r in rows)
        assert len(refs) == 2 * 8 and alive == [0] * (4 + 8)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            run(spec_from_dict(FAST), workers=workers)
        cfg = write_cfg(tmp_path, FAST)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "res"),
                  "--workers", str(workers), "--quiet"])
        assert exc.value.code == 2
        assert not (tmp_path / "res").exists()

    def test_parallel_matches_serial(self, monkeypatch):
        started = []
        process = expcli.Process

        def counted_run(spec, workers):  # the rows, and the processes run() started
            started.clear()
            rows = run(spec, workers)
            return rows, len(started)

        def recording_process(**kwargs):
            started.append(kwargs["args"][2])
            return process(**kwargs)

        # real worker processes, one per data set, however little work a cell is
        monkeypatch.setattr(expcli, "Process", recording_process)
        monkeypatch.setattr(expcli, "_POOL_CELL_POINTS", 1)
        spec = spec_from_dict(
            {**FAST, "mode": "two-param", "seeds": [0, 1], "noise_levels": [0.0, 0.02]}
        )
        serial = run(spec, workers=1)
        for workers in (2, 4):
            # dataclass equality, bit-exact floats; the calling process is
            # one of the workers and starts the rest
            assert counted_run(spec, workers) == (serial, workers - 1)
        # three-param at the Table-1 grid, where the moment products are large
        # enough for OpenBLAS to thread: a worker's rows are still the same floats
        spec = spec_from_dict({**FAST, "estimator": {"M": 31501, "alpha0": 1.4}, "seeds": [0, 1],
                               "noise_levels": [0.0, 0.02], "n_list": [3, 7]})
        serial = run(spec, workers=1)
        assert all(r.converged and not r.error for r in serial)
        for workers in (2, 4):
            assert counted_run(spec, workers) == (serial, workers - 1)

    def test_child_that_exits_without_rows_raises(self, monkeypatch, tmp_path):
        # the conftest fixture checks that no worker outlives run()
        monkeypatch.setattr(expcli, "_run_data_set", _exits_in_child)
        monkeypatch.setattr(expcli, "_POOL_CELL_POINTS", 1)
        spec = spec_from_dict({**FAST, "mode": "two-param", "seeds": list(range(4))})
        for workers in (2, 4):
            with pytest.raises(RuntimeError, match="exited with code 3 before sending its rows"):
                run(spec, workers)

    def test_calling_process_works_and_reaps_its_workers(self, monkeypatch, tmp_path):
        # each started process runs one other stride; the conftest fixture
        # checks that no worker outlives run()
        monkeypatch.setattr(expcli, "_run_data_set", _run_data_set_here)
        monkeypatch.setattr(expcli, "_POOL_CELL_POINTS", 1)
        monkeypatch.setitem(globals(), "_RAN_HERE", [])
        spec = spec_from_dict({**FAST, "mode": "two-param", "seeds": list(range(8))})
        serial = run(spec, workers=1)
        for workers in (2, 4):
            marks = tmp_path / str(workers)
            marks.mkdir()
            monkeypatch.setitem(globals(), "_CHILD_MARKS", marks)  # read after the fork
            assert run(spec, workers) == serial
            assert _child_shares(marks) == [list(range(k, 8, workers)) for k in range(1, workers)]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_calling_process_runs_every_wth_data_set(self, monkeypatch, tmp_path, workers):
        monkeypatch.setattr(expcli, "_run_data_set", _run_data_set_here)
        monkeypatch.setattr(expcli, "_POOL_CELL_POINTS", 1)
        monkeypatch.setitem(globals(), "_CHILD_MARKS", tmp_path)
        ran = []
        monkeypatch.setitem(globals(), "_RAN_HERE", ran)
        spec = spec_from_dict({**FAST, "mode": "two-param", "seeds": list(range(8))})
        serial = run(spec, workers=1)
        assert ran == [list(range(8))]
        ran.clear()
        assert run(spec, workers) == serial
        # data sets 0, W, 2W, ... and nothing else, in one share
        assert ran == [list(range(0, 8, workers))]

    def test_interrupt_cancels_tasks_not_started(self, monkeypatch, tmp_path):
        monkeypatch.setattr(expcli, "_run_data_set", _interrupted_here)
        monkeypatch.setattr(expcli, "_POOL_CELL_POINTS", 1)
        monkeypatch.setitem(globals(), "_CHILD_MARKS", tmp_path)  # read after the fork
        spec = spec_from_dict({**FAST, "mode": "two-param", "seeds": list(range(8))})
        with pytest.raises(KeyboardInterrupt):
            run(spec, workers=2)
        # the child was stopped inside its share of data sets 1, 3, 5 and 7
        started = sorted(int(mark.name) for mark in tmp_path.iterdir())
        assert started == [1, 3, 5, 7][:len(started)] and len(started) < 4

    def test_workers_sized_by_cell_points(self, monkeypatch):
        started, noised = [], []

        class SerialProcess:  # starts no process: its share runs when started
            def __init__(self, target, args, daemon):
                started.append(args[2])
                self.target, self.args = target, args

            def start(self):
                self.target(*self.args)

            def is_alive(self):
                return False

            def join(self):
                pass

        monkeypatch.setattr(expcli, "Process", SerialProcess)
        monkeypatch.setattr(expcli, "synthesize", lambda *a: None)
        # a stand-in data set, not None: a data set still None is noised again at its next L1
        monkeypatch.setattr(expcli, "add_noise", lambda clean, *a: noised.append(a) or a)
        monkeypatch.setattr(expcli, "_run_cell", lambda spec, block, row: row)

        def sweep(M, n_sets, n_list=(3, 5, 7, 9, 11), L1_list=(9.0,), workers=64):
            started.clear()
            noised.clear()
            lists = {"noise_levels": [0.02], "n_list": list(n_list), "L1_list": list(L1_list),
                     "seeds": list(range(n_sets))}
            rows = run(spec_from_dict({**FAST, "estimator": {"M": M}, **lists}), workers)
            assert sorted(noised) == [(0.02, seed) for seed in range(n_sets)]  # once each
            assert [(r.noise_level, r.n_funcs, r.L1, r.seed) for r in rows] == list(
                product(*lists.values())
            )
            assert [r.cell_index for r in rows] == list(range(len(rows)))
            return len(started)

        # Table-1 data sets (5 cells at M = 31501): one worker per two of them,
        # the calling process and a started process for each of the rest
        for n_sets, children in [(1, 0), (3, 0), (4, 1), (5, 1), (8, 3)]:
            assert sweep(31501, n_sets) == children
        # the table1-sweep shape on 2 workers: 8 tasks of 5 cells, the odd
        # ones run by the one started process
        assert sweep(31501, 8, workers=2) == 1
        # each task holds its data set's cells grouped by L1, as [(idx, n)]
        assert [[(seed, {L1: len(cells) for L1, cells in by_L1.items()})
                 for (_, seed), by_L1 in share] for share in started] == [
            [(1, {9.0: 5}), (3, {9.0: 5}), (5, {9.0: 5}), (7, {9.0: 5})]
        ]
        assert sweep(31501, 8, workers=1) == 0
        # the work counts, not the data sets: one worker for 8 data sets of a
        # smaller grid or of one cell each, two workers for 2 data sets of 30
        assert sweep(4501, 8) == 0
        assert sweep(31501, 8, n_list=[3]) == 0
        assert sweep(31501, 2, n_list=range(3, 22, 2), L1_list=[9.0, 7.0, 5.0]) == 1
        # a sweep too small for two workers does not ask how many CPUs there are
        monkeypatch.delattr(expcli.os, "sched_getaffinity")
        assert sweep(31501, 1, workers=None) == 0
        # without an affinity call (macOS, Windows) the default is os.cpu_count()
        for cpus in (3, 64):
            monkeypatch.setattr(expcli.os, "cpu_count", lambda: cpus)
            assert sweep(31501, 8, workers=None) == min(os.cpu_count(), 4) - 1

    def test_failure_recorded_not_raised(self, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(expcli, "newton_fit", boom)
        spec = spec_from_dict(FAST)
        rows = run(spec, workers=1)
        assert rows[0].error == "RuntimeError: synthetic failure"
        assert not rows[0].converged
        assert math.isnan(rows[0].est_nu)

    def test_synthesis_failure_recorded_per_cell(self, monkeypatch):
        noise, tried = expcli.add_noise, []

        def failing_add_noise(clean, level, seed):
            tried.append(seed)
            if seed == 1:
                raise ValueError("synthetic failure")
            return noise(clean, level, seed)

        monkeypatch.setattr(expcli, "add_noise", failing_add_noise)
        spec = spec_from_dict({**FAST, "mode": "two-param", "noise_levels": [0.02],
                               "n_list": [3, 5], "L1_list": [9.0, 5.0], "seeds": [1, 0]})
        rows = run(spec, workers=1)
        # the failed data set is tried again at its next L1 and fails the same way
        assert tried == [1, 1, 0]
        assert [r.error for r in rows] == ["ValueError: synthetic failure", ""] * 4
        assert [r.converged for r in rows] == [False, True] * 4

    def test_clean_synthesis_failure_recorded_per_cell(self, monkeypatch):
        def failing_synthesize(*args):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(expcli, "synthesize", failing_synthesize)
        spec = spec_from_dict({**FAST, "mode": "two-param", "n_list": [3, 5], "seeds": [1, 0]})
        rows = run(spec, workers=1)
        assert [r.error for r in rows] == ["ValueError: synthetic failure"] * 4


class TestRowsCsv:
    def test_round_trip(self, tmp_path):
        spec = spec_from_dict({**FAST, "mode": "two-param", "seeds": [0, 1]})
        rows = run(spec, workers=1)
        path = tmp_path / "results.csv"
        write_rows(rows, path)
        assert read_rows(path) == rows

    def test_header(self, tmp_path):
        path = tmp_path / "results.csv"
        write_rows([], path)
        assert path.read_text().splitlines() == [",".join(CSV_FIELDS)]

    def test_determinism_byte_identical(self, tmp_path):
        spec = spec_from_dict({**FAST, "noise_levels": [0.03], "seeds": [5]})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(run(spec, workers=1), a)
        write_rows(run(spec, workers=1), b)
        assert a.read_bytes() == b.read_bytes()


class TestWrittenBytes:
    """The exact bytes of results.csv and the figure tables: CRLF line ends,
    17 significant digits, nan, True/False, quoting and the noise labels."""

    ROWS = [
        ResultRow(0, 0.02, 3, 9.0, 5, est_nu=0.1 + 0.2, est_d=1 / 3, est_alpha=1.8,
                  err_nu=0.4 / 3, err_d=2 / 3 - 0.5, err_alpha=0.1,
                  err_combined=math.sqrt(2) / 10, iterations=4, converged=True),
        ResultRow(1, 0.0, 5, 5.0, 6, error="RankDeficientError: system numerically "
                  "rank-deficient (singular values 1.000e+00, 1.000e-13)"),
    ]

    def test_results_csv(self, tmp_path):
        write_rows(self.ROWS, tmp_path / "results.csv")
        assert (tmp_path / "results.csv").read_bytes() == (
            b"cell_index,noise_level,n_funcs,L1,seed,est_nu,est_d,est_alpha,err_nu,err_d,"
            b"err_alpha,err_combined,iterations,converged,error\r\n"
            b"0,0.02,3,9,5,0.30000000000000004,0.33333333333333331,1.8,0.13333333333333333,"
            b"0.16666666666666663,0.10000000000000001,0.1414213562373095,4,True,\r\n"
            b"1,0,5,5,6,nan,nan,nan,nan,nan,nan,nan,0,False,\"RankDeficientError: system "
            b"numerically rank-deficient (singular values 1.000e+00, 1.000e-13)\"\r\n"
        )

    def test_plotdata(self, tmp_path):
        errors = (b"err_nu,0.13333333333333333\r\n", b"err_d,0.16666666666666663\r\n",
                  b"err_alpha,0.10000000000000001\r\n")
        expected = {  # the failed cell is skipped
            "fig_interval_length.csv": b"".join(b"9," + e for e in errors),
            "fig_noise_levels.csv": b"".join(b"0.02," + e for e in errors),
            "fig_modfun_count_err_d.csv": b"3,noise=0.02,0.16666666666666663\r\n",
            "fig_modfun_count_err_nu.csv": b"3,noise=0.02,0.13333333333333333\r\n",
        }
        written = emit_plotdata(self.ROWS, tmp_path)
        assert {p.name: p.read_bytes() for p in written} == {
            name: b"x,series,value\r\n" + body for name, body in expected.items()
        }


class TestManifestAndPlotdata:
    def test_manifest_contents(self, tmp_path):
        spec = spec_from_dict(FAST)
        path = tmp_path / "manifest.yaml"
        write_manifest(spec, path)
        data = yaml.safe_load(path.read_text())
        assert data["truth"]["alpha"] == 1.8
        assert data["grid_points"] == 2701
        assert data["mode"] == "three-param"
        assert "fadeid_version" in data

    def test_manifest_bytes_same_with_either_dumper(self, tmp_path, monkeypatch):
        if not yaml.__with_libyaml__:
            pytest.skip("PyYAML was built without libyaml")
        spec = spec_from_dict({**FAST, "noise_levels": [0.0, 0.02, 1e-7], "n_list": [5, 7],
                               "L1_list": [9.0, 0.05], "seeds": [3, 4],
                               "output_dir": "out dir/ü: 'x'"})
        written = []
        for dumper in (yaml.SafeDumper, yaml.CSafeDumper):
            monkeypatch.setattr(expcli, "_YAML_DUMPER", dumper)
            write_manifest(spec, tmp_path / "manifest.yaml")
            written.append((tmp_path / "manifest.yaml").read_bytes())
        assert written[0] == written[1]
        assert load_spec(tmp_path / "manifest.yaml") == spec

    def test_manifest_loads_back(self, tmp_path):
        spec = spec_from_dict({**FAST, "noise_levels": [0.0, 0.02], "n_list": [5, 7],
                               "L1_list": [9.0, 5.0], "seeds": [3, 4]})
        path = tmp_path / "manifest.yaml"
        write_manifest(spec, path)
        assert load_spec(path) == spec

    def test_sweep_reruns_from_its_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, {**FAST, "mode": "two-param", "noise_levels": [0.02],
                                   "n_list": [3, 5], "seeds": [0, 1]})
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["sweep", "--config", str(cfg), "--out", str(first),
                     "--seed", "11", "--quiet"]) == 0
        assert main(["sweep", "--config", str(first / "manifest.yaml"),
                     "--out", str(second), "--quiet"]) == 0
        results = (first / "results.csv").read_bytes()
        assert (second / "results.csv").read_bytes() == results

    def test_plotdata_files(self, tmp_path):
        rows = [
            ResultRow(0, 0.0, 3, 9.0, 0, err_nu=0.1, err_d=0.2, err_alpha=0.3),
            ResultRow(1, 0.01, 5, 5.0, 0, err_nu=0.4, err_d=0.5, err_alpha=0.6),
            ResultRow(2, 0.01, 5, 5.0, 1, error="RankDeficientError: x"),
        ]
        written = emit_plotdata(rows, tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "fig_interval_length.csv",
            "fig_modfun_count_err_d.csv",
            "fig_modfun_count_err_nu.csv",
            "fig_noise_levels.csv",
        ]
        body = (tmp_path / "fig_modfun_count_err_d.csv").read_text().splitlines()
        assert body[0] == "x,series,value"
        # the failed cell is skipped: 2 ok rows -> 2 records
        assert len(body) == 3
        assert body[1].startswith("3,noise=0,")

    def test_plotdata_empty_rows_headers_only(self, tmp_path):
        for p in emit_plotdata([], tmp_path):
            assert p.read_text().splitlines() == ["x,series,value"]


class TestMain:
    def test_estimate_smoke(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST)
        rc = main(["estimate", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "nu" in out and "converged True" in out

    def test_estimate_quiet(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST)
        rc = main(["estimate", "--config", str(cfg), "--quiet"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_estimate_overrides(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST)
        rc = main([
            "estimate", "--config", str(cfg),
            "--mode", "two-param", "--noise", "0.01", "--seed", "7", "--n", "4",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mode          two-param" in out
        assert "N=4" in out
        assert "seed 7" in out

    def test_sweep_writes_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, {**FAST, "mode": "two-param"})
        out = tmp_path / "res"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert rc == 0
        for name in (
            "results.csv",
            "manifest.yaml",
            "fig_interval_length.csv",
            "fig_noise_levels.csv",
            "fig_modfun_count_err_d.csv",
            "fig_modfun_count_err_nu.csv",
        ):
            assert (out / name).exists()
        assert len(read_rows(out / "results.csv")) == 1

    def test_sweep_seed_offset(self, tmp_path):
        cfg = write_cfg(tmp_path, {**FAST, "mode": "two-param", "noise_levels": [0.02]})
        out = tmp_path / "res"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--seed", "11", "--quiet"])
        assert rc == 0
        rows = read_rows(out / "results.csv")
        assert rows[0].seed == 11

    def test_sweep_failure_exit_code(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(expcli, "linearize", boom)
        cfg = write_cfg(tmp_path, {**FAST, "mode": "two-param"})
        out = tmp_path / "res"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--workers", "1", "--quiet"])
        assert rc == 1
        assert read_rows(out / "results.csv")[0].error.startswith("RuntimeError")

    def test_estimate_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(expcli, "newton_fit", boom)
        rc = main(["estimate", "--config", str(write_cfg(tmp_path, FAST))])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "estimation failed: RuntimeError: synthetic failure\n"

    def test_sweep_progress_and_summary(self, tmp_path, monkeypatch, capsys):
        fit = expcli.newton_fit

        def fit_by_rows(mom, alpha0):  # N = 3 fits, N = 4 does not converge, N = 5 fails
            if len(mom.C) == 5:
                raise RuntimeError("synthetic failure")
            res = fit(mom, alpha0)
            return res._replace(converged=False) if len(mom.C) == 4 else res

        monkeypatch.setattr(expcli, "newton_fit", fit_by_rows)
        cfg = write_cfg(tmp_path, {**FAST, "n_list": [3, 4, 5]})
        out = tmp_path / "res"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"])
        assert rc == 1
        assert capsys.readouterr().out.splitlines() == [
            "cell    0 noise=0 N=3 L1=9 seed=0: ok",
            "cell    1 noise=0 N=4 L1=9 seed=0: not converged",
            "cell    2 noise=0 N=5 L1=9 seed=0: RuntimeError: synthetic failure",
            f"3 cells, 1 failed -> {out}",
        ]

    def test_bad_estimate_spec_is_usage_error(self, capsys):
        rc = main(["estimate", "--noise", "-0.1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "fadeid estimate: error: noise levels must be finite and >= 0, got -0.1\n"

    def test_estimate_L1_beyond_grid_is_usage_error(self, capsys):
        rc = main(["estimate", "--L1", "20"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "fadeid estimate: error: L1=20.0 does not leave a usable sub-grid\n"

    def test_bad_sweep_spec_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**FAST, "estimator": {"M": 2}})
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "res")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("fadeid sweep: error: grid_points") and err.count("\n") == 1
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("command", ["estimate", "sweep"])
    @pytest.mark.parametrize("text,key", [
        ("estimator: {foo: 2}\n", "foo"),
        ("nonsense: 3\n", "nonsense"),
        ("estimator: {dx: 0.01}\n", "dx"),
        ("estimator: {M: 2701\nmode: [\n", None),
        (None, None),  # no such file
        ("- 1\n- 2\n", "spec"),
        ("truth: 3\n", "truth"),
        ("estimator: 3\n", "estimator"),
        ("seeds: 3\n", "seeds"),
        ("seeds: [0.5]\n", "seeds"),
        ("seeds: [-1]\nnoise_levels: [0.02]\n", "seeds"),
        ("n_list: [3, 1.5]\n", "N"),
        ("L1_list: [-1.0]\n", "L1"),
        ("estimator: {M: 301}\nL1_list: [20.0]\n", "L1=20.0 does not leave a usable sub-grid"),
        ("estimator: {M: 301}\nL1_list: [0.04]\n", "L1=0.04 does not leave a usable sub-grid"),
        ("estimator: {M: 301}\ntruth: {L: .inf}\n", "must be finite"),
        ("estimator: {M: 301}\ntruth: {L: .nan}\n", "must be finite"),
        ("estimator: {M: 301}\ntruth: {nu: .nan}\n", "must be finite"),
        ("estimator: {M: 301}\ntruth: {d: .inf}\n", "must be finite"),
        ("estimator: {M: 301}\ntruth: {T: .nan}\n", "must be finite"),
        ("estimator: {M: 301}\ntruth: {nu: 0.0}\n", "relative to nu"),
        ("estimator: {M: 301, max_iter: 2.5}\n", "max_iter"),
        ("noise_levels: [1" + "0" * 400 + "]\n", "noise levels"),
        ("output_dir: 5\n", "output_dir"),
        ("output_dir: null\n", "output_dir"),
        ("output_dir: [a, b]\n", "output_dir"),
    ], ids=["unknown-estimator-key", "unknown-top-level-key", "dx", "malformed", "missing",
            "top-level-list", "truth-not-mapping", "estimator-not-mapping", "seeds-not-list",
            "fractional-seed", "negative-seed", "fractional-N", "negative-L1",
            "L1-beyond-grid", "L1-below-node-2", "infinite-L", "nan-L", "nan-nu", "infinite-d",
            "nan-T", "zero-nu", "fractional-max-iter", "huge-int-noise", "output-dir-number", "output-dir-null",
            "output-dir-list"])
    def test_unusable_spec_file_is_usage_error(self, command, text, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        if text is not None:
            cfg.write_text(text)
        argv = [command, "--config", str(cfg)]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "res")]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"fadeid {command}: error: ")
        assert captured.err.count("\n") == 1
        if key is not None:
            assert key in captured.err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("loader", [yaml.SafeLoader, getattr(yaml, "CSafeLoader", None)],
                             ids=["python", "libyaml"])
    @pytest.mark.parametrize("text", ["estimator: {M: 2701\nmode: [\n", "\tseeds: [0]\n"])
    def test_malformed_spec_is_usage_error_with_either_loader(self, loader, text, tmp_path,
                                                              monkeypatch, capsys):
        if loader is None:
            pytest.skip("PyYAML was built without libyaml")
        monkeypatch.setattr(expcli, "_YAML_LOADER", loader)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "res")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("fadeid sweep: error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "res").exists()

    def test_negative_shifted_seed_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**FAST, "seeds": [0, 3]})
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "res"),
                   "--seed", "-2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "fadeid sweep: error: seeds must be integers >= 0, got -2\n"
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("argv,code,err", [
        (["estimate", "--quiet"], 0, ""),
        (["sweep"], 2, "the following arguments are required: --config"),
    ])
    def test_module_entry_point(self, argv, code, err, tmp_path):
        # python -m fadeid.expcli exits with main()'s return code
        src = str(Path(expcli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "fadeid.expcli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code
        assert done.stdout == "" and err in done.stderr
        assert list(tmp_path.iterdir()) == []

    def test_selftest_smoke(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out
        for name in ("integer-order consistency", "fractional integration by parts",
                     "order-sensitivity vs finite differences",
                     "K-U equals least-squares residual",
                     "analytic gradient vs finite differences",
                     "modulating boundary conditions"):
            assert f"PASS  {name}: " in out
