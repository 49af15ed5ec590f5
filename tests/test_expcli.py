import math
from itertools import product
from pathlib import Path

import pytest
import yaml

from fadeid import expcli
from fadeid.estimator import EstimatorConfig, estimate_two_param, newton_estimate
from fadeid.synthdata import synthesize
from fadeid.expcli import (
    ExperimentSpec,
    ResultRow,
    CSV_FIELDS,
    spec_from_dict,
    load_spec,
    run,
    write_rows,
    read_rows,
    write_manifest,
    emit_plotdata,
    main,
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
    ])
    def test_bad_grid_or_noise_rejected_at_load(self, data):
        with pytest.raises(ValueError):
            spec_from_dict(data)

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

    def test_each_data_set_synthesized_once(self, monkeypatch):
        calls = []
        synth = expcli.synthesize

        def counting_synthesize(truth, M, noise_level, seed):
            calls.append((noise_level, seed))
            return synth(truth, M, noise_level, seed)

        monkeypatch.setattr(expcli, "synthesize", counting_synthesize)
        spec = spec_from_dict({
            **FAST, "mode": "two-param", "noise_levels": [0.0, 0.02],
            "n_list": [3, 5, 7], "L1_list": [9.0, 5.0], "seeds": [0, 1],
        })
        rows = run(spec, workers=1)
        assert len(rows) == 24 and all(r.error == "" for r in rows)
        assert sorted(calls) == [(0.0, 0), (0.0, 1), (0.02, 0), (0.02, 1)]

    @pytest.mark.parametrize("mode", ["two-param", "three-param"])
    def test_rows_match_fresh_synthesis(self, mode):
        spec = spec_from_dict({
            **FAST, "mode": mode, "noise_levels": [0.0, 0.02], "n_list": [3, 5],
            "L1_list": [9.0, 5.0], "seeds": [0, 1],
        })
        for r in run(spec, workers=1):
            ms = synthesize(spec.truth, spec.grid_points, r.noise_level, r.seed)
            cfg = EstimatorConfig(L1=r.L1, N=r.n_funcs, alpha0=1.4)
            if mode == "two-param":
                nu, d, _ = estimate_two_param(ms, cfg, spec.truth.alpha)
                alpha = spec.truth.alpha
            else:
                res = newton_estimate(ms, cfg)
                nu, d, alpha = res.nu, res.d, res.alpha
            assert (r.est_nu, r.est_d, r.est_alpha) == (nu, d, alpha)

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

    def test_parallel_matches_serial(self):
        spec = spec_from_dict(
            {**FAST, "mode": "two-param", "seeds": [0, 1], "noise_levels": [0.0, 0.02]}
        )
        serial = run(spec, workers=1)
        parallel = run(spec, workers=4)
        assert serial == parallel  # dataclass equality, bit-exact floats

    def test_pool_capped_at_cell_count(self, monkeypatch):
        asked, tasks = [], []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                tasks.append([cells for _, _, cells in items])
                return map(fn, items)

        monkeypatch.setattr(expcli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(expcli, "_run_cell",
                            lambda spec, ms, idx, *cell: ResultRow(idx, *cell))
        # five one-cell data sets: one task each, and no more workers than tasks
        rows = run(spec_from_dict({**FAST, "seeds": [0, 1, 2, 3, 4]}), workers=64)
        assert asked == [5] and [len(t) for t in tasks[0]] == [1] * 5
        assert [r.cell_index for r in rows] == [0, 1, 2, 3, 4]
        # one five-cell data set on two workers: split into four interleaved tasks
        spec = spec_from_dict({**FAST, "n_list": [3, 4, 5, 6, 7]})
        rows = run(spec, workers=2)
        assert asked[1] == 2
        assert [[idx for idx, _, _ in t] for t in tasks[1]] == [[0, 4], [1], [2], [3]]
        assert [r.n_funcs for r in rows] == [3, 4, 5, 6, 7]

    def test_failure_recorded_not_raised(self, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(expcli, "newton_estimate", boom)
        spec = spec_from_dict(FAST)
        rows = run(spec, workers=1)
        assert rows[0].error == "RuntimeError: synthetic failure"
        assert not rows[0].converged
        assert math.isnan(rows[0].est_nu)

    def test_synthesis_failure_recorded_per_cell(self, monkeypatch):
        synth = expcli.synthesize

        def failing_synthesize(truth, M, noise_level, seed):
            if seed == 1:
                raise ValueError("synthetic failure")
            return synth(truth, M, noise_level, seed)

        monkeypatch.setattr(expcli, "synthesize", failing_synthesize)
        spec = spec_from_dict({**FAST, "mode": "two-param", "noise_levels": [0.02],
                               "n_list": [3, 5], "seeds": [1, 0]})
        rows = run(spec, workers=1)
        assert [r.error.startswith("ValueError") for r in rows] == [True, False, True, False]
        assert [r.converged for r in rows] == [False, True, False, True]


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

        monkeypatch.setattr(expcli, "estimate_two_param", boom)
        cfg = write_cfg(tmp_path, {**FAST, "mode": "two-param"})
        out = tmp_path / "res"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--workers", "1", "--quiet"])
        assert rc == 1
        assert read_rows(out / "results.csv")[0].error.startswith("RuntimeError")

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
    ], ids=["unknown-estimator-key", "unknown-top-level-key", "dx", "malformed", "missing",
            "top-level-list", "truth-not-mapping", "estimator-not-mapping", "seeds-not-list",
            "fractional-seed", "negative-seed", "fractional-N", "negative-L1",
            "L1-beyond-grid", "L1-below-node-2", "infinite-L", "nan-L", "nan-nu", "infinite-d",
            "nan-T"])
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

    def test_negative_shifted_seed_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**FAST, "seeds": [0, 3]})
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "res"),
                   "--seed", "-2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "fadeid sweep: error: seeds must be integers >= 0, got -2\n"
        assert not (tmp_path / "res").exists()

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
