import math
from pathlib import Path

import pytest
import yaml

from fadeid import expcli
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

    def test_dx_alias(self):
        spec = spec_from_dict({"truth": {"L": 9.0}, "estimator": {"dx": 0.01}})
        assert spec.grid_points == 901

    def test_grid_given_twice_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            spec_from_dict({"estimator": {"M": 100, "dx": 0.1}})
        for est in ({"M": 2001}, {"dx": 0.5}):
            with pytest.raises(ValueError, match="not both"):
                spec_from_dict({"grid_points": 1001, "estimator": est})

    @pytest.mark.parametrize("key,sweep", [("N", "n_list"), ("L1", "L1_list")])
    def test_swept_estimator_keys_rejected(self, key, sweep):
        with pytest.raises(ValueError, match=sweep):
            spec_from_dict({"estimator": {key: 5}})

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
        rows = run(spec, workers=1, quiet=True)
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
        rows = run(spec, workers=1, quiet=True)
        r = rows[0]
        assert r.est_alpha == spec.truth.alpha
        assert r.iterations == 0
        assert r.err_combined == pytest.approx(
            math.sqrt((r.err_nu**2 + r.err_d**2) / 2)
        )

    def test_cell_ordering_matches_product(self):
        spec = spec_from_dict(
            {**FAST, "noise_levels": [0.0, 0.01], "seeds": [0, 1], "mode": "two-param"}
        )
        rows = run(spec, workers=1, quiet=True)
        assert [r.cell_index for r in rows] == [0, 1, 2, 3]
        assert [(r.noise_level, r.seed) for r in rows] == [
            (0.0, 0), (0.0, 1), (0.01, 0), (0.01, 1),
        ]

    def test_parallel_matches_serial(self):
        spec = spec_from_dict(
            {**FAST, "mode": "two-param", "seeds": [0, 1], "noise_levels": [0.0, 0.02]}
        )
        serial = run(spec, workers=1, quiet=True)
        parallel = run(spec, workers=4, quiet=True)
        assert serial == parallel  # dataclass equality, bit-exact floats

    def test_pool_capped_at_cell_count(self, monkeypatch):
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells, chunksize=1):
                return map(fn, cells)

        monkeypatch.setattr(expcli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(expcli, "_run_cell", lambda cell: ResultRow(cell[1], 0.0, 3, 9.0, 0))
        spec = spec_from_dict({**FAST, "seeds": [0, 1, 2, 3, 4]})
        rows = run(spec, workers=64, quiet=True)
        assert asked == [5]
        assert [r.cell_index for r in rows] == [0, 1, 2, 3, 4]

    def test_failure_recorded_not_raised(self, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(expcli, "newton_estimate", boom)
        spec = spec_from_dict(FAST)
        rows = run(spec, workers=1, quiet=True)
        assert rows[0].error == "RuntimeError: synthetic failure"
        assert not rows[0].converged
        assert math.isnan(rows[0].est_nu)


class TestRowsCsv:
    def test_round_trip(self, tmp_path):
        spec = spec_from_dict({**FAST, "mode": "two-param", "seeds": [0, 1]})
        rows = run(spec, workers=1, quiet=True)
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
        write_rows(run(spec, workers=1, quiet=True), a)
        write_rows(run(spec, workers=1, quiet=True), b)
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

    def test_selftest_smoke(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out
