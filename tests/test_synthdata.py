import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.special import rgamma

from fadeid.synthdata import (
    TrueModel,
    MeasurementSet,
    exact_solution,
    source_term,
    synthesize,
    add_noise,
    to_csv,
    from_csv,
)


CANONICAL = TrueModel(nu=0.2, d=1.0, alpha=1.8, L=9.0, T=1.0)
TABLE1 = TrueModel(nu=0.5, d=1.0, alpha=1.8, L=9.0, T=1.0)


class TestTrueModel:
    @pytest.mark.parametrize("name", ["nu", "d", "L", "T"])
    # bool is an int subclass: True would pass as nu, d, L or T = 1
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, True, False])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match="must be finite"):
            TrueModel(**{name: value})

    @pytest.mark.parametrize("fields,match", [
        ({"alpha": 1.0}, "alpha must be in"),
        ({"alpha": 2.5}, "alpha must be in"),
        ({"alpha": True}, "alpha must be in"),
        ({"L": 0.0}, "domain length must be positive"),
        ({"L": -9.0}, "domain length must be positive"),
        ({"d": 0.0}, "dispersion coefficient must be positive"),
        ({"d": -1.0}, "dispersion coefficient must be positive"),
    ])
    def test_out_of_range_parameter_rejected(self, fields, match):
        with pytest.raises(ValueError, match=match):
            TrueModel(**fields)


class TestExactSolution:
    def test_boundaries(self):
        c, dcdt = exact_solution(CANONICAL, np.array([0.0, 9.0]))
        assert np.all(c == 0.0)
        assert np.all(dcdt == 0.0)

    def test_midpoint_values(self):
        c, dcdt = exact_solution(CANONICAL, np.array([4.5]))
        assert c[0] == pytest.approx(10.941121693829829, rel=1e-14)
        assert dcdt[0] == pytest.approx(-17.039787442359904, rel=1e-14)

    def test_initial_condition(self):
        m = TrueModel(nu=0.2, d=1.0, alpha=1.8, L=9.0, T=0.0)
        x = np.linspace(0, 9, 31)
        c, _ = exact_solution(m, x)
        np.testing.assert_allclose(c, x * (9 - x), rtol=1e-14, atol=1e-14)


class TestSourceTerm:
    def test_zero_at_origin_by_convention(self):
        r = source_term(CANONICAL, np.array([0.0]))
        assert r[0] == 0.0

    def test_divergence_near_origin(self):
        r = source_term(CANONICAL, np.array([1e-8, 1e-10]))
        assert abs(r[1]) > abs(r[0]) > 1e4

    def test_matches_bracketed_closed_form(self):
        # cos(-t)[nu (9-2x) - (9 G(2)/G(2-a) x^(1-a) - G(3)/G(3-a) x^(2-a))]
        #   + sin(-t) x(9-x), written out independently for the canonical model
        x = np.linspace(0.5, 8.5, 17)
        t, a = 1.0, 1.8
        expect = math.cos(-t) * (
            0.2 * (9 - 2 * x) - (9 * rgamma(2 - a) * x ** (1 - a) - 2 * rgamma(3 - a) * x ** (2 - a))
        ) + math.sin(-t) * x * (9 - x)
        np.testing.assert_allclose(source_term(CANONICAL, x), expect, rtol=1e-12)

    @pytest.mark.parametrize(
        "model",
        [
            CANONICAL,
            TrueModel(nu=0.5, d=1.0, alpha=1.8, L=9.0, T=1.0),
            TrueModel(nu=-0.7, d=2.5, alpha=1.3, L=4.0, T=0.3),
        ],
    )
    def test_pde_residual_closure(self, model, rl_reference):
        x = np.linspace(0, model.L, 101)[1:]  # x > 0
        p = Polynomial([0.0, model.L, -1.0])  # the x(L-x) factor of c
        ct = math.cos(-model.T)
        dcdt = math.sin(-model.T) * p(x)
        dcdx = ct * p.deriv()(x)
        dalpha_c = ct * rl_reference(p, model.alpha, x)[0]
        r = source_term(model, x)
        resid = dcdt + model.nu * dcdx - model.d * dalpha_c - r
        scale = np.abs(r).max()
        assert np.abs(resid).max() <= 1e-10 * scale


class TestNoise:
    def test_level_zero_identity(self):
        ms = synthesize(CANONICAL, 101)
        assert add_noise(ms, 0.0, seed=3) is ms

    def test_determinism(self):
        a = synthesize(CANONICAL, 501, noise_level=0.03, seed=42)
        b = synthesize(CANONICAL, 501, noise_level=0.03, seed=42)
        assert np.array_equal(a.c_noisy, b.c_noisy)
        assert np.array_equal(a.dcdt_noisy, b.dcdt_noisy)

    def test_different_seeds_differ(self):
        a = synthesize(CANONICAL, 501, noise_level=0.03, seed=1)
        b = synthesize(CANONICAL, 501, noise_level=0.03, seed=2)
        assert not np.array_equal(a.c_noisy, b.c_noisy)

    @pytest.mark.parametrize("level,seed", [(0.0, 0), (0.02, 0), (0.02, 7), (0.1, 3)])
    def test_noise_on_a_clean_set_is_synthesis_with_noise(self, level, seed):
        # a sweep adds each data set's noise to one clean synthesis
        got = add_noise(synthesize(CANONICAL, 501), level, seed)
        want = synthesize(CANONICAL, 501, level, seed)
        for name in ("x", "c", "dcdt", "r", "c_noisy", "dcdt_noisy"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_clean_channels_preserved(self):
        clean = synthesize(CANONICAL, 501)
        noisy = add_noise(clean, 0.05, seed=0)
        assert np.array_equal(noisy.c, clean.c)
        assert np.array_equal(noisy.dcdt, clean.dcdt)

    def test_noise_scale_matches_rms(self):
        ms = synthesize(CANONICAL, 20001, noise_level=0.03, seed=11)
        for clean, noisy in ((ms.c, ms.c_noisy), (ms.dcdt, ms.dcdt_noisy)):
            target = 0.03 * np.sqrt(np.mean(clean**2))
            got = np.std(noisy - clean)
            assert abs(got - target) <= 0.05 * target

    def test_negative_level_rejected(self):
        ms = synthesize(CANONICAL, 101)
        with pytest.raises(ValueError):
            add_noise(ms, -0.1, seed=0)

    @pytest.mark.parametrize("level,seed,what", [
        (True, 0, "noise level"), (False, 0, "noise level"), (0.02, True, "seed"), (0.0, False, "seed"),
    ])
    def test_boolean_level_or_seed_rejected(self, level, seed, what):
        # True would add 100% noise, and seed=True draw seed 1's noise
        with pytest.raises(ValueError, match=what):
            add_noise(synthesize(CANONICAL, 101), level, seed)
        with pytest.raises(ValueError, match=what):
            synthesize(CANONICAL, 101, level, seed)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -0.1])
    def test_synthesize_rejects_invalid_level(self, level):
        with pytest.raises(ValueError, match="noise level must be finite and non-negative"):
            synthesize(CANONICAL, 101, noise_level=level)


class TestMeasurementSet:
    def test_boundary_values_clean(self):
        ms = synthesize(CANONICAL, 301)
        assert ms.c[0] == 0.0 and ms.c[-1] == 0.0

    def test_length_mismatch_rejected(self):
        z = np.zeros(4)
        with pytest.raises(ValueError):
            MeasurementSet(np.zeros(5), z, z, z, z, z)

    @pytest.mark.parametrize(
        "x",
        [np.zeros(101), np.zeros(3), np.linspace(0.0, -9.0, 101), np.linspace(9.0, 0.0, 101)],
        ids=["all-zero", "zero-span", "decreasing", "reversed"])
    def test_grid_must_increase(self, x):
        # zero-span is the shortest grid a set accepts, three coincident nodes
        c, dcdt = exact_solution(TABLE1, x)
        with pytest.raises(ValueError, match="must increase from 0"):
            MeasurementSet(x, c, dcdt, source_term(TABLE1, x), c, dcdt)

    def test_coarse_tail_beyond_L1_rejected(self):
        # uniform on [0, 5], then 8 points on [5.5, 9]: an estimate on [0, 5]
        # would read only the uniform part, but the grid's mean spacing would
        # snap L1 = 5 to x = 2.782
        x = np.concatenate([np.linspace(0.0, 5.0, 5001), np.linspace(5.5, 9.0, 8)])
        c, dcdt = exact_solution(TABLE1, x)
        with pytest.raises(ValueError, match="not uniformly spaced"):
            MeasurementSet(x, c, dcdt, source_term(TABLE1, x), c, dcdt)

    @pytest.mark.parametrize(
        "name,j,value",
        [("x", 30, math.nan), ("x", 80, math.nan), ("x", -1, math.inf), ("c_noisy", 80, math.nan)],
        ids=["nan-node-below-L1", "nan-node-beyond-L1", "inf-last-node", "nan-sample-beyond-L1"])
    def test_non_finite_rejected(self, name, j, value):
        # nodes 30 and 80 of 101 on [0, 9] lie below and beyond L1 = 5
        ms = synthesize(TABLE1, 101, noise_level=0.02, seed=0)
        bad = getattr(ms, name).copy()
        bad[j] = value
        with pytest.raises(ValueError, match=f"non-finite measurement samples in '{name}'"):
            replace(ms, **{name: bad})

    def test_holds_read_only_views(self):
        # no copy, and the caller's own arrays stay writable
        x = np.linspace(0.0, 9.0, 101)
        c, dcdt = exact_solution(TABLE1, x)
        given = (x, c, dcdt, source_term(TABLE1, x), c.copy(), dcdt.copy())
        ms = MeasurementSet(*given)
        for name, array in zip(("x", "c", "dcdt", "r", "c_noisy", "dcdt_noisy"), given):
            held = getattr(ms, name)
            assert np.shares_memory(held, array) and not held.flags.writeable
            assert array.flags.writeable

    def test_checked_grid_cannot_be_edited(self):
        # the edit would make a two-param estimate return nu = -0.474, unchecked
        ms = synthesize(TrueModel(nu=0.5), 101)
        with pytest.raises(ValueError, match="read-only"):
            ms.x[30] = 3.0
        assert ms.x[30] == np.linspace(0.0, 9.0, 101)[30]


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        ms = synthesize(CANONICAL, 101, noise_level=0.03, seed=5)
        path = tmp_path / "ms.csv"
        to_csv(ms, path)
        back = from_csv(path)
        for name in ("x", "c", "dcdt", "r", "c_noisy", "dcdt_noisy"):
            assert np.array_equal(getattr(ms, name), getattr(back, name))

    def test_header(self, tmp_path):
        ms = synthesize(CANONICAL, 11)
        path = tmp_path / "ms.csv"
        to_csv(ms, path)
        assert path.read_text().splitlines()[0] == "x,c,dcdt,r,c_noisy,dcdt_noisy"

    @pytest.mark.parametrize("rows", ["1,2,3,4,5,6\n1,2,3,4,5\n", "1,2,3,4,5\n1,2,3,4,5\n"])
    def test_wrong_column_count_rejected(self, tmp_path, rows):
        path = tmp_path / "short.csv"
        path.write_text("x,c,dcdt,r,c_noisy,dcdt_noisy\n" + rows)
        with pytest.raises(ValueError):
            from_csv(path)

    def test_single_row_rejected(self, tmp_path):
        # one sample has no node spacing: rejected on reading, before estimation
        path = tmp_path / "one.csv"
        path.write_text("x,c,dcdt,r,c_noisy,dcdt_noisy\n0,1,2,3,4,5\n")
        with pytest.raises(ValueError, match="at least 3 points"):
            from_csv(path)

    @pytest.mark.parametrize("x,match", [("0 1 3", "not uniformly spaced"), ("0 1 nan", "non-finite")],
                             ids=["non-uniform", "nan-node"])
    def test_bad_grid_rejected(self, tmp_path, x, match):
        path = tmp_path / "grid.csv"
        path.write_text("x,c,dcdt,r,c_noisy,dcdt_noisy\n" + "".join(f"{v},1,1,1,1,1\n" for v in x.split()))
        with pytest.raises(ValueError, match=match):
            from_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,c,dcdt,r,c_noisy,dcdt_noisy\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                from_csv(path)

    def test_comments_and_blanks_only_rejected(self, tmp_path):
        path = tmp_path / "comments.csv"
        path.write_text("x,c,dcdt,r,c_noisy,dcdt_noisy\n# a note\n\n#\n# another\r\n\r\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                from_csv(path)

    def test_comments_and_blanks_between_rows_round_trip(self, tmp_path):
        ms = synthesize(CANONICAL, 31, noise_level=0.03, seed=2)
        path = tmp_path / "ms.csv"
        to_csv(ms, path)
        header, *rows = path.read_text().splitlines()
        lines = [header, "# written by hand", ""]
        for i, row in enumerate(rows):
            lines.append(row + ("  # trailing note" if i % 3 == 0 else ""))
            if i % 4 == 1:
                lines += ["", "# between rows", ""]
        path.write_text("\n".join(lines + ["# end", ""]))
        back = from_csv(path)
        for name in ("x", "c", "dcdt", "r", "c_noisy", "dcdt_noisy"):
            assert np.array_equal(getattr(ms, name), getattr(back, name))

    @pytest.mark.parametrize("line", ["   ", "\t", " \r", "  # note", "   #"])
    @pytest.mark.parametrize("where", ["alone", "before rows", "between rows"])
    def test_line_loadtxt_reads_as_a_row_rejected(self, tmp_path, line, where):
        # a line with anything but a '#' comment is a row to loadtxt, so the
        # "no data rows" check counts it too and loadtxt rejects it
        rows = ["0,1,1,1,1,1", "1,1,1,1,1,1", "2,1,1,1,1,1"]
        body = {"alone": [line], "before rows": [line, *rows],
                "between rows": [*rows[:2], line, rows[2]]}[where]
        path = tmp_path / "spaces.csv"
        path.write_bytes("\n".join(["x,c,dcdt,r,c_noisy,dcdt_noisy", *body, ""]).encode())
        with pytest.raises(ValueError, match="could not convert|number of columns changed"):
            from_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            from_csv(path)
