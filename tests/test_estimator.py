import numpy as np
import pytest
from dataclasses import replace

from fadeid.modfun import build_family
from fadeid.synthdata import TrueModel, synthesize, restrict
from fadeid.estimator import (
    LinearSystem,
    EstimatorConfig,
    RankDeficientError,
    trapezoid,
    measurement_moments,
    assemble_theorem1,
    solve_2col_least_squares,
    linearize,
    estimate_two_param,
    newton_estimate,
)

CANONICAL = TrueModel(nu=0.2, d=1.0, alpha=1.8, L=9.0, T=1.0)
TABLE1 = TrueModel(nu=0.5, d=1.0, alpha=1.8, L=9.0, T=1.0)


@pytest.fixture(scope="module")
def clean_13501():
    return restrict(synthesize(CANONICAL, 13501), 9.0)


@pytest.fixture(scope="module")
def fam3():
    return build_family(3, 3, 9.0)


def fit(ms, fam, alpha):
    mom = measurement_moments(ms, fam)
    sys1 = assemble_theorem1(mom, alpha)
    nu, d, _ = solve_2col_least_squares(sys1)
    return nu, d, sys1, mom


def J_of(lin, sys1):
    return float(np.sum((lin.K - sys1.C_col) ** 2))


class TestTrapezoid:
    def test_constant(self):
        assert trapezoid(np.ones(33), 9.0 / 32) == pytest.approx(9.0)

    def test_linear_exact_two_points(self):
        assert trapezoid(np.array([0.0, 1.0]), 1.0) == pytest.approx(0.5)

    def test_quadratic(self):
        x = np.linspace(0, 1, 1001)
        assert trapezoid(x**2, x[1]) == pytest.approx(1 / 3, abs=1e-6)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            trapezoid(np.array([1.0]), 0.1)


class TestSolve2Col:
    def test_identity_matrix_unpacking(self):
        sys = LinearSystem(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                           np.array([-2.0, 3.0]), 1.0)
        nu, d, cond = solve_2col_least_squares(sys)
        # rows read nu*A + d*B = C
        assert nu == pytest.approx(-2.0)
        assert d == pytest.approx(3.0)
        assert cond == pytest.approx(1.0)

    def test_consistent_square_system_zero_residual(self):
        A = np.array([1.0, 2.0])
        B = np.array([3.0, -1.0])
        C = 0.7 * A + 1.3 * B
        nu, d, _ = solve_2col_least_squares(LinearSystem(A, B, C, 1.0))
        resid = nu * A + d * B - C
        assert np.abs(resid).max() <= 1e-12 * np.abs(C).max()

    def test_synthetic_rows_exact_recovery(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=5)
        B = rng.normal(size=5)
        C = 0.2 * A + 1.0 * B
        nu, d, _ = solve_2col_least_squares(LinearSystem(A, B, C, 1.0))
        assert nu == pytest.approx(0.2, rel=1e-12)
        assert d == pytest.approx(1.0, rel=1e-12)

    def test_rank_deficient(self):
        A = np.array([1.0, 2.0, 3.0])
        with pytest.raises(RankDeficientError):
            solve_2col_least_squares(LinearSystem(A, 2 * A, A, 1.0))

    def test_several_right_hand_sides(self):
        A = np.array([1.0, 2.0, 0.5])
        B = np.array([3.0, -1.0, 2.0])
        sys = LinearSystem(A, B, 0.7 * A + 1.3 * B, 1.0)
        nu, d, _ = solve_2col_least_squares(sys, np.column_stack([sys.C_col, -0.2 * A + 4 * B]))
        np.testing.assert_allclose(nu, [0.7, -0.2], rtol=1e-12)
        np.testing.assert_allclose(d, [1.3, 4.0], rtol=1e-12)

    def test_all_zero_system(self):
        z = np.zeros(3)
        with pytest.raises(RankDeficientError):
            solve_2col_least_squares(LinearSystem(z, z, z, np.inf))


class TestAssembleTheorem1:
    def test_noise_free_recovery(self, clean_13501, fam3):
        nu, d, _, _ = fit(clean_13501, fam3, 1.8)
        assert abs(nu - 0.2) / 0.2 <= 1e-3
        assert abs(d - 1.0) <= 1e-3

    def test_degenerate_zero_measurements(self, fam3):
        ms = restrict(synthesize(CANONICAL, 1351), 9.0)
        zero = replace(ms, c=0 * ms.c, dcdt=0 * ms.dcdt, r=0 * ms.r,
                       c_noisy=0 * ms.c, dcdt_noisy=0 * ms.dcdt)
        sys1 = assemble_theorem1(measurement_moments(zero, fam3), 1.8)
        assert np.all(sys1.A_col == 0) and np.all(sys1.B_col == 0) and np.all(sys1.C_col == 0)
        with pytest.raises(RankDeficientError):
            solve_2col_least_squares(sys1)

    def test_homogeneity(self, fam3):
        ms = restrict(synthesize(CANONICAL, 1351), 9.0)
        doubled = replace(ms, c=2 * ms.c, dcdt=2 * ms.dcdt, r=2 * ms.r,
                          c_noisy=2 * ms.c_noisy, dcdt_noisy=2 * ms.dcdt_noisy)
        s1 = assemble_theorem1(measurement_moments(ms, fam3), 1.8)
        s2 = assemble_theorem1(measurement_moments(doubled, fam3), 1.8)
        np.testing.assert_allclose(s2.A_col, 2 * s1.A_col, rtol=1e-14)
        np.testing.assert_allclose(s2.B_col, 2 * s1.B_col, rtol=1e-14)
        np.testing.assert_allclose(s2.C_col, 2 * s1.C_col, rtol=1e-14)
        np.testing.assert_allclose(s2.G_col, 2 * s1.G_col, rtol=1e-14)
        assert solve_2col_least_squares(s2)[:2] == pytest.approx(
            solve_2col_least_squares(s1)[:2], rel=1e-12
        )

    def test_grid_mismatch_rejected(self, fam3):
        # the family lives on [0, 9]; measurements restricted to [0, 5] do not span it
        ms = restrict(synthesize(CANONICAL, 1351), 5.0)
        with pytest.raises(ValueError):
            measurement_moments(ms, fam3)

    def test_row_permutation_leaves_solution_unchanged(self, clean_13501, fam3):
        _, _, sys1, _ = fit(clean_13501, fam3, 1.8)
        perm = [2, 0, 1]
        permuted = LinearSystem(sys1.A_col[perm], sys1.B_col[perm],
                                sys1.C_col[perm], sys1.cond_estimate)
        assert solve_2col_least_squares(permuted)[:2] == pytest.approx(
            solve_2col_least_squares(sys1)[:2], rel=1e-12
        )

    def test_convergence_rate_in_grid(self, fam3):
        errs = []
        for M in (13501, 27001):
            ms = restrict(synthesize(CANONICAL, M), 9.0)
            nu, d, _, _ = fit(ms, fam3, 1.8)
            errs.append(abs(nu - 0.2) / 0.2 + abs(d - 1.0))
        assert errs[1] <= errs[0] / 2

    def test_non_finite_column_rejected(self):
        with pytest.raises(ValueError):
            LinearSystem(np.ones(3), np.ones(3), np.ones(3), 1.0, np.array([0.0, np.nan, 1.0]))


class TestProp1:
    """The derivative system [A B] (dnu, dd) = -d*G, solved by linearize."""

    def test_derivative_solve_matches_lstsq(self, clean_13501, fam3):
        _, _, sys1, _ = fit(clean_13501, fam3, 1.75)
        lin = linearize(sys1)
        mat = np.column_stack([sys1.A_col, sys1.B_col])
        ref = np.linalg.lstsq(mat, -lin.d * sys1.G_col, rcond=None)[0]
        np.testing.assert_allclose([lin.dnu, lin.dd], ref, rtol=1e-10)

    def test_zero_dispersion_gives_zero_solution(self, clean_13501, fam3):
        _, _, sys1, _ = fit(clean_13501, fam3, 1.8)
        lin = linearize(replace(sys1, C_col=np.zeros_like(sys1.C_col)))
        assert lin.d == 0.0
        assert lin.dnu == 0.0 and lin.dd == 0.0
        assert np.all(lin.Kp == 0.0)

    def test_finite_difference_oracle(self, clean_13501, fam3):
        alpha, h = 1.8, 1e-4
        lin = linearize(fit(clean_13501, fam3, alpha)[2])
        nu_p, d_p = fit(clean_13501, fam3, alpha + h)[:2]
        nu_m, d_m = fit(clean_13501, fam3, alpha - h)[:2]
        fd_nu = (nu_p - nu_m) / (2 * h)
        fd_d = (d_p - d_m) / (2 * h)
        assert abs(lin.dnu - fd_nu) <= 1e-3 * abs(fd_nu)
        assert abs(lin.dd - fd_d) <= 1e-3 * abs(fd_d)


class TestResidualKU:
    def test_equals_least_squares_residual(self, clean_13501, fam3):
        nu, d, sys1, _ = fit(clean_13501, fam3, 1.75)
        lin = linearize(sys1)
        lsq = nu * sys1.A_col + d * sys1.B_col - sys1.C_col
        assert np.abs((lin.K - sys1.C_col) - lsq).max() <= 1e-12 * max(np.abs(lsq).max(), 1e-300)

    def test_small_at_truth(self, clean_13501, fam3):
        sys1 = fit(clean_13501, fam3, 1.8)[2]
        assert J_of(linearize(sys1), sys1) <= 1e-6 * float(np.sum(sys1.C_col**2))

    def test_larger_away_from_truth(self, clean_13501, fam3):
        def J(alpha):
            sys1 = fit(clean_13501, fam3, alpha)[2]
            return J_of(linearize(sys1), sys1)

        assert J(1.8) < J(1.6)
        assert J(1.8) < J(2.0)


class TestGradientKprime:
    @pytest.mark.parametrize(
        "alpha,tol",
        [
            # at the optimum the fit residual vanishes and the analytic
            # gradient is exact; away from it the formula drops the
            # residual-coupling term of the normal equations, so only a
            # looser agreement is expected
            (1.8, 1e-5),
            (1.7, 1e-2),
        ],
    )
    def test_finite_difference_oracle(self, clean_13501, fam3, alpha, tol):
        h = 1e-4
        mom = measurement_moments(clean_13501, fam3)

        def lin_at(a):
            return linearize(assemble_theorem1(mom, a))

        fd = (lin_at(alpha + h).K - lin_at(alpha - h).K) / (2 * h)
        assert np.abs(lin_at(alpha).Kp - fd).max() <= tol * np.abs(fd).max()

    def test_zero_when_all_derivative_inputs_vanish(self, clean_13501, fam3):
        _, _, sys1, _ = fit(clean_13501, fam3, 1.8)
        lin = linearize(replace(sys1, G_col=np.zeros_like(sys1.G_col)))
        assert lin.dnu == 0.0 and lin.dd == 0.0
        assert np.all(lin.Kp == 0.0)

    def test_descent_direction_from_below(self, fam3):
        # starting below the true order, the Gauss-Newton step must increase alpha
        ms = restrict(synthesize(TABLE1, 13501), 9.0)
        sys1 = fit(ms, fam3, 1.4)[2]
        lin = linearize(sys1)
        step = float(lin.Kp @ (sys1.C_col - lin.K)) / float(lin.Kp @ lin.Kp)
        assert step > 0


class TestNewtonEstimate:
    def test_noise_free_convergence(self):
        ms = synthesize(TABLE1, 31501)
        res = newton_estimate(ms, EstimatorConfig(L1=9.0, N=7, b=3, alpha0=1.4))
        assert res.converged
        assert abs(res.alpha - 1.8) <= 1e-3
        assert abs(res.nu - 0.5) <= 1e-3
        assert abs(res.d - 1.0) <= 1e-3

    def test_start_at_optimum_terminates_immediately(self):
        ms = synthesize(TABLE1, 13501)
        res = newton_estimate(ms, EstimatorConfig(L1=9.0, N=3, b=3, alpha0=1.8))
        assert res.converged
        assert len(res.iterations) <= 2

    def test_two_percent_noise_single_seed(self):
        ms = synthesize(TABLE1, 31501, noise_level=0.02, seed=1)
        res = newton_estimate(ms, EstimatorConfig(L1=9.0, N=7, b=3, alpha0=1.4))
        assert res.converged
        assert abs(res.nu - 0.5) / 0.5 <= 2e-2
        assert abs(res.d - 1.0) <= 2e-2
        assert abs(res.alpha - 1.8) / 1.8 <= 2e-2

    def test_max_iter_flagged(self):
        ms = synthesize(TABLE1, 4501)
        res = newton_estimate(ms, EstimatorConfig(L1=9.0, N=3, b=3, alpha0=1.4, max_iter=0))
        assert not res.converged
        assert "max_iter" in res.message
        assert len(res.iterations) == 1

    def test_history_recorded(self):
        ms = synthesize(TABLE1, 13501)
        res = newton_estimate(ms, EstimatorConfig(L1=9.0, N=3, b=3, alpha0=1.4))
        assert res.iterations[0].alpha == pytest.approx(1.4)
        assert all(np.isfinite(it.residual) for it in res.iterations)
        assert res.residual_final == min(it.residual for it in res.iterations)

    def test_alpha_stays_in_range(self):
        ms = synthesize(TABLE1, 4501, noise_level=0.1, seed=3)
        res = newton_estimate(ms, EstimatorConfig(L1=9.0, N=3, b=3, alpha0=1.99))
        assert 1.0 < res.alpha <= 2.0

    def test_estimate_two_param_helper(self):
        ms = synthesize(CANONICAL, 13501)
        nu, d, cond = estimate_two_param(ms, EstimatorConfig(L1=9.0, N=3, b=3), 1.8)
        assert abs(nu - 0.2) / 0.2 <= 1e-3
        assert abs(d - 1.0) <= 1e-3
        assert cond >= 1.0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha0": 1.0},
            {"alpha0": 2.3},
            {"epsilon": -1.0},
            {"L1": 0.0},
            {"step_clamp": 0.0},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)
