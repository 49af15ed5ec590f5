import re
import warnings
import numpy as np
import pytest
from dataclasses import replace

from fadeid import estimator
from fadeid.modfun import column_factor
from fadeid.synthdata import TrueModel, synthesize
from fadeid.estimator import (
    EstimatorConfig,
    GradientDegenerateError,
    RankDeficientError,
    measurement_moments,
    linearize,
    estimate_two_param,
    newton_estimate,
    newton_fit,
)

CANONICAL = TrueModel(nu=0.2, d=1.0, alpha=1.8, L=9.0, T=1.0)
TABLE1 = TrueModel(nu=0.5, d=1.0, alpha=1.8, L=9.0, T=1.0)


@pytest.fixture(scope="module")
def clean_13501():
    return synthesize(CANONICAL, 13501)


@pytest.fixture(scope="module")
def cfg3():
    return EstimatorConfig(L1=9.0, N=3)


@pytest.fixture(scope="module", params=[0.0, 0.02], ids=["noise-free", "2pct"])
def table1_31501(request):
    return synthesize(TABLE1, 31501, noise_level=request.param, seed=0)


class Columns:
    """Hand-made Stage-1 columns in place of a DataMoments: A, C, A's factor
    made by DataMoments' own column_factor, and a fixed (B, G) returned at
    every alpha."""

    def __init__(self, A, B, C, G=None):
        self.A, self.B, self.C = (np.asarray(v, dtype=float) for v in (A, B, C))
        self.G = np.zeros_like(self.B) if G is None else np.asarray(G, dtype=float)
        self.factor = column_factor(self.A, self.C)

    def fractional_columns(self, alpha):
        return self.B, self.G


def fit(ms, cfg, alpha):
    mom = measurement_moments(ms, cfg)
    return linearize(mom, alpha), mom


def J_of(lin, mom):
    return float(np.sum((lin.K - mom.C) ** 2))


class TestLinearizeOnColumns:
    """linearize's two-column least-squares solve, on hand-made columns."""

    def test_identity_matrix_unpacking(self):
        lin = linearize(Columns([1.0, 0.0], [0.0, 1.0], [-2.0, 3.0]), 1.8)
        # rows read nu*A + d*B = C
        assert lin.nu == pytest.approx(-2.0)
        assert lin.d == pytest.approx(3.0)
        assert lin.cond == pytest.approx(1.0)

    def test_consistent_square_system_zero_residual(self):
        A = np.array([1.0, 2.0])
        B = np.array([3.0, -1.0])
        C = 0.7 * A + 1.3 * B
        lin = linearize(Columns(A, B, C), 1.8)
        resid = lin.nu * A + lin.d * B - C
        assert np.abs(resid).max() <= 1e-12 * np.abs(C).max()

    def test_synthetic_rows_exact_recovery(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=5)
        B = rng.normal(size=5)
        C = 0.2 * A + 1.0 * B
        lin = linearize(Columns(A, B, C), 1.8)
        assert lin.nu == pytest.approx(0.2, rel=1e-12)
        assert lin.d == pytest.approx(1.0, rel=1e-12)

    def test_rank_deficient(self):
        A = np.array([1.0, 2.0, 3.0])
        with pytest.raises(RankDeficientError):
            linearize(Columns(A, 2 * A, A), 1.8)

    def test_all_zero_system(self):
        z = np.zeros(3)
        with pytest.raises(RankDeficientError):
            linearize(Columns(z, z, z), 1.8)

    @pytest.mark.parametrize("A,B", [
        ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]),   # zero measurements: A = 0
        ([1.0, 2.0, 3.0], [-2.0, -4.0, -6.0]),  # A parallel to B
        ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),   # the all-zero system
    ], ids=["zero-A", "parallel", "all-zero"])
    def test_rank_deficient_without_warning(self, A, B):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficientError, match="rank-deficient"):
                linearize(Columns(A, B, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]), 1.8)

    @pytest.mark.parametrize("A", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], ids=["a-axis", "zero-A"])
    @pytest.mark.parametrize("B,G", [
        ([0.0, 1.0, np.inf], [0.0, 0.0, 0.0]),
        ([0.0, 1.0, -np.inf], [1.0, 2.0, 3.0]),
        ([0.0, np.nan, 1.0], [0.0, 0.0, 0.0]),
        ([0.0, 1.0, 0.0], [0.0, 0.0, np.inf]),
        ([0.0, 1.0, 0.0], [0.0, np.nan, 0.0]),
    ])
    def test_non_finite_where_a_vanishes_rejected(self, A, B, G):
        # a.B and a.G carry the check: 0*inf is NaN, and raises no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite fractional column"):
                linearize(Columns(A, B, [1.0, 2.0, 3.0], G), 1.8)

    def test_cond_matches_numpy(self, clean_13501):
        mom = measurement_moments(clean_13501, EstimatorConfig(L1=9.0, N=5))
        B, _ = mom.fractional_columns(1.6)
        ref = np.linalg.cond(np.column_stack([mom.A, B]))
        assert linearize(mom, 1.6).cond == pytest.approx(ref, rel=1e-12)


class TestLinearizeOnMoments:
    """The Stage-1 rows of measurement_moments and their fit at a fixed alpha."""

    def test_noise_free_recovery(self, clean_13501, cfg3):
        lin, _ = fit(clean_13501, cfg3, 1.8)
        assert abs(lin.nu - 0.2) / 0.2 <= 1e-3
        assert abs(lin.d - 1.0) <= 1e-3

    def test_degenerate_zero_measurements(self, cfg3):
        ms = synthesize(CANONICAL, 1351)
        zero = replace(ms, c=0 * ms.c, dcdt=0 * ms.dcdt, r=0 * ms.r,
                       c_noisy=0 * ms.c, dcdt_noisy=0 * ms.dcdt)
        mom = measurement_moments(zero, cfg3)
        B, _ = mom.fractional_columns(1.8)
        assert np.all(mom.A == 0) and np.all(B == 0) and np.all(mom.C == 0)
        with pytest.raises(RankDeficientError):
            linearize(mom, 1.8)

    def test_homogeneity(self, cfg3):
        ms = synthesize(CANONICAL, 1351)
        doubled = replace(ms, c=2 * ms.c, dcdt=2 * ms.dcdt, r=2 * ms.r,
                          c_noisy=2 * ms.c_noisy, dcdt_noisy=2 * ms.dcdt_noisy)
        m1 = measurement_moments(ms, cfg3)
        m2 = measurement_moments(doubled, cfg3)
        np.testing.assert_allclose(m2.A, 2 * m1.A, rtol=1e-14)
        np.testing.assert_allclose(m2.C, 2 * m1.C, rtol=1e-14)
        for got, ref in zip(m2.fractional_columns(1.8), m1.fractional_columns(1.8)):
            np.testing.assert_allclose(got, 2 * ref, rtol=1e-14)
        assert linearize(m2, 1.8)[:2] == pytest.approx(linearize(m1, 1.8)[:2], rel=1e-12)

    def test_row_permutation_leaves_solution_unchanged(self, clean_13501, cfg3):
        lin, mom = fit(clean_13501, cfg3, 1.8)
        perm = [2, 0, 1]
        B, G = mom.fractional_columns(1.8)
        permuted = Columns(mom.A[perm], B[perm], mom.C[perm], G[perm])
        assert linearize(permuted, 1.8)[:2] == pytest.approx(lin[:2], rel=1e-12)

    def test_stage1_matches_numpy(self, table1_31501):
        # one Gram-Schmidt step against A's factor, against numpy's SVD-based
        # solve and condition number, down to L1 = 0.01 and up to cond ~ 1e4
        for L1 in (9.0, 5.0, 1.0, 0.05, 0.01):
            for N in (3, 7, 11, 20):
                mom = measurement_moments(table1_31501, EstimatorConfig(L1=L1, N=N))
                for alpha in (1.01, 1.5, 1.8, 2.0):
                    lin = linearize(mom, alpha)
                    AB = np.column_stack([mom.A, mom.fractional_columns(alpha)[0]])
                    ref = [*np.linalg.lstsq(AB, mom.C, rcond=None)[0], np.linalg.cond(AB)]
                    np.testing.assert_allclose([lin.nu, lin.d, lin.cond], ref, rtol=1e-12,
                                               err_msg=f"L1={L1}, N={N}, alpha={alpha}")

    def test_convergence_rate_in_grid(self, cfg3):
        errs = []
        for M in (13501, 27001):
            lin, _ = fit(synthesize(CANONICAL, M), cfg3, 1.8)
            errs.append(abs(lin.nu - 0.2) / 0.2 + abs(lin.d - 1.0))
        assert errs[1] <= errs[0] / 2

    def test_non_finite_column_rejected(self):
        with pytest.raises(ValueError):
            linearize(Columns(np.ones(3), np.ones(3), np.ones(3), np.array([0.0, np.nan, 1.0])), 1.8)


class TestProp1:
    """The derivative system [A B] (dnu, dd) = -d*G plus the residual term
    of variable projection, solved by linearize."""

    def test_derivative_solve_matches_lstsq(self, clean_13501, cfg3):
        lin, mom = fit(clean_13501, cfg3, 1.75)
        B, G = mom.fractional_columns(1.75)
        AB = np.column_stack([mom.A, B])
        # d(nu, d)/dalpha of the least-squares fit, with dAB/dalpha = [0 G]:
        # (AB^T AB)^-1 ((0, G.r) - AB^T (d G)), r = C - K
        ref = (np.linalg.lstsq(AB, -lin.d * G, rcond=None)[0]
               + np.linalg.solve(AB.T @ AB, [0.0, G @ (mom.C - lin.K)]))
        np.testing.assert_allclose([lin.dnu, lin.dd], ref, rtol=1e-10)

    def test_zero_dispersion_gives_zero_solution(self, clean_13501, cfg3):
        mom = measurement_moments(clean_13501, cfg3)
        B, G = mom.fractional_columns(1.8)
        lin = linearize(Columns(mom.A, B, np.zeros_like(mom.C), G), 1.8)
        assert lin.d == 0.0
        assert lin.dnu == 0.0 and lin.dd == 0.0
        assert np.all(lin.Kp == 0.0)

    def test_finite_difference_oracle(self, clean_13501, cfg3):
        alpha, h = 1.8, 1e-4
        mom = measurement_moments(clean_13501, cfg3)
        lin, lin_p, lin_m = (linearize(mom, a) for a in (alpha, alpha + h, alpha - h))
        fd_nu = (lin_p.nu - lin_m.nu) / (2 * h)
        fd_d = (lin_p.d - lin_m.d) / (2 * h)
        assert abs(lin.dnu - fd_nu) <= 1e-3 * abs(fd_nu)
        assert abs(lin.dd - fd_d) <= 1e-3 * abs(fd_d)


class TestResidualKU:
    def test_equals_least_squares_residual(self, clean_13501, cfg3):
        lin, mom = fit(clean_13501, cfg3, 1.75)
        B, _ = mom.fractional_columns(1.75)
        nu, d = np.linalg.lstsq(np.column_stack([mom.A, B]), mom.C, rcond=None)[0]
        lsq = nu * mom.A + d * B - mom.C
        assert np.abs((lin.K - mom.C) - lsq).max() <= 1e-12 * max(np.abs(lsq).max(), 1e-300)

    def test_small_at_truth(self, clean_13501, cfg3):
        lin, mom = fit(clean_13501, cfg3, 1.8)
        assert J_of(lin, mom) <= 1e-6 * float(np.sum(mom.C**2))

    def test_larger_away_from_truth(self, clean_13501, cfg3):
        def J(alpha):
            return J_of(*fit(clean_13501, cfg3, alpha))

        assert J(1.8) < J(1.6)
        assert J(1.8) < J(2.0)


class TestGradientKprime:
    @pytest.mark.parametrize(
        "alpha,tol",
        [
            # K' is dK/dalpha exactly, residual term included, at and away
            # from the optimum; test_exact_against_central_difference holds
            # it to 1e-7 with a smaller step
            (1.8, 1e-5),
            (1.7, 1e-2),
        ],
    )
    def test_finite_difference_oracle(self, clean_13501, cfg3, alpha, tol):
        h = 1e-4
        mom = measurement_moments(clean_13501, cfg3)
        fd = (linearize(mom, alpha + h).K - linearize(mom, alpha - h).K) / (2 * h)
        assert np.abs(linearize(mom, alpha).Kp - fd).max() <= tol * np.abs(fd).max()

    @pytest.mark.parametrize("b", [2, 3])
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_exact_against_central_difference(self, b, noise):
        # K', dnu and dd against central differences of K, nu and d; without
        # the residual term of variable projection (Kaufman's K') the gap is ~1e-3
        ms = synthesize(TABLE1, 1351, noise_level=noise, seed=0)
        mom = measurement_moments(ms, EstimatorConfig(L1=9.0, N=3, b=b))
        alpha, h = 1.75, 1e-5
        lin, lin_p, lin_m = (linearize(mom, a) for a in (alpha, alpha + h, alpha - h))
        fd = (lin_p.K - lin_m.K) / (2 * h)
        assert np.abs(lin.Kp - fd).max() <= 1e-7 * np.abs(fd).max()
        for got, p, m in ((lin.dnu, lin_p.nu, lin_m.nu), (lin.dd, lin_p.d, lin_m.d)):
            assert got == pytest.approx((p - m) / (2 * h), rel=1e-7)

    def test_zero_when_all_derivative_inputs_vanish(self, clean_13501, cfg3):
        mom = measurement_moments(clean_13501, cfg3)
        B, _ = mom.fractional_columns(1.8)
        lin = linearize(Columns(mom.A, B, mom.C), 1.8)
        assert lin.dnu == 0.0 and lin.dd == 0.0
        assert np.all(lin.Kp == 0.0)

    def test_descent_direction_from_below(self, cfg3):
        # starting below the true order, the Gauss-Newton step must increase alpha
        lin, mom = fit(synthesize(TABLE1, 13501), cfg3, 1.4)
        step = float(lin.Kp @ (mom.C - lin.K)) / float(lin.Kp @ lin.Kp)
        assert step > 0


class TestMeasurementMoments:
    def test_L1_snaps_to_node(self):
        ms = synthesize(CANONICAL, 91)  # dx = 0.1
        mom = measurement_moments(ms, EstimatorConfig(L1=4.96, N=3))
        # ln of the integrated nodes, x = 0 left out
        assert np.exp(mom.basis.log_x[-1]) == pytest.approx(5.0)
        assert len(mom.basis.log_x) + 1 == 51

    def test_L1_beyond_grid_rejected(self):
        ms = synthesize(CANONICAL, 91)
        with pytest.raises(ValueError, match="usable sub-grid"):
            measurement_moments(ms, EstimatorConfig(L1=11.0, N=3))

    def test_estimates_read_only_measured_channels(self):
        # the clean channels are synthetic truth: replacing them changes nothing
        ms = synthesize(TABLE1, 4501, noise_level=0.02, seed=0)
        blind = replace(ms, c=np.full_like(ms.c, np.nan), dcdt=np.full_like(ms.dcdt, np.nan))
        for cfg in (EstimatorConfig(L1=9.0, N=3), EstimatorConfig(L1=5.0, N=7)):
            assert newton_estimate(blind, cfg) == newton_estimate(ms, cfg)
            assert estimate_two_param(blind, cfg, 1.8) == estimate_two_param(ms, cfg, 1.8)


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

    def test_max_iter_flagged(self, monkeypatch):
        monkeypatch.setattr(estimator, "MAX_ITER", 0)
        ms = synthesize(TABLE1, 4501)
        res = newton_estimate(ms, EstimatorConfig(L1=9.0, N=3, b=3, alpha0=1.4))
        assert not res.converged
        assert "max_iter" in res.message
        assert len(res.iterations) == 1

    def test_stop_at_lower_bound_named(self):
        # alpha runs down onto the bound 1 + 1e-6, where the next step still
        # points outward: the projection stops the loop, not a small step,
        # and an order outside the model's (1, 2] is no converged answer
        res = newton_estimate(synthesize(TABLE1, 31501, 0.02, 2), EstimatorConfig(L1=5.0, N=20))
        assert [round(it.alpha, 7) for it in res.iterations] == [1.4, 1.2, 1.000001]
        assert not res.converged
        assert re.fullmatch(r"alpha held at its bound 1\.000001 against a step of -\d\.\d{3}e-\d\d",
                            res.message)

    @pytest.mark.parametrize("seed,stop", [
        (5, r"alpha held at its bound 2 against a step of \+\d\.\d{3}e-\d\d"),
        (10, r"alpha held at its bound 2 against a step of \+\d\.\d{3}e-\d\d"),
        (0, r"alpha step stagnated below 1\.0e-06 \(stationary point\)"),
    ])
    def test_stop_message_at_true_order_two(self, seed, stop):
        # at 5% noise the fit pushes alpha against 2 on some seeds and
        # settles inside (1, 2) on others
        ms = synthesize(replace(TABLE1, alpha=2.0), 31501, 0.05, seed)
        res = newton_estimate(ms, EstimatorConfig(N=5))
        assert res.converged
        assert re.fullmatch(stop, res.message)
        assert (res.alpha == pytest.approx(2.0, abs=1e-6)) == ("bound" in stop)

    @pytest.mark.parametrize("L1", [9.0, 5.0, 3.0, 2.0])
    def test_two_rows_rejected_before_the_first_step(self, L1):
        # two rows fit (nu, d) exactly at every alpha, so K' = 0 in exact
        # arithmetic and what a step did would rest on rounding
        ms = synthesize(TABLE1, 2701)
        cfg = EstimatorConfig(L1=L1, N=2)
        with pytest.raises(ValueError, match="needs N >= 3"):
            newton_estimate(ms, cfg)
        nu, d, _ = estimate_two_param(ms, cfg, 1.8)  # Stage 1 alone keeps N = 2
        assert abs(nu - 0.5) / 0.5 <= 1e-5 and abs(d - 1.0) <= 2e-5

    def test_vanishing_gradient_raises(self):
        # G = 3 B lies in range([A B]): the derivative system gives
        # (dnu, dd) = (0, -3d), so K' = dd B + d G = 0; axis-aligned
        # columns keep every product exact
        cols = Columns(A=[2.0, 0.0, 0.0], B=[0.0, 1.0, 0.0], C=[1.0, 0.5, 0.25],
                       G=[0.0, 3.0, 0.0])
        with pytest.raises(GradientDegenerateError, match="<K', K'> = 0.000e\\+00"):
            newton_fit(cols, 1.4)

    def test_history_recorded(self):
        ms = synthesize(TABLE1, 13501)
        res = newton_estimate(ms, EstimatorConfig(L1=9.0, N=3, b=3, alpha0=1.4))
        assert res.iterations[0].alpha == pytest.approx(1.4)
        assert all(np.isfinite(it.residual) for it in res.iterations)
        assert res.iterations[-1].residual == min(it.residual for it in res.iterations)
        last = res.iterations[-1]
        assert (res.alpha, res.nu, res.d) == (last.alpha, last.nu, last.d)

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

    def test_non_finite_sample_rejected(self):
        ms = synthesize(TABLE1, 4501, noise_level=0.02, seed=0)
        c = ms.c_noisy.copy()
        c[1000] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            estimate_two_param(replace(ms, c_noisy=c), EstimatorConfig(L1=9.0, N=3, b=3), 1.8)

    def test_non_uniform_grid_rejected(self):
        ms = synthesize(TABLE1, 4501, noise_level=0.02, seed=0)
        jitter = np.random.default_rng(0).uniform(-0.3, 0.3, len(ms.x))
        jitter[[0, -1]] = 0.0  # keep the ends
        x = ms.x + jitter * (ms.x[1] - ms.x[0])
        with pytest.raises(ValueError, match="uniform"):
            estimate_two_param(replace(ms, x=x), EstimatorConfig(L1=9.0, N=3, b=3), 1.8)

    def test_grid_off_origin_rejected(self):
        ms = synthesize(TABLE1, 4501, noise_level=0.02, seed=0)
        with pytest.raises(ValueError, match="must start at 0"):
            estimate_two_param(replace(ms, x=ms.x + 1.0), EstimatorConfig(L1=9.0, N=3, b=3), 1.8)

    @pytest.mark.parametrize("scale", [0.7, 1.3])
    def test_uneven_first_spacing_rejected(self, scale):
        ms = synthesize(TABLE1, 4501, noise_level=0.02, seed=0)
        x = ms.x.copy()
        x[1] *= scale
        with pytest.raises(ValueError, match="uniform"):
            estimate_two_param(replace(ms, x=x), EstimatorConfig(L1=9.0, N=3, b=3), 1.8)

    def test_noise_free_exact_rows_converge_fully(self):
        # three rows fit (nu, d, alpha) exactly, so J can be tiny long before
        # alpha has settled; only the alpha-step test may end the run
        ms = synthesize(TABLE1, 4501)
        res = newton_estimate(ms, EstimatorConfig(L1=9.0, N=3, b=3, alpha0=1.99))
        assert res.converged
        assert abs(res.nu - 0.5) / 0.5 <= 1e-6
        assert abs(res.d - 1.0) <= 1e-6
        assert abs(res.alpha - 1.8) / 1.8 <= 1e-6

    @pytest.mark.parametrize("M", [4501, 13501])
    @pytest.mark.parametrize("N", [15, 20])
    def test_noise_free_high_N_converges(self, M, N):
        # with rounding in B far below the data's own error, Stage 2 at
        # large N settles in a few steps instead of wandering
        res = newton_estimate(synthesize(TABLE1, M), EstimatorConfig(L1=9.0, N=N, b=3, alpha0=1.4))
        assert res.converged
        assert len(res.iterations) <= 10
        assert abs(res.nu - 0.5) / 0.5 <= 1e-6

    @pytest.fixture(scope="class")
    def table1_noisy(self):
        return synthesize(TABLE1, 31501, noise_level=0.02, seed=0)

    @pytest.mark.parametrize("N", [3, 7, 11])
    @pytest.mark.parametrize("s", [1e-3, 1e-2, 1e3])
    def test_length_unit_invariance(self, table1_noisy, N, s):
        # x -> s x keeps every sample and scales the rows' unknowns to
        # (nu s, d s^alpha); alpha and the Newton steps are unit-free
        ref = newton_estimate(table1_noisy, EstimatorConfig(L1=9.0, N=N))
        scaled = replace(table1_noisy, x=s * table1_noisy.x)
        res = newton_estimate(scaled, EstimatorConfig(L1=9.0 * s, N=N))
        assert res.converged
        assert abs(res.alpha - ref.alpha) <= 1e-10
        assert res.nu / s == pytest.approx(ref.nu, rel=1e-9)
        assert res.d / s**res.alpha == pytest.approx(ref.d, rel=1e-9)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha0": 1.0},
            {"alpha0": 2.3},
            {"L1": 0.0},
            {"N": True},
            {"L1": float("nan")},
            {"L1": float("inf")},
            {"N": 1},
            {"N": 3.0},
            {"b": 1},
            {"b": "3"},
            {"b": 3.0},
            {"N": np.float64(3.0)},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)
