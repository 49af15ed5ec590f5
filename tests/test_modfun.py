from math import comb, inf, nan

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.integrate import trapezoid

from fadeid.modfun import DataMoments, GridBasis, build_family
from fadeid.selftest import members, sampled
from fadeid.synthdata import CSV_HEADER, MeasurementSet, TrueModel, synthesize

TABLE1 = TrueModel(nu=0.5, d=1.0, alpha=1.8, L=9.0, T=1.0)


@pytest.fixture(scope="module")
def fam():
    return build_family(3, 3)


def block_of(fam, ms, L1):
    """fam's moments of ms on [0, L1], on a grid basis of their own."""
    return DataMoments(ms, GridBasis(ms.x, L1, fam))


def grid_data(M):
    """A smooth, sign-changing sample on M points of [0, 9]."""
    x = np.linspace(0.0, 9.0, M)
    return x, 1.0 + np.sin(x) + 0.1 * x**2


class TestBuildFamily:
    def test_first_member_expansion(self, fam):
        # phi_1 = x^6 (9-x)^4 = sum_i C(4,i) 9^(4-i) (-1)^i x^(6+i), exact in float
        expect = np.zeros(11)
        for i in range(5):
            expect[6 + i] = comb(4, i) * 9.0 ** (4 - i) * (-1) ** i
        phi1 = members(fam, 9.0)[0]
        assert np.array_equal(phi1.coef, expect)
        assert phi1.degree() == 10

    def test_shared_degree(self, fam):
        assert all(m.degree() == fam.degree == 10 for m in members(fam, 9.0))

    def test_boundary_vanishing(self, fam):
        for m in members(fam, 9.0):
            assert m(0.0) == 0.0
            assert abs(m(9.0)) <= 1e-12 * abs(m(4.5))

    def test_first_derivative_vanishes_at_endpoints(self, fam):
        d2 = members(fam, 9.0)[1].deriv()
        scale = np.abs(d2(np.linspace(0, 9, 101))).max()
        assert abs(d2(0.0)) <= 1e-13 * scale
        assert abs(d2(9.0)) <= 1e-13 * scale

    @pytest.mark.parametrize("args", [(1, 3), (3, 1), (3.0, 3), ("3", 3), (True, 3)])
    def test_invalid_parameters(self, args):
        build_family(3, 3)  # a cached N = 3 family must not answer for N = 3.0
        with pytest.raises(ValueError, match=r"N and b must be integers >= 2, got N="):
            build_family(*args)

    def test_factored_powers_recorded(self, fam):
        assert fam.powers == ((6, 4), (5, 5), (4, 6))

    def test_cached_family_shared(self):
        assert build_family(3, 3) is build_family(3, 3)

    def test_shared_coefficients_read_only(self, fam):
        T = fam.table
        with pytest.raises(ValueError):
            T[0, 0, 0] = T[0, 0, 0]  # the same value: a writable family stays intact


class TestDataMomentsColumns:
    """The family sampled on a measurement grid, seen through the columns of
    DataMoments: B and G are checked against sampled derivatives, A and C
    against sampled members."""

    def test_integer_order_matches_second_derivative(self, fam):
        x, c = grid_data(301)
        B, _ = block_of(fam, sampled(x, c, c), 9.0).fractional_columns(2.0)
        for m, got in zip(members(fam, 9.0), B):
            ref = trapezoid(m.deriv(2)(x) * c[::-1], dx=x[1])
            assert got == pytest.approx(ref, rel=1e-10)

    def test_fractional_rows_vanish_at_origin(self, fam):
        # D^alpha phi_n and its alpha-sensitivity vanish at x = 0, so the
        # sample c(L1) that multiplies them there cannot contribute
        x, c = grid_data(101)
        c2 = c.copy()
        c2[-1] = 1e6
        for alpha in (1.3, 1.8):
            B, G = block_of(fam, sampled(x, c, c), 9.0).fractional_columns(alpha)
            B2, G2 = block_of(fam, sampled(x, c2, c), 9.0).fractional_columns(alpha)
            assert np.array_equal(B, B2) and np.array_equal(G, G2)

    def test_phi_rows_vanish_at_endpoints(self, fam):
        # phi_n and phi_n' vanish at both ends: endpoint samples do not enter A or C
        x, c = grid_data(101)
        c2 = c.copy()
        c2[[0, -1]] = 1e6
        m1 = block_of(fam, sampled(x, c, c), 9.0)
        m2 = block_of(fam, sampled(x, c2, c2), 9.0)
        for got, ref in ((m2.A, m1.A), (m2.C, m1.C)):
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_sensitivity_row_finite_difference(self, fam):
        alpha, h = 1.8, 1e-5
        x, c = grid_data(101)
        mom = block_of(fam, sampled(x, c, c), 9.0)
        _, G = mom.fractional_columns(alpha)
        fd = (mom.fractional_columns(alpha + h)[0] - mom.fractional_columns(alpha - h)[0]) / (2 * h)
        assert np.abs(G - fd).max() <= 1e-6 * np.abs(G).max()

    def test_grid_spacing(self, fam):
        # 10 points on [0, 9]: spacing 1, so C is the unit-step trapezoid of phi_n
        x = np.linspace(0.0, 9.0, 10)
        ones = np.ones(10)
        C = block_of(fam, sampled(x, ones, ones), 9.0).C
        for m, got in zip(members(fam, 9.0), C):
            assert got == pytest.approx(trapezoid(m(x), dx=1.0), rel=1e-12)

    @pytest.mark.parametrize("alpha,M", [(1.0, 101), (2.1, 101), (1.5, 2)])
    def test_invalid_arguments(self, fam, alpha, M):
        x = np.linspace(0.0, 9.0, M)
        with pytest.raises(ValueError):
            block_of(fam, sampled(x, x, x), 9.0).fractional_columns(alpha)

    def test_dphi_matches_polynomial_derivative(self, fam):
        x, c = grid_data(77)
        A = block_of(fam, sampled(x, c, c), 9.0).A
        for m, got in zip(members(fam, 9.0), A):
            ref = trapezoid(-m.deriv()(9.0 - x) * c, dx=x[1])
            assert got == pytest.approx(ref, rel=1e-9)


class TestDataMoments:
    """B and G against the direct quadrature of the sampled fractional
    derivatives, on noisy Table-1 data.  The reference evaluates each member
    through its monomial expansion, whose cancellation in float64 limits the
    agreement at larger N; TestMpmathOracle holds B and G far tighter."""

    @pytest.fixture(scope="class")
    def table1(self):
        return synthesize(TABLE1, 31501, noise_level=0.02, seed=0)

    @pytest.mark.parametrize("N,tol", [(3, 1e-8), (7, 1e-8), (11, 1e-6)])
    @pytest.mark.parametrize("alpha", [1.3, 1.8, 2.0])
    def test_matches_direct_trapezoid(self, table1, N, tol, alpha, rl_reference):
        x, c = table1.x, table1.c_noisy
        fam = build_family(N, 3)
        B, G = block_of(fam, sampled(x, c, c), 9.0).fractional_columns(alpha)
        refs = np.array([trapezoid(rl_reference(m, alpha, x) * c[::-1], dx=x[1]) for m in members(fam, 9.0)])
        for got, ref in zip((B, G), refs.T):
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max()

    @pytest.mark.parametrize("L1", [nan, inf, -inf])
    def test_non_finite_L1_rejected(self, fam, L1):
        with pytest.raises(ValueError, match=f"L1={L1} does not leave a usable sub-grid"):
            block_of(fam, synthesize(TrueModel(), 101), L1)

    @pytest.mark.parametrize("N", [3, 7, 11, 20])
    def test_alpha_free_columns_match_longdouble(self, table1, N):
        # the factored trapezoid sums of A and C, in extended precision
        fam = build_family(N, 3)
        x, c, rhs = table1.x, table1.c_noisy, table1.dcdt_noisy - table1.r
        mom = block_of(fam, table1, 9.0)
        xl = x.astype(np.longdouble)
        yl = np.longdouble(9.0) - xl
        w = np.full(len(x), xl[1])
        w[[0, -1]] /= 2
        wc = w * c[::-1].astype(np.longdouble)
        wr = w * rhs[::-1].astype(np.longdouble)
        A_ref, C_ref = np.empty(N, np.longdouble), np.empty(N, np.longdouble)
        for n, (a, e) in enumerate(fam.powers):
            base = xl ** (a - 1) * yl ** (e - 1)
            A_ref[n] = -np.sum(base * (a * yl - e * xl) * wc)
            C_ref[n] = np.sum(base * xl * yl * wr)
        for got, ref in ((mom.A, A_ref), (mom.C, C_ref)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def mp_moments(x, c, alpha, kmax):
    """m_k = sum_j w_j x_j^(k-alpha) c(L1-x_j) and l_k, the same with a
    ln(x_j) factor, for k = 0..kmax in 50-digit arithmetic (trapezoid
    weights, the x = 0 node omitted as its terms vanish)."""
    with mp.workdps(50):
        al, dx = mp.mpf(alpha), mp.mpf(float(x[1] - x[0]))
        m, l = [mp.mpf(0)] * (kmax + 1), [mp.mpf(0)] * (kmax + 1)
        for j, (xj, cj) in enumerate(zip(x[1:], c[-2::-1]), start=1):
            xj = mp.mpf(float(xj))
            t = dx * mp.mpf(float(cj)) * xj ** (-al) / (2 if j == len(x) - 1 else 1)
            lx = mp.log(xj)
            for k in range(kmax + 1):
                m[k] += t
                l[k] += t * lx
                t *= xj
        return m, l


class TestMpmathOracle:
    """B and G against the same trapezoid sums in 50-digit arithmetic.  The
    reference expands each member in monomials, D^alpha x^k =
    Gamma(k+1)/Gamma(k+1-alpha) x^(k-alpha), and lets 50 digits absorb the
    cancellation, so it shares neither basis nor rounding with DataMoments."""

    KMAX = 20 + 2 * 3 + 1  # the largest degree tested

    @pytest.fixture(scope="class")
    def data(self):
        ms = synthesize(TABLE1, 451, noise_level=0.02, seed=0)
        return ms.x, ms.c_noisy

    @pytest.fixture(scope="class", params=[1.3, 1.8, 2.0])
    def moments(self, request, data):
        return request.param, mp_moments(*data, request.param, self.KMAX)

    @pytest.mark.parametrize("N", [3, 11, 20])
    def test_matches_50_digit_sums(self, data, moments, N):
        alpha, (m, l) = moments
        fam = build_family(N, 3)
        B_ref, G_ref = np.empty(N), np.empty(N)
        with mp.workdps(50):
            al = mp.mpf(alpha)
            for n, (a, e) in enumerate(fam.powers):
                B = G = mp.mpf(0)
                for i in range(e + 1):  # x^a (9-x)^e, exact integer coefficients
                    k = a + i
                    g = comb(e, i) * 9 ** (e - i) * (-1) ** i * mp.gamma(k + 1) / mp.gamma(k + 1 - al)
                    B += g * m[k]
                    G += g * (mp.digamma(k + 1 - al) * m[k] - l[k])
                B_ref[n], G_ref[n] = B, G
        x, c = data
        B, G = block_of(fam, sampled(x, c, c), 9.0).fractional_columns(alpha)
        assert np.abs(B - B_ref).max() <= 1e-11 * np.abs(B_ref).max()
        assert np.abs(G - G_ref).max() <= 1e-10 * np.abs(G_ref).max()


class TestFractionalIntegrationByParts:
    """Both integrands are bounded for test functions with min power >= 2."""

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
    def test_identity_on_regular_test_function(self, alpha, rl_reference):
        L1, M = 9.0, 10001
        fam = build_family(3, 3)
        f = Polynomial([0.0, 0.0, L1, -1.0])  # x^2 (L1 - x)
        x = np.linspace(0.0, L1, M)
        dx = x[1] - x[0]
        df = rl_reference(f, alpha, x)[0]
        for member in members(fam, L1):
            left = trapezoid(member(Polynomial([L1, -1.0]))(x) * df, dx=dx)
            right = trapezoid(rl_reference(member, alpha, x)[0] * f(L1 - x), dx=dx)
            assert abs(left - right) <= 1e-4 * abs(right)

    def test_identity_other_interval_length(self, rl_reference):
        L1, M, alpha = 5.0, 10001, 1.7
        fam = build_family(4, 3)
        f = Polynomial([0.0, 0.0, 0.0, 1.0, -0.1])
        x = np.linspace(0.0, L1, M)
        dx = x[1] - x[0]
        df = rl_reference(f, alpha, x)[0]
        for member in members(fam, L1):
            left = trapezoid(member(Polynomial([L1, -1.0]))(x) * df, dx=dx)
            right = trapezoid(rl_reference(member, alpha, x)[0] * f(L1 - x), dx=dx)
            assert abs(left - right) <= 1e-4 * abs(right)


class TestGridBasis:
    """A grid basis, built for a grid, L1 and a family, serves the block of
    every data set sampled at its nodes, and of no other."""

    @staticmethod
    def same_moments(a, b):
        pairs = [(a.A, b.A), (a.C, b.C), (a.s_c, b.s_c), (a.s_r, b.s_r)]
        for alpha in (1.3, 1.8):
            pairs += zip(a.fractional_columns(alpha), b.fractional_columns(alpha))
        return all(np.array_equal(got, ref) for got, ref in pairs)

    @pytest.mark.parametrize("L1", [9.0, 5.0])
    def test_shared_basis_exact(self, L1):
        fam = build_family(7, 3)
        basis = GridBasis(synthesize(TABLE1, 2701).x, L1, fam)
        ms = synthesize(TABLE1, 2701, noise_level=0.02, seed=4)
        shared = DataMoments(ms, basis)
        assert shared.basis is basis
        assert self.same_moments(shared, block_of(fam, ms, L1))

    def test_same_nodes_on_a_shorter_grid_served(self):
        # the basis's nodes decide, not where the data's grid ends
        fam = build_family(7, 3)
        ms = synthesize(TABLE1, 2701, noise_level=0.02, seed=4)
        short = MeasurementSet(*(getattr(ms, f)[:1600] for f in CSV_HEADER))
        block = DataMoments(short, GridBasis(ms.x, 5.0, fam))
        assert self.same_moments(block, block_of(fam, ms, 5.0))

    @pytest.mark.parametrize("truth,M,L1", [
        (TrueModel(L=8.0), 2701, 9.0),  # as many samples on another domain
        (TABLE1, 2703, 9.0),            # another M on the same domain
        (TABLE1, 2703, 5.0),            # another M, a sub-interval
        (TABLE1, 901, 5.0),             # fewer samples than the basis has nodes
    ], ids=["other-L", "other-M", "other-M-sub", "too-few"])
    def test_other_grid_rejected(self, truth, M, L1):
        basis = GridBasis(synthesize(TABLE1, 2701).x, L1, build_family(7, 3))
        ms = synthesize(truth, M, noise_level=0.02, seed=4)
        with pytest.raises(ValueError, match=f"not sampled at the {len(basis.x)} nodes"):
            DataMoments(ms, basis)

    def test_basis_read_only(self):
        basis = GridBasis(np.linspace(0.0, 9.0, 91), 9.0, build_family(3, 3))
        assert basis.X.shape == (8, 90) and not basis.X.flags.writeable


class TestLift:
    """A family's moments lifted from a higher-degree block by degree
    elevation against the same family's own block."""

    @pytest.fixture(scope="class")
    def table1(self):
        return synthesize(TABLE1, 31501, noise_level=0.02, seed=0)

    @pytest.mark.parametrize("L1", [9.0, 5.0, 0.05])
    def test_matches_own_block(self, table1, L1):
        block = block_of(build_family(21, 3), table1, L1)
        for N in range(2, 22):
            fam = build_family(N, 3)
            own, lifted = block_of(fam, table1, L1), block.lift(fam)
            pairs = [(lifted.A, own.A), (lifted.C, own.C)]
            for alpha in (1.01, 1.3, 1.8, 2.0):
                pairs += zip(lifted.fractional_columns(alpha), own.fractional_columns(alpha))
            for got, ref in pairs:
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_own_degree_is_not_lifted(self, table1):
        # the block's own family takes the identity lift, which is exact
        fam = build_family(7, 3)
        block = block_of(fam, table1, 9.0)
        view = block.lift(fam)
        assert np.array_equal(view.A, block.A) and np.array_equal(view.C, block.C)
        for got, ref in zip(view.fractional_columns(1.7), block.fractional_columns(1.7)):
            assert np.array_equal(got, ref)

    def test_views_share_the_alpha_memo(self, table1):
        block = block_of(build_family(11, 3), table1, 9.0)
        small, mid = block.lift(build_family(3, 3)), block.lift(build_family(7, 3))
        small.fractional_columns(1.5)
        mid.fractional_columns(1.5)
        block.fractional_columns(1.6)
        assert list(block._memo) == [1.5, 1.6] and mid._memo is block._memo

    @pytest.mark.parametrize("N,b", [(12, 3), (3, 2), (5, 4)])
    def test_other_b_or_higher_degree_rejected(self, table1, N, b):
        block = block_of(build_family(11, 3), table1, 9.0)
        with pytest.raises(ValueError, match="cannot lift"):
            block.lift(build_family(N, b))
