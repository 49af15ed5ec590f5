import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import Polynomial
from scipy.special import gamma, psi as digamma, rgamma

from fadeid.fracpoly import FracExpansion, rl_derivative, rl_alpha_sensitivity

mpmath.mp.dps = 30


class TestSpecialFunctions:
    """The scipy.special values fracpoly and modfun use directly."""

    def test_gamma_frozen_values(self):
        assert gamma(1.5) == pytest.approx(0.886226925452758, rel=1e-14)
        assert gamma(5.0) == 24.0

    def test_gamma_accuracy_against_mpmath(self):
        for z in np.linspace(0.1, 30.0, 300):
            ref = float(mpmath.gamma(z))
            assert abs(gamma(z) - ref) <= 1e-12 * abs(ref)

    def test_digamma_frozen_value(self):
        # negative Euler-Mascheroni constant
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-14)

    def test_digamma_accuracy_against_mpmath(self):
        for z in np.linspace(0.1, 30.0, 300):
            assert abs(digamma(z) - float(mpmath.digamma(z))) <= 1e-10

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_rgamma_total_at_poles(self, z):
        # the zero coefficients that make rl_derivative classical at alpha = 1, 2
        assert rgamma(z) == 0.0

    def test_rgamma_matches_gamma_off_poles(self):
        for z in (0.3, 1.5, 4.0, 17.2):
            assert rgamma(z) == pytest.approx(1.0 / gamma(z), rel=1e-14)


class TestRlDerivative:
    def test_integer_order_second_derivative(self):
        fx = rl_derivative(Polynomial.basis(2), 2.0)
        assert fx.terms == [(2.0, 0.0)]

    def test_half_order_of_x(self):
        fx = rl_derivative(Polynomial.basis(1), 0.5)
        [(coeff, expo)] = fx.terms
        assert expo == 0.5
        assert coeff == pytest.approx(1.1283791670955126, rel=1e-13)  # 1/Gamma(1.5)

    def test_source_structure_alpha_18(self):
        # x(9-x) -> 9 Gamma(2)/Gamma(0.2) x^-0.8 - Gamma(3)/Gamma(1.2) x^0.2
        fx = rl_derivative(Polynomial([0.0, 9.0, -1.0]), 1.8)
        terms = fx.terms
        assert [e for _, e in terms] == pytest.approx([-0.8, 0.2])
        assert terms[0][0] == pytest.approx(9.0 * rgamma(0.2), rel=1e-13)
        assert terms[1][0] == pytest.approx(-2.0 * rgamma(1.2), rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, -0.3, 2.0001, 3.0])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            rl_derivative(Polynomial.basis(3), alpha)

    def test_pole_totality(self):
        # x^1 at alpha=2: k+1-alpha = 0 is a Gamma pole, coefficient must vanish
        fx = rl_derivative(Polynomial.basis(1), 2.0)
        assert fx.terms == []
        assert fx(1.7) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=8),
        st.lists(st.floats(-5, 5), min_size=1, max_size=8),
        st.floats(0.1, 2.0),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    def test_linearity(self, pc, qc, alpha, a, b):
        p, q = Polynomial(pc), Polynomial(qc)
        combo = a * p + b * q
        lhs = rl_derivative(combo, alpha)
        n = max(len(lhs.coeffs), len(pc), len(qc))
        rhs = np.zeros(n)
        for poly, s in ((p, a), (q, b)):
            c = np.array(rl_derivative(poly, alpha).coeffs)
            rhs[: len(c)] += s * c
        scale = max(np.abs(rhs).max(), 1e-30)
        lhs_c = np.zeros(n)
        lhs_c[: len(lhs.coeffs)] = lhs.coeffs
        assert np.abs(lhs_c - rhs).max() <= 1e-12 * max(scale, 1.0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_integer_order_matches_classical(self, alpha):
        p = Polynomial([4.0, -1.0, 2.5, 3.0, -0.5])
        ref = p
        for _ in range(int(alpha)):
            ref = ref.deriv()
        fx = rl_derivative(p, alpha)
        got = dict((int(e), c) for c, e in fx.terms)
        for k, c in enumerate(ref.coef):
            assert got.get(k, 0.0) == pytest.approx(c, rel=1e-12, abs=1e-12)


class TestFracExpansion:
    def test_eval_at_zero_positive_exponents(self):
        fx = FracExpansion(1.5, (0.0, 0.0, 1.0))  # x^0.5
        assert fx(0.0) == 0.0

    def test_eval_at_zero_constant_term(self):
        fx = FracExpansion(2.0, (0.0, 0.0, 3.0))  # 3 x^0
        assert fx(0.0) == 3.0

    def test_eval_at_zero_negative_exponent_rejected(self):
        fx = FracExpansion(1.8, (0.0, 1.0))  # x^-0.8
        with pytest.raises(ValueError):
            fx(0.0)

    def test_terms_strictly_increasing_exponents(self):
        fx = rl_derivative(Polynomial([1.0, 2.0, 0.0, 4.0]), 1.3)
        exps = [e for _, e in fx.terms]
        assert all(b > a for a, b in zip(exps, exps[1:]))

    def test_array_evaluation(self):
        fx = rl_derivative(Polynomial.basis(3), 1.5)
        x = np.array([0.0, 0.25, 1.0, 4.0])
        expect = math.gamma(4) * rgamma(2.5) * x**1.5
        np.testing.assert_allclose(fx(x), expect, rtol=1e-13)


class TestAlphaSensitivity:
    def test_frozen_value_at_one(self):
        # Gamma(5)/Gamma(3.2) * digamma(3.2); the ln x factor drops at x=1
        ev = rl_alpha_sensitivity(Polynomial.basis(4), 1.8)
        assert ev(1.0) == pytest.approx(9.889634810936984, rel=1e-12)

    def test_zero_at_origin(self):
        ev = rl_alpha_sensitivity(Polynomial.basis(4), 1.8)
        assert ev(0.0) == 0.0

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.95])
    def test_finite_difference_oracle(self, alpha):
        p = Polynomial.basis(4)
        h = 1e-5
        x = np.linspace(0.05, 1.0, 21)
        fd = (rl_derivative(p, alpha + h)(x) - rl_derivative(p, alpha - h)(x)) / (2 * h)
        got = rl_alpha_sensitivity(p, alpha)(x)
        assert np.abs(got - fd).max() <= 1e-7 * np.abs(got).max()

    def test_second_order_in_step(self):
        p = Polynomial.basis(6)
        x = 0.7
        exact = rl_alpha_sensitivity(p, 1.6)(x)
        errs = []
        for h in (1e-2, 1e-3):
            fd = (rl_derivative(p, 1.6 + h)(x) - rl_derivative(p, 1.6 - h)(x)) / (2 * h)
            errs.append(abs(fd - exact))
        assert errs[1] <= errs[0] / 50  # ~100x for a 10x smaller step

    def test_low_power_rejected(self):
        with pytest.raises(ValueError):
            rl_alpha_sensitivity(Polynomial([0.0, 1.0, 1.0]), 1.8)
