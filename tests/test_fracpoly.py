import mpmath
import numpy as np
import pytest
from scipy.special import gamma, psi as digamma, rgamma

from fadeid.fracpoly import power_rule

mpmath.mp.dps = 30


class TestSpecialFunctions:
    """The scipy.special values fracpoly.power_rule uses, the only caller in fadeid."""

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
        # the zero coefficients that make power_rule classical at alpha = 1, 2
        assert rgamma(z) == 0.0

    def test_rgamma_matches_gamma_off_poles(self):
        for z in (0.3, 1.5, 4.0, 17.2):
            assert rgamma(z) == pytest.approx(1.0 / gamma(z), rel=1e-14)


class TestPowerRule:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.8, 2.0])
    def test_against_mpmath(self, alpha):
        g, psi = power_rule(np.arange(28, dtype=float), alpha)
        for k in range(28):
            z = mpmath.mpf(k + 1) - mpmath.mpf(alpha)
            if z in (0, -1):  # Gamma poles
                assert g[k] == 0.0
                continue
            ref = float(mpmath.gamma(k + 1) * mpmath.rgamma(z))
            assert abs(g[k] - ref) <= 1e-12 * abs(ref)
            if z > 0:
                assert abs(psi[k] - float(mpmath.digamma(z))) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.0, -0.3, 2.0001, 3.0])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            power_rule(np.arange(4.0), alpha)
