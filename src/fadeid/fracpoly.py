"""Closed-form Riemann-Liouville fractional derivatives of polynomials.

A monomial maps through the fractional derivative of order ``a`` as

    D^a x^k = Gamma(k+1) / Gamma(k+1-a) * x^(k-a),

so a polynomial maps to a finite expansion in powers x^(k-a) with integer k.
The expansion stores the integer powers k together with a single shared
order, which keeps exponent bookkeeping exact: no floating-point exponent
ever needs to be compared for equality.

Polynomials are :class:`numpy.polynomial.Polynomial` objects with the
default domain and window, so ``p.coef[k]`` multiplies x^k.  All objects
defined here are immutable; every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial, polynomial as npp
from scipy import special

#: Supported fractional order range (exclusive lower bound).
ALPHA_MIN = 0.0
ALPHA_MAX = 2.0


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not ALPHA_MIN < alpha <= ALPHA_MAX:
        raise ValueError(f"fractional order must be in (0, 2], got {alpha}")
    return alpha


@dataclass(frozen=True)
class FracExpansion:
    """Finite sum of terms c_k * x^(k - alpha) with integer k >= 0.

    ``coeffs[k]`` multiplies x^(k - alpha); the shared order keeps the
    exponents exact.  Exponents may be negative (k < alpha), in which case
    evaluation at x = 0 is undefined and rejected.
    """

    alpha: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def terms(self) -> list[tuple[float, float]]:
        """Nonzero (coefficient, exponent) pairs, exponents strictly increasing."""
        return [(c, k - self.alpha) for k, c in enumerate(self.coeffs) if c != 0.0]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        pos = x > 0.0
        xp = x[pos]
        out[pos] = xp ** (-self.alpha) * npp.polyval(xp, self.coeffs)
        if np.any(x == 0.0):
            out[x == 0.0] = self._value_at_zero()
        return float(out[0]) if scalar else out

    def _value_at_zero(self) -> float:
        for k, c in enumerate(self.coeffs):
            if c == 0.0:
                continue
            e = k - self.alpha
            if e < 0.0:
                raise ValueError("expansion is singular at x=0 (negative exponent)")
            if e == 0.0:
                return c
            break
        return 0.0


def rl_derivative(p: Polynomial, alpha: float) -> FracExpansion:
    """Riemann-Liouville derivative of order alpha in (0, 2] of a polynomial.

    Term-by-term: x^k -> Gamma(k+1)/Gamma(k+1-alpha) * x^(k-alpha).  When
    k+1-alpha hits a Gamma pole the reciprocal-Gamma limit gives a zero
    coefficient, which reproduces classical differentiation at integer order.
    """
    alpha = _check_alpha(alpha)
    coeffs = tuple(
        c * math.gamma(k + 1) * special.rgamma(k + 1 - alpha)
        for k, c in enumerate(p.coef)
    )
    return FracExpansion(alpha, coeffs)


def rl_alpha_sensitivity(p: Polynomial, alpha: float):
    """Pointwise evaluator of d/dalpha [D^alpha p](x) on x >= 0.

    Per monomial:

        d/da [G(k+1)/G(k+1-a) x^(k-a)]
            = G(k+1)/G(k+1-a) x^(k-a) (psi(k+1-a) - ln x),

    which tends to 0 at x = 0 provided every power k with a nonzero
    coefficient satisfies k - alpha > 0 (required here).
    """
    alpha = _check_alpha(alpha)
    for k, c in enumerate(p.coef):
        if c != 0.0 and k - alpha <= 0.0:
            raise ValueError(
                f"monomial power {k} violates k - alpha > 0 (alpha={alpha})"
            )
    q = [c * math.gamma(k + 1) * special.rgamma(k + 1 - alpha) for k, c in enumerate(p.coef)]
    s = [qk * special.psi(k + 1 - alpha) if qk != 0.0 else 0.0 for k, qk in enumerate(q)]

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        pos = x > 0.0
        xp = x[pos]
        out[pos] = xp ** (-alpha) * (
            npp.polyval(xp, s) - np.log(xp) * npp.polyval(xp, q)
        )
        return float(out[0]) if scalar else out

    return evaluate
