"""Closed-form Riemann-Liouville fractional derivatives of polynomials.

Every fractional derivative in fadeid rests on the power rule, written once
in :func:`power_rule`:

    D^a x^k = g_k x^(k-a),   g_k = Gamma(k+1) / Gamma(k+1-a),
    d/da [g_k x^(k-a)] = g_k x^(k-a) (psi(k+1-a) - ln x).

When k+1-a hits a Gamma pole the reciprocal Gamma gives g_k = 0, which
reproduces classical differentiation at integer order.

:func:`rl_derivative` and :func:`rl_alpha_sensitivity` apply the rule term
by term and return pointwise evaluators on x >= 0.  Polynomials are
:class:`numpy.polynomial.Polynomial` objects with the default domain and
window, so ``p.coef[k]`` multiplies x^k.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial, polynomial as npp
from scipy import special


def power_rule(k: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(g, psi) over a float array of powers k: g = Gamma(k+1)/Gamma(k+1-alpha)
    and psi = psi(k+1-alpha), for an order alpha in (0, 2]."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"fractional order must be in (0, 2], got {alpha}")
    z = k + 1 - alpha
    return special.gamma(k + 1) * special.rgamma(z), special.psi(z)


def _evaluator(alpha: float, q: np.ndarray, s: np.ndarray | None = None):
    """x -> x^(-alpha) polyval(x, q), or with s given
    x -> x^(-alpha) (polyval(x, s) - ln x polyval(x, q)), on x >= 0.

    At x = 0 the value is 0 when every power with a nonzero q has
    k - alpha > 0, and q[k] when k == alpha; a negative power is singular
    there and rejected.
    """
    alpha = float(alpha)
    live = np.flatnonzero(q)
    e0 = live[0] - alpha if len(live) else 1.0
    at_zero = q[live[0]] if e0 == 0.0 else 0.0

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        pos = x > 0.0
        xp = x[pos]
        v = npp.polyval(xp, q)
        if s is not None:
            v = npp.polyval(xp, s) - np.log(xp) * v
        out[pos] = xp ** (-alpha) * v
        zero = x == 0.0
        if e0 < 0.0 and zero.any():
            raise ValueError("fractional derivative is singular at x=0 (negative exponent)")
        out[zero] = at_zero
        return float(out[0]) if scalar else out

    return evaluate


def rl_derivative(p: Polynomial, alpha: float):
    """Pointwise evaluator of the Riemann-Liouville derivative D^alpha p,
    alpha in (0, 2], on x >= 0."""
    g, _ = power_rule(np.arange(len(p.coef), dtype=float), alpha)
    return _evaluator(alpha, p.coef * g)


def rl_alpha_sensitivity(p: Polynomial, alpha: float):
    """Pointwise evaluator of d/dalpha [D^alpha p](x) on x >= 0.

    It tends to 0 at x = 0 provided every power k with a nonzero
    coefficient satisfies k - alpha > 0 (required here).
    """
    k = np.arange(len(p.coef), dtype=float)
    g, psi = power_rule(k, alpha)
    low = (p.coef != 0.0) & (k - alpha <= 0.0)
    if low.any():
        raise ValueError(
            f"monomial power {int(k[low][0])} violates k - alpha > 0 (alpha={alpha})"
        )
    q = p.coef * g
    # psi is infinite or nan at the Gamma poles, where q is 0
    return _evaluator(alpha, q, q * np.where(q != 0.0, psi, 0.0))
