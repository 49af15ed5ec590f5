"""Closed-form Riemann-Liouville fractional derivatives of polynomials.

Every fractional derivative in fadeid rests on the power rule, written once
in :func:`power_rule`:

    D^a x^k = g_k x^(k-a),   g_k = Gamma(k+1) / Gamma(k+1-a),
    d/da [g_k x^(k-a)] = g_k x^(k-a) (psi(k+1-a) - ln x).

When k+1-a hits a Gamma pole the reciprocal Gamma gives g_k = 0, which
reproduces classical differentiation at integer order.
"""

from __future__ import annotations

import numpy as np
from scipy import special


def power_rule(k: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(g, psi) over a float array of powers k: g = Gamma(k+1)/Gamma(k+1-alpha)
    and psi = psi(k+1-alpha), for an order alpha in (0, 2]."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"fractional order must be in (0, 2], got {alpha}")
    z = k + 1 - alpha
    return special.gamma(k + 1) * special.rgamma(z), special.psi(z)
