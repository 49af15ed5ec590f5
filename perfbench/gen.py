"""Measurement sets built without fadeid.

The benchmark problem on [0, L] has the closed-form solution
c = cos T * x(L-x) and dc/dt = -sin T * x(L-x).  The source r closes the
transport equation, r = dc/dt + nu dc/dx - d D^alpha c, with the
Riemann-Liouville derivative taken term by term from the Gamma-function
power rule D^alpha x^k = Gamma(k+1)/Gamma(k+1-alpha) x^(k-alpha).  r is
singular like x^(1-alpha) at the origin; the sample at x = 0 is stored as 0,
the convention fadeid documents for the same (integrable) point.

Noise is additive white Gaussian noise with sigma = level * RMS(clean
channel), drawn independently for the concentration and the flux from a
numpy generator seeded by the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special


@dataclass(frozen=True)
class Truth:
    nu: float
    d: float
    alpha: float
    L: float = 9.0
    T: float = 1.0


#: Table 1 of the paper (three-parameter study) and its Example 1.
TABLE1 = Truth(nu=0.5, d=1.0, alpha=1.8)
EXAMPLE1 = Truth(nu=0.2, d=1.0, alpha=1.8)


@dataclass(frozen=True)
class Clean:
    x: np.ndarray
    c: np.ndarray
    dcdt: np.ndarray
    r: np.ndarray


def clean(truth: Truth, M: int) -> Clean:
    """Noise-free samples on M uniform points spanning [0, L]."""
    L, a = truth.L, truth.alpha
    x = np.linspace(0.0, L, M)
    p = x * (L - x)
    cos_t, sin_t = math.cos(truth.T), math.sin(truth.T)
    c = cos_t * p
    dcdt = -sin_t * p
    xp = x[1:]
    # D^alpha (L x - x^2) from the power rule, k = 1 and k = 2
    frac = cos_t * (
        L * special.gamma(2.0) * special.rgamma(2.0 - a) * xp ** (1.0 - a)
        - special.gamma(3.0) * special.rgamma(3.0 - a) * xp ** (2.0 - a)
    )
    r = np.zeros_like(x)
    r[1:] = dcdt[1:] + truth.nu * cos_t * (L - 2.0 * xp) - truth.d * frac
    return Clean(x, c, dcdt, r)


def noisy(base: Clean, level: float, entropy) -> tuple[np.ndarray, np.ndarray]:
    """(c_noisy, dcdt_noisy) for one noise realisation; level 0 returns the clean channels."""
    if level == 0.0:
        return base.c, base.dcdt
    rng = np.random.default_rng(entropy)
    sig_c = level * math.sqrt(float(np.mean(base.c**2)))
    sig_f = level * math.sqrt(float(np.mean(base.dcdt**2)))
    c_n = base.c + sig_c * rng.standard_normal(len(base.c))
    f_n = base.dcdt + sig_f * rng.standard_normal(len(base.dcdt))
    return c_n, f_n


def check_against(base: Clean, ms) -> list[str]:
    """Differences between fadeid's clean synthetic channels and ``base``.

    ``r`` is compared only on x >= 0.1, away from its singular point.
    """
    problems = []
    if not np.array_equal(base.x, np.asarray(ms.x)):
        problems.append("grid x differs")
    for name in ("c", "dcdt"):
        ref = getattr(base, name)
        err = float(np.max(np.abs(np.asarray(getattr(ms, name)) - ref)))
        if err > 1e-12 * float(np.max(np.abs(ref))):
            problems.append(f"{name} differs by {err:.3e}")
    away = base.x >= 0.1
    r_ms = np.asarray(ms.r)
    err = float(np.max(np.abs(r_ms[away] - base.r[away])))
    if err > 1e-10 * float(np.max(np.abs(base.r[away]))):
        problems.append(f"r differs by {err:.3e} on x >= 0.1")
    if r_ms[0] != 0.0:
        problems.append(f"r(0) = {r_ms[0]!r}, expected 0")
    return problems
