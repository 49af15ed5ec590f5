"""Built-in invariant checks, runnable without any experiment data.

Each check holds the estimator's own moments (B, G of DataMoments) or its
linearization to one structural identity, computed by an independent route
(exact calculus, finite differences, or direct quadrature), and reports
PASS/FAIL.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial, polynomial as npp
from scipy.integrate import trapezoid

from .fracpoly import power_rule
from .modfun import DataMoments, ModulatingFamily, build_family
from .synthdata import MeasurementSet, TrueModel, synthesize
from .estimator import EstimatorConfig, linearize, measurement_moments


def members(fam: ModulatingFamily, L1: float) -> list[Polynomial]:
    """The family's members x^a (L1-x)^e on [0, L1], expanded in monomials."""
    return [Polynomial.basis(a) * Polynomial([L1, -1.0]) ** e for a, e in fam.powers]


def sampled(x: np.ndarray, c: np.ndarray, rhs: np.ndarray) -> MeasurementSet:
    """Samples c and rhs = dc/dt - r (with r = 0) on the grid x."""
    return MeasurementSet(x, c, rhs, np.zeros_like(x), c, rhs)


def check_integer_order() -> tuple[bool, str]:
    ms = synthesize(TrueModel(), 1351, noise_level=0.03, seed=7)
    cfg = EstimatorConfig(L1=9.0, N=4)
    B, _ = measurement_moments(ms, cfg).fractional_columns(2.0)
    ref = np.array([trapezoid(m.deriv(2)(ms.x) * ms.c_noisy[::-1], ms.x)  # c(L1 - x)
                    for m in members(build_family(cfg.N, cfg.b), cfg.L1)])
    worst = float(np.abs(B - ref).max() / np.abs(ref).max())
    return worst <= 1e-12, f"max rel discrepancy {worst:.2e} (tol 1e-12)"


def check_lemma1_identity() -> tuple[bool, str]:
    L1, M = 9.0, 10001
    f = Polynomial([0.0, 0.0, L1, -1.0])  # x^2 (L1 - x): both integrands bounded
    fam = build_family(3, 3)
    x = np.linspace(0.0, L1, M)
    mom = DataMoments(fam, sampled(x, f(x), f(x)), L1)
    worst = 0.0
    for alpha in (1.3, 1.8):
        right, _ = mom.fractional_columns(alpha)  # integral of D^alpha phi_n(x) f(L1 - x)
        g, _ = power_rule(np.arange(4.0), alpha)
        df = np.zeros(M)
        df[1:] = x[1:] ** -alpha * npp.polyval(x[1:], f.coef * g)  # D^alpha f, 0 at x = 0
        left = np.array([trapezoid(m(L1 - x) * df, x) for m in members(fam, L1)])
        worst = max(worst, float(np.max(np.abs(left - right) / np.abs(right))))
    return worst <= 1e-4, f"max rel mismatch {worst:.2e} (tol 1e-4)"


def check_sensitivity_fd() -> tuple[bool, str]:
    ms = synthesize(TrueModel(), 1351, noise_level=0.03, seed=7)
    mom = measurement_moments(ms, EstimatorConfig(L1=9.0, N=4))
    alpha, h = 1.8, 1e-5
    _, G = mom.fractional_columns(alpha)
    fd = (mom.fractional_columns(alpha + h)[0] - mom.fractional_columns(alpha - h)[0]) / (2 * h)
    worst = float(np.abs(G - fd).max() / np.abs(G).max())
    return worst <= 1e-8, f"max rel FD mismatch {worst:.2e} (tol 1e-8)"


def check_residual_identity() -> tuple[bool, str]:
    ms = synthesize(TrueModel(), 1351, noise_level=0.03, seed=7)
    mom = measurement_moments(ms, EstimatorConfig(L1=9.0, N=4))
    B, _ = mom.fractional_columns(1.7)
    nu, d = np.linalg.lstsq(np.column_stack([mom.A, B]), mom.C, rcond=None)[0]
    lsq_resid = nu * mom.A + d * B - mom.C
    K = linearize(mom, 1.7).K
    worst = float(np.abs((K - mom.C) - lsq_resid).max() / np.abs(lsq_resid).max())
    return worst <= 1e-12, f"max rel discrepancy {worst:.2e} (tol 1e-12)"


def check_gradient_fd() -> tuple[bool, str]:
    mom = measurement_moments(synthesize(TrueModel(nu=0.5), 1351), EstimatorConfig(L1=9.0, N=3))
    alpha, h = 1.75, 1e-4
    analytic = linearize(mom, alpha).Kp
    fd = (linearize(mom, alpha + h).K - linearize(mom, alpha - h).K) / (2 * h)
    worst = float(np.abs(analytic - fd).max() / np.abs(fd).max())
    return worst <= 1e-3, f"max rel FD mismatch {worst:.2e} (tol 1e-3)"


def check_boundary_conditions() -> tuple[bool, str]:
    worst = 0.0
    for member in members(build_family(5, 3), 9.0):
        scale = np.abs(member(np.linspace(0, 9, 101))).max()
        for q in (member, member.deriv()):
            worst = max(worst, abs(q(0.0)) / scale, abs(q(9.0)) / scale)
    return worst <= 1e-13, f"max scaled endpoint value {worst:.2e} (tol 1e-13)"


CHECKS = [
    ("integer-order consistency", check_integer_order),
    ("fractional integration by parts", check_lemma1_identity),
    ("order-sensitivity vs finite differences", check_sensitivity_fd),
    ("K-U equals least-squares residual", check_residual_identity),
    ("analytic gradient vs finite differences", check_gradient_fd),
    ("modulating boundary conditions", check_boundary_conditions),
]


def run_selftest() -> bool:
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn()
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
