"""Built-in invariant checks, runnable without any experiment data.

Each check exercises one structural identity of the method against an
independent route (exact calculus, finite differences, or direct
quadrature) and reports PASS/FAIL.
"""

from __future__ import annotations

import numpy as np

from .fracpoly import Polynomial, rl_derivative, rl_alpha_sensitivity
from .modfun import build_family
from .synthdata import TrueModel, synthesize, restrict
from .estimator import (
    assemble_theorem1,
    linearize,
    measurement_moments,
    solve_2col_least_squares,
    trapezoid,
)


def check_integer_order() -> tuple[bool, str]:
    p = Polynomial((3.0, -2.0, 1.5, 0.25, -1.0))
    worst = 0.0
    for alpha, ref in ((1.0, p.derivative()), (2.0, p.derivative().derivative())):
        fx = rl_derivative(p, alpha)
        x = np.linspace(0.1, 5.0, 57)
        scale = np.abs(ref(x)).max()
        worst = max(worst, float(np.abs(fx(x) - ref(x)).max() / scale))
    return worst <= 1e-12, f"max rel discrepancy {worst:.2e} (tol 1e-12)"


def check_lemma1_identity() -> tuple[bool, str]:
    L1, M = 9.0, 10001
    f = Polynomial((0.0, 0.0, L1, -1.0))  # x^2 (L1 - x): both integrands bounded
    fam = build_family(3, 3, L1)
    x = np.linspace(0.0, L1, M)
    dx = x[1] - x[0]
    worst = 0.0
    for alpha in (1.3, 1.8):
        df = rl_derivative(f, alpha)
        for member in fam.members:
            left = trapezoid(member.shift_reflect(L1)(x) * df(x), dx)
            right = trapezoid(rl_derivative(member, alpha)(x) * f(L1 - x), dx)
            worst = max(worst, abs(left - right) / abs(right))
    return worst <= 1e-4, f"max rel mismatch {worst:.2e} (tol 1e-4)"


def check_sensitivity_fd() -> tuple[bool, str]:
    p = Polynomial.monomial(4)
    alpha, h = 1.8, 1e-5
    x = np.linspace(0.05, 1.0, 23)
    analytic = rl_alpha_sensitivity(p, alpha)(x)
    fd = (rl_derivative(p, alpha + h)(x) - rl_derivative(p, alpha - h)(x)) / (2 * h)
    worst = float(np.abs(analytic - fd).max() / np.abs(analytic).max())
    return worst <= 1e-8, f"max rel FD mismatch {worst:.2e} (tol 1e-8)"


def check_residual_identity() -> tuple[bool, str]:
    ms = restrict(synthesize(TrueModel(), 1351, noise_level=0.03, seed=7), 9.0)
    sys1 = assemble_theorem1(measurement_moments(ms, build_family(4, 3, 9.0)), 1.7)
    nu, d, _ = solve_2col_least_squares(sys1)
    lsq_resid = nu * sys1.A_col + d * sys1.B_col - sys1.C_col
    K = linearize(sys1).K
    worst = float(
        np.abs((K - sys1.C_col) - lsq_resid).max() / np.abs(lsq_resid).max()
    )
    return worst <= 1e-12, f"max rel discrepancy {worst:.2e} (tol 1e-12)"


def check_gradient_fd() -> tuple[bool, str]:
    ms = restrict(synthesize(TrueModel(nu=0.5), 1351), 9.0)
    mom = measurement_moments(ms, build_family(3, 3, 9.0))
    alpha, h = 1.75, 1e-4

    def lin_at(a):
        return linearize(assemble_theorem1(mom, a))

    analytic = lin_at(alpha).Kp
    fd = (lin_at(alpha + h).K - lin_at(alpha - h).K) / (2 * h)
    worst = float(np.abs(analytic - fd).max() / np.abs(fd).max())
    return worst <= 1e-3, f"max rel FD mismatch {worst:.2e} (tol 1e-3)"


def check_boundary_conditions() -> tuple[bool, str]:
    fam = build_family(5, 3, 9.0)
    worst = 0.0
    for member in fam.members:
        scale = np.abs(member(np.linspace(0, 9, 101))).max()
        for q in (member, member.derivative()):
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


def run_selftest(quiet: bool = False) -> bool:
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn()
        all_ok &= ok
        if not ok or not quiet:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
