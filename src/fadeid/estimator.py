"""Two-stage estimation of (nu, d, alpha) from final-time measurements.

Stage 1 turns the transport equation, multiplied by modulating functions
and integrated over [0, L1], into an N x 2 linear system whose
least-squares solution gives (nu, d) at a fixed fractional order alpha.
Stage 2 is a Gauss-Newton iteration on alpha alone: the residual vector
K(alpha) - U of the Stage-1 system is driven to zero using an analytic
gradient built from the alpha-derivative G of the fractional column.

Sign conventions (used consistently everywhere):

    A_n = integral of  d/dx[phi_n(L1-x)] * c(x) dx   (= -phi_n'(L1-x) inside)
    B_n = integral of  D^alpha phi_n(x) * c(L1-x) dx
    C_n = integral of  phi_n(L1-x) * (dc/dt(x) - r(x)) dx

with rows  A_n * nu + B_n * d = C_n  (integration by parts of the
advection term flips the sign once through the boundary terms and once
through the chain rule, so the velocity enters with a plus against this
A_n).  Hence  K_n = nu*A_n + d*B_n  and K - U is exactly the row residual
at the fitted (nu, d).

Only B and G depend on alpha.  The measurements are reduced once per
estimate to a :class:`~fadeid.modfun.DataMoments` (A, C and the alpha-free
moment block) by :func:`measurement_moments`, which reads only the measured
channels on [0, L1]; the MeasurementSet checked the grid when it was built.
:func:`newton_fit` is the one Gauss-Newton loop on given moments, from alpha0:
:func:`newton_estimate` runs it on config's own block, and a sweep runs it on
views that ``DataMoments.lift`` makes of one block per data set and L1.
:func:`linearize` is the one Stage-1 routine.  A and C are alpha-free, so
each family's moments keep A's factor next to them (||A||, a = A/||A||, a.C
and C - a(a.C)); at a given alpha, linearize forms (B, G) with one small
matrix product and then needs only length-N vector work.  One Gram-Schmidt
step of B against a solves the Stage-1 system and gives the 2 x 2 triangular
factor of [A B], whose closed-form singular values give cond([A B]) and the
rank test.  The same factor solves the derivative system of Proposition 1
(right-hand side -d*G) with the residual term of variable projection (Golub
& Pereyra, SIAM J. Numer. Anal. 10, 1973) added, so K' is exactly dK/dalpha;
Kaufman's simplification (BIT 15, 1975) leaves that term out.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, hypot, isfinite, ldexp, sqrt
from typing import NamedTuple

import numpy as np

from .modfun import DataMoments, GridBasis, build_family
from .synthdata import MeasurementSet


class RankDeficientError(ValueError):
    """The 2-column system has numerical rank < 2."""


class GradientDegenerateError(RuntimeError):
    """The Stage-2 gradient vanished; Newton update undefined."""


class IterationRecord(NamedTuple):
    alpha: float
    residual: float
    nu: float
    d: float


class Linearization(NamedTuple):
    """Stage-1 fit at one alpha and its exact first-order change in alpha."""

    nu: float
    d: float
    dnu: float      # dnu/dalpha
    dd: float       # dd/dalpha
    K: np.ndarray   # nu*A + d*B
    Kp: np.ndarray  # dK/dalpha
    cond: float     # 2-norm condition number of [A B]


#: largest |alpha step| of one Gauss-Newton update
STEP_CLAMP = 0.2
#: an alpha step below this ends Stage 2 as converged
ALPHA_TOL = 1e-6
#: Gauss-Newton steps before Stage 2 stops, not converged
MAX_ITER = 50


@dataclass
class EstimatorConfig:
    """Knobs for the two-stage estimator.

    The estimator integrates the measurement samples on [0, L1] (L1 snapped
    to the nearest node), never a resampled grid.
    """

    L1: float = 9.0
    N: int = 3
    b: int = 3
    alpha0: float = 1.4

    def __post_init__(self):
        if not 1.0 < self.alpha0 <= 2.0:
            raise ValueError(f"alpha0 must be in (1, 2], got {self.alpha0}")
        if isinstance(self.L1, bool) or not (np.isfinite(self.L1) and self.L1 > 0):
            raise ValueError(f"L1 must be positive and finite, got {self.L1}")
        build_family(self.N, self.b)  # the (N, b) rule, cached


class EstimateResult(NamedTuple):
    nu: float
    d: float
    alpha: float
    iterations: list[IterationRecord]
    converged: bool
    message: str


def measurement_moments(ms: MeasurementSet, config: EstimatorConfig) -> DataMoments:
    """The moments of config's family against the measured channels on
    [0, L1], L1 snapped to the nearest node, on a grid basis of their own."""
    return DataMoments(ms, GridBasis(ms.x, config.L1, build_family(config.N, config.b)))


def linearize(mom: DataMoments, alpha: float) -> Linearization:
    """Stage-1 fit at order alpha and its exact alpha-derivative, from A's factor.

    The rows nu*A_n + d*B(alpha)_n = C_n are solved in the least-squares
    sense by one Gram-Schmidt step against mom's a = A/||A|| (kept per
    family by :func:`~fadeid.modfun.column_factor`): with beta = a.B and
    b_perp = B - beta*a, [A B] = [a, b_perp/||b_perp||] R, R = [[||A||, beta],
    [0, ||b_perp||]], whose singular values give cond([A B]) and the rank test.
    Differentiating the fit in alpha (A and C are alpha-free, dB/dalpha = G)
    gives R^T R (dnu, dd) = -d [A B]^T G + (0, G.r) with r = C - K: the
    derivative system of Proposition 1 plus the residual term of variable
    projection, so K' = dnu*A + dd*B + d*G is exactly dK/dalpha.  The dot
    products are taken on b_perp and the residual divided by 2^e, with ||A||
    / 2^e in [1/2, 1): the scaling is exact, so columns of any common scale
    in the float range neither under- nor overflow, and the results have the
    bits of the unscaled formulas wherever those do neither.
    A non-finite entry of B or G makes a.B or a.G non-finite (0*inf is NaN):
    ValueError.
    """
    B, G = mom.fractional_columns(alpha)
    nA, a, aC, c_perp = mom.factor
    with np.errstate(invalid="ignore"):  # 0*inf: NaN, rejected below, not a warning
        beta, aG = float(a @ B), float(a @ G)
    if not (isfinite(beta) and isfinite(aG)):
        raise ValueError(f"non-finite fractional column at alpha={alpha}")
    e = frexp(nA)[1]  # b, nb, s0, s1 and the *_e are those of the columns / 2^e
    b = np.ldexp(B - beta * a, -e)  # b_perp / 2^e
    nb2 = float(b @ b)
    nA_e, beta_e, nb = ldexp(nA, -e), ldexp(beta, -e), sqrt(nb2)
    s0 = (hypot(nA_e + nb, beta_e) + hypot(nA_e - nb, beta_e)) / 2  # singular values of R / 2^e
    s1 = nA_e * nb / s0 if s0 else 0.0
    if s1 <= 1e-12 * s0:
        raise RankDeficientError(
            f"system numerically rank-deficient (singular values {ldexp(s0, e):.3e}, "
            f"{ldexp(s1, e):.3e})"
        )
    d = ldexp(float(b @ c_perp) / nb2, -e)
    nu = (aC - beta * d) / nA
    K = nu * mom.A + d * B
    dd = ldexp(float(G @ (np.ldexp(mom.C - K, -e) - d * b)) / nb2, -e)
    dnu = -(d * aG + beta * dd) / nA
    Kp = dnu * mom.A + dd * B + d * G
    return Linearization(nu, d, dnu, dd, K, Kp, s0 / s1)


def estimate_two_param(
    ms: MeasurementSet, config: EstimatorConfig, alpha: float
) -> tuple[float, float, float]:
    """Stage 1 alone: (nu, d, cond) at a known fractional order."""
    lin = linearize(measurement_moments(ms, config), alpha)
    return lin.nu, lin.d, lin.cond


def newton_estimate(ms: MeasurementSet, config: EstimatorConfig) -> EstimateResult:
    """Full two-stage iteration for (nu, d, alpha): config's moments of the
    measurements on [0, L1], built once, then :func:`newton_fit` on them."""
    return newton_fit(measurement_moments(ms, config), config.alpha0)


def newton_fit(mom: DataMoments, alpha0: float) -> EstimateResult:
    """Stage 2 on given moments, from alpha0 for at most MAX_ITER steps.

    Each iterate calls :func:`linearize` at the current alpha, then takes a
    clamped scalar Gauss-Newton step dalpha = <K', U - K> / <K', K'>
    projected into [1 + 1e-6, 2].  Stops when the projected step falls below
    ALPHA_TOL, or at MAX_ITER (not converged), and returns the last iterate,
    whose J = ||K - U||^2 is ``iterations[-1].residual``.  The message says
    whether a stationary point or a bound, against a larger outward step,
    stopped alpha; either is converged except a hold at the lower bound
    1 + 1e-6, which is no order of the model's (1, 2].  Fewer than 3 rows
    raise ValueError: the Stage-1 system is then square, so K' = 0 in exact
    arithmetic.  <K', K'> at or below 1e-30 <U, U> raises
    GradientDegenerateError; both scale alike with the length unit, so the
    test does not depend on it.
    """
    U = mom.C
    if len(U) < 3:
        raise ValueError(f"a three-parameter fit needs N >= 3, got N={len(U)}")

    alpha = float(alpha0)
    history: list[IterationRecord] = []
    message = ""
    converged = False

    for k in range(MAX_ITER + 1):
        lin = linearize(mom, alpha)
        r = U - lin.K
        J = float(r @ r)
        history.append(IterationRecord(alpha, J, lin.nu, lin.d))
        if k == MAX_ITER:
            message = f"max_iter={MAX_ITER} reached"
            break

        denom = float(lin.Kp @ lin.Kp)
        if denom <= 1e-30 * float(U @ U):
            raise GradientDegenerateError(
                f"<K', K'> = {denom:.3e} at alpha={alpha}; cannot update"
            )
        step = float(lin.Kp @ r) / denom
        step = min(max(step, -STEP_CLAMP), STEP_CLAMP)
        new_alpha = min(max(alpha + step, 1.0 + 1e-6), 2.0)
        if abs(new_alpha - alpha) < ALPHA_TOL:
            if abs(step) < ALPHA_TOL:
                converged = True
                message = f"alpha step stagnated below {ALPHA_TOL:.1e} (stationary point)"
            else:  # the projection, not the step, stopped alpha; as alpha is in (1, 2],
                converged = new_alpha == 2.0  # a hold at 2 is an answer, one at 1 + 1e-6 not
                message = f"alpha held at its bound {new_alpha:.7g} against a step of {step:+.3e}"
            break
        alpha = new_alpha

    return EstimateResult(
        nu=lin.nu,
        d=lin.d,
        alpha=alpha,
        iterations=history,
        converged=converged,
        message=message,
    )
