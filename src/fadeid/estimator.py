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
moment block); every Newton iterate then costs one small matrix product
for (B, G) and one SVD of [A B], which solves both the Stage-1 system and
the derivative system of Proposition 1 (same matrix, right-hand side -d*G).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .modfun import DataMoments, ModulatingFamily, build_family
from .synthdata import MeasurementSet, restrict


class RankDeficientError(ValueError):
    """The 2-column system has numerical rank < 2."""


class GradientDegenerateError(RuntimeError):
    """The Stage-2 gradient vanished; Newton update undefined."""


@dataclass(frozen=True)
class LinearSystem:
    A_col: np.ndarray
    B_col: np.ndarray
    C_col: np.ndarray
    cond_estimate: float
    #: dB/dalpha, needed by Stage 2 only
    G_col: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.A_col)
        if n < 2:
            raise ValueError("system needs at least 2 rows")
        cols = [self.A_col, self.B_col, self.C_col]
        if self.G_col is not None:
            cols.append(self.G_col)
        if any(len(col) != n for col in cols):
            raise ValueError("column length mismatch")
        for col in cols:
            if not np.all(np.isfinite(col)):
                raise ValueError("non-finite system entry")


class IterationRecord(NamedTuple):
    alpha: float
    residual: float
    nu: float
    d: float


class Linearization(NamedTuple):
    """Stage-1 fit at one alpha and its first-order change in alpha."""

    nu: float
    d: float
    dnu: float      # dnu/dalpha
    dd: float       # dd/dalpha
    K: np.ndarray   # nu*A + d*B
    Kp: np.ndarray  # dK/dalpha


@dataclass
class EstimatorConfig:
    """Knobs for the two-stage estimator.

    ``M`` is the synthesis grid-point count on [0, L] used by the
    experiment runner; the estimator itself always integrates on the
    measurement grid restricted to [0, L1] (L1 snapped to the nearest
    node), never on a resampled grid.
    """

    L1: float = 9.0
    N: int = 3
    b: int = 3
    M: int | None = None
    alpha0: float = 1.4
    epsilon: float | None = None  # default: 1e-10 * ||U||^2, fixed at start
    max_iter: int = 50
    step_clamp: float = 0.2
    # alpha steps jitter at ~1e-7 from rounding in the large-magnitude
    # integrals; anything below 1e-6 is numerically indistinguishable
    alpha_tol: float = 1e-6

    def __post_init__(self):
        if not 1.0 < self.alpha0 <= 2.0:
            raise ValueError(f"alpha0 must be in (1, 2], got {self.alpha0}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.L1 <= 0:
            raise ValueError("L1 must be positive")
        if self.step_clamp <= 0:
            raise ValueError("step_clamp must be positive")


@dataclass
class EstimateResult:
    nu: float
    d: float
    alpha: float
    iterations: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    residual_final: float = np.inf
    cond_estimate: float = np.nan
    message: str = ""


def trapezoid(values: np.ndarray, dx: float) -> float:
    """Composite trapezoidal rule on uniformly spaced samples."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise ValueError("need at least 2 samples")
    return float(dx * (values.sum() - 0.5 * (values[0] + values[-1])))


def measurement_moments(ms: MeasurementSet, fam: ModulatingFamily) -> DataMoments:
    """The family's moments against the measured (noisy) channels; ``ms``
    must already be restricted to [0, fam.L1]."""
    return DataMoments(fam, ms.x, ms.c_noisy, ms.dcdt_noisy - ms.r)


def _moments(ms: MeasurementSet, config: EstimatorConfig) -> DataMoments:
    msr = restrict(ms, config.L1)
    return measurement_moments(msr, build_family(config.N, config.b, float(msr.x[-1])))


def _cond_2col(A_col: np.ndarray, B_col: np.ndarray) -> float:
    s = np.linalg.svd(np.column_stack([A_col, B_col]), compute_uv=False)
    return float(s[0] / s[1]) if s[1] > 0 else np.inf


def assemble_theorem1(mom: DataMoments, alpha: float) -> LinearSystem:
    """The Stage-1 N x 2 system at order alpha, with G = dB/dalpha attached."""
    B, G = mom.fractional_columns(alpha)
    return LinearSystem(mom.A, B, mom.C, _cond_2col(mom.A, B), G)


def solve_2col_least_squares(sys: LinearSystem, rhs: np.ndarray | None = None):
    """Least-squares (nu, d, cond) of the rows nu*A_n + d*B_n = C_n.

    ``rhs`` replaces C.  A 2-D ``rhs`` holds several right-hand sides as
    columns, all solved with the one SVD; nu and d are then arrays with one
    entry per column.
    """
    u, s, vt = np.linalg.svd(np.column_stack([sys.A_col, sys.B_col]), full_matrices=False)
    if s[1] <= 1e-12 * s[0]:
        raise RankDeficientError(
            f"system numerically rank-deficient (singular values {s[0]:.3e}, {s[1]:.3e})"
        )
    coef = u.T @ (sys.C_col if rhs is None else rhs)
    x = vt.T @ (coef.T / s).T  # divides row i of coef by s[i], for 1-D or 2-D coef
    return x[0], x[1], float(s[0] / s[1])


def linearize(sys: LinearSystem) -> Linearization:
    """Stage-1 fit and its alpha-derivative from one SVD of [A B].

    Differentiating the rows nu*A_n + d*B_n = C_n in alpha (A and C are
    alpha-free) gives [A B] (dnu, dd) = -d*G, solved in the least-squares
    sense with the Stage-1 matrix (Proposition 1); then
    K' = dnu*A + dd*B + d*G.
    """
    (nu, p), (d, q), _ = solve_2col_least_squares(
        sys, np.column_stack([sys.C_col, sys.G_col])
    )
    nu, d, dnu, dd = float(nu), float(d), -float(d * p), -float(d * q)
    K = nu * sys.A_col + d * sys.B_col
    Kp = dnu * sys.A_col + dd * sys.B_col + d * sys.G_col
    return Linearization(nu, d, dnu, dd, K, Kp)


def estimate_two_param(
    ms: MeasurementSet, config: EstimatorConfig, alpha: float
) -> tuple[float, float, float]:
    """Stage 1 alone: (nu, d, cond) at a known fractional order."""
    nu, d, cond = solve_2col_least_squares(assemble_theorem1(_moments(ms, config), alpha))
    return float(nu), float(d), cond


def newton_estimate(ms: MeasurementSet, config: EstimatorConfig) -> EstimateResult:
    """Full two-stage iteration for (nu, d, alpha).

    The moments of the restricted measurements are built once; each iterate
    assembles B and G at the current alpha, solves Stage 1 and its
    derivative system, then takes a clamped scalar Gauss-Newton step
    dalpha = <K', U - K> / <K', K'> projected into (1 + 1e-6, 2].  Stops
    when J = ||K - U||^2 falls below epsilon, when the alpha step
    stagnates below alpha_tol (stationary point; the noise floor keeps J
    above any tiny epsilon on noisy data), or at max_iter (flagged
    not converged, best iterate returned).
    """
    mom = _moments(ms, config)

    alpha = float(config.alpha0)
    eps = config.epsilon
    history: list[IterationRecord] = []
    best: tuple[float, IterationRecord, float] | None = None  # (J, record, cond)
    message = ""
    converged = False

    for k in range(config.max_iter + 1):
        sys1 = assemble_theorem1(mom, alpha)
        lin = linearize(sys1)
        U = sys1.C_col
        J = float(np.sum((lin.K - U) ** 2))
        rec = IterationRecord(alpha, J, lin.nu, lin.d)
        history.append(rec)
        if best is None or J < best[0]:
            best = (J, rec, sys1.cond_estimate)
        if eps is None:
            eps = 1e-10 * float(np.sum(U**2))
        if J < eps:
            converged, message = True, f"residual below epsilon={eps:.3e}"
            break
        if k == config.max_iter:
            message = f"max_iter={config.max_iter} reached"
            break

        denom = float(lin.Kp @ lin.Kp)
        if denom < 1e-30:
            raise GradientDegenerateError(
                f"<K', K'> = {denom:.3e} at alpha={alpha}; cannot update"
            )
        step = float(lin.Kp @ (U - lin.K)) / denom
        step = float(np.clip(step, -config.step_clamp, config.step_clamp))
        new_alpha = float(np.clip(alpha + step, 1.0 + 1e-6, 2.0))
        if abs(new_alpha - alpha) < config.alpha_tol:
            converged = True
            message = f"alpha step stagnated below {config.alpha_tol:.1e} (stationary point)"
            break
        alpha = new_alpha

    J_best, rec, cond = best
    return EstimateResult(
        nu=rec.nu,
        d=rec.d,
        alpha=rec.alpha,
        iterations=history,
        converged=converged,
        residual_final=J_best,
        cond_estimate=cond,
        message=message,
    )
