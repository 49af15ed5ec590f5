"""Polynomial modulating-function families and their moments against data.

The family on [0, L1] is phi_n(x) = x^a_n (L1-x)^e_n, a_n = N+b+1-n,
e_n = b+n, for n = 1..N.  Every member and its first derivative vanish at
both endpoints (with margin: a_n, e_n >= b+1 >= 3), so fractional
derivatives of order up to 2 and their order-sensitivities are regular on
[0, L1] and vanish at 0.  A family is defined by (N, b) alone: the interval
enters only through the data, whose grid ends at L1.  :func:`build_family`
is cached per (N, b); its table is read-only.

:class:`DataMoments` integrates a family against a MeasurementSet, whose
grid is uniform from 0, on [0, L1] (L1 snapped to a node) by the trapezoid
rule (weights w_j); the :class:`GridBasis` it is given fixes the family, L1
and the nodes.  With y = L1 - x, every a_n + e_n is D = N+2b+1, so all
columns are sums over one basis shared by the members, X_p = x^p y^(D-p)
for p = b..D.  No member is expanded in monomials, whose alternating sums
cancel more as N grows; each coefficient below has at most three terms.  Lifting -phi_n' to degree D by (x + y)/L1 = 1 gives

    A_n = integral of -phi_n'(x) c(L1-x) dx = (-a s_c[a-1] + (e-a) s_c[a] + e s_c[a+1]) / L1,
    C_n = integral of phi_n(x) rhs(L1-x) dx = s_r[a],

with s_c[p] = sum_j w_j X_p(x_j) c(L1-x_j) and s_r the same for rhs.  The
fractional column B_n = integral of D^alpha phi_n(x) c(L1-x) dx and its
order-derivative G_n = dB_n/dalpha use D^alpha phi_n = I^(2-alpha) phi_n''
(phi_n and phi_n' vanish at 0).  Writing phi_n'' = sum_r c_r x^(a-2+r) y^(e-r),
c = (a(a-1), -2ae, e(e-1)), substituting s = xu in the Riemann-Liouville
integral and expanding L1 - xu = y + x(1-u) binomially gives

    D^alpha phi_n = sum_p Q[n, p] g_p x^(p-alpha) y^(D-p),   p = b+1..D,
    Q[n, p] = sum_i T[n, p, i] (2-alpha)_i,   T[n, p, i] = c_r C(e-r, i) / perm(p, i+2),

with r = p-i-a and g_p = Gamma(p+1)/Gamma(p+1-alpha).  T depends only on
(N, b); :func:`build_family` builds it once from exact integers.  With psi = psi(p+1-alpha)
(g and psi come from :func:`fadeid.fracpoly.power_rule`) and

    m_p = sum_j w_j x_j^(p-alpha) y_j^(D-p) c(L1-x_j),   l_p = the same with a ln(x_j) factor,

B = Q (g m) and G = Q' (g m) + Q (psi g m - g l), Q' = dQ/dalpha.  X_p(x_j)
and ln x_j depend only on the nodes and (b, D), not on the data: a
:class:`GridBasis` holds them, and every block built on it shares them.
A block keeps its own weights w_j c(L1-x_j), so each alpha costs the rows
[w x^-alpha ; w x^-alpha ln x] and one (2 x M) by (M x P) contraction
against the shared X, made once per exact alpha and kept.  The x = 0
sample, where every term vanishes, is left out.

One block serves every family with the same b and a degree D_N = D - k
<= D (an N up to the block's).  Degree elevation, multiplying by
((x + y)/L1)^k = 1, writes each basis function of degree D_N as

    x^p y^(D_N-p) = sum_i C(k, i) L1^-k X_(p+i),   i = 0..k,

a sum of positive terms with no cancellation (Farouki & Rajan, Comput.
Aided Geom. Des. 5, 1988).  So s_c, s_r, m and l of such a family are one
small matrix product of the block's (:meth:`DataMoments.lift`), and the
families of a sweep share the block's contraction at every alpha they have
in common.  The block's own family is the identity lift (k = 0), exact in
floating point, so every family's moments take the same path.

Each grid contraction is one BLAS matrix product, 0.08 ms at M = 31500,
N = 3 and 0.16 ms at N = 11; with the two weight rows, 0.19 and 0.23 ms
(medians of 200 alphas; 2 CPUs, OpenBLAS 0.3.31).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, frexp, isfinite, ldexp, perm, sqrt
from numbers import Integral

import numpy as np

from .fracpoly import power_rule
from .synthdata import MeasurementSet


@dataclass(frozen=True)
class ModulatingFamily:
    """The N members' exponents and table T; L1 comes from the data's grid."""

    n_funcs: int
    b: int
    #: factored powers (a_n, e_n) with phi_n = x^a_n (L1-x)^e_n
    powers: tuple[tuple[int, int], ...]
    #: T[n, p-b-1, i] of the module docstring, for p = b+1..D, i = 0..N+b
    table: np.ndarray = field(compare=False)

    @property
    def degree(self) -> int:
        return self.n_funcs + 2 * self.b + 1


# typed: untyped, 3.0 == 3 would be a cache hit and skip the check below
@lru_cache(maxsize=None, typed=True)
def build_family(N: int, b: int) -> ModulatingFamily:
    """Construct the N-member polynomial modulating family.

    Cached without bound, one family per (N, b) a process builds: callers
    with the same (N, b) get the same family, so its table is read-only.
    """
    if not all(isinstance(v, Integral) and v >= 2 for v in (N, b)):
        raise ValueError(f"N and b must be integers >= 2, got N={N!r}, b={b!r}")
    powers = []
    T = np.zeros((N, N + b + 1, N + b + 1))
    for n in range(1, N + 1):
        a, e = N + b + 1 - n, b + n
        powers.append((a, e))
        for r, c in enumerate((a * (a - 1), -2 * a * e, e * (e - 1))):
            for i in range(e - r + 1):  # exact integers, rounded once
                T[n - 1, a + r + i - b - 1, i] = c * comb(e - r, i) / perm(a + r + i, i + 2)
    T.flags.writeable = False
    return ModulatingFamily(N, b, tuple(powers), T)


def column_factor(A: np.ndarray, C: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray]:
    """A's factor for the Stage-1 rows nu*A + d*B = C: (||A||, a = A/||A||,
    a.C, C - a(a.C)).  ||A|| is taken from A / 2^e, max|A| / 2^e in [1/2, 1):
    the scaling is exact, so A.A neither under- nor overflows and the norm has
    the bits of sqrt(A.A) wherever that does neither.  A zero A is kept as
    a = A, with no division."""
    e = frexp(float(np.abs(A).max()))[1]
    As = np.ldexp(A, -e)
    norm = ldexp(sqrt(float(As @ As)), e)
    a = A / norm if norm else A
    aC = float(a @ C)
    return norm, a, aC, C - aC * a


def snap_node(L1: float, span: float, M: int) -> int:
    """The index j of the node nearest L1 on M uniform points spanning
    [0, span]; [0, x_j] must hold at least 3 points, so 2 <= j < M."""
    steps = L1 / (span / (M - 1))
    if not (isfinite(steps) and 2 <= round(steps) < M):
        raise ValueError(f"L1={L1} does not leave a usable sub-grid")
    return int(round(steps))


class GridBasis:
    """The nodes x_0 = 0 .. x_(M-1) = L1 of the grid x on [0, L1] (L1 snapped
    to a node) and, for fam, log x_j and X[p - b, j] = x_j^p (L1 - x_j)^(D-p),
    p = b..D, on x_1..x_(M-1): all that every block built on it shares; X is read-only."""

    def __init__(self, x: np.ndarray, L1: float, fam: ModulatingFamily):
        x = x[:snap_node(L1, x[-1], len(x)) + 1]
        b, D = fam.b, fam.degree
        self.x, self.L1, self.fam = x, x[-1], fam
        xp = x[1:]
        self.log_x = np.log(xp)
        X = np.empty((D - b + 1, len(xp)))
        np.exp(D * self.log_x, out=X[-1])
        ratio = (self.L1 - xp) / xp
        for i in range(D - b, 0, -1):
            np.multiply(X[i], ratio, out=X[i - 1])
        X.flags.writeable = False
        self.X = X


class DataMoments:
    """The basis's family integrated against c = c_noisy and rhs = dcdt_noisy - r,
    which must be sampled at the basis's nodes (else ValueError): A, C and A's
    factor (:func:`column_factor`), and B(alpha), G(alpha) on demand.  The
    weights w_j c(L1 - x_j), the sums s_c and s_r and the basis serve every
    family with the same b and a degree up to the basis's: :meth:`lift`
    returns such a family's moments, sharing them and the per-alpha memo of
    the grid contraction."""

    def __init__(self, ms: MeasurementSet, basis: GridBasis):
        x, M = basis.x, len(basis.x)
        if not np.array_equal(ms.x[:M], x):
            raise ValueError(f"measurements not sampled at the {M} nodes of the basis "
                             f"on [0, {basis.L1}]")
        c, rhs = ms.c_noisy[:M], ms.dcdt_noisy[:M] - ms.r[:M]

        # w_j c(L1 - x_j) and w_j rhs(L1 - x_j) for j >= 1
        W = (x[1] - x[0]) * np.stack([c[-2::-1], rhs[-2::-1]])
        W[:, -1] *= 0.5
        self.s_c, self.s_r = W @ basis.X.T  # over p = b..D
        self.w = W[0].copy()
        self.basis = basis
        self._weights = W  # scratch for _grid_moments
        self._memo: dict[float, np.ndarray] = {}  # alpha -> (m, l) over p = b+1..D
        self._set_family(basis.fam)

    def _set_family(self, fam: ModulatingFamily) -> None:
        """Set A, C, A's factor and the fractional tables to fam's, for fam
        with this block's b and a degree D_N = D - k <= D.  E lifts the basis
        sums to degree D_N by degree elevation (module docstring); for the
        block's own family (k = 0) it is the identity, and exact."""
        own, L1 = self.basis.fam, self.basis.L1
        k = own.degree - fam.degree
        if fam.b != own.b or k < 0:
            raise ValueError(f"cannot lift a degree-{own.degree}, b={own.b} block to "
                             f"N={fam.n_funcs}, b={fam.b}")
        P = np.arange(fam.degree - fam.b + 1)
        E = np.zeros((len(P), len(P) + k))
        for i in range(k + 1):  # exact integers, rounded once
            E[P, P + i] = comb(k, i) / L1**k
        s_c, s_r = E @ self.s_c, E @ self.s_r
        a, e = np.array(fam.powers).T
        row = a - fam.b
        self.A = (-a * s_c[row - 1] + (e - a) * s_c[row] + e * s_c[row + 1]) / L1
        self.C = s_r[row]
        self.factor = column_factor(self.A, self.C)
        self.p = np.arange(fam.b + 1, fam.degree + 1, dtype=float)
        self.T = fam.table
        self._lift = E[1:, 1:]

    def lift(self, fam: ModulatingFamily) -> DataMoments:
        """fam's moments lifted from this block (:meth:`_set_family`), the own
        family's by the identity; the view shares the grid sums and alpha memo."""
        view = copy(self)
        view._set_family(fam)
        return view

    def _grid_moments(self, alpha: float) -> np.ndarray:
        """(m, l) of the module docstring over p = b+1..D: one BLAS product,
        made once per exact alpha and kept."""
        ml = self._memo.get(alpha)
        if ml is None:
            W, log_x = self._weights, self.basis.log_x
            np.exp(np.multiply(log_x, -alpha, out=W[0]), out=W[0])  # x^-alpha
            W[0] *= self.w
            np.multiply(W[0], log_x, out=W[1])
            ml = self._memo[alpha] = W @ self.basis.X[1:].T
            ml.flags.writeable = False
        return ml

    def fractional_columns(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """B(alpha) and its order-derivative G(alpha), for alpha in (1, 2]."""
        alpha = float(alpha)
        if not 1.0 < alpha <= 2.0:
            raise ValueError(f"alpha must be in (1, 2], got {alpha}")
        ml = self._grid_moments(alpha)
        m, l = ml @ self._lift.T
        g, psi = power_rule(self.p, alpha)
        q, dq = [1.0], [0.0]  # (2-alpha)_i and its alpha-derivative
        for i in range(1, self.T.shape[2]):
            z = 1.0 - alpha + i
            dq.append(dq[-1] * z - q[-1])
            q.append(q[-1] * z)
        Q, dQ = self.T @ q, self.T @ dq
        gm = g * m
        return Q @ gm, dQ @ gm + Q @ (psi * gm - g * l)
