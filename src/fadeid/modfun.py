"""Polynomial modulating-function families and their moments against data.

The family on [0, L1] is phi_n(x) = x^(N+b+1-n) * (L1-x)^(b+n) for
n = 1..N.  Every member and its first derivative vanish at both endpoints
(with margin: the vanishing orders are N+b+1-n >= b+2 at 0 and b+n >= b+1
at L1), and the minimal monomial power b+1 exceeds 2, so fractional
derivatives of order up to 2 and their order-sensitivities are regular on
[0, L1] and vanish at 0.

With a_n = N+b+1-n and e_n = b+n, phi_n = x^a_n (L1-x)^e_n.  As every
a_n + e_n = N + 2b + 1, writing y = L1 - x,

    phi_n(x) = t_n x y,   phi_n'(x) = t_n (a_n y - e_n x),   t_n = (x y)^b x^(N-n) y^(n-1),

and t_{n+1} = t_n (y/x).  :func:`build_family` is cached: it is a pure
function of (N, b, L1), so callers with the same key share one family,
whose coefficient arrays are read-only.

:class:`DataMoments` integrates a family against samples on a uniform grid
by the trapezoid rule (weights w_j).  The columns free of alpha,

    A_n = integral of -phi_n'(x) c(L1-x) dx,  C_n = integral of phi_n(x) rhs(L1-x) dx,

are summed once over the interior nodes (every member and its first
derivative vanish at 0 and L1), with t_n formed by the running product
above and no power of x.  The factor (a_n y - e_n x) is kept pointwise:
splitting A_n into a_n sum(t_n y c) - e_n sum(t_n x c) subtracts two larger
sums, and on Table-1 data its error against an extended-precision
reference was 3-5 times larger.  The fractional column

    B_n(alpha) = integral of D^alpha phi_n(x) c(L1-x) dx

and its order-derivative G_n = dB_n/dalpha follow from the power rule
D^alpha x^k = g_k x^(k-alpha), g_k = Gamma(k+1)/Gamma(k+1-alpha), with
dg_k/dalpha = g_k psi(k+1-alpha); :func:`fadeid.fracpoly.power_rule`
gives g and psi.  Writing phi_n = sum_k P[n, k] x^k and

    m_k = sum_j w_j x_j^(k-alpha) c(L1-x_j),   l_k = the same with a ln(x_j) factor,

gives B = P (g m) and G = P (g (psi m - l)).  The alpha-free block
V[k, j] = w_j x_j^k c(L1-x_j) is stored once, so each alpha costs one
(K x M) by (M x 2) contraction.  The x = 0 sample is left out of V: every
k - alpha > 0, so both integrands vanish there.

Every contraction over the grid is an ``np.einsum``, which does not call
BLAS and so always runs on one thread.  OpenBLAS threads a product once it
is large enough, and when sweep cells run in a process pool its threads
oversubscribe the CPUs.  Measured with two concurrent processes on 2 CPUs
(OpenBLAS 0.3.31) at M = 31500: a (K x M) matrix times an M-vector with
``@`` (gemv) is threaded and took about 8 ms, against 0.1-0.35 ms on one
thread.  The (K x M) by (M x 2) product ``V @ W.T`` stays single-threaded
at K = 15 and beats ``einsum`` there (0.2 against 0.5 ms), but at K = 24
(N = 20) it is threaded and took up to 8 ms, against 0.8-0.9 ms for
``einsum``.  ``einsum`` is never the slow case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .fracpoly import power_rule


@dataclass(frozen=True)
class ModulatingFamily:
    n_funcs: int
    b: int
    L1: float
    members: tuple[Polynomial, ...]
    #: factored powers (a_n, e_n) with phi_n = x^a_n (L1-x)^e_n
    powers: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return self.n_funcs + 2 * self.b + 1


@lru_cache(maxsize=16)
def build_family(N: int, b: int, L1: float) -> ModulatingFamily:
    """Construct the N-member polynomial modulating family on [0, L1].

    Cached: callers with the same (N, b, L1) get the same family, so its
    coefficient arrays are read-only.
    """
    if N < 2:
        raise ValueError(f"need at least 2 modulating functions, got N={N}")
    if b < 2:
        raise ValueError(f"order offset b must be >= 2, got b={b}")
    if L1 <= 0:
        raise ValueError(f"interval length must be positive, got L1={L1}")
    L1 = float(L1)
    right = Polynomial([L1, -1.0])
    members = []
    powers = []
    for n in range(1, N + 1):
        a, e = N + b + 1 - n, b + n
        member = Polynomial.basis(a) * right**e
        member.coef.flags.writeable = False
        members.append(member)
        powers.append((a, e))
    return ModulatingFamily(N, b, L1, tuple(members), tuple(powers))


class DataMoments:
    """The family integrated against samples c, rhs on a uniform grid x from
    0 to L1: the columns A and C, and B(alpha), G(alpha) on demand."""

    def __init__(self, fam: ModulatingFamily, x: np.ndarray, c: np.ndarray, rhs: np.ndarray):
        x = np.asarray(x, dtype=float)
        M = len(x)
        if M < 3:
            raise ValueError(f"grid needs at least 3 points, got M={M}")
        if x[0] != 0.0 or abs(x[-1] - fam.L1) > 1e-12 * fam.L1:
            raise ValueError(
                f"measurement grid [{x[0]}, {x[-1]}] does not match the family's [0, {fam.L1}]"
            )
        dx = x[1] - x[0]
        if np.abs(np.diff(x) - dx).max() > 1e-9 * dx:
            raise ValueError("measurement grid is not uniformly spaced")
        c, rhs = np.asarray(c, dtype=float), np.asarray(rhs, dtype=float)
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(rhs))):
            raise ValueError("non-finite measurement samples")

        wc = dx * c[-2::-1]  # w_j c(L1 - x_j) for j >= 1
        wc[-1] *= 0.5

        # A and C on the interior nodes, where every weight is dx
        xi = x[1:-1]
        yi = fam.L1 - xi
        xy = xi * yi
        t = xy.copy()  # t_1 = (xy)^b x^(N-1)
        for _ in range(fam.b - 1):
            t *= xy
        for _ in range(fam.n_funcs - 1):
            t *= xi
        ratio = yi / xi
        wcy, wcx = wc[:-1] * yi, wc[:-1] * xi
        wrxy = dx * rhs[-2:0:-1] * xy
        dphi, tmp = np.empty_like(xi), np.empty_like(xi)
        self.A, self.C = np.empty(fam.n_funcs), np.empty(fam.n_funcs)
        for n, (a, e) in enumerate(fam.powers):
            if n:
                t *= ratio
            np.multiply(wcy, a, out=dphi)
            np.multiply(wcx, e, out=tmp)
            dphi -= tmp  # (a_n y - e_n x) dx c(L1 - x)
            self.A[n] = -np.einsum("j,j->", t, dphi)
            self.C[n] = np.einsum("j,j->", t, wrxy)

        k0 = fam.b + 1  # lowest power with a nonzero coefficient in any member
        self.k = np.arange(k0, fam.degree + 1, dtype=float)
        self.P = np.array([m.coef[k0:] for m in fam.members])
        self.xp = x[1:]
        self.log_x = np.log(self.xp)
        self.V = np.empty((len(self.k), M - 1))
        # x^k0 stays one power call: B = P (g m) cancels heavily, and forming
        # x^k0 by products would move B by up to 3e-8 relative at N = 11
        np.multiply(wc, self.xp**k0, out=self.V[0])
        for i in range(1, len(self.k)):
            np.multiply(self.V[i - 1], self.xp, out=self.V[i])
        self._weights = np.empty((2, M - 1))

    def fractional_columns(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """B(alpha) and its order-derivative G(alpha), for alpha in (1, 2]."""
        alpha = float(alpha)
        if not 1.0 < alpha <= 2.0:
            raise ValueError(f"alpha must be in (1, 2], got {alpha}")
        W = self._weights
        np.power(self.xp, -alpha, out=W[0])
        np.multiply(W[0], self.log_x, out=W[1])
        m, l = np.einsum("kj,rj->rk", self.V, W)
        g, psi = power_rule(self.k, alpha)
        gm = g * m
        return self.P @ gm, self.P @ (psi * gm - g * l)
