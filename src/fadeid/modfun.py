"""Polynomial modulating-function families and their moments against data.

The family on [0, L1] is phi_n(x) = x^(N+b+1-n) * (L1-x)^(b+n) for
n = 1..N.  Every member and its first derivative vanish at both endpoints
(with margin: the vanishing orders are N+b+1-n >= b+2 at 0 and b+n >= b+1
at L1), and the minimal monomial power b+1 exceeds 2, so fractional
derivatives of order up to 2 and their order-sensitivities are regular on
[0, L1] and vanish at 0.

:class:`DataMoments` integrates a family against samples on a uniform grid
by the trapezoid rule (weights w_j), on one thread: the products here are
too small to gain from a threaded BLAS, and its threads oversubscribe the
CPUs when sweep cells run in a process pool.  The columns free of alpha,

    A_n = integral of -phi_n'(L1-x) c(x) dx,  C_n = integral of phi_n(L1-x) rhs(x) dx,

are integrated once from the factored forms.  The fractional column

    B_n(alpha) = integral of D^alpha phi_n(x) c(L1-x) dx

and its order-derivative G_n = dB_n/dalpha follow from the power rule
D^alpha x^k = g_k x^(k-alpha), g_k = Gamma(k+1)/Gamma(k+1-alpha), with
dg_k/dalpha = g_k psi(k+1-alpha).  Writing phi_n = sum_k P[n, k] x^k and

    m_k = sum_j w_j x_j^(k-alpha) c(L1-x_j),   l_k = the same with a ln(x_j) factor,

gives B = P (g m) and G = P (g (psi m - l)).  The alpha-free block
V[k, j] = w_j x_j^k c(L1-x_j) is stored once, so each alpha costs one
(K x M) @ (M x 2) product.  The x = 0 sample is left out of V: every
k - alpha > 0, so both integrands vanish there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .fracpoly import Polynomial


@dataclass(frozen=True)
class ModulatingFamily:
    n_funcs: int
    b: int
    L1: float
    members: tuple[Polynomial, ...]
    #: factored powers (a_n, c_n) with phi_n = x^a_n (L1-x)^c_n
    powers: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return self.n_funcs + 2 * self.b + 1


def build_family(N: int, b: int, L1: float) -> ModulatingFamily:
    """Construct the N-member polynomial modulating family on [0, L1]."""
    if N < 2:
        raise ValueError(f"need at least 2 modulating functions, got N={N}")
    if b < 2:
        raise ValueError(f"order offset b must be >= 2, got b={b}")
    if L1 <= 0:
        raise ValueError(f"interval length must be positive, got L1={L1}")
    L1 = float(L1)
    right = Polynomial((L1, -1.0))
    members = []
    powers = []
    for n in range(1, N + 1):
        a, c = N + b + 1 - n, b + n
        members.append(Polynomial.monomial(a) * right ** c)
        powers.append((a, c))
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
        w = np.full(M, x[1] - x[0])
        w[[0, -1]] *= 0.5
        wc = w * np.asarray(c, dtype=float)[::-1]   # w_j c(L1 - x_j)
        wr = w * np.asarray(rhs, dtype=float)[::-1]

        y = fam.L1 - x
        self.A, self.C = np.empty(fam.n_funcs), np.empty(fam.n_funcs)
        for n, (a, e) in enumerate(fam.powers):
            # factored forms are exact at the endpoints (no cancellation)
            base = x ** (a - 1) * y ** (e - 1)
            self.A[n] = -np.einsum("j,j->", base * (a * y - e * x), wc)
            self.C[n] = np.einsum("j,j->", base * x * y, wr)

        k0 = fam.b + 1  # lowest power with a nonzero coefficient in any member
        self.k = np.arange(k0, fam.degree + 1, dtype=float)
        self.P = np.array([m.coeffs[k0:] for m in fam.members])
        self.xp = x[1:]
        self.log_x = np.log(self.xp)
        self.V = np.empty((len(self.k), M - 1))
        self.V[0] = wc[1:] * self.xp**k0
        for i in range(1, len(self.k)):
            self.V[i] = self.V[i - 1] * self.xp

    def fractional_columns(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """B(alpha) and its order-derivative G(alpha), for alpha in (1, 2]."""
        alpha = float(alpha)
        if not 1.0 < alpha <= 2.0:
            raise ValueError(f"alpha must be in (1, 2], got {alpha}")
        x_a = self.xp ** -alpha
        m, l = np.einsum("kj,rj->rk", self.V, [x_a, x_a * self.log_x])
        g = special.gamma(self.k + 1) * special.rgamma(self.k + 1 - alpha)
        gm = g * m
        return self.P @ gm, self.P @ (special.psi(self.k + 1 - alpha) * gm - g * l)
