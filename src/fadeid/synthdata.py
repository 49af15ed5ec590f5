"""Synthetic measurement generation for the fractional advection-dispersion model.

The benchmark problem on [0, L] has the closed-form solution
c(x, t) = cos(-t) * x(L-x), flux dc/dt = sin(-t) * x(L-x).  The source
term is defined as the residual closure

    r = dc/dt + nu * dc/dx - d * D^alpha c,

evaluated in closed form by the power rule of :func:`fadeid.fracpoly.power_rule`,
so the transport equation holds exactly for any parameter choice.  r is
singular like x^(1-alpha) at the origin; the sample stored at x = 0 is 0
by convention (the singularity is integrable and every integrand that
touches it carries a vanishing modulating factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .fracpoly import power_rule


@dataclass(frozen=True)
class TrueModel:
    """Ground-truth transport parameters used to synthesize measurements."""

    nu: float = 0.2
    d: float = 1.0
    alpha: float = 1.8
    L: float = 9.0
    T: float = 1.0

    def __post_init__(self):
        values = (self.nu, self.d, self.L, self.T)
        if any(isinstance(v, bool) for v in values) or not all(map(math.isfinite, values)):
            raise ValueError(f"nu, d, L and T must be finite numbers, got {self}")
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (1, 2], got {self.alpha}")
        if self.L <= 0:
            raise ValueError(f"domain length must be positive, got L={self.L}")
        if self.d <= 0:
            raise ValueError(f"dispersion coefficient must be positive, got d={self.d}")


@dataclass(frozen=True)
class MeasurementSet:
    """Final-time samples of concentration, flux and source on a uniform grid.

    ``c`` / ``dcdt`` are the clean signals; ``c_noisy`` / ``dcdt_noisy``
    carry the measured (possibly noise-corrupted) channels and equal the
    clean ones when no noise was added.  Building one checks the grid every
    estimate rests on: x rises from x[0] = 0 in equal steps (to 1e-9 of a
    step), and x, r, c_noisy and dcdt_noisy are finite (c and dcdt, which
    no estimate reads, are not checked).  The set holds read-only views of
    the arrays it is given, not copies, so nothing edits the checked samples
    through the set; but a set built directly borrows the caller's arrays,
    and an edit through them after the checks still reaches every estimate.
    :func:`synthesize` and :func:`from_csv` hand over arrays no caller holds.
    """

    x: np.ndarray
    c: np.ndarray
    dcdt: np.ndarray
    r: np.ndarray
    c_noisy: np.ndarray
    dcdt_noisy: np.ndarray

    def __post_init__(self):
        for name in ("x", "c", "dcdt", "r", "c_noisy", "dcdt_noisy"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        n = len(self.x)
        if n < 3:
            raise ValueError(f"grid needs at least 3 points, got M={n}")
        for name in ("c", "dcdt", "r", "c_noisy", "dcdt_noisy"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"array length mismatch on '{name}'")
        for name in ("x", "r", "c_noisy", "dcdt_noisy"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite measurement samples in '{name}'")
        x = self.x
        dx = x[1] - x[0]
        if not dx > 0:
            raise ValueError("measurement grid must increase from 0")
        if x[0] != 0.0:
            raise ValueError(f"measurement grid must start at 0, got x[0]={x[0]}")
        if not (np.abs(np.diff(x) - dx) <= 1e-9 * dx).all():
            raise ValueError("measurement grid is not uniformly spaced")


def exact_solution(model: TrueModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (c, dc/dt) at time model.T on the given grid."""
    x = np.asarray(x, dtype=float)
    p = x * (model.L - x)
    return math.cos(-model.T) * p, math.sin(-model.T) * p


def source_term(model: TrueModel, x: np.ndarray) -> np.ndarray:
    """Residual-closure source r = dc/dt + nu dc/dx - d D^alpha c; r(0) = 0."""
    x = np.asarray(x, dtype=float)
    L = model.L
    ct, st = math.cos(-model.T), math.sin(-model.T)
    g, _ = power_rule(np.arange(3.0), model.alpha)
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    # D^alpha [L x - x^2] = (L g_1 - g_2 x) x^(1-alpha), term by term
    frac = xp ** (-model.alpha) * ((L * g[1] - g[2] * xp) * xp)
    out[pos] = st * (xp * (L - xp)) + model.nu * ct * (L - 2.0 * xp) - model.d * ct * frac
    return out


def synthesize(
    model: TrueModel, M: int, noise_level: float = 0.0, seed: int = 0
) -> MeasurementSet:
    """Generate a measurement set on M uniform points spanning [0, L]."""
    x = np.linspace(0.0, model.L, M)
    c, dcdt = exact_solution(model, x)
    r = source_term(model, x)
    return add_noise(MeasurementSet(x, c, dcdt, r, c, dcdt), noise_level, seed)


def add_noise(ms: MeasurementSet, level: float, seed: int) -> MeasurementSet:
    """Additive white Gaussian noise with sigma = level * RMS(clean signal).

    Applied independently to the concentration and flux channels from one
    seeded numpy PCG64 generator (concentration draws first).  level = 0
    returns the input unchanged.  A boolean level, or a seed that is not an
    integer >= 0 (None would draw unseeded noise), raises ValueError.
    """
    if isinstance(level, bool) or not (math.isfinite(level) and level >= 0):
        raise ValueError(f"noise level must be finite and non-negative, got {level!r}")
    if isinstance(seed, bool) or not (isinstance(seed, Integral) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if level == 0:
        return ms
    rng = np.random.default_rng(seed)
    sig_c = level * float(np.sqrt(np.mean(ms.c**2)))
    sig_f = level * float(np.sqrt(np.mean(ms.dcdt**2)))
    c_noisy = ms.c + sig_c * rng.standard_normal(len(ms.c))
    dcdt_noisy = ms.dcdt + sig_f * rng.standard_normal(len(ms.dcdt))
    return replace(ms, c_noisy=c_noisy, dcdt_noisy=dcdt_noisy)


CSV_HEADER = ["x", "c", "dcdt", "r", "c_noisy", "dcdt_noisy"]


def to_csv(ms: MeasurementSet, path) -> None:
    """Write one row per grid point at full double precision."""
    cols = np.column_stack([ms.x, ms.c, ms.dcdt, ms.r, ms.c_noisy, ms.dcdt_noisy])
    np.savetxt(path, cols, fmt="%.17g", delimiter=",", newline="\r\n",
               header=",".join(CSV_HEADER), comments="")


def from_csv(path) -> MeasurementSet:
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        body = fh.tell()
        # skip the lines loadtxt skips, empty once a '#' comment is cut, to find a row
        while (line := fh.readline()) and not line.split("#", 1)[0].rstrip("\r\n"):
            pass
        if not line:
            raise ValueError(f"{path}: CSV file has a header but no data rows")
        fh.seek(body)
        cols = np.loadtxt(fh, delimiter=",", ndmin=2).T
    if len(cols) != len(CSV_HEADER):
        raise ValueError(f"expected {len(CSV_HEADER)} columns, got {len(cols)}")
    return MeasurementSet(*cols)
