import multiprocessing

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from fadeid.fracpoly import power_rule


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test after which a child process is still running."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def rl_reference():
    """(p, alpha, x) -> [D^alpha p, d/dalpha D^alpha p] on x, summed over the
    monomials of p (which cancel for high degree).  Both rows are 0 at x = 0,
    where every use has a positive exponent or a vanishing factor."""

    def evaluate(p, alpha, x):
        g, psi = power_rule(np.arange(len(p.coef), dtype=float), alpha)
        q = p.coef * g
        s = q * np.where(q != 0.0, psi, 0.0)  # psi is inf or nan at the Gamma poles
        out = np.zeros((2, len(x)))
        xp = x[x > 0.0]
        v = npp.polyval(xp, q)
        out[:, x > 0.0] = xp ** -alpha * np.array([v, npp.polyval(xp, s) - np.log(xp) * v])
        return out

    return evaluate
