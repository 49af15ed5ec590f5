"""End-to-end acceptance gate.

One test per acceptance criterion, each emitting a single PASS/FAIL line
at its stated tolerance.  Criteria that measure Monte-Carlo statistics use
20 fixed seeds and run their estimation cells through the sweep runner.
"""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from fadeid.fracpoly import rl_derivative, rl_alpha_sensitivity
from fadeid.synthdata import TrueModel, synthesize
from fadeid.estimator import (
    EstimatorConfig,
    linearize,
    measurement_moments,
    estimate_two_param,
)
from fadeid.expcli import ExperimentSpec, run
from fadeid.selftest import CHECKS

EXAMPLE1 = TrueModel(nu=0.2, d=1.0, alpha=1.8, L=9.0, T=1.0)
TABLE1 = TrueModel(nu=0.5, d=1.0, alpha=1.8, L=9.0, T=1.0)
SEEDS = range(20)
M_1500 = 9 * 1500 + 1   # grid spacing 1/1500 on [0, 9]
M_3500 = 9 * 3500 + 1   # grid spacing 1/3500 on [0, 9]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def two_param_errors(model, M, L1, noise, seed):
    ms = synthesize(model, M, noise_level=noise, seed=seed)
    nu, d, _ = estimate_two_param(ms, EstimatorConfig(L1=L1, N=3, b=3), model.alpha)
    return abs(nu - model.nu) / abs(model.nu), abs(d - model.d) / abs(model.d)


def newton_sweep(n_values, noise):
    """Three-parameter sweep rows on Table-1 data, L1 = 9, seeds 0..19."""
    spec = ExperimentSpec(
        truth=TABLE1, estimator=EstimatorConfig(b=3, alpha0=1.4), noise_levels=[noise],
        n_list=list(n_values), L1_list=[9.0], seeds=list(SEEDS), grid_points=M_3500,
    )
    rows = run(spec)
    errors = [r.error for r in rows if r.error]
    assert not errors, errors
    return rows


def mean_errors(rows):
    return [float(np.mean([getattr(r, f) for r in rows]))
            for f in ("err_nu", "err_d", "err_alpha")]


@pytest.fixture(scope="module")
def table1_sweep():
    """2% noise, N = 3..11, 20 seeds (shared by the three-parameter criteria)."""
    return newton_sweep(range(3, 12), 0.02)


def test_criterion_1_noise_free_two_param():
    e_nu, e_d = two_param_errors(EXAMPLE1, M_1500, 9.0, 0.0, 0)
    e_nu2, e_d2 = two_param_errors(EXAMPLE1, 2 * (M_1500 - 1) + 1, 9.0, 0.0, 0)
    ok = (
        e_nu <= 1e-3
        and e_d <= 1e-3
        and e_nu2 <= e_nu / 2
        and e_d2 <= e_d / 2
    )
    report(
        "criterion 1 (noise-free two-parameter recovery)",
        ok,
        f"rel err nu={e_nu:.2e} d={e_d:.2e} (tol 1e-3); "
        f"halved spacing -> nu={e_nu2:.2e} d={e_d2:.2e} (need >=2x reduction)",
    )


def test_criterion_2_noisy_two_param():
    means = {}
    for L1 in (9.0, 5.0):
        errs = np.array(
            [two_param_errors(EXAMPLE1, M_1500, L1, 0.03, s) for s in SEEDS]
        )
        means[L1] = errs.mean(axis=0)
    nu9, d9 = means[9.0]
    nu5, d5 = means[5.0]
    ok = nu9 <= 1e-2 and d9 <= 1e-2 and nu9 < nu5 and d9 < d5
    report(
        "criterion 2 (3% noise two-parameter, 20 seeds)",
        ok,
        f"L1=9 mean rel err nu={nu9:.2e} d={d9:.2e} (tol 1e-2); "
        f"L1=5 mean nu={nu5:.2e} d={d5:.2e} (must exceed L1=9)",
    )


def test_criterion_3a_three_param_convergence(table1_sweep):
    bad = [(r.n_funcs, r.seed) for r in table1_sweep if not r.converged]
    report(
        "criterion 3a (2% noise, N=3..11: convergence for every N and seed)",
        not bad,
        f"{len(table1_sweep)} cells, non-converged: {bad or 'none'}",
    )


def test_criterion_3b_three_param_per_seed(table1_sweep):
    worst = max(max(r.err_nu, r.err_d, r.err_alpha) for r in table1_sweep)
    report(
        "criterion 3b (2% noise: per-seed rel errors <= 2e-2)",
        worst <= 2e-2,
        f"worst per-seed per-parameter rel error {worst:.2e} (tol 2e-2)",
    )


def test_criterion_3c_three_param_mean(table1_sweep):
    detail = []
    ok = True
    for N in sorted({r.n_funcs for r in table1_sweep}):
        mn = mean_errors([r for r in table1_sweep if r.n_funcs == N])
        ok &= all(m <= 5e-3 for m in mn)
        detail.append(f"N={N}: nu={mn[0]:.2e} d={mn[1]:.2e} alpha={mn[2]:.2e}")
    report(
        "criterion 3c (2% noise: 20-seed mean rel errors <= 5e-3)",
        ok,
        "; ".join(detail),
    )


def test_criterion_4_ten_percent_noise():
    rows = newton_sweep([7], 0.10)
    conv = all(r.converged for r in rows)
    mn = mean_errors(rows)
    ok = conv and all(m <= 5e-2 for m in mn)
    report(
        "criterion 4 (10% noise at N=7, 20 seeds)",
        ok,
        f"all converged={conv}; mean rel errors nu={mn[0]:.2e} "
        f"d={mn[1]:.2e} alpha={mn[2]:.2e} (tol 5e-2)",
    )


def test_criterion_5_property_suite():
    failures = []
    for name, fn in CHECKS:
        ok, detail = fn()
        if not ok:
            failures.append(f"{name} ({detail})")

    # second-order-in-step convergence of both finite-difference oracles
    p = Polynomial.basis(6)
    exact = rl_alpha_sensitivity(p, 1.6)(0.7)
    errs = []
    for h in (1e-2, 1e-3):
        fd = (rl_derivative(p, 1.6 + h)(0.7) - rl_derivative(p, 1.6 - h)(0.7)) / (2 * h)
        errs.append(abs(fd - exact))
    if errs[1] > errs[0] / 20:
        failures.append("sensitivity FD error not O(h^2)")

    mom = measurement_moments(synthesize(EXAMPLE1, 2701), EstimatorConfig(L1=9.0, N=3))
    alpha = 1.8

    analytic = linearize(mom, alpha).Kp
    errs = []
    for h in (1e-2, 1e-3):
        fd = (linearize(mom, alpha + h).K - linearize(mom, alpha - h).K) / (2 * h)
        errs.append(float(np.abs(fd - analytic).max()))
    if errs[1] > errs[0] / 20:
        failures.append("gradient FD error not O(h^2)")

    report(
        "criterion 5 (property suite)",
        not failures,
        "all invariants hold" if not failures else "; ".join(failures),
    )


def test_criterion_6_conditioning_monotone():
    ms = synthesize(EXAMPLE1, M_1500)
    conds = []
    for N in range(3, 21):
        mom = measurement_moments(ms, EstimatorConfig(L1=9.0, N=N))
        conds.append(linearize(mom, 1.8).cond)
    monotone = all(b > a for a, b in zip(conds, conds[1:]))
    report(
        "criterion 6 (condition estimate monotone over N=3..20)",
        monotone,
        "cond(N=3..20) = " + ", ".join(f"{c:.3f}" for c in conds),
    )
