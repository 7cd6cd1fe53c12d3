"""Acceptance checks: one test per release criterion.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (bypassing
pytest's capture) before asserting, so a run of this module doubles as a
sign-off report.
"""

import sys
import time

import numpy as np
import pytest

from cvsense import allocation as al
from cvsense import fisher as fi
from cvsense import fock
from cvsense import gaussian as g
from cvsense import protocols as pr


_CAPMAN = None


@pytest.fixture(autouse=True)
def _console(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number}: {status} ({detail})"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number}: {detail}"


def fitted_slope(scheme, ms):
    formula = pr.entangled_rms_error if scheme == "entangled" else pr.product_rms_error
    vals = [float(formula(m, float(m), 1.0)) for m in ms]  # n_S = 1 per node
    return np.polyfit(np.log10(ms), np.log10(vals), 1)[0]


def test_criterion_1_scaling_exponents():
    ms = [10**2, 10**3, 10**4]
    ent = fitted_slope("entangled", ms)
    prod = fitted_slope("product", ms)
    ok = abs(ent + 1.0) <= 0.02 and abs(prod + 0.5) <= 0.02
    report(1, ok, f"slopes entangled={ent:.4f} product={prod:.4f}")


def test_criterion_2_ratio_asymptote():
    ratio = float(pr.sensitivity_ratio_db(10**3, 10.0, 1.0))
    ok = abs(ratio - 16.02) <= 0.5
    report(2, ok, f"ratio at M=1000 is {ratio:.4f} dB vs 16.02 +- 0.5 dB")


def test_criterion_3_monte_carlo():
    trials = 1_000_000
    start = time.perf_counter()
    results = []
    for m, n_s, eta, target, seed in [
        (4, 4.0, 1.0, 0.059017, 2026_001),
        (20, 10.0, 0.9, 0.065303, 2026_002),
    ]:
        scheme = "entangled" if m == 4 else "product"
        cfg = pr.SensorNetworkConfig(
            m, n_s, eta, scheme=scheme, alpha_true=0.1, seed=seed, trials=trials
        )
        rep = pr.simulate_displacement_protocol(cfg)
        tol = 3.0 * rep.analytic_rms / np.sqrt(2.0 * trials)
        results.append((rep.empirical_rms_error, target, tol))
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0 and all(abs(emp - tgt) < tol for emp, tgt, tol in results)
    gaps = ", ".join(f"|{emp:.6f}-{tgt}|<{tol:.2e}" for emp, tgt, tol in results)
    report(3, ok, f"{gaps}; runtime {elapsed:.1f}s")


def test_criterion_4_fidelity_battery():
    rng = np.random.default_rng(20260824)
    r_max = float(np.arcsinh(np.sqrt(5.0)))
    worst = 0.0
    for _ in range(30):
        states = []
        for _ in range(2):
            params = fi.SqueezedThermalParams(
                r=rng.uniform(0.0, r_max),
                n=rng.uniform(0.0, 1.0),
                theta=rng.uniform(0.0, np.pi),
                mean=rng.uniform(-0.5, 0.5, size=2),
            )
            states.append(params.to_state())
        closed = fi.gaussian_fidelity(*states)
        oracle = fock.fock_fidelity(
            fock.gaussian_to_fock(states[0], 60), fock.gaussian_to_fock(states[1], 60)
        )
        worst = max(worst, abs(closed - oracle))
    forced = fi.gaussian_fidelity(g.coherent_state(0.0), g.coherent_state(1.0))
    ok = worst < 1e-6 and abs(forced - 0.367879) < 1e-6
    report(4, ok, f"worst battery gap {worst:.2e}; coherent overlap {forced:.6f}")


def test_criterion_5_fisher_numeric_vs_closed():
    rng = np.random.default_rng(55)
    worst = 0.0
    for i in range(20):
        params = fi.SqueezedThermalParams(
            r=rng.uniform(0.0, 1.5), n=rng.uniform(0.0, 1.0),
            theta=rng.uniform(0.0, np.pi),
        )
        eta = (0.5, 0.8, 1.0)[i % 3]
        closed = fi.fisher_closed_form(params, eta)
        numeric = fi.fisher_numeric(params, eta)
        worst = max(worst, abs(numeric - closed) / closed)
    vacuum = fi.fisher_numeric(fi.SqueezedThermalParams(), 1.0)
    ok = worst < 1e-4 and abs(vacuum - 4.0) < 1e-6
    report(5, ok, f"worst relative gap {worst:.2e}; vacuum {vacuum:.8f}")


def test_criterion_6_cr_bound_identity():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 200))
        n_s = float(rng.uniform(0.0, 50.0))
        eta = float(rng.uniform(0.05, 1.0))
        bound = fi.cr_bound_separable(m, n_s, eta)
        direct = 1.0 / np.sqrt(m * fi.fisher_max(n_s / m, eta)[0])
        worst = max(worst, abs(bound - direct) / direct)
    ok = worst < 5e-15
    report(6, ok, f"worst relative gap {worst:.2e} over 100 grid points")


def test_criterion_7_brute_force_maximization():
    budget, eta = 1.0, 0.8
    cap, _ = fi.fisher_max(budget, eta)
    n_grid = 50
    theta = np.linspace(0.0, np.pi, n_grid)
    n = np.linspace(0.0, 1.0, n_grid)
    r = np.linspace(0.0, np.arccosh(2 * budget + 1.0), n_grid)
    a = np.linspace(0.0, np.sqrt(budget), n_grid)
    th, nn, rr, aa = np.meshgrid(theta, n, r, a, indexing="ij", sparse=True)
    photons = aa**2 + ((2 * nn + 1) * np.cosh(rr) - 1.0) / 2.0
    er = np.exp(rr)
    nu = 2 * nn + 1
    num = 4.0 * (er * (1 - eta) + nu * eta * (er**2 * np.cos(th) ** 2 + np.sin(th) ** 2))
    den = (er * (1 - eta) + nu * eta) * (nu * eta * er + 1 - eta)
    info = np.where(photons <= budget, num / den, -np.inf)
    excess = info.max() - cap
    ok = excess <= 1e-9
    report(7, ok, f"grid max exceeds fisher_max by {excess:.2e}")


def test_criterion_8_allocation_optimizers():
    etas = np.array([0.9, 0.3])
    n_s = 4.0
    # Fixed-weight allocation vs a refined line search.
    net = al.WeightedNetwork(2, np.array([0.7, 0.3]), etas, n_s)
    result = al.allocate_photons_product(net)
    grid = np.linspace(1e-8, n_s - 1e-8, 2_000_001)
    objs = np.array([
        net.weights[0] ** 2 * (etas[0] * al._inv_scale(grid) + 1 - etas[0])
        + net.weights[1] ** 2 * (etas[1] * al._inv_scale(n_s - grid) + 1 - etas[1])
    ])[0]
    alloc_gap = abs(result.objective - 0.5 * np.sqrt(objs.min()))
    # Joint optimization vs a 200 x 200 (weight, split) grid.
    _, joint = al.optimal_weights_product(etas, n_s)
    best = np.inf
    for w1 in np.linspace(0.01, 0.99, 200):
        w = np.array([w1, 1.0 - w1])
        gnet = al.WeightedNetwork(2, w, etas, n_s)
        for n1 in np.linspace(1e-4, n_s - 1e-4, 200):
            best = min(best, al.weighted_rms(gnet.weights, gnet.etas, np.array([n1, n_s - n1])))
    joint_gap = joint.objective - best
    # Uniform instances reduce exactly to the closed forms.
    uni = al.WeightedNetwork(4, np.full(4, 0.25), np.full(4, 0.9), 4.0)
    ent_gap = abs(al.weighted_entangled_rms(uni) - float(pr.entangled_rms_error(4, 4.0, 0.9)))
    prod_gap = abs(
        al.allocate_photons_product(uni).objective - float(pr.product_rms_error(4, 4.0, 0.9))
    )
    ok = alloc_gap < 1e-6 and joint_gap < 1e-6 and ent_gap < 1e-12 and prod_gap < 1e-9
    report(8, ok, f"alloc gap {alloc_gap:.2e}, joint gap {joint_gap:.2e}, "
                  f"uniform gaps {ent_gap:.1e}/{prod_gap:.1e}")


def test_criterion_9_phase_linearization():
    m, n_s, n_v, eta = 2, 2.0, 100.0, 1.0
    rep = pr.simulate_phase_protocol(m, n_s, n_v, eta, 0.01, 1_000_000, seed=909)
    residual = abs(pr.phase_exact_stats(m, n_s, n_v, eta, 0.01)[2] - rep.analytic_rms)
    gap = abs(rep.empirical_rms_error - rep.analytic_rms)
    tol = 3.0 * rep.rms_standard_error + residual
    linearized = pr.phase_rms_error(m, n_s, n_v, eta)
    res2 = abs(pr.phase_exact_stats(m, n_s, n_v, eta, 0.02)[2] - linearized)
    ratio = res2 / residual
    ok = gap < tol and abs(ratio - 4.0) <= 1.0
    report(9, ok, f"mc gap {gap:.2e} < {tol:.2e}; residual ratio {ratio:.2f}")


def test_criterion_10_documented_discrepancy():
    ratio = float(pr.sensitivity_ratio_db(20, 10.0, 0.9))
    annotated = any("8 dB" in note for note in pr.known_discrepancies())
    ok = abs(ratio - 4.49) <= 0.01 and annotated
    report(10, ok, f"ratio {ratio:.4f} dB; 8 dB claim annotated: {annotated}")
