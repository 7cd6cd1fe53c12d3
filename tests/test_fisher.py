import numpy as np
import pytest

from cvsense import fisher as fi
from cvsense import gaussian as g
from cvsense import protocols as pr
from cvsense.fock import fock_fidelity, gaussian_to_fock, thermal_populations


def test_params_validation_and_photons():
    with pytest.raises(ValueError):
        fi.SqueezedThermalParams(r=-0.1)
    with pytest.raises(ValueError):
        fi.SqueezedThermalParams(n=-0.1)
    vac = fi.SqueezedThermalParams()
    assert vac.mean_photon_number() == pytest.approx(0.0)
    assert np.allclose(vac.covariance(), 0.25 * np.eye(2))
    # r here is twice the engine squeeze parameter.
    n_s = 2.0
    p = fi.SqueezedThermalParams(r=2.0 * g.squeeze_parameter(n_s))
    assert p.mean_photon_number() == pytest.approx(n_s, abs=1e-12)
    assert np.allclose(p.covariance(), g.squeezed_vacuum(n_s).cov, atol=1e-14)


def test_gaussian_fidelity_examples():
    vac = g.vacuum_state(1)
    assert fi.gaussian_fidelity(vac, vac) == pytest.approx(1.0, abs=1e-12)
    coh = g.coherent_state(1.0)
    assert fi.gaussian_fidelity(vac, coh) == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert fi.gaussian_fidelity(coh, vac) == pytest.approx(np.exp(-1.0), rel=1e-12)
    # Thermal vs vacuum: F = 2/(sqrt(4(nu+1)^2/4) - ... ) = 1/(n+1) for mean photons n.
    n = 0.7
    thermal = g.GaussianState(np.zeros(2), 0.25 * (2 * n + 1) * np.eye(2))
    assert fi.gaussian_fidelity(vac, thermal) == pytest.approx(1.0 / (n + 1.0), rel=1e-12)
    with pytest.raises(ValueError):
        fi.gaussian_fidelity(g.vacuum_state(2), g.vacuum_state(2))


def test_gaussian_fidelity_matches_fock_oracle():
    # Mixed, rotated, displaced squeezed thermal states against the
    # density-matrix route.
    rng = np.random.default_rng(8)
    for _ in range(4):
        pa = fi.SqueezedThermalParams(
            r=rng.uniform(0, 1.0), n=rng.uniform(0, 0.5),
            theta=rng.uniform(0, np.pi), mean=rng.uniform(-0.4, 0.4, 2),
        )
        pb = fi.SqueezedThermalParams(
            r=rng.uniform(0, 1.0), n=rng.uniform(0, 0.5),
            theta=rng.uniform(0, np.pi), mean=rng.uniform(-0.4, 0.4, 2),
        )
        closed = fi.gaussian_fidelity(pa.to_state(), pb.to_state())
        oracle = fock_fidelity(
            gaussian_to_fock(pa.to_state(), 60), gaussian_to_fock(pb.to_state(), 60)
        )
        assert closed == pytest.approx(oracle, abs=1e-6)


def test_fisher_numeric_vacuum():
    assert fi.fisher_numeric(fi.SqueezedThermalParams(), 1.0) == pytest.approx(4.0, abs=1e-6)


def test_fisher_numeric_displacement_independent():
    p = fi.SqueezedThermalParams(r=1.0, n=0.2, theta=0.3)
    at_zero = fi.fisher_numeric(p, 0.9)
    shifted = fi.SqueezedThermalParams(r=1.0, n=0.2, theta=0.3, mean=[0.7, 0.0])
    assert at_zero == pytest.approx(fi.fisher_numeric(shifted, 0.9), abs=1e-8)


def test_fisher_numeric_equals_the_route_through_states(rng):
    # fisher_numeric reads base's arrays instead of building a state per
    # shift; the states' arrays hold the same bits, so the value is equal.
    for _ in range(5):
        params = fi.SqueezedThermalParams(
            r=rng.uniform(0.0, 1.5), n=rng.uniform(0.0, 1.0), theta=rng.uniform(0.0, np.pi),
            mean=rng.uniform(-0.5, 0.5, 2),
        )
        eta = rng.uniform(0.3, 1.0)
        base = fi.lossy_state(params, eta)
        quotients = []
        for e in fi.EPSILONS:
            shifted = g.GaussianState(base.mean + np.array([e, 0.0]), base.cov)
            fid = fi.gaussian_fidelity(base, shifted)
            quotients.append(8.0 * (1.0 - np.sqrt(fid)) / e**2)
        want = fi._richardson(quotients, fi.EPSILONS)
        assert fi.fisher_numeric(params, eta) == want


def test_fisher_closed_form_spot_values():
    # Lossless pure squeezed state probed along x: I = 4 e^{r} ... reduces to
    # 4/Var-scaling extremes at theta = 0 and pi/2.
    r = 1.3
    p0 = fi.SqueezedThermalParams(r=r, theta=0.0)
    assert fi.fisher_closed_form(p0, 1.0) == pytest.approx(4.0 * np.exp(r), rel=1e-12)
    p90 = fi.SqueezedThermalParams(r=r, theta=np.pi / 2)
    assert fi.fisher_closed_form(p90, 1.0) == pytest.approx(4.0 * np.exp(-r), rel=1e-12)
    assert fi.fisher_closed_form(fi.SqueezedThermalParams(), 1.0) == pytest.approx(4.0)


def test_fisher_closed_form_is_inverse_x_variance():
    # I equals the xx entry of the inverse output covariance (vacuum: 4).
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = fi.SqueezedThermalParams(
            r=rng.uniform(0, 2.0), n=rng.uniform(0, 1.0), theta=rng.uniform(0, np.pi)
        )
        eta = rng.uniform(0.2, 1.0)
        cov = fi.lossy_state(p, eta).cov
        assert fi.fisher_closed_form(p, eta) == pytest.approx(
            np.linalg.inv(cov)[0, 0], rel=1e-10
        )


def test_fisher_numeric_matches_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = fi.SqueezedThermalParams(
            r=rng.uniform(0, 2.0), n=rng.uniform(0, 1.0), theta=rng.uniform(0, np.pi)
        )
        eta = rng.uniform(0.3, 1.0)
        numeric = fi.fisher_numeric(p, eta)
        closed = fi.fisher_closed_form(p, eta)
        assert abs(numeric - closed) / closed < 1e-4


def test_fisher_max_values():
    value, argmax = fi.fisher_max(10.0, 1.0)
    assert value == pytest.approx(167.905, abs=1e-3)
    assert argmax.r == pytest.approx(np.arccosh(21.0), rel=1e-12)
    assert argmax.n == 0.0 and argmax.theta == 0.0
    # The argmax parameters actually achieve the maximum.
    assert fi.fisher_closed_form(argmax, 1.0) == pytest.approx(value, rel=1e-12)
    v0, _ = fi.fisher_max(0.0, 0.6)
    assert v0 == pytest.approx(4.0)


def test_fisher_max_dominates_random_states():
    rng = np.random.default_rng(19)
    budget, eta = 1.5, 0.8
    cap, _ = fi.fisher_max(budget, eta)
    for _ in range(50):
        p = fi.SqueezedThermalParams(
            r=rng.uniform(0, np.arccosh(2 * budget + 1)),
            n=rng.uniform(0, 0.5), theta=rng.uniform(0, np.pi),
            mean=rng.uniform(-0.5, 0.5, 2),
        )
        if p.mean_photon_number() > budget:
            continue
        assert fi.fisher_closed_form(p, eta) <= cap + 1e-9


def test_fisher_max_concave_in_budget():
    ns = np.linspace(0.0, 20.0, 101)
    vals = np.array([fi.fisher_max(n, 0.9)[0] for n in ns])
    assert np.all(np.diff(vals) > 0)
    assert np.all(np.diff(vals, 2) < 1e-9)


def test_cr_bound_identity():
    for m, n_s, eta in [(1, 0.0, 1.0), (4, 4.0, 1.0), (20, 10.0, 0.9), (50, 3.0, 0.55)]:
        direct = 1.0 / np.sqrt(m * fi.fisher_max(n_s / m, eta)[0])
        assert fi.cr_bound_separable(m, n_s, eta) == pytest.approx(direct, rel=1e-14)
        assert fi.cr_bound_separable(m, n_s, eta) == pytest.approx(
            float(pr.product_rms_error(m, n_s, eta)), rel=1e-14
        )


_SQUEEZED = fi.SqueezedThermalParams(r=1.0)


@pytest.mark.parametrize("call, match", [
    (lambda: fi.fisher_closed_form(_SQUEEZED, np.nan), "transmissivities"),
    (lambda: fi.lossy_state(_SQUEEZED, np.nan), "transmissivities"),
    (lambda: fi.fisher_max(np.nan, 0.9), "photon budget"),
    (lambda: fi.fisher_max(1.0, np.nan), "transmissivities"),
    (lambda: fi.fisher_max(1.0, 0.0), "transmissivities"),
    (lambda: thermal_populations(np.nan, 5), "thermal occupation"),
], ids=["closed-form-eta", "lossy-state-eta", "max-budget", "max-eta", "max-eta-zero",
        "thermal-nbar"])
def test_domain_checks_reject_nan(call, match):
    with pytest.raises(ValueError, match=match):
        call()
