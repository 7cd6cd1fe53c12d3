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
    # r here is twice the engine squeeze parameter arcsinh(sqrt(n)), formed here so
    # that the reference does not share squeezed_variances' route.
    n_s = 2.0
    p = fi.SqueezedThermalParams(r=2.0 * np.arcsinh(np.sqrt(n_s)))
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


# A covariance just under the vacuum's determinant puts the purity term below 0: within
# PURITY_CLAMP that is round-off, clamped to the pure value (unclamped, its square root
# would warn), and past it the covariance is refused.
@pytest.mark.parametrize("deficit, error", [(4e-14, None), (4e-11, "violates the purity bound")],
                         ids=["clamped", "refused"])
def test_fidelity_near_the_purity_bound(deficit, error):
    nearly_pure = g.GaussianState(np.zeros(2), np.diag([0.25 - deficit, 0.25]))
    thermal = g.GaussianState(np.zeros(2), 0.5 * np.eye(2))  # n = 0.5
    if error is None:
        assert fi.gaussian_fidelity(nearly_pure, thermal) == pytest.approx(1.0 / 1.5, rel=1e-12)
    else:
        with pytest.raises(ValueError, match=error):
            fi.gaussian_fidelity(nearly_pure, thermal)


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


def test_fisher_numeric_refuses_a_quotient_that_turns_back(monkeypatch):
    # The quotient is 4 - e^2/8 + O(e^4) on vacuum, so steps out of order make it turn back.
    monkeypatch.setattr(fi, "EPSILONS", (1e-2, 2.5e-3, 5e-3))
    with pytest.raises(RuntimeError, match="did not converge monotonically"):
        fi.fisher_numeric(fi.SqueezedThermalParams(), 1.0)


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
    # I equals the xx entry of the inverse output covariance (vacuum: 4), through the
    # validated state and np.linalg.inv.
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20_000):
        p = fi.SqueezedThermalParams(
            r=rng.uniform(0, 2.0), n=rng.uniform(0, 1.0), theta=rng.uniform(0, np.pi)
        )
        eta = rng.uniform(0.2, 1.0)
        want = np.linalg.inv(fi.lossy_state(p, eta).cov)[0, 0]
        worst = max(worst, abs(fi.fisher_closed_form(p, eta) / want - 1.0))
    assert worst <= 1e-12


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
    (lambda: fi.fisher_max(np.inf, 0.9), "photon budget"),
    (lambda: fi.fisher_max(1.0, np.nan), "transmissivities"),
    (lambda: fi.fisher_max(1.0, 0.0), "transmissivities"),
    (lambda: thermal_populations(np.nan, 5), "thermal occupation"),
], ids=["closed-form-eta", "lossy-state-eta", "max-budget", "max-budget-inf", "max-eta",
        "max-eta-zero", "thermal-nbar"])
def test_domain_checks_reject_nan(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# -- the single-mode 2x2 algebra in floats against its np.linalg route ------------------


def _linalg_covariance(r, n, theta):
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, s], [-s, c]])
    return rot @ np.diag([(2 * n + 1) * np.exp(-r) / 4.0, (2 * n + 1) * np.exp(r) / 4.0]) @ rot.T


def _linalg_fidelity(mean_a, cov_a, mean_b, cov_b):
    """The determinant-and-solve form, with the clamp and refusal of _fidelities."""
    vsum = cov_a + cov_b
    small = (16.0 * np.linalg.det(cov_a) - 1.0) * (16.0 * np.linalg.det(cov_b) - 1.0) / 4.0
    if small < -fi.PURITY_CLAMP:
        raise ValueError("covariance violates the purity bound")
    small = max(small, 0.0)
    du = mean_b - mean_a
    denominator = np.sqrt(4.0 * np.linalg.det(vsum) + small) - np.sqrt(small)
    return min(np.exp(-0.5 * du @ np.linalg.solve(vsum, du)) / denominator, 1.0)


def _draw_params(rng, kind):
    """(r, n, theta): generic, near-circular (c00 ~ c11, c01 ~ 0), pure, or mixed (n >= 0.2)."""
    r = 10.0 ** rng.uniform(-12, -6) if kind == "circular" else rng.uniform(0.0, 2.0)
    n = {"pure": 0.0, "mixed": rng.uniform(0.2, 1.0)}.get(kind, rng.uniform(0.0, 1.0))
    return r, n, rng.uniform(-np.pi, np.pi)


@pytest.mark.parametrize("kind", ["generic", "circular", "pure"])
def test_covariance_matches_the_rotated_diagonal(kind):
    rng = np.random.default_rng(["generic", "circular", "pure"].index(kind))
    for _ in range(2000):
        r, n, theta = _draw_params(rng, kind)
        got = fi.SqueezedThermalParams(r=r, n=n, theta=theta).covariance()
        want = _linalg_covariance(r, n, theta)
        assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()  # a few ulps
        assert got[0, 1] == got[1, 0]


# A pure state scaled down by 1e-13 to 4e-13 of its determinant puts the purity term
# below 0 beyond round-off in both routes, and within PURITY_CLAMP against a mixed state
# (n >= 0.2): both clamp. Scaled by 1e-11, it is past the clamp: both refuse.
@pytest.mark.parametrize("kind", ["generic", "circular", "pure", "clamped", "refused"])
def test_fidelities_match_the_determinant_and_solve_form(kind):
    rng = np.random.default_rng([31, ["generic", "circular", "pure", "clamped",
                                      "refused"].index(kind)])
    near_pure = kind in ("clamped", "refused")
    for _ in range(2000):
        means = [rng.uniform(-1.0, 1.0, 2) for _ in range(3)]
        covs = [_linalg_covariance(*_draw_params(rng, "mixed" if near_pure else kind))
                for _ in range(2)]
        if near_pure:
            r, _, theta = _draw_params(rng, "pure")
            deficit = rng.uniform(1e-13, 4e-13) if kind == "clamped" else 1e-11
            covs[0] = _linalg_covariance(r / 2.0, 0.0, theta) * np.sqrt(1.0 - deficit)
        if kind == "refused":
            with pytest.raises(ValueError, match="purity bound"):
                _linalg_fidelity(means[0], covs[0], means[1], covs[1])
            with pytest.raises(ValueError, match="purity bound"):
                fi._fidelities(means[0].tolist(), covs[0], [means[1].tolist()], covs[1])
            continue
        got = fi._fidelities(means[0].tolist(), covs[0], [m.tolist() for m in means[1:]],
                             covs[1])
        for mean_b, value in zip(means[1:], got):
            assert value == pytest.approx(_linalg_fidelity(means[0], covs[0], mean_b, covs[1]),
                                          rel=1e-13)


_HOSTILE = {"r=inf": dict(r=np.inf), "r=nan": dict(r=np.nan), "n=inf": dict(n=np.inf),
            "n=nan": dict(n=np.nan), "theta=inf": dict(theta=np.inf),
            "theta=-inf": dict(theta=-np.inf), "theta=nan": dict(theta=np.nan)}


@pytest.mark.parametrize("fields", _HOSTILE.values(), ids=_HOSTILE.keys())
def test_non_finite_parameters_are_refused(fields):
    with pytest.raises(ValueError, match="finite"):
        fi.SqueezedThermalParams(**fields)


# r past log(float64 max) overflows exp(r); n = 1e308 overflows 2n + 1; r = 400 with
# n = 1e150 keeps every entry finite but overflows the determinant.
@pytest.mark.parametrize("fields", [dict(r=800.0), dict(r=709.79), dict(n=1e308),
                                    dict(r=400.0, n=1e150, theta=0.3)],
                         ids=["r=800", "r=709.79", "n=1e308", "det-overflow"])
@pytest.mark.parametrize("route", [
    lambda p: p.covariance(), lambda p: p.to_state(), lambda p: fi.lossy_state(p, 0.5),
    lambda p: fi.fisher_closed_form(p, 0.5), lambda p: fi.fisher_numeric(p, 0.5),
    lambda p: p.mean_photon_number(),
], ids=["covariance", "to_state", "lossy_state", "closed_form", "numeric", "photons"])
def test_an_overflowing_covariance_is_refused_on_every_route(fields, route):
    with pytest.raises(ValueError, match="overflows float64"):
        route(fi.SqueezedThermalParams(**fields))


def test_a_large_finite_squeeze_is_accepted():
    # F = V_pp/det V = 4 exp(r) at theta = 0, eta = 1, finite up to r = 708.
    p = fi.SqueezedThermalParams(r=700.0)
    assert fi.fisher_closed_form(p, 1.0) == pytest.approx(4.0 * np.exp(700.0), rel=1e-15)
    with pytest.raises(ValueError, match="Fisher information at r = 709 overflows float64"):
        fi.fisher_closed_form(fi.SqueezedThermalParams(r=709.0), 1.0)
