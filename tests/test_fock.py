import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import poisson

from cvsense import fisher, fock
from cvsense import gaussian as g


def test_vacuum_density():
    op = fock.gaussian_to_fock(g.vacuum_state(1), 20)
    expected = np.zeros((20, 20))
    expected[0, 0] = 1.0
    assert np.abs(op.matrix - expected).max() < 1e-12


def test_coherent_state_is_poissonian():
    alpha = 1.4
    cutoff = int(alpha**2 + 10 * alpha + 20)
    op = fock.gaussian_to_fock(g.coherent_state(alpha), cutoff)
    probs = op.photon_distribution()
    expected = poisson.pmf(np.arange(cutoff), alpha**2)
    assert np.abs(probs - expected).max() < 1e-8


def test_squeezed_vacuum_statistics():
    op = fock.gaussian_to_fock(g.squeezed_vacuum(1.0), 60)
    probs = op.photon_distribution()
    assert np.abs(probs[1::2]).max() < 1e-12  # odd Fock support vanishes
    assert op.mean_photon_number() == pytest.approx(1.0, abs=1e-8)


def test_cutoff_too_small_reported():
    # A coherent state keeps its norm under the truncated displacement, so
    # only its population on the top level shows the cutoff is too small.
    with pytest.raises(ValueError, match="top-level occupancy .* increase the Fock cutoff"):
        fock.gaussian_to_fock(g.coherent_state(3.0), 8)
    with pytest.raises(ValueError, match="cutoff must be >= 2"):
        fock.gaussian_to_fock(g.vacuum_state(1), 1)


def test_trace_deficit_reported():
    # nbar = 5 thermal noise leaves (5/6)^40 = 7e-4 of its populations above cutoff 40.
    thermal = g.GaussianState(np.zeros(2), 0.25 * 11.0 * np.eye(2))
    with pytest.raises(ValueError, match="trace deficit .* increase the Fock cutoff"):
        fock.gaussian_to_fock(thermal, 40)


def test_nan_factor_fails_the_truncation_check():
    with pytest.raises(ValueError, match="trace deficit nan"):
        fock._check_truncation(fock.FockOperator(np.full((6, 2), np.nan)))


def test_single_mode_only():
    with pytest.raises(ValueError):
        fock.gaussian_to_fock(g.vacuum_state(2), 20)


def test_fidelity_self_and_symmetry():
    a = fock.gaussian_to_fock(g.squeezed_vacuum(0.5), 40)
    thermal = g.GaussianState(np.zeros(2), 0.25 * 1.8 * np.eye(2))
    b = fock.gaussian_to_fock(thermal, 40)
    assert fock.fock_fidelity(a, a) == pytest.approx(1.0, abs=1e-9)
    assert fock.fock_fidelity(a, b) == pytest.approx(fock.fock_fidelity(b, a), abs=1e-10)


def test_fidelity_coherent_overlap():
    a = fock.gaussian_to_fock(g.coherent_state(0.0), 40)
    b = fock.gaussian_to_fock(g.coherent_state(1.0), 40)
    assert fock.fock_fidelity(a, b) == pytest.approx(np.exp(-1.0), abs=1e-9)


def test_fidelity_cutoff_mismatch():
    a = fock.gaussian_to_fock(g.vacuum_state(1), 20)
    b = fock.gaussian_to_fock(g.vacuum_state(1), 30)
    with pytest.raises(ValueError):
        fock.fock_fidelity(a, b)


def test_fidelity_unitary_invariance():
    # A common displacement leaves the fidelity unchanged away from the cutoff edge.
    cutoff = 80
    s1 = fock.gaussian_to_fock(g.squeezed_vacuum(0.8), cutoff)
    s2 = fock.gaussian_to_fock(g.coherent_state(0.3), cutoff)
    base = fock.fock_fidelity(s1, s2)
    disp = _displacement(0.25 + 0.1j, cutoff)
    moved1 = fock.FockOperator(disp @ s1.factor)
    moved2 = fock.FockOperator(disp @ s2.factor)
    assert fock.fock_fidelity(moved1, moved2) == pytest.approx(base, abs=1e-9)


def test_fidelity_cutoff_convergence():
    # Doubling the cutoff leaves the fidelity unchanged for moderate photon numbers.
    pairs = [
        (g.squeezed_vacuum(1.0), g.coherent_state(0.5)),
        (g.GaussianState(np.array([0.2, 0.0]), g.squeezed_vacuum(0.5).cov),
         g.GaussianState(np.zeros(2), 0.25 * 1.5 * np.eye(2))),
    ]
    for a, b in pairs:
        f60 = fock.fock_fidelity(fock.gaussian_to_fock(a, 60), fock.gaussian_to_fock(b, 60))
        f120 = fock.fock_fidelity(fock.gaussian_to_fock(a, 120), fock.gaussian_to_fock(b, 120))
        assert abs(f60 - f120) < 1e-8


def test_squeezed_displaced_oracle_converged():
    # Ground-truth pair used by the closed-form fidelity tests; the N_S=2
    # squeezed state needs a cutoff beyond the default 60 to settle at 1e-8.
    s = g.squeezed_vacuum(2.0)
    sd = g.GaussianState(np.array([0.1, 0.0]), s.cov)
    f100 = fock.fock_fidelity(fock.gaussian_to_fock(s, 100), fock.gaussian_to_fock(sd, 100))
    f200 = fock.fock_fidelity(fock.gaussian_to_fock(s, 200), fock.gaussian_to_fock(sd, 200))
    assert abs(f100 - f200) < 1e-8


def _displacement(beta, cutoff):
    """exp(beta a^dag - beta* a) on the truncated basis, from scipy's expm."""
    a = fock.annihilation(cutoff)
    return expm(beta * a.conj().T - np.conj(beta) * a)


def _squeeze(r, cutoff):
    """exp(r (a^2 - a^dag^2)/2) on the truncated basis, from scipy's expm of the real generator."""
    a = fock.annihilation(cutoff).real
    return expm(0.5 * r * (a @ a - a.T @ a.T))


@pytest.mark.parametrize("cutoff", [20, 60, 120])
def test_operators_match_expm_of_truncated_generators(cutoff):
    # The identity gaussian_to_fock's chain rests on: exp(t G) = g W diag(exp(-i t mu)) W^T g*,
    # with D(beta) = P exp(|beta| G_d) P* for P = diag(exp(i arg(beta) n)).
    def from_eigh(kind, t):
        mu, gauge, vecs = fock._generator_eigh(kind, cutoff)
        return gauge[:, None] * (vecs * np.exp(-1j * t * mu)) @ vecs.T * gauge.conj()

    n = np.arange(cutoff)
    for beta in (0.0, 0.3j, 0.7 - 0.4j, -1.2 + 0.5j, -2.0):
        phase = np.exp(1j * np.angle(beta) * n)
        got = phase[:, None] * from_eigh("displacement", abs(beta)) * phase.conj()
        assert np.abs(got - _displacement(beta, cutoff)).max() < 1e-12
    for r in (-1.1, -0.3, 0.0, 0.45, 1.2):
        assert np.abs(from_eigh("squeeze", r) - _squeeze(r, cutoff)).max() < 1e-12


def _eigh_form(cov):
    """(nbar, r, theta) from np.linalg.eigh, the route _squeezed_thermal_form replaces."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    nbar = max(0.0, (4.0 * np.sqrt(eigvals.prod()) - 1.0) / 2.0)
    return nbar, 0.25 * np.log(eigvals[1] / eigvals[0]), np.arctan2(-eigvecs[1, 0], eigvecs[0, 0])


def _dense_unitary(state, cutoff):
    """U = D R S formed as full operators with scipy's expm, and the thermal populations p."""
    nbar, r, theta = _eigh_form(state.cov)
    u = (_displacement(state.mean[0] + 1j * state.mean[1], cutoff)
         @ np.diag(np.exp(-1j * theta * np.arange(cutoff)))
         @ _squeeze(r, cutoff))
    return u, fock.thermal_populations(nbar, cutoff)


def _dense_reference(state, cutoff):
    """rho = U diag(p) U^dag, and the kept width: the columns with p_k >= eps."""
    u, probs = _dense_unitary(state, cutoff)
    width = np.count_nonzero(probs >= np.finfo(float).eps)
    return u @ np.diag(probs) @ u.conj().T, width


def test_gaussian_to_fock_matches_dense_products():
    cov = np.array([[0.6, 0.2], [0.2, 0.3]])
    state = g.GaussianState(np.array([0.4, -0.3]), cov)
    rho, width = _dense_reference(state, 60)
    op = fock.gaussian_to_fock(state, 60)
    assert np.abs(op.matrix - rho).max() < 1e-13
    assert op.factor.shape == (60, width)


@pytest.mark.parametrize("n", [0.0, 0.5, None])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gaussian_to_fock_factor_matches_dense_products_on_random_states(seed, n):
    # X is formed on the columns with p_k >= eps only, in real gauge
    # bases; the full products of D, R and S over every column agree.
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    state = fisher.SqueezedThermalParams(
        r=rng.uniform(0.0, 1.2), n=rng.uniform(0.0, 0.5) if n is None else n,
        theta=rng.uniform(0.0, np.pi),
        mean=rng.uniform(0.0, 1.0) * np.array([np.cos(phase), np.sin(phase)]),
    ).to_state()
    rho, width = _dense_reference(state, 60)
    op = fock.gaussian_to_fock(state, 60)
    assert np.abs(op.matrix - rho).max() < 1e-13
    assert op.factor.shape == (60, width)


# Each cutoff with the state range it holds within the truncation tolerances.
@pytest.mark.parametrize("cutoff, r_max, n_max, radius", [
    (20, 0.6, 0.2, 0.5), (60, 1.2, 0.5, 1.0), (120, 1.8, 1.0, 1.5)])
def test_gaussian_to_fock_matches_dense_products_at_each_cutoff(cutoff, r_max, n_max, radius):
    # The fused chain against D, R and S formed as full operators from an eigh of the
    # covariance, on random states, some pure.
    rng = np.random.default_rng([41, cutoff])
    for k in range(12):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        state = fisher.SqueezedThermalParams(
            r=rng.uniform(0.0, r_max), n=0.0 if k % 4 == 0 else rng.uniform(0.0, n_max),
            theta=rng.uniform(0.0, np.pi),
            mean=rng.uniform(0.0, radius) * np.array([np.cos(phase), np.sin(phase)]),
        ).to_state()
        rho, width = _dense_reference(state, cutoff)
        op = fock.gaussian_to_fock(state, cutoff)
        assert np.abs(op.matrix - rho).max() < 1e-13
        assert op.factor.shape == (cutoff, width)


@pytest.mark.parametrize("kind", ["generic", "pure", "circular"])
def test_squeezed_thermal_form_matches_eigh(kind):
    # fisher's r is twice the Fock oracle's; near-circular covariances (c00 ~ c11, c01 ~ 0)
    # leave theta free, so the covariance rebuilt from the form is compared too.
    rng = np.random.default_rng([42, ["generic", "pure", "circular"].index(kind)])
    for _ in range(2000):
        r = 10.0 ** rng.uniform(-12, -6) if kind == "circular" else rng.uniform(0.0, 2.4)
        cov = fisher.SqueezedThermalParams(
            r=r, n=0.0 if kind == "pure" else rng.uniform(0.0, 2.0),
            theta=rng.uniform(-np.pi, np.pi)).covariance()
        nbar, half_r, theta = fock._squeezed_thermal_form(cov)
        want_nbar, want_r, want_theta = _eigh_form(cov)
        assert nbar == pytest.approx(want_nbar, abs=1e-14 * (1.0 + want_nbar))
        assert half_r == pytest.approx(want_r, abs=1e-14)
        if half_r > 1e-3:
            gap = (theta - want_theta) % np.pi
            assert min(gap, np.pi - gap) < 1e-12
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, s], [-s, c]])
        rebuilt = (2.0 * nbar + 1.0) / 4.0 * rot @ np.diag(np.exp([-2.0 * half_r,
                                                                    2.0 * half_r])) @ rot.T
        assert np.abs(rebuilt - cov).max() <= 1e-14 * np.abs(cov).max()


@pytest.mark.parametrize("state", [g.vacuum_state(1), g.coherent_state(0.7, -0.4)],
                         ids=["vacuum", "coherent"])
def test_pure_thermal_part_keeps_one_column(state):
    op = fock.gaussian_to_fock(state, 40)
    assert op.factor.shape == (40, 1)
    assert np.abs(op.matrix - _dense_reference(state, 40)[0]).max() < 1e-13


def _random_single_mode(rng, n_max=0.5):
    radius, phase = rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * np.pi)
    params = fisher.SqueezedThermalParams(
        r=rng.uniform(0.0, 1.2), n=rng.uniform(0.0, n_max), theta=rng.uniform(0.0, np.pi),
        mean=radius * np.array([np.cos(phase), np.sin(phase)]),
    )
    return params.to_state()


def test_fidelity_matches_closed_form_on_random_states(rng):
    # At cutoff 60 the truncation alone moves the fidelity by up to 3e-7 at
    # the corner r = 1.2, n = 0.5, |mean| = 1 of this range; at cutoff 100
    # it stays below 1e-11 there, so the 1e-9 bound tests the method.
    cutoff = 100
    for _ in range(40):
        a, b = _random_single_mode(rng), _random_single_mode(rng)
        got = fock.fock_fidelity(fock.gaussian_to_fock(a, cutoff), fock.gaussian_to_fock(b, cutoff))
        assert got == pytest.approx(fisher.gaussian_fidelity(a, b), abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_dropped_columns_move_fidelity_within_bound(seed):
    # The factor drops the columns with p_k < eps; they are orthogonal with
    # norms sqrt(p_k), so against the full-width D R S diag(sqrt(p)) the
    # fidelity moves by at most 2 (tau_a + tau_b), tau the sum of a state's
    # dropped sqrt(p_k).  Hot states (nbar up to 2) drop the largest tails.
    rng = np.random.default_rng(seed)
    cutoff, eps = 100, np.finfo(float).eps
    for _ in range(10):
        states = [_random_single_mode(rng, n_max=2.0) for _ in range(2)]
        full, tau = [], 0.0
        for state in states:
            u, probs = _dense_unitary(state, cutoff)
            full.append(fock.FockOperator(u * np.sqrt(probs)))
            tau += np.sqrt(probs[probs < eps]).sum()
        got = fock.fock_fidelity(*(fock.gaussian_to_fock(s, cutoff) for s in states))
        assert abs(got - fock.fock_fidelity(*full)) <= 2.0 * tau


def test_operator_is_built_from_its_factor():
    rho = fock.gaussian_to_fock(g.GaussianState(np.array([0.3, -0.2]), 0.3 * np.eye(2)), 40)
    assert rho.cutoff == 40 and rho.factor.shape[0] == 40
    assert not rho.factor.flags.writeable
    with pytest.raises(ValueError, match="matrix"):
        fock.FockOperator(np.ones(4))
