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
    with pytest.raises(ValueError, match="cutoff"):
        fock.gaussian_to_fock(g.coherent_state(3.0), 8)
    with pytest.raises(ValueError):
        fock.gaussian_to_fock(g.vacuum_state(1), 1)


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
    disp = fock.displacement_operator(0.25 + 0.1j, cutoff)
    moved1 = fock.FockOperator(disp @ s1.matrix @ disp.conj().T)
    moved2 = fock.FockOperator(disp @ s2.matrix @ disp.conj().T)
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


@pytest.mark.parametrize("cutoff", [20, 60, 120])
def test_operators_match_expm_of_truncated_generators(cutoff):
    a = fock.annihilation(cutoff)
    for beta in (0.0, 0.3j, 0.7 - 0.4j, -1.2 + 0.5j, -2.0):
        want = expm(beta * a.conj().T - np.conj(beta) * a)
        assert np.abs(fock.displacement_operator(beta, cutoff) - want).max() < 1e-12
    for r in (-1.1, -0.3, 0.0, 0.45, 1.2):
        want = expm(0.5 * r * (a @ a - a.conj().T @ a.conj().T))
        assert np.abs(fock.squeeze_operator(r, cutoff) - want).max() < 1e-12


def test_validate_density_rejects_non_psd():
    # Hermitian, unit trace, empty top level, eigenvalues 1 + eps and -eps.
    for eps in (1e-9, 1e-6):
        mat = np.zeros((6, 6), dtype=complex)
        mat[:2, :2] = [[0.5, 0.5 + eps], [0.5 + eps, 0.5]]
        with pytest.raises(ValueError, match="not PSD \\(min eig"):
            fock._validate_density(mat, fock.TRACE_TOL)
    mat[:2, :2] = [[0.5, 0.5], [0.5, 0.5]]
    fock._validate_density(mat, fock.TRACE_TOL)


def test_validate_density_rejects_non_hermitian_and_nan():
    skew = np.zeros((6, 6), dtype=complex)
    skew[:2, :2] = [[0.5, 0.5], [0.5 + 1e-6j, 0.5]]
    nan = np.full((6, 6), np.nan, dtype=complex)
    for mat in (skew, nan):
        with pytest.raises(ValueError, match="not Hermitian"):
            fock._validate_density(mat, fock.TRACE_TOL)


def _dense_reference(state, cutoff):
    """rho = U diag(p) U^dag with U = D R S formed as full operators, and the kept width."""
    eigvals, eigvecs = np.linalg.eigh(state.cov)
    nbar = max(0.0, (4.0 * np.sqrt(eigvals.prod()) - 1.0) / 2.0)
    r = 0.25 * np.log(eigvals[1] / eigvals[0])
    theta = np.arctan2(-eigvecs[1, 0], eigvecs[0, 0])
    u = (fock.displacement_operator(state.mean[0] + 1j * state.mean[1], cutoff)
         @ np.diag(fock.rotation_phases(theta, cutoff))
         @ fock.squeeze_operator(r, cutoff))
    probs = fock.thermal_populations(nbar, cutoff)
    width = np.count_nonzero(np.sqrt(probs) >= np.finfo(float).eps)
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
    # X is formed on the columns with sqrt(p_k) >= eps only, in real gauge
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


@pytest.mark.parametrize("state", [g.vacuum_state(1), g.coherent_state(0.7, -0.4)],
                         ids=["vacuum", "coherent"])
def test_pure_thermal_part_keeps_one_column(state):
    op = fock.gaussian_to_fock(state, 40)
    assert op.factor.shape == (40, 1)
    assert np.abs(op.matrix - _dense_reference(state, 40)[0]).max() < 1e-13


def _random_single_mode(rng):
    radius, phase = rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * np.pi)
    params = fisher.SqueezedThermalParams(
        r=rng.uniform(0.0, 1.2), n=rng.uniform(0.0, 0.5), theta=rng.uniform(0.0, np.pi),
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


def test_raw_operator_factor_reproduces_matrix():
    rho = fock.gaussian_to_fock(g.GaussianState(np.array([0.3, -0.2]), 0.3 * np.eye(2)), 40)
    raw = fock.FockOperator(np.array(rho.matrix))
    assert np.abs(raw.factor @ raw.factor.conj().T - raw.matrix).max() < 1e-13
    assert np.abs(rho.factor @ rho.factor.conj().T - rho.matrix).max() == 0.0
    assert fock.fock_fidelity(raw, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_rejects_non_psd_raw_operator():
    mat = np.zeros((6, 6), dtype=complex)
    mat[:2, :2] = [[0.5, 0.5 + 1e-6], [0.5 + 1e-6, 0.5]]  # eigenvalues 1 + 1e-6 and -1e-6
    bad = fock.FockOperator(mat)
    good = fock.gaussian_to_fock(g.vacuum_state(1), 6)
    with pytest.raises(ValueError, match="not PSD"):
        fock.fock_fidelity(good, bad)
    with pytest.raises(ValueError, match="not PSD"):
        fock.fock_fidelity(bad, good)
