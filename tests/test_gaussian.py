import tracemalloc

import numpy as np
import pytest

from cvsense import gaussian as g

from conftest import random_gaussian_state


def test_vacuum_state():
    vac = g.vacuum_state(1)
    assert np.allclose(vac.mean, 0.0)
    assert np.allclose(vac.cov, np.diag([0.25, 0.25]))
    vac3 = g.vacuum_state(3)
    assert vac3.num_modes == 3
    assert np.allclose(vac3.cov, 0.25 * np.eye(6))


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        g.vacuum_state(0)


def test_vacuum_is_loss_fixed_point():
    vac = g.vacuum_state(1)
    out = g.apply_loss(vac, g.LossChannel(np.array([0.5])))
    assert np.allclose(out.cov, vac.cov)
    assert np.allclose(out.mean, 0.0)


def test_squeezed_vacuum_values():
    s = g.squeezed_vacuum(10.0, "x")
    # (sqrt(11)+sqrt(10))^2 = 41.97617
    assert s.cov[0, 0] == pytest.approx(5.9558e-3, abs=1e-7)
    assert s.cov[0, 0] * s.cov[1, 1] == pytest.approx(1.0 / 16.0, rel=1e-12)  # purity
    assert s.mean_photon_number() == pytest.approx(10.0, abs=1e-12)

    s1 = g.squeezed_vacuum(1.0, "x")
    e2r = (np.sqrt(2.0) + 1.0) ** 2
    assert s1.cov[0, 0] == pytest.approx(1.0 / (4.0 * e2r), rel=1e-12)
    assert e2r == pytest.approx(5.8284, abs=1e-4)

    p = g.squeezed_vacuum(1.0, "p")
    assert p.cov[0, 0] == pytest.approx(s1.cov[1, 1])
    assert p.cov[1, 1] == pytest.approx(s1.cov[0, 0])


def test_squeezed_vacuum_zero_photons_is_vacuum():
    assert np.allclose(g.squeezed_vacuum(0.0).cov, 0.25 * np.eye(2))


def test_squeezed_vacuum_rejects_negative():
    with pytest.raises(ValueError):
        g.squeezed_vacuum(-0.1)


def test_balanced_splitter_small():
    t1 = g.balanced_splitter(1)
    assert np.allclose(t1.matrix, np.eye(2))
    o2 = g.complete_orthogonal(np.ones(2))
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(o2, expected)


def test_balanced_splitter_m4_covariance():
    s = g.squeezed_vacuum(4.0, "x")
    state = g.tensor(s, g.vacuum_state(3))
    out = g.apply_symplectic(state, g.balanced_splitter(4))
    e2r = 1.0 / (np.sqrt(5.0) + 2.0) ** 2
    cov_x = out.cov_block("x")
    assert np.allclose(np.diag(cov_x), (e2r + 3.0) / 16.0, atol=1e-14)
    off = cov_x[~np.eye(4, dtype=bool)]
    assert np.allclose(off, (e2r - 1.0) / 16.0, atol=1e-14)


def test_unbalanced_splitter():
    o = g.complete_orthogonal(np.array([1.0, 1.0]))
    assert np.allclose(o, g.complete_orthogonal(np.array([5.0, 5.0])))

    o = g.complete_orthogonal(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(o[0], [1, 0, 0])
    assert np.allclose(o @ o.T, np.eye(3), atol=1e-14)

    o = g.complete_orthogonal(np.array([0.8, 0.6]))
    assert np.allclose(o[0], [0.8, 0.6])
    assert np.allclose(np.abs(o[1]), [0.6, 0.8])
    assert np.allclose(o @ o.T, np.eye(2), atol=1e-14)

    with pytest.raises(ValueError):
        g.unbalanced_splitter(np.zeros(3))


def test_symplectic_invariant_random_transforms(rng):
    for m in (1, 2, 5):
        ortho = np.linalg.qr(rng.standard_normal((m, m)))[0]
        t = g.transform_from_mode_matrix(ortho)
        omega = g.symplectic_form(m)
        assert np.abs(t.matrix @ omega @ t.matrix.T - omega).max() < 1e-10


def test_apply_symplectic_examples():
    vac = g.vacuum_state(1)
    ident = g.SymplecticTransform(np.eye(2))
    assert np.allclose(g.apply_symplectic(vac, ident).cov, vac.cov)

    # A phase shift exp(i theta) rotates a coherent state's mean: mean -> S mean.
    theta = 0.4
    shift = g.passive_transform([[np.exp(1j * theta)]])
    rotated = g.apply_symplectic(g.coherent_state(0.7), shift)
    assert np.allclose(rotated.mean, [0.7 * np.cos(theta), 0.7 * np.sin(theta)])
    assert np.allclose(rotated.cov, 0.25 * np.eye(2))

    s = g.squeezed_vacuum(1.0, "x")
    state = g.tensor(s, g.vacuum_state(1))
    out = g.apply_symplectic(state, g.balanced_splitter(2))
    e2r = 1.0 / (np.sqrt(2.0) + 1.0) ** 2
    expected = np.array([[e2r + 1, e2r - 1], [e2r - 1, e2r + 1]]) / 8.0
    assert np.allclose(out.cov_block("x"), expected, atol=1e-14)


def test_apply_symplectic_dimension_mismatch():
    with pytest.raises(ValueError):
        g.apply_symplectic(g.vacuum_state(2), g.balanced_splitter(3))


def test_loss_examples():
    s = g.squeezed_vacuum(10.0)
    out = g.apply_loss(s, g.LossChannel(np.array([0.9])))
    assert out.cov[0, 0] == pytest.approx(3.0360e-2, abs=1e-6)

    same = g.apply_loss(s, g.LossChannel(np.array([1.0])))
    assert np.allclose(same.cov, s.cov)

    with pytest.raises(ValueError):
        g.LossChannel(np.array([0.0]))
    with pytest.raises(ValueError):
        g.LossChannel(np.array([1.1]))
    with pytest.raises(ValueError):
        g.LossChannel(np.array([0.5, np.nan]))
    with pytest.raises(ValueError):
        g.apply_loss(g.vacuum_state(2), g.LossChannel(np.array([0.5, 0.5, 0.5])))


def test_loss_composition(rng):
    state = random_gaussian_state(rng, 3)
    eta1 = rng.uniform(0.3, 1.0, size=3)
    eta2 = rng.uniform(0.3, 1.0, size=3)
    seq = g.apply_loss(g.apply_loss(state, g.LossChannel(eta1)), g.LossChannel(eta2))
    once = g.apply_loss(state, g.LossChannel(eta1 * eta2))
    assert np.abs(seq.cov - once.cov).max() < 1e-12
    assert np.abs(seq.mean - once.mean).max() < 1e-12


def test_purity_preserved_by_lossless_transforms(rng):
    state = random_gaussian_state(rng, 2)
    det_before = np.linalg.det(state.cov)
    ortho = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    out = g.apply_symplectic(state, g.transform_from_mode_matrix(ortho))
    assert np.linalg.det(out.cov) == pytest.approx(det_before, rel=1e-10)


def test_photon_number_bookkeeping():
    s = g.squeezed_vacuum(3.0)
    state = g.tensor(s, g.vacuum_state(3))
    before = state.mean_photon_number()
    after = g.apply_symplectic(state, g.balanced_splitter(4)).mean_photon_number()
    assert after == pytest.approx(before, abs=1e-12)

    lossy = g.apply_loss(state, g.LossChannel(np.full(4, 0.6)))
    assert lossy.mean_photon_number() == pytest.approx(0.6 * before, abs=1e-12)


def _homodyne(mean, a, top, unit, num_samples, rng):
    """num_samples outcomes of N(mean, a I + (top - a) u u^T), in freshly allocated buffers."""
    out = np.empty((num_samples, np.size(mean)))
    plan = g.homodyne_plan(np.asarray(mean, dtype=float), a, top, unit)
    return g.homodyne_samples(plan, rng, np.empty_like(out), out)


def test_homodyne_sampling_statistics():
    rng = np.random.default_rng(42)
    draws = _homodyne([0.0], 0.25, 0.25, np.zeros(1), 1_000_000, rng)  # vacuum
    assert abs(draws.mean()) < 3.0 * 0.5 / 1e3
    assert draws.var() == pytest.approx(0.25, rel=0.01)


def test_homodyne_entangled_mean_variance():
    # The lossless 4-node entangled input: variance s along u = 1/2, 1/4 across it.
    rng = np.random.default_rng(7)
    s = g.squeezed_variances(4.0)[0]
    draws = _homodyne(np.zeros(4), 0.25, s, np.full(4, 0.5), 1_000_000, rng)
    est = draws.mean(axis=1)
    target = 1.0 / (16.0 * (np.sqrt(5.0) + 2.0) ** 2)  # 3.4826e-3
    assert est.var() == pytest.approx(target, rel=0.01)


def test_homodyne_covariance_consistency(rng):
    # top < a is a squeezed marginal, top > a the phase network's anti-squeezing leak.
    for top in (0.05, 0.25, 0.95):
        mean, unit = rng.uniform(-0.5, 0.5, 4), rng.uniform(-1.0, 1.0, 4)
        unit /= np.sqrt(unit @ unit)
        a, n = 0.25, 200_000
        draws = _homodyne(mean, a, top, unit, n, np.random.default_rng(5))
        ana = a * np.eye(4) + (top - a) * np.outer(unit, unit)
        # Standard errors of each mean and covariance entry for Gaussian data.
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 5.0 * np.sqrt(np.diag(ana) / n))
        se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana**2) / n)
        assert np.all(np.abs(np.cov(draws.T) - ana) < 5.0 * se)


def test_homodyne_resolves_the_variance_along_unit_at_any_scale():
    # The along-u variance comes in as it is, so a tiny one is not lost next to a:
    # 6e-26 is the squeezed variance at N_S = 1e24.
    unit = np.full(4, 0.5)
    for top in (1e-14, 6e-26):
        draws = _homodyne(np.zeros(4), 0.25, top, unit, 100_000, np.random.default_rng(3))
        assert abs((draws @ unit).var() / top - 1.0) < 0.02


def test_homodyne_reproducible():
    args = (np.full(2, 0.3), 0.25, 0.15, np.array([0.6, 0.8]))
    a = _homodyne(*args, 3, np.random.default_rng(9))
    b = _homodyne(*args, 3, np.random.default_rng(9))
    assert np.array_equal(a, b)
    # Refilling the same buffers draws the stream's next outcomes.
    normals, out = np.empty((2, 2)), np.empty((2, 2))
    rng = np.random.default_rng(9)
    first = g.homodyne_samples(g.homodyne_plan(*args), rng, normals, out).copy()
    second = g.homodyne_samples(g.homodyne_plan(*args), rng, normals, out)
    assert second is out
    both = _homodyne(*args, 4, np.random.default_rng(9))
    assert np.array_equal(np.vstack([first, second]), both)


@pytest.mark.parametrize(
    "a,top,v",  # v is the unit vector
    [(-1e-3, 0.0, np.zeros(3)), (0.25, -0.5, np.full(3, 0.5)), (0.25, -0.25 - 1e-12, [1.0, 0, 0]),
     (np.nan, 0.0, np.zeros(3)), (0.25, np.nan, np.ones(3)), (0.25, 0.0, [np.nan, 0, 0]),
     (0.25, -1e-300, np.ones(3)), (np.inf, 0.25, np.zeros(3)), (0.25, np.inf, np.ones(3)),
     (0.25, 0.1, [0.0, np.inf, 0.0])],
)
def test_homodyne_rejects_non_physical_marginals(a, top, v):
    with pytest.raises(ValueError, match="not finite and PSD"):
        g.homodyne_plan(np.zeros(3), a, top, v)


def test_state_validation():
    with pytest.raises(ValueError):
        g.GaussianState(np.zeros(2), np.array([[0.25, 0.1], [0.3, 0.25]]))  # asymmetric
    with pytest.raises(ValueError):
        g.GaussianState(np.zeros(2), 0.1 * np.eye(2))  # below vacuum noise


def test_state_takes_its_mode_count_from_the_mean():
    assert g.GaussianState(np.zeros(4), 0.25 * np.eye(4)).num_modes == 2
    with pytest.raises(TypeError):
        g.GaussianState(np.zeros(4), 0.25 * np.eye(4), num_modes=5)


@pytest.mark.parametrize("mean, cov", [
    (np.zeros(2), np.full((2, 2), np.nan)),
    (np.zeros(2), np.array([[0.25, np.nan], [np.nan, 0.25]])),
    (np.zeros(2), np.array([[0.25, np.inf], [0.0, 0.25]])),
    (np.zeros(2), np.diag([np.inf, 0.25])),
    (np.array([np.nan, 0.0]), 0.25 * np.eye(2)),
    (np.array([0.0, np.inf]), 0.25 * np.eye(2)),
], ids=["nan-cov", "nan-offdiag", "inf-offdiag", "inf-diag", "nan-mean", "inf-mean"])
def test_state_rejects_non_finite_entries(mean, cov):
    with pytest.raises(ValueError, match="finite"):
        g.GaussianState(mean, cov)


def test_transform_rejects_nan_matrix():
    for mat in (np.full((4, 4), np.nan), np.where(np.eye(4) > 0, np.nan, 0.0)):
        with pytest.raises(ValueError, match="not symplectic"):
            g.SymplecticTransform(mat)


@pytest.mark.parametrize("m", [2, 3, 17, 200])
def test_complete_orthogonal_random_and_near_e1_rows(rng, m):
    rows = [rng.standard_normal(m), rng.uniform(0.0, 1.0, m), -rng.uniform(0.0, 1.0, m),
            np.concatenate([[0.0], rng.uniform(0.1, 1.0, m - 1)])]
    for scale in (1e-3, 1e-9, 0.0):
        near = np.zeros(m)
        near[0] = 1.0
        near[1:] = scale * rng.standard_normal(m - 1)
        rows += [near, -near]
    for u in rows:
        o = g.complete_orthogonal(u)
        assert np.abs(o[0] - u / np.linalg.norm(u)).max() <= 1e-13
        assert np.abs(o @ o.T - np.eye(m)).max() <= 1e-13


def _pure_network_cov(num_modes):
    state = g.tensor(g.squeezed_vacuum(4.0), g.vacuum_state(num_modes - 1))
    return g.apply_symplectic(state, g.balanced_splitter(num_modes)).cov


@pytest.mark.parametrize("num_modes", [1, 5])
def test_uncertainty_check_boundary(num_modes):
    # A pure state's cov + (i/4) Omega has eigenvalue 0, so subtracting
    # delta I leaves min eig -delta; the tolerance is 1e-10.
    cov = 0.25 * np.eye(2) if num_modes == 1 else _pure_network_cov(num_modes)
    mean = np.zeros(2 * num_modes)
    for delta, shown in [(2.2e-10, "-2.200e-10"), (4e-10, "-4.000e-10")]:
        with pytest.raises(ValueError, match=f"uncertainty principle \\(min eig {shown}\\)"):
            g.GaussianState(mean, cov - delta * np.eye(2 * num_modes))
    g.GaussianState(mean, cov - 5e-11 * np.eye(2 * num_modes))


@pytest.mark.parametrize("num_modes", [2, 50, 200])
def test_pure_networks_at_the_squeezing_cap_are_physical(rng, num_modes):
    for axis in ("x", "p"):
        state = g.apply_symplectic(
            g.tensor(g.squeezed_vacuum(1e4, axis), g.vacuum_state(num_modes - 1)),
            g.unbalanced_splitter(rng.uniform(0.1, 1.0, num_modes)),
        )
        assert state.mean_photon_number() == pytest.approx(1e4, rel=1e-9)


def test_psd_violation_reports_only_eigenvalues_below_tolerance():
    assert g.psd_violation(np.diag([1.0, 0.0]), 1e-10) is None
    assert g.psd_violation(np.diag([1.0, -5e-11]), 1e-10) is None
    assert g.psd_violation(np.diag([1.0, -3e-10]), 1e-10) == pytest.approx(-3e-10)
    herm = np.array([[0.5, 0.5j], [-0.5j, 0.5]])  # eigenvalues 1 and 0
    assert g.psd_violation(herm, 1e-10) is None
    assert g.psd_violation(herm - 1e-9 * np.eye(2), 1e-10) == pytest.approx(-1e-9)


def test_psd_violation_leaves_its_argument_unchanged():
    # The tolerance shift is made in place; both outcomes must undo it exactly.
    for herm in (np.array([[0.5, 0.5j], [-0.5j, 0.5]]),  # passes the factorization
                 np.diag([1.0 / 3.0, -3e-10]),  # fails it and reports
                 np.diag([0.1, -5e-11])):  # fails it, eigvalsh settles it
        before = herm.copy()
        g.psd_violation(herm, 1e-10)
        assert np.array_equal(herm, before)


def test_state_check_peak_memory_is_bounded():
    # Symmetrised covariance, one complex buffer for cov + (i/4) Omega and
    # its Cholesky factor: 5x the covariance.  Building Omega, (i/4) Omega,
    # the sum and a shifted copy instead peaks at 7x.
    m = 200
    cov = _pure_network_cov(m)
    mean = np.zeros(2 * m)
    tracemalloc.start()
    try:
        g.GaussianState(mean, cov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * cov.nbytes


def _random_unitary(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_symplectic_transforms_accepted(rng):
    for m in (1, 7, 200):
        g.passive_transform(_random_unitary(rng, m))
    g.balanced_splitter(200)
    g.unbalanced_splitter(rng.uniform(0.1, 1.0, 200))


def _x_only_rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    mat = np.eye(4)
    mat[:2, :2] = [[c, s], [-s, c]]
    return mat


def test_non_symplectic_matrices_rejected(rng):
    splitter = g.balanced_splitter(200).matrix
    for mat in (1.001 * np.eye(6),
                _x_only_rotation(0.3),
                splitter + 1e-8 * rng.standard_normal(splitter.shape)):
        with pytest.raises(ValueError, match="not symplectic"):
            g.SymplecticTransform(mat)
