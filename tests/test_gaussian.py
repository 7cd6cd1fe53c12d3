import dataclasses
import tracemalloc

import numpy as np
import pytest

from cvsense import allocation as al
from cvsense import fisher, fock
from cvsense import gaussian as g
from cvsense import protocols as pr

from conftest import random_gaussian_state


def test_vacuum_state():
    vac = g.vacuum_state(1)
    assert np.allclose(vac.mean, 0.0)
    assert np.allclose(vac.cov, np.diag([0.25, 0.25]))
    vac3 = g.vacuum_state(3)
    assert vac3.num_modes == 3
    assert np.allclose(vac3.cov, 0.25 * np.eye(6))


def test_vacuum_rejects_zero_modes():
    # The oracle builders share the library's node check, and so its message.
    for build, modes in [(g.vacuum_state, 0), (g.balanced_splitter, 0),
                         (g.balanced_splitter, np.nan)]:
        with pytest.raises(ValueError, match="number of nodes"):
            build(modes)


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
    for n_s in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="photon budget"):
            g.squeezed_vacuum(n_s)


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


def _omega(m):
    """The symplectic form [[0, I], [-I, 0]] in xxpp ordering."""
    zero, one = np.zeros((m, m)), np.eye(m)
    return np.block([[zero, one], [-one, zero]])


def test_symplectic_invariant_random_transforms(rng):
    for m in (1, 2, 5):
        ortho = np.linalg.qr(rng.standard_normal((m, m)))[0]
        t = g.passive_transform(ortho.T)
        omega = _omega(m)
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
    with pytest.raises(ValueError,
                       match=r"transmissivities must lie in \[2\.2250738585072014e-308, 1\]"):
        g.LossChannel(np.array([0.5, 1e-310]))  # subnormal
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
    out = g.apply_symplectic(state, g.passive_transform(ortho.T))
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
    marginal = pr._Marginal(np.asarray(mean, dtype=float), a, top, unit)
    return marginal.sample(rng, np.empty_like(out), out)


def test_homodyne_sampling_statistics():
    rng = np.random.default_rng(42)
    draws = _homodyne([0.0], 0.25, 0.25, np.zeros(1), 1_000_000, rng)  # vacuum
    assert abs(draws.mean()) < 3.0 * 0.5 / 1e3
    assert draws.var() == pytest.approx(0.25, rel=0.01)


def test_homodyne_entangled_mean_variance():
    # The lossless 4-node entangled input: variance s along u = 1/2, 1/4 across it.
    rng = np.random.default_rng(7)
    s = al.squeezed_variances(4.0)[0]
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


def test_homodyne_samples_a_diagonal_marginal_with_one_variance_per_node():
    # unit = 0 with a vector a: independent nodes, as in a heterogeneous product network.
    a, n = np.array([1e-3, 0.05, 0.25]), 200_000
    draws = _homodyne(np.full(3, 0.2), a, a, np.zeros(3), n, np.random.default_rng(11))
    assert np.all(np.abs(draws.mean(axis=0) - 0.2) < 5.0 * np.sqrt(a / n))
    cov = np.cov(draws.T)
    se = np.sqrt((np.outer(a, a) + np.diag(a) ** 2) / n)
    assert np.all(np.abs(cov - np.diag(a)) < 5.0 * se)


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
    first = pr._Marginal(*args).sample(rng, normals, out).copy()
    second = pr._Marginal(*args).sample(rng, normals, out)
    assert second is out
    both = _homodyne(*args, 4, np.random.default_rng(9))
    assert np.array_equal(np.vstack([first, second]), both)


@pytest.mark.parametrize(
    "a,top,v",  # v is the unit vector
    [(-1e-3, 0.0, np.zeros(3)), (0.25, -0.5, np.full(3, 0.5)), (0.25, -0.25 - 1e-12, [1.0, 0, 0]),
     (np.nan, 0.0, np.zeros(3)), (0.25, np.nan, np.ones(3)), (0.25, 0.0, [np.nan, 0, 0]),
     (0.25, -1e-300, np.ones(3)), (np.inf, 0.25, np.zeros(3)), (0.25, np.inf, np.ones(3)),
     (0.25, 0.1, [0.0, np.inf, 0.0]), (np.array([0.25, -2e-3, 0.1]), 0.25, np.zeros(3)),
     (np.array([0.25, np.nan, 0.1]), 0.25, np.zeros(3))],
)
def test_homodyne_rejects_non_physical_marginals(a, top, v):
    with pytest.raises(ValueError, match="not finite and PSD") as caught:
        pr._Marginal(np.zeros(3), a, top, np.asarray(v, dtype=float))
    smallest = np.min(np.append(a, top))  # nan when any entry is
    if not np.isnan(smallest) and smallest < 0.0:
        assert f"(smallest eigenvalue {smallest:.3e})" in str(caught.value)


# The frozen dataclasses that hold arrays compare and hash by identity: a generated
# __eq__ over their arrays would raise instead of answering. Their fields and arrays
# cannot be assigned.
@pytest.mark.parametrize("make", [
    lambda: g.coherent_state(0.5),
    lambda: g.SymplecticTransform(np.eye(2)),
    lambda: g.LossChannel(np.array([0.5])),
    lambda: fock.FockOperator(np.eye(3, 1)),
    lambda: al.WeightedNetwork(2, None, 0.9, 1.0),
    lambda: fisher.SqueezedThermalParams(r=0.5),
    lambda: pr.SensorNetworkConfig(2, 1.0),
    lambda: al.allocate_photons_product(al.WeightedNetwork(2, None, [0.9, 0.5], 1.0)),
], ids=["GaussianState", "SymplecticTransform", "LossChannel", "FockOperator",
        "WeightedNetwork", "SqueezedThermalParams", "SensorNetworkConfig", "AllocationResult"])
def test_array_holding_dataclasses_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2
    name = dataclasses.fields(a)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, name, getattr(b, name))
    arrays = [v for v in vars(a).values() if isinstance(v, np.ndarray)]
    assert arrays and not any(v.flags.writeable for v in arrays)


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


@pytest.mark.parametrize("call, match", [
    (lambda: g.GaussianState(np.zeros(3), 0.25 * np.eye(3)), "flat vector of even length"),
    (lambda: g.GaussianState(np.zeros(2), 0.25 * np.eye(4)), "does not match mean length"),
    (lambda: g.SymplecticTransform(np.eye(2, 4)), "square with even dimension"),
    (lambda: fisher.SqueezedThermalParams(mean=[0, 0, 0]), "mean must be a 2-vector"),
    (lambda: al.squeezed_variances(1, "y"), "axis must be 'x' or 'p'"),
], ids=["odd-mean", "mismatched-cov", "non-square-transform", "params-mean", "axis"])
def test_malformed_shapes_and_axes_are_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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


@pytest.mark.parametrize("entry, delta, error", [
    ((0, 0), 0.0, None),
    ((0, 0), np.nan, "not finite and symmetric"),
    ((0, 1), 1e-6, "not finite and symmetric"),  # one off-diagonal entry only
    ((0, 0), -1e-3, "uncertainty principle"),
], ids=["accepted", "non-finite", "asymmetric", "unphysical"])
def test_state_leaves_the_callers_arrays_unchanged_and_writable(entry, delta, error):
    cov = _pure_network_cov(3).copy()
    cov[entry] += delta
    mean = np.arange(6.0)
    before = mean.copy(), cov.copy()
    if error is None:
        state = g.GaussianState(mean, cov)
        assert not (state.mean.flags.writeable or state.cov.flags.writeable)
    else:
        with pytest.raises(ValueError, match=error):
            g.GaussianState(mean, cov)
    assert np.array_equal(mean, before[0])
    assert np.array_equal(cov, before[1], equal_nan=True)
    assert mean.flags.writeable and cov.flags.writeable


@pytest.mark.parametrize("num_modes, entry", [(2, (1, 0)), (5, (0, 9))], ids=["C=0", "C!=0"])
def test_eigvalsh_decides_when_the_shifted_cholesky_fails(monkeypatch, num_modes, entry):
    # Round-off can defeat the shifted factorization of a state within the tolerance;
    # eigvalsh then decides on the unshifted matrix, so the verdict stays the tolerance's.
    def defeated(herm):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", defeated)
    cov, mean, tol = _pure_network_cov(num_modes), np.zeros(2 * num_modes), g.UNCERTAINTY_TOL
    inside = cov - 0.5 * tol * np.eye(2 * num_modes)
    inside[entry] += 1e-18  # asymmetric within SYMMETRY_RTOL, in the x block or the x-p block
    state = g.GaussianState(mean, inside)
    sym = inside + inside.T
    sym *= 0.5
    assert np.array_equal(state.cov, sym)
    with pytest.raises(ValueError, match="min eig -1.500e-10"):  # accepted if the shift stayed
        g.GaussianState(mean, cov - 1.5 * tol * np.eye(2 * num_modes))


@pytest.mark.parametrize("m", [1, 2, 7, 50])
def test_passive_transform_of_a_real_orthogonal_is_block_diagonal(m):
    ortho = np.linalg.qr(np.random.default_rng([27, m]).standard_normal((m, m)))[0]
    expected = np.zeros((2 * m, 2 * m))
    expected[:m, :m] = expected[m:, m:] = ortho.T
    assert np.array_equal(g.passive_transform(ortho.T).matrix, expected)


def _complex_form_verdict(cov):
    """(accepted, min eig) from eigvalsh of cov + (i/4) Omega itself, the reference."""
    m = cov.shape[0] // 2
    min_eig = np.linalg.eigvalsh(cov + 0.25j * _omega(m)).min()
    return min_eig >= -g.UNCERTAINTY_TOL, min_eig


def _random_pure_cov(rng, m, correlated):
    """Per-mode squeezing mixed by a real orthogonal (x-p block exactly 0) or a unitary."""
    r = rng.uniform(-1.0, 1.0, m)
    squeezed = np.diag(np.concatenate([np.exp(-2.0 * r), np.exp(2.0 * r)]) / 4.0)
    if correlated:
        s = g.passive_transform(_random_unitary(rng, m)).matrix
    else:
        s = g.passive_transform(np.linalg.qr(rng.standard_normal((m, m)))[0].T).matrix
    return s @ squeezed @ s.T


@pytest.mark.parametrize("correlated", [False, True], ids=["C=0", "C!=0"])
@pytest.mark.parametrize("m", [1, 2, 5, 50])
def test_uncertainty_check_matches_the_complex_form(monkeypatch, m, correlated):
    # The check runs on a matrix unitarily similar to cov + (i/4) Omega: real when the
    # x-p block C is zero. Its verdict and reported min eig must be the complex form's.
    rng = np.random.default_rng([22, m, correlated])
    dtypes = []
    real_cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda herm: dtypes.append(herm.dtype) or real_cholesky(herm))
    tol = g.UNCERTAINTY_TOL
    for _ in range(8):
        pure = _random_pure_cov(rng, m, correlated)
        assert (np.abs(pure[:m, m:]).max() > 0.0) == correlated
        # Physical (pure, and with noise added), within tol of pure, past tol, unphysical.
        shifts = [0.0, rng.uniform(1e-3, 1.0), -0.5 * tol, -2.0 * tol, -3.7e-6,
                  -rng.uniform(0.01, 0.2)]
        for cov in [pure + shift * np.eye(2 * m) for shift in shifts] + [0.5 * pure]:
            accepted, min_eig = _complex_form_verdict(cov)
            if accepted:
                g.GaussianState(np.zeros(2 * m), cov)
            else:
                with pytest.raises(ValueError, match=f"\\(min eig {min_eig:.3e}\\)"):
                    g.GaussianState(np.zeros(2 * m), cov)
    assert set(dtypes) == {np.dtype(complex if correlated else float)}


@pytest.mark.parametrize("scheme", ["entangled", "product"])
def test_dense_oracle_states_have_a_zero_xp_block(monkeypatch, rng, scheme):
    # So every state analytic_config_rms builds takes the real uncertainty check.
    built = []
    real_post_init = g.GaussianState.__post_init__

    def spy(state):
        real_post_init(state)
        built.append(state)

    monkeypatch.setattr(g.GaussianState, "__post_init__", spy)
    for m in (1, 2, 5, 50):
        w = rng.uniform(0.1, 1.0, m)
        cfg = pr.SensorNetworkConfig(m, rng.uniform(1.0, 20.0), eta=rng.uniform(0.3, 1.0, m),
                                     weights=w / w.sum(), scheme=scheme, trials=1)
        pr.analytic_config_rms(cfg)
    assert len(built) >= 8
    for state in built:
        m = state.num_modes
        assert np.all(state.cov[:m, m:] == 0.0) and np.all(state.cov[m:, :m] == 0.0)


def test_state_check_peak_memory_is_bounded():
    # Uncorrelated x and p: the symmetrised covariance, one real buffer for the check
    # and its Cholesky factor, 3x the covariance. Correlated: one complex buffer and
    # its factor, 5x. Building Omega, (i/4) Omega, the sum and a shifted copy peaks at 7x.
    m = 200
    cov = _pure_network_cov(m)
    phases = g.passive_transform(np.diag(np.exp(0.3j * np.arange(m)))).matrix
    correlated = phases @ cov @ phases.T
    assert np.abs(correlated[:m, m:]).max() > 0.0
    mean = np.zeros(2 * m)
    for covariance, bound in ((cov, 3.5), (correlated, 5.5)):
        tracemalloc.start()
        try:
            g.GaussianState(mean, covariance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * covariance.nbytes


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
