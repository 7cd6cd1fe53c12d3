import tracemalloc

import numpy as np
import pytest

from cvsense import gaussian as g
from cvsense import protocols as pr


def test_entangled_rms_values():
    assert pr.entangled_rms_error(1, 0.0, 1.0) == pytest.approx(0.5)
    assert pr.entangled_rms_error(4, 4.0, 1.0) == pytest.approx(0.059017, abs=1e-6)
    assert pr.entangled_rms_error(20, 10.0, 0.9) == pytest.approx(0.038961, abs=1e-6)


def test_product_rms_values():
    for n_s, eta in [(0.0, 1.0), (3.0, 0.7), (10.0, 1.0)]:
        assert pr.product_rms_error(1, n_s, eta) == pytest.approx(
            pr.entangled_rms_error(1, n_s, eta)
        )
    for m in (2, 5, 50):
        assert pr.product_rms_error(m, 0.0, 0.37) == pytest.approx(0.5 / np.sqrt(m))
    assert pr.product_rms_error(20, 10.0, 0.9) == pytest.approx(0.065303, abs=1e-6)


def test_domain_errors():
    with pytest.raises(ValueError):
        pr.entangled_rms_error(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        pr.entangled_rms_error(2, -1.0, 1.0)
    with pytest.raises(ValueError):
        pr.product_rms_error(2, 1.0, 0.0)
    for args in [(2, np.nan, 0.9), (2, np.inf, 0.9), (2, 1.0, np.nan), (np.nan, 1.0, 0.9)]:
        for formula in (pr.entangled_rms_error, pr.product_rms_error):
            with pytest.raises(ValueError):
                formula(*args)


def test_sensitivity_ratio():
    assert pr.sensitivity_ratio_db(1, 5.0, 0.8) == pytest.approx(0.0)
    assert pr.sensitivity_ratio_db(20, 10.0, 0.9) == pytest.approx(4.486, abs=1e-3)
    # Large-M lossless limit: the advantage approaches (sqrt(11)+sqrt(10))^2.
    limit_db = 10.0 * np.log10((np.sqrt(11.0) + np.sqrt(10.0)) ** 2)
    assert pr.sensitivity_ratio_db(10**6, 10.0, 1.0) == pytest.approx(limit_db, abs=0.05)


def test_build_entangled_input():
    n_s = 1.0
    single = pr.build_entangled_input(1, n_s)
    assert np.allclose(single.cov, g.squeezed_vacuum(n_s).cov)

    two = pr.build_entangled_input(2, n_s)
    e2r = 1.0 / (np.sqrt(2.0) + 1.0) ** 2
    expected = np.array([[e2r + 1, e2r - 1], [e2r - 1, e2r + 1]]) / 8.0
    assert np.allclose(two.cov_block("x"), expected, atol=1e-14)

    for m in (3, 7):
        state = pr.build_entangled_input(m, 5.0)
        var_b1 = state.cov_block("x").sum() / m
        assert var_b1 == pytest.approx(np.exp(-2 * g.squeeze_parameter(5.0)) / 4, abs=1e-14)


@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("axis", ["x", "p"])
@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "unbalanced"])
def test_entangled_input_equals_the_tensor_route(m, axis, balanced):
    # One diagonal state in place of tensor(squeezed_vacuum, vacuum): the
    # same covariance bits, so the same state after the splitter.
    splitter = None if balanced else g.unbalanced_splitter(np.linspace(1.0, 2.0, m))
    got = pr.build_entangled_input(m, 3.0, axis, splitter=splitter)
    state = g.squeezed_vacuum(3.0, axis)
    if m > 1:
        state = g.tensor(state, g.vacuum_state(m - 1))
    want = g.apply_symplectic(state, splitter or g.balanced_splitter(m))
    assert np.array_equal(got.mean, want.mean)
    assert np.array_equal(got.cov, want.cov)


def test_build_product_input():
    assert np.allclose(
        pr.build_product_input(1, 2.0).cov, g.squeezed_vacuum(2.0).cov
    )
    state = pr.build_product_input(4, 4.0)
    assert np.allclose(np.diag(state.cov_block("x")), 1.0 / (4.0 * (np.sqrt(2) + 1) ** 2))
    off_diag = state.cov_block("x")[~np.eye(4, dtype=bool)]
    assert np.abs(off_diag).max() == 0.0


def test_analytic_rms_matches_covariance_route():
    # Closed form vs the rms computed directly from the built state's covariance.
    for m, n_s, eta in [(1, 0.0, 1.0), (4, 4.0, 1.0), (20, 10.0, 0.9), (7, 2.5, 0.6)]:
        cfg = pr.SensorNetworkConfig(m, n_s, eta, scheme="entangled")
        assert pr.analytic_config_rms(cfg) == pytest.approx(
            float(pr.entangled_rms_error(m, n_s, eta)), abs=1e-12
        )
        cfg = pr.SensorNetworkConfig(m, n_s, eta, scheme="product")
        assert pr.analytic_config_rms(cfg) == pytest.approx(
            float(pr.product_rms_error(m, n_s, eta)), abs=1e-12
        )
    # Seeded random networks: the kernel route agrees with the covariance route.
    # Weights stay above 0.1 (the Gram-Schmidt splitter breaks on tiny late weights).
    rng = np.random.default_rng(np.random.SeedSequence(67))
    cases = [(1, 0.0), (1, 12.0), (9, 0.0)]
    cases += [(int(rng.integers(1, 25)), float(rng.uniform(0.0, 30.0))) for _ in range(37)]
    for index, (m, n_s) in enumerate(cases):
        if index % 2:
            cfg = pr.SensorNetworkConfig(m, n_s, rng.uniform(0.2, 1.0), scheme="product")
        else:
            w = rng.uniform(0.1, 1.0, size=m)
            cfg = pr.SensorNetworkConfig(m, n_s, rng.uniform(0.2, 1.0, size=m),
                                         weights=w / w.sum(), scheme="entangled")
        assert pr.analytic_rms_for_scheme(cfg) == pytest.approx(
            pr.analytic_config_rms(cfg), abs=1e-12
        )


def test_splitter_completion_invariance():
    m, n_s, eta = 5, 3.0, 0.85
    baseline = pr.analytic_config_rms(pr.SensorNetworkConfig(m, n_s, eta))
    rng = np.random.default_rng(3)
    default = g.complete_orthogonal(np.ones(m))
    for _ in range(3):
        mix = np.linalg.qr(rng.standard_normal((m - 1, m - 1)))[0]
        alternate = default.copy()
        alternate[1:] = mix @ default[1:]
        splitter = g.transform_from_mode_matrix(alternate)
        state = g.apply_loss(
            pr.build_entangled_input(m, n_s, splitter=splitter),
            g.LossChannel(np.full(m, eta)),
        )
        w = np.full(m, 1.0 / m)
        rms = np.sqrt(w @ state.cov_block("x") @ w)
        assert rms == pytest.approx(baseline, abs=1e-12)


def test_scheme_dominance_and_monotonicity():
    ms = np.array([1, 2, 5, 20, 100])
    etas = np.array([0.3, 0.7, 0.9, 1.0])
    photons = np.array([0.0, 0.5, 4.0, 25.0])
    for eta in etas:
        for n_s in photons:
            ent = pr.entangled_rms_error(ms, n_s, eta)
            prod = pr.product_rms_error(ms, n_s, eta)
            assert np.all(ent <= prod + 1e-15)
            equal = np.isclose(ent, prod, rtol=1e-12)
            expect_equal = (ms == 1) | (n_s == 0.0)
            assert np.array_equal(equal, expect_equal)
            # Decreasing in M at fixed N_S.
            assert np.all(np.diff(ent) < 0)
            assert np.all(np.diff(prod) < 0)
    # Decreasing in eta and in N_S.
    for formula in (pr.entangled_rms_error, pr.product_rms_error):
        vals_eta = formula(10, 5.0, np.linspace(0.1, 1.0, 9))
        assert np.all(np.diff(vals_eta) < 0)
        vals_n = formula(10, np.linspace(0.0, 30.0, 9), 0.9)
        assert np.all(np.diff(vals_n) < 0)


@pytest.mark.parametrize(
    "scheme,m,n_s,eta",
    [
        ("entangled", 4, 4.0, 1.0),
        ("entangled", 20, 10.0, 0.9),
        ("product", 4, 4.0, 1.0),
        ("product", 20, 10.0, 0.9),
    ],
)
def test_monte_carlo_agreement(scheme, m, n_s, eta):
    cfg = pr.SensorNetworkConfig(
        m, n_s, eta, scheme=scheme, alpha_true=0.1, seed=101, trials=200_000
    )
    report = pr.simulate_displacement_protocol(cfg)
    assert report.agreement_sigmas() < 4.0
    assert report.estimator_offset == 0.0
    # Unbiasedness.
    assert abs(report.empirical_mean - 0.1) < 5.0 * report.analytic_rms / np.sqrt(cfg.trials)


def test_monte_carlo_unbiased_at_zero():
    cfg = pr.SensorNetworkConfig(4, 4.0, 1.0, alpha_true=0.0, seed=5, trials=200_000)
    report = pr.simulate_displacement_protocol(cfg)
    assert abs(report.empirical_mean) < 5.0 * report.analytic_rms / np.sqrt(cfg.trials)


def test_monte_carlo_determinism():
    cfg = dict(num_nodes=3, total_photons=2.0, eta=0.8, alpha_true=0.05, seed=77, trials=10_000)
    a = pr.simulate_displacement_protocol(pr.SensorNetworkConfig(**cfg))
    b = pr.simulate_displacement_protocol(pr.SensorNetworkConfig(**cfg))
    assert a.empirical_mean == b.empirical_mean
    assert a.empirical_rms_error == b.empirical_rms_error


def test_campaign_does_not_depend_on_the_chunk_size(monkeypatch):
    # PCG64 fills normals in stream order, so only the summation order changes.
    def run():
        cfg = pr.SensorNetworkConfig(3, 2.0, 0.8, alpha_true=0.05, seed=77, trials=10_001)
        phase = pr.simulate_phase_protocol(2, 2.0, 100.0, 0.9, 0.01, 10_001, seed=31)
        return [pr.simulate_displacement_protocol(cfg), phase]

    default = run()
    monkeypatch.setattr(pr, "CHUNK_NORMALS", 7)
    for chunked, whole in zip(run(), default):
        assert chunked.empirical_mean == pytest.approx(whole.empirical_mean, rel=1e-12, abs=0.0)
        assert chunked.empirical_rms_error == pytest.approx(
            whole.empirical_rms_error, rel=1e-12, abs=0.0
        )


def test_campaign_working_memory_is_one_chunk():
    # The M = 200 state and its checks take about 10 MB; one (trials, M)
    # array of 2e4 trials alone would take 32 MB.
    cfg = pr.SensorNetworkConfig(200, 10.0, 0.9, seed=3, trials=20_000)
    tracemalloc.start()
    try:
        report = pr.simulate_displacement_protocol(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert report.agreement_sigmas() < 4.0


def test_config_validation():
    with pytest.raises(ValueError):
        pr.SensorNetworkConfig(2, 1.0, scheme="teleport")
    with pytest.raises(ValueError):
        pr.SensorNetworkConfig(2, 1.0, trials=0)
    with pytest.raises(ValueError):
        pr.SensorNetworkConfig(2, 1.0, weights=np.array([0.9, 0.2]))
    with pytest.raises(ValueError):
        pr.SensorNetworkConfig(2, 1.0, eta=np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        pr.SensorNetworkConfig(2, np.nan)
    with pytest.raises(ValueError):
        pr.SensorNetworkConfig(2, 1.0, eta=np.array([0.5, np.nan]))
    for alpha in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="alpha_true"):
            pr.SensorNetworkConfig(2, 1.0, alpha_true=alpha)


def test_scaling_exponent():
    ms = [100, 1000, 10_000]
    assert pr.scaling_exponent("entangled", 1.0, 1.0, ms) == pytest.approx(-1.0, abs=0.02)
    assert pr.scaling_exponent("product", 1.0, 1.0, ms) == pytest.approx(-0.5, abs=0.02)
    # Loss restores SQL scaling for the entangled scheme at large M.
    lossy = pr.scaling_exponent("entangled", 0.95, 1.0, [10**4, 10**5, 10**6])
    assert lossy == pytest.approx(-0.5, abs=0.02)
    with pytest.raises(ValueError):
        pr.scaling_exponent("entangled", 1.0, 1.0, [10, 20, 50])


def test_phase_rms_error():
    for m, n_s, n_v, eta in [(4, 4.0, 100.0, 1.0), (2, 2.0, 50.0, 0.9)]:
        assert pr.phase_rms_error(m, n_s, n_v, eta) == pytest.approx(
            2.0 * pr.entangled_rms_error(m, n_s, eta) / np.sqrt(n_v)
        )
    assert pr.phase_rms_error(4, 4.0, 100.0, 1.0) == pytest.approx(0.0118034, abs=1e-7)
    for m in (1, 4):
        assert pr.phase_rms_error(m, 0.0, 64.0, 1.0) == pytest.approx(1.0 / np.sqrt(64.0 * m))
    with pytest.raises(ValueError):
        pr.phase_rms_error(2, 1.0, 0.0, 1.0)


def test_phase_estimator_is_locally_unbiased():
    # Exact estimator mean is sin(dphi): unbiased to first order.
    mean, _, _ = pr.phase_exact_stats(2, 2.0, 100.0, 1.0, 0.01)
    assert mean == pytest.approx(np.sin(0.01), abs=1e-12)
    mean0, _, _ = pr.phase_exact_stats(2, 2.0, 100.0, 1.0, 0.0)
    assert mean0 == pytest.approx(0.0, abs=1e-14)


def test_phase_monte_carlo_matches_linearized():
    report = pr.simulate_phase_protocol(2, 2.0, 100.0, 1.0, 0.01, 200_000, seed=31)
    residual = abs(
        pr.phase_exact_stats(2, 2.0, 100.0, 1.0, 0.01)[2] - report.analytic_rms
    )
    assert abs(report.empirical_rms_error - report.analytic_rms) < (
        3.0 * report.rms_standard_error + residual
    )


def test_phase_bias_zero_at_zero():
    report = pr.simulate_phase_protocol(2, 2.0, 100.0, 1.0, 0.0, 200_000, seed=13)
    assert abs(report.empirical_mean) < 5.0 * report.empirical_rms_error / np.sqrt(report.trials)


def test_phase_residual_quadratic():
    lin = pr.phase_rms_error(2, 2.0, 100.0, 1.0)
    res = {
        dphi: abs(pr.phase_exact_stats(2, 2.0, 100.0, 1.0, dphi)[2] - lin)
        for dphi in (0.01, 0.02)
    }
    assert res[0.02] / res[0.01] == pytest.approx(4.0, abs=1.0)


def test_phase_guard():
    with pytest.raises(ValueError):
        pr.simulate_phase_protocol(2, 2.0, 100.0, 1.0, 0.5, 100, seed=0)
    for dphi, n_v in ((np.nan, 100.0), (0.01, np.nan), (0.01, np.inf)):
        with pytest.raises(ValueError):
            pr.simulate_phase_protocol(2, 2.0, n_v, 1.0, dphi, 100, seed=0)


def test_known_discrepancy_note():
    notes = pr.known_discrepancies()
    assert any("8 dB" in note for note in notes)


def test_dense_route_with_a_tiny_last_weight():
    # A tiny late weight leaves a standard basis vector nearly parallel to the
    # splitter's first row; the completion must stay orthogonal to 1e-10.
    weights = np.array([1.0, 1.0, 1e-7]) / (2.0 + 1e-7)
    for n_s in (1.0, 5.0, 20.0):
        cfg = pr.SensorNetworkConfig(3, n_s, eta=0.5, weights=weights)
        assert pr.analytic_config_rms(cfg) == pytest.approx(
            pr.analytic_rms_for_scheme(cfg), rel=0.0, abs=1e-12
        )


@pytest.mark.parametrize("seed", [2**32, (2**32 + 1, 0), (1, -1), -1])
def test_campaign_rejects_seed_words_outside_32_bits(seed):
    # numpy splits a word >= 2^32 into 32-bit words, so (2^32 + 1, 0) would
    # draw the stream of (1, 1).
    cfg = pr.SensorNetworkConfig(2, 1.0, 0.9, seed=seed, trials=10)
    with pytest.raises(ValueError, match="seed words"):
        pr.simulate_displacement_protocol(cfg)
    with pytest.raises(ValueError, match="seed words"):
        pr.simulate_phase_protocol(2, 1.0, 100.0, 0.9, 0.01, 10, seed=seed)


def test_campaign_accepts_the_largest_seed_word():
    cfg = pr.SensorNetworkConfig(2, 1.0, 0.9, seed=(pr.SEED_MAX, 0), trials=10)
    assert pr.simulate_displacement_protocol(cfg).trials == 10
    assert pr.simulate_phase_protocol(2, 1.0, 100.0, 0.9, 0.01, 10, seed=(pr.SEED_MAX, 0)).trials == 10
