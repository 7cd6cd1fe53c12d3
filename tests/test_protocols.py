import dataclasses
import itertools
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cvsense import allocation as al
from cvsense import cli, fisher
from cvsense import gaussian as g
from cvsense import protocols as pr

README = Path(__file__).resolve().parents[1] / "README.md"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_readme_quick_start_runs_and_matches_its_quoted_values():
    block = README.read_text().split("Quick start:", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    quoted = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        value = comment.split()[0] if code.strip() and comment else None
        if value:
            # Each value is quoted to within one unit of its last digit.
            digits = len(value.partition(".")[2])
            got = eval(code, namespace)
            assert abs(got - float(value)) < 10.0**-digits, (code.strip(), got, value)
            quoted.append(value)
    assert quoted == ["0.038961", "0.065303", "4.486"]


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
    # The two noise kernels' ratio equals the ratio of the two closed-form rms errors.
    rng = np.random.default_rng(np.random.SeedSequence(65))
    for _ in range(200):
        m = int(10 ** rng.uniform(0.0, 5.0))
        n_s, eta = 10 ** rng.uniform(-4.0, 4.0), rng.uniform(0.01, 1.0)
        ratio = pr.product_rms_error(m, n_s, eta) / pr.entangled_rms_error(m, n_s, eta)
        assert pr.sensitivity_ratio_db(m, n_s, eta) == pytest.approx(
            10.0 * np.log10(ratio**2), rel=0.0, abs=1e-12)


def test_build_entangled_input():
    n_s = 1.0
    single = g.build_entangled_input(1, n_s)
    assert np.allclose(single.cov, g.squeezed_vacuum(n_s).cov)

    two = g.build_entangled_input(2, n_s)
    e2r = 1.0 / (np.sqrt(2.0) + 1.0) ** 2
    expected = np.array([[e2r + 1, e2r - 1], [e2r - 1, e2r + 1]]) / 8.0
    assert np.allclose(two.cov_block("x"), expected, atol=1e-14)

    r = np.arcsinh(np.sqrt(5.0))  # sinh^2 r = N_S, independent of squeezed_variances
    for m in (3, 7):
        state = g.build_entangled_input(m, 5.0)
        var_b1 = state.cov_block("x").sum() / m
        assert var_b1 == pytest.approx(np.exp(-2 * r) / 4, abs=1e-14)


@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("axis", ["x", "p"])
@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "unbalanced"])
def test_entangled_input_equals_the_tensor_route(m, axis, balanced):
    # One diagonal state in place of tensor(squeezed_vacuum, vacuum): the
    # same covariance bits, so the same state after the splitter.
    splitter = None if balanced else g.unbalanced_splitter(np.linspace(1.0, 2.0, m))
    got = g.build_entangled_input(m, 3.0, axis, splitter=splitter)
    state = g.squeezed_vacuum(3.0, axis)
    if m > 1:
        state = g.tensor(state, g.vacuum_state(m - 1))
    want = g.apply_symplectic(state, splitter or g.balanced_splitter(m))
    assert np.array_equal(got.mean, want.mean)
    assert np.array_equal(got.cov, want.cov)


def test_build_product_input():
    assert np.allclose(
        g.build_product_input(1, 2.0).cov, g.squeezed_vacuum(2.0).cov
    )
    state = g.build_product_input(4, 4.0)
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
        splitter = g.passive_transform(alternate.T)
        state = g.apply_loss(
            g.build_entangled_input(m, n_s, splitter=splitter),
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


@pytest.mark.parametrize("n_s", [1e14, 1e16, 1e20])
@pytest.mark.parametrize("m", [1, 4, 7])
def test_monte_carlo_resolves_large_squeezing(m, n_s):
    # The squeezed variance e^{-2r}/4 ~ 1/(16 N_S) reaches the sampler as it is,
    # never as 1/4 + (s - 1/4), which at N_S = 1e14 is already off by percents.
    for seed in range(1, 5):
        cfg = pr.SensorNetworkConfig(m, n_s, 1.0, alpha_true=0.1, seed=seed, trials=200_000)
        with pytest.warns(UserWarning, match="40 dB"):
            report = pr.simulate_displacement_protocol(cfg)
        assert report.agreement_sigmas() < 4.0


def test_heterogeneous_product_networks_agree_on_every_route():
    # Closed form = dense covariance route, and the Monte Carlo within 4 sigma on
    # seeds 0-3, over random product networks: M in [1, 40], eta log-uniform in
    # [1e-3, 1], weights bounded away from 0.
    rng = np.random.default_rng(np.random.SeedSequence(2025))
    for m in [1, 40, *rng.integers(1, 41, size=10)]:
        w = rng.uniform(0.1, 1.0, m)
        eta = np.exp(rng.uniform(np.log(1e-3), 0.0, m))
        n_s = 10 ** rng.uniform(-2.0, 3.0)
        for seed in range(4):
            cfg = pr.SensorNetworkConfig(m, n_s, eta, weights=w / w.sum(), scheme="product",
                                         alpha_true=0.1, seed=seed, trials=20_000)
            if seed == 0:
                closed = pr.analytic_rms_for_scheme(cfg)
                assert closed == pytest.approx(pr.analytic_config_rms(cfg), rel=1e-12, abs=0.0)
            report = pr.simulate_displacement_protocol(cfg)
            assert report.analytic_rms == closed
            assert report.agreement_sigmas() < 4.0


def test_weighted_product_optima_match_the_sampler():
    # An independent route for the weighted command's product rows: each optimum's
    # per-node photons and weights, sampled as independent nodes (variance
    # noise_kernel(eta_m, n_m)/4 each, unit = 0), meet its rms within 4 sigma.
    [run] = cli.parse_config(CONFIGS / "weighted_m2.cfg", cli._WEIGHTED_KEYS)
    etas, n_s = np.asarray(run["etas"]), run["total_photons"]
    net = al.WeightedNetwork(etas.size, run["weights"], etas, n_s)
    alloc = al.allocate_photons_product(net)
    w_opt, alloc_opt = al.optimal_weights_product(etas, n_s)
    for weights, result in ((net.weights, alloc), (w_opt, alloc_opt)):
        a = 0.25 * al.noise_kernel(etas, result.photons)
        for seed in range(4):
            marginal = pr._Marginal(np.zeros(etas.size), a, a, np.zeros(etas.size))
            report = pr._run_campaign(marginal, weights, target=0.0, trials=200_000, seed=seed,
                                      analytic_rms=result.objective)
            assert report.agreement_sigmas() < 4.0


def test_monte_carlo_rejects_photons_above_the_sampler_bound(monkeypatch):
    monkeypatch.setattr(pr, "_run_campaign", lambda *args, **kw: pytest.fail("sampled"))
    for n_s in (np.nextafter(pr.SAMPLER_MAX_PHOTONS, np.inf), 1e300):
        cfg = pr.SensorNetworkConfig(4, n_s, 1.0, trials=10)
        with pytest.raises(ValueError, match="sampler bound"):
            pr.simulate_displacement_protocol(cfg)


def _campaigns(trials):
    cfgs = [
        pr.SensorNetworkConfig(3, 2.0, 0.8, alpha_true=0.05, seed=77, trials=trials),
        pr.SensorNetworkConfig(3, 2.0, np.array([0.9, 0.5, 0.7]), np.array([0.5, 0.2, 0.3]),
                               alpha_true=-0.1, seed=(5, 1), trials=trials),
        pr.SensorNetworkConfig(3, 2.0, 0.8, scheme="product", alpha_true=0.05, seed=8,
                               trials=trials),
    ]
    reports = [pr.simulate_displacement_protocol(cfg) for cfg in cfgs]
    return reports + [pr.simulate_phase_protocol(2, 2.0, 100.0, 0.9, 0.01, trials, seed=31)]


def test_campaign_does_not_depend_on_the_thread_count(monkeypatch):
    # Chunk j draws from its own stream and the chunk sums are reduced in chunk
    # order, so the reports are bit-identical whichever thread ran which chunk.
    monkeypatch.setattr(pr, "CHUNK_NORMALS", 3 * 101)  # 101 rows at M = 3, 151 at M = 2
    trials = 10_001  # not a multiple of either
    reports = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(pr, "_thread_count", lambda chunks: min(chunks, threads))
        reports.append(_campaigns(trials))
    assert reports[0] == reports[1] == reports[2]
    *displacement, phase = reports[0]
    for report in displacement:
        assert report.agreement_sigmas() < 4.0
    # The phase report's analytic rms is the linearized one; the exact one is the reference.
    exact = pr.phase_exact_stats(2, 2.0, 100.0, 0.9, 0.01)[2]
    assert abs(phase.empirical_rms_error - exact) < 4.0 * phase.rms_standard_error


def test_chunk_j_draws_from_the_jth_spawned_stream(monkeypatch):
    # One chunk of one row at M = 1 is one normal, seen by a spy on the sampler.
    monkeypatch.setattr(pr, "CHUNK_NORMALS", 1)
    seen = {}
    real = pr._Marginal.sample

    def spy(marginal, rng, normals, out):
        seen[rng.bit_generator.seed_seq.spawn_key] = rng.bit_generator.state
        return real(marginal, rng, normals, out)

    monkeypatch.setattr(pr._Marginal, "sample", spy)
    pr.simulate_displacement_protocol(pr.SensorNetworkConfig(1, 2.0, seed=(9, 4), trials=5))
    children = np.random.SeedSequence((9, 4)).spawn(5)
    assert seen == {(j,): np.random.PCG64(children[j]).state for j in range(5)}


def test_a_chunk_failing_in_a_helper_thread_stops_the_campaign(monkeypatch):
    monkeypatch.setattr(pr, "CHUNK_NORMALS", 3 * 100)
    monkeypatch.setattr(pr, "_thread_count", lambda chunks: min(chunks, 3))
    real = pr._Marginal.sample
    raised = threading.Event()

    def failing(marginal, rng, normals, out):
        chunk = rng.bit_generator.seed_seq.spawn_key[0]
        if threading.current_thread() is threading.main_thread():
            raised.wait(timeout=30)  # the caller's chunks wait for a helper's failure
        elif chunk >= 1:
            raised.set()
            raise ValueError(f"chunk {chunk} failed")
        return real(marginal, rng, normals, out)

    monkeypatch.setattr(pr._Marginal, "sample", failing)
    before = threading.active_count()
    cfg = pr.SensorNetworkConfig(3, 2.0, 0.8, seed=77, trials=10_000)  # 100 chunks
    with pytest.raises(ValueError, match="chunk [1-9][0-9]* failed"):
        pr.simulate_displacement_protocol(cfg)
    assert threading.active_count() == before


def test_thread_count_is_capped_by_chunks_cpus_and_the_override(monkeypatch):
    monkeypatch.delenv("CVSENSE_THREADS", raising=False)
    monkeypatch.setattr(pr.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert [pr._thread_count(c) for c in (1, 5, 64, 10**6)] == [1, 5, 64, 64]
    for cap, expected in (("3", 3), ("100", 64), ("", 64), (" 2 ", 2)):
        monkeypatch.setenv("CVSENSE_THREADS", cap)
        assert pr._thread_count(10**6) == expected
    for bad in ("0", "-1", "abc", "1.5"):
        monkeypatch.setenv("CVSENSE_THREADS", bad)
        with pytest.raises(ValueError, match="CVSENSE_THREADS must be a positive integer"):
            pr._thread_count(10)
    # Without sched_getaffinity the CPU count stands in; an unknown count means one CPU.
    monkeypatch.delenv("CVSENSE_THREADS")
    monkeypatch.delattr(pr.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(pr.os, "cpu_count", lambda: 6)
    assert pr._thread_count(10**6) == 6
    monkeypatch.setattr(pr.os, "cpu_count", lambda: None)
    assert pr._thread_count(10**6) == 1


def test_campaign_working_memory_is_one_chunk():
    # The M = 200 marginal is three length-M vectors and a chunk's buffers
    # are 1 MB; one (trials, M) array of 2e4 trials alone would take 32 MB.
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
    # A checked config stays checked: no field can be set after construction.
    cfg = pr.SensorNetworkConfig(2, 1.0)
    for name, value in (("trials", 0), ("scheme", "prodct"), ("eta", 5.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)


def test_lossy_entangled_scaling_is_sql():
    # Loss restores SQL scaling for the entangled scheme at large M (one photon per node).
    ms = np.array([1e4, 1e5, 1e6])
    with pytest.warns(UserWarning, match="40 dB"):
        rms = pr.entangled_rms_error(ms, ms, 0.95)
    assert np.polyfit(np.log10(ms), np.log10(rms), 1)[0] == pytest.approx(-0.5, abs=0.02)


def test_closed_forms_warn_past_the_squeezing_cap():
    cap = pr.SQUEEZING_CAP_PHOTONS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pr.sensitivity_ratio_db(4, cap, 0.9)  # at the cap: no warning
    past = np.nextafter(cap, np.inf)
    for closed_form in (pr.entangled_rms_error, pr.sensitivity_ratio_db):
        with pytest.warns(UserWarning, match="40 dB"):
            closed_form(4, np.array([1.0, past]), 0.9)
    # A product node squeezes N_S/M photons, so the product form weighs N_S/M against
    # the cap: it warns once at M = 1 just past it, and not at all at M = 4 with 4e4.
    for m, n_s in ((1, past), (2, 5e4)):
        with pytest.warns(UserWarning, match="40 dB") as caught:
            pr.product_rms_error(m, np.array([1.0, n_s]), 0.9)
        assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pr.product_rms_error(4, 4.0 * cap, 0.9)
        pr.product_rms_error(10, 5e4, 0.9)
    with pytest.warns(UserWarning, match="40 dB"):
        pr.phase_rms_error(4, past, 100.0, 0.9)


def test_each_entry_point_warns_once_at_its_callers_line():
    # However deep inside the package the cap is found, the warning names the calling line
    # of this file, so Python's default filter shows it once per calling line.
    past = 5e4
    calls = {
        "entangled_rms_error": lambda: pr.entangled_rms_error(2, past, 0.9),
        "product_rms_error": lambda: pr.product_rms_error(1, past, 0.9),
        "sensitivity_ratio_db": lambda: pr.sensitivity_ratio_db(2, past, 0.9),
        "phase_rms_error": lambda: pr.phase_rms_error(2, past, 100.0, 0.9),
        "phase_exact_stats": lambda: pr.phase_exact_stats(2, past, 100.0, 0.9, 0.01),
        "simulate_phase_protocol":
            lambda: pr.simulate_phase_protocol(2, past, 100.0, 0.9, 0.01, 10, seed=0),
        "simulate_displacement_protocol":
            lambda: pr.simulate_displacement_protocol(pr.SensorNetworkConfig(1, past, trials=10)),
        "cr_bound_separable": lambda: fisher.cr_bound_separable(1, past, 0.9),
    }
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [(w.filename, str(w.message)) for w in caught] == [
            (__file__, pr.SQUEEZING_CAP_NOTE)], name


def test_phase_rms_error():
    for m, n_s, n_v, eta in [(4, 4.0, 100.0, 1.0), (2, 2.0, 50.0, 0.9)]:
        assert pr.phase_rms_error(m, n_s, n_v, eta) == pytest.approx(
            2.0 * pr.entangled_rms_error(m, n_s, eta) / np.sqrt(n_v)
        )
    assert pr.phase_rms_error(4, 4.0, 100.0, 1.0) == pytest.approx(0.0118034, abs=1e-7)
    for m in (1, 4):
        assert pr.phase_rms_error(m, 0.0, 64.0, 1.0) == pytest.approx(1.0 / np.sqrt(64.0 * m))
    for n_v in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="coherent drive"):
            pr.phase_rms_error(2, 1.0, n_v, 1.0)


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


@pytest.mark.parametrize("m, n_v, message", [
    (0, 100.0, "number of nodes"), (-3, 100.0, "number of nodes"),
    (2, 0.0, "coherent drive"), (2, -5.0, "coherent drive"), (2, np.inf, "coherent drive"),
])
def test_phase_checks_nodes_and_drive_before_building(monkeypatch, m, n_v, message):
    # Tier-1 turns RuntimeWarnings into errors, so a 1/sqrt(M) or sqrt(N_v) formed
    # before the checks would fail this too.
    monkeypatch.setattr(pr, "squeezed_variances", lambda *args: pytest.fail("built"))
    with pytest.raises(ValueError, match=message):
        pr.simulate_phase_protocol(m, 2.0, n_v, 0.9, 0.01, 10, seed=0)
    with pytest.raises(ValueError, match=message):
        pr.phase_exact_stats(m, 2.0, n_v, 0.9, 0.01)


def test_phase_network_refuses_photons_above_the_phase_bound(monkeypatch):
    # The sampler bound governs phase too. It lies past 40 dB of squeezing: the rms
    # domain check warns first.
    with pytest.warns(UserWarning, match="40 dB"):
        pr.phase_exact_stats(4, pr.SAMPLER_MAX_PHOTONS, 100.0, 1.0, 0.1)
    monkeypatch.setattr(pr, "squeezed_variances", lambda *args: pytest.fail("built"))
    for n_s in (np.nextafter(pr.SAMPLER_MAX_PHOTONS, np.inf), 1e300):
        with pytest.warns(UserWarning, match="40 dB"):
            with pytest.raises(ValueError, match="sampler bound"):
                pr.phase_exact_stats(4, n_s, 100.0, 1.0, 0.1)
            with pytest.raises(ValueError, match="sampler bound"):
                pr.simulate_phase_protocol(4, n_s, 100.0, 1.0, 0.1, 100, seed=0)


def test_phase_campaign_tracks_its_exact_stats_up_to_the_sampler_bound():
    # At eta = 1 and dphi = 0 the squeezed variance ~ 1/(16 N_S) reaches the sampler as it
    # is; at dphi != 0 the anti-squeezed leak ~ N_S dphi^2 dominates. Seeds 0-3, none chosen.
    n_s = pr.SAMPLER_MAX_PHOTONS
    for m, eta, dphi, seed in itertools.product((1, 2, 7, 1000), (0.9, 1.0), (0.0, 0.005, 0.29),
                                                range(4)):
        with pytest.warns(UserWarning, match="40 dB"):
            report = pr.simulate_phase_protocol(m, n_s, 100.0, eta, dphi,
                                                2_000 if m == 1000 else 20_000, seed=seed)
            exact = pr.phase_exact_stats(m, n_s, 100.0, eta, dphi)[2]
        assert abs(report.empirical_rms_error - exact) < 4.0 * report.rms_standard_error


@pytest.mark.parametrize("m", [2, 1000])
@pytest.mark.parametrize("n_s", [1e4, 1e5, 1e16, 1e20])
def test_phase_exact_sd_does_not_cancel_at_high_squeezing(m, n_s):
    # At eta = 1 and dphi = 0 the estimator (w parallel to u) sees only the variance top
    # along u, with w.u = 2/sqrt(eta N_v M): a |w|^2 + (top - a)(w.u)^2 would cancel a
    # against a, and a |w - (w.u)u|^2 would leave the rounding of w.u beside top ~ 1/(16 N_S).
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # past the 40 dB cap
        top = pr._phase_marginal(m, n_s, 100.0, 1.0, 0.0)[0].top
        sd = pr.phase_exact_stats(m, n_s, 100.0, 1.0, 0.0)[1]
    assert sd == pytest.approx(np.sqrt(top) * 2.0 / np.sqrt(100.0 * m), rel=1e-14, abs=0.0)


def test_known_discrepancy_note():
    assert "8 dB" in pr.EIGHT_DB_NOTE


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


def _campaign_inputs(monkeypatch, run):
    """(mean, a, top, unit) of the _Marginal that run() hands to the Monte Carlo kernel."""
    seen = []
    monkeypatch.setattr(pr, "_run_campaign", lambda marginal, *args, **kw: seen.append(marginal))
    run()
    (marginal,) = seen
    return marginal.mean, marginal.a, marginal.top, marginal.unit


def test_structured_marginal_equals_the_dense_pipeline(monkeypatch):
    rng = np.random.default_rng(np.random.SeedSequence(2024))
    for _ in range(60):
        m = int(rng.integers(1, 51))
        het = rng.random() < 0.5
        eta = rng.uniform(0.05, 1.0, m) if het else rng.choice([1.0, rng.uniform(0.05, 1.0)])
        cfg = pr.SensorNetworkConfig(
            m, 10 ** rng.uniform(-2, 4), eta, weights=rng.dirichlet(np.ones(m)) if het else None,
            scheme="product" if rng.random() < 0.5 else "entangled",
            alpha_true=rng.uniform(-1.0, 1.0))
        mean, a, top, unit = _campaign_inputs(
            monkeypatch, lambda: pr.simulate_displacement_protocol(cfg))
        dense = g.apply_loss(pr._build_input_for_config(cfg), g.LossChannel(cfg.eta))
        np.testing.assert_allclose(mean, dense.mean_block("x") + cfg.alpha_true,
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(a * np.eye(m) + (top - a) * np.outer(unit, unit),
                                   dense.cov_block("x"), rtol=0.0, atol=1e-12)
    # (max M, N_S decades, N_v decades, eta range): then up to N_S = 1e4 and N_v = 1e6.
    ranges = [(30, (-1, 2), (0, 3), (0.05, 1.0))] * 20 + [(40, (-2, 4), (0, 6), (0.2, 1.0))] * 20
    for m_max, n_s, n_v, eta in ranges:
        m = int(rng.integers(1, m_max + 1))
        args = (m, 10 ** rng.uniform(*n_s), 10 ** rng.uniform(*n_v), rng.uniform(*eta),
                rng.uniform(-0.29, 0.29))
        mean, a, top, unit = _campaign_inputs(
            monkeypatch, lambda: pr.simulate_phase_protocol(*args, trials=1, seed=0))
        dense = g.build_phase_network_state(*args)
        scale = max(1.0, np.abs(mean).max())  # the drive's mean grows like sqrt(N_v)
        np.testing.assert_allclose(mean, dense.mean_block("p")[:m], rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(a * np.eye(m) + (top - a) * np.outer(unit, unit),
                                   dense.cov_block("p")[:m, :m], rtol=0.0, atol=1e-12)
        # phase_exact_stats reads that marginal; the dense state's estimator moments agree.
        w = 2.0 / (np.sqrt(args[3] * args[2]) * m)
        est_mean = w * dense.mean_block("p")[:m].sum()
        est_sd = w * np.sqrt(dense.cov_block("p")[:m, :m].sum())
        np.testing.assert_allclose(
            pr.phase_exact_stats(*args),
            (est_mean, est_sd, np.sqrt(est_sd**2 + (est_mean - args[4]) ** 2)),
            rtol=1e-12, atol=0.0)


def _dense_fisher(row, n_s, eta):
    """1^T V^-1 1 of the post-loss x-covariance V of the splitter whose first row is row."""
    m = eta.size
    state = g.build_entangled_input(m, n_s, splitter=g.unbalanced_splitter(row))
    cov = g.apply_loss(state, g.LossChannel(eta)).cov_block("x")
    return np.ones(m) @ np.linalg.solve(cov, np.ones(m))


def test_no_splitter_row_beats_the_shipped_one(monkeypatch):
    # A common displacement's Fisher information through the dense route: at the optimal
    # weights the shipped row u ~ w sqrt(eta) attains sum_m fisher_max(N_S, eta_m), as does
    # the campaign's marginal through (M - (1.u)^2)/a + (1.u)^2/top, and no random or
    # perturbed row does better.
    rng = np.random.default_rng(np.random.SeedSequence(2033))
    for _ in range(60):
        m = int(rng.integers(2, 31))
        eta = np.exp(rng.uniform(np.log(1e-3), 0.0, m))
        n_s = float(10.0 ** rng.uniform(-2.0, 4.0))
        cfg = pr.SensorNetworkConfig(m, n_s, eta, weights=al.optimal_weights_entangled(eta, n_s))
        row = pr._splitter_row(cfg)
        shipped = _dense_fisher(row, n_s, eta)
        total = sum(fisher.fisher_max(n_s, e)[0] for e in eta)
        assert abs(shipped - total) <= 1e-12 * total
        _, a, top, unit = _campaign_inputs(
            monkeypatch, lambda: pr.simulate_displacement_protocol(cfg))
        along = unit.sum() ** 2
        assert abs((m - along) / a + along / top - total) <= 1e-12 * total
        others = [rng.standard_normal(m) for _ in range(3)]
        others += [row * (1.0 + scale * rng.standard_normal(m)) for scale in (1e-1, 1e-3, 1e-6)]
        for other in others:
            assert _dense_fisher(other, n_s, eta) <= shipped * (1.0 + 1e-12)


def test_campaigns_build_no_dense_network_state(monkeypatch, tmp_path):
    built = []
    for cls in (g.GaussianState, g.SymplecticTransform):
        def counting(self, post_init=cls.__post_init__):
            post_init(self)
            built.append((type(self).__name__, self.num_modes))

        monkeypatch.setattr(cls, "__post_init__", counting)
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: pytest.fail("eigh called"))
    for scheme, weights in (("entangled", None), ("entangled", [0.5, 0.2, 0.3]), ("product", None)):
        cfg = pr.SensorNetworkConfig(3, 2.0, 0.8, weights=weights, scheme=scheme, trials=10)
        pr.simulate_displacement_protocol(cfg)
    assert built == []
    # Phase: the Mach-Zehnder pair's p moments are closed forms, whatever M.
    pr.simulate_phase_protocol(30, 2.0, 100.0, 0.9, 0.01, 10, seed=0)
    assert built == []
    # So do the exact stats, and the phase command end to end.
    pr.phase_exact_stats(30, 2.0, 100.0, 0.9, 0.01)
    config = tmp_path / "phase.cfg"
    config.write_text("M = 30\nN_S = 2\nN_v = 100\neta = 0.9\ndphi = 0.01, 0.1\ntrials = 10\n")
    assert cli.main(["phase", "--config", str(config), "--out", str(tmp_path / "p.csv")]) == 0
    assert built == []
