import decimal

import numpy as np
import pytest

from cvsense import allocation as al
from cvsense.fisher import fisher_max
from cvsense import protocols as pr


def uniform_net(m, n_s, eta):
    return al.WeightedNetwork(m, np.full(m, 1.0 / m), np.full(m, eta), n_s)


def test_network_validation():
    with pytest.raises(ValueError):
        al.WeightedNetwork(2, np.array([0.5, 0.6]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        al.WeightedNetwork(2, np.array([1.2, -0.2]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        al.WeightedNetwork(2, np.array([0.5, 0.5]), np.array([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        al.WeightedNetwork(2, np.array([0.5, 0.5]), np.array([1.0, 1.0]), -1.0)
    with pytest.raises(ValueError):
        al.WeightedNetwork(3, np.array([0.5, 0.5]), np.array([1.0, 1.0]), 1.0)
    for weights, etas, n_s in [
        ([0.5, 0.5], [0.9, 0.3], np.nan),
        ([0.5, 0.5], [0.9, 0.3], np.inf),
        ([0.5, 0.5], [0.9, np.nan], 1.0),
        ([np.nan, 0.5], [0.9, 0.3], 1.0),
    ]:
        with pytest.raises(ValueError):
            al.WeightedNetwork(2, np.array(weights), np.array(etas), n_s)
    with pytest.raises(ValueError):
        al.optimal_weights_entangled(np.array([0.9, np.nan]), 4.0)


def test_network_defaults_to_uniform_weights_and_one_transmissivity():
    for m in (1, 3, 7):
        explicit = al.WeightedNetwork(m, np.full(m, 1.0 / m), np.full(m, 0.9), 4.0)
        implicit = al.WeightedNetwork(m, None, 0.9, 4.0)
        assert np.array_equal(implicit.weights, explicit.weights)
        assert np.array_equal(implicit.etas, explicit.etas)


@pytest.mark.parametrize("m", [0, -3, np.nan])
def test_network_rejects_a_bad_node_count(m):
    # Checked before 1/M is formed: Tier-1 turns its RuntimeWarning into an error.
    with pytest.raises(ValueError, match="number of nodes must be >= 1"):
        al.WeightedNetwork(m, None, 0.9, 4.0)


@pytest.mark.parametrize("n_s", [np.nan, -1.0, np.inf])
def test_optimal_weights_entangled_rejects_bad_budget(n_s):
    with pytest.raises(ValueError, match="photon budget"):
        al.optimal_weights_entangled(np.array([0.9, 0.3]), n_s)


def test_uniform_reductions():
    # Equal weights and a common eta reduce to the two-scheme closed forms.
    for m, n_s, eta in [(2, 1.0, 1.0), (5, 4.0, 0.8), (20, 10.0, 0.9)]:
        net = uniform_net(m, n_s, eta)
        assert al.weighted_entangled_rms(net) == pytest.approx(
            float(pr.entangled_rms_error(m, n_s, eta)), abs=1e-14
        )
        result = al.allocate_photons_product(net)
        assert np.allclose(result.photons, n_s / m, atol=1e-9)
        assert result.objective == pytest.approx(
            float(pr.product_rms_error(m, n_s, eta)), abs=1e-10
        )


def test_single_active_node():
    # Weight concentrated on one node sends the whole budget there.
    net = al.WeightedNetwork(
        3, np.array([1.0, 0.0, 0.0]), np.array([0.9, 0.8, 0.7]), 5.0
    )
    result = al.allocate_photons_product(net)
    assert result.photons[0] == pytest.approx(5.0, abs=1e-9)
    assert result.photons[1] == result.photons[2] == 0.0
    expected = 0.5 * np.sqrt(0.9 * al._inv_scale(5.0) + 0.1)
    assert result.objective == pytest.approx(float(expected), abs=1e-12)


def test_allocation_m2_grid_certificate():
    # Brute-force line search over N_1 certifies the water-filling answer.
    net = al.WeightedNetwork(2, np.array([0.7, 0.3]), np.array([0.9, 0.3]), 4.0)
    result = al.allocate_photons_product(net)
    n1 = np.linspace(1e-6, 4.0 - 1e-6, 400_001)
    objs = 0.5 * np.sqrt(
        net.weights[0] ** 2 * (net.etas[0] * al._inv_scale(n1) + 0.1)
        + net.weights[1] ** 2 * (net.etas[1] * al._inv_scale(4.0 - n1) + 0.7)
    )
    k = int(np.argmin(objs))
    # Refine around the coarse winner.
    n1_fine = np.linspace(n1[max(k - 1, 0)], n1[min(k + 1, n1.size - 1)], 100_001)
    objs_fine = 0.5 * np.sqrt(
        net.weights[0] ** 2 * (net.etas[0] * al._inv_scale(n1_fine) + 0.1)
        + net.weights[1] ** 2 * (net.etas[1] * al._inv_scale(4.0 - n1_fine) + 0.7)
    )
    j = int(np.argmin(objs_fine))
    assert result.photons[0] == pytest.approx(n1_fine[j], abs=1e-6)
    assert result.objective <= objs_fine[j] + 1e-12
    assert result.photons.sum() == pytest.approx(4.0, abs=1e-12)
    assert result.kkt_residual < 1e-8


def test_allocation_beats_uniform_split():
    net = al.WeightedNetwork(
        3, np.array([0.5, 0.3, 0.2]), np.array([0.95, 0.6, 0.2]), 6.0
    )
    result = al.allocate_photons_product(net)
    assert result.objective < al.weighted_rms(net.weights, net.etas, np.full(3, 2.0))
    assert result.kkt_residual < 1e-8
    # Heavier, cleaner node draws more photons.
    assert result.photons[0] > result.photons[1] > result.photons[2] > 0


def test_objective_convexity_chord():
    net = al.WeightedNetwork(2, np.array([0.6, 0.4]), np.array([0.9, 0.5]), 3.0)
    result = al.allocate_photons_product(net)
    rng = np.random.default_rng(17)
    # Squared objective is convex in the allocation; any chord through the
    # optimum cannot go below it.
    for _ in range(20):
        other = rng.uniform(0.05, 0.95)
        alt = np.array([other * 3.0, (1 - other) * 3.0])
        for t in (0.25, 0.5, 0.75):
            mix = (1 - t) * result.photons + t * alt
            assert al.weighted_rms(net.weights, net.etas, mix) >= result.objective - 1e-12


def test_optimal_weights_entangled_spot_value():
    # eta = (1, 0.5), N_S = 10: c = (0.023823, 0.511912) -> w ~ (0.95555, 0.04445).
    w = al.optimal_weights_entangled(np.array([1.0, 0.5]), 10.0)
    assert w[0] == pytest.approx(0.95555, abs=1e-4)
    assert w[1] == pytest.approx(0.04445, abs=1e-4)
    # Certify against a dense simplex grid.
    best_w, best = None, np.inf
    for w1 in np.linspace(0.0, 1.0, 10_001):
        net = al.WeightedNetwork(
            2, np.array([w1, 1.0 - w1]), np.array([1.0, 0.5]), 10.0
        )
        val = al.weighted_entangled_rms(net)
        if val < best:
            best_w, best = w1, val
    assert w[0] == pytest.approx(best_w, abs=2e-4)


def test_optimal_weights_entangled():
    w = al.optimal_weights_entangled(np.array([0.9, 0.3]), 4.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert w[0] > w[1]
    # Spot value from the closed form w_m ~ 1/c_m.
    c = np.array([0.9, 0.3]) * al._inv_scale(4.0) + 1.0 - np.array([0.9, 0.3])
    assert np.allclose(w, (1 / c) / (1 / c).sum(), atol=1e-14)
    # Certification against a fine simplex grid, evaluated in one batch.
    w1 = np.linspace(0.0, 1.0, 100_001)
    grid = np.stack([w1, 1.0 - w1], axis=1)
    rms = 0.5 * np.sqrt(grid**2 @ al.noise_kernel(np.array([0.9, 0.3]), 4.0))
    for i in range(0, w1.size, 10_000):  # the batch agrees with the one-network route
        net = al.WeightedNetwork(2, grid[i], np.array([0.9, 0.3]), 4.0)
        assert rms[i] == pytest.approx(al.weighted_entangled_rms(net), rel=1e-14)
    best = rms.min()
    opt = al.weighted_entangled_rms(al.WeightedNetwork(2, w, np.array([0.9, 0.3]), 4.0))
    assert opt <= best + 1e-12


def test_optimal_weights_product_descends_and_certifies():
    etas = np.array([0.9, 0.3])
    weights, result = al.optimal_weights_product(etas, 4.0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    uniform = al.allocate_photons_product(
        al.WeightedNetwork(2, np.array([0.5, 0.5]), etas, 4.0)
    )
    assert result.objective <= uniform.objective + 1e-14
    # Joint grid certification over (w_1, N_1).
    best = np.inf
    for w1 in np.linspace(0.01, 0.99, 201):
        w = np.array([w1, 1.0 - w1])
        for n1 in np.linspace(1e-4, 4.0 - 1e-4, 201):
            net = al.WeightedNetwork(2, w, etas, 4.0)
            best = min(best, al.weighted_rms(net.weights, net.etas, np.array([n1, 4.0 - n1])))
    assert result.objective <= best + 1e-6


def test_entangled_optimum_is_the_fisher_sum():
    # At the optimal weights 1/rms^2 is a Fisher sum, each node's fisher_max at the whole
    # budget: 1/rms^2 = sum_m fisher_max(N_S, eta_m), an independent route to the weighted
    # command's entangled optimum. Seeded networks, every fourth uniform, M from 1 to 200
    # (log-uniform) and N_S from 1e-3 to 1e6.
    rng = np.random.default_rng(2032)
    for k in range(500):
        m = 200 if k == 0 else int(np.exp(rng.uniform(0.0, np.log(200.0))))
        etas = np.exp(rng.uniform(np.log(1e-3), 0.0, size=1 if k % 4 == 0 else m))
        etas[rng.random(etas.size) < 0.1] = 1.0
        etas = np.broadcast_to(etas, (m,))
        n_s = float(10.0 ** rng.uniform(-3.0, 6.0))
        rms = al.weighted_rms(al.optimal_weights_entangled(etas, n_s), etas, n_s)
        total = sum(fisher_max(n_s, eta)[0] for eta in etas)
        assert abs(1.0 / rms**2 - total) / total <= 1e-13


def test_weighted_entangled_monte_carlo(configs_dir):
    # Simulated weighted entangled estimator matches the closed form.
    etas = np.array([0.9, 0.3])
    n_s = 4.0
    weights = al.optimal_weights_entangled(etas, n_s)
    net = al.WeightedNetwork(2, weights, etas, n_s)
    analytic = al.weighted_entangled_rms(net)

    cfg = pr.SensorNetworkConfig(
        2, n_s, etas, weights=weights, alpha_true=0.1, seed=404, trials=200_000
    )
    assert pr.analytic_config_rms(cfg) == pytest.approx(analytic, abs=1e-12)
    report = pr.simulate_displacement_protocol(cfg)
    assert report.agreement_sigmas() < 4.0


def test_weighted_entangled_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(3):
        m = int(rng.integers(2, 5))
        w = rng.uniform(0.2, 1.0, size=m)
        w /= w.sum()
        etas = rng.uniform(0.4, 1.0, size=m)
        n_s = float(rng.uniform(0.5, 6.0))
        net = al.WeightedNetwork(m, w, etas, n_s)
        cfg = pr.SensorNetworkConfig(
            m, n_s, etas, weights=w, alpha_true=0.05,
            seed=int(rng.integers(1 << 30)), trials=100_000,
        )
        assert pr.analytic_config_rms(cfg) == pytest.approx(
            al.weighted_entangled_rms(net), abs=1e-12
        )
        assert pr.simulate_displacement_protocol(cfg).agreement_sigmas() < 4.0


# An even split below the normal float64 range is the vacuum too: kappa(n) is 1 to
# rounding for n below 1e-32.
VACUUM_BUDGETS = (0.0, 5e-324, 3e-308)


def test_allocation_at_zero_budget_is_the_vacuum():
    # No photons: every node is in vacuum, noise kernel 1 and node Fisher information 4.
    for n_s in VACUUM_BUDGETS:
        net = al.WeightedNetwork(3, [0.5, 0.3, 0.2], [0.9, 0.4, 1.0], n_s)
        result = al.allocate_photons_product(net)
        assert np.array_equal(result.photons, np.zeros(3))
        assert result.objective == pytest.approx(0.5 * np.sqrt(0.25 + 0.09 + 0.04), rel=1e-15)
        assert (result.kkt_residual, result.iterations) == (0.0, 0)


def test_optimal_weights_product_at_zero_budget_is_uniform():
    # Every node in vacuum has F_m = 4, so the optimal weights are uniform.
    for n_s in VACUUM_BUDGETS:
        weights, joint = al.optimal_weights_product(np.array([0.9, 0.4, 1.0]), n_s)
        assert np.array_equal(weights, np.full(3, 1.0 / 3.0))
        assert np.array_equal(joint.photons, np.zeros(3))
        assert joint.objective == pytest.approx(1.0 / np.sqrt(12.0), rel=1e-15)
        assert (joint.kkt_residual, joint.iterations) == (0.0, 0)


def _check_allocation(net):
    result = al.allocate_photons_product(net)
    assert result.kkt_residual <= al.KKT_TOL
    assert abs(result.photons.sum() - net.total_photons) <= 1e-9
    equal = al.weighted_rms(net.weights, net.etas, net.total_photons / net.num_nodes)
    assert result.objective <= equal * (1.0 + 1e-12)


def test_allocation_extreme_weights():
    # A node carrying almost no weight needs far fewer than 1e-12 photons.
    for etas in ([1.0, 1.0], [0.9, 0.3], [0.3, 0.9]):
        for n_s in (0.5, 4.0, 20.0):
            _check_allocation(al.WeightedNetwork(2, np.array([0.99999, 0.00001]),
                                                 np.array(etas), n_s))


def test_allocation_random_dirichlet_networks():
    rng = np.random.default_rng(np.random.SeedSequence(2024))
    for _ in range(300):
        m = int(np.exp(rng.uniform(np.log(2), np.log(128))))
        weights = rng.dirichlet(np.ones(m))
        etas = rng.uniform(0.3, 1.0, size=m)
        _check_allocation(al.WeightedNetwork(m, weights, etas, float(rng.uniform(1.0, 20.0))))


def test_inv_scale_is_stable_for_large_budgets():
    # 1/(sqrt(N+1)+sqrt(N))^2 ~ 1/(4N + 2) without the cancellation of
    # (sqrt(N+1)-sqrt(N))^2, which was off by 1.2 % at N = 1e14.
    n = np.array([1e8, 1e12, 1e14, 1e18])
    assert np.allclose(al._inv_scale(n) * (4.0 * n + 2.0), 1.0, rtol=1e-12, atol=0.0)
    assert np.allclose(al._inv_scale_deriv(n) * (4.0 * n + 2.0) * n, -1.0, rtol=1e-8, atol=0.0)


def test_inv_scale_does_not_overflow_at_the_float64_limit():
    # (sqrt(N+1)+sqrt(N))^2 overflows above ~4.5e307; its reciprocal, squared, does not.
    n = np.array([1e300, 1e307, 1e308, np.finfo(float).max])
    with np.errstate(over="raise"):
        kappa = al._inv_scale(n)
    assert np.allclose(4.0 * (kappa * n), 1.0, rtol=1e-12, atol=0.0)


def test_noise_kernel_is_exact_without_loss():
    # At eta = 1 the kernel is kappa itself; eta kappa + 1 - eta formed (kappa + 1) - 1,
    # off by 9.5e-11 relative at n = 1e6.
    n = np.array([1e2, 1e4, 1e6])
    kappa = al._inv_scale(n)
    assert np.allclose(al.noise_kernel(1.0, n), kappa, rtol=1e-15, atol=0.0)
    c = np.sqrt(n * (n + 1.0)) * kappa  # F' = 4 kappa/(r c^2) with c = kappa
    assert np.allclose(al._fisher_marginal(1.0, n)[0] * c, 4.0, rtol=1e-15, atol=0.0)


def test_squeezed_variances_are_exact_to_rounding():
    # Against (sqrt(N+1) -+ sqrt(N))^2/4 to 50 digits: neither variance forms a difference
    # of nearly equal numbers, so both stay within a few ulp at every budget.
    rng = np.random.default_rng(np.random.SeedSequence(2023))
    budgets = [0.0, 1e-300, 1e-8, 1.0, 1e4, 1e20, *10.0 ** rng.uniform(-8.0, 20.0, 2000)]
    eps = decimal.Decimal(np.finfo(float).eps)
    with decimal.localcontext(decimal.Context(prec=50)):
        for n in budgets:
            root, root_next = decimal.Decimal(n).sqrt(), (decimal.Decimal(n) + 1).sqrt()
            want = ((root_next - root) ** 2 / 4, (root_next + root) ** 2 / 4)
            got = al.squeezed_variances(n, "x")
            assert al.squeezed_variances(n, "p") == got[::-1]
            for value, exact in zip(got, want):
                assert abs(decimal.Decimal(float(value)) - exact) <= 4 * eps * exact, n


@pytest.mark.parametrize("eta", [5e-324, 1e-310, np.nextafter(al.TINY, 0.0)])
def test_network_refuses_a_subnormal_transmissivity(eta):
    # w^2 eta would underflow; the smallest normal float64 itself is accepted.
    with pytest.raises(ValueError,
                       match=r"transmissivities must lie in \[2\.2250738585072014e-308, 1\]"):
        al.WeightedNetwork(2, None, [eta, eta], 10.0)
    al.WeightedNetwork(2, None, [al.TINY, al.TINY], 10.0)


@pytest.mark.parametrize("m", [2, 3, 5, 40])
def test_allocation_at_the_smallest_normal_transmissivity(m):
    # w^2 eta is subnormal for M >= 3 here; the gains are formed from eta scaled first,
    # so the even split answers, with no overflow in the scale.
    result = al.allocate_photons_product(uniform_net(m, 10.0, al.TINY))
    np.testing.assert_allclose(result.photons, 10.0 / m, rtol=1e-12)
    assert result.objective == pytest.approx(0.5 / np.sqrt(m), rel=1e-12)


@pytest.mark.parametrize("n_s", [1e4, 1e6])
def test_allocation_residual_holds_for_the_returned_photons(n_s):
    # The Lagrange level falls like 1/N_S^2, so only a relative bisection
    # width keeps the returned photons at the equal-marginal point.
    w, etas = np.array([0.7, 0.3]), np.array([0.9, 0.3])
    result = al.allocate_photons_product(al.WeightedNetwork(2, w, etas, n_s))
    n = result.photons
    # -kappa'(n) with kappa = 1/(2n + 1 + 2 sqrt(n(n+1))), the expanded form.
    root = np.sqrt(n * (n + 1.0))
    marginal = w**2 * etas / ((2.0 * n + 1.0 + 2.0 * root) * root)
    spread = (marginal.max() - marginal.min()) / marginal.max()
    assert spread <= al.KKT_TOL
    # The two routes round apart at the 1e-16 level; an absolute stop left 1e-8.
    assert spread <= result.kkt_residual + 1e-14


def _spread(values):
    return (values.max() - values.min()) / values.max()


@pytest.mark.parametrize("m", [1, 2, 7, 128])
def test_joint_optimum_random_networks(m):
    rng = np.random.default_rng(np.random.SeedSequence([2026, m]))
    for _ in range(12 if m > 2 else 40):
        etas = np.exp(rng.uniform(np.log(1e-3), 0.0, size=m))
        etas[rng.random(m) < 0.1] = 1.0
        n_s = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e6))))
        weights, result = al.optimal_weights_product(etas, n_s)
        n = result.photons
        assert n.sum() == pytest.approx(n_s, rel=1e-14, abs=0.0)
        assert result.kkt_residual <= al.KKT_TOL
        # At w proportional to F the fixed-weight marginals w^2 eta (-kappa')
        # are proportional to F', so they certify the same stationarity.
        assert _spread(weights**2 * etas * -al._inv_scale_deriv(n)) <= al.KKT_TOL
        fisher = np.array([fisher_max(n_m, eta)[0] for n_m, eta in zip(n, etas)])
        assert np.abs(weights - fisher / fisher.sum()).max() <= 1e-12
        assert result.objective == 1.0 / np.sqrt(fisher.sum())
        if m == 2:
            # 200 x 200 (weight, split) grid, evaluated in one batch.
            w1 = np.linspace(0.01, 0.99, 200)[:, None]
            n1 = np.linspace(1e-4, 1.0 - 1e-4, 200)[None, :] * n_s
            grid = 0.5 * np.sqrt(w1**2 * al.noise_kernel(etas[0], n1)
                                 + (1.0 - w1) ** 2 * al.noise_kernel(etas[1], n_s - n1))
            assert result.objective <= grid.min()


def test_joint_optimum_fisher_is_concave():
    # 4/noise_kernel is strictly concave in n: the log-log slope of its
    # derivative is negative, and every chord lies below it.  The derivative
    # and the slope from _fisher_marginal match finite differences.
    rng = np.random.default_rng(np.random.SeedSequence(77))
    n = np.geomspace(1e-8, 1e6, 400)
    for eta in np.concatenate([[1e-3, 1.0], np.exp(rng.uniform(np.log(1e-3), 0.0, 8))]):
        fisher = 4.0 / al.noise_kernel(eta, n)
        deriv, slope = al._fisher_marginal(eta, n)
        assert np.all(slope < 0.0)
        # Central differences, where the kernel's round-off moves them by < 1e-4.
        fd = (n >= 1e-3) & (n <= 1e3)
        h = 1e-5 * n[fd]
        numeric = (4.0 / al.noise_kernel(eta, n[fd] + h)
                   - 4.0 / al.noise_kernel(eta, n[fd] - h)) / (2 * h)
        assert np.allclose(numeric, deriv[fd], rtol=1e-4, atol=0.0)
        log_deriv = np.log(al._fisher_marginal(eta, n[fd] * np.exp([[-1e-5], [1e-5]]))[0])
        assert np.allclose((log_deriv[1] - log_deriv[0]) / 2e-5, slope[fd], rtol=1e-5, atol=1e-6)
        for t in (0.25, 0.5, 0.75):
            a, b = n[:-40], n[40:]
            mid = 4.0 / al.noise_kernel(eta, t * a + (1 - t) * b)
            chord = t * fisher[:-40] + (1 - t) * fisher[40:]
            # Slack: the kernel's round-off, up to 4e-16 n relative at eta = 1.
            assert np.all(mid >= chord * (1.0 - 1e-9))


def test_joint_optimum_spot_network():
    # configs/weighted_m2.cfg against F_1'(n_1) = F_2'(4 - n_1) solved to 40
    # digits; alternating weight and allocation updates stopped 4.5e-8 short.
    etas = np.array([0.9, 0.3])
    weights, result = al.optimal_weights_product(etas, 4.0)
    assert result.photons[0] == pytest.approx(3.8639571809520973, rel=1e-13)
    assert weights[0] == pytest.approx(0.8478872255735120, abs=1e-14)
    assert result.objective == pytest.approx(0.17933844572255579, rel=1e-15)
    assert result.kkt_residual <= 1e-14
    assert result.iterations < al.MAX_BISECTIONS


def test_allocation_with_an_underflowing_share():
    # A weight of 1e-100 is active (w^2 eta > 0), but its share underflows
    # to zero photons; the residual is taken over the other nodes.
    net = al.WeightedNetwork(3, np.array([0.5, 0.5, 1e-100]), np.array([0.9, 0.5, 0.9]), 4.0)
    result = al.allocate_photons_product(net)
    assert result.photons[2] == 0.0
    assert result.photons.sum() == pytest.approx(4.0, rel=1e-15)
    assert result.kkt_residual <= al.KKT_TOL


@pytest.mark.parametrize("n_s", [-1.0, np.nan, np.inf])
def test_optimal_weights_product_rejects_bad_budget(n_s):
    with pytest.raises(ValueError, match="photon budget"):
        al.optimal_weights_product(np.array([0.9, 0.3]), n_s)


@pytest.mark.parametrize("etas, n_s", [
    ((1e-300, 1.0), 10.0), ((1e-8, 1.0), 1e-300), ((0.5, 1e-12), 1e-300),
    ((1e-300, 1e-300), 1e20), ((1e-12, 0.5), 1e20), ((0.3, 0.9), 1e150), ((1.0, 1.0), 1e150),
])
def test_optima_with_tiny_eta_or_extreme_budgets_meet_a_grid(etas, n_s):
    # A node with eta -> 0 measures through vacuum noise alone: F -> 4, about 0 photons,
    # weight proportional to 4. Both optimizers must answer, and match an M = 2 grid
    # whose split fractions reach 1e-300 from either end.
    etas = np.array(etas)
    t = np.concatenate([np.linspace(0.0, 1.0, 20001), np.logspace(-300, -1, 600),
                        1.0 - np.logspace(-17, -1, 600)])
    kernels = al.noise_kernel(etas[0], t * n_s), al.noise_kernel(etas[1], (1 - t) * n_s)
    weights, joint = al.optimal_weights_product(etas, n_s)
    assert joint.objective == pytest.approx(1.0 / np.sqrt((4.0 / kernels[0] + 4.0 / kernels[1])
                                                          .max()), rel=1e-12)
    fisher = 4.0 / al.noise_kernel(etas, joint.photons)
    assert np.allclose(weights, fisher / fisher.sum(), rtol=1e-15, atol=0.0)
    fixed = al.allocate_photons_product(al.WeightedNetwork(2, None, etas, n_s))
    assert fixed.objective == pytest.approx(0.25 * np.sqrt((kernels[0] + kernels[1]).min()),
                                            rel=1e-12)
    for result in (joint, fixed):
        assert result.kkt_residual <= al.KKT_TOL
        assert result.photons.sum() == pytest.approx(n_s, rel=1e-14)
        for eta, photons, f in zip(etas, result.photons, fisher):
            if eta <= 1e-8 < etas.max():  # the vacuum limit beside a live node
                assert photons <= 1e-5 * n_s
                assert f == pytest.approx(4.0, rel=1e-7)
