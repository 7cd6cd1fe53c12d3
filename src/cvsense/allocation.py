"""Weighted-sum sensing over heterogeneous networks, and the noise kernel.

Every closed-form rms in cvsense is weighted_rms, 1/2 sqrt(sum_m w_m^2
noise_kernel(eta_m, n_m)): n_m = N_S for the entangled scheme, the node's
own photons for the product scheme, whose split at fixed or at optimal
weights is one water-filling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHT_SUM_TOL = 1e-12
KKT_TOL = 1e-8
MAX_BISECTIONS = 200


def _check_etas(etas):
    # eta = 0 is excluded; model a dead node with weight 0 instead.
    if not np.all((etas > 0.0) & (etas <= 1.0)):
        raise ValueError("transmissivities must lie in (0, 1]")


def _check_budget(total_photons):
    if not 0 <= total_photons < np.inf:  # nan fails this too
        raise ValueError("photon budget must be finite and nonnegative")


@dataclass(frozen=True)
class WeightedNetwork:
    """M nodes with estimator weights, per-node transmissivities and a photon budget."""

    num_nodes: int
    weights: np.ndarray
    etas: np.ndarray
    total_photons: float

    def __post_init__(self):
        # Copies, so that freezing them leaves the caller's arrays writable.
        w = np.array(self.weights, dtype=float)
        etas = np.array(self.etas, dtype=float)
        if w.size != self.num_nodes or etas.size != self.num_nodes:
            raise ValueError("weights and etas must have length num_nodes")
        # Each test is written so that nan fails it: every comparison with nan is false.
        if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL):
            raise ValueError("weights must be nonnegative and sum to 1")
        _check_etas(etas)
        _check_budget(self.total_photons)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "etas", etas)
        self.weights.setflags(write=False)
        self.etas.setflags(write=False)


@dataclass
class AllocationResult:
    """Per-node photon numbers with the achieved rms error and KKT diagnostics."""

    photons: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int


def _inv_scale(n):
    """1/(sqrt(N+1)+sqrt(N))^2, the squeezed-noise factor; no cancellation at large N."""
    n = np.asarray(n, dtype=float)
    return 1.0 / (np.sqrt(n + 1.0) + np.sqrt(n)) ** 2


def _inv_scale_deriv(n):
    """d/dN of _inv_scale, -_inv_scale(N)/sqrt(N(N+1)); tends to -inf as N -> 0+."""
    n = np.asarray(n, dtype=float)
    return -_inv_scale(n) / np.sqrt(n * (n + 1.0))


def noise_kernel(etas, photons):
    """Per-node x-noise in vacuum units, eta kappa(n) + 1 - eta, of n squeezing photons."""
    etas = np.asarray(etas, dtype=float)
    return etas * _inv_scale(photons) + 1.0 - etas


def weighted_rms(weights, etas, photons):
    """rms error of the weighted estimator; photons is the squeezing per node or one scalar."""
    w = np.asarray(weights, dtype=float)
    return float(0.5 * np.sqrt(w**2 @ noise_kernel(etas, photons)))


def weighted_entangled_rms(net):
    """Closed-form rms error of the weighted entangled estimator."""
    return weighted_rms(net.weights, net.etas, net.total_photons)


def product_objective(net, photons):
    """rms error of the weighted product scheme at a given allocation."""
    return weighted_rms(net.weights, net.etas, photons)


def _photons_at_level(gain, level):
    """Closed-form inverse of the stationarity condition -gain * kappa'(n) = level.

    With s = sqrt(n+1) - sqrt(n), the marginal gain is 4 gain s^4/(1 - s^4),
    so s^4 = level/(4 gain + level) and sqrt(n) = (1 - s^2)/(2 s); 1 - s^2 is
    formed as (1 - s^4)/(1 + s^2) so that it does not cancel as s -> 1.
    """
    s2 = np.sqrt(level / (4.0 * gain + level))
    root_n = (4.0 * gain / (4.0 * gain + level)) / (1.0 + s2) / (2.0 * np.sqrt(s2))
    return root_n**2


def _level_search(marginal, node_photons, budget, size):
    """Bisect on the level at which node_photons (each node's inverse of its decreasing
    marginal(n), capped at the budget) spends the budget; return the shares and the count."""
    # Each node takes the whole budget at lo and at most an equal share at hi.
    lo, hi = marginal(budget).min(), marginal(budget / size).max()
    for it in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        # ">=": a capped node plus shares below its rounding sums to exactly
        # the budget over a range of levels; the optimum is at its top.
        lo, hi = (mid, hi) if node_photons(mid).sum() >= budget else (lo, mid)
        # Relative width: the level falls like 1/N_S^2, far below 1.
        if hi - lo <= 1e-14 * hi:
            break
    return node_photons(0.5 * (lo + hi)), it + 1


def allocate_photons_product(net):
    """Optimal photon split for the product scheme at fixed weights: every node with
    w_m^2 eta_m > 0 gets photons (its marginal diverges at zero), in closed form per level."""
    if net.total_photons <= 0:
        raise ValueError("photon budget must be positive")
    gain = net.weights**2 * net.etas  # coefficient of the N-dependent term
    active = gain > 0.0  # never empty: the weights sum to 1
    gain, budget = gain[active], net.total_photons
    shares, iterations = _level_search(
        lambda n: -gain * _inv_scale_deriv(n),
        lambda level: np.minimum(_photons_at_level(gain, level), budget), budget, gain.size)
    shares *= budget / shares.sum()  # repair the slack: the budget holds exactly
    positive = shares > 0  # a share that underflowed to zero has an infinite marginal
    marginals = -gain[positive] * _inv_scale_deriv(shares[positive])
    residual = float((marginals.max() - marginals.min()) / marginals.max())
    photons = np.zeros(net.num_nodes)
    photons[active] = shares
    return AllocationResult(photons, product_objective(net, photons), residual, iterations)


def optimal_weights_entangled(etas, total_photons):
    """Weights minimizing the entangled rms at a common displacement.

    The quadratic-over-simplex minimum is w_m proportional to 1/c_m with
    c_m the per-node noise coefficient (all positive, so feasible as is).
    """
    etas = np.asarray(etas, dtype=float)
    _check_etas(etas)
    _check_budget(total_photons)
    inv = 1.0 / noise_kernel(etas, total_photons)
    return inv / inv.sum()


def _fisher_marginal(etas, n):
    """F' = 4 eta kappa/(r c^2) of the node Fisher information F = 4/c (c = noise_kernel,
    r = sqrt(n(n+1))) and d log F'/d log n = -(n/r) [2(1 - eta)/c + 1/(4r(r + n + 1/2))] < 0."""
    root, kappa = np.sqrt(n * (n + 1.0)), _inv_scale(n)
    c = etas * kappa + 1.0 - etas  # noise_kernel(etas, n), sharing kappa
    slope = -(n / root) * (2.0 * (1.0 - etas) / c + 0.25 / (root * (root + n + 0.5)))
    return 4.0 * etas * kappa / (root * c**2), slope


def optimal_weights_product(etas, total_photons):
    """Jointly optimized weights and photon split for the product scheme.

    At fixed photons the best weights are w_m proportional to the node Fisher
    information F_m = 4/c_m = fisher_max(n_m, eta_m), and rms^2 = 1/sum F_m; so the
    optimum maximizes the separable sum_m F_m(n_m) at sum_m n_m = N_S. Each F_m is
    strictly concave (d log F'/d log n < 0, see _fisher_marginal) with F'(0+) infinite,
    so it is one water-filling, F_m'(n_m) = level on every node, then w = F/sum F.
    """
    etas = np.asarray(etas, dtype=float)
    _check_etas(etas)
    if not 0 < total_photons < np.inf:  # nan fails this too
        raise ValueError("photon budget must be positive and finite")
    at_budget = _fisher_marginal(etas, total_photons)[0]
    x = slope = previous = None  # a Newton step from the previous level's roots seeds the next

    def node_photons(level):
        # F' = level is a quartic in kappa(n): Newton steps on log F' against log n, bisecting
        # [closed-form root of 4 eta (-kappa') = level <= F' (c <= 1), budget] when they leave it.
        nonlocal x, slope, previous
        capped = level <= at_budget
        lo, hi = np.log(_photons_at_level(4.0 * etas, level)), np.log(total_photons)
        x = lo if x is None else np.clip(x + np.log(level / previous) / slope, lo, hi)
        previous = level
        for _ in range(MAX_BISECTIONS):
            value, slope = _fisher_marginal(etas, np.exp(x))
            gap = np.log(value / level)  # > 0: n is below the root
            lo, hi = np.where(gap > 0, x, lo), np.where(gap > 0, hi, x)
            step = x - gap / slope
            # A converged root still takes its last step if that stays inside.
            done = capped | (np.abs(gap) <= 1e-13)
            x = np.where((lo < step) & (step < hi), step, np.where(done, x, 0.5 * (lo + hi)))
            if done.all():
                break
        return np.where(capped, total_photons, np.exp(x))

    photons, iterations = _level_search(
        lambda n: _fisher_marginal(etas, n)[0], node_photons, total_photons, etas.size)
    # Spend the slack moving every log F' by one t, n_m += t n_m/slope_m: a uniform
    # rescale would pass a flat (eta ~ 1) node's level error on to the steep ones.
    sensitivity = photons / _fisher_marginal(etas, photons)[1]
    photons += sensitivity * (total_photons - photons.sum()) / sensitivity.sum()
    fisher, marginals = 4.0 / noise_kernel(etas, photons), _fisher_marginal(etas, photons)[0]
    residual = float((marginals.max() - marginals.min()) / marginals.max())
    return fisher / fisher.sum(), AllocationResult(
        photons, float(1.0 / np.sqrt(fisher.sum())), residual, iterations)
