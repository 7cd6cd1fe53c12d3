"""Weighted-sum sensing over heterogeneous networks, and the noise kernel.

Every closed-form rms in cvsense is weighted_rms, 1/2 sqrt(sum_m w_m^2
noise_kernel(eta_m, n_m)): n_m = N_S for the entangled scheme, the node's
own photons for the product scheme.

Closed-form entangled performance, photon allocation for the product
scheme (water-filling: the per-node KKT condition inverts in closed form,
leaving one monotone bisection on the Lagrange level), and weight
optimization for both schemes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHT_SUM_TOL = 1e-12
KKT_TOL = 1e-8
MAX_BISECTIONS = 200
MAX_ALTERNATIONS = 500


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


def allocate_photons_product(net):
    """Optimal photon split for the product scheme by water-filling.

    Every node with w_m^2 eta_m > 0 receives photons (the marginal gain
    diverges at zero). Each node's share at a Lagrange level is closed form,
    capped at the budget, and the level is found by one vectorized
    bisection on the total.
    """
    if net.total_photons <= 0:
        raise ValueError("photon budget must be positive")
    m = net.num_nodes
    gain = net.weights**2 * net.etas  # coefficient of the N-dependent term
    active = gain > 0.0
    photons = np.zeros(m)
    if not np.any(active):
        return AllocationResult(photons, product_objective(net, photons), 0.0, 0)

    budget = net.total_photons
    gain = gain[active]

    def marginal(n):
        # -d/dN of each active objective term; strictly decreasing in N.
        return -gain * _inv_scale_deriv(n)

    def node_photons(level):
        return np.minimum(_photons_at_level(gain, level), budget)

    # Each node takes the whole budget at lo and at most an equal share at hi.
    lo = marginal(budget).min()
    hi = marginal(budget / gain.size).max()
    for it in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        # ">=": a capped node plus shares below its rounding sums to exactly
        # the budget over a range of levels; the optimum is at its top.
        if node_photons(mid).sum() >= budget:
            lo = mid
        else:
            hi = mid
        # Relative width: the level falls like 1/N_S^2, far below 1.
        if hi - lo <= 1e-14 * hi:
            break
    shares = node_photons(0.5 * (lo + hi))
    # Repair any bisection slack so the budget constraint holds exactly.
    shares *= budget / shares.sum()
    photons[active] = shares
    # Stationarity residual of the returned photons: the relative spread of
    # the marginal gains over strictly positive allocations.
    marginals = marginal(shares[shares > 0])
    residual = (marginals.max() - marginals.min()) / marginals.max()
    return AllocationResult(photons, product_objective(net, photons), float(residual), it + 1)


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


def optimal_weights_product(etas, total_photons, tol=1e-12):
    """Jointly optimized weights and photon split for the product scheme.

    Alternates the closed-form weight update with the water-filling
    allocation until the objective stalls.
    """
    etas = np.asarray(etas, dtype=float)
    m = etas.size
    weights = np.full(m, 1.0 / m)
    net = WeightedNetwork(m, weights, etas, total_photons)
    result = allocate_photons_product(net)
    best = result.objective
    for _ in range(MAX_ALTERNATIONS):
        inv = 1.0 / noise_kernel(etas, result.photons)
        weights = inv / inv.sum()
        net = WeightedNetwork(m, weights, etas, total_photons)
        result = allocate_photons_product(net)
        if best - result.objective < tol:
            break
        best = result.objective
    else:
        raise RuntimeError("weight/allocation alternation did not converge")
    return weights, result
