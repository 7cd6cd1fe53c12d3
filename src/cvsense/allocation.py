"""Weighted-sum sensing over heterogeneous networks.

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


@dataclass(frozen=True)
class WeightedNetwork:
    """M nodes with estimator weights, per-node transmissivities and a photon budget."""

    num_nodes: int
    weights: np.ndarray
    etas: np.ndarray
    total_photons: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        etas = np.asarray(self.etas, dtype=float)
        if w.size != self.num_nodes or etas.size != self.num_nodes:
            raise ValueError("weights and etas must have length num_nodes")
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must be nonnegative and sum to 1")
        # eta = 0 is excluded; model a dead node with weight 0 instead.
        if np.any(etas <= 0.0) or np.any(etas > 1.0):
            raise ValueError("transmissivities must lie in (0, 1]")
        if self.total_photons < 0:
            raise ValueError("photon budget must be nonnegative")
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


def weighted_entangled_rms(net):
    """Closed-form rms error of the weighted entangled estimator."""
    w2 = net.weights**2
    terms = net.etas * _inv_scale(net.total_photons) + 1.0 - net.etas
    return float(0.5 * np.sqrt(w2 @ terms))


def product_objective(net, photons):
    """rms error of the weighted product scheme at a given allocation."""
    photons = np.asarray(photons, dtype=float)
    terms = net.etas * _inv_scale(photons) + 1.0 - net.etas
    return float(0.5 * np.sqrt(net.weights**2 @ terms))


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
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    level = 0.5 * (lo + hi)
    shares = node_photons(level)
    # Stationarity residual over strictly positive allocations.
    positive = shares > 0
    residual = np.max(np.abs(marginal(shares)[positive] - level)) / level
    # Repair any bisection slack so the budget constraint holds exactly.
    photons[active] = shares * (budget / shares.sum())
    return AllocationResult(photons, product_objective(net, photons), float(residual), it + 1)


def optimal_weights_entangled(etas, total_photons):
    """Weights minimizing the entangled rms at a common displacement.

    The quadratic-over-simplex minimum is w_m proportional to 1/c_m with
    c_m the per-node noise coefficient (all positive, so feasible as is).
    """
    etas = np.asarray(etas, dtype=float)
    if np.any(etas <= 0.0) or np.any(etas > 1.0):
        raise ValueError("transmissivities must lie in (0, 1]")
    coeffs = etas * _inv_scale(total_photons) + 1.0 - etas
    inv = 1.0 / coeffs
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
        coeffs = etas * _inv_scale(result.photons) + 1.0 - etas
        inv = 1.0 / coeffs
        weights = inv / inv.sum()
        net = WeightedNetwork(m, weights, etas, total_photons)
        result = allocate_photons_product(net)
        if best - result.objective < tol:
            break
        best = result.objective
    else:
        raise RuntimeError("weight/allocation alternation did not converge")
    return weights, result
