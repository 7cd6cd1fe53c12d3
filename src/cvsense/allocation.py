"""Weighted-sum sensing over heterogeneous networks, and the noise kernel.

Every closed-form rms in cvsense is weighted_rms, 1/2 sqrt(sum_m w_m^2
noise_kernel(eta_m, n_m)): n_m = N_S for the entangled scheme, the node's
own photons for the product scheme, whose split at fixed or at optimal
weights is one water-filling.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

WEIGHT_SUM_TOL = 1e-12
KKT_TOL = 1e-8
MAX_BISECTIONS = 200
TINY = sys.float_info.min  # the smallest normal float64


# Each check takes a scalar or an array; nan fails it, as every comparison with nan is false.
def _check_nodes(num_nodes):
    if not (np.asarray(num_nodes) >= 1).all():
        raise ValueError("number of nodes must be >= 1")


def _check_etas(etas):
    # eta = 0 is excluded (model a dead node with weight 0), and so is a subnormal eta,
    # whose w^2 eta underflows.
    etas = np.asarray(etas, dtype=float)
    if not ((etas >= TINY) & (etas <= 1.0)).all():
        raise ValueError(f"transmissivities must lie in [{TINY!r}, 1]")


def _check_budget(total_photons):
    photons = np.asarray(total_photons, dtype=float)
    if not ((photons >= 0.0) & (photons < np.inf)).all():
        raise ValueError("photon budget must be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class WeightedNetwork:
    """M nodes with estimator weights, per-node transmissivities and a photon budget.

    weights=None means uniform weights 1/M; a single transmissivity applies to every node.
    """

    num_nodes: int
    weights: np.ndarray | None
    etas: np.ndarray
    total_photons: float

    def __post_init__(self):
        _check_nodes(self.num_nodes)  # before 1/M is formed
        m = self.num_nodes
        # Copies, so that freezing them leaves the caller's arrays writable.
        w = np.full(m, 1.0 / m) if self.weights is None else np.array(self.weights, dtype=float)
        etas = np.array(self.etas, dtype=float)
        if etas.size == 1:
            etas = np.full(m, etas.item())
        if w.size != m or etas.size != m:
            raise ValueError("weights and etas must have length num_nodes")
        if not ((w >= 0.0).all() and abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL):  # nan fails too
            raise ValueError("weights must be nonnegative and sum to 1")
        _check_etas(etas)
        _check_budget(self.total_photons)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "etas", etas)
        self.weights.setflags(write=False)
        self.etas.setflags(write=False)


@dataclass(frozen=True, eq=False)
class AllocationResult:
    """Per-node photon numbers with the achieved rms error and KKT diagnostics."""

    photons: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int

    def __post_init__(self):
        self.photons.setflags(write=False)


def _inv_scale(n):
    """1/(sqrt(N+1)+sqrt(N))^2, the squeezed-noise factor; no cancellation at large N,
    and the reciprocal is squared, so it underflows gracefully rather than overflow."""
    n = np.asarray(n, dtype=float)
    return (1.0 / (np.sqrt(n + 1.0) + np.sqrt(n))) ** 2


def squeezed_variances(n_photons, axis="x"):
    """(Var x, Var p) of a squeezed vacuum with mean photon number n_photons.

    axis selects the quadrature that carries the reduced noise _inv_scale(n)/4; the other
    carries (sqrt(n+1)+sqrt(n))^2/4. Both are exact to a few ulp at every n, as no
    difference of nearly equal numbers is formed.
    """
    if axis not in ("x", "p"):
        raise ValueError("axis must be 'x' or 'p'")
    _check_budget(n_photons)
    lo = _inv_scale(n_photons) / 4.0
    hi = (np.sqrt(n_photons + 1.0) + np.sqrt(n_photons)) ** 2 / 4.0
    return (lo, hi) if axis == "x" else (hi, lo)


def _inv_scale_deriv(n):
    """d/dN of _inv_scale, -_inv_scale(N)/sqrt(N(N+1)); tends to -inf as N -> 0+."""
    n = np.asarray(n, dtype=float)
    return -_inv_scale(n) / np.sqrt(n * (n + 1.0))


def noise_kernel(etas, photons):
    """Per-node x-noise in vacuum units, eta kappa(n) + 1 - eta, of n squeezing photons."""
    etas = np.asarray(etas, dtype=float)
    return (1.0 - etas) + etas * _inv_scale(photons)  # 1 - eta first: kappa itself at eta = 1


def weighted_rms(weights, etas, photons):
    """rms error of the weighted estimator; photons is the squeezing per node or one scalar."""
    w = np.asarray(weights, dtype=float)
    return float(0.5 * np.sqrt(w**2 @ noise_kernel(etas, photons)))


def weighted_entangled_rms(net):
    """Closed-form rms error of the weighted entangled estimator."""
    return weighted_rms(net.weights, net.etas, net.total_photons)


def _unit_scale(values):
    """The power of two that puts the largest of values in [0.5, 1).

    Multiplying an optimizer's gains by it is exact in float64, so its level search runs
    on the same bits, only scaled, and the gains of nodes with tiny eta do not underflow.
    """
    return np.ldexp(1.0, -int(np.frexp(np.max(values))[1]))


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
    marginal(n), capped at the budget) spends the budget; return the shares and the count.

    Raises RuntimeError when MAX_BISECTIONS do not narrow the level to its tolerance."""
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
    else:
        raise RuntimeError(f"the level search did not converge in {MAX_BISECTIONS} bisections")
    return node_photons(0.5 * (lo + hi)), it + 1


def _kkt_residual(marginals):
    """Relative spread of the nodes' marginal gains; RuntimeError above KKT_TOL."""
    residual = float((marginals.max() - marginals.min()) / marginals.max())
    if not residual <= KKT_TOL:  # nan fails this too
        raise RuntimeError(f"KKT residual {residual:.3g} exceeds the tolerance {KKT_TOL:g}")
    return residual


def _in_float64_range(optimizer):
    """Raise RuntimeError where the optimizer would overflow, divide by zero or make a nan.

    A budget past ~1e154 photons overflows N(N+1): no result is returned. (A node with
    eta -> 0 is not refused: it takes its vacuum limit.)
    """
    @functools.wraps(optimizer)
    def checked(*args, **kwargs):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return optimizer(*args, **kwargs)
        except FloatingPointError as exc:
            raise RuntimeError(f"{optimizer.__name__} left the float64 range: {exc}") from None
    return checked


@_in_float64_range
def allocate_photons_product(net):
    """Optimal photon split for the product scheme at fixed weights: every node with
    w_m^2 eta_m > 0 gets photons (its marginal diverges at zero), in closed form per level.
    A zero budget leaves every node in vacuum, and so does one whose even split is below
    the normal float64 range: kappa(n) is 1 to rounding for n below 1e-32."""
    if net.total_photons / net.num_nodes < TINY:
        photons = np.zeros(net.num_nodes)
        return AllocationResult(photons, weighted_rms(net.weights, net.etas, photons), 0.0, 0)
    # w^2 eta, the N-dependent term's coefficient, from eta scaled first (exact: a power
    # of two) so that it is not subnormal when every eta is tiny.
    gain = net.weights**2 * (net.etas * _unit_scale(net.etas))
    active = gain > 0.0  # never empty: the weights sum to 1
    gain, budget = gain[active], net.total_photons
    gain = gain * _unit_scale(gain)
    shares, iterations = _level_search(
        lambda n: -gain * _inv_scale_deriv(n),
        lambda level: np.minimum(_photons_at_level(gain, level), budget), budget, gain.size)
    shares *= budget / shares.sum()  # repair the slack: the budget holds exactly
    # A share below the normal float64 range (a node with eta or w near 0) has lost its
    # relative precision, or underflowed to zero with an infinite marginal: the eta -> 0
    # limit, about 0 photons. The KKT residual is taken over the resolved shares.
    resolved = shares >= TINY
    residual = _kkt_residual(-gain[resolved] * _inv_scale_deriv(shares[resolved]))
    photons = np.zeros(net.num_nodes)
    photons[active] = shares
    return AllocationResult(photons, weighted_rms(net.weights, net.etas, photons), residual,
                            iterations)


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


def _fisher_marginal(etas, n, scale=1.0):
    """F' = 4 eta kappa/(r c^2) of the node Fisher information F = 4/c (c = noise_kernel,
    r = sqrt(n(n+1))), times scale, and d log F'/d log n = -(n/r) [2(1 - eta)/c +
    1/(4r(r + n + 1/2))] < 0. A power-of-two scale (_unit_scale) keeps F' of tiny etas in range."""
    root, kappa = np.sqrt(n * (n + 1.0)), _inv_scale(n)
    c = (1.0 - etas) + etas * kappa  # noise_kernel(etas, n), sharing kappa
    slope = -(n / root) * (2.0 * (1.0 - etas) / c + 0.25 / (root * (root + n + 0.5)))
    return scale * 4.0 * etas * kappa / (root * c**2), slope


@_in_float64_range
def optimal_weights_product(etas, total_photons):
    """Jointly optimized weights and photon split for the product scheme.

    At fixed photons the best weights are w_m proportional to the node Fisher
    information F_m = 4/c_m = fisher_max(n_m, eta_m), and rms^2 = 1/sum F_m; so the
    optimum maximizes the separable sum_m F_m(n_m) at sum_m n_m = N_S. Each F_m is
    strictly concave (d log F'/d log n < 0, see _fisher_marginal) with F'(0+) infinite,
    so it is one water-filling, F_m'(n_m) = level on every node, then w = F/sum F.
    A zero budget leaves every node in vacuum, F_m = 4: uniform weights (as does one
    whose even split is below the normal float64 range). A node whose F' is below the
    level even at the smallest normal share (eta -> 0) takes 0 photons, F_m = 4: the
    limit where it measures through vacuum noise alone.
    """
    etas = np.asarray(etas, dtype=float)
    _check_etas(etas)
    _check_budget(total_photons)
    if total_photons / etas.size < TINY:
        weights, photons = np.full(etas.size, 1.0 / etas.size), np.zeros(etas.size)
        return weights, AllocationResult(photons, weighted_rms(weights, etas, photons), 0.0, 0)
    scale = _unit_scale(etas)  # F' and the level carry it
    at_budget = _fisher_marginal(etas, total_photons, scale)[0]
    at_floor = _fisher_marginal(etas, TINY, scale)[0]
    x = slope = previous = None  # a Newton step from the previous level's roots seeds the next

    def node_photons(level):
        # F' = level is a quartic in kappa(n): Newton steps on log F' against log n, bisecting
        # [closed-form root of 4 eta (-kappa') = level <= F' (c <= 1), budget] when they leave it.
        nonlocal x, slope, previous
        capped, floored = level <= at_budget, level > at_floor
        lo = np.log(np.maximum(_photons_at_level(4.0 * scale * etas, level), TINY))
        hi = np.log(total_photons)
        x = lo if x is None else np.clip(x + np.log(level / previous) / slope, lo, hi)
        previous = level
        for _ in range(MAX_BISECTIONS):
            value, slope = _fisher_marginal(etas, np.exp(x), scale)
            gap = np.log(value / level)  # > 0: n is below the root
            lo, hi = np.where(gap > 0, x, lo), np.where(gap > 0, hi, x)
            step = x - gap / slope
            # A converged root still takes its last step if that stays inside.
            done = capped | floored | (np.abs(gap) <= 1e-13)
            x = np.where((lo < step) & (step < hi), step, np.where(done, x, 0.5 * (lo + hi)))
            if done.all():
                break
        return np.where(capped, total_photons, np.where(floored, 0.0, np.exp(x)))

    photons, iterations = _level_search(
        lambda n: _fisher_marginal(etas, n, scale)[0], node_photons, total_photons, etas.size)
    live = photons > 0.0  # a floored node keeps its 0 photons and is no KKT term
    # Spend the slack moving every log F' by one t, n_m += t n_m/slope_m: a uniform
    # rescale would pass a flat (eta ~ 1) node's level error on to the steep ones.
    # n/slope grows like n^3 at eta = 1: power-of-two scales (exact) keep it, and its
    # product with the slack, in range.
    sensitivity = photons[live] * _unit_scale(photons) / _fisher_marginal(etas[live],
                                                                          photons[live])[1]
    sensitivity *= _unit_scale(-sensitivity)
    photons[live] += sensitivity * (total_photons - photons.sum()) / sensitivity.sum()
    fisher = 4.0 / noise_kernel(etas, photons)
    residual = _kkt_residual(_fisher_marginal(etas[live], photons[live], scale)[0])
    return fisher / fisher.sum(), AllocationResult(
        photons, float(1.0 / np.sqrt(fisher.sum())), residual, iterations)
