"""Quantum Fisher information for displacement sensing with Gaussian states.

Closed-form single-mode Gaussian fidelity, the fidelity-limit numerical
Fisher information with Richardson extrapolation, the closed-form Fisher
information of squeezed thermal states under loss, its maximum at a
photon budget, and the separable-state Cramer-Rao bound.

The squeeze parameter here (r) is defined through the covariance
Diag[(2n+1)exp(-r)/4, (2n+1)exp(r)/4]; it is TWICE the r of the Fock
oracle's squeezing exp(r (a^2 - a^dag^2)/2) (fock._squeezed_thermal_form),
for which Var(x) = exp(-2r)/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import _check_budget, _check_etas, noise_kernel
from .gaussian import GaussianState
from .protocols import product_rms_error

PURITY_CLAMP = 1e-12
EPSILONS = (1e-2, 5e-3, 2.5e-3)


@dataclass(frozen=True, eq=False)
class SqueezedThermalParams:
    """Rotated squeezed thermal state: squeeze r >= 0, thermal n >= 0, angle theta, all finite."""

    r: float = 0.0
    n: float = 0.0
    theta: float = 0.0
    mean: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        if not (0.0 <= self.r < math.inf and 0.0 <= self.n < math.inf):  # nan fails this too
            raise ValueError("squeeze and thermal parameters must be finite and nonnegative")
        if not math.isfinite(self.theta):
            raise ValueError("angle theta must be finite")
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (2,):
            raise ValueError("mean must be a 2-vector")
        object.__setattr__(self, "mean", mean)
        self.mean.setflags(write=False)

    def covariance(self):
        xx, xp, pp, _ = _covariance_entries(self, 1.0)
        return np.array([[xx, xp], [xp, pp]])

    def to_state(self):
        return GaussianState(self.mean, self.covariance())

    def mean_photon_number(self):
        """|mean|^2 + tr V - 1/2, as GaussianState.mean_photon_number counts it."""
        xx, _, pp, _ = _covariance_entries(self, 1.0)
        return float(self.mean @ self.mean + xx + pp - 0.5)


def _covariance_entries(params, eta):
    """(xx, xp, pp, det) of eta V + (1 - eta) I/4, V the params' covariance, in floats.

    V = R diag(lo, hi) R^T with R = [[c, s], [-s, c]] at theta, lo = (2n + 1) exp(-r)/4 and
    hi = (2n + 1) exp(r)/4, so the lossy covariance is R diag(l, h) R^T with l = eta lo +
    (1 - eta)/4 and h likewise, and det = l h, free of the cancellation in xx pp - xp^2.
    At eta = 1 the entries are V's. Raises ValueError when an entry or det leaves float64.
    """
    c, s = math.cos(params.theta), math.sin(params.theta)
    nu = 2.0 * params.n + 1.0
    try:
        grow = math.exp(params.r)
    except OverflowError:  # r past log(float64 max); the check below refuses it
        grow = math.inf
    lo, hi = nu * math.exp(-params.r) / 4.0, nu * grow / 4.0
    noise = (1.0 - eta) / 4.0
    xx = eta * ((c * lo) * c + (s * hi) * s) + noise
    xp = eta * ((s * hi) * c - (c * lo) * s)
    pp = eta * ((s * lo) * s + (c * hi) * c) + noise
    det = (eta * lo + noise) * (eta * hi + noise)
    if not (xx < math.inf and pp < math.inf and det < math.inf):  # nan fails this too
        raise ValueError(f"covariance at r = {params.r:g}, n = {params.n:g} overflows float64")
    return xx, xp, pp, det


def lossy_state(params, eta):
    """State after a transmissivity-eta channel."""
    _check_etas(eta)
    xx, xp, pp, _ = _covariance_entries(params, eta)
    return GaussianState(math.sqrt(eta) * params.mean, np.array([[xx, xp], [xp, pp]]))


def gaussian_fidelity(a, b):
    """Closed-form Uhlmann fidelity of two single-mode Gaussian states."""
    if a.num_modes != 1 or b.num_modes != 1:
        raise ValueError("closed-form fidelity handles single-mode states only")
    return _fidelities(a.mean.tolist(), a.cov, [b.mean.tolist()], b.cov)[0]


def _fidelities(mean_a, cov_a, means_b, cov_b):
    """gaussian_fidelity of (mean_a, cov_a) against (mean_b, cov_b) for each of means_b.

    Means are (x, p) pairs of floats, and the 2x2 algebra is done in floats. The terms that
    depend on the covariances alone are formed once: the determinants, the purity clamp
    and the denominator. Each mean's quadratic form du^T (V_a + V_b)^-1 du takes the
    adjugate over the determinant, so every value has the bits of a call with that mean alone.
    """
    (a_xx, a_xp), (_, a_pp) = cov_a.tolist()
    (b_xx, b_xp), (_, b_pp) = cov_b.tolist()
    s_xx, s_xp, s_pp = a_xx + b_xx, a_xp + b_xp, a_pp + b_pp
    det_sum = s_xx * s_pp - s_xp * s_xp
    big = 4.0 * det_sum
    det_a, det_b = a_xx * a_pp - a_xp * a_xp, b_xx * b_pp - b_xp * b_xp
    small = (16.0 * det_a - 1.0) * (16.0 * det_b - 1.0) / 4.0
    if not (small >= 0.0):
        # Pure states sit exactly on this branch point; clamp roundoff.
        if not (small >= -PURITY_CLAMP):
            raise ValueError("covariance violates the purity bound")
        small = 0.0
    denominator = math.sqrt(big + small) - math.sqrt(small)
    fids = []
    for x_b, p_b in means_b:
        dx, dp = x_b - mean_a[0], p_b - mean_a[1]
        form = (dx * dx * s_pp - 2.0 * dx * dp * s_xp + dp * dp * s_xx) / det_sum
        fids.append(min(math.exp(-0.5 * form) / denominator, 1.0))
    return fids


def _richardson(values, steps):
    """Neville extrapolation to step 0 assuming an error series in step^2."""
    t = [float(step) ** 2 for step in steps]
    table = list(map(float, values))
    k = len(table)
    for j in range(1, k):
        for i in range(k - j):
            table[i] = table[i + 1] + (table[i + 1] - table[i]) * t[i + j] / (
                t[i] - t[i + j]
            )
    return table[0]


def fisher_numeric(params, eta):
    """Fisher information from the fidelity decay, lim 8(1 - sqrt F)/eps^2.

    Evaluated through the fidelity at each of EPSILONS and Richardson
    extrapolated; small steps are avoided because the quotient cancels
    catastrophically below ~1e-5 in double precision.
    """
    base = lossy_state(params, eta)
    # The shifted states share base's validated covariance and differ from its
    # mean by [e, 0], so no state is built for them and one call serves all three.
    mean_x, mean_p = base.mean.tolist()
    fids = _fidelities((mean_x, mean_p), base.cov, [(mean_x + e, mean_p) for e in EPSILONS],
                       base.cov)
    quotients = [8.0 * (1.0 - math.sqrt(fid)) / e**2 for fid, e in zip(fids, EPSILONS)]
    # Two successive differences of opposite sign, each above 1e-9 of the first quotient.
    floor = 1e-9 * abs(quotients[0])
    diffs = [after - before for before, after in zip(quotients, quotients[1:])]
    if any(d0 * d1 < 0 and abs(d0) > floor and abs(d1) > floor
           for d0, d1 in zip(diffs, diffs[1:])):
        raise RuntimeError("fidelity quotient did not converge monotonically")
    return _richardson(quotients, EPSILONS)


def fisher_closed_form(params, eta):
    """Fisher information of a lossy squeezed thermal state for an x displacement.

    (V^-1)_xx = V_pp / det V of lossy_state's covariance V, from its float entries; no
    state is built. Independent of the mean (displacement covariance).
    """
    _check_etas(eta)
    _, _, pp, det = _covariance_entries(params, eta)
    fisher = pp / det
    if not fisher < math.inf:  # 4 exp(r) at theta = 0: past r ~ 708
        raise ValueError(f"Fisher information at r = {params.r:g} overflows float64")
    return float(fisher)


def fisher_max(n_photons, eta):
    """Maximum Fisher information at a photon budget, with its argmax.

    The optimum is an undisplaced, unrotated, zero-temperature squeezed
    state using the whole budget: r = arccosh(2N+1).
    """
    _check_budget(n_photons)
    _check_etas(eta)
    value = 4.0 / noise_kernel(eta, n_photons)
    argmax = SqueezedThermalParams(r=float(np.arccosh(2.0 * n_photons + 1.0)))
    return float(value), argmax


def cr_bound_separable(num_nodes, total_photons, eta):
    """Quantum Cramer-Rao bound over Gaussian separable inputs.

    Fisher information is additive over product states and concave in the
    per-node budget, so the equal split N/M is optimal; the bound
    coincides algebraically with the product-scheme rms error.
    """
    return float(product_rms_error(num_nodes, total_photons, eta))
