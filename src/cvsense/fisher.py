"""Quantum Fisher information for displacement sensing with Gaussian states.

Closed-form single-mode Gaussian fidelity, the fidelity-limit numerical
Fisher information with Richardson extrapolation, the closed-form Fisher
information of squeezed thermal states under loss, its maximum at a
photon budget, and the separable-state Cramer-Rao bound.

The squeeze parameter here (r) is defined through the covariance
Diag[(2n+1)exp(-r)/4, (2n+1)exp(r)/4]; it is TWICE the r of
fock.squeeze_operator, for which Var(x) = exp(-2r)/4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allocation import _check_budget, _check_etas, noise_kernel
from .gaussian import GaussianState
from .protocols import product_rms_error

PURITY_CLAMP = 1e-12
EPSILONS = (1e-2, 5e-3, 2.5e-3)


@dataclass(frozen=True, eq=False)
class SqueezedThermalParams:
    """Rotated squeezed thermal state: squeeze r >= 0, thermal n >= 0, angle theta."""

    r: float = 0.0
    n: float = 0.0
    theta: float = 0.0
    mean: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        if not (self.r >= 0 and self.n >= 0):  # nan fails this too
            raise ValueError("squeeze and thermal parameters must be nonnegative")
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (2,):
            raise ValueError("mean must be a 2-vector")
        object.__setattr__(self, "mean", mean)
        self.mean.setflags(write=False)

    def covariance(self):
        c, s = np.cos(self.theta), np.sin(self.theta)
        rot = np.array([[c, s], [-s, c]])
        diag = np.diag(
            [(2 * self.n + 1) * np.exp(-self.r) / 4.0,
             (2 * self.n + 1) * np.exp(self.r) / 4.0]
        )
        return rot @ diag @ rot.T

    def to_state(self):
        return GaussianState(self.mean, self.covariance())

    def mean_photon_number(self):
        return float(
            self.mean @ self.mean
            + ((2 * self.n + 1) * np.cosh(self.r) - 1.0) / 2.0
        )


def lossy_state(params, eta):
    """State after a transmissivity-eta channel."""
    _check_etas(eta)
    mean = np.sqrt(eta) * params.mean
    cov = eta * params.covariance() + (1.0 - eta) * np.eye(2) / 4.0
    return GaussianState(mean, cov)


def gaussian_fidelity(a, b):
    """Closed-form Uhlmann fidelity of two single-mode Gaussian states."""
    if a.num_modes != 1 or b.num_modes != 1:
        raise ValueError("closed-form fidelity handles single-mode states only")
    return _fidelities(a.mean, a.cov, [b.mean], b.cov)[0]


def _fidelities(mean_a, cov_a, means_b, cov_b):
    """gaussian_fidelity of (mean_a, cov_a) against (mean_b, cov_b) for each of means_b.

    The terms that depend on the covariances alone are formed once; each mean keeps
    its own solve, so every value has the bits of a call with that mean alone.
    """
    vsum = cov_a + cov_b
    big = 4.0 * np.linalg.det(vsum)
    small = (16.0 * np.linalg.det(cov_a) - 1.0) * (16.0 * np.linalg.det(cov_b) - 1.0) / 4.0
    if not (small >= 0.0):
        # Pure states sit exactly on this branch point; clamp roundoff.
        if not (small >= -PURITY_CLAMP):
            raise ValueError("covariance violates the purity bound")
        small = 0.0
    denominator = np.sqrt(big + small) - np.sqrt(small)
    return [float(min(np.exp(-0.5 * du @ np.linalg.solve(vsum, du)) / denominator, 1.0))
            for du in (mean_b - mean_a for mean_b in means_b)]


def _richardson(values, steps):
    """Neville extrapolation to step 0 assuming an error series in step^2."""
    t = np.asarray(steps, dtype=float) ** 2
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
    shifted = [base.mean + np.array([e, 0.0]) for e in EPSILONS]
    fids = _fidelities(base.mean, base.cov, shifted, base.cov)
    quotients = [8.0 * (1.0 - np.sqrt(fid)) / e**2 for fid, e in zip(fids, EPSILONS)]
    diffs = np.diff(quotients)
    significant = np.abs(diffs) > 1e-9 * abs(quotients[0])
    if np.any((diffs[:-1] * diffs[1:] < 0) & significant[:-1] & significant[1:]):
        raise RuntimeError("fidelity quotient did not converge monotonically")
    return _richardson(quotients, EPSILONS)


def fisher_closed_form(params, eta):
    """Closed-form Fisher information of a lossy squeezed thermal state.

    Independent of the mean (displacement covariance).
    """
    _check_etas(eta)
    r, n, theta = params.r, params.n, params.theta
    er = np.exp(r)
    nu = 2.0 * n + 1.0
    num = 4.0 * (er * (1.0 - eta) + nu * eta * (er**2 * np.cos(theta) ** 2 + np.sin(theta) ** 2))
    den = (er * (1.0 - eta) + nu * eta) * (nu * eta * er + 1.0 - eta)
    return float(num / den)


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
