"""Reference values the benchmark computes itself, independently of cvsense.

Every op output is compared with these formulas, never with another cvsense
function. Conventions follow the package: vacuum quadrature variance 1/4,
x = Re(a), and the noise kernel of one node with transmissivity eta fed by a
squeezed mode of n photons is eta * kappa(n) + 1 - eta.
"""

from __future__ import annotations

import numpy as np

CLOSED_FORM_RTOL = 1e-9
MC_SIGMAS = 4.0
KKT_TOL = 1e-8
BUDGET_RTOL = 1e-9
WEIGHT_SUM_TOL = 1e-12
FOCK_FIDELITY_ATOL = 1e-6
GAUSSIAN_FIDELITY_ATOL = 1e-9
FISHER_NUMERIC_RTOL = 1e-4


class Mismatch(Exception):
    """An op returned an output that disagrees with the benchmark's reference.

    args[0] is a short fixed label naming the check, args[1] the detail.
    """


def expect_close(label, got, want, rtol=0.0, atol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    gap = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    if got.shape != want.shape or not np.all(gap <= limit):
        raise Mismatch(label, f"got {got}, want {want}")


def kappa(photons):
    """Squeezed-noise factor exp(-2r) = 1/(sqrt(n+1)+sqrt(n))^2, stable for large n."""
    n = np.asarray(photons, dtype=float)
    return 1.0 / (np.sqrt(n + 1.0) + np.sqrt(n)) ** 2


def rms(weights, etas, photons):
    """1/2 sqrt(sum_m w_m^2 (eta_m kappa(n_m) + 1 - eta_m)) for scalar or per-node n."""
    w = np.asarray(weights, dtype=float)
    etas = np.broadcast_to(np.asarray(etas, dtype=float), w.shape)
    return float(0.5 * np.sqrt(np.sum(w**2 * (etas * kappa(photons) + 1.0 - etas))))


def kkt_residual(weights, etas, photons):
    """Relative spread of the marginal gains w^2 eta (-kappa'(n)) over the nodes that use photons.

    Water-filling is optimal exactly when every node with w^2 eta > 0 has the
    same marginal gain; -kappa'(n) = kappa(n) / sqrt(n (n + 1)).
    """
    w = np.asarray(weights, dtype=float)
    n = np.asarray(photons, dtype=float)
    gain = w**2 * np.asarray(etas, dtype=float)
    active = gain > 0.0
    if np.any(n[active] <= 0.0):
        return float("inf")
    marginal = gain[active] * kappa(n[active]) / np.sqrt(n[active] * (n[active] + 1.0))
    return float((marginal.max() - marginal.min()) / marginal.max())


def squeezed_thermal_cov(r, nbar, theta):
    """Covariance R diag((2n+1) e^-r, (2n+1) e^r) R^T / 4, R the rotation by theta.

    r is the squeeze parameter of cvsense.fisher, twice the engine's.
    """
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, s], [-s, c]])
    nu = 2.0 * nbar + 1.0
    return rot @ np.diag([nu * np.exp(-r) / 4.0, nu * np.exp(r) / 4.0]) @ rot.T


def lossy_cov(cov, eta):
    return eta * np.asarray(cov) + (1.0 - eta) * np.eye(2) / 4.0


def fidelity(mean_a, cov_a, mean_b, cov_b):
    """Uhlmann fidelity of two single-mode Gaussian states.

    Written in the vacuum-variance-1/2 convention (cov -> 2 cov,
    mean -> sqrt(2) mean) as F = exp(-d^T S^-1 d / 2) / (sqrt(D + L) - sqrt(L)),
    S = A + B, D = det S, L = 4 (det A - 1/4)(det B - 1/4).
    """
    a = 2.0 * np.asarray(cov_a, dtype=float)
    b = 2.0 * np.asarray(cov_b, dtype=float)
    d = np.sqrt(2.0) * (np.asarray(mean_b, dtype=float) - np.asarray(mean_a, dtype=float))
    s = a + b
    big = np.linalg.det(s)
    small = max(0.0, 4.0 * (np.linalg.det(a) - 0.25) * (np.linalg.det(b) - 0.25))
    return float(np.exp(-0.5 * d @ np.linalg.solve(s, d)) / (np.sqrt(big + small) - np.sqrt(small)))


def displacement_fisher(cov):
    """Quantum Fisher information of an x-displacement: (V^-1)_xx with vacuum V = I/4."""
    return float(np.linalg.inv(cov)[0, 0])
