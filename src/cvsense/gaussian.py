"""Gaussian-state engine for multimode quadrature optics: the dense test oracle.

Conventions: quadrature ordering is xxpp (all x's, then all p's), the
symplectic form is Omega = [[0, I], [-I, 0]], and the vacuum covariance
is I/4 (so x = Re(a), p = Im(a) and Var_vac(x) = 1/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import _check_etas, _check_nodes, squeezed_variances

SYMMETRY_RTOL = 1e-12
SYMPLECTIC_TOL = 1e-10
UNCERTAINTY_TOL = 1e-10


def _checked_covariance(cov, m):
    """Symmetrised cov, once it is finite, symmetric and obeys cov + (i/4) Omega >= 0.

    The principle is tested on T (cov + (i/4) Omega) T^H with T = diag(I, iI): for
    cov = [[X, C], [C^T, P]] that is [[X, I/4 - iC], [I/4 + iC^T, P]], unitarily similar
    and so with the same eigenvalues. It is real when the x-p block C is zero, as in every
    network state (diagonal inputs, real splitters, loss), and then is formed in the
    float64 buffer of the symmetry test; else in one complex buffer. A Cholesky factor of
    it plus UNCERTAINTY_TOL I exists when every eigenvalue exceeds -UNCERTAINTY_TOL, which
    settles almost every call; eigvalsh runs only when the factorization fails, to decide
    at round-off and report the eigenvalue. The caller's cov is only read.
    """
    n = 2 * m
    # Each tolerance test is written so that nan fails it; the largest entry is nan or inf
    # when any entry is. cov - cov^T is antisymmetric, so its largest entry is its largest
    # magnitude; it is formed only from finite entries, which cannot warn.
    largest = np.abs(cov).max()
    symmetric = False
    if math.isfinite(largest):
        herm = np.subtract(cov, cov.T)
        symmetric = herm.max() <= SYMMETRY_RTOL * max(1.0, largest)
    if not symmetric:
        raise ValueError("covariance matrix is not finite and symmetric")
    sym = cov + cov.T
    sym *= 0.5
    cross = sym[:m, m:]
    if cross.any():
        del herm  # returned before the complex buffer is taken
        herm = np.zeros((n, n), dtype=complex)
        herm.real[:m, :m] = sym[:m, :m]
        herm.real[m:, m:] = sym[m:, m:]
        np.negative(cross, out=herm.imag[:m, m:])
        herm.imag[m:, :m] = sym[m:, :m]
    else:
        np.copyto(herm, sym)
    # Views of the real part: the diagonals of the off-diagonal blocks, whose real part
    # is I/4 (C's entries are 0 there), and the main diagonal, shifted by the tolerance.
    flat = herm.real.reshape(-1)
    flat[m : n * m : n + 1] = flat[n * m :: n + 1] = 0.25
    diagonal = flat[:: n + 1]
    diagonal += UNCERTAINTY_TOL
    try:
        np.linalg.cholesky(herm)
        return sym
    except np.linalg.LinAlgError:
        diagonal[:] = sym.diagonal()  # the shift removed exactly
    min_eig = np.linalg.eigvalsh(herm).min()
    if not (min_eig >= -UNCERTAINTY_TOL):
        raise ValueError(f"covariance violates the uncertainty principle (min eig {min_eig:.3e})")
    return sym


@dataclass(frozen=True, eq=False)
class GaussianState:
    """M-mode Gaussian state: mean vector (length 2M) and covariance (2M x 2M).

    Construction copies both arrays and checks the uncertainty principle
    cov + (i/4) Omega >= 0 by a Cholesky factorization (_checked_covariance).
    """

    mean: np.ndarray
    cov: np.ndarray
    num_modes: int = field(init=False)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)  # a copy: the caller's stays writable
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise ValueError("mean must be a flat vector of even length")
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        m = mean.size // 2
        if cov.shape != (2 * m, 2 * m):
            raise ValueError("covariance shape does not match mean length")
        cov = _checked_covariance(cov, m)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "num_modes", m)
        self.mean.setflags(write=False)
        self.cov.setflags(write=False)

    # -- views ------------------------------------------------------------

    def mean_block(self, quadrature):
        m = self.num_modes
        return self.mean[:m] if quadrature == "x" else self.mean[m:]

    def cov_block(self, quadrature):
        m = self.num_modes
        if quadrature == "x":
            return self.cov[:m, :m]
        return self.cov[m:, m:]

    def mean_photon_number(self):
        """Total mean photon number, sum over modes of <x^2>+<p^2> - 1/2."""
        return float(np.trace(self.cov) + self.mean @ self.mean - self.num_modes / 2)


@dataclass(frozen=True, eq=False)
class SymplecticTransform:
    """Linear-optics/squeezing map: mean -> S mean, cov -> S cov S^T."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 != 0:
            raise ValueError("transform matrix must be square with even dimension")
        n = mat.shape[0]
        m = n // 2
        # S Omega S^T = P - P^T with P = S[:, :m] S[:, m:]^T; it must equal Omega. The gap
        # P - P^T - Omega is antisymmetric, so its largest entry is its largest magnitude.
        half = mat[:, :m] @ mat[:, m:].T
        gap = half - half.T
        flat = gap.reshape(-1)
        flat[m : n * m : n + 1] -= 1.0  # Omega's (i, m + i) entries
        flat[n * m :: n + 1] += 1.0  # and its (m + i, i) entries
        if not (gap.max() <= SYMPLECTIC_TOL):  # nan fails this too
            raise ValueError("matrix is not symplectic")
        object.__setattr__(self, "matrix", mat)
        self.matrix.setflags(write=False)

    @property
    def num_modes(self):
        return self.matrix.shape[0] // 2


@dataclass(frozen=True, eq=False)
class LossChannel:
    """Pure-loss channels with per-mode transmissivities in [2.2250738585072014e-308, 1]."""

    transmissivities: np.ndarray

    def __post_init__(self):
        etas = np.atleast_1d(np.asarray(self.transmissivities, dtype=float))
        _check_etas(etas)
        object.__setattr__(self, "transmissivities", etas)
        self.transmissivities.setflags(write=False)


# -- state constructors ---------------------------------------------------


def vacuum_state(num_modes):
    _check_nodes(num_modes)
    return GaussianState(np.zeros(2 * num_modes), 0.25 * np.eye(2 * num_modes))


def squeezed_vacuum(n_photons, axis="x"):
    """Single-mode squeezed vacuum with mean photon number n_photons.

    axis selects which quadrature carries the reduced noise (squeezed_variances).
    """
    return GaussianState(np.zeros(2), np.diag(squeezed_variances(n_photons, axis)))


def coherent_state(x_mean, p_mean=0.0):
    return GaussianState(np.array([x_mean, p_mean]), 0.25 * np.eye(2))


def tensor(*states):
    """Tensor product in the common xxpp ordering."""
    total = sum(s.num_modes for s in states)
    mean = np.zeros(2 * total)
    cov = np.zeros((2 * total, 2 * total))
    offset = 0
    for s in states:
        m = s.num_modes
        sl_x = slice(offset, offset + m)
        sl_p = slice(total + offset, total + offset + m)
        mean[sl_x] = s.mean[:m]
        mean[sl_p] = s.mean[m:]
        cov[sl_x, sl_x] = s.cov[:m, :m]
        cov[sl_x, sl_p] = s.cov[:m, m:]
        cov[sl_p, sl_x] = s.cov[m:, :m]
        cov[sl_p, sl_p] = s.cov[m:, m:]
        offset += m
    return GaussianState(mean, cov)


# -- transform constructors -----------------------------------------------


def complete_orthogonal(first_row):
    """Orthogonal matrix whose first row is first_row normalized.

    The completion is the Householder reflection 2 p p^T / p^T p - I with
    p = u + sign(u_0) e_1, which maps e_1 to sign(u_0) u; its first row is
    then set to u itself.  Choosing the sign keeps |p_0| >= 1, so no row
    loses orthogonality however small the entries of u.
    """
    u = np.asarray(first_row, dtype=float)
    norm = np.sqrt(u @ u)
    if norm == 0.0:
        raise ValueError("first row must be a nonzero vector")
    u = u / norm
    p = u.copy()
    p[0] += 1.0 if u[0] >= 0.0 else -1.0
    o = np.outer(p, p * (2.0 / (p @ p)))
    o.flat[:: u.size + 1] -= 1.0
    o[0] = u
    return o


def passive_transform(unitary):
    """Symplectic matrix [[X, -Y], [Y, X]] of a mode unitary U = X + iY (lossless optics).

    For U = O^T with O real orthogonal the outputs are a = O^T b: with O's first
    row u, b_1 = sum_m u_m a_m, i.e. the first input mode is spread over the
    outputs with coefficients u.
    """
    u = np.asarray(unitary)
    m = u.shape[0]
    s = np.zeros((2 * m, 2 * m))
    s[:m, :m] = s[m:, m:] = u.real
    if np.iscomplexobj(u):
        s[m:, :m] = u.imag
        np.negative(u.imag, out=s[:m, m:])
    return SymplecticTransform(s)


def balanced_splitter(num_modes):
    """M-port splitter distributing input mode 1 evenly, b_1 = sum_m a_m / sqrt(M)."""
    _check_nodes(num_modes)
    return passive_transform(complete_orthogonal(np.ones(num_modes)).T)


def unbalanced_splitter(coeffs):
    """Splitter whose first input spreads with the given (normalized) coefficients."""
    return passive_transform(complete_orthogonal(coeffs).T)


# -- channels and measurements --------------------------------------------


def apply_symplectic(state, transform):
    if transform.num_modes != state.num_modes:
        raise ValueError("transform and state mode counts differ")
    s = transform.matrix
    return GaussianState(s @ state.mean, s @ state.cov @ s.T)


def apply_loss(state, channel):
    """Pure loss: mean *= sqrt(eta), cov -> D cov D + (I - D^2)/4."""
    etas = channel.transmissivities
    if etas.size != state.num_modes:
        raise ValueError("channel length does not match state mode count")
    d = np.sqrt(np.concatenate([etas, etas]))
    cov = state.cov * d
    cov *= d[:, None]
    cov.reshape(-1)[:: d.size + 1] += (1.0 - d * d) / 4.0
    return GaussianState(d * state.mean, cov)


# -- network states: the dense reference for the protocols' O(M) marginals --


def build_entangled_input(num_nodes, total_photons, axis="x", splitter=None):
    """Squeezed vacuum split evenly over M modes (the entangled input).

    splitter overrides the default balanced splitter; any orthogonal
    completion with the same first row yields identical physics.
    """
    _check_nodes(num_nodes)
    # Squeezed vacuum in mode 0, vacuum elsewhere: one diagonal state, the
    # covariance of tensor(squeezed_vacuum, vacuum_state(M - 1)).
    variances = np.full(2 * num_nodes, 0.25)
    variances[0], variances[num_nodes] = squeezed_variances(total_photons, axis)
    state = GaussianState(np.zeros(2 * num_nodes), np.diag(variances))
    if splitter is None:
        splitter = balanced_splitter(num_nodes)
    return apply_symplectic(state, splitter)


def build_product_input(num_nodes, total_photons):
    """M-fold product of x-squeezed vacua with N/M photons each, as one diagonal state."""
    _check_nodes(num_nodes)
    variances = squeezed_variances(total_photons / num_nodes)
    return GaussianState(np.zeros(2 * num_nodes), np.diag(np.repeat(variances, num_nodes)))


def _mach_zehnder_unitary(dphi):
    """Two-port MZ map: 50:50 in, phase exp(i dphi) on the signal-fed arm, 50:50 out."""
    b = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return b @ np.diag([np.exp(1j * dphi), 1.0]) @ b


def build_phase_network_state(num_nodes, total_photons, ancilla_photons, eta, dphi):
    """Exact 2M-mode Gaussian state at the interferometer outputs.

    Modes 0..M-1 carry the entangled signal (squeezed in p), modes
    M..2M-1 the coherent drives; loss eta acts on the signal outputs.
    The state is pure along its anti-squeezed direction, so its uncertainty
    check fails on round-off once eps N_S nears UNCERTAINTY_TOL, the earlier
    the larger M (N_S = 10^6 at M = 200).
    """
    m = num_nodes
    signal = build_entangled_input(m, total_photons, axis="p")
    drives = [coherent_state(np.sqrt(ancilla_photons)) for _ in range(m)]
    state = tensor(signal, *drives)

    u = np.eye(2 * m, dtype=complex)
    block = _mach_zehnder_unitary(dphi)
    for k in range(m):
        idx = [k, m + k]
        u[np.ix_(idx, idx)] = block
    state = apply_symplectic(state, passive_transform(u))
    etas = np.concatenate([np.full(m, eta), np.ones(m)])
    return apply_loss(state, LossChannel(etas))
