"""Gaussian-state engine for multimode quadrature optics.

Conventions: quadrature ordering is xxpp (all x's, then all p's), the
symplectic form is Omega = [[0, I], [-I, 0]], and the vacuum covariance
is I/4 (so x = Re(a), p = Im(a) and Var_vac(x) = 1/4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SYMMETRY_RTOL = 1e-12
SYMPLECTIC_TOL = 1e-10
UNCERTAINTY_TOL = 1e-10


def symplectic_form(num_modes):
    """Omega = [[0, I], [-I, 0]] in xxpp ordering."""
    omega = np.zeros((2 * num_modes, 2 * num_modes))
    idx = np.arange(num_modes)
    omega[idx, idx + num_modes] = 1.0
    omega[idx + num_modes, idx] = -1.0
    return omega


def psd_violation(herm, tol):
    """Minimum eigenvalue of the Hermitian matrix herm if it is below -tol, else None.

    A Cholesky factor of herm + tol I exists when every eigenvalue of herm
    exceeds -tol, which settles almost every call; eigvalsh runs only when
    the factorization fails, to decide at round-off and report the eigenvalue.
    The shift is made on herm's diagonal in place and undone before return,
    so herm reads the same afterwards and no shifted copy is allocated.
    """
    diag = herm.diagonal().copy()
    herm.flat[:: herm.shape[0] + 1] += tol
    try:
        np.linalg.cholesky(herm)
        return None
    except np.linalg.LinAlgError:
        pass
    finally:
        herm.flat[:: herm.shape[0] + 1] = diag
    min_eig = np.linalg.eigvalsh(herm).min()
    return min_eig if not (min_eig >= -tol) else None


@dataclass(frozen=True)
class GaussianState:
    """M-mode Gaussian state: mean vector (length 2M) and covariance (2M x 2M)."""

    mean: np.ndarray
    cov: np.ndarray
    num_modes: int = field(init=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise ValueError("mean must be a flat vector of even length")
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        m = mean.size // 2
        if cov.shape != (2 * m, 2 * m):
            raise ValueError("covariance shape does not match mean length")
        # Each tolerance test is written so that nan fails it; the largest
        # entry is nan or inf when any entry is.
        largest = np.abs(cov).max()
        scale = max(1.0, largest)
        if not (np.isfinite(largest) and np.abs(cov - cov.T).max() <= SYMMETRY_RTOL * scale):
            raise ValueError("covariance matrix is not finite and symmetric")
        cov = 0.5 * (cov + cov.T)
        # Uncertainty principle: cov + (i/4) Omega >= 0, checked in one buffer.
        herm = np.zeros((2 * m, 2 * m), dtype=complex)
        herm.real = cov
        idx = np.arange(m)
        herm.imag[idx, idx + m] = 0.25
        herm.imag[idx + m, idx] = -0.25
        min_eig = psd_violation(herm, UNCERTAINTY_TOL)
        if min_eig is not None:
            raise ValueError(
                f"covariance violates the uncertainty principle (min eig {min_eig:.3e})"
            )
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


@dataclass(frozen=True)
class SymplecticTransform:
    """Linear-optics/squeezing map: mean -> S mean, cov -> S cov S^T."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 != 0:
            raise ValueError("transform matrix must be square with even dimension")
        m = mat.shape[0] // 2
        # S Omega S^T = P - P^T with P = S[:, :m] S[:, m:]^T; it must equal Omega.
        half = mat[:, :m] @ mat[:, m:].T
        gap = half - half.T
        idx = np.arange(m)
        gap[idx, idx + m] -= 1.0
        gap[idx + m, idx] += 1.0
        if not (np.abs(gap).max() <= SYMPLECTIC_TOL):  # nan fails this too
            raise ValueError("matrix is not symplectic")
        object.__setattr__(self, "matrix", mat)
        self.matrix.setflags(write=False)

    @property
    def num_modes(self):
        return self.matrix.shape[0] // 2


@dataclass(frozen=True)
class LossChannel:
    """Pure-loss channels with per-mode transmissivities in (0, 1]."""

    transmissivities: np.ndarray

    def __post_init__(self):
        etas = np.atleast_1d(np.asarray(self.transmissivities, dtype=float))
        if not np.all((etas > 0.0) & (etas <= 1.0)):  # nan fails this too
            raise ValueError("transmissivities must lie in (0, 1]")
        object.__setattr__(self, "transmissivities", etas)
        self.transmissivities.setflags(write=False)


# -- state constructors ---------------------------------------------------


def vacuum_state(num_modes):
    if num_modes < 1:
        raise ValueError("number of modes must be >= 1")
    return GaussianState(np.zeros(2 * num_modes), 0.25 * np.eye(2 * num_modes))


def squeeze_parameter(n_photons):
    """r with sinh^2(r) = n_photons, so Var(x) = exp(-2r)/4 for squeeze-x."""
    if not (n_photons >= 0):  # nan fails this too
        raise ValueError("mean photon number must be nonnegative")
    return float(np.arcsinh(np.sqrt(n_photons)))


def squeezed_variances(n_photons, axis="x"):
    """(Var x, Var p) of a squeezed vacuum with mean photon number n_photons.

    axis selects which quadrature carries the reduced noise exp(-2r)/4.
    """
    if axis not in ("x", "p"):
        raise ValueError("axis must be 'x' or 'p'")
    r = squeeze_parameter(n_photons)
    lo = np.exp(-2.0 * r) / 4.0
    hi = np.exp(2.0 * r) / 4.0
    return (lo, hi) if axis == "x" else (hi, lo)


def squeezed_vacuum(n_photons, axis="x"):
    """Single-mode squeezed vacuum with mean photon number n_photons.

    axis selects which quadrature carries the reduced noise exp(-2r)/4.
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


def transform_from_mode_matrix(mode_matrix):
    """Symplectic transform for outputs a = O^T b with O real orthogonal.

    With O's first row u, the inputs satisfy b_1 = sum_m u_m a_m, i.e. the
    first input mode is spread over the outputs with coefficients u.
    """
    o = np.asarray(mode_matrix, dtype=float)
    m = o.shape[0]
    s = np.zeros((2 * m, 2 * m))
    s[:m, :m] = o.T
    s[m:, m:] = o.T
    return SymplecticTransform(s)


def balanced_splitter(num_modes):
    """M-port splitter distributing input mode 1 evenly, b_1 = sum_m a_m / sqrt(M)."""
    if num_modes < 1:
        raise ValueError("number of modes must be >= 1")
    return transform_from_mode_matrix(complete_orthogonal(np.ones(num_modes)))


def unbalanced_splitter(coeffs):
    """Splitter whose first input spreads with the given (normalized) coefficients."""
    return transform_from_mode_matrix(complete_orthogonal(coeffs))


def passive_transform(unitary):
    """Symplectic matrix of a complex mode unitary U = X + iY (lossless optics)."""
    u = np.asarray(unitary, dtype=complex)
    x, y = u.real, u.imag
    return SymplecticTransform(np.block([[x, -y], [y, x]]))


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
    d = np.concatenate([np.sqrt(etas), np.sqrt(etas)])
    cov = state.cov * np.outer(d, d) + np.diag((1.0 - d * d) / 4.0)
    return GaussianState(d * state.mean, cov)


def homodyne_plan(mean, a, top, unit):
    """Check a homodyne marginal once and return what homodyne_samples draws from.

    The measured quadratures have mean `mean` (length M) and covariance
    a I + (top - a) u u^T, the form of every pipeline marginal: variance top
    along the unit vector u = `unit` (or zero) and a across it. The plan is
    (u, sqrt(a), [(sqrt(top) - sqrt(a)) u; mean]), formed once per campaign.
    """
    unit = np.asarray(unit, dtype=float)
    # nan fails every test here, and u . u is nan or inf when any entry of u is.
    if not (0.0 <= a < np.inf and 0.0 <= top < np.inf and np.isfinite(unit @ unit)):
        raise ValueError(f"quadrature covariance is not finite and PSD "
                         f"(eigenvalues {a:.3e}, {top:.3e})")
    return unit, np.sqrt(a), np.stack([(np.sqrt(top) - np.sqrt(a)) * unit, mean])


def homodyne_samples(plan, rng, normals, out):
    """Fill out, shape (n, M), with n joint homodyne outcomes of homodyne_plan's
    marginal and return it.

    Normals z give x = mean + sqrt(a) z + (sqrt(top) - sqrt(a)) u (u . z), O(M)
    per trial. normals is caller-owned scratch of out's shape, overwritten, so a
    caller that reuses both buffers allocates only O(n) per call; reproducible
    given rng.
    """
    unit, root_a, right = plan
    rng.standard_normal(out=normals)
    # One (n x 2)(2 x M) product, [z . u, 1] [(sqrt(top) - sqrt(a)) u; mean], then sqrt(a) z.
    left = np.empty((2, normals.shape[0]))
    np.matmul(normals, unit, out=left[0])
    left[1] = 1.0
    np.matmul(left.T, right, out=out)
    normals *= root_a
    out += normals
    return out
