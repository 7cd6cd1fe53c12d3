"""Truncated Fock-space oracle for single-mode Gaussian states.

Brute-force density matrices in the number basis, used to validate the
phase-space machinery (fidelities, photon statistics) independently.
Displacement and squeezing are exponentials of fixed real antisymmetric
generators, applied through a real eigenbasis cached per cutoff.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gaussian import psd_violation

DEFAULT_CUTOFF = 60
HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-8
TAIL_TOL = 1e-6
EIG_FLOOR = 1e-14


@dataclass(frozen=True)
class FockOperator:
    """Complex D x D matrix in the number basis with its cutoff D."""

    matrix: np.ndarray
    cutoff: int = 0

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("Fock operator must be a square matrix")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "cutoff", mat.shape[0])
        self.matrix.setflags(write=False)

    @classmethod
    def from_factor(cls, factor):
        """The operator X X^dag, keeping X as its factor: not copied, made read-only."""
        x = np.asarray(factor, dtype=complex)
        op = cls(x @ x.conj().T)
        x.setflags(write=False)
        op.__dict__["factor"] = x  # fills the cached property below
        return op

    @functools.cached_property
    def factor(self):
        """X with X X^dag = matrix; raises if the matrix is not PSD.

        Built on first use from eigh of the Hermitian part, unless the
        operator came from from_factor.
        """
        eigvals, eigvecs = np.linalg.eigh(0.5 * (self.matrix + self.matrix.conj().T))
        if not (eigvals.min() >= -PSD_TOL):
            raise ValueError(f"operator is not PSD (min eig {eigvals.min():.3e})")
        # Zero the roundoff-level eigenvalues: sqrt amplifies 1e-16 noise to
        # 1e-8 per level, which would dominate the fidelity error budget.
        eigvals = np.where(eigvals < EIG_FLOOR, 0.0, eigvals)
        x = eigvecs * np.sqrt(eigvals)
        x.setflags(write=False)
        return x

    def trace(self):
        return complex(np.trace(self.matrix))

    def photon_distribution(self):
        return np.real(np.diag(self.matrix))

    def mean_photon_number(self):
        return float(np.arange(self.cutoff) @ self.photon_distribution())


def annihilation(cutoff):
    return np.diag(np.sqrt(np.arange(1, cutoff)), k=1).astype(complex)


@functools.lru_cache(maxsize=16)
def _generator_eigh(kind, cutoff):
    """(mu, g, W) with exp(t G) = g W diag(exp(-1j t mu)) W^T g* for every real t.

    G = a^dag - a for "displacement" and (a^2 - a^dag^2)/2 for "squeeze",
    real and antisymmetric with entries only at offsets +-1 or +-2.  The
    diagonal gauge g_n = 1j**n (offsets +-1) or exp(1j pi n / 4) (offsets
    +-2) makes g* (1j G) g real symmetric, so W from its eigh is real
    orthogonal.
    """
    a = annihilation(cutoff).real
    n = np.arange(cutoff)
    if kind == "displacement":
        gen, gauge = a.T - a, 1j**n
    else:
        gen, gauge = 0.5 * (a @ a - a.T @ a.T), np.exp(0.25j * np.pi * n)
    herm = (gauge.conj()[:, None] * (1j * gen) * gauge).real
    mu, vecs = np.linalg.eigh(herm)
    for arr in (mu, gauge, vecs):
        arr.setflags(write=False)
    return mu, gauge, vecs


def _apply_generator(kind, t, block):
    """exp(t G) @ block for a complex (cutoff, k) block, in place; returns block.

    The products with the real eigenbasis W act on the block's (re, im)
    float view, half the flops of a complex matmul.
    """
    mu, gauge, vecs = _generator_eigh(kind, block.shape[0])
    block *= gauge.conj()[:, None]
    rotated = (vecs.T @ block.view(float)).view(complex)
    rotated *= np.exp(-1j * t * mu)[:, None]
    np.matmul(vecs, rotated.view(float), out=block.view(float))
    block *= gauge[:, None]
    return block


def _apply_displacement(beta, block):
    """D(beta) @ block in place, D(beta) = P exp(|beta| (a^dag - a)) P^dag, P = exp(1j arg(beta) n)."""
    phase = np.exp(1j * np.angle(beta) * np.arange(block.shape[0]))
    block *= phase.conj()[:, None]
    _apply_generator("displacement", abs(beta), block)
    block *= phase[:, None]
    return block


def displacement_operator(beta, cutoff):
    """exp(beta a^dag - beta* a) in the number basis."""
    return _apply_displacement(beta, np.eye(cutoff, dtype=complex))


def squeeze_operator(r, cutoff):
    """Squeezes x for r > 0: Var(x) on vacuum becomes exp(-2r)/4."""
    return _apply_generator("squeeze", r, np.eye(cutoff, dtype=complex))


def rotation_phases(theta, cutoff):
    """Diagonal of exp(-i theta n), which rotates quadratures by R_theta = [[c, s], [-s, c]]."""
    return np.exp(-1j * theta * np.arange(cutoff))


def thermal_populations(nbar, cutoff):
    """Number-basis populations of a thermal state, the diagonal of its density matrix."""
    if nbar < 0:
        raise ValueError("thermal occupation must be nonnegative")
    if nbar == 0:
        probs = np.zeros(cutoff)
        probs[0] = 1.0
        return probs
    ratio = nbar / (nbar + 1.0)
    return ratio ** np.arange(cutoff) / (nbar + 1.0)


def _validate_density(mat, trace_tol, tail_tol=TAIL_TOL):
    # Each tolerance test is written so that nan fails it.
    adjoint = mat.conj().T
    if not (np.abs(mat - adjoint).max() <= HERMITICITY_TOL):
        raise ValueError("density matrix is not Hermitian")
    if not (abs(np.trace(mat).real - 1.0) <= trace_tol):
        raise ValueError(
            f"trace deficit {abs(np.trace(mat).real - 1.0):.3e} exceeds "
            "tolerance; increase the Fock cutoff"
        )
    # Truncated exponentials of anti-Hermitian generators stay exactly
    # unitary, so the trace alone cannot detect an undersized basis; the
    # population pushed against the truncation edge can.  A tail of t
    # perturbs downstream fidelities by O(t), hence the looser threshold.
    tail = float(np.real(mat[-1, -1]))
    if not (tail <= tail_tol):
        raise ValueError(
            f"top-level occupancy {tail:.3e} exceeds tolerance; "
            "increase the Fock cutoff"
        )
    min_eig = psd_violation(0.5 * (mat + adjoint), PSD_TOL)
    if min_eig is not None:
        raise ValueError(f"density matrix is not PSD (min eig {min_eig:.3e})")


def gaussian_to_fock(state, cutoff=DEFAULT_CUTOFF, trace_tol=TRACE_TOL):
    """Number-basis density matrix of a single-mode Gaussian state.

    Built as X X^dag with X = D(beta) R(theta) S(r) sqrt(rho_thermal) from
    the covariance eigendecomposition, keeping X as the operator's factor.
    Raises when the truncation leaks more than trace_tol of probability.
    """
    if state.num_modes != 1:
        raise ValueError("Fock oracle handles single-mode states only")
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    cov = state.cov
    eigvals, eigvecs = np.linalg.eigh(cov)
    lam1, lam2 = eigvals  # ascending: lam1 = nu*exp(-2r)/4, lam2 = nu*exp(2r)/4
    nu = 4.0 * np.sqrt(lam1 * lam2)  # symplectic eigenvalue scaled to 1 for pure
    nbar = max(0.0, (nu - 1.0) / 2.0)
    r = 0.25 * np.log(lam2 / lam1)
    v1 = eigvecs[:, 0]
    theta = float(np.arctan2(-v1[1], v1[0]))
    beta = state.mean[0] + 1j * state.mean[1]

    # X = D R S diag(sqrt(p)) on the columns with sqrt(p_k) >= eps only: the
    # populations fall with k, so they are the first k, and each dropped
    # column has norm below eps, which moves rho by less than eps^2.  S, R
    # and D act on that block in turn; none is formed as a matrix.
    sqrt_p = np.sqrt(thermal_populations(nbar, cutoff))
    kept = int(np.count_nonzero(sqrt_p >= np.finfo(float).eps))
    x = np.zeros((cutoff, kept), dtype=complex)
    x[np.arange(kept), np.arange(kept)] = sqrt_p[:kept]
    _apply_generator("squeeze", r, x)
    x *= rotation_phases(theta, cutoff)[:, None]
    _apply_displacement(beta, x)
    op = FockOperator.from_factor(x)
    _validate_density(op.matrix, trace_tol)
    return op


def fock_fidelity(a, b):
    """Uhlmann fidelity [Tr sqrt(sqrt(a) b sqrt(a))]^2 from the operators' factors.

    For any X X^dag = a and Y Y^dag = b the fidelity is the squared trace
    norm of Y^dag X, the squared sum of its singular values (Jozsa,
    J. Mod. Opt. 41, 2315 (1994)), so no matrix square root is taken.
    """
    if a.cutoff != b.cutoff:
        raise ValueError("operators must share a cutoff")
    singular = np.linalg.svd(b.factor.conj().T @ a.factor, compute_uv=False)
    return float(np.sum(singular) ** 2)
