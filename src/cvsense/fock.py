"""Truncated Fock-space oracle for single-mode Gaussian states.

A state's number-basis density matrix rho = X X^dag is kept only as its
factor X, and rho is Hermitian and PSD by construction, so X is checked
only for truncation.  The oracle validates the phase-space machinery
(fidelities, photon statistics) independently.  Displacement and
squeezing are exponentials of fixed real antisymmetric generators,
applied through a real eigenbasis cached per cutoff.  A state keeps only
the factor columns whose thermal population is at least the float64
epsilon, so a fidelity of two states moves by at most 2 (tau_a + tau_b),
tau the sum of a state's dropped sqrt(p_k).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_CUTOFF = 60
TRACE_TOL = 1e-8
TAIL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class FockOperator:
    """The operator X X^dag in the number basis, kept as its D x k factor X.

    X is kept, not copied, and made read-only; cutoff is D, and matrix
    forms X X^dag each time it is read.
    """

    factor: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.factor, dtype=complex)
        if x.ndim != 2:
            raise ValueError("Fock factor must be a matrix")
        x.setflags(write=False)
        object.__setattr__(self, "factor", x)

    @property
    def cutoff(self):
        return self.factor.shape[0]

    @property
    def matrix(self):
        return self.factor @ self.factor.conj().T

    def photon_distribution(self):
        """Diagonal of X X^dag: the row sums of |X|^2."""
        x = self.factor
        return np.sum(x.real**2 + x.imag**2, axis=1)

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


def thermal_populations(nbar, cutoff):
    """Number-basis populations of a thermal state, the diagonal of its density matrix."""
    if not (nbar >= 0):  # nan fails this too
        raise ValueError("thermal occupation must be nonnegative")
    ratio = nbar / (nbar + 1.0)
    return ratio ** np.arange(cutoff) / (nbar + 1.0)


def _check_truncation(op):
    """Raise when the cutoff is too small for op; each test is written so that nan fails it."""
    probs = op.photon_distribution()
    deficit = abs(probs.sum() - 1.0)
    if not (deficit <= TRACE_TOL):
        raise ValueError(
            f"trace deficit {deficit:.3e} exceeds tolerance; increase the Fock cutoff"
        )
    # Truncated exponentials of anti-Hermitian generators stay exactly
    # unitary, so the trace alone cannot detect an undersized basis; the
    # population pushed against the truncation edge can.  A tail of t
    # perturbs downstream fidelities by O(t), hence the looser threshold.
    tail = float(probs[-1])
    if not (tail <= TAIL_TOL):
        raise ValueError(
            f"top-level occupancy {tail:.3e} exceeds tolerance; "
            "increase the Fock cutoff"
        )


def _squeezed_thermal_form(cov):
    """(nbar, r, theta) with cov = (2 nbar + 1)/4 R diag(exp(-2r), exp(2r)) R^T, in floats.

    R = [[c, s], [-s, c]] at theta rotates quadratures as exp(-1j theta n) does, so
    S(r) = exp(r (a^2 - a^dag^2)/2) (Var(x) = exp(-2r)/4 on vacuum) then exp(-1j theta n)
    squeezes the quadrature along (cos theta, -sin theta). For cov = [[a, b], [b, c]] the
    eigenvalues are lam2 = (a + c)/2 + hypot((a - c)/2, b) and lam1 = det/lam2, and the
    minor axis lies at -theta with theta = atan2(2b, c - a)/2.
    """
    (a, b), (_, c) = cov.tolist()
    det = a * c - b * b
    lam2 = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
    nbar = max(0.0, 2.0 * math.sqrt(det) - 0.5)  # (nu - 1)/2, nu = 4 sqrt(det) is 1 when pure
    return nbar, 0.25 * math.log(lam2 * lam2 / det), 0.5 * math.atan2(2.0 * b, c - a)


def gaussian_to_fock(state, cutoff=DEFAULT_CUTOFF):
    """Number-basis density matrix of a single-mode Gaussian state, as its factor.

    Built as X X^dag with X = D(beta) R(theta) S(r) sqrt(rho_thermal) from
    _squeezed_thermal_form, keeping X as the operator's factor.
    X holds the columns with thermal population p_k >= float64 eps only; the
    dropped columns, sum of norms tau < sqrt(eps)/(1 - sqrt(nbar/(nbar+1))),
    move fock_fidelity by at most 2 tau.  Raises when the truncation leaks
    more than TRACE_TOL of probability or leaves more than TAIL_TOL on the
    top level.
    """
    if state.num_modes != 1:
        raise ValueError("Fock oracle handles single-mode states only")
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    nbar, r, theta = _squeezed_thermal_form(state.cov)
    mean_x, mean_p = state.mean.tolist()
    phi = math.atan2(mean_p, mean_x)  # arg(beta), beta = mean_x + 1j mean_p

    # The populations p_k = (1 - q) q^k, q = nbar/(nbar + 1), fall with k,
    # so the kept columns are the first K, and the dropped tail holds
    # q^K < eps (nbar + 1) of probability: rho moves only at rounding.  The
    # dropped columns are orthogonal with norms sqrt(p_k), so the trace
    # norm of Y^dag X moves by at most tau for any factor Y of norm <= 1.
    probs = thermal_populations(nbar, cutoff)
    kept = int(np.count_nonzero(probs >= np.finfo(float).eps))
    # With S = g_s W_s E_s W_s^T g_s*, R = diag(exp(-i theta n)) and D = P g_d W_d E_d W_d^T
    # g_d* P* (_generator_eigh; D = exp(beta a^dag - beta* a) = P exp(|beta| (a^dag - a)) P*
    # with P = diag(exp(i phi n))), X is one chain: W_s^T g_s* sqrt(p) scales the columns
    # of W_s's first K rows, the four diagonals g_d* P* R g_s between the two eigenbases
    # are one phase vector, and three real products on the block's (re, im) view remain.
    # No operator is formed as a matrix.
    mu_s, g_s, w_s = _generator_eigh("squeeze", cutoff)
    mu_d, g_d, w_d = _generator_eigh("displacement", cutoff)
    n = np.arange(cutoff)
    x = np.exp(-1j * r * mu_s)[:, None] * (g_s[:kept].conj() * np.sqrt(probs[:kept]))
    x *= w_s[:kept].T
    x = (w_s @ x.view(float)).view(complex)
    x *= (g_s * g_d.conj() * np.exp(-1j * (theta + phi) * n))[:, None]
    x = (w_d.T @ x.view(float)).view(complex)
    x *= np.exp(-1j * math.hypot(mean_x, mean_p) * mu_d)[:, None]
    x = (w_d @ x.view(float)).view(complex)
    x *= (g_d * np.exp(1j * phi * n))[:, None]
    op = FockOperator(x)
    _check_truncation(op)
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
