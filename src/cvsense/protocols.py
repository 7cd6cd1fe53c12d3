"""Distributed displacement- and phase-sensing protocols.

Closed-form rms errors for the entangled (shared squeezed vacuum split
over M nodes) and product (per-node squeezed vacuum) schemes, Monte
Carlo estimation campaigns over the pipeline's exact marginals in O(M)
form, and the Mach-Zehnder phase-sensing network.
"""

from __future__ import annotations

import itertools
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import gaussian
from .allocation import WeightedNetwork, noise_kernel, weighted_rms
from .allocation import _check_budget, _check_etas, _check_nodes
from .gaussian import (
    GaussianState,
    LossChannel,
    apply_loss,
    apply_symplectic,
    balanced_splitter,
    coherent_state,
    squeezed_vacuum,
    squeezed_variances,
    tensor,
    unbalanced_splitter,
)

PHASE_LINEARIZATION_GUARD = 0.3
SQUEEZING_CAP_PHOTONS = 1e4
SQUEEZING_CAP_NOTE = (
    "requested squeezing exceeds 40 dB (mean photon number > 1e4 in one "
    "squeezed mode), far beyond experimental state of the art; results are "
    "idealized"
)
EIGHT_DB_NOTE = (
    "known discrepancy: the published claim of an 8 dB sensitivity advantage "
    "at N_S=10, M=20, eta=0.9 is not reproduced by the closed-form rms "
    "expressions, which give 4.49 dB at those parameters (8 dB occurs near "
    "eta ~ 0.98); the formula value is reported"
)

# numpy splits a SeedSequence word >= 2^32, so (2^32 + 1, 0) would draw (1, 1)'s stream.
SEED_MAX = 2**32 - 1

# Largest N_S the displacement campaign samples. Per-node float64 outcomes
# resolve the squeezed variance e^{-2r}/4 ~ 1/(16 N_S) to N_S = 1e24 at
# M <= 1000; M = 7 fails at 1e28 and every M at 1e32. The bound keeps four
# decades of margin below the largest N_S measured to pass.
SAMPLER_MAX_PHOTONS = 1e20

# Largest N_S the phase network is built at. Its anti-squeezed variance grows
# like N_S, so the round-off in the state's uncertainty check grows like eps N_S
# and passes gaussian.UNCERTAINTY_TOL. The campaigns and exact stats build one
# two-mode pair, whose covariance does not depend on the drive M N_v: over eta in
# {0.5, 1}, dphi in {0.005, 0.1, 0.29}, N_v in {1, 1e2, 1e4, 1e6} and M up to 1e5,
# it first failed at N_S = 10^7.25 (dphi = 0.29), whatever eta, N_v and M. The
# bound keeps two decades of margin below it, and one below the dense M-mode
# reference, whose round-off grows with M (10^6 at M = 200).
PHASE_MAX_PHOTONS = 1e5

# Normals per Monte Carlo chunk: each campaign thread's two sample buffers
# stay near 256 KB each, whatever the node count.
CHUNK_NORMALS = 1 << 15


def _check_domain(num_nodes, total_photons, eta):
    """Raise ValueError outside the closed forms' domain; warn past the 40 dB squeezing cap."""
    _check_nodes(num_nodes)
    _check_budget(total_photons)
    _check_etas(eta)
    if np.any(np.asarray(total_photons) > SQUEEZING_CAP_PHOTONS):
        warnings.warn(SQUEEZING_CAP_NOTE, stacklevel=3)


def entangled_rms_error(num_nodes, total_photons, eta):
    """rms error of the entangled scheme's average-quadrature estimator."""
    _check_domain(num_nodes, total_photons, eta)
    return 0.5 * np.sqrt(noise_kernel(eta, total_photons) / num_nodes)


def product_rms_error(num_nodes, total_photons, eta):
    """rms error of the optimal product scheme: the entangled form at N/M photons."""
    _check_domain(num_nodes, total_photons, eta)
    return entangled_rms_error(num_nodes, np.asarray(total_photons, dtype=float) / num_nodes, eta)


def sensitivity_ratio_db(num_nodes, total_photons, eta):
    """10 log10[(product rms / entangled rms)^2]."""
    ratio = product_rms_error(num_nodes, total_photons, eta) / entangled_rms_error(
        num_nodes, total_photons, eta
    )
    return 10.0 * np.log10(ratio**2)


# -- input states ---------------------------------------------------------


def build_entangled_input(num_nodes, total_photons, axis="x", splitter=None):
    """Squeezed vacuum split evenly over M modes (the entangled input).

    splitter overrides the default balanced splitter; any orthogonal
    completion with the same first row yields identical physics.
    """
    _check_nodes(num_nodes)
    # Squeezed vacuum in mode 0, vacuum elsewhere: one diagonal state, the
    # covariance of tensor(squeezed_vacuum, vacuum_state(M - 1)).
    cov = 0.25 * np.eye(2 * num_nodes)
    cov[0, 0], cov[num_nodes, num_nodes] = squeezed_variances(total_photons, axis)
    state = GaussianState(np.zeros(2 * num_nodes), cov)
    if splitter is None:
        splitter = balanced_splitter(num_nodes)
    return apply_symplectic(state, splitter)


def build_product_input(num_nodes, total_photons):
    """M-fold product of x-squeezed vacua with N/M photons each."""
    _check_nodes(num_nodes)
    per_node = squeezed_vacuum(total_photons / num_nodes)
    if num_nodes == 1:
        return per_node
    return tensor(*[per_node] * num_nodes)


# -- Monte Carlo campaign -------------------------------------------------


@dataclass
class SensorNetworkConfig:
    """Single source of truth for a displacement-sensing protocol run."""

    num_nodes: int
    total_photons: float
    eta: object = 1.0
    weights: np.ndarray | None = None
    scheme: str = "entangled"
    alpha_true: float = 0.0
    seed: int | tuple = 0  # SeedSequence entropy: an int or a tuple of ints
    trials: int = 100_000

    def __post_init__(self):
        if self.scheme not in ("entangled", "product"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.trials < 1:
            raise ValueError("trial count must be positive")
        if not np.isfinite(self.alpha_true):
            raise ValueError("alpha_true must be finite")
        # The network checks the nodes, weights, etas and budget and fills in their defaults.
        self._network = WeightedNetwork(self.num_nodes, self.weights, self.eta, self.total_photons)
        self.eta, self.weights = self._network.etas, self._network.weights
        if self.scheme == "product" and not self._network.uniform:
            raise ValueError("product-scheme simulation supports uniform networks only")


@dataclass
class EstimatorReport:
    """Monte Carlo trial statistics paired with the analytic prediction."""

    trials: int
    empirical_mean: float
    empirical_rms_error: float
    rms_standard_error: float
    analytic_rms: float

    def agreement_sigmas(self):
        return abs(self.empirical_rms_error - self.analytic_rms) / self.rms_standard_error


def _thread_count(chunks):
    """Threads for a campaign of `chunks` chunks: min(chunks, usable CPUs, CVSENSE_THREADS)."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    cap = os.environ.get("CVSENSE_THREADS")
    if cap:  # unset or empty: no cap, as for the BLAS pools
        if not (cap.strip().isdecimal() and int(cap) >= 1):
            raise ValueError(f"CVSENSE_THREADS must be a positive integer, not {cap!r}")
        cpus = min(cpus, int(cap))
    return min(chunks, cpus)


def _run_campaign(mean, a, top, unit, weights, target, trials, seed, analytic_rms):
    """Homodyne-sample a Gaussian marginal and report the linear estimator about target.

    The measured quadratures have mean `mean` and covariance a I + (top - a) unit unit^T;
    each trial's estimate is weights @ outcomes. Trials run in chunks of CHUNK_NORMALS
    normals, and chunk j draws from SeedSequence(seed, spawn_key=(j,)), i.e.
    SeedSequence(seed).spawn(j + 1)[j]. The calling thread and _thread_count - 1 helpers
    claim chunks in turn, each into buffers of its own; the per-chunk sums are reduced
    in chunk order, so the report does not depend on the thread count.
    """
    if not all(0 <= word <= SEED_MAX for word in np.atleast_1d(seed).tolist()):
        raise ValueError(f"seed words must lie in [0, {SEED_MAX}]")
    plan = gaussian.homodyne_plan(mean, a, top, unit)  # checked and formed once, not per chunk
    rows = min(trials, max(1, CHUNK_NORMALS // mean.size))
    chunks = -(-trials // rows)
    sums = np.empty((chunks, 2))  # per chunk: sum of estimates, sum of squares about target
    claims = itertools.count()  # next() is atomic, so every chunk is claimed once
    failures = []

    def work():
        try:
            normals = np.empty((rows, mean.size))
            samples = np.empty_like(normals)
            est = np.empty(rows)
            for j in claims:
                if j >= chunks or failures:  # done, or another chunk raised
                    return
                n = min(rows, trials - j * rows)
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
                block = gaussian.homodyne_samples(plan, rng, normals[:n], samples[:n])
                chunk = np.matmul(block, weights, out=est[:n])
                sums[j, 0] = chunk.sum()
                chunk -= target
                # numpy's own pairwise sum, not a BLAS dot, whose result follows its thread count.
                sums[j, 1] = np.square(chunk, out=chunk).sum()
        except BaseException as exc:  # re-raised by the caller once every helper has joined
            failures.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(_thread_count(chunks) - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]

    sum_est, sum_sq = sums.sum(axis=0)
    rms = float(np.sqrt(sum_sq / trials))
    return EstimatorReport(
        trials=trials,
        empirical_mean=float(sum_est / trials),
        empirical_rms_error=rms,
        rms_standard_error=rms / np.sqrt(2.0 * trials),
        analytic_rms=analytic_rms,
    )


def _splitter_row(cfg):
    """First row of the entangled input's splitter, unnormalized."""
    if cfg._network.uniform:
        return np.ones(cfg.num_nodes)  # balanced_splitter's first row
    # Heterogeneous network: spread the squeezed mode with coefficients
    # proportional to w_m sqrt(eta_m) so the estimator recovers it intact.
    return cfg.weights * np.sqrt(cfg.eta)


def _build_input_for_config(cfg):
    if cfg.scheme == "product":
        return build_product_input(cfg.num_nodes, cfg.total_photons)
    splitter = unbalanced_splitter(_splitter_row(cfg))
    return build_entangled_input(cfg.num_nodes, cfg.total_photons, splitter=splitter)


def _x_marginal(cfg):
    """(a, top, unit) of the post-loss x-covariance a I + (top - a) unit unit^T, in O(M).

    The squeezed mode (x-variance s) spreads along the splitter's unit first row u,
    I/4 + (s - 1/4) u u^T, and loss maps u to v = sqrt(eta) u (Weedbrook et al.,
    RMP 84, 621 (2012)): variance 1/4 across v and s|v|^2 + (1 - |v|^2)/4 along it,
    with 1 - |v|^2 = sum (1 - eta) u^2, exactly 0 at eta = 1. Product nodes are
    independent: top = a.
    """
    if cfg.scheme == "product":  # uniform; eta formed as apply_loss forms it, d * d
        s, d = squeezed_variances(cfg.total_photons / cfg.num_nodes)[0], np.sqrt(cfg.eta[0])
        a = s * (d * d) + (1.0 - d * d) / 4.0
        return a, a, np.zeros(cfg.num_nodes)
    u = _splitter_row(cfg)
    u = u / np.sqrt(u @ u)
    v = np.sqrt(cfg.eta) * u
    norm2 = v @ v
    top = squeezed_variances(cfg.total_photons)[0] * norm2 + 0.25 * ((1.0 - cfg.eta) @ (u * u))
    return 0.25, top, v / np.sqrt(norm2)


def analytic_config_rms(cfg):
    """Estimator rms computed from the exact post-loss covariance.

    Matches the closed forms on uniform networks and serves as the
    splitter-completion-invariance oracle.
    """
    state = apply_loss(_build_input_for_config(cfg), LossChannel(cfg.eta))
    cov_x = state.cov_block("x")
    return float(np.sqrt(cfg.weights @ cov_x @ cfg.weights))


def analytic_rms_for_scheme(cfg):
    """Closed-form estimator rms; each product node squeezes with N_S/M photons."""
    photons = cfg.total_photons
    if cfg.scheme == "product":
        photons = photons / cfg.num_nodes
    return weighted_rms(cfg.weights, cfg.eta, photons)


def simulate_displacement_protocol(cfg):
    """Homodyne-sample the pipeline's x marginal (input, loss, displacement) cfg.trials times.

    Raises ValueError above SAMPLER_MAX_PHOTONS, before drawing anything.
    """
    if cfg.total_photons > SAMPLER_MAX_PHOTONS:
        raise ValueError(
            f"N_S = {cfg.total_photons:g} exceeds the sampler bound {SAMPLER_MAX_PHOTONS:g}: "
            "float64 outcomes cannot resolve the squeezed variance"
        )
    if cfg.total_photons > SQUEEZING_CAP_PHOTONS:
        warnings.warn(SQUEEZING_CAP_NOTE, stacklevel=2)
    return _run_campaign(
        np.full(cfg.num_nodes, float(cfg.alpha_true)), *_x_marginal(cfg), cfg.weights,
        target=cfg.alpha_true * cfg.weights.sum(),  # = alpha_true
        trials=cfg.trials, seed=cfg.seed,
        analytic_rms=analytic_rms_for_scheme(cfg),
    )


# -- phase sensing --------------------------------------------------------


def phase_rms_error(num_nodes, total_photons, ancilla_photons, eta):
    """Linearized rms error of the distributed Mach-Zehnder phase estimator."""
    if not (0 < ancilla_photons < np.inf):  # nan fails this too
        raise ValueError("coherent drive photon number must be finite and positive")
    return float(
        2.0 * entangled_rms_error(num_nodes, total_photons, eta)
        / np.sqrt(ancilla_photons)
    )


def _mach_zehnder_unitary(dphi):
    """Two-port MZ map: 50:50 in, phase exp(i dphi) on the signal-fed arm, 50:50 out."""
    b = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return b @ np.diag([np.exp(1j * dphi), 1.0]) @ b


def build_phase_network_state(num_nodes, total_photons, ancilla_photons, eta, dphi):
    """Exact 2M-mode Gaussian state at the interferometer outputs.

    Modes 0..M-1 carry the entangled signal (squeezed in p), modes
    M..2M-1 the coherent drives; loss eta acts on the signal outputs.
    Raises ValueError above PHASE_MAX_PHOTONS, before building anything.
    """
    if total_photons > PHASE_MAX_PHOTONS:
        raise ValueError(
            f"N_S = {total_photons:g} exceeds the phase bound {PHASE_MAX_PHOTONS:g}: "
            "the dense network state's uncertainty check fails on round-off above it"
        )
    m = num_nodes
    signal = build_entangled_input(m, total_photons, axis="p")
    drives = [coherent_state(np.sqrt(ancilla_photons)) for _ in range(m)]
    state = tensor(signal, *drives)

    u = np.eye(2 * m, dtype=complex)
    block = _mach_zehnder_unitary(dphi)
    for k in range(m):
        idx = [k, m + k]
        u[np.ix_(idx, idx)] = block
    state = apply_symplectic(state, gaussian.passive_transform(u))
    etas = np.concatenate([np.full(m, eta), np.ones(m)])
    return apply_loss(state, LossChannel(etas))


def _phase_marginal(num_nodes, total_photons, ancilla_photons, eta, dphi):
    """(mean, a, top, unit, weights) of the M signal p outputs and the estimator, in O(M)."""
    phase_rms_error(num_nodes, total_photons, ancilla_photons, eta)  # domain checks first
    # The M identical MZ pairs act alike on the collective modes: one pair, whose drive holds
    # all M N_v photons, meets the squeezed mode; its homodyned signal p lies along 1/sqrt(M).
    pair = build_phase_network_state(1, total_photons, num_nodes * ancilla_photons, eta, dphi)
    u = np.full(num_nodes, 1.0 / np.sqrt(num_nodes))
    weights = np.full(num_nodes, 2.0 / (np.sqrt(eta * ancilla_photons) * num_nodes))
    return pair.mean_block("p")[0] * u, 0.25, pair.cov_block("p")[0, 0], u, weights


def phase_exact_stats(num_nodes, total_photons, ancilla_photons, eta, dphi):
    """(estimator mean, estimator sd, rms about dphi) from the exact marginal, in O(M)."""
    mean, a, top, unit, w = _phase_marginal(num_nodes, total_photons, ancilla_photons, eta, dphi)
    est_mean = w @ mean
    est_sd = np.sqrt(a * (w @ w) + (top - a) * (w @ unit) ** 2)
    rms = np.sqrt(est_sd**2 + (est_mean - dphi) ** 2)
    return float(est_mean), float(est_sd), float(rms)


def simulate_phase_protocol(
    num_nodes, total_photons, ancilla_photons, eta, dphi_true, trials, seed
):
    """Monte Carlo over the exact Mach-Zehnder network; p-quadrature homodyne."""
    if not (abs(dphi_true) < PHASE_LINEARIZATION_GUARD):  # nan fails this too
        raise ValueError(
            f"|dphi| must be below the linearization guard {PHASE_LINEARIZATION_GUARD}"
        )
    if trials < 1:
        raise ValueError("trial count must be positive")
    marginal = _phase_marginal(num_nodes, total_photons, ancilla_photons, eta, dphi_true)
    return _run_campaign(
        *marginal, target=dphi_true, trials=trials, seed=seed,
        analytic_rms=phase_rms_error(num_nodes, total_photons, ancilla_photons, eta),
    )
