"""Distributed displacement- and phase-sensing protocols.

Closed-form rms errors for the entangled (shared squeezed vacuum split
over M nodes) and product (per-node squeezed vacuum) schemes, Monte
Carlo estimation campaigns that homodyne-sample the pipeline's exact
marginals in O(M) form, and the Mach-Zehnder phase-sensing network.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .allocation import WeightedNetwork, noise_kernel, squeezed_variances, weighted_rms
from .allocation import _check_budget, _check_etas, _check_nodes

PHASE_LINEARIZATION_GUARD = 0.3
DEFAULT_TRIALS = 100_000  # per campaign, when neither the caller nor a config sets it
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

# Largest N_S a campaign (displacement or phase) samples. Per-node float64
# outcomes resolve the squeezed variance kappa/4 ~ 1/(16 N_S) to N_S = 1e24 at
# M <= 1000; M = 7 fails at 1e28 and every M at 1e32. The bound keeps four
# decades of margin below the largest N_S measured to pass. Phase campaigns (a closed-form
# marginal) met phase_exact_stats within 4 sigma up to it: M <= 1000, dphi <= 0.29, seeds 0-3.
SAMPLER_MAX_PHOTONS = 1e20
# Largest spacing of float64 numbers near alpha, as a fraction of the estimator's analytic
# rms, that a displacement campaign samples. Rounding the outcomes alpha + noise and their
# weighted sum adds at most about spacing^2/6 to the estimator's variance, so at 1e-3 the
# rms moves by less than 1e-7 relative.
ALPHA_RESOLUTION = 1e-3

# Normals per Monte Carlo chunk: each campaign thread's two sample buffers
# stay near 256 KB each, whatever the node count.
CHUNK_NORMALS = 1 << 15


def _warn_squeezing_cap():
    """Warn SQUEEZING_CAP_NOTE at the line that called into this package, however deep."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(SQUEEZING_CAP_NOTE, stacklevel=level)


def _check_domain(num_nodes, total_photons, eta):
    """Raise ValueError outside the closed forms' domain; warn past the 40 dB squeezing cap."""
    _check_nodes(num_nodes)
    _check_budget(total_photons)
    _check_etas(eta)
    if np.any(np.asarray(total_photons) > SQUEEZING_CAP_PHOTONS):
        _warn_squeezing_cap()


def entangled_rms_error(num_nodes, total_photons, eta):
    """rms error of the entangled scheme's average-quadrature estimator."""
    _check_domain(num_nodes, total_photons, eta)
    return 0.5 * np.sqrt(noise_kernel(eta, total_photons) / num_nodes)


def product_rms_error(num_nodes, total_photons, eta):
    """rms error of the optimal product scheme: the entangled form at N/M photons per mode."""
    _check_nodes(num_nodes)  # before N/M is formed
    return entangled_rms_error(num_nodes, np.asarray(total_photons, dtype=float) / num_nodes, eta)


def sensitivity_ratio_db(num_nodes, total_photons, eta):
    """10 log10[(product rms / entangled rms)^2], the two noise kernels' ratio in dB."""
    _check_domain(num_nodes, total_photons, eta)
    per_node = np.asarray(total_photons, dtype=float) / num_nodes
    return 10.0 * np.log10(noise_kernel(eta, per_node) / noise_kernel(eta, total_photons))


# -- Monte Carlo campaign -------------------------------------------------


def _check_trials(trials):
    if trials < 1:
        raise ValueError("trial count must be positive")


@dataclass(frozen=True, eq=False)
class SensorNetworkConfig:
    """Single source of truth for a displacement-sensing protocol run."""

    num_nodes: int
    total_photons: float
    eta: object = 1.0
    weights: np.ndarray | None = None
    scheme: str = "entangled"
    alpha_true: float = 0.0
    seed: int | tuple = 0  # SeedSequence entropy: an int or a tuple of ints
    trials: int = DEFAULT_TRIALS

    def __post_init__(self):
        if self.scheme not in ("entangled", "product"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        _check_trials(self.trials)
        if not np.isfinite(self.alpha_true):
            raise ValueError("alpha_true must be finite")
        # The network checks the nodes, weights, etas and budget and fills in their defaults.
        network = WeightedNetwork(self.num_nodes, self.weights, self.eta, self.total_photons)
        object.__setattr__(self, "eta", network.etas)
        object.__setattr__(self, "weights", network.weights)


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


@dataclass(frozen=True, eq=False)
class _Marginal:
    """The Gaussian law of the measured quadratures, as every campaign samples it.

    Mean `mean` (length M) and covariance a I + (top - a) u u^T: variance top along the
    unit vector u = `unit` (a float array, or zero) and a across it. With u zero the
    marginal is diagonal and a may be a length-M vector, one variance per node. Construction
    checks the marginal and forms sqrt(a) and [(sqrt(top) - sqrt(a)) u; mean] once per campaign.
    """

    mean: np.ndarray
    a: object
    top: float
    unit: np.ndarray

    def __post_init__(self):
        eigs = np.append(self.a, self.top)
        # nan fails every test here, and u . u is nan or inf when any entry of u is.
        if not (np.all((0.0 <= eigs) & (eigs < np.inf)) and np.isfinite(self.unit @ self.unit)):
            raise ValueError(f"quadrature covariance is not finite and PSD "
                             f"(smallest eigenvalue {eigs.min():.3e})")
        # A constant a scales as a scalar: broadcasting a short row costs a loop per trial.
        root_a = np.sqrt(np.max(self.a)) if np.ptp(self.a) == 0.0 else np.sqrt(self.a)
        object.__setattr__(self, "_root_a", root_a)
        object.__setattr__(self, "_right", np.stack([(np.sqrt(self.top) - root_a) * self.unit,
                                                     self.mean]))

    def sample(self, rng, normals, out):
        """Fill out, shape (n, M), with n joint outcomes and return it, O(M) per trial:
        normals z give x = mean + sqrt(a) z + (sqrt(top) - sqrt(a)) u (u . z). normals is
        caller-owned scratch of out's shape, overwritten, so a caller that reuses both
        buffers allocates only O(n) per call; reproducible given rng."""
        rng.standard_normal(out=normals)
        # One (n x 2)(2 x M) product, [z . u, 1] [(sqrt(top) - sqrt(a)) u; mean], then sqrt(a) z.
        left = np.empty((2, normals.shape[0]))
        np.matmul(normals, self.unit, out=left[0])
        left[1] = 1.0
        np.matmul(left.T, self._right, out=out)
        normals *= self._root_a
        out += normals
        return out


def _run_campaign(marginal, weights, target, trials, seed, analytic_rms):
    """Homodyne-sample a _Marginal and report the linear estimator about target.

    Each trial's estimate is weights @ outcomes. Trials run in chunks of CHUNK_NORMALS
    normals, and chunk j draws from SeedSequence(seed, spawn_key=(j,)), i.e.
    SeedSequence(seed).spawn(j + 1)[j]. The calling thread and _thread_count - 1 helpers
    claim chunks in turn, each into buffers of its own; the per-chunk sums are reduced
    in chunk order, so the report does not depend on the thread count.
    """
    if not all(0 <= word <= SEED_MAX for word in np.atleast_1d(seed).tolist()):
        raise ValueError(f"seed words must lie in [0, {SEED_MAX}]")
    rows = min(trials, max(1, CHUNK_NORMALS // marginal.mean.size))
    chunks = -(-trials // rows)
    sums = np.empty((chunks, 2))  # per chunk: sum of estimates, sum of squares about target
    claims = itertools.count()  # next() is atomic, so every chunk is claimed once
    failures = []

    def work():
        try:
            normals = np.empty((rows, marginal.mean.size))
            samples = np.empty_like(normals)
            est = np.empty(rows)
            for j in claims:
                if j >= chunks or failures:  # done, or another chunk raised
                    return
                n = min(rows, trials - j * rows)
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
                block = marginal.sample(rng, normals[:n], samples[:n])
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
    """First row of the entangled input's splitter, unnormalized: w_m sqrt(eta_m), so that
    the estimator recovers the squeezed mode intact (balanced on a uniform network)."""
    return cfg.weights * np.sqrt(cfg.eta)


def _build_input_for_config(cfg):
    from . import gaussian  # the dense engine: loaded here, so that no campaign loads it

    if cfg.scheme == "product":
        return gaussian.build_product_input(cfg.num_nodes, cfg.total_photons)
    splitter = gaussian.unbalanced_splitter(_splitter_row(cfg))
    return gaussian.build_entangled_input(cfg.num_nodes, cfg.total_photons, splitter=splitter)


def _mode_photons(cfg):
    """Photons in each squeezed mode: N_S in the entangled one, N_S/M in each product node's."""
    return cfg.total_photons / cfg.num_nodes if cfg.scheme == "product" else cfg.total_photons


def _x_marginal(cfg):
    """The post-loss x _Marginal, mean alpha_true on every node, in O(M).

    Every variance is a noise kernel (allocation.noise_kernel) over 4. Product nodes are
    independent, each squeezed with N_S/M photons: on any network, unit = 0 and
    a = top = noise_kernel(eta_m, N_S/M)/4 per node. The entangled input spreads its
    squeezed mode along the splitter's unit first row u, and loss maps u to v = sqrt(eta) u
    (Weedbrook et al., RMP 84, 621 (2012)): variance 1/4 across v and
    sum_m u_m^2 noise_kernel(eta_m, N_S)/4 along it.
    """
    mean = np.full(cfg.num_nodes, float(cfg.alpha_true))
    if cfg.scheme == "product":
        a = 0.25 * noise_kernel(cfg.eta, _mode_photons(cfg))
        return _Marginal(mean, a, a, np.zeros(cfg.num_nodes))
    u = _splitter_row(cfg)
    u = u / np.sqrt(u @ u)
    v = np.sqrt(cfg.eta) * u
    top = 0.25 * ((u * u) @ noise_kernel(cfg.eta, cfg.total_photons))
    return _Marginal(mean, 0.25, top, v / np.sqrt(v @ v))


def analytic_config_rms(cfg):
    """Estimator rms computed from the exact post-loss covariance.

    Matches the closed forms on every network and serves as the
    splitter-completion-invariance oracle. It loads the dense engine when called.
    """
    from . import gaussian

    state = gaussian.apply_loss(_build_input_for_config(cfg), gaussian.LossChannel(cfg.eta))
    cov_x = state.cov_block("x")
    return float(np.sqrt(cfg.weights @ cov_x @ cfg.weights))


def analytic_rms_for_scheme(cfg):
    """Closed-form estimator rms; each product node squeezes with N_S/M photons."""
    return weighted_rms(cfg.weights, cfg.eta, _mode_photons(cfg))


def _check_sampler_bound(total_photons):
    if total_photons > SAMPLER_MAX_PHOTONS:
        raise ValueError(
            f"N_S = {total_photons:g} exceeds the sampler bound {SAMPLER_MAX_PHOTONS:g}: "
            "float64 outcomes cannot resolve the squeezed variance"
        )


def _check_resolution(alpha, analytic_rms):
    spacing = np.spacing(abs(alpha))
    if spacing > ALPHA_RESOLUTION * analytic_rms:
        # The largest |alpha| whose spacing 2^(e - 52), for 2^e <= |alpha|, is within the bound.
        bound = 2.0 ** (np.floor(np.log2(ALPHA_RESOLUTION * analytic_rms)) + 53)
        raise ValueError(
            f"|alpha| = {abs(alpha):g} exceeds the resolution bound {bound:g}: float64 "
            f"outcomes near it are {spacing:.3g} apart, above {ALPHA_RESOLUTION:g} of the "
            f"analytic rms {analytic_rms:.3g}"
        )


def simulate_displacement_protocol(cfg):
    """Homodyne-sample the pipeline's x marginal (input, loss, displacement) cfg.trials times.

    Raises ValueError above SAMPLER_MAX_PHOTONS of N_S, or where float64 outcomes near
    alpha_true are spaced above ALPHA_RESOLUTION of the analytic rms, before drawing anything.
    """
    _check_sampler_bound(cfg.total_photons)
    analytic_rms = analytic_rms_for_scheme(cfg)
    _check_resolution(cfg.alpha_true, analytic_rms)
    if _mode_photons(cfg) > SQUEEZING_CAP_PHOTONS:
        _warn_squeezing_cap()
    return _run_campaign(_x_marginal(cfg), cfg.weights,
                         target=cfg.alpha_true * cfg.weights.sum(),  # = alpha_true
                         trials=cfg.trials, seed=cfg.seed, analytic_rms=analytic_rms)


# -- phase sensing --------------------------------------------------------


def phase_rms_error(num_nodes, total_photons, ancilla_photons, eta):
    """Linearized rms error of the distributed Mach-Zehnder phase estimator."""
    if not (0 < ancilla_photons < np.inf):  # nan fails this too
        raise ValueError("coherent drive photon number must be finite and positive")
    return float(2.0 * entangled_rms_error(num_nodes, total_photons, eta)
                 / np.sqrt(ancilla_photons))


def _phase_marginal(num_nodes, total_photons, ancilla_photons, eta, dphi):
    """(_Marginal of the M signal p outputs, the estimator's weights), in O(M).

    The M identical MZ pairs act alike on the collective modes: one pair, whose drive b holds
    all M N_v photons, meets the squeezed mode a (Var p = V_p, Var x = V_x). Its signal output
    c a + d b, with c = cos(dphi/2) e^{i dphi/2} and d = i sin(dphi/2) e^{i dphi/2}, has after
    loss the p-mean sqrt(eta) Im(d) sqrt(M N_v) and the p-variance
    top = eta [Im(c)^2 V_x + Re(c)^2 V_p + |d|^2/4] + (1 - eta)/4, spread along 1/sqrt(M).
    The caller checks the domain first (phase_rms_error). Raises ValueError above
    SAMPLER_MAX_PHOTONS.
    """
    _check_sampler_bound(total_photons)
    c = np.cos(0.5 * dphi) * np.exp(0.5j * dphi)
    d = 1j * np.sin(0.5 * dphi) * np.exp(0.5j * dphi)
    v_x, v_p = squeezed_variances(total_photons, "p")
    top = eta * (c.imag**2 * v_x + c.real**2 * v_p + abs(d) ** 2 / 4.0) + (1.0 - eta) / 4.0
    u = np.full(num_nodes, 1.0 / np.sqrt(num_nodes))
    weights = np.full(num_nodes, 2.0 / (np.sqrt(eta * ancilla_photons) * num_nodes))
    mean = np.sqrt(eta) * d.imag * np.sqrt(num_nodes * ancilla_photons) * u
    return _Marginal(mean, 0.25, top, u), weights


def phase_exact_stats(num_nodes, total_photons, ancilla_photons, eta, dphi):
    """(estimator mean, estimator sd, rms about dphi) from the exact marginal, in O(M)."""
    phase_rms_error(num_nodes, total_photons, ancilla_photons, eta)  # domain checks first
    marginal, w = _phase_marginal(num_nodes, total_photons, ancilla_photons, eta, dphi)
    est_mean = w @ marginal.mean
    # w and unit are both constant vectors, so w has no part across unit and only the
    # variance top along it counts: a |w - (w.u)u|^2 would be round-off next to a top
    # of ~1/(16 N_S), and a (w.w - (w.u)^2) would cancel outright.
    along = w @ marginal.unit
    est_sd = np.sqrt(marginal.top * along**2)
    rms = np.sqrt(est_sd**2 + (est_mean - dphi) ** 2)
    return float(est_mean), float(est_sd), float(rms)


def simulate_phase_protocol(num_nodes, total_photons, ancilla_photons, eta, dphi_true,
                            trials=DEFAULT_TRIALS, seed=0):
    """Monte Carlo over the exact Mach-Zehnder network; p-quadrature homodyne.

    The report's analytic_rms is the linearized phase_rms_error, off the exact rms by a
    term quadratic in dphi, so its agreement_sigmas() is not the campaign's verdict: compare
    empirical_rms_error with phase_exact_stats' rms, in units of rms_standard_error.
    """
    if not (abs(dphi_true) < PHASE_LINEARIZATION_GUARD):  # nan fails this too
        raise ValueError(
            f"|dphi| must be below the linearization guard {PHASE_LINEARIZATION_GUARD}"
        )
    _check_trials(trials)
    analytic_rms = phase_rms_error(num_nodes, total_photons, ancilla_photons, eta)  # domain first
    marginal, weights = _phase_marginal(num_nodes, total_photons, ancilla_photons, eta, dphi_true)
    return _run_campaign(marginal, weights, target=dphi_true, trials=trials, seed=seed,
                         analytic_rms=analytic_rms)
