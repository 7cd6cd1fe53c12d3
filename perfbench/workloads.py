"""Seeded inputs, ops and output checks of the four benchmark workloads.

A workload hands out its ops in blocks. Block b of seed s and size n
depends only on (s, b, n), so a run is reproducible from its seed, and a
run stops only at a block boundary. A block of size n holds n times the ops
of a block of size 1; a timed run picks n so that one block fills its time
at this commit's speed (Workload.unit_s), so host speed drift does not
change how many ops a run measures, nor which percentile op_tail_s is.
The node counts M of a block follow a fixed design of their distribution,
the same for every seed: k strata of [0, 1) per op kind, two mirrored
points (j + u) / k and (j + 1 - u) / k in stratum j, with u moving along a
golden-ratio sequence from block to block, mapped through the inverse
distribution. u starts at 1/4, so the points of block 0 (the only block of
a timed mc-network run) are evenly spaced: no two ops of a kind share an
M, and no wide gap in op cost sits next to the median latency. The dense checks of
oracle-small take the first point of each pair, one per round, which over
the thousands of size-1 blocks of a run is the same low-discrepancy
sequence for every seed. The seed draws everything else (photon budgets,
transmissivities, weights, displacements, Monte Carlo seeds) and the order
of the ops. Op cost grows steeply with M, so this keeps the work of a run
the same for every seed: with M drawn by the seed, the dense checks of
oracle-small seeds 1 and 2 differed in median latency by a quarter on
the same host.

An op is (kind, params). RUNNERS[kind](params, ctx) calls cvsense and returns
its output; only that call is timed. CHECKERS[kind](params, output) compares
the output with oracle.py, raises oracle.Mismatch when it disagrees, and
returns counts (outcomes, bytes written, CSV digests) for the report.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

MC_TRIALS = 20_000
# (kind, strata): a block holds two ops per stratum, so 6 : 2 : 2 and 6 : 2.
MC_MIX = (("entangled", 3), ("heterogeneous", 1), ("product", 1))
ALLOCATE_STRATA, JOINT_STRATA = 3, 1
FOCK_CUTOFF = 60
CLI_SEED_POOL = 32
CLI_TIMEOUT_S = 120
BOOTSTRAP = Path(__file__).resolve().with_name("cli_bootstrap.py")

# Each round of cli-configs runs the seven README invocations; None is
# replaced by the round's seed.
CLI_INVOCATIONS = (
    ("rms-curve", "--photons-per-node", "1.0", "--m-min", "10", "--m-max", "10000"),
    ("ratio-curve", "--mode", "vs-M", "--total-photons", "10"),
    ("ratio-curve", "--mode", "vs-loss", "--total-photons", "10"),
    ("monte-carlo", "--config", "configs/fig1_check.cfg", "--seed", None),
    ("weighted", "--config", "configs/weighted_m2.cfg"),
    ("fisher", "--draws", "20", "--seed", None),
    ("phase", "--config", "configs/phase_sweep.cfg", "--seed", None),
)


@dataclass
class Context:
    """What an op needs besides its params: the scratch directory and the tracer, if any."""

    work_dir: Path
    tracer: object = None
    cli_ops: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    package: str  # what a worker imports during set-up
    block: object  # (seed, b, size) -> list of ops
    # Seconds a size-1 block took at the commit that added the benchmark, on
    # a 2-vCPU host, or None to keep size-1 blocks: with thousands of ops a
    # run, the op count barely moves the percentile behind op_tail_s.
    unit_s: float | None
    trace_blocks: int  # size-1 blocks in a traced run; fixed so its counts repeat exactly

    def size_for(self, seconds):
        """Block size whose block takes about `seconds` at the speed of unit_s."""
        return 1 if self.unit_s is None else max(1, round(seconds / self.unit_s))


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _design(b, k, shift=0.0):
    """2k points of [0, 1]: two mirrored points in each of k strata, set by block b alone."""
    u = (0.25 + shift + b * GOLDEN) % 1.0
    j = np.arange(k)
    return np.concatenate([(j + u) / k, (j + 1.0 - u) / k])


def _shuffled(ops, rng):
    return [ops[i] for i in rng.permutation(len(ops))]


# -- mc-network --------------------------------------------------------------


def mc_block(seed, b, size=1):
    rng = np.random.default_rng([seed, b, size])
    ops = []
    for kind, strata in MC_MIX:
        for u in _design(b, strata * size):
            m = int(round(32 * 16**u))
            het = kind == "heterogeneous"
            ops.append(("mc", {
                "scheme": "product" if kind == "product" else "entangled",
                "m": m,
                "photons": rng.uniform(1.0, 20.0),
                "eta": rng.uniform(0.5, 1.0, m) if het else rng.uniform(0.5, 1.0),
                "weights": rng.dirichlet(np.ones(m)) if het else None,
                "alpha": rng.uniform(-0.2, 0.2),
                "seed": int(rng.integers(2**32)),
            }))
    return _shuffled(ops, rng)


def run_mc(p, ctx):
    from cvsense import protocols

    cfg = protocols.SensorNetworkConfig(
        num_nodes=p["m"], total_photons=p["photons"], eta=p["eta"],
        weights=p["weights"], scheme=p["scheme"], alpha_true=p["alpha"],
        seed=p["seed"], trials=MC_TRIALS,
    )
    return protocols.simulate_displacement_protocol(cfg)


def check_mc(p, report):
    m = p["m"]
    weights = p["weights"] if p["weights"] is not None else np.full(m, 1.0 / m)
    photons = p["photons"] / m if p["scheme"] == "product" else p["photons"]
    want = oracle.rms(weights, p["eta"], photons)
    oracle.expect_close("analytic rms", report.analytic_rms, want, rtol=oracle.CLOSED_FORM_RTOL)
    if report.trials != MC_TRIALS:
        raise oracle.Mismatch("trial count", f"{report.trials} != {MC_TRIALS}")
    sigma = want / np.sqrt(2.0 * MC_TRIALS)
    if abs(report.empirical_rms_error - want) >= oracle.MC_SIGMAS * sigma:
        raise oracle.Mismatch("monte carlo rms", f"{report.empirical_rms_error} vs {want} +- {sigma}")
    return {"outcomes": MC_TRIALS * m}


# -- alloc-heterogeneous -----------------------------------------------------


def alloc_block(seed, b, size=1):
    rng = np.random.default_rng([seed, b, size])
    ops = []
    for u in _design(b, ALLOCATE_STRATA * size):
        m = int(round(2 * 64**u))
        ops.append(("allocate", {
            "weights": rng.dirichlet(np.ones(m)),
            "etas": rng.uniform(0.3, 1.0, m),
            "photons": rng.uniform(1.0, 20.0),
        }))
    for u in _design(b, JOINT_STRATA * size, 0.5):
        m = min(2 + int(u * 11), 12)
        ops.append(("joint", {"etas": rng.uniform(0.3, 1.0, m), "photons": rng.uniform(1.0, 20.0)}))
    return _shuffled(ops, rng)


def run_allocate(p, ctx):
    from cvsense import allocation

    net = allocation.WeightedNetwork(p["weights"].size, p["weights"], p["etas"], p["photons"])
    return (allocation.weighted_entangled_rms(net),
            allocation.allocate_photons_product(net),
            allocation.optimal_weights_entangled(p["etas"], p["photons"]))


def _check_allocation(weights, etas, budget, result):
    n = np.asarray(result.photons, dtype=float)
    if n.shape != weights.shape or np.any(n < 0.0):
        raise oracle.Mismatch("photon vector", f"{n}")
    oracle.expect_close("photon budget", n.sum(), budget, rtol=oracle.BUDGET_RTOL)
    oracle.expect_close("allocation objective", result.objective, oracle.rms(weights, etas, n),
                        rtol=oracle.CLOSED_FORM_RTOL)
    equal = oracle.rms(weights, etas, budget / n.size)
    if result.objective > equal * (1.0 + oracle.CLOSED_FORM_RTOL):
        raise oracle.Mismatch("worse than equal split", f"{result.objective} > {equal}")
    residual = oracle.kkt_residual(weights, etas, n)
    if residual > oracle.KKT_TOL:
        raise oracle.Mismatch("kkt residual", f"{residual:.3e}")


def check_allocate(p, out):
    rms, result, w_opt = out
    oracle.expect_close("entangled rms", rms, oracle.rms(p["weights"], p["etas"], p["photons"]),
                        rtol=oracle.CLOSED_FORM_RTOL)
    coeffs = p["etas"] * oracle.kappa(p["photons"]) + 1.0 - p["etas"]
    oracle.expect_close("entangled weights", w_opt, (1.0 / coeffs) / np.sum(1.0 / coeffs),
                        rtol=oracle.CLOSED_FORM_RTOL)
    _check_allocation(p["weights"], p["etas"], p["photons"], result)
    return {}


def run_joint(p, ctx):
    from cvsense import allocation

    return allocation.optimal_weights_product(p["etas"], p["photons"])


def check_joint(p, out):
    weights, result = out
    weights = np.asarray(weights, dtype=float)
    m = p["etas"].size
    if weights.shape != (m,) or np.any(weights < 0.0) or abs(weights.sum() - 1.0) > oracle.WEIGHT_SUM_TOL:
        raise oracle.Mismatch("product weights", f"{weights}")
    baseline = oracle.rms(np.full(m, 1.0 / m), p["etas"], p["photons"] / m)
    if result.objective > baseline * (1.0 + oracle.CLOSED_FORM_RTOL):
        raise oracle.Mismatch("worse than equal weights", f"{result.objective} > {baseline}")
    _check_allocation(weights, p["etas"], p["photons"], result)
    return {}


# -- oracle-small --------------------------------------------------------------


def _single_mode(rng):
    radius, phase = rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * np.pi)
    cov = oracle.squeezed_thermal_cov(rng.uniform(0.0, 1.2), rng.uniform(0.0, 0.5),
                                      rng.uniform(0.0, np.pi))
    return radius * np.array([np.cos(phase), np.sin(phase)]), cov


def _bounded_weights(rng, m):
    """Heterogeneous weights no smaller than a tenth of the largest.

    Not Dirichlet(1): a weight below ~1e-6 on a late node makes the package's
    Gram-Schmidt splitter fail its own symplectic check (README, defect 4),
    about one dense op in 15 000, and a listed workload must not fail ops.
    """
    w = rng.uniform(0.1, 1.0, m)
    return w / w.sum()


def oracle_block(seed, b, size=1):
    """size rounds of the three checks, in this order."""
    rng = np.random.default_rng([seed, b, size])
    ops = []
    for u in _design(b, size)[:size]:
        (mean_a, cov_a), (mean_b, cov_b) = _single_mode(rng), _single_mode(rng)
        m = 2 + int(u * 49)
        ops += [
            ("fock", {"mean_a": mean_a, "cov_a": cov_a, "mean_b": mean_b, "cov_b": cov_b}),
            ("fisher", {"r": rng.uniform(0.0, 1.5), "n": rng.uniform(0.0, 1.0),
                        "theta": rng.uniform(0.0, np.pi), "eta": rng.uniform(0.3, 1.0)}),
            ("dense", {"weights": _bounded_weights(rng, m), "etas": rng.uniform(0.3, 1.0, m),
                       "photons": rng.uniform(1.0, 20.0)}),
        ]
    return ops


def run_fock(p, ctx):
    from cvsense import fisher, fock, gaussian

    a = gaussian.GaussianState(p["mean_a"], p["cov_a"])
    b = gaussian.GaussianState(p["mean_b"], p["cov_b"])
    rho_a = fock.gaussian_to_fock(a, FOCK_CUTOFF)
    rho_b = fock.gaussian_to_fock(b, FOCK_CUTOFF)
    return fock.fock_fidelity(rho_a, rho_b), fisher.gaussian_fidelity(a, b)


def check_fock(p, out):
    from_fock, closed = out
    want = oracle.fidelity(p["mean_a"], p["cov_a"], p["mean_b"], p["cov_b"])
    oracle.expect_close("fock fidelity", from_fock, want, atol=oracle.FOCK_FIDELITY_ATOL)
    oracle.expect_close("gaussian fidelity", closed, want, atol=oracle.GAUSSIAN_FIDELITY_ATOL)
    return {}


def run_fisher(p, ctx):
    from cvsense import fisher

    params = fisher.SqueezedThermalParams(r=p["r"], n=p["n"], theta=p["theta"])
    return fisher.fisher_closed_form(params, p["eta"]), fisher.fisher_numeric(params, p["eta"])


def check_fisher(p, out):
    closed, numeric = out
    cov = oracle.lossy_cov(oracle.squeezed_thermal_cov(p["r"], p["n"], p["theta"]), p["eta"])
    want = oracle.displacement_fisher(cov)
    oracle.expect_close("fisher closed form", closed, want, rtol=oracle.CLOSED_FORM_RTOL)
    oracle.expect_close("fisher numeric", numeric, want, rtol=oracle.FISHER_NUMERIC_RTOL)
    return {}


def run_dense(p, ctx):
    from cvsense import protocols

    cfg = protocols.SensorNetworkConfig(
        num_nodes=p["weights"].size, total_photons=p["photons"], eta=p["etas"],
        weights=p["weights"], scheme="entangled", trials=1,
    )
    return protocols.analytic_config_rms(cfg)


def check_dense(p, rms):
    oracle.expect_close("dense rms", rms, oracle.rms(p["weights"], p["etas"], p["photons"]),
                        rtol=oracle.CLOSED_FORM_RTOL)
    return {}


# -- cli-configs ---------------------------------------------------------------


def cli_invocations(cli_seed):
    return [[str(cli_seed) if a is None else a for a in inv] for inv in CLI_INVOCATIONS]


def cli_block(seed, b, size=1):
    """size whole rounds of the seven invocations, each round with the next seed of the pool.

    Blocks hold whole rounds, so a timed run always measures the same mix of
    cheap and expensive invocations.
    """
    rng = np.random.default_rng([seed, b, size])
    rounds = range(b * size, (b + 1) * size)
    ops = [("cli", {"args": args}) for r in rounds
           for args in cli_invocations((seed + r) % CLI_SEED_POOL)]
    return _shuffled(ops, rng)


@dataclass
class CliOutput:
    returncode: int
    stderr: str
    csv_path: Path


def run_cli(p, ctx):
    ctx.cli_ops += 1
    out = ctx.work_dir / f"cli-{ctx.cli_ops}.csv"
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "cvsense.cli"]
    else:
        spans = ctx.work_dir / f"cli-{ctx.cli_ops}.spans.json"
        cmd = [sys.executable, str(BOOTSTRAP), str(spans), str(ctx.tracer.op)]
    proc = subprocess.run(cmd + p["args"] + ["--out", str(out)], capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    if ctx.tracer is not None and spans.exists():
        ctx.tracer.absorb(json.loads(spans.read_text()))
    return CliOutput(proc.returncode, proc.stderr, out)


def check_cli(p, out):
    if out.returncode != 0:
        raise oracle.Mismatch("exit code", f"{out.returncode}: {out.stderr.strip()[-300:]}")
    try:
        body = out.csv_path.read_bytes()
        manifest_bytes = Path(str(out.csv_path) + ".manifest.json").read_bytes()
        recorded = json.loads(manifest_bytes)["csv_sha256"]
    except (OSError, ValueError, KeyError) as exc:
        raise oracle.Mismatch("output files", repr(exc)) from None
    digest = hashlib.sha256(body).hexdigest()
    if recorded != digest:
        raise oracle.Mismatch("manifest digest", digest)
    if p["args"][0] == "monte-carlo":
        rows = list(csv.DictReader(io.StringIO(body.decode())))
        if not rows or any(row["status"] != "PASS" for row in rows):
            raise oracle.Mismatch("monte carlo status", [row["status"] for row in rows])
    return {"bytes": len(body) + len(manifest_bytes), "digests": {" ".join(p["args"]): digest}}


RUNNERS = {
    "mc": run_mc, "allocate": run_allocate, "joint": run_joint, "fock": run_fock,
    "fisher": run_fisher, "dense": run_dense, "cli": run_cli,
}
CHECKERS = {
    "mc": check_mc, "allocate": check_allocate, "joint": check_joint, "fock": check_fock,
    "fisher": check_fisher, "dense": check_dense, "cli": check_cli,
}

WORKLOADS = {
    "mc-network": Workload("mc-network", "cvsense", mc_block, unit_s=4.4, trace_blocks=1),
    "alloc-heterogeneous": Workload("alloc-heterogeneous", "cvsense", alloc_block, unit_s=1.7,
                                    trace_blocks=2),
    "cli-configs": Workload("cli-configs", "cvsense.cli", cli_block, unit_s=7.2, trace_blocks=1),
    "oracle-small": Workload("oracle-small", "cvsense", oracle_block, unit_s=None,
                             trace_blocks=300),
}
