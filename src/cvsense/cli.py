"""Command-line front end: curve generation, Monte Carlo campaigns,
allocation runs, and Fisher-information reports.

Every command writes a CSV plus a JSON manifest sidecar recording the
exact invocation, seed, version and output checksum; identical
(command, config, seed) produce byte-identical CSV bodies.

Exit codes: 0 success, 1 usage/config error or a run too large for memory,
2 statistical-validation failure, 3 non-convergence (any RuntimeError).

Each command imports the cvsense modules it calls when it runs, so a
process pays only for its own command.
"""

import argparse
import gc
import hashlib
import json
import math
import sys
import warnings
from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__

EXIT_USAGE = 1
EXIT_STATISTICAL = 2
EXIT_NONCONVERGENCE = 3

POINTS_PER_DECADE = 20
MANIFEST_SCHEMA = 2


class UsageError(Exception):
    """A bad invocation or config: exit 1 with the message."""


class StatisticalFailure(Exception):
    pass


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _fmt_vector(values):
    """A vector cell: its values, ;-separated."""
    return ";".join(_fmt(float(v)) for v in values)


def _write_csv(path, header, rows):
    body = ",".join(header) + "\n"
    body += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    with open(path, "w") as fh:
        fh.write(body)
    return body


def _write_manifest(out_path, command, argv, params, seed, notes, body):
    """Sidecar recording the invocation: main's argv and the command's parsed parameters."""
    manifest = {
        "manifest_schema": MANIFEST_SCHEMA,
        "command": command,
        "argv": argv,
        "params": params,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "csv_sha256": hashlib.sha256(body.encode()).hexdigest(),
        "notes": notes,
    }
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def _log_spaced(m_min, m_max):
    if m_max < m_min:
        raise UsageError("need 1 <= m-min <= m-max")
    decades = np.log10(m_max / m_min)
    count = max(2, int(round(decades * POINTS_PER_DECADE)) + 1)
    grid = np.round(np.logspace(np.log10(m_min), np.log10(m_max), count)).astype(int)
    # The grid is sorted, so its distinct values are where it steps; np.unique would load numpy.ma.
    values = grid[np.r_[True, grid[1:] != grid[:-1]]]
    return values[values >= 1]


# -- value types: ValueError on a malformed value, ArgumentTypeError on one out of range;
# argparse and parse_config report either.


def _number(kind, low, high=None, low_open=False):
    """A finite `kind` in [low, high], or (low, high] when low_open; high None is no bound."""
    span = (f"in {'(' if low_open else '['}{low}, {high}]" if high is not None
            else f"{'>' if low_open else '>='} {low}")

    def convert(text):
        value = kind(text)
        above = value > low if low_open else value >= low  # nan fails both
        if not ((kind is int or math.isfinite(value)) and above
                and (high is None or value <= high)):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite {kind.__name__} {span}")
        return value

    convert.__name__ = kind.__name__  # argparse's "invalid float value: 'x'"
    return convert


PHOTONS = _number(float, 0.0)
ETA = _number(float, 0.0, 1.0, low_open=True)
NODES = _number(int, 1)


def _seed(value):
    from .protocols import SEED_MAX

    seed = int(value)
    if not 0 <= seed <= SEED_MAX:
        raise argparse.ArgumentTypeError(f"must lie in [0, {SEED_MAX}]")
    return seed


def _float_list(value):
    return [float(v) for v in value.replace(",", " ").split()]


# -- config parsing -------------------------------------------------------


def parse_config(path, scalar_keys, case_keys=None):
    """Flat key = value schema with optional repeated [case] sections.

    Unknown keys are hard errors, reported with their line number.
    """
    scalars = {}
    cases = []
    current = None
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[case]":
            if case_keys is None:
                raise UsageError(f"{path}:{lineno}: [case] sections not allowed here")
            current = {}
            cases.append(current)
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        table = scalar_keys if current is None else case_keys
        target = scalars if current is None else current
        if key not in table:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key in target:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            target[key] = table[key](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}")
    return scalars, cases


# -- the command table ----------------------------------------------------

# flag, the parameter's name, value type, default, help; multiple options repeat.
Option = namedtuple("Option", "flag name convert default help choices multiple required",
                    defaults=(None, None, False, False))
Command = namedtuple("Command", "run summary options")
# What a command computed: the CSV, the manifest's seed and notes, and a failure to raise
# once both files are written.
Result = namedtuple("Result", "header rows seed notes failure", defaults=((), None))

OUT = Option("--out", "out", str, None, "CSV path; the manifest goes to <out>.manifest.json",
             required=True)
CONFIG = Option("--config", "config_path", str, None, "config file", required=True)
COMMANDS = {}


def command(name, *options):
    """Register a command: it takes its options' values by name, except --out."""
    def register(run):
        COMMANDS[name] = Command(run, run.__doc__, options + (OUT,))
        return run
    return register


@command(
    "rms-curve",
    Option("--scheme", "scheme", str, "both", "(default both)",
           choices=("entangled", "product", "both")),
    Option("--eta", "etas", ETA, (1.0,), "transmissivity in (0, 1]; repeatable",
           multiple=True),
    Option("--photons-per-node", "photons_per_node", PHOTONS, None,
           "Fix N_S/M across the sweep (scaling mode)."),
    Option("--total-photons", "total_photons", PHOTONS, None, "Fix N_S across the sweep."),
    Option("--m-min", "m_min", NODES, 10, "smallest node count (default 10)"),
    Option("--m-max", "m_max", NODES, 10_000, "largest node count (default 10000)"),
)
def cmd_rms_curve(scheme, etas, photons_per_node, total_photons, m_min, m_max):
    """rms error versus node count for both schemes."""
    from . import protocols

    if (photons_per_node is None) == (total_photons is None):
        raise UsageError("specify exactly one of --photons-per-node / --total-photons")
    schemes = ["entangled", "product"] if scheme == "both" else [scheme]
    formulas = {"entangled": protocols.entangled_rms_error,
                "product": protocols.product_rms_error}
    ms = _log_spaced(m_min, m_max)
    n_s = total_photons if total_photons is not None else photons_per_node * ms
    per_node = n_s / ms
    rows = []
    for eta in etas:
        curves = [formulas[sch](ms, n_s, eta) for sch in schemes]
        for i, m in enumerate(ms):
            for sch, curve in zip(schemes, curves):
                rows.append((m, float(curve[i]), sch, eta, per_node[i]))
    return Result(["M", "delta_alpha", "scheme", "eta", "n_S"], rows, None)


@command(
    "ratio-curve",
    Option("--mode", "mode", str, None, choices=("vs-M", "vs-loss"), required=True),
    Option("--total-photons", "total_photons", PHOTONS, 10.0, "N_S (default 10)"),
    Option("--eta", "etas", ETA, (0.5, 0.8, 0.9, 0.95, 0.99, 1.0),
           "vs-M transmissivity in (0, 1]; repeatable", multiple=True),
    Option("--m", "node_counts", NODES, (5, 10, 20, 50, 100, 1000),
           "vs-loss node count; repeatable", multiple=True),
    Option("--m-min", "m_min", NODES, 1, "vs-M smallest node count (default 1)"),
    Option("--m-max", "m_max", NODES, 1000, "vs-M largest node count (default 1000)"),
    Option("--loss-db-max", "loss_db_max", _number(float, 0.0), 10.0,
           "vs-loss largest loss in dB (default 10)"),
)
def cmd_ratio_curve(mode, total_photons, etas, node_counts, m_min, m_max, loss_db_max):
    """Product/entangled sensitivity ratio in dB, versus M or versus loss."""
    from . import protocols

    rows = []
    if mode == "vs-M":
        header = ["M", "ratio_db", "eta", "N_S"]
        ms = _log_spaced(m_min, m_max)
        for eta in etas:
            ratios = protocols.sensitivity_ratio_db(ms, total_photons, eta)
            rows += [(m, float(r), eta, total_photons) for m, r in zip(ms, ratios)]
    else:
        header = ["loss_db", "ratio_db", "M", "N_S"]
        loss_grid = np.linspace(0.0, loss_db_max, 101)
        loss_etas = 10.0 ** (-loss_grid / 10.0)
        for m in node_counts:
            ratios = protocols.sensitivity_ratio_db(m, total_photons, loss_etas)
            rows += [(float(db), float(r), m, total_photons) for db, r in zip(loss_grid, ratios)]
    return Result(header, rows, None, (protocols.EIGHT_DB_NOTE,))


_MC_SCALARS = {"seed": _seed, "trials": int}
_MC_CASE = {
    "M": int, "N_S": float, "eta": _float_list, "weights": _float_list,
    "scheme": str, "alpha": float, "trials": int,
}


@command(
    "monte-carlo",
    CONFIG,
    Option("--seed", "seed", _seed, None, "Override the config seed."),
    Option("--trials", "trials", int, None, "Override per-case trial counts."),
)
def cmd_monte_carlo(config_path, seed, trials):
    """Monte Carlo validation of the closed-form rms errors; exit 2 on a 4-sigma miss."""
    from . import protocols

    scalars, cases = parse_config(config_path, _MC_SCALARS, _MC_CASE)
    if not cases:
        raise ValueError("no [case] sections")
    base_seed = seed if seed is not None else scalars.get("seed", 0)
    rows = []
    all_pass = True
    for index, case in enumerate(cases):
        case_trials = trials if trials is not None else case.get("trials", scalars.get("trials", 0))
        try:
            cfg = protocols.SensorNetworkConfig(
                num_nodes=case["M"],
                total_photons=case["N_S"],
                eta=case.get("eta", 1.0),
                weights=case.get("weights"),
                scheme=case.get("scheme", "entangled"),
                alpha_true=case.get("alpha", 0.0),
                seed=(base_seed, index),
                trials=case_trials,
            )
            report = protocols.simulate_displacement_protocol(cfg)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"case {index}: {_reason(exc)}") from exc
        sigmas = report.agreement_sigmas()
        status = "PASS" if sigmas < 4.0 else "FAIL"
        all_pass &= status == "PASS"
        rows.append((
            index, cfg.scheme, cfg.num_nodes, cfg.total_photons,
            _fmt_vector(cfg.eta[:1] if np.all(cfg.eta == cfg.eta[0]) else cfg.eta),
            cfg.alpha_true, report.trials, report.empirical_mean, report.empirical_rms_error,
            report.rms_standard_error, report.analytic_rms, sigmas, status,
        ))
    header = ["case", "scheme", "M", "N_S", "eta", "alpha", "trials", "empirical_mean",
              "empirical_rms", "rms_standard_error", "analytic_rms", "sigma_gap", "status"]
    failure = None if all_pass else "one or more cases missed the analytic rms by >= 4 sigma"
    return Result(header, rows, base_seed, failure=failure)


_WEIGHTED_SCALARS = {"N_S": float, "etas": _float_list, "weights": _float_list}


@command("weighted", CONFIG)
def cmd_weighted(config_path):
    """Heterogeneous-network closed forms, photon allocation and weight optimization."""
    from . import allocation

    scalars, _ = parse_config(config_path, _WEIGHTED_SCALARS)
    net = allocation.WeightedNetwork(
        len(scalars["etas"]), scalars.get("weights"), scalars["etas"], scalars["N_S"])
    etas, n_s = net.etas, net.total_photons
    alloc = allocation.allocate_photons_product(net)
    w_opt = allocation.optimal_weights_entangled(etas, n_s)
    w_prod, alloc_opt = allocation.optimal_weights_product(etas, n_s)
    rows = [
        ("entangled_closed_form", allocation.weighted_entangled_rms(net),
         _fmt_vector(net.weights), "", "", ""),
        ("product_allocation", alloc.objective, _fmt_vector(net.weights),
         _fmt_vector(alloc.photons), alloc.kkt_residual, alloc.iterations),
        ("optimized_entangled", allocation.weighted_rms(w_opt, etas, n_s),
         _fmt_vector(w_opt), "", "", ""),
        ("optimized_product", alloc_opt.objective, _fmt_vector(w_prod),
         _fmt_vector(alloc_opt.photons), alloc_opt.kkt_residual, alloc_opt.iterations),
    ]
    return Result(["kind", "objective", "weights", "photons", "kkt_residual", "iterations"],
                  rows, None)


@command(
    "fisher",
    Option("--draws", "draws", _number(int, 0), 20, "Random parameter draws to sweep."),
    Option("--seed", "seed", _seed, 0, "seed in [0, 2^32 - 1] (default 0)"),
)
def cmd_fisher(draws, seed):
    """Fisher-information sweep (closed form vs fidelity-limit numeric) + CR-bound table."""
    from . import fisher, protocols

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = []
    cases = [fisher.SqueezedThermalParams()]  # vacuum reference row
    for _ in range(draws):
        cases.append(
            fisher.SqueezedThermalParams(
                r=rng.uniform(0.0, 1.5),
                n=rng.uniform(0.0, 1.0),
                theta=rng.uniform(0.0, np.pi),
            )
        )
    eta_cycle = (1.0, 0.8, 0.5)
    for i, params in enumerate(cases):
        eta = 1.0 if i == 0 else eta_cycle[i % len(eta_cycle)]
        closed = fisher.fisher_closed_form(params, eta)
        numeric = fisher.fisher_numeric(params, eta)
        rows.append(("fisher", params.r, params.n, params.theta, eta,
                     closed, numeric, abs(numeric - closed) / closed, "", "", "", "", ""))
    for m in (1, 4, 20, 100):
        for n_s in (0.0, 1.0, 10.0):
            for eta in eta_cycle:
                bound = fisher.cr_bound_separable(m, n_s, eta)
                prod = float(protocols.product_rms_error(m, n_s, eta))
                rows.append(("crbound", "", "", "", eta, "", "", "",
                             m, n_s, bound, prod, abs(bound - prod)))
    header = ["row_type", "r", "n", "theta", "eta", "fisher_closed", "fisher_numeric",
              "rel_gap", "M", "N_S", "cr_bound", "product_rms", "difference"]
    return Result(header, rows, seed)


_PHASE_SCALARS = {
    "M": int, "N_S": float, "N_v": float, "eta": float,
    "dphi": _float_list, "trials": int, "seed": _seed,
}


@command(
    "phase",
    CONFIG,
    Option("--seed", "seed", _seed, None, "Override the config seed."),
    Option("--trials", "trials", int, None, "Override the config trial count."),
)
def cmd_phase(config_path, seed, trials):
    """Mach-Zehnder network sweep: empirical vs linearized rms and residuals."""
    from . import protocols

    scalars, _ = parse_config(config_path, _PHASE_SCALARS)
    m, n_s, n_v, dphis = scalars["M"], scalars["N_S"], scalars["N_v"], scalars["dphi"]
    eta = scalars.get("eta", 1.0)
    run_trials = trials if trials is not None else scalars.get("trials", 100_000)
    run_seed = seed if seed is not None else scalars.get("seed", 0)
    if not dphis:
        raise ValueError("dphi lists no phase shift")
    rows = []
    for index, dphi in enumerate(dphis):
        report = protocols.simulate_phase_protocol(
            m, n_s, n_v, eta, dphi, run_trials, (run_seed, index)
        )
        exact_rms = protocols.phase_exact_stats(m, n_s, n_v, eta, dphi)[2]
        linearized = report.analytic_rms
        rows.append((
            dphi, report.trials, report.empirical_mean,
            report.empirical_mean - dphi, report.empirical_rms_error,
            report.rms_standard_error, linearized, exact_rms,
            abs(exact_rms - linearized),
        ))
    header = ["dphi", "trials", "empirical_mean", "bias", "empirical_rms",
              "rms_standard_error", "linearized_rms", "exact_rms", "linearization_residual"]
    return Result(header, rows, run_seed)


# -- parsing --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad invocation as UsageError (exit 1) instead of exiting 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _parse(argv):
    """(command name, params): every option's value under its name, in declaration order."""
    parser = _Parser(prog="cvsense", allow_abbrev=False,
                     description="Distributed quadrature-sensing curves, campaigns and reports.")
    parser.add_argument("--version", action="version", version=f"cvsense, version {__version__}")
    commands = parser.add_subparsers(dest="command_", metavar="COMMAND", required=True,
                                     title="commands")
    for name, spec in COMMANDS.items():
        sub = commands.add_parser(name, help=spec.summary, description=spec.summary,
                                  allow_abbrev=False)
        for opt in spec.options:
            sub.add_argument(opt.flag, dest=opt.name, type=opt.convert, help=opt.help,
                             choices=opt.choices, required=opt.required,
                             action="append" if opt.multiple else "store",
                             default=None if opt.multiple else opt.default)
    namespace = parser.parse_args(argv)
    name = namespace.command_
    params = {}
    for opt in COMMANDS[name].options:
        value = getattr(namespace, opt.name)
        if opt.multiple:
            value = opt.default if value is None else tuple(value)
        params[opt.name] = value
    return name, params


def manifest_to_argv(manifest, out_path):
    """Rebuild the invocation a manifest records, writing to out_path instead."""
    if manifest.get("manifest_schema") != MANIFEST_SCHEMA:
        raise ValueError(f"unsupported manifest schema {manifest.get('manifest_schema')!r}")
    name = manifest["command"]
    if name not in COMMANDS:
        raise ValueError(f"unknown command in manifest: {name!r}")
    argv = [name]
    for opt in COMMANDS[name].options:
        value = manifest["params"].get(opt.name)
        if opt.name == "out" or value is None:
            continue
        for item in value if opt.multiple else [value]:
            argv.extend([opt.flag, str(item)])
    argv.extend(["--out", out_path])
    return argv


def _reason(exc):
    """A config or domain error's message: a KeyError names a config key the command needs."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _run(argv):
    """Parse and run one command, then write its CSV and manifest.

    The command's KeyError or ValueError becomes a UsageError naming its config. Each
    distinct warning it raised is printed once and noted once, after its own notes.
    """
    try:
        name, params = _parse(argv)
    except SystemExit as exc:  # --help and --version print, then exit 0
        return exc.code
    args = {key: value for key, value in params.items() if key != "out"}
    with warnings.catch_warnings(record=True) as caught:
        # Every UserWarning, not only the first from each line; other filters (error::...) hold.
        warnings.simplefilter("always", UserWarning)
        try:
            result = COMMANDS[name].run(**args)
        except (KeyError, ValueError) as exc:
            where = f"{args['config_path']}: " if "config_path" in args else ""
            raise UsageError(where + _reason(exc)) from exc
        finally:
            raised = list(dict.fromkeys(str(w.message) for w in caught))
            for text in raised:
                print(f"warning: {text}", file=sys.stderr)
    body = _write_csv(params["out"], result.header, result.rows)
    _write_manifest(params["out"], name, argv, params, result.seed,
                    [*result.notes, *raised], body)
    if result.failure:
        raise StatisticalFailure(result.failure)
    return 0


def main(argv=None):
    """Run one command and return its exit code; argv None reads sys.argv.

    With argv None the caller is the process entry, which exits next: the heap is
    then frozen, so that interpreter exit does not walk every live module object.
    """
    entry = argv is None
    argv = sys.argv[1:] if entry else list(argv)
    try:
        status = _run(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = EXIT_USAGE
    except (KeyboardInterrupt, EOFError):
        print("\nerror: interrupted", file=sys.stderr)
        status = EXIT_USAGE
    except MemoryError:  # numpy's allocation failures subclass it
        print("error: not enough memory for this run; lower the node count", file=sys.stderr)
        status = EXIT_USAGE
    except StatisticalFailure as exc:
        print(f"statistical validation failed: {exc}", file=sys.stderr)
        status = EXIT_STATISTICAL
    except RuntimeError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        status = EXIT_NONCONVERGENCE
    if entry:
        gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(main())
