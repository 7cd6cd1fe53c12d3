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
# Most random draws one fisher sweep takes. Each costs about 0.2 ms (2-CPU x86-64 host)
# and holds its CSV row in memory until the end, so the largest sweep runs in about 20 s.
FISHER_MAX_DRAWS = 100_000
# Most trials one campaign takes: a monte-carlo case or a phase shift, from --trials or a
# config's trials. A trial costs about 40 ns a node at M <= 4 (one thread, 2-CPU x86-64
# host), so a small network's largest campaign takes about 4-7 s. Its per-chunk sums hold
# 16 bytes for each chunk of max(1, 2^15 // M) trials: 0.2 MB at M = 4, and 1.6 GB only
# where a chunk is a single trial (M >= 2^15), whose run the node count already rules out.
CAMPAIGN_MAX_TRIALS = 10**8


class UsageError(Exception):
    """A bad invocation or config: exit 1 with the message."""


class StatisticalFailure(Exception):
    pass


def _status(sigmas):
    """A campaign row's verdict: FAIL at a gap of 4 standard errors or more, or a nan one."""
    return "PASS" if sigmas < 4.0 else "FAIL"


def _failure(rows, what):
    """The failure of a campaign table whose rows end in their status, or None."""
    return None if all(row[-1] == "PASS" for row in rows) else f"{what} by >= 4 sigma"


def _fmt(value):
    return format(value, ".12g") if isinstance(value, float) else str(value)


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
_TRIALS = _number(int, 1, CAMPAIGN_MAX_TRIALS)


def _seed(value):
    from .protocols import SEED_MAX

    seed = int(value)
    if not 0 <= seed <= SEED_MAX:
        raise argparse.ArgumentTypeError(f"must lie in [0, {SEED_MAX}]")
    return seed


def _float_list(value):
    return [float(v) for v in value.replace(",", " ").split()]


# -- config parsing -------------------------------------------------------


# A config key: its value type, the library keyword it feeds, whether a config must give it,
# its default where the library has none, and the sections it may appear in: "file", "case".
_Key = namedtuple("_Key", "convert name required default sections",
                  defaults=(False, None, ("file",)))
_SEED_KEY = _Key(_seed, "seed", default=0)


def parse_config(path, keys, **options):
    """Read a flat `key = value` config with optional repeated [case] sections into the
    keywords of the library call that `keys` feeds: one dict per [case], else a single one.

    A given option beats a [case] value, which beats the file-level value, which beats the
    key's default; a key with none is not passed, so the library's default holds.
    """
    takes_cases = any("case" in key.sections for key in keys.values())
    sections = [{}]  # the file level, then one per [case]
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[case]":
            if not takes_cases:
                raise UsageError(f"{path}:{lineno}: [case] sections not allowed here")
            sections.append({})
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        target = sections[-1]
        if key not in keys or ("case" if len(sections) > 1 else "file") not in keys[key].sections:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key in target:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            target[key] = keys[key].convert(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}")
    file_level, *cases = sections
    if takes_cases and not cases:
        raise UsageError(f"{path}: no [case] sections")
    defaults = {key: spec.default for key, spec in keys.items()}
    runs = []
    for index, case in enumerate(cases or [{}]):
        # A later layer wins; None (an option not given, no default) is no value.
        values = {key: value for layer in (defaults, file_level, case, options)
                  for key, value in layer.items() if value is not None}
        for key, spec in keys.items():
            if spec.required and key not in values:
                raise UsageError(f"{path}: {f'case {index}: ' if cases else ''}missing key {key!r}")
        runs.append({keys[key].name: value for key, value in values.items()})
    return runs


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


_MONTE_CARLO_KEYS = {
    "seed": _SEED_KEY,
    "trials": _Key(_TRIALS, "trials", sections=("file", "case")),
    "M": _Key(int, "num_nodes", required=True, sections=("case",)),
    "N_S": _Key(float, "total_photons", required=True, sections=("case",)),
    "eta": _Key(_float_list, "eta", sections=("case",)),
    "weights": _Key(_float_list, "weights", sections=("case",)),
    "scheme": _Key(str, "scheme", sections=("case",)),
    "alpha": _Key(float, "alpha_true", sections=("case",)),
}


@command(
    "monte-carlo",
    CONFIG,
    Option("--seed", "seed", _seed, None, "Override the config seed."),
    Option("--trials", "trials", _TRIALS, None,
           f"Override per-case trial counts, at most {CAMPAIGN_MAX_TRIALS}."),
)
def cmd_monte_carlo(config_path, seed, trials):
    """Monte Carlo validation of the closed-form rms errors; exit 2 on a 4-sigma miss."""
    from . import protocols

    cases = parse_config(config_path, _MONTE_CARLO_KEYS, seed=seed, trials=trials)
    rows = []
    for index, case in enumerate(cases):
        try:
            cfg = protocols.SensorNetworkConfig(**{**case, "seed": (case["seed"], index)})
            report = protocols.simulate_displacement_protocol(cfg)
        except ValueError as exc:
            raise ValueError(f"case {index}: {exc}") from exc
        sigmas = report.agreement_sigmas()
        rows.append((
            index, cfg.scheme, cfg.num_nodes, cfg.total_photons,
            _fmt_vector(cfg.eta[:1] if np.all(cfg.eta == cfg.eta[0]) else cfg.eta),
            cfg.alpha_true, report.trials, report.empirical_mean, report.empirical_rms_error,
            report.rms_standard_error, report.analytic_rms, sigmas, _status(sigmas),
        ))
    header = ["case", "scheme", "M", "N_S", "eta", "alpha", "trials", "empirical_mean",
              "empirical_rms", "rms_standard_error", "analytic_rms", "sigma_gap", "status"]
    failure = _failure(rows, "one or more cases missed the analytic rms")
    return Result(header, rows, cases[0]["seed"], failure=failure)


_WEIGHTED_KEYS = {
    "N_S": _Key(float, "total_photons", required=True),
    "etas": _Key(_float_list, "etas", required=True),
    "weights": _Key(_float_list, "weights"),
}


@command("weighted", CONFIG)
def cmd_weighted(config_path):
    """Heterogeneous-network closed forms, photon allocation and weight optimization."""
    from . import allocation

    [run] = parse_config(config_path, _WEIGHTED_KEYS)
    net = allocation.WeightedNetwork(
        len(run["etas"]), run.get("weights"), run["etas"], run["total_photons"])
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
    Option("--draws", "draws", _number(int, 0, FISHER_MAX_DRAWS), 20,
           f"Random parameter draws to sweep, at most {FISHER_MAX_DRAWS} (default 20)."),
    Option("--seed", "seed", _seed, 0, "seed in [0, 2^32 - 1] (default 0)"),
)
def cmd_fisher(draws, seed):
    """Fisher-information sweep (closed form vs fidelity-limit numeric) + CR-bound table."""
    from . import fisher, protocols

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = []
    cases = [fisher.SqueezedThermalParams()] + [  # the vacuum reference row, then the draws
        fisher.SqueezedThermalParams(r=rng.uniform(0.0, 1.5), n=rng.uniform(0.0, 1.0),
                                     theta=rng.uniform(0.0, np.pi)) for _ in range(draws)]
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


_PHASE_KEYS = {
    "M": _Key(int, "num_nodes", required=True),
    "N_S": _Key(float, "total_photons", required=True),
    "N_v": _Key(float, "ancilla_photons", required=True),
    "eta": _Key(float, "eta", default=1.0),
    "dphi": _Key(_float_list, "dphi", required=True),
    "trials": _Key(_TRIALS, "trials"),
    "seed": _SEED_KEY,
}


@command(
    "phase",
    CONFIG,
    Option("--seed", "seed", _seed, None, "Override the config seed."),
    Option("--trials", "trials", _TRIALS, None,
           f"Override the config trial count, at most {CAMPAIGN_MAX_TRIALS}."),
)
def cmd_phase(config_path, seed, trials):
    """Mach-Zehnder network sweep vs the exact and linearized rms; exit 2 on a 4-sigma miss."""
    from . import protocols

    [run] = parse_config(config_path, _PHASE_KEYS, seed=seed, trials=trials)
    dphis, run_seed = run.pop("dphi"), run.pop("seed")
    if not dphis:
        raise ValueError("dphi lists no phase shift")
    network = {key: value for key, value in run.items() if key != "trials"}
    rows = []
    for index, dphi in enumerate(dphis):
        report = protocols.simulate_phase_protocol(**run, dphi_true=dphi, seed=(run_seed, index))
        exact_rms = protocols.phase_exact_stats(**network, dphi=dphi)[2]
        linearized = report.analytic_rms
        sigmas = abs(report.empirical_rms_error - exact_rms) / report.rms_standard_error
        rows.append((dphi, report.trials, report.empirical_mean, report.empirical_mean - dphi,
                     report.empirical_rms_error, report.rms_standard_error, linearized,
                     exact_rms, abs(exact_rms - linearized), sigmas, _status(sigmas)))
    header = ["dphi", "trials", "empirical_mean", "bias", "empirical_rms",
              "rms_standard_error", "linearized_rms", "exact_rms", "linearization_residual",
              "sigma_gap", "status"]
    failure = _failure(rows, "one or more phase shifts missed the exact rms")
    return Result(header, rows, run_seed, failure=failure)


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


def _run(argv):
    """Parse and run one command, then write its CSV and manifest.

    The command's ValueError becomes a UsageError naming its config, and a failed write
    one naming its path. Each distinct warning it raised is printed once and noted once,
    after its own notes.
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
        except ValueError as exc:
            where = f"{args['config_path']}: " if "config_path" in args else ""
            raise UsageError(f"{where}{exc}") from exc
        finally:
            raised = list(dict.fromkeys(str(w.message) for w in caught))
            for text in raised:
                print(f"warning: {text}", file=sys.stderr)
    try:
        body = _write_csv(params["out"], result.header, result.rows)
        _write_manifest(params["out"], name, argv, params, result.seed,
                        [*result.notes, *raised], body)
    except OSError as exc:  # such as an --out in a missing or read-only directory
        raise UsageError(f"cannot write {exc.filename or params['out']}: "
                         f"{exc.strerror or exc}") from exc
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
