"""Command-line front end: curve generation, Monte Carlo campaigns,
allocation runs, and Fisher-information reports.

Every command writes a CSV plus a JSON manifest sidecar recording the
exact invocation, seed, version and output checksum; identical
(command, config, seed) produce byte-identical CSV bodies.

Exit codes: 0 success, 1 usage/config error or a run too large for memory,
2 statistical-validation failure, 3 non-convergence (any RuntimeError).
"""

from __future__ import annotations

import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__, allocation, fisher, protocols
from .protocols import SEED_MAX

EXIT_USAGE = 1
EXIT_STATISTICAL = 2
EXIT_NONCONVERGENCE = 3

POINTS_PER_DECADE = 20
MANIFEST_SCHEMA = 2


class FiniteFloatRange(click.FloatRange):
    """A float range that also rejects nan and infinities, which FloatRange lets through."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not np.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv


PHOTONS = FiniteFloatRange(min=0.0)
ETA = FiniteFloatRange(0.0, 1.0, min_open=True)
NODES = click.IntRange(min=1)
SEED = click.IntRange(0, SEED_MAX)


class StatisticalFailure(Exception):
    pass


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _fmt_etas(etas):
    """One value when every node has the same transmissivity, else one per node."""
    if np.all(etas == etas[0]):
        return _fmt(etas[0])
    return ";".join(_fmt(e) for e in etas)


def _write_csv(path, header, rows):
    body = ",".join(header) + "\n"
    body += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    with open(path, "w") as fh:
        fh.write(body)
    return body


def _write_manifest(out_path, seed, body, notes=()):
    """Sidecar recording the invocation: main's argv and the command's parsed parameters."""
    ctx = click.get_current_context()
    manifest = {
        "manifest_schema": MANIFEST_SCHEMA,
        "command": ctx.info_name,
        "argv": ctx.obj,
        "params": ctx.params,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "csv_sha256": hashlib.sha256(body.encode()).hexdigest(),
        "notes": list(notes),
    }
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def _log_spaced(m_min, m_max):
    if m_max < m_min:
        raise click.UsageError("need 1 <= m-min <= m-max")
    decades = np.log10(m_max / m_min)
    count = max(2, int(round(decades * POINTS_PER_DECADE)) + 1)
    values = np.unique(
        np.round(np.logspace(np.log10(m_min), np.log10(m_max), count)).astype(int)
    )
    return values[values >= 1]


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
        raise click.UsageError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[case]":
            if case_keys is None:
                raise click.UsageError(f"{path}:{lineno}: [case] sections not allowed here")
            current = {}
            cases.append(current)
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        table = scalar_keys if current is None else case_keys
        target = scalars if current is None else current
        if key not in table:
            raise click.UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key in target:
            raise click.UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            target[key] = table[key](value)
        except ValueError as exc:
            raise click.UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}")
    return scalars, cases


def _float_list(value):
    return [float(v) for v in value.replace(",", " ").split()]


def _seed(value):
    seed = int(value)
    if not 0 <= seed <= SEED_MAX:
        raise ValueError(f"must lie in [0, {SEED_MAX}]")
    return seed


# -- commands -------------------------------------------------------------


@click.group()
@click.version_option(__version__)
def cli():
    """Distributed quadrature-sensing curves, campaigns and reports."""


@cli.command("rms-curve")
@click.option("--scheme", type=click.Choice(["entangled", "product", "both"]), default="both")
@click.option("--eta", "etas", type=ETA, multiple=True, default=(1.0,))
@click.option("--photons-per-node", type=PHOTONS, default=None,
              help="Fix N_S/M across the sweep (scaling mode).")
@click.option("--total-photons", type=PHOTONS, default=None,
              help="Fix N_S across the sweep.")
@click.option("--m-min", type=NODES, default=10)
@click.option("--m-max", type=NODES, default=10_000)
@click.option("--out", type=click.Path(), required=True)
def cmd_rms_curve(scheme, etas, photons_per_node, total_photons, m_min, m_max, out):
    """rms error versus node count for both schemes."""
    if (photons_per_node is None) == (total_photons is None):
        raise click.UsageError("specify exactly one of --photons-per-node / --total-photons")
    schemes = ["entangled", "product"] if scheme == "both" else [scheme]
    formulas = {"entangled": protocols.entangled_rms_error,
                "product": protocols.product_rms_error}
    ms = _log_spaced(m_min, m_max)
    n_s = total_photons if total_photons is not None else photons_per_node * ms
    per_node = n_s / ms
    notes = [protocols.SQUEEZING_CAP_NOTE] if np.any(n_s > protocols.SQUEEZING_CAP_PHOTONS) else []
    rows = []
    for eta in etas:
        curves = [formulas[sch](ms, n_s, eta) for sch in schemes]
        for i, m in enumerate(ms):
            for sch, curve in zip(schemes, curves):
                rows.append((m, float(curve[i]), sch, eta, per_node[i]))
    body = _write_csv(out, ["M", "delta_alpha", "scheme", "eta", "n_S"], rows)
    _write_manifest(out, None, body, notes)


@cli.command("ratio-curve")
@click.option("--mode", type=click.Choice(["vs-M", "vs-loss"]), required=True)
@click.option("--total-photons", type=PHOTONS, default=10.0)
@click.option("--eta", "etas", type=ETA, multiple=True,
              default=(0.5, 0.8, 0.9, 0.95, 0.99, 1.0))
@click.option("--m", "node_counts", type=NODES, multiple=True,
              default=(5, 10, 20, 50, 100, 1000))
@click.option("--m-min", type=NODES, default=1)
@click.option("--m-max", type=NODES, default=1000)
@click.option("--loss-db-max", type=FiniteFloatRange(min=0.0), default=10.0)
@click.option("--out", type=click.Path(), required=True)
def cmd_ratio_curve(mode, total_photons, etas, node_counts, m_min, m_max, loss_db_max, out):
    """Product/entangled sensitivity ratio in dB, versus M or versus loss."""
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
    body = _write_csv(out, header, rows)
    notes = protocols.known_discrepancies()
    if total_photons > protocols.SQUEEZING_CAP_PHOTONS:
        notes.append(protocols.SQUEEZING_CAP_NOTE)
    _write_manifest(out, None, body, notes)


_MC_SCALARS = {"seed": _seed, "trials": int}
_MC_CASE = {
    "M": int, "N_S": float, "eta": _float_list, "weights": _float_list,
    "scheme": str, "alpha": float, "trials": int,
}


@cli.command("monte-carlo")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=SEED, default=None, help="Override the config seed.")
@click.option("--trials", type=int, default=None, help="Override per-case trial counts.")
@click.option("--out", type=click.Path(), required=True)
def cmd_monte_carlo(config_path, seed, trials, out):
    """Monte Carlo validation of the closed-form rms errors; exit 2 on a 4-sigma miss."""
    scalars, cases = parse_config(config_path, _MC_SCALARS, _MC_CASE)
    if not cases:
        raise click.UsageError(f"{config_path}: no [case] sections")
    base_seed = seed if seed is not None else scalars.get("seed", 0)
    notes = []
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
            raise click.UsageError(f"{config_path}: case {index}: {exc}")
        if cfg.total_photons > protocols.SQUEEZING_CAP_PHOTONS and not notes:
            notes.append(protocols.SQUEEZING_CAP_NOTE)
        sigmas = report.agreement_sigmas()
        status = "PASS" if sigmas < 4.0 else "FAIL"
        all_pass &= status == "PASS"
        rows.append((
            index, report.scheme, cfg.num_nodes, cfg.total_photons,
            _fmt_etas(cfg.eta), cfg.alpha_true, report.trials,
            report.empirical_mean, report.empirical_rms_error,
            report.rms_standard_error, report.analytic_rms,
            report.estimator_offset, sigmas, status,
        ))
    body = _write_csv(
        out,
        ["case", "scheme", "M", "N_S", "eta", "alpha", "trials", "empirical_mean",
         "empirical_rms", "rms_standard_error", "analytic_rms", "estimator_offset",
         "sigma_gap", "status"],
        rows,
    )
    _write_manifest(out, base_seed, body, notes)
    if not all_pass:
        raise StatisticalFailure("one or more cases missed the analytic rms by >= 4 sigma")


_WEIGHTED_SCALARS = {"N_S": float, "etas": _float_list, "weights": _float_list}


@cli.command("weighted")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_weighted(config_path, out):
    """Heterogeneous-network closed forms, photon allocation and weight optimization."""
    scalars, _ = parse_config(config_path, _WEIGHTED_SCALARS)
    try:
        net = allocation.WeightedNetwork(
            len(scalars["etas"]), scalars.get("weights"), scalars["etas"], scalars["N_S"])
    except (KeyError, ValueError) as exc:
        raise click.UsageError(f"{config_path}: {exc}")
    etas, n_s = net.etas, net.total_photons

    def weight_str(w):
        return ";".join(_fmt(float(v)) for v in w)

    rows = []
    rows.append(("entangled_closed_form", allocation.weighted_entangled_rms(net),
                 weight_str(net.weights), "", "", ""))
    try:
        alloc = allocation.allocate_photons_product(net)
        rows.append(("product_allocation", alloc.objective, weight_str(net.weights),
                     weight_str(alloc.photons), alloc.kkt_residual, alloc.iterations))
        w_opt = allocation.optimal_weights_entangled(etas, n_s)
        rows.append(("optimized_entangled", allocation.weighted_rms(w_opt, etas, n_s),
                     weight_str(w_opt), "", "", ""))
        w_prod, alloc_opt = allocation.optimal_weights_product(etas, n_s)
        rows.append(("optimized_product", alloc_opt.objective, weight_str(w_prod),
                     weight_str(alloc_opt.photons), alloc_opt.kkt_residual,
                     alloc_opt.iterations))
    except ValueError as exc:
        raise click.UsageError(f"{config_path}: {exc}")
    body = _write_csv(
        out, ["kind", "objective", "weights", "photons", "kkt_residual", "iterations"], rows
    )
    _write_manifest(out, None, body)


@cli.command("fisher")
@click.option("--draws", type=click.IntRange(min=0), default=20,
              help="Random parameter draws to sweep.")
@click.option("--seed", type=SEED, default=0)
@click.option("--out", type=click.Path(), required=True)
def cmd_fisher(draws, seed, out):
    """Fisher-information sweep (closed form vs fidelity-limit numeric) + CR-bound table."""
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
    body = _write_csv(
        out,
        ["row_type", "r", "n", "theta", "eta", "fisher_closed", "fisher_numeric",
         "rel_gap", "M", "N_S", "cr_bound", "product_rms", "difference"],
        rows,
    )
    _write_manifest(out, seed, body)


_PHASE_SCALARS = {
    "M": int, "N_S": float, "N_v": float, "eta": float,
    "dphi": _float_list, "trials": int, "seed": _seed,
}


@cli.command("phase")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=SEED, default=None)
@click.option("--trials", type=int, default=None)
@click.option("--out", type=click.Path(), required=True)
def cmd_phase(config_path, seed, trials, out):
    """Mach-Zehnder network sweep: empirical vs linearized rms and residuals."""
    scalars, _ = parse_config(config_path, _PHASE_SCALARS)
    try:
        m = scalars["M"]
        n_s = scalars["N_S"]
        n_v = scalars["N_v"]
        eta = scalars.get("eta", 1.0)
        dphis = scalars["dphi"]
        run_trials = trials if trials is not None else scalars.get("trials", 100_000)
        run_seed = seed if seed is not None else scalars.get("seed", 0)
    except KeyError as exc:
        raise click.UsageError(f"{config_path}: missing key {exc}")
    rows = []
    for index, dphi in enumerate(dphis):
        try:
            report = protocols.simulate_phase_protocol(
                m, n_s, n_v, eta, dphi, run_trials, (run_seed, index)
            )
            exact_rms = protocols.phase_exact_stats(m, n_s, n_v, eta, dphi)[2]
        except ValueError as exc:
            raise click.UsageError(str(exc))
        linearized = report.analytic_rms
        rows.append((
            dphi, report.trials, report.empirical_mean,
            report.empirical_mean - dphi, report.empirical_rms_error,
            report.rms_standard_error, linearized, exact_rms,
            abs(exact_rms - linearized),
        ))
    body = _write_csv(
        out,
        ["dphi", "trials", "empirical_mean", "bias", "empirical_rms",
         "rms_standard_error", "linearized_rms", "exact_rms", "linearization_residual"],
        rows,
    )
    notes = [protocols.SQUEEZING_CAP_NOTE] if n_s > protocols.SQUEEZING_CAP_PHOTONS else []
    _write_manifest(out, run_seed, body, notes)


def manifest_to_argv(manifest, out_path):
    """Rebuild the invocation a manifest records, writing to out_path instead."""
    if manifest.get("manifest_schema") != MANIFEST_SCHEMA:
        raise ValueError(f"unsupported manifest schema {manifest.get('manifest_schema')!r}")
    name = manifest["command"]
    if name not in cli.commands:
        raise ValueError(f"unknown command in manifest: {name!r}")
    argv = [name]
    for param in cli.commands[name].params:
        value = manifest["params"].get(param.name)
        if param.name == "out" or value is None:
            continue
        for item in value if param.multiple else [value]:
            argv.extend([param.opts[0], str(item)])
    argv.extend(["--out", out_path])
    return argv


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # obj carries argv to the manifest, which records it verbatim.
        cli.main(args=argv, standalone_mode=False, obj=argv)
    except (click.UsageError, click.BadParameter) as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except MemoryError:  # numpy's allocation failures subclass it
        click.echo("error: not enough memory for this run; lower the node count", err=True)
        return EXIT_USAGE
    except StatisticalFailure as exc:
        click.echo(f"statistical validation failed: {exc}", err=True)
        return EXIT_STATISTICAL
    except RuntimeError as exc:  # after Abort, which is a RuntimeError too
        click.echo(f"did not converge: {exc}", err=True)
        return EXIT_NONCONVERGENCE
    return 0


if __name__ == "__main__":
    sys.exit(main())
