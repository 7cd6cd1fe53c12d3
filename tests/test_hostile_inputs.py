"""Every hostile input to the command line ends in a documented exit code.

One row per input: the argv (its {cfg} and {out} fields name the row's config and CSV),
the config text, the exit code, a fragment of stderr and an optional fault-injecting setup.
One harness runs each row through cli.main, in-process or, for a run too large for memory,
in a child process, and checks the whole contract: the exit code is the row's and one of
0-3; stderr holds the fragment and no traceback; exit 0 writes a CSV with no nan or inf
whose manifest checksum matches it; exits 1 and 3 write no CSV; exit 2 writes it.
"""

import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from cvsense import allocation, cli, protocols

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
Row = namedtuple("Row", "id argv config exit message setup", defaults=(None,))

nan, inf = float("nan"), float("inf")
TINY = allocation.TINY  # the smallest normal float64, the smallest transmissivity
SEED_MAX = protocols.SEED_MAX
OK, CAP = (0, ""), (0, f"warning: {protocols.SQUEEZING_CAP_NOTE}")
ABOVE_CAP = float(np.nextafter(1e4, inf))  # the first N_S past the 40 dB squeezing cap
BAD_ETA = (1, "transmissivities must lie in [2.2250738585072014e-308, 1]")
BAD_BUDGET = (1, "photon budget must be finite and nonnegative")
BAD_SEED = (1, f"must lie in [0, {SEED_MAX}]")
SAMPLER_BOUND = (1, "exceeds the sampler bound 1e+20")
OVERFLOW = (3, "left the float64 range")

# -- one factor at a time around a valid base ---------------------------------

BASE = {"M": 2, "eta": 0.9, "N_S": 1.0, "seed": 0}
TEMPLATES = {  # argv and config text of each command's base, its factors as fields
    "monte-carlo": ("monte-carlo --config {cfg} --seed {seed} --trials {trials} --out {out}",
                    "[case]\nM = {M}\nN_S = {N_S}\neta = {eta}\n"),
    "phase": ("phase --config {cfg} --seed {seed} --trials {trials} --out {out}",
              "M = {M}\nN_S = {N_S}\neta = {eta}\nN_v = 100\ndphi = 0.01\n"),
    "weighted": ("weighted --config {cfg} --out {out}", "N_S = {N_S}\netas = {etas}\n"),
    "rms-curve": ("rms-curve --total-photons {N_S} --eta {eta} --m-min {M} --m-max {M} "
                  "--out {out}", None),
    "ratio-curve": ("ratio-curve --mode vs-M --total-photons {N_S} --eta {eta} --m-max {M} "
                    "--out {out}", None),
    "fisher": ("fisher --draws 1 --seed {seed} --out {out}", None),
}
# Per command and factor, each outcome with the values that must meet it. The literal
# 2.2e-308 lies below TINY, so it is refused; argparse refuses the rest of the curves' bad values.
CAMPAIGN = {
    "M": {OK: (1, 2, 10**5)},
    "eta": {OK: (TINY, 1e-300, 1e-8, 1), BAD_ETA: ("2.2e-308", 0, 5e-324, 1.5, nan)},
    "N_S": {OK: (0, 1e-300), CAP: (ABOVE_CAP, 1e20),
            SAMPLER_BOUND: (1e21, 1e154, 1e300), BAD_BUDGET: (nan, inf)},
    "seed": {OK: (0, SEED_MAX), BAD_SEED: (2**32,)},
}
CURVE = {
    "M": {OK: (1, 2, 10**5)},
    "eta": {OK: (TINY, 1e-300, 1e-8, 1), BAD_ETA: ("2.2e-308", 5e-324),
            (1, "is not a finite float in (0.0, 1.0]"): (0, 1.5, nan)},
    "N_S": {OK: (0, 1e-300), CAP: (ABOVE_CAP, 1e20, 1e21, 1e154, 1e300),
            (1, "is not a finite float >= 0.0"): (nan, inf)},
}
GRID = {
    "monte-carlo": CAMPAIGN,
    "phase": CAMPAIGN,
    "weighted": {  # M = 10^5 takes seconds here
        "M": {OK: (1, 2)},
        "eta": CAMPAIGN["eta"],
        "N_S": {OK: (0, 1e-300, ABOVE_CAP, 1e20, 1e21),
                OVERFLOW: (1e154, 1e300), BAD_BUDGET: (nan, inf)},
    },
    "rms-curve": CURVE,
    "ratio-curve": CURVE,
    "fisher": {"seed": CAMPAIGN["seed"]},
}


def grid_rows():
    for command, factors in GRID.items():
        argv, config = TEMPLATES[command]
        for factor, outcomes in factors.items():
            for (code, message), values in outcomes.items():
                for value in values:
                    v = {**BASE, factor: value}
                    v["etas"] = " ".join([str(v["eta"])] * v["M"])
                    # At M = 10^5 each trial is a chunk of its own; 10 of them take 0.03 s.
                    v["trials"] = 10 if v["M"] > 1000 else 100
                    yield Row(f"{command}-{factor}={value}",
                              argv.format(**v, cfg="{cfg}", out="{out}"),
                              config and config.format(**v), code, message)


# -- inputs that once broke the contract, and faults injected by a setup step -----------

MC, PHASE, WEIGHTED = (f"{name} --config {{cfg}} --out {{out}}"
                       for name in ("monte-carlo", "phase", "weighted"))
SMALL_MC = "[case]\nM = 2\nN_S = 1\ntrials = 10\n"
SMALL_PHASE = "M = 2\nN_S = 1\nN_v = 100\ndphi = 0.01\ntrials = 10\n"
NO_BUDGET_MODE = "specify exactly one of --photons-per-node / --total-photons"
NOT_CONVERGED = (3, "did not converge")
MAX_TRIALS = cli.CAMPAIGN_MAX_TRIALS
TRIALS_RANGE = f"is not a finite int in [1, {MAX_TRIALS}]"
NO_MEMORY = (1, "not enough memory")


def patch(target, name, value):
    return lambda monkeypatch: monkeypatch.setattr(target, name, value)


def raising(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def rigged(cfg):
    """A campaign 500 standard errors from its analytic rms."""
    return protocols.EstimatorReport(cfg.trials, 0.0, 1.0, 1e-3, 0.5)


def rigged_phase(trials=protocols.DEFAULT_TRIALS, **network):
    """A phase campaign 500 standard errors from its analytic rms."""
    return protocols.EstimatorReport(trials, 0.0, 1.0, 1e-3, 0.5)


def manifest_path_is_a_directory(monkeypatch):
    """A directory stands where the manifest goes, so its write fails after the CSV's."""
    real = cli._write_manifest

    def write(out_path, *args):
        Path(f"{out_path}.manifest.json").mkdir()
        real(out_path, *args)

    monkeypatch.setattr(cli, "_write_manifest", write)


ROWS = [*grid_rows(), *(Row(*fields) for fields in [
    # argument parsing
    ("no-command", "", None, 1, "required: COMMAND"),
    ("unknown-command", "no-such-command", None, 1, "invalid choice"),
    ("missing-out", "fisher --draws 1", None, 1, "required: --out"),
    # an --out in a missing directory fails at the write, after the computation
    ("out-in-missing-directory", "weighted --config {cfg} --out {out}.d/x.csv",
     "N_S = 1\netas = 0.9 0.5\n", 1, "x.csv.d/x.csv: No such file or directory"),
    # a failed manifest write removes the CSV this run wrote; an --out naming a directory
    # fails at the CSV's write, and the directory stays
    ("manifest-path-is-a-directory", WEIGHTED, "N_S = 1\netas = 0.9 0.5\n", 1,
     "x.csv.manifest.json: Is a directory", manifest_path_is_a_directory),
    ("out-is-a-directory", f"weighted --config {{cfg}} --out {CONFIGS}",
     "N_S = 1\netas = 0.9 0.5\n", 1, f"cannot write {CONFIGS}: Is a directory"),
    ("rms-curve-missing-out", "rms-curve", None, 1, "required: --out"),
    ("unknown-option", "rms-curve --bogus 1 --out {out}", None, 1,
     "unrecognized arguments: --bogus"),
    ("abbreviation", "rms-curve --photons 1 --out {out}", None, 1,
     "unrecognized arguments: --photons"),
    ("bad-choice", "rms-curve --scheme both-ways --total-photons 1 --out {out}", None, 1,
     "invalid choice"),
    ("no-budget-mode", "rms-curve --out {out}", None, 1, NO_BUDGET_MODE),
    ("two-budget-modes", "rms-curve --photons-per-node 1 --total-photons 4 --out {out}", None,
     1, NO_BUDGET_MODE),
    ("negative-photons-per-node", "rms-curve --photons-per-node -1 --out {out}", None, 1,
     "'-1' is not a finite float >= 0.0"),
    ("nan-photons-per-node", "rms-curve --photons-per-node nan --out {out}", None, 1,
     "'nan' is not a finite float >= 0.0"),
    ("negative-total-photons", "rms-curve --total-photons -1 --out {out}", None, 1,
     "'-1' is not a finite float >= 0.0"),
    ("ratio-negative-photons", "ratio-curve --mode vs-M --total-photons -1 --out {out}", None,
     1, "'-1' is not a finite float >= 0.0"),
    ("ratio-zero-nodes", "ratio-curve --mode vs-loss --m 0 --out {out}", None, 1,
     "'0' is not a finite int >= 1"),
    ("negative-loss", "ratio-curve --mode vs-loss --loss-db-max -5 --out {out}", None, 1,
     "'-5' is not a finite float >= 0.0"),
    ("nan-loss", "ratio-curve --mode vs-loss --loss-db-max nan --out {out}", None, 1,
     "'nan' is not a finite float >= 0.0"),
    ("inf-loss", "ratio-curve --mode vs-loss --loss-db-max inf --out {out}", None, 1,
     "'inf' is not a finite float >= 0.0"),
    ("rms-curve-m-min-above-m-max", "rms-curve --total-photons 1 --m-min 20 --m-max 10 "
     "--out {out}", None, 1, "need 1 <= m-min <= m-max"),
    ("ratio-curve-m-min-above-m-max", "ratio-curve --mode vs-M --m-min 20 --m-max 10 "
     "--out {out}", None, 1, "need 1 <= m-min <= m-max"),
    ("float-draws", "fisher --draws 1.5 --out {out}", None, 1, "argument --draws"),
    ("negative-draws", "fisher --draws -1 --out {out}", None, 1,
     f"is not a finite int in [0, {cli.FISHER_MAX_DRAWS}]"),
    ("draws-above-bound", f"fisher --draws {cli.FISHER_MAX_DRAWS + 1} --out {{out}}", None,
     1, f"is not a finite int in [0, {cli.FISHER_MAX_DRAWS}]"),
    ("fisher-negative-seed", "fisher --seed -1 --out {out}", None, *BAD_SEED),
    # config files
    ("missing-config", WEIGHTED, None, 1, "cannot read config"),
    ("monte-carlo-no-case", MC, "seed = 1\ntrials = 100\n", 1, "no [case] sections"),
    ("monte-carlo-unknown-key", MC, "seed = 1\n\nwhat = 2\n", 1,
     "{cfg}:3: unknown key 'what'"),
    ("monte-carlo-unknown-case-key", MC, "seed = 1\n[case]\nM = 2\nN_S = 1.0\nbogus_key = 3\n",
     1, "{cfg}:5: unknown key 'bogus_key'"),
    ("monte-carlo-duplicate-key", MC, "trials = 10\ntrials = 20\n" + SMALL_MC, 1,
     "{cfg}:2: duplicate key 'trials'"),
    ("monte-carlo-duplicate-case-key", MC, SMALL_MC + "M = 3\n", 1,
     "{cfg}:5: duplicate key 'M'"),
    ("monte-carlo-no-equals", MC, "[case]\nM 2\n", 1, "{cfg}:2: expected 'key = value'"),
    ("monte-carlo-zero-trials", MC, "seed = 1\ntrials = 0\n[case]\nM = 2\nN_S = 1.0\n", 1,
     f"{{cfg}}:2: bad value for 'trials': '0' {TRIALS_RANGE}"),
    ("monte-carlo-option-zero-trials", MC + " --trials 0", SMALL_MC, 1,
     f"argument --trials: '0' {TRIALS_RANGE}"),
    # a trial count past the bound names the option or the config line, not the node count
    ("monte-carlo-option-trials-above-bound", MC + f" --trials {MAX_TRIALS + 1}", SMALL_MC, 1,
     f"argument --trials: '{MAX_TRIALS + 1}' {TRIALS_RANGE}"),
    ("monte-carlo-trials-above-bound", MC, f"trials = {MAX_TRIALS + 1}\n[case]\nM = 2\nN_S = 1\n",
     1, f"{{cfg}}:1: bad value for 'trials': '{MAX_TRIALS + 1}' {TRIALS_RANGE}"),
    ("monte-carlo-case-trials=1e15", MC, f"[case]\nM = 2\nN_S = 1\ntrials = {10**15}\n", 1,
     f"{{cfg}}:4: bad value for 'trials': '{10**15}' {TRIALS_RANGE}"),
    ("monte-carlo-missing-M", MC, "[case]\nN_S = 1\ntrials = 10\n", 1,
     "error: {cfg}: case 0: missing key 'M'"),
    ("monte-carlo-negative-seed", MC, "seed = -1\n" + SMALL_MC, 1,
     "{cfg}:1: bad value for 'seed': must lie in [0, 4294967295]"),
    ("monte-carlo-seed-2^32", MC, f"seed = {2**32}\n" + SMALL_MC, *BAD_SEED),
    ("monte-carlo-nan-alpha", MC, SMALL_MC + "alpha = nan\n", 1, "alpha_true must be finite"),
    ("monte-carlo-inf-alpha", MC, SMALL_MC + "alpha = inf\n", 1, "alpha_true must be finite"),
    ("monte-carlo-M=1e20", MC, SMALL_MC.replace("M = 2", f"M = {10**20}"), 1,
     "Maximum allowed dimension exceeded"),
    ("monte-carlo-case-1-above-sampler-bound", MC,
     "seed = 3\ntrials = 100\n[case]\nM = 2\nN_S = 2.0\n[case]\nM = 2\nN_S = 1e21\n", 1,
     "case 1: N_S = 1e+21 exceeds the sampler bound"),
    ("monte-carlo-product-N_S=1e22", MC, "[case]\nM = 100\nN_S = 1e22\nscheme = product\n"
     "trials = 10\n", 1, "case 0: N_S = 1e+22 exceeds the sampler bound"),
    # float64 outcomes alpha + noise must resolve the rms: alpha = 1e10 is fine at N_S = 1
    ("monte-carlo-alpha=1e10", MC, SMALL_MC + "alpha = 1e10\n", *OK),
    ("monte-carlo-alpha=1e10-N_S=1e14", MC, "[case]\nM = 2\nN_S = 1e14\nalpha = 1e10\n"
     "trials = 10\n", 1, "|alpha| = 1e+10 exceeds the resolution bound 131072"),
    ("monte-carlo-alpha=1e308", MC, SMALL_MC + "alpha = 1e308\n", 1,
     "|alpha| = 1e+308 exceeds the resolution bound 1.09951e+12"),
    ("phase-negative-seed", PHASE, SMALL_PHASE + "seed = -1\n", 1,
     "{cfg}:6: bad value for 'seed': must lie in [0, 4294967295]"),
    ("phase-seed-2^32", PHASE, SMALL_PHASE + f"seed = {2**32}\n", *BAD_SEED),
    ("phase-zero-trials", PHASE + " --trials 0", SMALL_PHASE, 1,
     f"argument --trials: '0' {TRIALS_RANGE}"),
    ("phase-option-trials=1e15", PHASE + f" --trials {10**15}", SMALL_PHASE, 1,
     f"argument --trials: '{10**15}' {TRIALS_RANGE}"),
    ("phase-trials-above-bound", PHASE,
     SMALL_PHASE.replace("trials = 10", f"trials = {MAX_TRIALS + 1}"), 1,
     f"{{cfg}}:5: bad value for 'trials': '{MAX_TRIALS + 1}' {TRIALS_RANGE}"),
    ("phase-missing-N_S", PHASE, SMALL_PHASE.replace("N_S = 1\n", ""), 1,
     "error: {cfg}: missing key 'N_S'"),
    *((f"phase-M={m}", PHASE, SMALL_PHASE.replace("M = 2", f"M = {m}"), 1,
       "number of nodes must be >= 1") for m in ("0", "-3")),
    *((f"phase-N_v={n_v}", PHASE, SMALL_PHASE.replace("N_v = 100", f"N_v = {n_v}"), 1,
       "coherent drive photon number must be finite and positive")
      for n_v in ("0", "-5", "inf", "nan")),
    ("phase-dphi=nan", PHASE, SMALL_PHASE.replace("dphi = 0.01", "dphi = nan"), 1,
     "linearization guard 0.3"),
    ("phase-dphi=0.8", PHASE, "M = 2\nN_S = 1.0\nN_v = 10.0\ndphi = 0.8\ntrials = 100\nseed = 1\n",
     1, "linearization guard 0.3"),
    ("phase-empty-dphi", PHASE, SMALL_PHASE.replace("dphi = 0.01", "dphi ="), 1,
     "error: {cfg}: dphi lists no phase shift"),
    ("phase-M=4-above-sampler-bound", PHASE,
     "M = 4\nN_S = 1e21\nN_v = 100\ndphi = 0.005\ntrials = 10\n", 1,
     "N_S = 1e+21 exceeds the sampler bound"),
    ("phase-case-section", PHASE, "[case]\n" + SMALL_PHASE, 1,
     "{cfg}:1: [case] sections not allowed here"),
    ("phase-duplicate-key", PHASE, SMALL_PHASE + "M = 3\n", 1, "{cfg}:6: duplicate key 'M'"),
    ("phase-no-equals", PHASE, "M 2\n", 1, "{cfg}:1: expected 'key = value'"),
    ("phase-unknown-key", PHASE, SMALL_PHASE + "alpha = 1\n", 1,
     "{cfg}:6: unknown key 'alpha'"),
    ("weighted-negative-budget", WEIGHTED, "N_S = -1\netas = 0.9, 0.3\n", *BAD_BUDGET),
    ("weighted-no-etas", WEIGHTED, "N_S = 4\netas =\n", 1, "number of nodes must be >= 1"),
    ("weighted-missing-etas", WEIGHTED, "N_S = 4\nweights = 1\n", 1,
     "error: {cfg}: missing key 'etas'"),
    ("weighted-case-section", WEIGHTED, "[case]\nN_S = 4\netas = 1\n", 1,
     "{cfg}:1: [case] sections not allowed here"),
    ("weighted-duplicate-key", WEIGHTED, "N_S = 4\nN_S = 5\netas = 1\n", 1,
     "{cfg}:2: duplicate key 'N_S'"),
    ("weighted-no-equals", WEIGHTED, "N_S 4\n", 1, "{cfg}:1: expected 'key = value'"),
    ("weighted-unknown-key", WEIGHTED, "N_S = 4\netas = 1\nM = 1\n", 1,
     "{cfg}:3: unknown key 'M'"),
    # a node with eta -> 0 answers with its vacuum limit; past N_S ~ 1e154 N(N + 1) overflows
    ("weighted-etas=1,1e-300", WEIGHTED, "N_S = 10\netas = 1 1e-300\n", *OK),
    ("weighted-etas=1e-8,1-N_S=1e-300", WEIGHTED, "N_S = 1e-300\netas = 1e-8 1\n", *OK),
    ("weighted-etas=0.5,1e-12-N_S=1e-300", WEIGHTED, "N_S = 1e-300\netas = 0.5 1e-12\n", *OK),
    ("weighted-etas=1e-300,1e-300-N_S=1e20", WEIGHTED, "N_S = 1e20\netas = 1e-300 1e-300\n",
     *OK),
    ("weighted-etas=2.3e-308-three", WEIGHTED, "N_S = 10\netas = 2.3e-308 2.3e-308 2.3e-308\n",
     *OK),
    ("weighted-etas=5e-324,5e-324", WEIGHTED, "N_S = 10\netas = 5e-324 5e-324\n", *BAD_ETA),
    ("weighted-etas=1e-310,1e-310", WEIGHTED, "N_S = 10\netas = 1e-310 1e-310\n", *BAD_ETA),
    ("weighted-N_S=1e300-etas=0.9,0.3", WEIGHTED, "N_S = 1e300\netas = 0.9 0.3\n", *OVERFLOW),
    ("weighted-N_S=1e300-lossless", WEIGHTED, "N_S = 1e300\netas = 1 1\n", *OVERFLOW),
    ("weighted-N_S=1e154-etas=0.9,1", WEIGHTED, "N_S = 1e154\netas = 0.9 1\n", *OVERFLOW),
    ("weighted-N_S=5e-324", WEIGHTED, "N_S = 5e-324\netas = 0.9 1\n", *OK),
    # faults
    ("statistical-failure", MC, SMALL_MC, 2, "statistical validation failed",
     patch(protocols, "simulate_displacement_protocol", rigged)),
    ("phase-statistical-failure", PHASE, SMALL_PHASE, 2, "statistical validation failed",
     patch(protocols, "simulate_phase_protocol", rigged_phase)),
    ("monte-carlo-memory-error", MC, SMALL_MC, *NO_MEMORY,
     patch(protocols, "SensorNetworkConfig", raising(MemoryError("Unable to allocate")))),
    ("phase-memory-error", PHASE, SMALL_PHASE, *NO_MEMORY,
     patch(protocols, "simulate_phase_protocol", raising(MemoryError("Unable to allocate")))),
    ("interrupt", "fisher --out {out}", None, 1, "interrupted", lambda mp: mp.setitem(
        cli.COMMANDS, "fisher", cli.COMMANDS["fisher"]._replace(run=raising(KeyboardInterrupt)))),
    *((f"weighted-{name}={value}", f"weighted --config {CONFIGS / 'weighted_m2.cfg'} "
       "--out {out}", None, *NOT_CONVERGED, patch(allocation, name, value))
      for name, value in (("MAX_BISECTIONS", 3), ("KKT_TOL", 1e-20))),
    ("weighted-alternation-stuck", f"weighted --config {CONFIGS / 'weighted_m2.cfg'} "
     "--out {out}", None, *NOT_CONVERGED, patch(allocation, "optimal_weights_product",
                                                raising(RuntimeError("stuck")))),
    *((f"CVSENSE_THREADS={value}", MC, SMALL_MC, 1,
       f"CVSENSE_THREADS must be a positive integer, not '{value}'",
       lambda mp, value=value: mp.setenv("CVSENSE_THREADS", value))
      for value in ("0", "-1", "abc")),
])]


def check(row, tmp_path, run):
    """Run one row through run(argv) -> (exit code, stderr) and check the whole contract."""
    cfg, out = tmp_path / "x.cfg", tmp_path / "x.csv"
    if row.config is not None:
        cfg.write_text(row.config)
    code, err = run([arg.format(cfg=cfg, out=out) for arg in row.argv.split()])
    assert code == row.exit and code in (0, 1, 2, 3), err
    assert row.message.format(cfg=cfg) in err
    assert "Traceback" not in err and "Warning" not in err
    written = out.exists()
    assert written == (code in (0, 2)), err
    if written:
        body = out.read_text()
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["csv_sha256"] == hashlib.sha256(body.encode()).hexdigest()
        cells = set(re.split(r"[,;\n]", body))
        if code == 0:
            assert not cells & {"nan", "inf", "-inf"}
        else:
            assert "FAIL" in cells


def check_in_process(row, tmp_path, monkeypatch, capsys):
    if row.setup:
        row.setup(monkeypatch)

    def in_process(argv):
        return cli.main(argv), capsys.readouterr().err

    check(row, tmp_path, in_process)


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_hostile_input(tmp_path, monkeypatch, capsys, row):
    check_in_process(row, tmp_path, monkeypatch, capsys)


def test_rows_are_distinct():
    assert len({row.id for row in ROWS}) == len(ROWS)


# A length-10^9 float64 vector takes 8 GB; the interpreter and numpy map about 150 MB.
ADDRESS_SPACE = 2**32
HUGE = [
    Row("monte-carlo-M=1e9", MC, SMALL_MC.replace("M = 2", "M = 1000000000"), *NO_MEMORY),
    Row("phase-M=1e9", PHASE, SMALL_PHASE.replace("M = 2", "M = 1000000000"), *NO_MEMORY),
]


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("row", HUGE, ids=[row.id for row in HUGE])
def test_hostile_input_in_a_child(tmp_path, row):
    # The limit is set in the child only, so the run fails to allocate instead of swapping.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def child(argv):
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "cvsense.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=limit_address_space)
        return done.returncode, done.stderr

    check(row, tmp_path, child)
