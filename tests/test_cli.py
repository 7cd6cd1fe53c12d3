import gc
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cvsense import cli, protocols
from test_hostile_inputs import ROWS, check_in_process

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run(argv):
    return cli.main([str(a) for a in argv])


def csv_body(path):
    return Path(path).read_text()


def csv_rows(path):
    lines = csv_body(path).splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def manifest(path):
    return json.loads(Path(str(path) + ".manifest.json").read_text())


def warning_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]


def test_rms_curve_basic(tmp_path):
    out = tmp_path / "curve.csv"
    assert run(["rms-curve", "--photons-per-node", 1.0, "--m-min", 10,
                "--m-max", 1000, "--out", out]) == 0
    header, rows = csv_rows(out)
    assert header == ["M", "delta_alpha", "scheme", "eta", "n_S"]
    ent = [r for r in rows if r["scheme"] == "entangled"]
    # 2 decades at 20 points per decade -> 41 grid points (before dedup).
    assert 35 <= len(ent) <= 41
    for r in ent:
        m = int(r["M"])
        assert float(r["delta_alpha"]) == pytest.approx(
            float(protocols.entangled_rms_error(m, float(m), 1.0)), rel=1e-10
        )
    info = manifest(out)
    assert info["command"] == "rms-curve"
    assert info["params"]["photons_per_node"] == 1.0


def test_ratio_curve_vs_m(tmp_path):
    out = tmp_path / "ratio.csv"
    assert run(["ratio-curve", "--mode", "vs-M", "--total-photons", 10.0,
                "--eta", 0.9, "--eta", 1.0, "--out", out]) == 0
    header, rows = csv_rows(out)
    assert header == ["M", "ratio_db", "eta", "N_S"]
    # M = 1: the schemes coincide, so the advantage is 0 dB.
    m1 = [r for r in rows if r["M"] == "1"]
    assert m1 and all(abs(float(r["ratio_db"])) < 1e-12 for r in m1)
    spot = [r for r in rows if r["M"] == "20" and r["eta"] == "0.9"]
    assert spot and float(spot[0]["ratio_db"]) == pytest.approx(4.486, abs=1e-3)
    # The nonreproducibility disclosure rides along in the manifest notes.
    assert manifest(out)["notes"] == [protocols.EIGHT_DB_NOTE]


@pytest.mark.parametrize("args, notes", [
    (["ratio-curve", "--mode", "vs-M", "--m-max", 10], [protocols.EIGHT_DB_NOTE]),
    (["ratio-curve", "--mode", "vs-loss", "--m", 10], [protocols.EIGHT_DB_NOTE]),
    (["rms-curve", "--m-min", 10, "--m-max", 20], []),
], ids=["vs-M", "vs-loss", "rms-curve"])
def test_ratio_curve_manifest_notes_squeezing_cap(tmp_path, capsys, args, notes):
    # The command's own notes come first, then the cap note the closed forms warned.
    out = tmp_path / "curve.csv"
    assert run(args + ["--total-photons", 1e5, "--out", out]) == 0
    assert manifest(out)["notes"] == notes + [protocols.SQUEEZING_CAP_NOTE]
    assert warning_lines(capsys) == [f"warning: {protocols.SQUEEZING_CAP_NOTE}"]


def test_ratio_curve_vs_loss(tmp_path):
    out = tmp_path / "loss.csv"
    assert run(["ratio-curve", "--mode", "vs-loss", "--m", 20, "--out", out]) == 0
    header, rows = csv_rows(out)
    assert header == ["loss_db", "ratio_db", "M", "N_S"]
    assert len(rows) == 101
    # Advantage shrinks as loss grows.
    vals = [float(r["ratio_db"]) for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_monte_carlo_command(tmp_path, configs_dir):
    out = tmp_path / "mc.csv"
    cfg = configs_dir / "fig1_check.cfg"
    assert run(["monte-carlo", "--config", cfg, "--trials", 20_000, "--out", out]) == 0
    header, rows = csv_rows(out)
    assert header[-1] == "status"
    assert len(rows) == 4
    assert all(r["status"] == "PASS" for r in rows)
    assert manifest(out)["seed"] == 20260824


def test_monte_carlo_determinism(tmp_path, configs_dir):
    cfg = configs_dir / "fig1_check.cfg"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert run(["monte-carlo", "--config", cfg, "--trials", 5_000, "--out", out]) == 0
    assert csv_body(out1) == csv_body(out2)
    assert manifest(out1)["csv_sha256"] == manifest(out2)["csv_sha256"]


def test_neighbouring_seeds_draw_different_streams(tmp_path):
    # Case i of seed s and case i - 1 of seed s + 1 once shared seed s + i.
    cfg = tmp_path / "twin.cfg"
    cfg.write_text("trials = 2000\n" + "[case]\nM = 2\nN_S = 1\n" * 2)
    means = {}
    for seed in (0, 1):
        out = tmp_path / f"mc{seed}.csv"
        assert run(["monte-carlo", "--config", cfg, "--seed", seed, "--out", out]) == 0
        means[seed] = [r["empirical_mean"] for r in csv_rows(out)[1]]
    assert len({*means[0], *means[1]}) == 4


@pytest.mark.parametrize("command, config", [
    ("monte-carlo", "[case]\nM = 2\nN_S = 1\n"),
    ("phase", "M = 2\nN_S = 1\nN_v = 100\ndphi = 0.01\n"),
], ids=["monte-carlo", "phase"])
def test_a_config_with_no_trials_runs_the_default_count(tmp_path, command, config):
    cfg, out = tmp_path / "no_trials.cfg", tmp_path / "out.csv"
    cfg.write_text(config)
    assert run([command, "--config", cfg, "--out", out]) == 0
    assert [r["trials"] for r in csv_rows(out)[1]] == [str(protocols.DEFAULT_TRIALS)] == ["100000"]


@pytest.mark.parametrize("options, seed, trials", [
    ([], 7, ["30", "20"]),
    (["--seed", 3, "--trials", 10], 3, ["10", "10"]),
], ids=["config", "options"])
def test_options_beat_cases_which_beat_the_file_level(tmp_path, options, seed, trials):
    cfg, out = tmp_path / "layers.cfg", tmp_path / "out.csv"
    cfg.write_text("seed = 7\ntrials = 30\n[case]\nM = 2\nN_S = 1\n"
                   "[case]\nM = 2\nN_S = 1\ntrials = 20\n")
    assert run(["monte-carlo", "--config", cfg, *options, "--out", out]) == 0
    assert manifest(out)["seed"] == seed
    assert [r["trials"] for r in csv_rows(out)[1]] == trials


def test_weighted_command(tmp_path, configs_dir):
    out = tmp_path / "weighted.csv"
    assert run(["weighted", "--config", configs_dir / "weighted_m2.cfg", "--out", out]) == 0
    _, rows = csv_rows(out)
    kinds = [r["kind"] for r in rows]
    assert kinds == ["entangled_closed_form", "product_allocation",
                     "optimized_entangled", "optimized_product"]
    for kind in ("optimized_entangled", "optimized_product"):
        opt = next(r for r in rows if r["kind"] == kind)
        w = [float(v) for v in opt["weights"].split(";")]
        assert sum(w) == pytest.approx(1.0, abs=1e-10)
        assert w[0] > w[1] > 0  # cleaner node carries more weight
    # Optimized weights beat the configured ones for each scheme.
    objective = {r["kind"]: float(r["objective"]) for r in rows}
    assert objective["optimized_entangled"] <= objective["entangled_closed_form"]
    assert objective["optimized_product"] <= objective["product_allocation"]
    alloc = next(r for r in rows if r["kind"] == "product_allocation")
    assert float(alloc["kkt_residual"]) < 1e-8


def test_weighted_default_weights_are_uniform(tmp_path):
    bodies = []
    for weights in ("", "weights = 0.25, 0.25, 0.25, 0.25\n"):
        config = tmp_path / "w.cfg"
        config.write_text("N_S = 4\netas = 0.9, 0.5, 0.7, 1.0\n" + weights)
        assert run(["weighted", "--config", config, "--out", tmp_path / "w.csv"]) == 0
        bodies.append(csv_body(tmp_path / "w.csv"))
    assert bodies[0] == bodies[1]


def test_fisher_command(tmp_path):
    out = tmp_path / "fisher.csv"
    assert run(["fisher", "--draws", 5, "--seed", 7, "--out", out]) == 0
    _, rows = csv_rows(out)
    fisher_rows = [r for r in rows if r["row_type"] == "fisher"]
    assert len(fisher_rows) == 6  # vacuum reference + 5 draws
    assert float(fisher_rows[0]["fisher_closed"]) == pytest.approx(4.0)
    assert all(float(r["rel_gap"]) < 1e-4 for r in fisher_rows)
    cr_rows = [r for r in rows if r["row_type"] == "crbound"]
    assert cr_rows and all(float(r["difference"]) == 0.0 for r in cr_rows)


def test_phase_command(tmp_path, configs_dir):
    out = tmp_path / "phase.csv"
    assert run(["phase", "--config", configs_dir / "phase_sweep.cfg",
                "--trials", 50_000, "--out", out]) == 0
    header, rows = csv_rows(out)
    assert len(rows) == 3
    # Each point's verdict compares the empirical rms with the exact one.
    assert header[-2:] == ["sigma_gap", "status"]
    for row in rows:
        cell = {key: float(row[key]) for key in header[:-1]}
        # A cell holds 12 significant digits, so a difference of two cells is known to about
        # 1e-12 of the cells: at dphi = 0.005 the residual read back is 1.2e-9 off.
        digits = 1e-12 * cell["exact_rms"]
        gap = abs(cell["empirical_rms"] - cell["exact_rms"])
        assert cell["sigma_gap"] == pytest.approx(gap / cell["rms_standard_error"], rel=1e-9,
                                                  abs=digits / cell["rms_standard_error"])
        assert cell["linearization_residual"] == pytest.approx(
            abs(cell["exact_rms"] - cell["linearized_rms"]), rel=1e-9, abs=digits)
        assert row["status"] == "PASS"
    assert manifest(out)["notes"] == []  # N_S = 2, far below the squeezing cap
    residuals = [float(r["linearization_residual"]) for r in rows]
    # Quadratic growth of the linearization residual across the dphi sweep.
    assert residuals[1] / residuals[0] == pytest.approx(4.0, abs=0.5)
    assert residuals[2] / residuals[1] == pytest.approx(4.0, abs=0.5)


@pytest.mark.parametrize("name,args", [
    ("curve", ["rms-curve", "--photons-per-node", 1.0, "--m-min", 10,
               "--m-max", 100]),
    ("ratio", ["ratio-curve", "--mode", "vs-M", "--m-min", 1, "--m-max", 50]),
    ("fisher", ["fisher", "--draws", 3, "--seed", 5]),
    ("loss", ["ratio-curve", "--mode", "vs-loss", "--total-photons", 10, "--m", 20, "--m", 50,
              "--loss-db-max", 5.0]),
    ("weighted", ["weighted", "--config", CONFIGS / "weighted_m2.cfg"]),
    ("phase", ["phase", "--config", CONFIGS / "phase_sweep.cfg", "--trials", 2_000]),
])
def test_manifest_replay(tmp_path, name, args):
    # Re-running the invocation reconstructed from a manifest reproduces the
    # CSV body byte for byte.
    first = tmp_path / f"{name}.csv"
    assert run(args + ["--out", first]) == 0
    info = manifest(first)
    replay_out = tmp_path / f"{name}_replay.csv"
    assert run(cli.manifest_to_argv(info, str(replay_out))) == 0
    assert csv_body(first) == csv_body(replay_out)
    assert manifest(replay_out)["csv_sha256"] == info["csv_sha256"]


def test_manifest_replay_monte_carlo(tmp_path, configs_dir):
    first = tmp_path / "mc.csv"
    assert run(["monte-carlo", "--config", configs_dir / "fig1_check.cfg",
                "--trials", 5_000, "--out", first]) == 0
    info = manifest(first)
    replay_out = tmp_path / "mc_replay.csv"
    assert run(cli.manifest_to_argv(info, str(replay_out))) == 0
    assert csv_body(first) == csv_body(replay_out)


def test_monte_carlo_runs_heterogeneous_product(tmp_path):
    # A product case on unequal links or weights samples each node at its own variance.
    out = tmp_path / "mc.csv"
    for extra in ("eta = 0.9, 0.5\n", "weights = 0.7, 0.3\n"):
        cfg = tmp_path / "hetero.cfg"
        cfg.write_text("seed = 1\ntrials = 20000\n[case]\nM = 2\nN_S = 2.0\n"
                       "scheme = product\n" + extra)
        assert run(["monte-carlo", "--config", cfg, "--out", out]) == 0
        _, rows = csv_rows(out)
        assert rows and all(r["status"] == "PASS" for r in rows)


def test_product_cases_weigh_the_squeezing_cap_per_mode(tmp_path, capsys):
    # No product mode here holds more than 5000 photons: no note, no warning line.
    out = tmp_path / "curve.csv"
    assert run(["rms-curve", "--scheme", "product", "--total-photons", 5e4, "--m-min", 10,
                "--m-max", 20, "--out", out]) == 0
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("trials = 100\n[case]\nM = 100\nN_S = 5e4\nscheme = product\n")
    assert run(["monte-carlo", "--config", cfg, "--out", tmp_path / "mc.csv"]) == 0
    assert manifest(out)["notes"] == [] and manifest(tmp_path / "mc.csv")["notes"] == []
    assert warning_lines(capsys) == []


def test_monte_carlo_prints_one_eta_on_a_uniform_network(tmp_path):
    cfg = tmp_path / "eta.cfg"
    cfg.write_text("seed = 1\ntrials = 100\n[case]\nM = 3\nN_S = 2\neta = 0.9\n"
                   "[case]\nM = 3\nN_S = 2\neta = 0.9, 0.5, 0.9\n")
    out = tmp_path / "mc.csv"
    assert run(["monte-carlo", "--config", cfg, "--out", out]) == 0
    assert [row["eta"] for row in csv_rows(out)[1]] == ["0.9", "0.9;0.5;0.9"]


def test_rms_curve_resolves_the_largest_budgets(tmp_path):
    # kappa(1e308) = 2.5e-309 no longer overflows to 0 on the way.
    out = tmp_path / "curve.csv"
    assert run(["rms-curve", "--total-photons", 1e308, "--m-min", 10, "--m-max", 20,
                "--out", out]) == 0
    row = csv_rows(out)[1][0]
    assert (row["M"], row["scheme"]) == ("10", "entangled")
    assert float(row["delta_alpha"]) == pytest.approx(0.5e-154 / np.sqrt(40.0), rel=1e-11)


def test_monte_carlo_manifest_notes_squeezing_cap(tmp_path, capsys):
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("seed = 3\ntrials = 20000\n[case]\nM = 2\nN_S = 2.0\n"
                   "[case]\nM = 2\nN_S = 20000\n")
    out = tmp_path / "mc.csv"
    assert run(["monte-carlo", "--config", cfg, "--out", out]) == 0
    assert manifest(out)["notes"] == [protocols.SQUEEZING_CAP_NOTE]
    assert warning_lines(capsys) == [f"warning: {protocols.SQUEEZING_CAP_NOTE}"]


def test_phase_manifest_notes_squeezing_cap(tmp_path, capsys):
    # Every point of the sweep warns, in the campaign and the exact stats: one note, one line.
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("M = 2\nN_S = 5e4\nN_v = 100\ndphi = 0.01 0.02\ntrials = 100\n")
    out = tmp_path / "phase.csv"
    assert run(["phase", "--config", cfg, "--out", out]) == 0
    assert manifest(out)["notes"] == [protocols.SQUEEZING_CAP_NOTE]
    assert warning_lines(capsys) == [f"warning: {protocols.SQUEEZING_CAP_NOTE}"]


def test_runner_leaves_warning_filters_in_force(tmp_path, monkeypatch):
    # Tier-1 turns RuntimeWarnings into errors; recording the run's warnings must not
    # swallow that error, and a run that raised it writes nothing.
    def overflowing(**_):
        warnings.warn("overflow encountered", RuntimeWarning)
        return cli.Result(["x"], [(1,)], None)

    monkeypatch.setitem(cli.COMMANDS, "fisher", cli.COMMANDS["fisher"]._replace(run=overflowing))
    out = tmp_path / "x.csv"
    with pytest.raises(RuntimeWarning, match="overflow encountered"):
        run(["fisher", "--out", out])
    assert not out.exists()


def test_manifest_records_main_argv_and_replays_only_its_schema(tmp_path):
    out = tmp_path / "fisher.csv"
    argv = ["fisher", "--draws", "2", "--out", str(out)]
    assert cli.main(argv) == 0
    info = manifest(out)
    assert info["argv"] == argv
    assert info["manifest_schema"] == cli.MANIFEST_SCHEMA
    assert info["params"] == {"draws": 2, "seed": 0, "out": str(out)}
    for schema in (1, None):
        with pytest.raises(ValueError, match="schema"):
            cli.manifest_to_argv(dict(info, manifest_schema=schema), "x.csv")
    with pytest.raises(ValueError, match="unknown command"):
        cli.manifest_to_argv(dict(info, command="no-such-command"), "x.csv")


# Earlier tests of usage errors, each now a row of the hostile-input table. They keep their
# names and run their rows through the table's harness.
TABLE = {row.id: row for row in ROWS}
USAGE_ERROR_ROWS = [
    "negative-photons-per-node", "negative-total-photons", "ratio-negative-photons",
    "ratio-curve-eta=0", "ratio-zero-nodes", "negative-loss", "weighted-negative-budget",
    "negative-draws", "fisher-negative-seed", "monte-carlo-negative-seed",
    "phase-negative-seed", "rms-curve-N_S=nan", "nan-photons-per-node", "rms-curve-N_S=inf",
    "rms-curve-eta=nan", "ratio-curve-N_S=nan", "nan-loss", "weighted-N_S=nan",
    "weighted-no-etas", "monte-carlo-nan-alpha", "monte-carlo-inf-alpha", "phase-dphi=nan",
    "phase-N_v=nan", "fisher-seed=4294967296", "monte-carlo-seed=4294967296",
    "phase-seed=4294967296", "monte-carlo-seed-2^32", "phase-seed-2^32", "draws-above-bound",
]


@pytest.mark.parametrize("row_id", USAGE_ERROR_ROWS,
                         ids=[f"args{i}" for i in range(len(USAGE_ERROR_ROWS))])
def test_hostile_inputs_are_usage_errors(tmp_path, monkeypatch, capsys, row_id):
    assert TABLE[row_id].exit == 1
    check_in_process(TABLE[row_id], tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("row_id", [
    "unknown-option", "bad-choice", "abbreviation", "rms-curve-N_S=nan", "rms-curve-N_S=inf",
    "ratio-curve-eta=nan", "inf-loss", "float-draws", "fisher-seed=4294967296", "no-command",
], ids=["unknown-option", "bad-choice", "abbreviation", "nan", "inf", "nan-eta", "inf-loss",
        "float-draws", "big-seed", "no-command"])
def test_usage_errors_exit_1_with_a_message(tmp_path, monkeypatch, capsys, row_id):
    assert TABLE[row_id].exit == 1 and TABLE[row_id].message
    check_in_process(TABLE[row_id], tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("command", ["fisher", "monte-carlo", "phase"])
def test_largest_seed_is_accepted(tmp_path, monkeypatch, capsys, command):
    # Seeds are one 32-bit word: 2^32 - 1 runs, 2^32 is a usage error.
    row = TABLE[f"{command}-seed={protocols.SEED_MAX}"]
    assert row.exit == 0
    check_in_process(row, tmp_path, monkeypatch, capsys)


# The parameters each README invocation recorded before the command line moved to
# argparse, written out, so that manifests replay in both directions.
README_PARAMS = [
    (["rms-curve", "--photons-per-node", "1.0", "--m-min", "10", "--m-max", "10000"],
     {"photons_per_node": 1.0, "m_min": 10, "m_max": 10000, "out": "OUT", "scheme": "both",
      "etas": [1.0], "total_photons": None}),
    (["ratio-curve", "--mode", "vs-M", "--total-photons", "10"],
     {"mode": "vs-M", "total_photons": 10.0, "out": "OUT",
      "etas": [0.5, 0.8, 0.9, 0.95, 0.99, 1.0], "node_counts": [5, 10, 20, 50, 100, 1000],
      "m_min": 1, "m_max": 1000, "loss_db_max": 10.0}),
    (["ratio-curve", "--mode", "vs-loss", "--total-photons", "10"],
     {"mode": "vs-loss", "total_photons": 10.0, "out": "OUT",
      "etas": [0.5, 0.8, 0.9, 0.95, 0.99, 1.0], "node_counts": [5, 10, 20, 50, 100, 1000],
      "m_min": 1, "m_max": 1000, "loss_db_max": 10.0}),
    (["monte-carlo", "--config", "configs/fig1_check.cfg", "--trials", "100"],
     {"config_path": "configs/fig1_check.cfg", "trials": 100, "out": "OUT", "seed": None}),
    (["weighted", "--config", "configs/weighted_m2.cfg"],
     {"config_path": "configs/weighted_m2.cfg", "out": "OUT"}),
    (["fisher", "--draws", "20", "--seed", "0"], {"draws": 20, "seed": 0, "out": "OUT"}),
    (["phase", "--config", "configs/phase_sweep.cfg", "--trials", "100"],
     {"config_path": "configs/phase_sweep.cfg", "trials": 100, "out": "OUT", "seed": None}),
]


@pytest.mark.parametrize("args, params", README_PARAMS,
                         ids=[" ".join(args[:3]) for args, _ in README_PARAMS])
def test_readme_invocations_record_the_same_params(tmp_path, monkeypatch, args, params):
    monkeypatch.chdir(CONFIGS.parent)
    out = str(tmp_path / "x.csv")
    assert cli.main(args + ["--out", out]) == 0
    info = manifest(out)
    expected = {key: out if value == "OUT" else value for key, value in params.items()}
    assert info["params"] == expected
    assert info["argv"] == args + ["--out", out]
    replay = str(tmp_path / "replay.csv")
    assert cli.main(cli.manifest_to_argv(info, replay)) == 0
    assert csv_body(replay) == csv_body(out)


@pytest.mark.parametrize("args", [["--help"], ["--version"]] + [
    [name, "--help"] for name in ("rms-curve", "ratio-curve", "monte-carlo", "weighted",
                                  "fisher", "phase")])
def test_help_and_version_return_0(capsys, args):
    assert run(args) == 0
    out = capsys.readouterr().out
    assert ("cvsense, version" in out) if args == ["--version"] else out.startswith("usage:")


@pytest.fixture
def unfrozen():
    yield
    gc.unfreeze()


def test_main_with_argv_leaves_the_heap_unfrozen(tmp_path, unfrozen):
    before = gc.get_freeze_count()
    assert cli.main(["fisher", "--draws", "1", "--out", str(tmp_path / "x.csv")]) == 0
    assert gc.get_freeze_count() == before


def test_main_as_process_entry_freezes_the_heap(tmp_path, monkeypatch, unfrozen):
    gc.unfreeze()
    monkeypatch.setattr(sys, "argv", ["cvsense", "fisher", "--draws", "1",
                                      "--out", str(tmp_path / "x.csv")])
    assert cli.main() == 0
    assert gc.get_freeze_count() > 0


def test_weighted_answers_a_zero_budget(tmp_path):
    # No photons: every node in vacuum, the vacuum rms, uniform product weights.
    config = tmp_path / "w.cfg"
    config.write_text("N_S = 0\netas = 0.9, 0.3\nweights = 0.75, 0.25\n")
    out = tmp_path / "w.csv"
    assert run(["weighted", "--config", config, "--out", out]) == 0
    assert "nan" not in csv_body(out)
    rows = {row["kind"]: row for row in csv_rows(out)[1]}
    assert float(rows["product_allocation"]["objective"]) == pytest.approx(
        0.5 * np.sqrt(0.75**2 + 0.25**2), rel=1e-12)
    assert rows["product_allocation"]["photons"] == "0;0"
    assert (rows["optimized_product"]["weights"], rows["optimized_product"]["photons"]) == (
        "0.5;0.5", "0;0")
    assert float(rows["optimized_product"]["objective"]) == pytest.approx(0.5 / np.sqrt(2.0))
    for kind in ("product_allocation", "optimized_product"):
        assert (rows[kind]["kkt_residual"], rows[kind]["iterations"]) == ("0", "0")
