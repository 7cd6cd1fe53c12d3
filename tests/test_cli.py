import json
from pathlib import Path

import numpy as np
import pytest

from cvsense import cli, protocols

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


def test_rms_curve_requires_one_budget_mode(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["rms-curve", "--out", out]) == 1
    assert run(["rms-curve", "--photons-per-node", 1.0, "--total-photons", 4.0,
                "--out", out]) == 1


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
    assert any("8 dB" in note for note in manifest(out)["notes"])


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


def test_monte_carlo_bad_configs(tmp_path, configs_dir):
    out = tmp_path / "mc.csv"
    empty = tmp_path / "empty.cfg"
    empty.write_text("seed = 1\ntrials = 100\n")
    assert run(["monte-carlo", "--config", empty, "--out", out]) == 1

    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = 1\n[case]\nM = 2\nN_S = 1.0\nbogus_key = 3\n")
    assert run(["monte-carlo", "--config", bad, "--out", out]) == 1

    zero = tmp_path / "zero.cfg"
    zero.write_text("seed = 1\ntrials = 0\n[case]\nM = 2\nN_S = 1.0\n")
    assert run(["monte-carlo", "--config", zero, "--out", out]) == 1


def test_unknown_key_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = 1\n\nwhat = 2\n")
    assert run(["monte-carlo", "--config", bad, "--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:3" in err and "what" in err


def test_monte_carlo_statistical_failure(tmp_path, configs_dir, monkeypatch):
    def rigged(cfg):
        return protocols.EstimatorReport(
            trials=cfg.trials, empirical_mean=0.0, empirical_rms_error=1.0,
            rms_standard_error=1e-3, analytic_rms=0.5, scheme=cfg.scheme,
        )

    monkeypatch.setattr(cli.protocols, "simulate_displacement_protocol", rigged)
    code = run(["monte-carlo", "--config", configs_dir / "fig1_check.cfg",
                "--trials", 10, "--out", tmp_path / "mc.csv"])
    assert code == 2
    _, rows = csv_rows(tmp_path / "mc.csv")  # the CSV is still written
    assert all(r["status"] == "FAIL" for r in rows)


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


def test_weighted_nonconvergence(tmp_path, configs_dir, monkeypatch):
    def stuck(etas, total_photons):
        raise RuntimeError("weight/allocation alternation did not converge")

    monkeypatch.setattr(cli.allocation, "optimal_weights_product", stuck)
    code = run(["weighted", "--config", configs_dir / "weighted_m2.cfg",
                "--out", tmp_path / "w.csv"])
    assert code == 3


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
    _, rows = csv_rows(out)
    assert len(rows) == 3
    residuals = [float(r["linearization_residual"]) for r in rows]
    # Quadratic growth of the linearization residual across the dphi sweep.
    assert residuals[1] / residuals[0] == pytest.approx(4.0, abs=0.5)
    assert residuals[2] / residuals[1] == pytest.approx(4.0, abs=0.5)


def test_phase_guard_maps_to_usage_error(tmp_path):
    cfg = tmp_path / "phase.cfg"
    cfg.write_text("M = 2\nN_S = 1.0\nN_v = 10.0\ndphi = 0.8\ntrials = 100\nseed = 1\n")
    assert run(["phase", "--config", cfg, "--out", tmp_path / "p.csv"]) == 1


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


def test_unknown_command_and_missing_option():
    assert run(["no-such-command"]) == 1
    assert run(["rms-curve"]) == 1  # --out is required


def test_monte_carlo_rejects_heterogeneous_product(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    for extra in ("eta = 0.9, 0.5\n", "weights = 0.7, 0.3\n"):
        cfg = tmp_path / "hetero.cfg"
        cfg.write_text("seed = 1\ntrials = 100\n[case]\nM = 2\nN_S = 2.0\n"
                       "scheme = product\n" + extra)
        assert run(["monte-carlo", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "uniform networks only" in err and "Traceback" not in err
        assert not out.exists()


def test_monte_carlo_manifest_notes_squeezing_cap(tmp_path):
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("seed = 3\ntrials = 20000\n[case]\nM = 2\nN_S = 2.0\n"
                   "[case]\nM = 2\nN_S = 20000\n")
    out = tmp_path / "mc.csv"
    with pytest.warns(UserWarning, match="40 dB"):
        assert run(["monte-carlo", "--config", cfg, "--out", out]) == 0
    assert manifest(out)["notes"] == [protocols.SQUEEZING_CAP_NOTE]


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


@pytest.mark.parametrize("args", [
    ["rms-curve", "--photons-per-node", -1],
    ["rms-curve", "--total-photons", -1],
    ["ratio-curve", "--mode", "vs-M", "--total-photons", -1],
    ["ratio-curve", "--mode", "vs-M", "--eta", 0],
    ["ratio-curve", "--mode", "vs-loss", "--m", 0],
    ["ratio-curve", "--mode", "vs-loss", "--loss-db-max", -5],
    ["weighted", "--config", "zero_budget.cfg"],
    ["fisher", "--draws", -1],
    ["fisher", "--seed", -1],
    ["monte-carlo", "--config", "negative_seed_mc.cfg"],
    ["phase", "--config", "negative_seed_phase.cfg"],
    ["rms-curve", "--total-photons", "nan"],
    ["rms-curve", "--photons-per-node", "nan"],
    ["rms-curve", "--total-photons", "inf"],
    ["rms-curve", "--total-photons", 1, "--eta", "nan"],
    ["ratio-curve", "--mode", "vs-M", "--total-photons", "nan"],
    ["ratio-curve", "--mode", "vs-loss", "--loss-db-max", "nan"],
    ["weighted", "--config", "nan_budget.cfg"],
    ["monte-carlo", "--config", "nan_alpha_mc.cfg"],
    ["monte-carlo", "--config", "inf_alpha_mc.cfg"],
    ["phase", "--config", "nan_dphi_phase.cfg"],
    ["phase", "--config", "nan_drive_phase.cfg"],
    ["fisher", "--seed", 2**32],
    ["monte-carlo", "--config", "small_mc.cfg", "--seed", 2**32],
    ["phase", "--config", "small_phase.cfg", "--seed", 2**32],
    ["monte-carlo", "--config", "big_seed_mc.cfg"],
    ["phase", "--config", "big_seed_phase.cfg"],
])
def test_hostile_inputs_are_usage_errors(tmp_path, monkeypatch, capsys, args):
    for name, text in HOSTILE_CONFIGS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(args + ["--out", tmp_path / "x.csv"]) == 1
    assert "Traceback" not in capsys.readouterr().err


SMALL_MC = "[case]\nM = 2\nN_S = 1\ntrials = 10\n"
SMALL_PHASE = "M = 2\nN_S = 1\nN_v = 100\ndphi = 0.01\ntrials = 10\n"
NEGATIVE_SEED_MC = "seed = -1\n" + SMALL_MC
NEGATIVE_SEED_PHASE = SMALL_PHASE + "seed = -1\n"
HOSTILE_CONFIGS = {
    "zero_budget.cfg": "N_S = 0\netas = 0.9, 0.3\n",
    "nan_budget.cfg": "N_S = nan\netas = 0.9, 0.3\n",
    "negative_seed_mc.cfg": NEGATIVE_SEED_MC,
    "negative_seed_phase.cfg": NEGATIVE_SEED_PHASE,
    "nan_alpha_mc.cfg": SMALL_MC + "alpha = nan\n",
    "inf_alpha_mc.cfg": SMALL_MC + "alpha = inf\n",
    "nan_dphi_phase.cfg": SMALL_PHASE.replace("dphi = 0.01", "dphi = nan"),
    "nan_drive_phase.cfg": SMALL_PHASE.replace("N_v = 100", "N_v = nan"),
    "small_mc.cfg": SMALL_MC,
    "small_phase.cfg": SMALL_PHASE,
    "big_seed_mc.cfg": f"seed = {2**32}\n" + SMALL_MC,
    "big_seed_phase.cfg": SMALL_PHASE + f"seed = {2**32}\n",
}


@pytest.mark.parametrize("command, config", [
    ("fisher", None), ("monte-carlo", SMALL_MC), ("phase", SMALL_PHASE),
], ids=["fisher", "monte-carlo", "phase"])
def test_largest_seed_is_accepted(tmp_path, command, config):
    # Seeds are one 32-bit word: 2^32 - 1 runs, 2^32 is a usage error.
    args = [command, "--seed", cli.SEED_MAX, "--out", tmp_path / "x.csv"]
    if config is None:
        args += ["--draws", 1]
    else:
        (tmp_path / "x.cfg").write_text(config)
        args += ["--config", tmp_path / "x.cfg"]
    assert run(args) == 0


@pytest.mark.parametrize("command, text", [
    ("monte-carlo", NEGATIVE_SEED_MC), ("phase", NEGATIVE_SEED_PHASE),
], ids=["monte-carlo", "phase"])
def test_negative_config_seed_names_the_key(tmp_path, capsys, command, text):
    config = tmp_path / "seed.cfg"
    config.write_text(text)
    assert run([command, "--config", config, "--out", tmp_path / "x.csv"]) == 1
    assert "bad value for 'seed'" in capsys.readouterr().err
