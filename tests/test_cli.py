import gc
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cvsense import allocation, cli, protocols

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


@pytest.mark.parametrize("command, config", [
    ("monte-carlo", "[case]\nM = 2\nN_S = 1\n"),
    ("phase", "M = 2\nN_S = 1\nN_v = 100\ndphi = 0.01\n"),
], ids=["monte-carlo", "phase"])
def test_a_config_with_no_trials_runs_the_default_count(tmp_path, command, config):
    cfg, out = tmp_path / "no_trials.cfg", tmp_path / "out.csv"
    cfg.write_text(config)
    assert run([command, "--config", cfg, "--out", out]) == 0
    assert [r["trials"] for r in csv_rows(out)[1]] == [str(protocols.DEFAULT_TRIALS)] == ["100000"]


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
            rms_standard_error=1e-3, analytic_rms=0.5,
        )

    monkeypatch.setattr(protocols, "simulate_displacement_protocol", rigged)
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


def test_weighted_default_weights_are_uniform(tmp_path):
    bodies = []
    for weights in ("", "weights = 0.25, 0.25, 0.25, 0.25\n"):
        config = tmp_path / "w.cfg"
        config.write_text("N_S = 4\netas = 0.9, 0.5, 0.7, 1.0\n" + weights)
        assert run(["weighted", "--config", config, "--out", tmp_path / "w.csv"]) == 0
        bodies.append(csv_body(tmp_path / "w.csv"))
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("config, answers", [
    pytest.param("N_S = 10\netas = 1 1e-300\n", True, id="eta=1e-300"),
    pytest.param("N_S = 1e-300\netas = 1e-8 1\n", True, id="eta=1e-8-N_S=1e-300"),
    pytest.param("N_S = 1e-300\netas = 0.5 1e-12\n", True, id="eta=1e-12-N_S=1e-300"),
    pytest.param("N_S = 1e20\netas = 1e-300 1e-300\n", True, id="eta=1e-300-both-N_S=1e20"),
    pytest.param("N_S = 10\netas = 2.3e-308 2.3e-308 2.3e-308\n", True, id="eta=2.3e-308-three"),
    pytest.param("N_S = 1e300\netas = 0.9 0.3\n", False, id="N_S=1e300"),
    pytest.param("N_S = 1e300\netas = 1 1\n", False, id="N_S=1e300-lossless"),
    pytest.param("N_S = 1e154\netas = 0.9 1\n", False, id="N_S=1e154"),
    pytest.param("N_S = 5e-324\netas = 0.9 1\n", False, id="N_S=5e-324"),
])
def test_weighted_writes_no_nan(tmp_path, capsys, config, answers):
    # These used to exit 0 with nan or inf in a row (N_S = 5e-324: exit 1 on a numpy
    # error). Tier-1 turns RuntimeWarnings into errors, so the guard must act before numpy warns.
    # A node with eta -> 0 has a limit (F = 4, about 0 photons), so those configs must answer;
    # past N_S ~ 1e154, N(N + 1) overflows and exit 3 is allowed.
    (tmp_path / "w.cfg").write_text(config)
    out = tmp_path / "w.csv"
    code = run(["weighted", "--config", tmp_path / "w.cfg", "--out", out])
    err = capsys.readouterr().err
    if code == 0 or answers:
        assert code == 0, err
        assert "nan" not in csv_body(out) and "inf" not in csv_body(out)
    else:
        assert code == 3 and "float64 range" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("etas", ["5e-324 5e-324", "1e-310 1e-310"])
def test_weighted_refuses_subnormal_transmissivities(tmp_path, capsys, etas):
    # These used to exit 1 on a numpy error (5e-324) and 3 on an overflow (1e-310).
    (tmp_path / "w.cfg").write_text(f"N_S = 10\netas = {etas}\n")
    out = tmp_path / "w.csv"
    assert run(["weighted", "--config", tmp_path / "w.cfg", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "transmissivities must lie in [2.2e-308, 1]" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, config, target", [
    ("monte-carlo", "[case]\nM = 1000000000\nN_S = 1\ntrials = 10\n",
     "SensorNetworkConfig"),
    ("phase", "M = 1000000000\nN_S = 1\nN_v = 100\ndphi = 0.01\ntrials = 10\n",
     "simulate_phase_protocol"),
], ids=["monte-carlo", "phase"])
def test_memory_error_exits_1(tmp_path, monkeypatch, capsys, command, config, target):
    # The first call that would allocate M = 10^9 values raises in its place.
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB")

    monkeypatch.setattr(protocols, target, exhausted)
    (tmp_path / "big.cfg").write_text(config)
    out = tmp_path / "x.csv"
    assert run([command, "--config", tmp_path / "big.cfg", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "not enough memory" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("setting", [("MAX_BISECTIONS", 3), ("KKT_TOL", 1e-20)],
                         ids=["bisections", "kkt"])
def test_weighted_exits_3_on_an_unfinished_allocation(tmp_path, monkeypatch, capsys, setting):
    # Three bisections cannot narrow the level to 1e-14, and the config's KKT
    # residual, 2.4e-16, is above 1e-20: neither allocation is returned.
    monkeypatch.setattr(allocation, *setting)
    out = tmp_path / "w.csv"
    assert run(["weighted", "--config", CONFIGS / "weighted_m2.cfg", "--out", out]) == 3
    err = capsys.readouterr().err
    assert "did not converge" in err and "Traceback" not in err
    assert not out.exists()


def test_weighted_nonconvergence(tmp_path, configs_dir, monkeypatch):
    def stuck(etas, total_photons):
        raise RuntimeError("weight/allocation alternation did not converge")

    monkeypatch.setattr(allocation, "optimal_weights_product", stuck)
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
    assert manifest(out)["notes"] == []  # N_S = 2, far below the squeezing cap
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


@pytest.mark.parametrize("threads", ["0", "-1", "abc"])
def test_monte_carlo_exits_1_on_a_bad_thread_override(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("CVSENSE_THREADS", threads)
    out = tmp_path / "mc.csv"
    assert run(["monte-carlo", "--config", CONFIGS / "fig1_check.cfg", "--trials", 10,
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"CVSENSE_THREADS must be a positive integer, not '{threads}'" in err
    assert "Traceback" not in err
    assert not out.exists()


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


def test_monte_carlo_exits_1_above_the_sampler_bound(tmp_path, capsys):
    cfg = tmp_path / "bound.cfg"
    cfg.write_text("seed = 3\ntrials = 100\n[case]\nM = 2\nN_S = 2.0\n"
                   f"[case]\nM = 2\nN_S = {10 * protocols.SAMPLER_MAX_PHOTONS:g}\n")
    out = tmp_path / "mc.csv"
    assert run(["monte-carlo", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "case 1: N_S = 1e+21 exceeds the sampler bound" in err and "Traceback" not in err
    assert not out.exists()


def test_phase_with_no_phase_shift_exits_1(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(SMALL_PHASE.replace("dphi = 0.01", "dphi ="))
    out = tmp_path / "phase.csv"
    assert run(["phase", "--config", cfg, "--out", out]) == 1
    assert f"error: {cfg}: dphi lists no phase shift" in capsys.readouterr().err
    assert not out.exists()


def test_phase_exits_1_above_the_phase_bound(tmp_path, capsys):
    # phase samples under the monte-carlo bound: float64 outcomes past it
    # cannot resolve the squeezed variance.
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(f"M = 4\nN_S = {10 * protocols.SAMPLER_MAX_PHOTONS:g}\nN_v = 100\n"
                   "dphi = 0.005\ntrials = 10\n")
    out = tmp_path / "phase.csv"
    assert run(["phase", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "N_S = 1e+21 exceeds the sampler bound" in err and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("args", [
    ["rms-curve", "--photons-per-node", -1],
    ["rms-curve", "--total-photons", -1],
    ["ratio-curve", "--mode", "vs-M", "--total-photons", -1],
    ["ratio-curve", "--mode", "vs-M", "--eta", 0],
    ["ratio-curve", "--mode", "vs-loss", "--m", 0],
    ["ratio-curve", "--mode", "vs-loss", "--loss-db-max", -5],
    ["weighted", "--config", "negative_budget.cfg"],
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
    ["weighted", "--config", "no_etas.cfg"],
    ["monte-carlo", "--config", "nan_alpha_mc.cfg"],
    ["monte-carlo", "--config", "inf_alpha_mc.cfg"],
    ["phase", "--config", "nan_dphi_phase.cfg"],
    ["phase", "--config", "nan_drive_phase.cfg"],
    ["fisher", "--seed", 2**32],
    ["monte-carlo", "--config", "small_mc.cfg", "--seed", 2**32],
    ["phase", "--config", "small_phase.cfg", "--seed", 2**32],
    ["monte-carlo", "--config", "big_seed_mc.cfg"],
    ["phase", "--config", "big_seed_phase.cfg"],
    ["fisher", "--draws", cli.FISHER_MAX_DRAWS + 1],
])
def test_hostile_inputs_are_usage_errors(tmp_path, monkeypatch, capsys, args):
    for name, text in HOSTILE_CONFIGS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(args + ["--out", tmp_path / "x.csv"]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


SMALL_MC = "[case]\nM = 2\nN_S = 1\ntrials = 10\n"
SMALL_PHASE = "M = 2\nN_S = 1\nN_v = 100\ndphi = 0.01\ntrials = 10\n"
NEGATIVE_SEED_MC = "seed = -1\n" + SMALL_MC
NEGATIVE_SEED_PHASE = SMALL_PHASE + "seed = -1\n"
HOSTILE_CONFIGS = {
    "negative_budget.cfg": "N_S = -1\netas = 0.9, 0.3\n",
    "nan_budget.cfg": "N_S = nan\netas = 0.9, 0.3\n",
    "no_etas.cfg": "N_S = 4\netas =\n",
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
    args = [command, "--seed", protocols.SEED_MAX, "--out", tmp_path / "x.csv"]
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


@pytest.mark.parametrize("old, new, message", [
    ("M = 2", "M = 0", "number of nodes must be >= 1"),
    ("M = 2", "M = -3", "number of nodes must be >= 1"),
    ("N_v = 100", "N_v = 0", "coherent drive photon number must be finite and positive"),
    ("N_v = 100", "N_v = -5", "coherent drive photon number must be finite and positive"),
    ("N_v = 100", "N_v = inf", "coherent drive photon number must be finite and positive"),
], ids=["M=0", "M=-3", "N_v=0", "N_v=-5", "N_v=inf"])
def test_phase_names_a_bad_node_count_or_drive(tmp_path, capsys, old, new, message):
    config = tmp_path / "bad.cfg"
    config.write_text(SMALL_PHASE.replace(old, new))
    out = tmp_path / "x.csv"
    assert run(["phase", "--config", config, "--out", out]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err and "Warning" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("args, message", [
    (["rms-curve", "--bogus", "1"], "unrecognized arguments: --bogus"),
    (["rms-curve", "--scheme", "both-ways", "--total-photons", "1"], "invalid choice"),
    (["rms-curve", "--photons", "1"], "unrecognized arguments: --photons"),  # no abbreviations
    (["rms-curve", "--total-photons", "nan"], "is not a finite float >= 0.0"),
    (["rms-curve", "--total-photons", "inf"], "is not a finite float >= 0.0"),
    (["ratio-curve", "--mode", "vs-M", "--eta", "nan"], "is not a finite float in (0.0, 1.0]"),
    (["ratio-curve", "--mode", "vs-loss", "--loss-db-max", "inf"], "is not a finite float"),
    (["fisher", "--draws", "1.5"], "argument --draws"),
    (["fisher", "--seed", str(2**32)], "must lie in [0, 4294967295]"),
    ([], "required: COMMAND"),
], ids=["unknown-option", "bad-choice", "abbreviation", "nan", "inf", "nan-eta", "inf-loss",
        "float-draws", "big-seed", "no-command"])
def test_usage_errors_exit_1_with_a_message(tmp_path, capsys, args, message):
    out = tmp_path / "x.csv"
    assert run(args + (["--out", out] if args else [])) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_missing_out_and_missing_config_exit_1(tmp_path, capsys):
    assert run(["fisher", "--draws", 1]) == 1
    assert "required: --out" in capsys.readouterr().err
    assert run(["weighted", "--config", tmp_path / "none.cfg", "--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert "cannot read config" in err and "Traceback" not in err


def test_interrupt_exits_1_without_a_traceback(tmp_path, capsys, monkeypatch):
    def interrupted(**_):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.COMMANDS, "fisher", cli.COMMANDS["fisher"]._replace(run=interrupted))
    assert run(["fisher", "--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert "interrupted" in err and "Traceback" not in err


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
