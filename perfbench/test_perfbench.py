"""Self-tests of the benchmark harness.

Run from the repository root: python -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    block = workloads.WORKLOADS[name].block
    ops = [op for b in range(8) for op in block(11, b)]
    assert same(ops, [op for b in range(8) for op in block(11, b)])
    assert not same(ops, [op for b in range(8) for op in block(12, b)])


def test_node_counts_follow_the_block_design_for_every_seed():
    sizes = [sorted(p["m"] for _, p in workloads.mc_block(seed, 3)) for seed in (1, 2)]
    assert sizes[0] == sizes[1]
    assert len(sizes[0]) == 2 * sum(k for _, k in workloads.MC_MIX)
    assert min(sizes[0]) >= 32 and max(sizes[0]) <= 512
    uniform = [p["m"] for _, p in workloads.mc_block(1, 0, 5)
               if p["scheme"] == "entangled" and p["weights"] is None]
    assert len(set(uniform)) == len(uniform)  # block 0 spaces its points evenly
    dense = [[p["weights"].size for b in range(200) for kind, p in workloads.oracle_block(seed, b)
              if kind == "dense"] for seed in (1, 2)]
    assert dense[0] == dense[1] and min(dense[0]) >= 2 and max(dense[0]) <= 50


def test_middle_fifth_averages_the_ops_ranked_40_to_60_percent():
    import run

    latencies = [float(x) for x in range(10, 0, -1)]
    assert run.middle_fifth(latencies) == pytest.approx(5.5)
    assert run.middle_fifth(latencies[1:] + [float("inf")]) == pytest.approx(5.5)
    assert run.middle_fifth([float("inf")] * 6 + latencies[:4]) == float("inf")


def test_tail_is_the_eleventh_largest_or_its_median_over_windows_of_1000_ops():
    import run

    latencies = [float(x) for x in range(1, 1501)]
    assert run.tail(latencies) == (1490.0, pytest.approx(100 * 1490 / 1500), 1)
    # Three windows of 1000 ops; the slow last one does not move the median.
    quick = [1.0 + (i % 100) / 100 for i in range(1000)]
    value, _, windows = run.tail(quick + quick + [10 * x for x in quick])
    assert windows == 3 and value == sorted(quick)[-11]


def span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0, None)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 4.0, 0),   # overlaps c
        span("c", 3.0, 6.0, 0),
        span("d", 2.0, 3.0, 1),   # nested in b
        span("e", 8.0, 12.0, 0),  # runs past its parent; only [8, 10] is covered
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])
    assert tracing.union_length([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0), (1.5, 2.5)]) == pytest.approx(4.0)


def test_busy_time_counts_a_recursive_function_once():
    label = "gaussian.tensor"
    spans = [span(label, 0.0, 5.0, -1), span(label, 1.0, 3.0, 0), span("gaussian.GaussianState", 3.0, 4.0, 0)]
    metrics = tracing.layer_metrics(spans)
    assert metrics[f"{label}.calls"] == 2
    assert metrics[f"{label}.busy_s"] == pytest.approx(5.0)
    assert metrics[f"{label}.self_s"] == pytest.approx(2.0 + 2.0)
    assert metrics["gaussian.GaussianState.self_s"] == pytest.approx(1.0)
    assert metrics["gaussian.GaussianState.busy_s"] == pytest.approx(1.0)


def mismatch_label(check, params, out):
    with pytest.raises(oracle.Mismatch) as caught:
        check(params, out)
    return caught.value.args[0]


def test_oracle_flags_a_wrong_monte_carlo_report():
    _, p = workloads.mc_block(3, 0)[0]
    weights = p["weights"] if p["weights"] is not None else np.full(p["m"], 1.0 / p["m"])
    photons = p["photons"] / p["m"] if p["scheme"] == "product" else p["photons"]
    want = oracle.rms(weights, p["eta"], photons)
    sigma = want / np.sqrt(2.0 * workloads.MC_TRIALS)
    good = SimpleNamespace(analytic_rms=want, empirical_rms_error=want + sigma, trials=workloads.MC_TRIALS)
    assert workloads.check_mc(p, good) == {"outcomes": workloads.MC_TRIALS * p["m"]}
    wrong = SimpleNamespace(**{**vars(good), "analytic_rms": want * (1 + 1e-7)})
    assert mismatch_label(workloads.check_mc, p, wrong) == "analytic rms"
    miss = SimpleNamespace(**{**vars(good), "empirical_rms_error": want + 5 * sigma})
    assert mismatch_label(workloads.check_mc, p, miss) == "monte carlo rms"


def test_oracle_flags_a_wrong_allocation():
    m, budget = 4, 6.0
    p = {"weights": np.full(m, 0.25), "etas": np.full(m, 0.7), "photons": budget}
    coeffs = p["etas"] * oracle.kappa(budget) + 1.0 - p["etas"]
    w_opt = (1.0 / coeffs) / np.sum(1.0 / coeffs)
    rms = oracle.rms(p["weights"], p["etas"], budget)

    def result(photons):
        return SimpleNamespace(photons=photons, objective=oracle.rms(p["weights"], p["etas"], photons))

    # On a uniform network the equal split is the optimum.
    assert workloads.check_allocate(p, (rms, result(np.full(m, budget / m)), w_opt)) == {}
    over = result(np.full(m, budget / m) * 1.01)
    assert mismatch_label(workloads.check_allocate, p, (rms, over, w_opt)) == "photon budget"
    skewed = result(np.array([3.0, 1.0, 1.0, 1.0]))
    assert mismatch_label(workloads.check_allocate, p, (rms, skewed, w_opt)) == "worse than equal split"
    assert mismatch_label(workloads.check_allocate, p, (rms * 1.01, over, w_opt)) == "entangled rms"


def test_oracle_flags_wrong_fidelity_fisher_and_cli_outputs(tmp_path):
    fock_op, fisher_op, dense_op = (p for _, p in workloads.oracle_block(9, 0))
    f = oracle.fidelity(fock_op["mean_a"], fock_op["cov_a"], fock_op["mean_b"], fock_op["cov_b"])
    assert workloads.check_fock(fock_op, (f + 5e-7, f)) == {}
    assert mismatch_label(workloads.check_fock, fock_op, (f + 2e-6, f)) == "fock fidelity"
    assert mismatch_label(workloads.check_fisher, fisher_op, (1.0, 1.0)) == "fisher closed form"
    assert mismatch_label(workloads.check_dense, dense_op, 0.0) == "dense rms"
    failed = workloads.CliOutput(returncode=2, stderr="statistical validation failed", csv_path=tmp_path / "x.csv")
    assert mismatch_label(workloads.check_cli, {"args": ["monte-carlo"]}, failed) == "exit code"
    missing = workloads.CliOutput(returncode=0, stderr="", csv_path=tmp_path / "x.csv")
    assert mismatch_label(workloads.check_cli, {"args": ["monte-carlo"]}, missing) == "output files"
    body = "case,status\n0,FAIL\n"
    (tmp_path / "x.csv").write_text(body)
    (tmp_path / "x.csv.manifest.json").write_text(json.dumps({"csv_sha256": "0" * 64}))
    ok_exit = workloads.CliOutput(returncode=0, stderr="", csv_path=tmp_path / "x.csv")
    assert mismatch_label(workloads.check_cli, {"args": ["monte-carlo"]}, ok_exit) == "manifest digest"


def wrapper_free_state():
    import cvsense.cli  # noqa: F401

    state = {(key, attr): id(value) for key, mod in sys.modules.items()
             if key == "cvsense" or key.startswith("cvsense.") for attr, value in vars(mod).items()}
    for cls in ("GaussianState", "SymplecticTransform", "WeightedNetwork"):
        state[(cls, "__post_init__")] = id(getattr(sys.modules["cvsense"], cls).__post_init__)
    return state


def test_traced_ops_record_spans_and_leave_no_wrapper(tmp_path, monkeypatch):
    from cvsense import gaussian, protocols

    monkeypatch.setenv("PYTHONPATH", str(HERE.parent / "src"))
    before = wrapper_free_state()
    ops = workloads.oracle_block(4, 0) + [
        ("mc", {"scheme": "entangled", "m": 4, "photons": 3.0, "eta": 0.9, "weights": None,
                "alpha": 0.1, "seed": 1}),
        ("allocate", {"weights": np.full(3, 1 / 3), "etas": np.array([0.9, 0.8, 0.7]), "photons": 4.0}),
        ("cli", {"args": ["weighted", "--config", str(HERE.parent / "configs" / "weighted_m2.cfg")]}),
    ]
    ctx = workloads.Context(work_dir=tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert id(protocols.apply_loss) != before[("cvsense.gaussian", "apply_loss")]
        assert protocols.apply_loss is gaussian.apply_loss
        ctx.tracer = tracer
        for i, (kind, params) in enumerate(ops):
            tracer.op = i
            workloads.CHECKERS[kind](params, workloads.RUNNERS[kind](params, ctx))
    assert wrapper_free_state() == before
    metrics = tracing.layer_metrics(tracer.spans)
    assert set(metrics) == {name for name, _, _ in tracing.per_layer_metrics()} - {
        "cli.import_s", "cli.bytes_written", "cli.csv_bodies_changed", "trace.overhead_frac"}
    for label in ("gaussian.GaussianState", "fock.gaussian_to_fock", "fisher.fisher_numeric",
                  "protocols.simulate_displacement_protocol", "allocation.optimal_weights_product",
                  "cli.main", "cli.parse_config"):
        assert metrics[f"{label}.calls"] > 0, label
    assert {s.op for s in tracer.spans} == set(range(len(ops)))
    assert all(s.end >= s.start and s.parent < i for i, s in enumerate(tracer.spans))


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "oracle-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_every_per_layer_metric():
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in listed] == tracing.per_layer_metrics()


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="seed defect 4: a tiny weight on a late node breaks the splitter")
def test_dense_engine_builds_a_network_with_a_tiny_last_weight():
    weights = np.array([1.0, 1.0, 1e-7]) / (2.0 + 1e-7)
    rms = workloads.run_dense({"weights": weights, "etas": np.full(3, 0.5), "photons": 5.0}, None)
    workloads.check_dense({"weights": weights, "etas": np.full(3, 0.5), "photons": 5.0}, rms)
