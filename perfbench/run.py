"""cvsense benchmark: one workload, one closed-loop client, one worker process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-configs --seed 1 --seconds 50 --trace 0

--trace 0 times the workload and prints the end-to-end metrics; --trace 1
runs it through the call tracer and prints the per-layer metrics. Lines
starting with '#' describe the environment and every metric with its unit
and sample count; the last line is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh workers started only to time set-up, before and again after the
# timed phase, so that the median of these and the timed worker's set-up
# does not rest on one stretch of the host's speed. Two a side, not more:
# each start costs about a second that the timed phase needs more.
SETUP_STARTS_EACH_SIDE = 2
IMPORT_REPEATS = 3
TAIL_WINDOW_OPS = 1000
WORKER_TIMEOUT_S = 170
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread (<= nproc): with two OpenBLAS threads on two CPUs the
# 60x60 Fock-oracle ops ran six times slower, and any other load on the
# machine made thread hand-offs, not cvsense, dominate the timings.
BLAS_THREADS = 1
WORKER = Path(__file__).resolve().with_name("worker.py")
REFERENCE_DIGESTS = Path(__file__).resolve().with_name("reference_digests.json")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB"))


def worker_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def provenance(env, root, seed):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        **{var: env[var] for var in BLAS_VARS},
        "git_commit": commit, "seed": seed,
    }


class Worker:
    """A worker process that has finished its set-up; the time that took is setup_s."""

    def __init__(self, args, mode, env, work_dir):
        cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode, "--seconds", str(args.seconds), "--work-dir", str(work_dir)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.stop()
            raise RuntimeError(f"worker failed during set-up (exit {self.proc.returncode})")

    def result(self):
        # Nothing follows "ready" on stdout until the worker reads "go", so
        # communicate() loses nothing that readline() may have buffered.
        try:
            out, _ = self.proc.communicate("go\n", timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"worker ran longer than {WORKER_TIMEOUT_S} s") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def stop(self):
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def setup_times(args, env, work_dir, count):
    """Set-up times of count fresh workers, each stopped as soon as it is ready."""
    times = []
    for _ in range(count):
        worker = Worker(args, "timed", env, work_dir)
        worker.stop()
        times.append(worker.setup_s)
    return times


def middle_fifth(latencies):
    """Median op latency, estimated as the mean of the latencies ranked in the middle fifth.

    A plain median is one or two ops. On mc-network, where op cost spans
    two orders of magnitude over the 60 ops of a 28 s run, the noise of that
    op and the gap to its neighbours made op_p50_s spread from run to run
    well beyond what host speed did to ops_per_s; averaging the dozen or so
    ops around it leaves mostly the host's share. Failed ops (+inf) make it infinite once
    they reach the middle fifth.
    """
    ordered = sorted(latencies)
    cut = 2 * len(ordered) // 5
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def tail(latencies):
    """(value, percentile, windows): the highest percentile with at least 10 ops above it.

    A run of 2 * TAIL_WINDOW_OPS ops or more is cut into windows of at least
    TAIL_WINDOW_OPS consecutive ops, and the value is the median of the
    windows' values. Over a whole oracle-small run of about 9 000 ops that
    percentile is p99.9, which is set by the host's slowest few seconds: in
    ten 50 s runs it spread by 0.65 of its median, against 0.20 for
    ops_per_s, and the median over windows spread by 0.20. Runs of fewer ops
    (cli-configs, mc-network) are one window, as the plain definition has it.
    """
    windows = max(1, len(latencies) // TAIL_WINDOW_OPS)
    cuts = [round(i * len(latencies) / windows) for i in range(windows + 1)]
    tails = []
    for window in (sorted(latencies[a:b]) for a, b in zip(cuts, cuts[1:])):
        k = max(len(window) - 11, 0)
        tails.append((window[k], 100.0 * (k + 1) / len(window)))
    return statistics.median(v for v, _ in tails), min(p for _, p in tails), windows


def digest_changes(digests):
    reference = json.loads(REFERENCE_DIGESTS.read_text())
    known = [key for key in digests if key in reference]
    return sum(digests[key] != reference[key] for key in known), len(digests) - len(known)


def emit(rows, tallies, metrics):
    attempted = sum(len(t["latencies"]) for t in tallies)
    failures = sum((Counter(t["failures"]) for t in tallies), Counter())
    examples = {label: text for t in reversed(tallies) for label, text in t["examples"].items()}
    for label, n in sorted(failures.items()):
        print(f"# failed op x{n}: {label}; e.g. {examples[label]}")
    print(f"# {'metric':<48} {'value':>14} {'unit':<6} {'samples':>7}  note")
    for name, value, unit, samples, note in rows:
        print(f"# {name:<48} {value:>14.6g} {unit:<6} {samples:>7}  {note}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))


def timed_run(args, workload, env, work_dir):
    setups = setup_times(args, env, work_dir, SETUP_STARTS_EACH_SIDE)
    worker = Worker(args, "timed", env, work_dir)
    setups.append(worker.setup_s)
    try:
        raw = worker.result()
    finally:
        worker.stop()
    setups += setup_times(args, env, work_dir, SETUP_STARTS_EACH_SIDE)
    t = raw["timed"]
    n = len(t["latencies"])
    tail_s, tail_pct, tail_windows = tail(t["latencies"])
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": t["good"] / t["wall"],
        "op_p50_s": middle_fifth(t["latencies"]),
        "op_tail_s": tail_s,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    who = "children" if workload.package == "cvsense.cli" else "worker"
    rows = [
        ("setup_s", values["setup_s"], "s", len(setups),
         "median of fresh workers to first op, started before and after the timed phase"),
        ("ops_per_s", values["ops_per_s"], "1/s", n, f"{t['good']} good ops in {t['wall']:.2f} s, "
                                                     f"{t['blocks']} blocks"),
        ("op_p50_s", values["op_p50_s"], "s", n,
         "mean of the middle fifth of latencies; failed ops count as +inf"),
        ("op_tail_s", values["op_tail_s"], "s", n,
         f"p{tail_pct:.1f}, the highest percentile with >= 10 ops above it"
         + (f", median over {tail_windows} windows of {n // tail_windows}+ ops" if tail_windows > 1 else "")),
    ]
    if workload.name == "mc-network":
        rows.append(("outcomes_per_s", t["outcomes"] / t["wall"], "1/s", t["good"],
                     f"{t['outcomes']} homodyne outcomes"))
    rows += [
        ("peak_rss_mb", values["peak_rss_mb"], "MB", 1, f"peak resident memory of the {who}"),
        ("failed_frac", (n - t["good"]) / n, "ratio", n, f"{n - t['good']} of {n} ops failed"),
    ]
    print(f"# set-up samples (s): {' '.join(f'{x:.4f}' for x in setups)}")
    if t["digests"]:
        changed, unknown = digest_changes(t["digests"])
        print(f"# csv bodies: {len(t['digests'])} distinct, {changed} differ from the reference, "
              f"{unknown} without a reference")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    emit(rows, [t], metrics)


def import_seconds(env):
    """Median wall time of a fresh interpreter running `import cvsense.cli`."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cvsense.cli"], env=env, check=True,
                       timeout=WORKER_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def trace_run(args, workload, env, work_dir):
    values = {"cli.import_s": import_seconds(env)}
    worker = Worker(args, "trace", env, work_dir)
    try:
        raw = worker.result()
    finally:
        worker.stop()
    before, during, after = raw["passes"]
    changed, _ = digest_changes(during["digests"]) if during["digests"] else (0, 0)
    values.update(raw["layers"])
    values.update({
        "cli.bytes_written": during["bytes_written"],
        "cli.csv_bodies_changed": changed,
        "trace.overhead_frac": raw["overhead_frac"],
    })
    ops = len(during["latencies"])
    print(f"# traced pass: {ops} ops in {during['blocks']} blocks, {during['wall']:.2f} s traced, "
          f"{before['wall']:.2f} s and {after['wall']:.2f} s untraced")
    rows = []
    metrics = {}
    for name, unit, _ in tracing.per_layer_metrics():
        rows.append((name, values[name], unit, ops, ""))
        metrics[name] = {"value": values[name], "unit": unit}
    emit(rows, raw["passes"], metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "cvsense" / "__init__.py").is_file():
        print(f"error: {root} is not a cvsense checkout (no src/cvsense); "
              "run from the repository root", file=sys.stderr)
        return 2
    work_dir = root / ".perfbench_work"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    env = worker_env(root)
    print(f"# environment: {json.dumps(provenance(env, root, args.seed))}")
    print(f"# workload: {args.workload}, {'traced' if args.trace else 'timed'}, "
          f"{args.seconds:g} s, one client in one worker process")
    workload = workloads.WORKLOADS[args.workload]
    try:
        (trace_run if args.trace else timed_run)(args, workload, env, work_dir)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
