"""Benchmark worker: one fresh interpreter running one workload as a closed loop.

Started by run.py from the root of a checkout, with PYTHONPATH pointing at
its src/ and the BLAS thread variables set. The worker imports the package,
makes its first block of inputs, prints "ready" and waits for a line on
stdin: "go" runs the workload, end of input exits (run.py starts several
workers to time set-up). A single client issues one op at a time. The
result is one JSON line on stdout.

--mode timed runs whole blocks of the size Workload.size_for gives, until
--seconds have passed (it stops at the block boundary
nearest to --seconds). --mode trace runs the workload's fixed size-1
trace blocks three times: untraced, traced, untraced, so that the overhead
is measured against warm untraced passes on both sides.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Tally:
    """Outcome of every op of one pass: latencies of good ops, failure labels, counts."""

    def __init__(self):
        self.latencies = []  # seconds; inf for a failed op
        self.good = 0
        self.failures = Counter()
        self.examples = {}
        self.outcomes = 0
        self.bytes_written = 0
        self.digests = {}
        self.wall = 0.0
        self.blocks = 0

    def run(self, op, ctx):
        kind, params = op
        start = time.perf_counter()
        try:
            out = workloads.RUNNERS[kind](params, ctx)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            return self._fail(f"raised {type(exc).__name__}: {exc}"[:200], kind)
        latency = time.perf_counter() - start
        try:
            facts = workloads.CHECKERS[kind](params, out)
        except oracle.Mismatch as exc:
            return self._fail(f"wrong {exc.args[0]}", f"{kind}: {exc.args[1]}"[:300])
        self.latencies.append(latency)
        self.good += 1
        self.outcomes += facts.get("outcomes", 0)
        self.bytes_written += facts.get("bytes", 0)
        self.digests.update(facts.get("digests", {}))

    def _fail(self, label, example):
        self.latencies.append(float("inf"))
        self.failures[label] += 1
        self.examples.setdefault(label, example)

    def as_dict(self):
        return {
            "latencies": self.latencies, "good": self.good, "failures": dict(self.failures),
            "examples": self.examples, "outcomes": self.outcomes,
            "bytes_written": self.bytes_written, "digests": self.digests,
            "wall": self.wall, "blocks": self.blocks,
        }


def run_blocks(blocks, ctx):
    tally = Tally()
    start = time.perf_counter()
    for ops in blocks:
        for op in ops:
            if ctx.tracer is not None:
                ctx.tracer.op = len(tally.latencies)
            tally.run(op, ctx)
        tally.blocks += 1
    tally.wall = time.perf_counter() - start
    return tally


def timed(workload, seed, seconds, first, ctx):
    """Run block 0 (first, made during set-up) and further blocks until --seconds."""
    size = workload.size_for(seconds)
    durations = []
    start = time.perf_counter()

    def blocks():
        # A block's duration runs from its generation until the caller asks
        # for the next one, so it includes running its ops.
        for b in itertools.count():
            t = time.perf_counter()
            yield first if b == 0 else workload.block(seed, b, size)
            durations.append(time.perf_counter() - t)
            if time.perf_counter() - start + 0.5 * statistics.fmean(durations) >= seconds:
                return

    return {"timed": run_blocks(blocks(), ctx).as_dict()}


def traced(workload, seed, ctx):
    blocks = [workload.block(seed, b) for b in range(workload.trace_blocks)]
    before = run_blocks(blocks, ctx)
    tracer = tracing.Tracer()
    with tracer.installed():
        ctx.tracer = tracer
        during = run_blocks(blocks, ctx)
        ctx.tracer = None
    after = run_blocks(blocks, ctx)
    (ctx.work_dir / f"spans-{workload.name}-{seed}.json").write_text(json.dumps(tracer.spans))
    return {
        "passes": [before.as_dict(), during.as_dict(), after.as_dict()],
        "overhead_frac": during.wall / statistics.fmean([before.wall, after.wall]) - 1.0,
        "layers": tracing.layer_metrics(tracer.spans),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    package = importlib.import_module(workload.package)
    src = (Path.cwd() / "src").resolve()
    if not Path(package.__file__).resolve().is_relative_to(src):
        print(f"error: imported {package.__file__}, not the checkout's {src}", file=sys.stderr)
        return 2
    first = workload.block(args.seed, 0, workload.size_for(args.seconds) if args.mode == "timed" else 1)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    ctx = workloads.Context(work_dir=args.work_dir)
    if args.mode == "timed":
        result = timed(workload, args.seed, args.seconds, first, ctx)
    else:
        result = traced(workload, args.seed, ctx)
    who = resource.RUSAGE_CHILDREN if workload.package == "cvsense.cli" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
