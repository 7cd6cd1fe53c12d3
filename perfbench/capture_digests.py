"""Record the SHA-256 of every cli-configs CSV body as the benchmark's reference.

Usage, from the root of a checkout: python3 perfbench/capture_digests.py

Runs each of the seven cli-configs invocations once for every seed of the
pool and writes perfbench/reference_digests.json, keyed by the invocation
without its --out path. Traced runs report how many bodies differ from it
as cli.csv_bodies_changed.
"""

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    root = Path.cwd()
    os.environ.update(run.worker_env(root))
    work_dir = root / ".perfbench_work"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    ctx = workloads.Context(work_dir=work_dir)
    digests = {}
    for cli_seed in range(workloads.CLI_SEED_POOL):
        for args in workloads.cli_invocations(cli_seed):
            key = " ".join(args)
            if key not in digests:
                params = {"args": args}
                facts = workloads.check_cli(params, workloads.run_cli(params, ctx))
                digests.update(facts["digests"])
                print(key, digests[key], flush=True)
    run.REFERENCE_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
