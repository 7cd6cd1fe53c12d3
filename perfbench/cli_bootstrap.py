"""Run one cvsense CLI invocation under the benchmark's call tracer.

Usage: python perfbench/cli_bootstrap.py SPANS_OUT OP_ID CLI_ARGS...

Installs the tracing wrappers (which imports cvsense.cli), calls
cvsense.cli.main(CLI_ARGS), writes the recorded spans to SPANS_OUT as JSON
and exits with main's return code, like `python -m cvsense.cli CLI_ARGS`.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv):
    spans_out, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    sys.argv = ["cvsense", *cli_args]
    tracer = tracing.Tracer()
    tracer.op = op_id
    with tracer.installed():
        import cvsense.cli

        try:
            return cvsense.cli.main(cli_args)
        finally:
            Path(spans_out).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
