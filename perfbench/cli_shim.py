"""Run one oplab CLI command with the layer wrappers installed.

    python3 perfbench/cli_shim.py <trace dir> <oplab cli arguments...>

Writes the command's counters and spans as JSON into <trace dir> and exits
with the command's exit code.
"""

import json
import os
import sys
import time

from tracing import Tracer


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import oplab.cli
    tracer.task = " ".join(argv[:2])
    try:
        code = tracer.span("bench", "cli", oplab.cli.main, argv)
    finally:
        tracer.uninstall()
        name = f"{time.perf_counter_ns():020d}-{os.getpid()}.json"
        with open(os.path.join(trace_dir, name), "w") as fh:
            json.dump({"counters": tracer.counters(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
