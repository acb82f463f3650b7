"""Run one realtoric command line in this process, traced and timed.

Usage: python bench/cli_child.py SRC_DIR COMMAND [ARGS...]

Imports numpy, then realtoric, each inside a span, then installs the
tracer of ``spans.py`` and calls ``realtoric.cli.run`` on the remaining
arguments. The command's own output goes to standard output as usual. The last line of standard error
is one JSON object: the import and run times in seconds and the exported
spans and counters. The exit code is the command's.
"""

import importlib
import json
import sys
import time

from spans import Tracer


def main() -> int:
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.span("cli.numpy_import"):
        import numpy  # noqa: F401  (timed on its own: realtoric imports it)
    numpy_done = time.perf_counter()
    with tracer.span("cli.realtoric_import"):
        cli = importlib.import_module("realtoric.cli")
    imported = time.perf_counter()
    tracer.install()
    run_start = time.perf_counter()
    code = cli.run(argv)
    run_end = time.perf_counter()
    tracer.uninstall()
    sys.stdout.flush()
    payload = {
        "numpy_import_s": numpy_done - start,
        "import_s": imported - start,
        "run_s": run_end - run_start,
        "trace": tracer.export(),
    }
    print(json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
