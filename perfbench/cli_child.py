"""Traced stand-in for ``python -m infochoice.cli``, one command per process.

    python3 perfbench/cli_child.py <cli arguments>

Times ``import infochoice.cli``, installs the span wrappers (plus one
around the command function the CLI dispatches to), calls ``cli.main``
with the arguments, and writes one JSON line to stderr: the monotonic time
at which this script started, the import time and the span summary.
Stdout carries the CLI's own output unchanged.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

_t0 = time.perf_counter()
import infochoice  # noqa: E402
from infochoice import cli  # noqa: E402

IMPORT_MS = (time.perf_counter() - _t0) * 1e3

from spans import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install(infochoice)
    for name, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[name] = tracer.wrap("cli.command", fn)
    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    record = {"t_start": T_START, "import_ms": IMPORT_MS, "code": code,
              "summary": tracer.summary()}
    sys.stderr.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
