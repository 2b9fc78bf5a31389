"""Traced cold ``dnncost`` process: the console entry point with timings.

Run as ``python3 clichild.py <dnncost arguments>`` with the checkout's
``src`` on PYTHONPATH and ``BENCH_SPAWN_NS`` set to the parent's
``time.monotonic_ns()`` just before the spawn. The command's output goes to
stdout unchanged; one JSON line of timings goes to stderr last.
"""

import time

_started = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _run() -> int:
    t0 = time.monotonic_ns()
    import numpy  # noqa: F401
    t1 = time.monotonic_ns()
    from dnncost.cli import main
    t2 = time.monotonic_ns()
    try:
        main.main(args=sys.argv[1:], prog_name="dnncost")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    t3 = time.monotonic_ns()
    spawn = int(os.environ["BENCH_SPAWN_NS"])
    sys.stderr.write(json.dumps({
        "cli.interp_start_ms": (_started - spawn) / 1e6,
        "cli.numpy_import_ms": (t1 - t0) / 1e6,
        "cli.import_ms": (t2 - t0) / 1e6,
        "cli.main_ms": (t3 - t2) / 1e6,
    }) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_run())
