"""Run one bardina2d CLI command with every layer span traced.

Usage: python perfbench/traced_cli.py TRACE_JSON CLI_ARG...

Pins the thread pools first, exactly as `bardina2d.cli.main` would, so the
wrapping (which imports numpy) cannot defeat the pin.  Then it wraps the
functions listed in tracing.SPANS, calls `cli.main`, restores every wrapped
attribute and writes the per-span summary to TRACE_JSON.
"""

import json
import os
import sys

from tracing import Tracer


def main(trace_path, cli_args):
    from bardina2d import cli

    thread_vars = getattr(cli, "_THREAD_VARS", ())
    seen = {var: os.environ.get(var) for var in thread_vars}
    cli._pin_thread_pools()
    pinned = {var: os.environ.get(var) for var in thread_vars}

    tracer = Tracer()
    wrapped = tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()

    import numpy
    import scipy

    report = {
        "exit": code,
        "wrapped": wrapped,
        "spans": tracer.summary(),
        "extras": tracer.extras,
        "threads_seen": seen,
        "threads_pinned": pinned,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
