"""Start the service the way a user does, optionally with layer spans.

    python perfbench/launch.py [--trace-out SPANS.json] serve CORPUS --port 0

Runs ``repro.cli.main`` with the remaining arguments in this process.
With ``--trace-out`` the layer wrappers of :mod:`tracing` are installed
first, the import of the program is recorded as a ``setup.import`` span,
and every span is written to the given file after the server drains
(``SIGINT`` starts the drain, as Ctrl-C does for ``repro serve``).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import signal  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    # A parent started in the background may pass SIGINT down ignored;
    # the drain relies on SIGINT raising KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if trace_out is None:
        import repro.cli

        return repro.cli.main(argv)
    import tracing

    tracer = tracing.Tracer()
    import repro.cli

    tracer.add("setup.import", _T0, time.perf_counter())
    tracing.install_service(tracer)
    try:
        return repro.cli.main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
