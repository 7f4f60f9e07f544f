"""Run one CLI command with tracing, inside the child process.

Usage: python perfbench/cli_runner.py TRACE_FILE ARGS...

Times ``import iobspectra.cli`` as the span ``cli.import``, wraps the same
names as an in-process traced run, calls ``cli.main(ARGS)`` under the span
``cli.main``, and writes the spans to TRACE_FILE.  Exits with main's code.
"""

import os
import sys

import tracer

start = tracer.now()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import iobspectra.cli as cli  # noqa: E402
from iobspectra import core, dynamics, spectrum, steady_state  # noqa: E402

spans = tracer.Tracer()
spans.add_span(tracer.CLI_IMPORT, start, tracer.now(), -1)
spans.install({"core": core, "steady_state": steady_state, "spectrum": spectrum,
               "dynamics": dynamics, "cli": cli})
main = spans.begin(tracer.CLI_MAIN)
code = cli.main(sys.argv[2:])
sys.stdout.flush()
spans.end(main)
spans.write(sys.argv[1])
sys.exit(code)
