"""Run the cwwkit command line with span tracing, in a fresh interpreter.

    python traced_cli.py SPANS_FILE [cwwkit arguments...]

Behaves like `python -m cwwkit.cli [arguments...]` (same `main`, same
output and exit code) and writes the recorded spans to SPANS_FILE.
"""

import sys

import cwwkit.cli

from tracing import Tracer

tracer = Tracer()
with tracer.installed():
    code = cwwkit.cli.main(sys.argv[2:])
tracer.write(sys.argv[1])
sys.exit(code)
