"""Run the tachocheck CLI with spans recorded.

Usage: python traced_cli.py SPANS_OUT CLI_ARGS...

Installs the tracer, runs cli.main(CLI_ARGS), writes the spans as JSON to
SPANS_OUT and exits with main's status. Needs tachocheck importable, e.g.
through PYTHONPATH.
"""

import json
import sys

import tachocheck.cli as cli
import tracing

tracer = tracing.Tracer()
tracer.install()
try:
    status = cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        json.dump(tracer.spans, out)
sys.exit(status)
