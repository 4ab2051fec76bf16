"""Run the gausscov CLI in this process with the tracer installed.

Usage: python3 cli_child.py SPANS_JSON ARGS...

Runs ``gausscov.cli.main(ARGS)`` inside a span, writes the recorded spans to
SPANS_JSON and exits with the CLI's exit code.  Imports happen before the
span opens, so the parent can charge them to start-up.
"""

import json
import sys

import gausscov.cli

import tracer as perf_tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = perf_tracer.Tracer()
    t.install()
    try:
        with t.span("cli", "main"):
            code = gausscov.cli.main(argv)
    finally:
        t.uninstall()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(t.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
