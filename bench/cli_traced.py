"""Run one CLI command with layer spans, for the traced cli-files pass.

Usage: python3 cli_traced.py SPANS_JSON CLI_ARGS...

Wraps the layer functions as `spans.instrument` does, runs
`cliquecomm.cli.main(CLI_ARGS)` inside a `cli.main` span, writes the spans
and counters to SPANS_JSON and exits with the command's exit code.
"""

import sys

import spans

if __name__ == "__main__":
    from cliquecomm import cli

    tracer = spans.Tracer()
    spans.instrument(tracer)
    tracer.begin("cli.main")
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.end()
        tracer.write(sys.argv[1])
    sys.exit(code)
