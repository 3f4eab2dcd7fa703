"""``python -m twobox`` with span recording, for the traced run of the cli workload.

Usage: python benchmarks/cli_child.py SPAN_FILE ARGS...

Runs ``twobox.cli.main(ARGS)`` with the tracing shim installed, writes the
spans to SPAN_FILE and exits with the command's exit code.
"""

import sys

import tracing
import twobox.cli


def main():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return twobox.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.write(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
