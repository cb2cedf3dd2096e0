"""Run the hyperdense CLI under the benchmark's tracer.

    python3 perfbench/launch_cli.py SPANS_JSON -- SUBCOMMAND [ARGS...]

Imports ``hyperdense.cli``, installs the tracer, calls ``main(argv)``
and writes the spans to SPANS_JSON when the call returns.
"""

import sys

import hyperdense.cli

from tracer import Tracer


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch_cli.py SPANS_JSON -- SUBCOMMAND [ARGS...]")
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            return hyperdense.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
