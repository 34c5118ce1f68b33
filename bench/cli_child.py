"""Traced ``convavg`` CLI invocation, used by the traced cli-bundled run.

    python3 cli_child.py STATS.json SUBCOMMAND [ARGS...]

Runs ``convavg.cli.main`` exactly as ``python -m convavg`` does, inside a
``cli.<SUBCOMMAND>`` span with the tracing wrappers installed, then
writes the spans and counters to STATS.json.  The parent puts the
program's ``src`` directory on PYTHONPATH.
"""

import sys

from convavg import cli

import tracing


def main(stats_path, argv):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        code = tracer.span("cli." + argv[0], cli.main)(argv)
    tracer.dump(stats_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
