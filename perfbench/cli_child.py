"""Run the ``currsub`` command with the layer tracer installed.

Usage: python3 perfbench/cli_child.py SPANS_CSV ARG...

Runs ``currsub ARG...`` in this process and writes the spans of its
layers to SPANS_CSV, so a traced benchmark run can see inside the
command-line process it spawned. Only the traced run uses it; the timed
run spawns ``python -m currsub.cli`` itself.
"""

import sys

from layertrace import Tracer, package_modules


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from currsub import cli

    tracer = Tracer()
    tracer.install(package_modules())
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write_csv(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
