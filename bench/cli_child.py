"""Run one strataux CLI command in-process with layer tracing.

Usage: python bench/cli_child.py SPANS_PATH COMMAND [ARGS...]

Imports strataux.cli, wraps the layer functions, calls strataux.cli.main
with the remaining arguments (stdout is the command's own), writes the
recorded spans to SPANS_PATH as a JSON list, and exits with main's code.
The importing process's PYTHONPATH selects which strataux is traced.
"""
from __future__ import annotations

import json
import sys

import strataux.cli

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed():
        code = strataux.cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
