"""``python -m scramsey`` with the span tracer wrapped around the package.

Usage: tracechild.py <scramsey CLI arguments, including --out DIR>

Runs ``scramsey.cli.main`` in this interpreter after wrapping the public
functions, then writes the span summary next to the output directory as
``DIR.spans.json``.  Exits with the CLI's own exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import scramsey.cli

import spans


def main(argv: list) -> int:
    tracer = spans.Tracer()
    tracer.install()
    code = scramsey.cli.main(argv)
    out = Path(argv[argv.index("--out") + 1])
    out.with_suffix(".spans.json").write_text(json.dumps(tracer.summary()), "utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
