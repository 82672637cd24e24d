"""Run ``repro.cli`` with the layer ledger installed; dump spans on exit.

Usage: ``python traced_serve.py SPANS.json serve --http 0 ...``

Everything after the first argument goes to ``repro.cli.main`` unchanged,
so the traced server is the deployed ``serve`` command plus wrappers.  On a
graceful shutdown (SIGTERM) the spans of this process and of every pool
task are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from ledger import Tracer, install

    from repro import cli

    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    facts = install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        dump = {"spans": tracer.spans, "span_cost_s": tracer.span_cost(), **facts}
        temp = out_path + ".tmp"
        with open(temp, "w") as fh:
            json.dump(dump, fh)
        os.replace(temp, out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
