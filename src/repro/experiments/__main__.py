"""Regenerate the experiment reports from the command line.

``python -m repro.experiments``           runs every experiment (E1–E9)
``python -m repro.experiments E1 E6``     runs a subset
``python -m repro.experiments --markdown`` emits markdown tables (for EXPERIMENTS.md)
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .runners import EXPERIMENTS, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    parser.add_argument("experiments", nargs="*", default=[],
                        help="experiment ids (default: all of E1..E9)")
    parser.add_argument("--markdown", action="store_true",
                        help="emit GitHub-flavoured markdown tables")
    parser.add_argument("--parallel", action="store_true",
                        help="fan the trial table of each diagnosis experiment out "
                             "in chunks over a shared-memory worker pool")
    parser.add_argument("--workers", type=int, default=None, metavar="W",
                        help="pool width for experiments with a pooled mode "
                             "(E1); implies chunked parallel execution")
    args = parser.parse_args(argv)

    names = [name.upper() for name in args.experiments] or sorted(EXPERIMENTS)
    ok = True
    for name in names:
        kwargs = {}
        runner = EXPERIMENTS.get(name)
        parameters = (inspect.signature(runner).parameters
                      if runner is not None else {})
        if args.parallel and "parallel" in parameters:
            kwargs["parallel"] = True
        if args.workers is not None and "workers" in parameters:
            kwargs["workers"] = args.workers
        report = run_experiment(name, **kwargs)
        ok &= report.claims_verified
        if args.markdown:
            print(f"### {report.experiment}: {report.title}\n")
            print(report.to_markdown())
            if report.notes:
                print(f"\n{report.notes}")
            print()
        else:
            print(report.to_text())
            print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
