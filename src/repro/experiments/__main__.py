"""Regenerate the experiment reports from the command line.

``python -m repro.experiments``           runs every experiment (E1–E9)
``python -m repro.experiments E1 E6``     runs a subset
``python -m repro.experiments --markdown`` emits the same tables as markdown
``python -m repro.experiments --workers 2`` runs the pooled experiments on one
two-worker pool, shared by the whole invocation
"""

from __future__ import annotations

import argparse
import inspect
import sys

from ..parallel import WorkerPool
from .runners import EXPERIMENTS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for ``python -m repro.experiments``."""
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    parser.add_argument("experiments", nargs="*", default=[],
                        help="experiment ids (default: all of E1..E9)")
    parser.add_argument("--markdown", action="store_true",
                        help="emit GitHub-flavoured markdown tables")
    parser.add_argument("--parallel", action="store_true",
                        help="fan the trial table of each diagnosis experiment out "
                             "in chunks over one shared-memory worker pool")
    parser.add_argument("--workers", type=int, default=None, metavar="W",
                        help="width of that pool; implies --parallel")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    names = [name.upper() for name in args.experiments] or sorted(EXPERIMENTS)
    pool = (WorkerPool(args.workers)
            if args.parallel or args.workers is not None else None)
    ok = True
    try:
        for name in names:
            runner = EXPERIMENTS.get(name)
            takes_pool = (runner is not None
                          and "pool" in inspect.signature(runner).parameters)
            report = run_experiment(name, **({"pool": pool} if takes_pool else {}))
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
    finally:
        if pool is not None:
            pool.shutdown()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
