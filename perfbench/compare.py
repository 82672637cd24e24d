#!/usr/bin/env python3
"""Compare benchmark results recorded with ``run.py --record PATH``.

Usage::

    python3 perfbench/compare.py --base BASE1.json ... --new NEW1.json ...

``--base`` and ``--new`` list the same number of records, paired by
position: pair ``i`` must carry identical stamps (workload, seed, window,
trace mode, nproc, Python and numpy versions, native kernel, ``serve``
flags), or the comparison is refused with exit code 2.  For every metric it
prints both medians and the share of pairs the new side won.  Exit code 1
means an ``end_to_end`` metric's new median is worse than the base median
by more than its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def stamp_differences(a: dict, b: dict) -> list[str]:
    return sorted(key for key in set(a) | set(b) if a.get(key) != b.get(key))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.base) != len(args.new):
        print("refused: --base and --new need the same number of records")
        return 2
    base = [load(path) for path in args.base]
    new = [load(path) for path in args.new]
    for i, (b, n) in enumerate(zip(base, new)):
        differing = stamp_differences(b["stamp"], n["stamp"])
        if differing:
            print(f"refused: pair {i} stamps differ in {', '.join(differing)}")
            return 2

    spec = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    regressed = []
    for name in base[0]["result"]["metrics"]:
        b_values = [r["result"]["metrics"][name]["value"] for r in base]
        n_values = [r["result"]["metrics"][name]["value"] for r in new]
        b_med, n_med = statistics.median(b_values), statistics.median(n_values)
        sign = 1 if better[name] == "higher" else -1
        wins = sum(sign * (n - b) > 0 for b, n in zip(b_values, n_values))
        change = (n_med - b_med) / b_med if b_med else 0.0
        line = (f"{name:28s} base {b_med:12.6g}  new {n_med:12.6g}  "
                f"change {change:+.1%}  new wins {wins}/{len(b_values)}")
        if name in bounds:
            worse = -sign * change
            verdict = "REGRESSED" if worse > bounds[name] else "within bound"
            line += f"  ({verdict}, bound {bounds[name]:.0%})"
            if worse > bounds[name]:
                regressed.append(name)
        print(line)
    failed = sum(r["result"]["failed"] for r in new)
    if failed:
        print(f"new side: {failed} failed operations")
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main())
