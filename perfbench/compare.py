#!/usr/bin/env python3
"""Compare two sets of benchmark records (written by ``run.py --out``).

Usage::

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Refuses (exit 3) when any two records carry different host stamps: a
difference between hosts is not a regression.  Otherwise prints, per
workload and end-to-end metric, both medians and the change as a share of
the base median, and exits 1 when a metric got worse by more than its
``bound`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from host import comparable

ROOT = Path(__file__).resolve().parent.parent


def _load(paths) -> list[dict]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    first = base[0]["host"]
    for record in base + new:
        differs = comparable(first, record["host"])
        if differs:
            print(f"refused: host stamps differ in {differs}", file=sys.stderr)
            return 3

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"base": defaultdict(lambda: defaultdict(list)),
             "new": defaultdict(lambda: defaultdict(list))}
    for side, records in (("base", base), ("new", new)):
        for record in records:
            for name, value in record.get("end_to_end", {}).items():
                sides[side][record["workload"]][name].append(value)

    worse = 0
    for workload in sorted(sides["base"]):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = sides["base"][workload].get(name)
            n = sides["new"][workload].get(name)
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            harm = change if metric["better"] == "lower" else -change
            verdict = "WORSE" if harm > metric["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"{workload:<18} {name:<17} base {mb:.4g} new {mn:.4g} "
                  f"{change:+.1%} (bound {metric['bound']:.0%}) {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
