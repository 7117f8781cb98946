#!/usr/bin/env python3
"""Compare the metric medians of two sets of run records.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Each file is a run record that perfbench/run.py writes under .perfbench/.
Records are grouped by workload and trace mode, and each metric's median
over the new runs is shown as a share of its median over the base runs.
Runs whose kernel backend differs are refused, because the backend
changes every number.
"""

import json
import statistics
import sys
from collections import defaultdict


def load(paths):
    groups = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1 :])
    backends = {r["env"]["backend"] for group in (*base.values(), *new.values()) for r in group}
    if len(backends) != 1:
        print(f"refusing to compare runs on different backends: {sorted(backends)}", file=sys.stderr)
        return 2
    for key in sorted(base.keys() & new.keys()):
        workload, trace = key
        print(f"{workload} trace={trace}: {len(base[key])} base runs, {len(new[key])} new runs")
        for name, metric in base[key][0]["metrics"].items():
            b = statistics.median(r["metrics"][name]["value"] for r in base[key])
            n = statistics.median(r["metrics"][name]["value"] for r in new[key])
            change = f"{n / b - 1:+.1%}" if b else "n/a"
            print(f"  {name:<48} {b:>12.6g} -> {n:>12.6g} {metric['unit']:<6} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
