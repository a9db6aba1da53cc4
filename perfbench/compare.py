"""Compare two results files written by ``sweep.py``.

Run from the repository root::

    python3 perfbench/compare.py perfbench/results/seed.json new.json

For every end-to-end metric of every workload it prints both medians, the
change in the metric's bad direction as a share of the first median, and a
verdict against the metric's bound from ``BENCHMARK.json``:

* ``unresolved``: the run-to-run spread of either side, (q3 - q1) / median,
  exceeds the bound, and not every run of the second side beats every run of
  the first;
* ``REGRESSION``: worse by more than the bound;
* ``better``: better by more than the larger spread;
* ``within bound`` otherwise.

The exit code is 1 when any pair is a regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / abs(a["median"])
    spread = max(a["spread"], b["spread"])
    if better == "lower":
        all_better = max(b["values"]) < min(a["values"])
    else:
        all_better = min(b["values"]) > max(a["values"])
    if spread > bound and not all_better:
        return worse, "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    if -worse > spread:
        return worse, "better"
    return worse, "within bound"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{first['label']} -> {second['label']}")
    print(f"{'workload':10s} {'metric':14s} {'first':>12s} {'second':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    regressions = 0
    for workload in first["workloads"]:
        if workload not in second["workloads"]:
            print(f"{workload:10s} missing from {second['label']}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = first["workloads"][workload]["summary"][name]
            b = second["workloads"][workload]["summary"][name]
            worse, status = verdict(a, b, metric["better"], metric["bound"])
            regressions += status == "REGRESSION"
            print(f"{workload:10s} {name:14s} {a['median']:12.5g} {b['median']:12.5g} "
                  f"{worse:+9.1%} {metric['bound']:6.2f} "
                  f"{max(a['spread'], b['spread']):7.3f}  {status}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
