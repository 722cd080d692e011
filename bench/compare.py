"""Compare two sets of benchmark results under the bounds in BENCHMARK.json.

Usage, from the repository root::

    python bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is one ``bench/run.py --out FILE`` document.  For every
workload and end-to-end metric the tool prints each set's median and
interquartile range (IQR, as a share of the median) and a verdict for
B against A:

* ``unresolved`` -- either set's IQR is wider than the metric's bound,
  and B's runs do not all read better (or all worse) than A's;
* ``worse`` / ``better`` -- B's median differs from A's by more than the
  bound in the bad / good direction;
* ``unchanged`` -- otherwise.

Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(a: list[float], b: list[float], *, better: str,
            bound: float) -> tuple[str, float]:
    """Verdict for B against A, and the relative change of the medians
    (positive = worse)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / med_a
    if better == "higher":
        change = -change
    spread = max(_iqr(a) / med_a, _iqr(b) / med_b)

    def beats(x: float, y: float) -> bool:
        return x < y if better == "lower" else x > y

    if spread > bound:
        if all(beats(y, x) for x in a for y in b):
            return "better", change
        if all(beats(x, y) for x in a for y in b) and change > bound:
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "unchanged", change


def _load(paths: list[str]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, over all files of one set."""
    values: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for workload, result in document["workloads"].items():
            metrics = values.setdefault(workload, {})
            for name, entry in result["metrics"].items():
                metrics.setdefault(name, []).append(entry["value"])
    return values


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: compare.py A.json... -- B.json...", file=sys.stderr)
        return 2
    split = argv.index("--")
    paths_a, paths_b = argv[:split], argv[split + 1:]
    if not paths_a or not paths_b:
        print("compare: both sides need at least one result file",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    set_a, set_b = _load(paths_a), _load(paths_b)
    print(f"{'workload':12s} {'metric':14s} {'A median':>11s} {'A iqr':>7s} "
          f"{'B median':>11s} {'B iqr':>7s} {'worse by':>8s} {'bound':>6s}"
          "  verdict")
    any_worse = False
    for workload in sorted(set_a.keys() & set_b.keys()):
        for metric in metrics:
            name = metric["name"]
            a = set_a[workload].get(name)
            b = set_b[workload].get(name)
            if not a or not b:
                continue
            result, change = verdict(a, b, better=metric["better"],
                                        bound=metric["bound"])
            any_worse |= result == "worse"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{workload:12s} {name:14s} {med_a:11.5g} "
                  f"{100 * _iqr(a) / med_a:6.2f}% {med_b:11.5g} "
                  f"{100 * _iqr(b) / med_b:6.2f}% {100 * change:+7.2f}% "
                  f"{100 * metric['bound']:5.1f}%  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
