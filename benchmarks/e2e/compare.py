"""Compare two sets of end-to-end results, metric by metric.

    python3 benchmarks/e2e/compare.py A/ B/

``A`` (the base, e.g. the parent commit) and ``B`` each hold the result
files of several ``run.py`` runs (``--out`` directories, searched
recursively for ``<workload>.json``).  For every workload and every
end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, B's median as a ratio of A's (with A's median as the
base), and a verdict against the metric's bound:

``improved``    B wins at least 9 in 10 run pairs (runs paired in path
                order, ties counting for neither) and B's median is
                better than A's by more than A's interquartile distance
``regressed``   B's median is worse than A's by more than the bound
``unresolved``  the larger run-to-run spread (IQR / median) of the two
                sides exceeds the bound, and not every run of B beats
                every run of A
``ok``          none of these

The first that applies is printed.

The exit code is 1 when any pairing regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _load(directory: Path, workload: str) -> list[dict]:
    return [json.loads(path.read_text()) for path in sorted(directory.rglob(f"{workload}.json"))]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], bound: float, higher_is_better: bool) -> str:
    """The section-8 verdict for one metric on one workload."""
    sign = 1.0 if higher_is_better else -1.0
    a1, a, a3 = _quartiles(base)
    b1, b, b3 = _quartiles(new)
    worse_by = sign * (a - b) / a
    spread = max((a3 - a1) / a, (b3 - b1) / b)
    all_better = all(sign * (y - x) > 0 for x in base for y in new)
    pairs = list(zip(base, new))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (b - a) > a3 - a1:
        return "improved"
    if worse_by > bound:
        return "regressed"
    if spread > bound and not all_better:
        return "unresolved"
    return "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = Path(argv[0]), Path(argv[1])
    regressed = False
    print(
        f"{'workload':15s} {'metric':18s} {'A median [q1, q3]':>32s} "
        f"{'B median [q1, q3]':>32s} {'B/A (base: A median)':>30s}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = _load(side_a, workload), _load(side_b, workload)
        if not runs_a or not runs_b:
            print(f"{workload:15s} (no results on {'A' if not runs_a else 'B'})")
            continue
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            base = [run["metrics"][name]["value"] for run in runs_a]
            new = [run["metrics"][name]["value"] for run in runs_b]
            a1, a, a3 = _quartiles(base)
            b1, b, b3 = _quartiles(new)
            result = verdict(base, new, metric["bound"], metric["better"] == "higher")
            regressed |= result == "regressed"
            print(
                f"{workload:15s} {name:18s} "
                f"{f'{a:.4g} [{a1:.4g}, {a3:.4g}]':>32s} "
                f"{f'{b:.4g} [{b1:.4g}, {b3:.4g}]':>32s} "
                f"{f'{b / a:.3f} (base {a:.4g} {unit})':>30s}  {result}"
                f"  (n={len(base)}+{len(new)}, bound {metric['bound']:.0%})"
            )
        probe_a, probe_b = (
            statistics.median(run["probe_ns"]["median"] / 1e6 for run in runs)
            for runs in (runs_a, runs_b)
        )
        print(
            f"{workload:15s} {'speed probe':18s} {probe_a:>32.4g} {probe_b:>32.4g} "
            f"{f'{probe_b / probe_a:.3f} (base {probe_a:.4g} ms)':>30s}  "
            "(the fixed loop times are scaled by; higher is a slower host)"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
