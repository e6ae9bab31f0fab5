"""Compare fresh benchmark results against committed baselines.

CI regenerates the ``BENCH_*.json`` artifacts (batch, obs, serve,
hotpath, incremental, frontend, resilience) and this script diffs them
against ``benchmarks/baselines/``.  Only *ratio* metrics are gated
(speedups, memo hit rates, tracing overhead): raw wall-clock seconds
vary wildly across shared runners, but the ratios are computed within
one run and stay stable.  Exact workload invariants (query counts,
frontend corpus extraction counts) must match bit-for-bit.  A ratio
metric regresses when it moves more than ``TOLERANCE`` in its bad
direction — higher-better metrics may drop at most 25%, lower-better
metrics may rise at most 25%.  Improvements never fail the gate.
Every artifact carries the recording host (``cpus`` + ``host`` from
:mod:`repro.obs.hostmeta`); a baseline/fresh host mismatch is noted in
the log so cross-machine ratio drift can be read in context.

Usage::

    python benchmarks/check_regression.py \
        [--fresh-dir .] [--baseline-dir benchmarks/baselines] [--tolerance 0.25]

Exit status 0 when every gated metric is within tolerance, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

TOLERANCE = 0.25

# (file, metric, direction): direction "higher" means bigger is better.
GATED_METRICS: tuple[tuple[str, str, str], ...] = (
    ("BENCH_batch.json", "speedup_cold_vs_serial", "higher"),
    ("BENCH_batch.json", "speedup_warm_vs_serial", "higher"),
    ("BENCH_batch.json", "cold_hit_rate_bounds", "higher"),
    ("BENCH_batch.json", "warm_hit_rate_bounds", "higher"),
    ("BENCH_batch.json", "cold_hit_rate_no_bounds", "higher"),
    ("BENCH_batch.json", "warm_hit_rate_no_bounds", "higher"),
    ("BENCH_obs.json", "collecting_ratio", "lower"),
    # The serving layer's whole point: a warm second run must keep
    # answering from cache (the test itself also hard-floors it >=0.9).
    ("BENCH_serve.json", "warm_hit_rate", "higher"),
    # The memo's whole point: a fully warm query stream must stay much
    # cheaper than the cold one (within-run ratio, noise-stable).
    ("BENCH_hotpath.json", "warm_speedup", "higher"),
    # The incremental engine's pitch: a single-statement edit on a
    # ~100-nest program beats a cold full re-analysis by >=5x (the
    # benchmark hard-floors that in-run) and re-queries under 10% of
    # the pairs.  Both are within-run ratios, noise-stable.
    ("BENCH_incremental.json", "warm_delta_speedup", "higher"),
    ("BENCH_incremental.json", "requery_fraction_max", "lower"),
    # Clean-path cost of the resilient client (retry loop + breaker
    # admission per call) as a within-run ratio vs a plain client on
    # the same warm stream.  The benchmark hard-fails above 1.05;
    # this gate catches slower drift against the baseline.
    ("BENCH_resilience.json", "resilient_overhead", "lower"),
)

# Exact workload invariants: the benchmark must still measure the same
# thing, so these must match the baseline bit-for-bit.
EXACT_METRICS: tuple[tuple[str, str], ...] = (
    ("BENCH_batch.json", "queries"),
    ("BENCH_batch.json", "unique_pairs"),
    ("BENCH_batch.json", "unique_problems"),
    ("BENCH_batch.json", "constant_screened"),
    ("BENCH_obs.json", "queries"),
    ("BENCH_serve.json", "queries"),
    ("BENCH_serve.json", "clients"),
    ("BENCH_hotpath.json", "queries"),
    ("BENCH_incremental.json", "statements"),
    ("BENCH_incremental.json", "pairs"),
    ("BENCH_incremental.json", "edits"),
    # The frontend corpus is pure determinism: extraction counts that
    # drift mean a frontend silently lost or invented loop nests.
    ("BENCH_frontend.json", "corpus_files"),
    ("BENCH_frontend.json", "nests"),
    ("BENCH_frontend.json", "statements"),
    ("BENCH_frontend.json", "skipped"),
    ("BENCH_frontend.json", "pairs"),
    ("BENCH_frontend.json", "edges"),
    ("BENCH_resilience.json", "queries"),
)


def _load(directory: Path, name: str) -> dict | None:
    path = directory / name
    if not path.exists():
        return None
    return json.loads(path.read_text())


def check(
    fresh_dir: Path,
    baseline_dir: Path,
    tolerance: float,
    only: frozenset[str] | None = None,
) -> list[str]:
    """All regression messages (empty when the gate passes).

    Every failing metric is reported — a missing benchmark file is
    collected as one failure (its metrics are skipped) rather than
    aborting the whole report, so one broken benchmark job cannot hide
    a regression in another.
    """
    failures: list[str] = []
    cache: dict[tuple[str, str], dict | None] = {}
    reported_missing: set[tuple[str, str]] = set()
    host_checked: set[str] = set()

    def load(kind: str, directory: Path, name: str) -> dict | None:
        key = (kind, name)
        if key not in cache:
            cache[key] = _load(directory, name)
            if cache[key] is None and key not in reported_missing:
                reported_missing.add(key)
                failures.append(
                    f"missing {kind} benchmark file: {directory / name}"
                )
        return cache[key]

    def note_host(name: str, fresh_doc: dict, base_doc: dict) -> None:
        """Surface cross-host comparisons — ratios still gate, but a
        reader of the log should know the machines differ."""
        if name in host_checked:
            return
        host_checked.add(name)
        fresh_host = (fresh_doc.get("cpus"), fresh_doc.get("host"))
        base_host = (base_doc.get("cpus"), base_doc.get("host"))
        if base_host == (None, None):
            return  # pre-hostmeta baseline: nothing to compare
        if fresh_host != base_host:
            print(
                f"  {'note':>10}  {name}: baseline host "
                f"{base_host} != fresh host {fresh_host}"
            )

    for name, metric in EXACT_METRICS:
        if only is not None and name not in only:
            continue
        fresh_doc = load("fresh", fresh_dir, name)
        base_doc = load("base", baseline_dir, name)
        if fresh_doc is None or base_doc is None:
            continue  # the missing file is already one failure
        note_host(name, fresh_doc, base_doc)
        fresh = fresh_doc.get(metric)
        base = base_doc.get(metric)
        if fresh != base:
            failures.append(
                f"{name}:{metric} workload drifted: baseline {base}, fresh {fresh}"
            )

    for name, metric, direction in GATED_METRICS:
        if only is not None and name not in only:
            continue
        fresh_doc = load("fresh", fresh_dir, name)
        base_doc = load("base", baseline_dir, name)
        if fresh_doc is None or base_doc is None:
            continue  # the missing file is already one failure
        note_host(name, fresh_doc, base_doc)
        fresh = fresh_doc.get(metric)
        base = base_doc.get(metric)
        if fresh is None or base is None:
            failures.append(f"{name}:{metric} missing (baseline {base}, fresh {fresh})")
            continue
        if direction == "higher":
            floor = base * (1.0 - tolerance)
            ok = fresh >= floor
            verdict = f"must stay >= {floor:.4g}"
        else:
            ceiling = base * (1.0 + tolerance)
            ok = fresh <= ceiling
            verdict = f"must stay <= {ceiling:.4g}"
        status = "ok" if ok else "REGRESSION"
        print(
            f"  {status:>10}  {name}:{metric}  baseline={base:.4g}"
            f"  fresh={fresh:.4g}  ({verdict})"
        )
        if not ok:
            failures.append(
                f"{name}:{metric} regressed: baseline {base:.4g}, "
                f"fresh {fresh:.4g} ({verdict})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh-dir", type=Path, default=Path("."))
    parser.add_argument(
        "--baseline-dir", type=Path, default=Path("benchmarks/baselines")
    )
    parser.add_argument("--tolerance", type=float, default=TOLERANCE)
    parser.add_argument(
        "--only",
        action="append",
        metavar="BENCH_FILE",
        help="gate only these artifact file names (repeatable); "
        "jobs that regenerate a single benchmark use this to skip "
        "the artifacts they did not produce",
    )
    args = parser.parse_args(argv)

    print(
        f"bench-regression gate (tolerance {args.tolerance:.0%}, "
        f"baselines from {args.baseline_dir})"
    )
    failures = check(
        args.fresh_dir,
        args.baseline_dir,
        args.tolerance,
        only=frozenset(args.only) if args.only else None,
    )
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
