"""Implementation of the ``python -m repro fuzz`` subcommand.

Two modes:

* **generate** (default) — run a differential-fuzzing campaign from a
  seed: `repro fuzz --seed 0 --iterations 500`.  Output is
  bit-reproducible for a fixed ``(seed, iterations, tiers)`` triple,
  including across ``--jobs`` values (the printed stats only include
  deterministic per-case counters).
* **replay** — re-check a committed corpus directory:
  `repro fuzz --replay tests/corpus`.  No random generation, fast and
  deterministic; this is what PR CI runs.

Exit status 0 when every check passed, 1 when any discrepancy was
found (the report, and any shrunk counterexamples, are printed either
way), 2 when a replayed directory holds a JSON file that is not a
corpus case.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.fuzz.generator import TIERS
from repro.fuzz.harness import FuzzConfig, FuzzReport, replay_cases, run_fuzz
from repro.oracle.enumerate import DEFAULT_RADIUS

__all__ = ["add_fuzz_parser", "cmd_fuzz"]


def add_fuzz_parser(sub: argparse._SubParsersAction) -> argparse.ArgumentParser:
    """Register the ``fuzz`` subcommand on a subparsers object."""
    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing against the enumeration oracle",
        description=(
            "Generate random dependence problems and cross-check the "
            "exact cascade against brute-force enumeration, the inexact "
            "baselines, and the analyzer's own metamorphic invariants "
            "(memoization, sharding, unused-variable elimination, "
            "reference swapping, source round-trip)."
        ),
    )
    p.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0)"
    )
    p.add_argument(
        "-n",
        "--iterations",
        type=int,
        default=1000,
        help="number of generated cases (default 1000)",
    )
    p.add_argument(
        "--tier",
        action="append",
        choices=TIERS + ("all",),
        default=None,
        help="difficulty tier(s) to fuzz; repeatable (default: all)",
    )
    p.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop generating new cases after this many seconds",
    )
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for case checking (default 1)",
    )
    p.add_argument(
        "--shrink",
        dest="shrink",
        action="store_true",
        default=True,
        help="minimize failing cases (default)",
    )
    p.add_argument(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        help="report failures without minimizing them",
    )
    p.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="write shrunk counterexamples to this directory",
    )
    p.add_argument(
        "--replay",
        metavar="DIR",
        default=None,
        help="re-check a committed corpus directory instead of generating",
    )
    p.add_argument(
        "--oracle-radius",
        type=int,
        default=DEFAULT_RADIUS,
        help=(
            "search half-width for unbounded/symbolic variables "
            f"(default {DEFAULT_RADIUS})"
        ),
    )
    p.add_argument(
        "--no-e2e",
        dest="e2e",
        action="store_false",
        default=True,
        help="skip the unparse -> parse -> analyze round-trip check",
    )
    p.add_argument(
        "--no-cross-shard",
        dest="cross_shard",
        action="store_false",
        default=True,
        help="skip the serial-vs-sharded batch-engine comparison",
    )
    p.add_argument(
        "--stats-json",
        metavar="PATH",
        default=None,
        help="also dump the deterministic counter snapshot as JSON",
    )
    p.set_defaults(func=cmd_fuzz)
    return p


def _selected_tiers(args: argparse.Namespace) -> tuple[str, ...]:
    if not args.tier or "all" in args.tier:
        return TIERS
    # Preserve TIERS order and drop duplicates for determinism.
    chosen = set(args.tier)
    return tuple(tier for tier in TIERS if tier in chosen)


def cmd_fuzz(args: argparse.Namespace) -> int:
    tiers = _selected_tiers(args)
    if args.replay is not None:
        from repro.fuzz.corpus import load_corpus

        try:
            cases = load_corpus(args.replay)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        if tiers != TIERS:
            cases = [case for case in cases if case.tier in tiers]
        if not cases:
            print(f"no corpus cases under {args.replay}")
            return 0
        config = FuzzConfig(
            seed=args.seed,
            iterations=len(cases),
            tiers=tiers,
            jobs=args.jobs,
            shrink=False,
            oracle_radius=args.oracle_radius,
            e2e=args.e2e,
            cross_shard=args.cross_shard,
        )
        report = replay_cases(cases, config)
        print(f"replayed {len(cases)} corpus case(s) from {args.replay}")
    else:
        config = FuzzConfig(
            seed=args.seed,
            iterations=args.iterations,
            tiers=tiers,
            time_budget=args.time_budget,
            jobs=args.jobs,
            shrink=args.shrink,
            corpus=args.corpus,
            oracle_radius=args.oracle_radius,
            e2e=args.e2e,
            cross_shard=args.cross_shard,
        )
        report = run_fuzz(config)
    return _finish(report, args)


def _finish(report: FuzzReport, args: argparse.Namespace) -> int:
    print(report.render())
    if args.stats_json:
        Path(args.stats_json).write_text(
            json.dumps(report.stats_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote stats to {args.stats_json}", file=sys.stderr)
    if args.corpus and report.shrunk:
        print(
            f"wrote {len(report.shrunk)} shrunk counterexample(s) "
            f"to {args.corpus}",
            file=sys.stderr,
        )
    return 0 if report.ok else 1
