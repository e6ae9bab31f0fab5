#!/usr/bin/env python
"""CI smoke test for incremental re-analysis (repro.core.incremental).

The gauntlet that proves **delta ≡ full**: drive one
:class:`IncrementalSession` through a seeded 200-edit storm, each edit
sent as source text through ``update_source``, and, after *every*
edit, compare the session's program against ``compile_source`` of the
text and the incrementally maintained graph's full dump (edge list,
``edge_dicts`` serde, DOT text) against a cold full re-analysis of the
current program.  Any divergence — one statement, one edge, one byte
of DOT — fails the job.

Also enforces the efficiency side: across the storm the session must
reuse far more pair answers than it re-queries, or the delta engine is
full re-analysis in disguise, and at least one edit must reuse a
compiled top-level statement (span), or the span compiler always falls
back to a whole-text compile.

With ``--stats-out PATH`` writes a per-edit stats artifact — one
record per edit: kind, kept/dirty/removed counts, spans compiled vs
reused, pairs reused vs re-queried, edge count, delta and full wall
times — which CI passes explicitly and uploads for offline inspection.
Without the flag nothing is written to disk.

Exits 0 when every edit's programs and graphs match, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.incremental import IncrementalSession, full_graph  # noqa: E402
from repro.fuzz.edits import mutate, storm_program  # noqa: E402
from repro.lang.unparse import program_to_source  # noqa: E402
from repro.opt import compile_source  # noqa: E402

SEED = 20260807
N_EDITS = 200
STATEMENTS = 16
ARRAYS = 6


def run_storm(seed: int, n_edits: int) -> tuple[list[dict], list[str]]:
    """One seeded storm; per-edit stats plus any mismatch messages."""
    rng = random.Random(seed)
    program = storm_program(seed, statements=STATEMENTS, arrays=ARRAYS)
    session = IncrementalSession()
    session.update_source(program_to_source(program))
    stats: list[dict] = []
    mismatches: list[str] = []
    for index in range(n_edits):
        program, description = mutate(program, rng, arrays=ARRAYS)
        text = program_to_source(program)
        start = time.perf_counter()
        report = session.update_source(text)
        delta_s = time.perf_counter() - start

        start = time.perf_counter()
        compiled = compile_source(text).program
        reference = full_graph(compiled)
        full_s = time.perf_counter() - start

        if session.program != compiled:
            mismatches.append(
                f"edit {index} ({description}): the span compile differs "
                "from compile_source"
            )
        identical = (
            session.graph.edges == reference.edges
            and session.graph.edge_dicts() == reference.edge_dicts()
            and session.graph.to_dot() == reference.to_dot()
        )
        if not identical:
            mismatches.append(
                f"edit {index} ({description}): delta graph has "
                f"{len(session.graph.edges)} edges, full has "
                f"{len(reference.edges)}"
            )
        stats.append(
            {
                "edit": index,
                "kind": description.split()[0],
                "description": description,
                "statements": len(program.statements),
                "kept": len(report.delta.kept),
                "dirty": len(report.delta.dirty),
                "removed": len(report.delta.removed),
                "spans_compiled": report.spans_compiled,
                "spans_reused": report.spans_reused,
                "pairs": report.total_pairs,
                "reused": report.reused_pairs,
                "requeried": report.requeried_pairs,
                "requery_fraction": round(report.requery_fraction, 4),
                "edges": report.edges,
                "delta_ms": round(delta_s * 1000.0, 3),
                "full_ms": round(full_s * 1000.0, 3),
                "identical": identical and session.program == compiled,
            }
        )
    return stats, mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--edits", type=int, default=N_EDITS)
    parser.add_argument(
        "--stats-out",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="write the per-edit stats artifact here (default: nowhere)",
    )
    args = parser.parse_args()

    print(
        f"incremental smoke: {args.edits}-edit storm (seed {args.seed}), "
        "delta vs cold full after every edit"
    )
    stats, mismatches = run_storm(args.seed, args.edits)

    total_reused = sum(s["reused"] for s in stats)
    total_requeried = sum(s["requeried"] for s in stats)
    spans_compiled = sum(s["spans_compiled"] for s in stats)
    spans_reused = sum(s["spans_reused"] for s in stats)
    delta_ms = sum(s["delta_ms"] for s in stats)
    full_ms = sum(s["full_ms"] for s in stats)
    kinds = sorted({s["kind"] for s in stats})
    summary = {
        "seed": args.seed,
        "edits": args.edits,
        "kinds": kinds,
        "reused_pairs": total_reused,
        "requeried_pairs": total_requeried,
        "spans_compiled": spans_compiled,
        "spans_reused": spans_reused,
        "delta_total_ms": round(delta_ms, 1),
        "full_total_ms": round(full_ms, 1),
        "mismatches": mismatches,
        "per_edit": stats,
    }
    print(
        f"  reused {total_reused} pair answers, re-queried "
        f"{total_requeried}; delta {delta_ms:.0f} ms vs full "
        f"{full_ms:.0f} ms total"
    )
    print(
        f"  compiled {spans_compiled} top-level statements, reused "
        f"{spans_reused}"
    )
    print(f"  edit kinds exercised: {', '.join(kinds)}")
    if args.stats_out is not None:
        args.stats_out.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"  wrote {args.stats_out}")

    status = 0
    if mismatches:
        print(f"FAIL: {len(mismatches)} delta/full mismatch(es):")
        for message in mismatches:
            print(f"  - {message}")
        status = 1
    if set(kinds) != {"insert", "delete", "mutate"}:
        print(f"FAIL: storm exercised only {kinds}")
        status = 1
    if total_reused <= total_requeried:
        print(
            "FAIL: the delta path re-queried more than it reused "
            f"({total_requeried} vs {total_reused}) — full re-analysis "
            "in disguise"
        )
        status = 1
    if spans_reused == 0:
        print(
            "FAIL: no edit reused a compiled statement — the span "
            "compiler always fell back to a whole-text compile"
        )
        status = 1
    if status == 0:
        print(
            f"OK: {args.edits} edits, delta ≡ full after every one "
            "(program, edges, serde and DOT all bit-identical)"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
