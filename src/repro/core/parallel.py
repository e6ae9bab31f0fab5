"""Loop-level parallelism detection — the paper's motivating client.

A loop can run its iterations concurrently iff no dependence is
*carried* by it: no pair of conflicting references whose direction
vector is ``=`` on every outer level and ``<`` or ``>`` at the loop's
own level.  (A dependence that is ``=`` at the level is loop-
independent; one carried by an outer loop doesn't constrain this one.)

This module drives dependence analysis over every testable reference
pair of a program and aggregates carried levels per loop — exactly what
a parallelizing compiler's vectorizer front-end consumes.  By default
the pairs go through the batch engine
(:func:`~repro.core.engine.analyze_batch`), which deduplicates repeated
patterns and can shard the unique problems across worker processes
(``jobs``); passing an explicit ``analyzer`` keeps the historical
serial loop, which the experiment harness uses to collect stats on a
single analyzer instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.analyzer import DependenceAnalyzer
from repro.core.result import DirectionResult
from repro.ir.loops import Loop, LoopNest
from repro.ir.program import AccessSite, Program, reference_pairs
from repro.system.depsystem import Direction

__all__ = [
    "LoopReport",
    "carried_levels",
    "analyze_parallelism",
    "aggregate_loop_reports",
]


def carried_levels(result: DirectionResult) -> set[int]:
    """Levels at which some dependence is carried.

    A vector carries at the first non-``=`` level; ``*`` components are
    conservative (could be ``<``, ``=`` or ``>``), so a leading ``*``
    both carries at its level and lets the scan continue inward.
    """
    carried: set[int] = set()
    for vector in result.vectors:
        for level, direction in enumerate(vector):
            if direction == Direction.EQ:
                continue
            carried.add(level)
            if direction != Direction.ANY:
                break
            # '*' includes '=': deeper levels may carry as well.
    return carried


@dataclass
class LoopReport:
    """Parallelizability of one loop in the program."""

    loop: Loop
    level: int
    parallel: bool
    carriers: list[tuple[AccessSite, AccessSite]] = field(default_factory=list)

    def __str__(self) -> str:
        status = "PARALLEL" if self.parallel else "serial"
        return f"{'  ' * self.level}{self.loop}   [{status}]"


def analyze_parallelism(
    program: Program,
    analyzer: DependenceAnalyzer | None = None,
    jobs: int | None = None,
) -> list[LoopReport]:
    """Report, for every loop in the program, whether it is parallel.

    Loops are identified by their position in each statement's nest;
    loops shared by several statements are reported once, and are
    parallel only if *no* reference pair carries a dependence at their
    level.

    With no explicit ``analyzer`` the pairs run through the batch
    engine: repeated patterns are analyzed once and, when ``jobs`` is
    greater than one, unique problems fan out across worker processes
    (see :func:`repro.core.engine.analyze_batch`).  Passing an
    ``analyzer`` keeps the serial per-pair loop on that instance; the
    two paths produce identical reports.
    """
    if analyzer is None:
        from repro.core.engine import analyze_batch, queries_from_program

        report = analyze_batch(queries_from_program(program), jobs=jobs)
        pair_directions = [
            (outcome.query.tag[0], outcome.query.tag[1], outcome.directions)
            for outcome in report.outcomes
        ]
    else:
        if jobs is not None and jobs != 1:
            raise ValueError(
                "jobs > 1 requires the engine path; omit the analyzer"
            )
        pair_directions = [
            (
                site1,
                site2,
                analyzer.directions(
                    site1.ref, site1.nest, site2.ref, site2.nest
                ),
            )
            for site1, site2 in reference_pairs(program)
        ]
    return aggregate_loop_reports(program, pair_directions)


def aggregate_loop_reports(
    program: Program,
    pair_directions: Iterable[
        tuple[AccessSite, AccessSite, DirectionResult]
    ],
) -> list[LoopReport]:
    """Fold per-pair direction results into per-loop parallel verdicts."""
    reports: dict[tuple[Loop, int], LoopReport] = {}

    def report_for(nest: LoopNest, level: int) -> LoopReport:
        key = (nest[level], level)
        if key not in reports:
            reports[key] = LoopReport(loop=nest[level], level=level, parallel=True)
        return reports[key]

    # Every loop starts presumed parallel.
    for stmt in program.statements:
        for level in range(stmt.nest.depth):
            report_for(stmt.nest, level)

    for site1, site2, directions in pair_directions:
        if directions.independent:
            continue
        common = site1.nest.common_prefix_depth(site2.nest)
        for level in carried_levels(directions):
            if level >= common:
                continue
            report = report_for(site1.nest, level)
            report.parallel = False
            report.carriers.append((site1, site2))

    return sorted(reports.values(), key=lambda r: (r.level, r.loop.var))
