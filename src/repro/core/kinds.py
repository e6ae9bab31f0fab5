"""Dependence kind classification (flow / anti / output / input).

Direction vectors say *when* two references collide; the access kinds
say *what* the collision means to a compiler:

* **flow** (true) dependence — a write reaches a later read;
* **anti** dependence — a read precedes a later write of the same cell;
* **output** dependence — two writes to the same cell, order matters;
* **input** "dependence" — two reads; harmless, tracked for locality.

For a pair ``(r1, r2)`` with direction vector ``psi`` (components over
the common loops), ``r1``'s iteration precedes ``r2``'s iff the first
non-``=`` component is ``<``; it follows iff that component is ``>``;
all-``=`` vectors are loop-independent and program order (statement
position) breaks the tie.  Classification therefore needs both the
direction vectors and the sites' order in the program.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyzer import DependenceAnalyzer
from repro.core.result import DirectionResult
from repro.ir.program import AccessSite
from repro.system.depsystem import Direction

__all__ = ["DependenceKind", "DependenceEdge", "classify_pair"]


class DependenceKind:
    FLOW = "flow"
    ANTI = "anti"
    OUTPUT = "output"
    INPUT = "input"


@dataclass(frozen=True)
class DependenceEdge:
    """One classified dependence: source site, sink site, kind, vector.

    The *source* executes first; the vector is expressed source-to-sink
    (its first non-``=`` component, if any, is ``<`` or ``*``).
    """

    source: AccessSite
    sink: AccessSite
    kind: str
    vector: tuple[str, ...]
    loop_carried: bool


def _first_direction(vector: tuple[str, ...]) -> str:
    """The orientation of a vector: '<', '>', '=' or '*' (ambiguous)."""
    for component in vector:
        if component == Direction.EQ:
            continue
        return component
    return Direction.EQ


def _flip(vector: tuple[str, ...]) -> tuple[str, ...]:
    swap = {
        Direction.LT: Direction.GT,
        Direction.GT: Direction.LT,
        Direction.EQ: Direction.EQ,
        Direction.ANY: Direction.ANY,
    }
    return tuple(swap[c] for c in vector)


def _kind(first_is_write: bool, second_is_write: bool) -> str:
    if first_is_write and second_is_write:
        return DependenceKind.OUTPUT
    if first_is_write:
        return DependenceKind.FLOW
    if second_is_write:
        return DependenceKind.ANTI
    return DependenceKind.INPUT


def classify_pair(
    site1: AccessSite,
    site2: AccessSite,
    analyzer: DependenceAnalyzer | None = None,
    directions: DirectionResult | None = None,
) -> list[DependenceEdge]:
    """All dependence edges between two sites, oriented source->sink.

    Each maximal direction vector yields one edge.  A ``>``-oriented
    vector means ``site2``'s iteration actually precedes ``site1``'s,
    so the edge is flipped; an all-``=`` vector is loop-independent and
    oriented by statement order; a leading-``*`` vector is conservative
    in both orientations and reported as two edges.
    """
    if directions is None:
        if analyzer is None:
            analyzer = DependenceAnalyzer()
        directions = analyzer.directions(
            site1.ref, site1.nest, site2.ref, site2.nest
        )
    edges: list[DependenceEdge] = []
    for vector in sorted(directions.vectors):
        first = _first_direction(vector)
        if first == Direction.LT:
            orientations = [(site1, site2, vector)]
        elif first == Direction.GT:
            orientations = [(site2, site1, _flip(vector))]
        elif first == Direction.EQ:
            if site1.stmt_index == site2.stmt_index:
                # Within one statement instance the right-hand side is
                # evaluated before the store: reads execute first, so a
                # same-iteration write/read collision is an *anti*
                # dependence from the read to the write.
                if site1.ref.is_write and not site2.ref.is_write:
                    orientations = [(site2, site1, _flip(vector))]
                else:
                    orientations = [(site1, site2, vector)]
            elif site1.site_index <= site2.site_index:
                orientations = [(site1, site2, vector)]
            else:
                orientations = [(site2, site1, _flip(vector))]
        else:  # leading '*': both orientations possible
            orientations = [
                (site1, site2, vector),
                (site2, site1, _flip(vector)),
            ]
        for source, sink, oriented in orientations:
            edges.append(
                DependenceEdge(
                    source=source,
                    sink=sink,
                    kind=_kind(source.ref.is_write, sink.ref.is_write),
                    vector=oriented,
                    loop_carried=_first_direction(oriented) != Direction.EQ,
                )
            )
    return edges
