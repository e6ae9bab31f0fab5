"""Pretty-printing for decision traces (``repro explain``)."""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.events import (
    CascadeStage,
    ConstantScreen,
    DirectionNode,
    EgcdResolved,
    FmBranch,
    FmSample,
    MemoLookup,
    QueryEnd,
    QueryStart,
)

__all__ = ["format_trace"]


def _ns(ns: int) -> str:
    if ns >= 1_000_000:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.1f} us"
    return f"{ns} ns"


def format_trace(events: Iterable[Any]) -> str:
    """Render one query's event stream as an indented decision path."""
    lines: list[str] = []
    for event in events:
        if isinstance(event, QueryStart):
            lines.append(
                f"query[{event.query_id}] {event.op}: "
                f"{event.ref1} vs {event.ref2} "
                f"({event.n_common} common loop{'s' if event.n_common != 1 else ''})"
            )
        elif isinstance(event, ConstantScreen):
            verdict = "independent" if event.independent else "dependent"
            lines.append(f"  constant screen: {verdict} (no index variables)")
        elif isinstance(event, MemoLookup):
            lines.append(
                f"  memo[{event.table}]: {'hit' if event.hit else 'miss'}"
            )
        elif isinstance(event, EgcdResolved):
            verdict = "independent" if event.independent else "solvable"
            source = "cached factorization" if event.reused else "fresh reduction"
            lines.append(
                f"  egcd: {verdict} via {source} ({_ns(event.elapsed_ns)})"
            )
        elif isinstance(event, CascadeStage):
            lines.append(
                f"  cascade {event.stage}: {event.verdict} "
                f"({_ns(event.elapsed_ns)})"
            )
        elif isinstance(event, FmBranch):
            lines.append(
                f"    fm branch: var t{event.var} at depth {event.depth}, "
                f"split at {event.split_floor}, budget left {event.budget_left}"
            )
        elif isinstance(event, FmSample):
            if event.outcome == "integer_picked":
                lines.append(
                    f"    fm sample: t{event.var} = {event.value}"
                )
            elif event.outcome == "witness_reused":
                lines.append(
                    f"    fm witness reused: t{event.var} = {event.value} "
                    f"(no elimination)"
                )
            elif event.outcome == "empty_constant_range":
                lines.append(
                    f"    fm sample: t{event.var} range empty of integers "
                    f"(exact independence)"
                )
            else:
                lines.append(f"  {event!r}")
        elif isinstance(event, DirectionNode):
            vector = "(" + ", ".join(event.vector) + ")"
            if event.action == "tested":
                lines.append(
                    f"    direction {vector}: tested -> {event.verdict}"
                )
            else:
                lines.append(f"    direction {vector}: forced by distances")
        elif isinstance(event, QueryEnd):
            verdict = "dependent" if event.dependent else "independent"
            tail = f"  => {verdict} [{event.decided_by}]"
            if not event.exact:
                tail += " (inexact)"
            if event.n_vectors is not None:
                tail += f", {event.n_vectors} direction vector"
                tail += "s" if event.n_vectors != 1 else ""
            tail += f" ({_ns(event.elapsed_ns)})"
            lines.append(tail)
        else:  # future event kinds degrade gracefully
            lines.append(f"  {event!r}")
    return "\n".join(lines)
