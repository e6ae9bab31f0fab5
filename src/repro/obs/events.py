"""Typed trace events: the decision provenance of one dependence query.

Every event answers part of "why did the analyzer say dependent here?":
which memo table hit, what Extended GCD concluded (and whether it
reused a cached factorization), which cascade stages were entered and
what each returned in how many nanoseconds, where Fourier-Motzkin had
to branch, and which direction-refinement tree nodes were actually
tested versus forced or served from the refinement cache.

Events are plain mutable dataclasses so the emitting analyzer can stamp
``query_id`` (see :class:`repro.obs.sinks.QueryScopedSink`) and so
shard merging can renumber them.  ``event_to_dict``/``event_from_dict``
and the JSONL helpers give them a stable serialized form for
artifacts and offline analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, ClassVar, Iterable, Iterator, TextIO

__all__ = [
    "QueryStart",
    "ConstantScreen",
    "MemoLookup",
    "EgcdResolved",
    "CascadeStage",
    "FmBranch",
    "FmSample",
    "DirectionNode",
    "QueryEnd",
    "EVENT_KINDS",
    "event_to_dict",
    "event_from_dict",
    "write_jsonl",
    "read_jsonl",
]


@dataclass
class QueryStart:
    """A dependence query entered the analyzer."""

    kind: ClassVar[str] = "query_start"

    op: str  # "analyze" | "directions"
    ref1: str
    ref2: str
    n_common: int
    query_id: int | None = None


@dataclass
class ConstantScreen:
    """The array-constant fast path fired (Table 1's first column)."""

    kind: ClassVar[str] = "constant_screen"

    independent: bool
    query_id: int | None = None


@dataclass
class MemoLookup:
    """One probe of a memo table (section 5)."""

    kind: ClassVar[str] = "memo_lookup"

    table: str  # "no_bounds" | "with_bounds"
    hit: bool
    query_id: int | None = None


@dataclass
class EgcdResolved:
    """Extended GCD resolved the subscript equalities (section 3.1).

    ``reused`` marks outcomes rebuilt from a cached factorization (a
    no-bounds memo hit) instead of a fresh echelon reduction.
    """

    kind: ClassVar[str] = "egcd"

    independent: bool
    reused: bool
    elapsed_ns: int
    query_id: int | None = None


@dataclass
class CascadeStage:
    """One cascade test was entered; its verdict and wall time."""

    kind: ClassVar[str] = "cascade_stage"

    stage: str
    verdict: str  # Verdict.value, including "not_applicable"
    elapsed_ns: int
    query_id: int | None = None


@dataclass
class FmBranch:
    """Fourier-Motzkin opened a branch-and-bound node (section 3.5)."""

    kind: ClassVar[str] = "fm_branch"

    var: int
    depth: int
    split_floor: int
    budget_left: int
    query_id: int | None = None


@dataclass
class FmSample:
    """A Fourier-Motzkin back-substitution sampling outcome.

    ``outcome`` is ``"integer_picked"`` when a variable's range held an
    integer (``value`` is the sample), or ``"empty_constant_range"``
    for the paper's exact special case — a constant range with no
    integer proves independence without branching.  A stage answered
    from a known integer point instead of eliminating (a direction
    sub-query given its parent's witness) emits ``"witness_reused"``
    once per variable, ``value`` being the point's coordinate.
    """

    kind: ClassVar[str] = "fm_sample"

    var: int
    outcome: str
    value: int | None = None
    query_id: int | None = None


@dataclass
class DirectionNode:
    """One node of the hierarchical direction-refinement tree.

    ``action`` is ``"tested"`` (a cascade run happened; ``verdict``
    holds its outcome — an independent verdict prunes the subtree) or
    ``"forced"`` (the starting template after distance-sign forcing;
    those levels are never tested at all).
    """

    kind: ClassVar[str] = "direction_node"

    vector: tuple[str, ...]
    action: str
    verdict: str | None = None
    query_id: int | None = None


@dataclass
class QueryEnd:
    """The query's final answer and total wall time."""

    kind: ClassVar[str] = "query_end"

    dependent: bool
    decided_by: str
    exact: bool
    elapsed_ns: int
    n_vectors: int | None = None  # direction queries only
    query_id: int | None = None


EVENT_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (
        QueryStart,
        ConstantScreen,
        MemoLookup,
        EgcdResolved,
        CascadeStage,
        FmBranch,
        FmSample,
        DirectionNode,
        QueryEnd,
    )
}


def event_to_dict(event: Any) -> dict:
    """JSON-safe dict form; tuples become lists, ``event`` names the kind."""
    out: dict[str, Any] = {"event": event.kind}
    for f in fields(event):
        value = getattr(event, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def event_from_dict(payload: dict) -> Any:
    """Inverse of :func:`event_to_dict`."""
    data = dict(payload)
    kind = data.pop("event")
    cls = EVENT_KINDS[kind]
    if cls is DirectionNode and isinstance(data.get("vector"), list):
        data["vector"] = tuple(data["vector"])
    return cls(**data)


def write_jsonl(events: Iterable[Any], target: str | Path | TextIO) -> int:
    """Write events as one JSON object per line; returns the count."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            return write_jsonl(events, fh)
    count = 0
    for event in events:
        target.write(json.dumps(event_to_dict(event), sort_keys=True))
        target.write("\n")
        count += 1
    return count


def read_jsonl(source: str | Path | TextIO) -> Iterator[Any]:
    """Yield events back from a JSONL stream written by :func:`write_jsonl`."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            yield from read_jsonl(fh)
        return
    for line in source:
        line = line.strip()
        if line:
            yield event_from_dict(json.loads(line))
