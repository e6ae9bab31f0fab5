"""Trace sinks: where the analyzer's decision provenance flows.

The :class:`TraceSink` protocol is deliberately tiny — a boolean
``enabled`` plus ``emit(event)`` — so the analyzer's untraced hot path
pays exactly one attribute check per decision point and allocates
nothing.  The :data:`NULL_SINK` is the default everywhere.

:class:`QueryScopedSink` is the piece that keeps deep emitters simple:
the analyzer wraps its sink once per traced query, and every event the
cascade, Fourier-Motzkin, or the direction refinement emits through the
wrapper is stamped with that query's id — the tests themselves never
learn about query identity.

Sharded runs collect events in per-worker :class:`CollectingSink`\\ s;
:func:`merge_event_streams` renumbers their query ids in shard order,
which is deterministic because the batch engine assigns shards as a
pure function of the input (worker scheduling never reorders the
streams).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Protocol, TextIO, runtime_checkable

from repro.obs.events import event_to_dict

__all__ = [
    "TraceSink",
    "NullSink",
    "NULL_SINK",
    "CollectingSink",
    "StreamingSink",
    "QueryScopedSink",
    "merge_event_streams",
]


@runtime_checkable
class TraceSink(Protocol):
    """Anything that can receive trace events."""

    enabled: bool

    def emit(self, event: Any) -> None: ...


class NullSink:
    """The zero-overhead default: nothing is recorded.

    Emitters must gate event *construction* on ``sink.enabled`` — with
    this sink the analyzer's only cost is that predicate check.
    """

    enabled = False

    def emit(self, event: Any) -> None:  # pragma: no cover - never called
        pass


NULL_SINK = NullSink()


class CollectingSink:
    """Buffers every event in order; the explain/debug workhorse."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[Any] = []

    def emit(self, event: Any) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()

    def by_query(self) -> dict[int | None, list[Any]]:
        """Events grouped by query id, preserving emission order."""
        grouped: dict[int | None, list[Any]] = {}
        for event in self.events:
            grouped.setdefault(event.query_id, []).append(event)
        return grouped


class StreamingSink:
    """Writes each event as a JSONL line the moment it is emitted."""

    enabled = True

    def __init__(self, target: str | Path | TextIO):
        if isinstance(target, (str, Path)):
            self._fh: TextIO = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self.emitted = 0

    def emit(self, event: Any) -> None:
        self._fh.write(json.dumps(event_to_dict(event), sort_keys=True))
        self._fh.write("\n")
        self.emitted += 1

    def close(self) -> None:
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "StreamingSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class QueryScopedSink:
    """Stamps one query's id onto everything emitted through it."""

    __slots__ = ("inner", "query_id")

    enabled = True

    def __init__(self, inner: TraceSink, query_id: int):
        self.inner = inner
        self.query_id = query_id

    def emit(self, event: Any) -> None:
        event.query_id = self.query_id
        self.inner.emit(event)


def merge_event_streams(streams: Iterable[list[Any]]) -> list[Any]:
    """Concatenate per-shard event streams with globally unique query ids.

    Each stream's local ids (dense or not) are remapped, in order of
    first appearance, onto a single increasing sequence.  Merging the
    same streams in the same order always yields the same result, so
    sharded traces are reproducible run to run (modulo timings).
    """
    merged: list[Any] = []
    next_id = 0
    for events in streams:
        remap: dict[int, int] = {}
        for event in events:
            local = event.query_id
            if local is not None:
                if local not in remap:
                    remap[local] = next_id
                    next_id += 1
                event.query_id = remap[local]
            merged.append(event)
    return merged
