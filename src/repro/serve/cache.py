"""The serving cache: thread-safe memo tier + persistent disk tier.

Tier 1 is the paper's in-process :class:`~repro.core.memo.Memoizer`,
upgraded for concurrent serving: every table is a
:class:`RecencyMemoTable`, which (a) guards probes, inserts and
snapshots with one lock so executor threads can share it, and (b)
stamps each key with a logical clock tick on every touch, giving the
disk tier an exact least-recently-used order.

Tier 2 is an on-disk memo image in the one format of
:mod:`repro.core.persist`, which documents it; each entry carries its
``used`` stamp.  Writes are **atomic**, so a crash mid-save can never
leave a truncated store — and if one appears anyway (external
truncation, version skew), loading skips it with a warning and the
server starts cold; corruption costs warmth, never availability.
Loading is all-or-nothing: the whole image decodes before any entry is
adopted.  The image's ``version`` must match, and so must its memo
keying flags (``improved``/``symmetry``): the daemon's memoizer uses
the default scheme.  The store is **bounded**:
before writing, entries are LRU-evicted until the encoded payload fits
``max_bytes``.  Because the format is shared, a ``batch --warm-cache``
file warms the daemon and the daemon's store warms a batch run.

:class:`SingleFlight` is the third caching layer, for work that hasn't
finished yet: identical queries that arrive while the first one is
still computing coalesce onto the same asyncio future and all receive
the one result.
"""

from __future__ import annotations

import asyncio
import json
import threading
import warnings
from pathlib import Path
from typing import Any, Awaitable, Callable

from repro.core.memo import Memoizer, MemoTable
from repro.core.persist import (
    LOAD_ERRORS,
    TABLES,
    MemoImageSkew,
    atomic_write_text,
    decode_tables,
    encode_entry,
    encode_image,
)
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "DEFAULT_MAX_BYTES",
    "RecencyMemoTable",
    "ServeCache",
    "SingleFlight",
]

DEFAULT_MAX_BYTES = 64 * 1024 * 1024

# Fixed per-entry bookkeeping allowance when budgeting ``max_bytes``
# (JSON punctuation, the "used" stamp, list separators).
_ENTRY_OVERHEAD = 16

_COMPACT = (",", ":")


class RecencyMemoTable(MemoTable):
    """A memo table that is thread-safe and remembers per-key recency.

    Every probe, mutation and snapshot (``items``/``copy``) takes the
    shared lock; ``used`` maps each present key to the logical clock
    tick of its last touch.  The lock and the clock are shared across
    the memoizer's tables so "least recently used" is global, not
    per-table.
    """

    def __init__(
        self,
        lock: threading.RLock | None = None,
        clock: list[int] | None = None,
    ):
        super().__init__()
        self._lock = lock if lock is not None else threading.RLock()
        # Single-cell mutable clock, shared between the two tables.
        self._clock = clock if clock is not None else [0]
        self.used: dict[tuple[int, ...], int] = {}

    def _tick(self) -> int:
        self._clock[0] += 1
        return self._clock[0]

    def lookup(self, key: tuple[int, ...]) -> tuple[bool, Any]:
        with self._lock:
            hit, value = super().lookup(key)
            if hit:
                self.used[key] = self._tick()
            return hit, value

    def insert(self, key: tuple[int, ...], value: Any) -> None:
        with self._lock:
            super().insert(key, value)
            self.used[key] = self._tick()

    def update(self, key: tuple[int, ...], value: Any) -> None:
        with self._lock:
            super().update(key, value)
            self.used.setdefault(key, self._tick())

    def restore(self, key: tuple[int, ...], value: Any, used: int) -> None:
        """Adopt a persisted entry, keeping its saved recency stamp."""
        with self._lock:
            super().update(key, value)
            self.used[key] = used
            if used > self._clock[0]:
                self._clock[0] = used

    def items(self) -> list[tuple[Any, Any]]:
        with self._lock:
            return super().items()

    def copy(self) -> MemoTable:
        with self._lock:
            return super().copy()

    def drop(self, key: tuple[int, ...]) -> None:
        """Remove one entry (LRU eviction path)."""
        with self._lock:
            self._entries.pop(key, None)
            self.used.pop(key, None)


class ServeCache:
    """Two-tier cache: shared thread-safe memoizer + bounded disk store.

    The memoizer is handed to every per-connection analysis session, so
    all connections share one warmth pool.  ``save()`` persists it
    atomically under the byte budget; construction loads any compatible
    existing store (skipping corrupt or version-mismatched files with a
    warning).
    """

    def __init__(
        self,
        path: str | Path | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        registry: MetricsRegistry | None = None,
    ):
        self.path = Path(path) if path is not None else None
        self.max_bytes = max_bytes
        self.registry = registry if registry is not None else MetricsRegistry()
        lock = threading.RLock()
        clock: list[int] = [0]
        self.memoizer = Memoizer(
            no_bounds=RecencyMemoTable(lock=lock, clock=clock),
            with_bounds=RecencyMemoTable(lock=lock, clock=clock),
        )
        self._lock = lock
        self.loaded_entries = 0
        self.last_save_bytes = 0
        if self.path is not None:
            self._load()

    # -- disk tier ---------------------------------------------------------

    def _load(self) -> None:
        assert self.path is not None
        if not self.path.exists():
            return
        try:
            tables = decode_tables(
                json.loads(self.path.read_text()), like=self.memoizer
            )
        except MemoImageSkew as err:
            warnings.warn(
                f"ignoring serve cache {self.path}: {err} "
                "(serving starts cold)",
                RuntimeWarning,
                stacklevel=2,
            )
            self.registry.inc("serve.cache.version_skips")
            return
        except LOAD_ERRORS as err:
            warnings.warn(
                f"skipping corrupt serve cache {self.path}: {err!r} "
                "(serving starts cold)",
                RuntimeWarning,
                stacklevel=2,
            )
            self.registry.inc("serve.cache.load_failures")
            return
        for name, entries in tables.items():
            table: RecencyMemoTable = getattr(self.memoizer, name)
            for key, value, used in entries:
                table.restore(key, value, used or 0)
            self.loaded_entries += len(entries)

    def save(self) -> int:
        """Atomically persist the memo tables; returns bytes written.

        Entries are encoded individually, sorted by recency, and the
        least-recently-used are evicted (from the persisted image *and*
        the in-process tables) until the payload fits ``max_bytes``.
        No-op (returns 0) when the cache has no backing path.
        """
        if self.path is None:
            return 0
        with self._lock:
            encoded: list[tuple[int, str, Any, dict, int]] = []
            for name in TABLES:
                table: RecencyMemoTable = getattr(self.memoizer, name)
                for key, value in table.items():
                    used = table.used.get(key, 0)
                    entry = encode_entry(key, value, used)
                    size = len(json.dumps(entry, separators=_COMPACT))
                    encoded.append((used, name, key, entry, size))
            encoded.sort(key=lambda item: item[0])

            empty = encode_image(self.memoizer, {name: [] for name in TABLES})
            budget = self.max_bytes - len(json.dumps(empty, separators=_COMPACT))
            total = sum(size + _ENTRY_OVERHEAD for *_, size in encoded)
            evicted = 0
            while encoded and total > budget:
                _, name, key, _, size = encoded.pop(0)
                getattr(self.memoizer, name).drop(key)
                total -= size + _ENTRY_OVERHEAD
                evicted += 1
            if evicted:
                self.registry.inc("serve.cache.evicted", evicted)

            tables: dict[str, list[dict]] = {name: [] for name in TABLES}
            for _, name, _, entry, _ in encoded:
                tables[name].append(entry)
            text = json.dumps(
                encode_image(self.memoizer, tables), separators=_COMPACT
            )

        atomic_write_text(self.path, text)
        self.last_save_bytes = len(text)
        self.registry.inc("serve.cache.saves")
        return len(text)

    # -- introspection -----------------------------------------------------

    def entry_count(self) -> int:
        return len(self.memoizer.no_bounds) + len(self.memoizer.with_bounds)

    def stats(self) -> dict:
        def table_stats(table: MemoTable) -> dict:
            return {
                "entries": len(table),
                "queries": table.stats.queries,
                "hits": table.stats.hits,
            }

        return {
            "entries": self.entry_count(),
            "no_bounds": table_stats(self.memoizer.no_bounds),
            "with_bounds": table_stats(self.memoizer.with_bounds),
            "disk": {
                "path": str(self.path) if self.path else None,
                "max_bytes": self.max_bytes,
                "loaded_entries": self.loaded_entries,
                "last_save_bytes": self.last_save_bytes,
            },
        }


class SingleFlight:
    """Coalesce identical in-flight computations onto one future.

    ``run(key, thunk)`` executes ``thunk`` for the first caller of a
    key; callers arriving while that computation is still in flight
    await the same future and share its outcome (result *or*
    exception).  Keys leave the table the moment their computation
    settles, so this is purely about concurrency, not result caching —
    the memo tables own remembering.

    asyncio-native: must be used from a single event loop.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self._inflight: dict[Any, asyncio.Future] = {}
        self.registry = registry if registry is not None else MetricsRegistry()

    def __len__(self) -> int:
        return len(self._inflight)

    async def run(
        self, key: Any, thunk: Callable[[], Awaitable[Any]]
    ) -> Any:
        existing = self._inflight.get(key)
        if existing is not None:
            self.registry.inc("serve.coalesced")
            return await asyncio.shield(existing)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            result = await thunk()
        except BaseException as err:
            if not future.cancelled():
                future.set_exception(err)
                # Mark retrieved so lonely leaders don't trip asyncio's
                # "exception was never retrieved" warning.
                future.exception()
            raise
        else:
            if not future.cancelled():
                future.set_result(result)
            return result
        finally:
            self._inflight.pop(key, None)
