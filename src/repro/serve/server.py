"""The dependence-analysis daemon: asyncio, pipelined, degradable.

One process keeps the analyzer warm for every caller:

* **per-connection sessions** — each TCP (or stdio) connection gets its
  own :class:`~repro.api.AnalysisSession`, but all sessions share the
  server's :class:`~repro.serve.cache.ServeCache` memoizer, so any
  caller's work warms every later caller (whole-program
  ``analyze_program`` batches run in their worker thread on that same
  live memoizer);
* **request pipelining** — a client may send many request lines without
  waiting; responses carry the request id and may return out of order;
* **bounded concurrency with explicit backpressure** — analysis work
  runs on a thread pool of ``max_inflight`` workers with at most
  ``queue_limit`` requests queued behind it; beyond that the server
  answers immediately with an ``overloaded`` error instead of building
  an unbounded backlog (control-plane ops — ``health``, ``stats``,
  ``shutdown`` — always bypass the queue);
* **deadlines degrade, never hang** — a query exceeding
  ``deadline_ms`` is answered at once with the conservative
  "dependent, all ``*`` directions" verdict flagged ``degraded: true``
  (the lattice top — an over-approximation is always sound); the
  computation keeps running in its worker thread and its eventual
  result still warms the shared memo tables;
* **single-flight coalescing** — identical queries in flight at the
  same moment share one computation;
* **graceful drain** — SIGTERM (or the ``shutdown`` op) stops
  accepting work, answers everything already in flight, persists the
  cache, and exits 0;
* **incremental sessions** (protocol v3) — ``open_session`` /
  ``update_source`` / ``graph`` keep a per-connection
  :class:`~repro.core.incremental.IncrementalSession`, so an editor
  can stream successive versions of a program and pay only for the
  pairs each edit dirtied.  Session ops bypass the fast lane and
  single-flight (they are stateful) but share the admission limit,
  the deadline and the in-analyzer budget; a deadline-degraded
  response never contaminates the retained graph — the shielded
  computation finishes in its worker thread and the session keeps
  only the exact result.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.api import AnalysisConfig, AnalysisSession, DependenceReport
from repro.core.engine import analyze_batch, queries_from_program
from repro.core.incremental import IncrementalSession
from repro.ir.program import Program, reference_pairs
from repro.ir.serde import query_from_dict
from repro.lang.errors import LangError
from repro.obs.metrics import MetricsRegistry
from repro.robust.budget import REASON_DEADLINE
from repro.serve import protocol
from repro.serve.cache import DEFAULT_MAX_BYTES, ServeCache, SingleFlight
from repro.serve.protocol import ErrorCode, ProtocolError, Request

__all__ = ["ServeConfig", "DependenceServer"]


class _WireFastLane:
    """Pre-serialized answers for repeated ``analyze`` requests.

    Maps the request's canonical params text to the ``canonical_json``
    bytes of a prior non-degraded result.  A hit is answered by splicing
    the cached bytes straight into a response frame — no report object,
    no session, no executor hop, no admission bookkeeping.  The splice
    is bit-identical to the slow path because the response encoding
    sorts its top-level keys (``"id" < "ok" < "result"``) and the cached
    segment *is* the slow path's own serialization of the result.

    Bounded LRU: insertion order doubles as recency (hits re-insert).
    Only ever touched from the event loop, so no lock is needed.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._entries: dict[str, bytes] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> bytes | None:
        entries = self._entries
        data = entries.get(key)
        if data is not None:
            del entries[key]  # re-insert: dict order is recency order
            entries[key] = data
        return data

    def put(self, key: str, data: bytes) -> None:
        entries = self._entries
        if key in entries:
            del entries[key]
        elif len(entries) >= self.capacity:
            del entries[next(iter(entries))]
        entries[key] = data


class _IncrementalSessions:
    """One connection's incremental re-analysis sessions.

    The lock serializes every stateful op on the connection: a
    pipelined ``update_source`` racing a still-running ``open_session``
    simply waits for it, so ops apply in the order they were sent even
    though each runs on its own worker thread.
    """

    __slots__ = ("lock", "sessions", "last", "epochs")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.sessions: dict[str, IncrementalSession] = {}
        self.last: dict[str, dict] = {}  # session id → last update summary
        # Session id → incarnation epoch (durable-session recovery): a
        # re-open with a *lower* epoch than the live session is a stale
        # replay from before a failover and is rejected; equal or
        # higher replaces the session wholesale.
        self.epochs: dict[str, int] = {}


def _ok_frame(request_id: Any, result_bytes: bytes) -> bytes:
    """Splice a cached result into a complete ``ok`` response line.

    Bit-identical to ``encode_response(ok_response(id, result))``:
    ``canonical_json`` sorts the top-level keys, which already appear
    here in sorted order, and ``result_bytes`` is itself canonical.
    """
    head = json.dumps(request_id, sort_keys=True, separators=(",", ":"))
    return (
        b'{"id":'
        + head.encode("utf-8")
        + b',"ok":true,"result":'
        + result_bytes
        + b"}\n"
    )


@dataclass
class ServeConfig:
    """Everything the daemon can be configured with."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick a free port (announced on stdout)
    stdio: bool = False  # serve one session over stdin/stdout instead
    cache_path: str | None = None  # tier-2 store (None: in-memory only)
    cache_max_bytes: int = DEFAULT_MAX_BYTES
    max_inflight: int = 8  # analysis worker threads
    queue_limit: int = 32  # admitted-but-waiting requests beyond that
    deadline_ms: float | None = None  # per-query budget (None: unbounded)
    improved: bool = True
    symmetry: bool = False
    fm_budget: int = 256
    announce: bool = True  # print the {"serving": ...} line on stdout
    # Cluster membership (set by the repro.serve.cluster supervisor):
    # the worker's stable ring id, plus the shared warmth-spill
    # directory the fleet gossips memo images through.  A worker with a
    # spill_dir periodically writes its memo tables to
    # ``<spill_dir>/<worker_id>.memo.json`` and absorbs every peer
    # image that changed since its last scan, so a hit on any node
    # warms the whole fleet.
    worker_id: str | None = None
    spill_dir: str | None = None
    spill_interval_s: float = 2.0
    # In-analyzer resource governor (repro.robust.budget): bounds each
    # query *inside* the worker, complementing deadline_ms, which only
    # bounds how long the caller waits.  A blown budget degrades the
    # answer conservatively, flagged with its reason code.
    budget: Any = None


class DependenceServer:
    """The long-running dependence-query service."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config if config is not None else ServeConfig()
        self.registry = MetricsRegistry()
        self.cache = ServeCache(
            path=self.config.cache_path,
            max_bytes=self.config.cache_max_bytes,
            improved=self.config.improved,
            symmetry=self.config.symmetry,
            registry=self.registry,
        )
        self.flight = SingleFlight(registry=self.registry)
        self.fastlane = _WireFastLane()
        self.started = threading.Event()
        self.bound_host: str | None = None
        self.bound_port: int | None = None
        self.draining = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_requested = threading.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-serve",
        )
        self._admitted = 0  # analysis requests admitted, not yet answered
        self._running = 0  # analysis requests holding a worker thread
        self._semaphore: asyncio.Semaphore | None = None
        self._pending: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._session_registries: list[MetricsRegistry] = []
        self._sessions_open = 0
        self._session_counter = 0  # incremental session ids (event loop only)
        self._spill_task: asyncio.Task | None = None
        self._peer_mtimes: dict[str, int] = {}
        self._last_spilled_entries = -1

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> int:
        """Serve until drained; returns the process exit code (0)."""
        asyncio.run(self._main())
        return 0

    def request_shutdown(self) -> None:
        """Begin a graceful drain; safe to call from any thread."""
        self._shutdown_requested.set()
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(lambda: None)  # wake the waiter
            except RuntimeError:
                pass  # loop already closed

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._semaphore = asyncio.Semaphore(self.config.max_inflight)
        self._install_signal_handlers()
        if self.config.spill_dir is not None:
            self._spill_task = asyncio.get_running_loop().create_task(
                self._spill_loop()
            )
        if self.config.stdio:
            await self._serve_stdio()
        else:
            await self._serve_tcp()

    def _install_signal_handlers(self) -> None:
        assert self._loop is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self.request_shutdown)
            except (RuntimeError, NotImplementedError, ValueError):
                # Not on the main thread (tests) or unsupported platform;
                # request_shutdown() remains available programmatically.
                break

    async def _serve_tcp(self) -> None:
        server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        sockname = server.sockets[0].getsockname()
        self.bound_host, self.bound_port = sockname[0], sockname[1]
        if self.config.announce:
            print(
                protocol.canonical_json(
                    {
                        "serving": {
                            "host": self.bound_host,
                            "port": self.bound_port,
                            "protocol": protocol.PROTOCOL_VERSION,
                        }
                    }
                ),
                flush=True,
            )
        self.started.set()
        try:
            await self._wait_for_shutdown()
            self.draining = True
            server.close()
            await server.wait_closed()
            await self._drain()
        finally:
            await self._teardown()

    async def _serve_stdio(self) -> None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=protocol.MAX_LINE_BYTES)
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        transport, proto = await loop.connect_write_pipe(
            asyncio.streams.FlowControlMixin, sys.stdout
        )
        writer = asyncio.StreamWriter(transport, proto, reader, loop)
        self.started.set()
        try:
            await self._connection_loop(reader, writer)
            self.draining = True
            await self._drain()
        finally:
            await self._teardown()

    async def _wait_for_shutdown(self) -> None:
        while not self._shutdown_requested.is_set():
            await asyncio.sleep(0.05)

    async def _drain(self) -> None:
        """Answer everything already admitted, then let connections go."""
        while self._pending:
            await asyncio.gather(*tuple(self._pending), return_exceptions=True)
        for writer in tuple(self._writers):
            try:
                writer.close()
            except Exception:
                pass

    async def _teardown(self) -> None:
        if self._spill_task is not None:
            self._spill_task.cancel()
            await asyncio.gather(self._spill_task, return_exceptions=True)
        self._executor.shutdown(wait=True)
        if self.cache.path is not None:
            self.cache.save()
        if self.config.spill_dir is not None:
            # Final spill so a drained worker's warmth outlives it (the
            # supervisor's replacement absorbs it on its first scan).
            self._spill_once()

    # -- memo-warmth sharing -----------------------------------------------

    async def _spill_loop(self) -> None:
        """Periodically gossip memo warmth through the spill directory."""
        interval = max(0.05, self.config.spill_interval_s)
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            await loop.run_in_executor(None, self._spill_once)

    def _spill_once(self) -> None:
        """One gossip round: absorb changed peer images, write our own.

        Any failure is contained — spill warmth is a bonus, never a
        dependency — and the next round retries.
        """
        assert self.config.spill_dir is not None
        try:
            directory = Path(self.config.spill_dir)
            directory.mkdir(parents=True, exist_ok=True)
            own_name = f"{self.config.worker_id or 'worker'}.memo.json"
            for path in sorted(directory.glob("*.memo.json")):
                if path.name == own_name:
                    continue
                try:
                    mtime = path.stat().st_mtime_ns
                except OSError:
                    continue
                if self._peer_mtimes.get(path.name) == mtime:
                    continue  # unchanged since our last absorb
                self._peer_mtimes[path.name] = mtime
                self.cache.absorb(path)
            count = self.cache.entry_count()
            if count != self._last_spilled_entries:
                self.cache.spill(directory / own_name)
                self._last_spilled_entries = self.cache.entry_count()
        except Exception as err:  # noqa: BLE001 — gossip must not kill serve
            self.registry.inc("serve.spill.errors")
            warnings.warn(
                f"memo spill round failed: {err!r}", RuntimeWarning,
                stacklevel=2,
            )

    # -- connections -------------------------------------------------------

    def _make_session(self) -> AnalysisSession:
        return AnalysisSession(
            AnalysisConfig(
                memo=True,
                improved=self.config.improved,
                symmetry=self.config.symmetry,
                fm_budget=self.config.fm_budget,
                want_witness=False,
                jobs=1,
                budget=self.config.budget,
            ),
            memoizer=self.cache.memoizer,
        )

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await self._connection_loop(reader, writer)

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = self._make_session()
        self._session_registries.append(session.registry)
        self._sessions_open += 1
        self.registry.inc("serve.connections")
        write_lock = asyncio.Lock()
        explain_lock = threading.Lock()
        inc_sessions = _IncrementalSessions()
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    # Oversized line or torn connection: nothing sane to
                    # answer on this stream anymore.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._handle_line(
                        line,
                        writer,
                        write_lock,
                        session,
                        explain_lock,
                        inc_sessions,
                    )
                )
                self._pending.add(task)
                task.add_done_callback(self._pending.discard)
        finally:
            self._sessions_open -= 1
            if self.draining:
                # _drain() owns closing writers after in-flight work.
                return
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    # -- request handling --------------------------------------------------

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        session: AnalysisSession,
        explain_lock: threading.Lock,
        inc_sessions: _IncrementalSessions,
    ) -> None:
        try:
            request = protocol.decode_request(line)
        except ProtocolError as err:
            await self._write(
                writer,
                write_lock,
                protocol.error_response(err.request_id, err.code, err.message),
            )
            self.registry.inc_family("serve.errors", err.code)
            return
        response = await self._dispatch(
            request, session, explain_lock, inc_sessions
        )
        await self._write(writer, write_lock, response)

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: dict | bytes,
    ) -> None:
        # Fast-lane hits arrive pre-framed as bytes; everything else is
        # a response dict that encodes canonically here.
        payload = (
            response
            if isinstance(response, bytes)
            else protocol.encode_response(response)
        )
        try:
            async with write_lock:
                writer.write(payload)
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away; the work still warmed the cache

    async def _dispatch(
        self,
        request: Request,
        session: AnalysisSession,
        explain_lock: threading.Lock,
        inc_sessions: _IncrementalSessions,
    ) -> dict | bytes:
        op = request.op
        spec = protocol.OPS[op]
        self.registry.inc_family("serve.requests", op)
        if spec.control:
            return protocol.ok_response(
                request.id, getattr(self, spec.handler)()
            )

        # Analysis ops from here on: refuse while draining, push back
        # when saturated, otherwise admit under the semaphore.
        if self.draining or self._shutdown_requested.is_set():
            self.registry.inc_family("serve.errors", ErrorCode.SHUTTING_DOWN)
            return protocol.error_response(
                request.id, ErrorCode.SHUTTING_DOWN, "server is draining"
            )
        params_text = protocol.canonical_json(request.params)
        lane_key: str | None = None
        if op == "analyze":
            # Zero-copy fast lane: a repeated query is answered from the
            # pre-serialized wire bytes of its previous answer, before
            # admission — it costs no worker thread and no queue slot.
            lane_key = params_text
            cached = self.fastlane.get(lane_key)
            if cached is not None:
                self.registry.inc("serve.fastlane.hits")
                return _ok_frame(request.id, cached)
        limit = self.config.max_inflight + self.config.queue_limit
        if self._admitted >= limit:
            self.registry.inc("serve.backpressure")
            self.registry.inc_family("serve.errors", ErrorCode.OVERLOADED)
            return protocol.error_response(
                request.id,
                ErrorCode.OVERLOADED,
                f"{self._admitted} requests in flight (limit {limit}); "
                "retry later",
            )
        self._admitted += 1
        self.registry.put("serve.inflight", self._admitted)
        start = _now_ns()
        try:
            if spec.stateful:
                # Replaying a cached answer or coalescing two session
                # frames would skip a state transition.
                result = await self._run_analysis_op(
                    request, session, explain_lock, inc_sessions
                )
            else:
                flight_key = (op, params_text)
                result = await self.flight.run(
                    flight_key,
                    lambda: self._run_analysis_op(
                        request, session, explain_lock, inc_sessions
                    ),
                )
            if (
                lane_key is not None
                and isinstance(result, dict)
                and not result.get("degraded", True)
            ):
                # Serialize the result once: it becomes both this
                # response's payload and the fast-lane entry.
                data = protocol.canonical_json(result).encode("utf-8")
                self.fastlane.put(lane_key, data)
                return _ok_frame(request.id, data)
            return protocol.ok_response(request.id, result)
        except ProtocolError as err:
            self.registry.inc_family("serve.errors", err.code)
            return protocol.error_response(request.id, err.code, err.message)
        except Exception as err:  # noqa: BLE001 — the daemon must not die
            traceback.print_exc(file=sys.stderr)
            self.registry.inc_family("serve.errors", ErrorCode.INTERNAL)
            return protocol.error_response(
                request.id, ErrorCode.INTERNAL, f"{type(err).__name__}: {err}"
            )
        finally:
            self._admitted -= 1
            self.registry.put("serve.inflight", self._admitted)
            self.registry.observe(f"time.serve.{op}", _now_ns() - start)

    # -- analysis ops ------------------------------------------------------

    async def _run_analysis_op(
        self,
        request: Request,
        session: AnalysisSession,
        explain_lock: threading.Lock,
        inc_sessions: _IncrementalSessions,
    ) -> Any:
        """Run one analysis op's handler under the concurrency limit.

        Every analysis handler takes the request plus the connection's
        state — its analysis session, explain lock and incremental
        sessions — and uses what its op needs.
        """
        assert self._semaphore is not None
        handler = getattr(self, protocol.OPS[request.op].handler)
        async with self._semaphore:
            self._running += 1
            try:
                return await handler(
                    request, session, explain_lock, inc_sessions
                )
            finally:
                self._running -= 1

    def _decode_query(
        self, params: dict
    ) -> tuple[Any, Any, Any, Any]:
        """``query`` serde object, or ``source`` + ``pair`` index."""
        if "query" in params:
            try:
                return query_from_dict(params["query"])
            except (KeyError, TypeError, ValueError) as err:
                raise ProtocolError(
                    ErrorCode.BAD_REQUEST, f"malformed query: {err!r}"
                ) from err
        if "source" in params:
            program = self._compile(params["source"], params.get("lang"))
            pairs = reference_pairs(program)
            index = params.get("pair", 0)
            if not isinstance(index, int) or not 0 <= index < len(pairs):
                raise ProtocolError(
                    ErrorCode.BAD_REQUEST,
                    f"pair index {index!r} out of range "
                    f"(0..{len(pairs) - 1})",
                )
            site1, site2 = pairs[index]
            return site1.ref, site1.nest, site2.ref, site2.nest
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "params need either 'query' or 'source'"
        )

    def _compile(self, source: Any, lang: Any = None) -> Program:
        if not isinstance(source, str):
            raise ProtocolError(ErrorCode.BAD_REQUEST, "'source' must be text")
        if lang is None:
            lang = "loop"
        if lang != "loop":
            from repro.frontends import LANGUAGES, SkipReason, extract_source

            if lang not in LANGUAGES:
                raise ProtocolError(
                    ErrorCode.BAD_REQUEST,
                    f"unknown lang {lang!r}; expected one of "
                    f"{', '.join(LANGUAGES)}",
                )
            extraction = extract_source(source, lang=lang, name="<request>")
            if not extraction.program.statements and any(
                record.reason == SkipReason.PARSE_ERROR
                for record in extraction.skipped
            ):
                raise ProtocolError(
                    ErrorCode.SOURCE, extraction.skipped[0].detail
                )
            return extraction.program
        from repro.opt import compile_source

        try:
            return compile_source(source, name="<request>", strict=False).program
        except LangError as err:
            raise ProtocolError(ErrorCode.SOURCE, str(err)) from err

    async def _with_deadline(self, work, degrade):
        """Run blocking ``work`` on the executor under the deadline.

        On timeout the caller's ``degrade()`` answer is returned at
        once, flagged; the worker thread keeps going and its eventual
        result still lands in the shared memo tables.
        """
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, work)
        deadline = self.config.deadline_ms
        if deadline is None:
            return await future
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), timeout=deadline / 1000.0
            )
        except asyncio.TimeoutError:
            self.registry.inc("serve.degraded")
            # The serving deadline is one more blown resource budget:
            # account for it in the same robust.degraded.* family the
            # in-analyzer governor uses, so one metrics query covers
            # every degradation path.
            self.registry.inc_family("robust.degraded", REASON_DEADLINE)
            return degrade()

    async def _op_analyze(
        self,
        request: Request,
        session: AnalysisSession,
        explain_lock: threading.Lock,
        inc_sessions: _IncrementalSessions,
    ):
        ref1, nest1, ref2, nest2 = self._decode_query(request.params)
        want_directions = bool(request.params.get("directions", True))

        def work() -> dict:
            report = session.analyze(
                ref1, nest1, ref2, nest2, want_directions=want_directions
            )
            return protocol.report_to_wire(report)

        def degrade() -> dict:
            return protocol.degraded_report(
                str(ref1),
                str(ref2),
                nest1.common_prefix_depth(nest2),
                want_directions,
            )

        return await self._with_deadline(work, degrade)

    async def _op_explain(
        self,
        request: Request,
        session: AnalysisSession,
        explain_lock: threading.Lock,
        inc_sessions: _IncrementalSessions,
    ):
        ref1, nest1, ref2, nest2 = self._decode_query(request.params)
        want_directions = bool(request.params.get("directions", True))

        def work() -> dict:
            # explain() temporarily swaps the session's sink; one at a
            # time per session keeps pipelined explains untangled.
            with explain_lock:
                explained = session.explain(
                    ref1, nest1, ref2, nest2, want_directions=want_directions
                )
            return {
                "report": protocol.report_to_wire(explained.report),
                "trace": explained.render(),
                "n_events": len(explained.events),
            }

        def degrade() -> dict:
            return {
                "report": protocol.degraded_report(
                    str(ref1),
                    str(ref2),
                    nest1.common_prefix_depth(nest2),
                    want_directions,
                ),
                "trace": "(degraded: deadline exceeded)",
                "n_events": 0,
            }

        return await self._with_deadline(work, degrade)

    async def _op_analyze_program(
        self,
        request: Request,
        session: AnalysisSession,
        explain_lock: threading.Lock,
        inc_sessions: _IncrementalSessions,
    ):
        if "source" not in request.params:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "analyze_program needs 'source'"
            )
        program = self._compile(
            request.params["source"], request.params.get("lang")
        )
        want_directions = bool(request.params.get("directions", True))
        queries = queries_from_program(program)

        def work() -> dict:
            # In this worker thread, on the live shared memoizer: the
            # batch's probes, hits and inserts land in the cache itself
            # (its counters and LRU stamps), with no copy or merge.
            report = analyze_batch(
                queries,
                jobs=1,
                warm=self.cache.memoizer,
                share_warm=True,
                want_directions=want_directions,
                improved=self.config.improved,
                symmetry=self.config.symmetry,
                fm_budget=self.config.fm_budget,
                budget=self.config.budget,
            )
            session.stats.merge(report.stats)
            pairs = [
                protocol.report_to_wire(
                    DependenceReport.from_results(
                        str(outcome.query.ref1),
                        str(outcome.query.ref2),
                        outcome.result,
                        outcome.directions,
                    )
                )
                for outcome in report.outcomes
            ]
            return {"pairs": pairs, "summary": report.summary()}

        def degrade() -> dict:
            pairs = [
                protocol.degraded_report(
                    str(query.ref1),
                    str(query.ref2),
                    query.nest1.common_prefix_depth(query.nest2),
                    want_directions,
                )
                for query in queries
            ]
            return {"pairs": pairs, "summary": {"degraded": True}}

        return await self._with_deadline(work, degrade)

    # -- incremental session ops (protocol v3) -----------------------------

    def _open_incremental(self) -> IncrementalSession:
        # Snapshot/merge-back: the session warm-starts from a copy of
        # everything the server ever computed, and every update folds
        # its new memo entries back in.
        return IncrementalSession(
            memoizer=self.cache.memoizer.copy(),
            jobs=1,
            improved=self.config.improved,
            symmetry=self.config.symmetry,
            fm_budget=self.config.fm_budget,
            budget=self.config.budget,
        )

    def _apply_update(
        self,
        inc_sessions: _IncrementalSessions,
        sid: str,
        session: IncrementalSession,
        program: Program,
        verify: bool,
    ) -> dict:
        """Run one update under the connection lock; returns its summary.

        Caller holds ``inc_sessions.lock``.
        """
        report = session.update(program, verify=verify)
        self.cache.memoizer.merge_from(session.memoizer)
        summary = report.summary()
        summary["session"] = sid
        summary["degraded"] = False
        if report.degraded_pairs:
            self.registry.inc("serve.sessions.degraded_pairs")
        inc_sessions.last[sid] = summary
        return summary

    async def _op_open_session(
        self,
        request: Request,
        session: AnalysisSession,
        explain_lock: threading.Lock,
        inc_sessions: _IncrementalSessions,
    ):
        # Durable-session fields (additive, v3): a client may mint its
        # own id — the key its journal replays under and the router
        # pins to the hash ring — plus a monotonic incarnation epoch.
        sid_param = request.params.get("session_id")
        epoch = request.params.get("epoch", 0)
        if sid_param is not None and (
            not isinstance(sid_param, str) or not sid_param
        ):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "'session_id' must be a non-empty string"
            )
        if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "'epoch' must be a non-negative integer"
            )
        # The id is allocated before the work runs, so a deadline can
        # degrade the *response* while the shielded computation still
        # completes and the session remains usable under this id.
        if sid_param is None:
            self._session_counter += 1
            sid = f"s{self._session_counter}"
        else:
            sid = sid_param
        source = request.params.get("source")
        lang = request.params.get("lang")
        program = self._compile(source, lang) if source is not None else None
        verify = bool(request.params.get("verify", False))

        def work() -> dict:
            with inc_sessions.lock:
                live = inc_sessions.epochs.get(sid)
                if live is not None and epoch < live:
                    # A frame from a pre-failover incarnation arriving
                    # late must never clobber the rebuilt session.
                    raise ProtocolError(
                        ErrorCode.BAD_REQUEST,
                        f"stale epoch {epoch} for session {sid!r} "
                        f"(live epoch {live})",
                    )
                session = self._open_incremental()
                inc_sessions.sessions[sid] = session
                inc_sessions.epochs[sid] = epoch
                inc_sessions.last.pop(sid, None)
                self.registry.inc("serve.sessions.opened")
                result = {"session": sid, "epoch": epoch, "degraded": False}
                if program is not None:
                    result["update"] = self._apply_update(
                        inc_sessions, sid, session, program, verify
                    )
                return result

        def degrade() -> dict:
            return {"session": sid, "degraded": True}

        return await self._with_deadline(work, degrade)

    async def _op_update_source(
        self,
        request: Request,
        session: AnalysisSession,
        explain_lock: threading.Lock,
        inc_sessions: _IncrementalSessions,
    ):
        sid = request.params.get("session")
        if "source" not in request.params:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "update_source needs 'source'"
            )
        program = self._compile(
            request.params["source"], request.params.get("lang")
        )
        verify = bool(request.params.get("verify", False))

        def work() -> dict:
            # Session lookup happens under the lock, not at dispatch
            # time: a pipelined update racing its own open_session must
            # wait for the open to land, not fail on a missing id.
            with inc_sessions.lock:
                session = inc_sessions.sessions.get(sid)
                if session is None:
                    # Typed so a durable client knows to replay its
                    # journal (the session died with a worker) rather
                    # than treat this as a caller bug.
                    raise ProtocolError(
                        ErrorCode.UNKNOWN_SESSION, f"unknown session {sid!r}"
                    )
                return self._apply_update(
                    inc_sessions, sid, session, program, verify
                )

        def degrade() -> dict:
            # The hedge covers only this response.  The shielded update
            # still completes under the lock, and only its exact result
            # is retained — a degraded verdict never enters the
            # session's graph or pair cache via the deadline path.
            return {"session": sid, "degraded": True}

        return await self._with_deadline(work, degrade)

    async def _op_graph(
        self,
        request: Request,
        session: AnalysisSession,
        explain_lock: threading.Lock,
        inc_sessions: _IncrementalSessions,
    ):
        sid = request.params.get("session")

        def work() -> dict:
            with inc_sessions.lock:
                session = inc_sessions.sessions.get(sid)
                if session is None:
                    raise ProtocolError(
                        ErrorCode.UNKNOWN_SESSION, f"unknown session {sid!r}"
                    )
                graph = session.graph
                if graph is None or session.program is None:
                    raise ProtocolError(
                        ErrorCode.BAD_REQUEST,
                        f"session {sid!r} has not analyzed a program yet",
                    )
                return {
                    "session": sid,
                    "statements": len(session.program.statements),
                    "edges": graph.edge_dicts(),
                    "dot": graph.to_dot(),
                    "update": inc_sessions.last.get(sid),
                    "degraded": False,
                }

        def degrade() -> dict:
            return {"session": sid, "degraded": True}

        return await self._with_deadline(work, degrade)

    # -- control-plane ops -------------------------------------------------

    def _op_shutdown(self) -> dict:
        self.request_shutdown()
        return {"draining": True}

    def _op_health(self) -> dict:
        import repro

        return {
            "status": "draining" if self.draining else "ok",
            "protocol": protocol.PROTOCOL_VERSION,
            "server": repro.__version__,
            # Capability advertisement (protocol v2): this endpoint is a
            # bare worker, not a consistent-hash router.
            "cluster": False,
            # Capability advertisement (protocol v3): incremental
            # session ops are served here.
            "sessions": True,
            # Source languages accepted via the 'lang' param on every
            # op the table marks as taking source.
            "frontends": ["loop", "python", "c"],
            "worker_id": self.config.worker_id,
            "inflight": self._admitted,
            "connections": self._sessions_open,
            "cache_entries": self.cache.entry_count(),
        }

    def _op_stats(self) -> dict:
        merged = MetricsRegistry()
        merged.merge(self.registry)
        for registry in self._session_registries:
            merged.merge(registry)
        return {
            "registry": merged.to_dict(),
            "cache": self.cache.stats(),
            "server": {
                "inflight": self._admitted,
                "running": self._running,
                "draining": self.draining,
                "connections": self._sessions_open,
                "fastlane_entries": len(self.fastlane),
            },
        }


def _now_ns() -> int:
    import time

    return time.perf_counter_ns()
