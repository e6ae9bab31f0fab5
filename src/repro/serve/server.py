"""The dependence-analysis daemon: asyncio, pipelined, degradable.

One process keeps the analyzer warm for every caller:

* **one analysis session** — the daemon builds one
  :class:`~repro.api.AnalysisSession` at start-up on the server's
  :class:`~repro.serve.cache.ServeCache` memoizer, and every
  connection's queries run on it, so any caller's work warms every
  later caller (whole-program ``analyze_program`` batches and
  incremental sessions run in their worker thread on that same live
  memoizer).  No analysis state is per connection: ``explain`` traces
  on an analyzer of its own;
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
  result still warms the shared memo tables.  Source is compiled in
  the worker thread, never on the event loop: inside the deadline for
  ``analyze_program`` and the session ops, just before it for
  ``analyze`` and ``explain``, whose hedge names the pair;
* **single-flight coalescing** — identical queries in flight at the
  same moment share one computation;
* **graceful drain** — SIGTERM (or the ``shutdown`` op) stops
  accepting work, answers everything already in flight, persists the
  cache, and exits 0;
* **incremental sessions** (protocol v3) — ``open_session`` /
  ``update_source`` / ``graph`` keep a per-connection
  :class:`~repro.core.incremental.IncrementalSession`, so an editor
  can stream successive versions of a program and pay only for the
  top-level statements each edit changed (``.loop`` text recompiles
  only those) and the pairs it dirtied.  Session ops bypass the fast
  lane and single-flight (they are stateful) but share the admission limit,
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.api import AnalysisConfig, AnalysisSession, DependenceReport
from repro.core.engine import analyze_batch, queries_from_program
from repro.core.incremental import IncrementalSession
from repro.frontends import LANGUAGES, extract_or_raise
from repro.ir.program import Program, reference_pairs
from repro.ir.serde import query_from_dict
from repro.lang.errors import LangError
from repro.obs.metrics import MetricsRegistry
from repro.robust.budget import REASON_DEADLINE
from repro.serve import protocol
from repro.serve.cache import DEFAULT_MAX_BYTES, ServeCache, SingleFlight
from repro.serve.protocol import ErrorCode, ProtocolError, Request

__all__ = ["ServeConfig", "DependenceServer"]


#: A fast-lane entry: a result's canonical bytes up to and including
#: ``"ref1":``, then the two reference tails (each ref string minus its
#: array name, such as ``[i + 1]``).
_LaneEntry = tuple[bytes, str, str]


class _WireFastLane:
    """Pre-serialized answers for repeated ``analyze`` requests.

    Keyed by :func:`_lane_key`: a query asked again under another array
    name is a repeat, as it is for the memo.  A hit is answered by
    splicing the entry straight into a response frame (:func:`_ok_frame`)
    — no report object, no session, no executor hop, no admission
    bookkeeping.  The splice is bit-identical to the slow path under
    the request's own name: the response encoding sorts its keys
    (``"id" < "ok" < "result"``, and ``"ref1" < "ref2"`` sort last in a
    report), and the stored bytes *are* the slow path's own
    serialization of the result.

    Bounded LRU: insertion order doubles as recency (hits re-insert).
    Only ever touched from the event loop, so no lock is needed.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._entries: dict[str, _LaneEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> _LaneEntry | None:
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            del entries[key]  # re-insert: dict order is recency order
            entries[key] = entry
        return entry

    def put(self, key: str, entry: _LaneEntry) -> None:
        entries = self._entries
        if key in entries:
            del entries[key]
        elif len(entries) >= self.capacity:
            del entries[next(iter(entries))]
        entries[key] = entry


def _lane_key(params: dict) -> tuple[str, str]:
    """The fast-lane key of ``analyze`` params, and the name it blanked.

    A ``query`` whose two refs name one array (a string) keys on its
    canonical text with both names blanked, so the same pattern under
    any array name is one entry.  Anything else — ``source`` requests,
    names that differ or are not strings — keys on its own canonical
    text and blanks the name ``""``.
    """
    query = params.get("query")
    if isinstance(query, dict):
        ref1, ref2 = query.get("ref1"), query.get("ref2")
        if isinstance(ref1, dict) and isinstance(ref2, dict):
            name = ref1.get("array")
            if isinstance(name, str) and ref2.get("array") == name:
                blanked = {
                    **query,
                    "ref1": {**ref1, "array": ""},
                    "ref2": {**ref2, "array": ""},
                }
                return protocol.canonical_json({**params, "query": blanked}), name
    return protocol.canonical_json(params), ""


def _lane_entry(result: Any, name: str) -> _LaneEntry | None:
    """Split a fresh ``analyze`` result into a fast-lane entry for
    requests whose refs are named ``name``; None if it must not be
    stored (degraded: a deadline miss must not become sticky)."""
    if not isinstance(result, dict) or result.get("degraded", True):
        return None
    ref1, ref2 = result["ref1"], result["ref2"]
    if not (ref1.startswith(name) and ref2.startswith(name)):
        return None
    data = protocol.canonical_json(result).encode("utf-8")
    refs = (json.dumps(ref1) + ',"ref2":' + json.dumps(ref2) + "}").encode("utf-8")
    if not data.endswith(b'"ref1":' + refs):
        return None  # the refs are not the report's last keys
    cut = len(name)
    return data[: len(data) - len(refs)], ref1[cut:], ref2[cut:]


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


def _ok_frame(request_id: Any, entry: _LaneEntry, name: str) -> bytes:
    """Splice a fast-lane entry into a complete ``ok`` response line,
    its refs named ``name``.

    Bit-identical to ``encode_response(ok_response(id, result))`` of
    the slow path under that name: ``canonical_json`` sorts the keys,
    which already appear here in sorted order, the stored bytes are
    themselves canonical, and ``json.dumps`` writes each ref string as
    ``canonical_json`` does.
    """
    head, tail1, tail2 = entry
    id_text = json.dumps(request_id, sort_keys=True, separators=(",", ":"))
    return b"".join(
        (
            b'{"id":',
            id_text.encode("utf-8"),
            b',"ok":true,"result":',
            head,
            json.dumps(name + tail1).encode("utf-8"),
            b',"ref2":',
            json.dumps(name + tail2).encode("utf-8"),
            b"}}\n",
        )
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
        self.session = AnalysisSession(
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
        self._connections_open = 0
        self._session_counter = 0  # incremental session ids (event loop only)

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
        self._executor.shutdown(wait=True)
        if self.cache.path is not None:
            self.cache.save()

    # -- connections -------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await self._connection_loop(reader, writer)

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections_open += 1
        self.registry.inc("serve.connections")
        write_lock = asyncio.Lock()
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
                    self._handle_line(line, writer, write_lock, inc_sessions)
                )
                self._pending.add(task)
                task.add_done_callback(self._pending.discard)
        finally:
            self._connections_open -= 1
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
        response = await self._dispatch(request, inc_sessions)
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
        self, request: Request, inc_sessions: _IncrementalSessions
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
        lane_key: str | None = None
        name = ""
        if op == "analyze":
            # Zero-copy fast lane: a repeated query, under any array
            # name, is answered from the pre-serialized wire bytes of its
            # previous answer, before admission — it costs no worker
            # thread and no queue slot.
            lane_key, name = _lane_key(request.params)
            entry = self.fastlane.get(lane_key)
            if entry is not None:
                self.registry.inc("serve.fastlane.hits")
                return _ok_frame(request.id, entry, name)
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
                result = await self._run_analysis_op(request, inc_sessions)
            else:
                # Coalesce identical params only: the answer names the
                # request's arrays.  A lane key and the name it blanked
                # pin the params exactly, so they need no second encode.
                flight_key = (
                    (op, lane_key, name)
                    if lane_key is not None
                    else (op, protocol.canonical_json(request.params))
                )
                result = await self.flight.run(
                    flight_key,
                    lambda: self._run_analysis_op(request, inc_sessions),
                )
            if lane_key is not None:
                # Serialize the result once: it becomes both this
                # response's payload and the fast-lane entry.
                entry = _lane_entry(result, name)
                if entry is not None:
                    self.fastlane.put(lane_key, entry)
                    return _ok_frame(request.id, entry, name)
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
        self, request: Request, inc_sessions: _IncrementalSessions
    ) -> Any:
        """Run one analysis op's handler under the concurrency limit.

        Every analysis handler takes the request plus the connection's
        incremental sessions, which only the session ops use.
        """
        assert self._semaphore is not None
        handler = getattr(self, protocol.OPS[request.op].handler)
        async with self._semaphore:
            self._running += 1
            try:
                return await handler(request, inc_sessions)
            finally:
                self._running -= 1

    def _decode_query(
        self, params: dict
    ) -> tuple[Any, Any, Any, Any]:
        """``query`` serde object, or ``source`` + ``pair`` index."""
        if "query" in params:
            try:
                ref1, nest1, ref2, nest2 = query_from_dict(params["query"])
            except (KeyError, TypeError, ValueError) as err:
                raise ProtocolError(
                    ErrorCode.BAD_REQUEST, f"malformed query: {err!r}"
                ) from err
            # build_problem's preconditions, checked at the wire
            # boundary.  The fast lane relies on the first: it blanks
            # one shared name.
            if ref1.array != ref2.array:
                defect = (
                    "references name different arrays "
                    f"({ref1.array!r} vs {ref2.array!r})"
                )
            elif ref1.rank != ref2.rank:
                defect = (
                    f"rank mismatch for array {ref1.array!r}: "
                    f"{ref1.rank} vs {ref2.rank}"
                )
            else:
                return ref1, nest1, ref2, nest2
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, f"malformed query: {defect}"
            )
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
        lang = _source_lang(source, lang)
        try:
            return extract_or_raise(source, lang=lang, name="<request>").program
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
            # The orphaned work can still fail (a source error found
            # after the deadline, now that compiles run inside it): read
            # its outcome so asyncio does not log it as never retrieved.
            future.add_done_callback(
                lambda done: done.cancelled() or done.exception()
            )
            return degrade()

    async def _decode_off_loop(self, params: dict) -> tuple[Any, Any, Any, Any]:
        """:meth:`_decode_query`, compiling a ``source`` in a worker
        thread so it never stalls the event loop.  The compile runs
        before the deadline clock: the hedge a deadline answers with
        names the pair, so it needs the compiled program.  A ``query``
        is plain serde and decodes here."""
        if "query" in params:
            return self._decode_query(params)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._decode_query, params
        )

    async def _op_analyze(
        self,
        request: Request,
        inc_sessions: _IncrementalSessions,
    ):
        ref1, nest1, ref2, nest2 = await self._decode_off_loop(request.params)
        want_directions = bool(request.params.get("directions", True))

        def work() -> dict:
            report = self.session.analyze(
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
        inc_sessions: _IncrementalSessions,
    ):
        ref1, nest1, ref2, nest2 = await self._decode_off_loop(request.params)
        want_directions = bool(request.params.get("directions", True))

        def work() -> dict:
            explained = self.session.explain(
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
        inc_sessions: _IncrementalSessions,
    ):
        if "source" not in request.params:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "analyze_program needs 'source'"
            )
        source, lang = request.params["source"], request.params.get("lang")
        want_directions = bool(request.params.get("directions", True))
        compiled: list = []  # the program's queries, once compiled

        def work() -> dict:
            # The compile runs here too, under the deadline and off the
            # event loop.  In this worker thread, on the live shared
            # memoizer: the batch's probes, hits and inserts land in the
            # cache itself (its counters and LRU stamps), with no copy
            # or merge.
            queries = queries_from_program(self._compile(source, lang))
            compiled.append(queries)
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
            self.session.stats.merge(report.stats)
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
            # A deadline that passes before the compile finishes has no
            # pairs to hedge: the flagged summary is the whole answer.
            pairs = [
                protocol.degraded_report(
                    str(query.ref1),
                    str(query.ref2),
                    query.nest1.common_prefix_depth(query.nest2),
                    want_directions,
                )
                for query in (compiled[0] if compiled else ())
            ]
            return {"pairs": pairs, "summary": {"degraded": True}}

        return await self._with_deadline(work, degrade)

    # -- incremental session ops (protocol v3) -----------------------------

    def _open_incremental(self) -> IncrementalSession:
        # On the live shared memoizer, like analyze_program: re-queries
        # warm-start from everything the server ever computed, and their
        # probes, hits, inserts and LRU stamps land in the cache itself.
        return IncrementalSession(
            memoizer=self.cache.memoizer,
            jobs=1,
            improved=self.config.improved,
            symmetry=self.config.symmetry,
            fm_budget=self.config.fm_budget,
            budget=self.config.budget,
        )

    def _apply_update(
        self,
        sid: str,
        session: IncrementalSession,
        source: Any,
        lang: Any,
        verify: bool,
    ) -> dict:
        """Compile ``source`` into ``session`` and update it; returns the
        summary.  ``.loop`` text goes through the session's span
        compiler, so only the statements an edit changed recompile.

        Caller holds the connection's ``inc_sessions.lock``.
        """
        lang = _source_lang(source, lang)
        try:
            report = session.update_source(
                source, verify=verify, name="<request>", lang=lang
            )
        except LangError as err:
            raise ProtocolError(ErrorCode.SOURCE, str(err)) from err
        summary = report.summary()
        summary["session"] = sid
        summary["degraded"] = False
        if report.degraded_pairs:
            self.registry.inc("serve.sessions.degraded_pairs")
        return summary

    async def _op_open_session(
        self,
        request: Request,
        inc_sessions: _IncrementalSessions,
    ):
        # Durable-session fields (additive, v3): a client may mint its
        # own id — the key its journal replays under — plus a monotonic
        # incarnation epoch.
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
        verify = bool(request.params.get("verify", False))

        def work() -> dict:
            with inc_sessions.lock:
                live = inc_sessions.epochs.get(sid)
                if live is not None and epoch < live:
                    # A frame from a pre-failover incarnation arriving
                    # late must never clobber the rebuilt session, and
                    # is rejected before it costs a compile.
                    raise ProtocolError(
                        ErrorCode.BAD_REQUEST,
                        f"stale epoch {epoch} for session {sid!r} "
                        f"(live epoch {live})",
                    )
                # The first update (one whole-text compile) runs before
                # the registration: a source error registers no
                # session, and a failed re-open keeps the live one.
                session = self._open_incremental()
                update = (
                    self._apply_update(sid, session, source, lang, verify)
                    if source is not None
                    else None
                )
                inc_sessions.sessions[sid] = session
                inc_sessions.epochs[sid] = epoch
                self.registry.inc("serve.sessions.opened")
                result = {"session": sid, "epoch": epoch, "degraded": False}
                if update is None:
                    inc_sessions.last.pop(sid, None)
                else:
                    inc_sessions.last[sid] = result["update"] = update
                return result

        def degrade() -> dict:
            return {"session": sid, "degraded": True}

        return await self._with_deadline(work, degrade)

    async def _op_update_source(
        self,
        request: Request,
        inc_sessions: _IncrementalSessions,
    ):
        sid = request.params.get("session")
        if "source" not in request.params:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "update_source needs 'source'"
            )
        source, lang = request.params["source"], request.params.get("lang")
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
                summary = self._apply_update(sid, session, source, lang, verify)
                inc_sessions.last[sid] = summary
                return summary

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
            # Capability advertisement (protocol v2), kept for the v2
            # clients that check it: this endpoint is never a router.
            "cluster": False,
            # Capability advertisement (protocol v3): incremental
            # session ops are served here.
            "sessions": True,
            # Source languages accepted via the 'lang' param on every
            # op the table marks as taking source.
            "frontends": ["loop", "python", "c"],
            "inflight": self._admitted,
            "connections": self._connections_open,
            "cache_entries": self.cache.entry_count(),
        }

    def _op_stats(self) -> dict:
        merged = MetricsRegistry()
        merged.merge(self.registry)
        merged.merge(self.session.registry)
        return {
            "registry": merged.to_dict(),
            "cache": self.cache.stats(),
            "server": {
                "inflight": self._admitted,
                "running": self._running,
                "draining": self.draining,
                "connections": self._connections_open,
                "fastlane_entries": len(self.fastlane),
            },
        }


def _source_lang(source: Any, lang: Any) -> str:
    """The front end for a request's ``source`` and ``lang`` params
    (``lang`` defaults to ``loop``); ``bad_request`` when either is
    malformed."""
    if not isinstance(source, str):
        raise ProtocolError(ErrorCode.BAD_REQUEST, "'source' must be text")
    if lang is None:
        return "loop"
    if lang not in LANGUAGES:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST,
            f"unknown lang {lang!r}; expected one of {', '.join(LANGUAGES)}",
        )
    return lang


def _now_ns() -> int:
    import time

    return time.perf_counter_ns()
