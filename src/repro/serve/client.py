"""The unified, fault-tolerant client for the dependence-analysis service.

One class, :class:`Client`, speaks the JSON-lines protocol to every
kind of serving endpoint, selected by URL scheme::

    Client("tcp://127.0.0.1:4733")  # a running daemon
    Client("stdio:")                # a private child daemon

``tcp://`` connects to a running :class:`~repro.serve.server
.DependenceServer`; ``stdio:`` spawns a private ``repro serve --stdio``
child process and talks over its pipes.  The call surface —
:meth:`Client.call`, :meth:`Client.call_many`, :meth:`Client.analyze`
and friends — is identical across both: the wire protocol is the same
protocol, only the transport differs.

Pipelining: :meth:`Client.call_many` writes a whole batch of request
lines before reading any response, then matches responses back to
requests by id (the server may answer out of order).

Typed server errors surface as :class:`ServeError` carrying the wire
error code, so callers can distinguish ``overloaded`` (retry later)
from ``bad_request`` (don't).

Resilience (all opt-in, zero-cost when off):

* every transport failure — refused connect, mid-stream reset, EOF,
  and the torn-frame case where a partial JSON line arrives without
  its newline — surfaces as a typed :class:`TransportError` carrying
  the op it orphaned and any partial frame, never a raw socket error
  or ``json.JSONDecodeError``;
* a :class:`RetryPolicy` retries *pure* ops (those the op table,
  :data:`repro.serve.protocol.OPS`, marks pure) across automatic
  reconnects with exponential backoff and deterministic seeded
  jitter, capped by a wall-clock deadline —
  dependence queries are pure functions of their payload (the PLDI'91
  cascade is deterministic), so a replayed query returns the identical
  bytes and retrying is safe by construction.  ``shutdown`` is never
  retried;
* a per-endpoint :class:`CircuitBreaker` (closed → open → half-open)
  fails fast with :class:`CircuitOpenError` while the endpoint is
  known-dead instead of burning the backoff schedule on every call;
* incremental sessions are durable: :meth:`Client.open_session` mints
  a client-side ``session_id`` plus a monotonic epoch and journals
  every ``open_session``/``update_source`` frame, and on a transport
  failure or an ``unknown_session`` answer (the daemon restarted, or a
  reconnect landed on a fresh connection, which holds no sessions) the
  journal replays to rebuild the session — bit-identical to an
  uninterrupted one, because the incremental engine guarantees delta ≡
  full re-analysis of the final source;
* everything observable lands in the client's
  :class:`~repro.obs.metrics.MetricsRegistry` under ``client.*``.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.robust.chaos import seeded_uniform
from repro.serve import protocol
from repro.serve.protocol import ProtocolError

__all__ = [
    "Client",
    "ServeError",
    "TransportError",
    "CircuitOpenError",
    "CircuitBreaker",
    "RetryPolicy",
    "PURE_OPS",
    "parse_endpoint",
]

#: Ops that are safe to silently re-send after a reconnect, read from
#: the op table.  The rest — ``shutdown`` and the session mutations —
#: surface their failure; sessions recover through their journal.
PURE_OPS = frozenset(name for name, op in protocol.OPS.items() if op.pure)

#: Server error codes that mean "try again later", not "you are wrong".
_RETRIABLE_SERVER_CODES = frozenset(
    {protocol.ErrorCode.OVERLOADED, protocol.ErrorCode.SHUTTING_DOWN}
)

#: Replay restarts allowed when a session vanishes mid-replay and no
#: RetryPolicy supplies its own attempt budget.
_REPLAY_ATTEMPTS = 4


class ServeError(Exception):
    """An error response from the server, with its typed code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class TransportError(ConnectionError):
    """The connection failed mid-call: reset, EOF, or a torn frame.

    ``op`` names the request left unanswered (``None`` when the
    failure preceded any request); ``partial`` carries the bytes of a
    torn frame — a JSON line that arrived without its terminating
    newline or failed to parse — so debugging tools can inspect what
    made it through.  Subclasses :class:`ConnectionError` so callers
    that caught raw socket errors keep working.
    """

    def __init__(self, detail: str, op: str | None = None, partial: bytes | None = None):
        suffix = f" (op {op!r})" if op else ""
        super().__init__(f"{detail}{suffix}")
        self.detail = detail
        self.op = op
        self.partial = partial


class CircuitOpenError(ConnectionError):
    """The circuit breaker is open: the endpoint is known-dead.

    Raised *without* touching the network, so a fleet of callers
    sharing one dead endpoint fails fast instead of stacking timeouts.
    ``retry_after_s`` is how long until the breaker half-opens.
    """

    def __init__(self, endpoint: str, retry_after_s: float):
        super().__init__(
            f"circuit open for {endpoint!r}: retry in {retry_after_s:.2f}s"
        )
        self.endpoint = endpoint
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline-capped exponential backoff with deterministic jitter.

    ``attempts`` bounds the *total* number of tries (1 = no retry).
    The delay before retry ``k`` (0-based) is ``base_delay_s *
    multiplier**k`` capped at ``max_delay_s``, scaled by a jitter
    factor in ``[0.5, 1.0)`` that is a pure SHA-256 function of
    ``(seed, k)`` — the same policy replays the same schedule in every
    run, so chaos tests can precompute exactly how long recovery
    takes.  ``deadline_s`` caps the whole retry loop in wall-clock
    time regardless of how many attempts remain.
    """

    attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    deadline_s: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts!r}")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier!r}"
            )

    def jitter(self, attempt: int) -> float:
        """The deterministic jitter factor for retry ``attempt``."""
        return 0.5 + seeded_uniform(self.seed, "retry", attempt) / 2.0

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry ``attempt`` (0-based)."""
        raw = min(self.base_delay_s * self.multiplier**attempt, self.max_delay_s)
        return raw * self.jitter(attempt)


class CircuitBreaker:
    """A per-endpoint closed → open → half-open circuit breaker.

    ``failure_threshold`` consecutive transport failures open the
    circuit; while open, :meth:`allow` raises :class:`CircuitOpenError`
    without touching the network.  After ``cooldown_s`` the breaker
    half-opens: exactly one probe call is let through, and its outcome
    re-closes or re-opens the circuit.  Success anywhere resets the
    failure count.  Not thread-safe by design — a :class:`Client` is a
    single-connection object.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 5, cooldown_s: float = 1.0):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold!r}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.failures = 0
        self.opened = 0  # times the circuit tripped (for counters/tests)
        self._state = self.CLOSED
        self._open_until = 0.0

    @property
    def state(self) -> str:
        if self._state == self.OPEN and time.monotonic() >= self._open_until:
            return self.HALF_OPEN
        return self._state

    def allow(self, endpoint: str) -> None:
        """Admit one call, or raise :class:`CircuitOpenError`."""
        if self._state != self.OPEN:
            return
        now = time.monotonic()
        if now < self._open_until:
            raise CircuitOpenError(endpoint, self._open_until - now)
        self._state = self.HALF_OPEN  # one probe rides through

    def record_success(self) -> None:
        if self.failures or self._state != self.CLOSED:
            self.failures = 0
            self._state = self.CLOSED

    def record_failure(self) -> None:
        self.failures += 1
        if self._state == self.HALF_OPEN or self.failures >= self.failure_threshold:
            self._state = self.OPEN
            self._open_until = time.monotonic() + self.cooldown_s
            self.opened += 1
            self.failures = 0


def parse_endpoint(endpoint: str) -> tuple[str, str | None, int | None]:
    """Split an endpoint URL into ``(scheme, host, port)``.

    Accepted forms: ``tcp://HOST:PORT`` and ``stdio:`` (also spelled
    ``stdio://``).  Anything else raises :class:`ValueError` naming the
    supported schemes.
    """
    if endpoint in ("stdio:", "stdio://"):
        return "stdio", None, None
    if endpoint.startswith("tcp://"):
        host, sep, port_text = endpoint[len("tcp://") :].rpartition(":")
        if not sep or not host or not port_text.isdigit():
            raise ValueError(
                f"endpoint {endpoint!r} needs the form tcp://HOST:PORT"
            )
        return "tcp", host, int(port_text)
    raise ValueError(
        f"unsupported endpoint {endpoint!r} (use tcp://HOST:PORT or stdio:)"
    )


class _SocketTransport:
    """A TCP connection's buffered line-oriented file pair."""

    def __init__(self, host: str, port: int, timeout: float | None):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def write(self, data: bytes) -> None:
        self._file.write(data)

    def flush(self) -> None:
        self._file.flush()

    def readline(self) -> bytes:
        return self._file.readline()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


class _StdioTransport:
    """A private ``repro serve --stdio`` child and its pipes."""

    def __init__(self, args: tuple[str, ...]):
        import os
        from pathlib import Path

        import repro

        # The child must import the same repro this process runs,
        # installed or straight from a source tree.
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--stdio", *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )

    def write(self, data: bytes) -> None:
        assert self._proc.stdin is not None
        self._proc.stdin.write(data)

    def flush(self) -> None:
        assert self._proc.stdin is not None
        self._proc.stdin.flush()

    def readline(self) -> bytes:
        assert self._proc.stdout is not None
        return self._proc.stdout.readline()

    def close(self) -> None:
        # Closing stdin is the stdio daemon's EOF: it drains and exits.
        try:
            if self._proc.stdin is not None:
                self._proc.stdin.close()
            self._proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait(timeout=5)
        finally:
            if self._proc.stdout is not None:
                self._proc.stdout.close()


class Client:
    """One connection to a dependence-analysis endpoint.

    ``endpoint`` selects the transport by scheme (see module
    docstring); ``retry_for`` keeps retrying a refused TCP connection
    for that many seconds (a server that is still coming up);
    ``stdio_args`` appends extra ``repro serve`` flags when spawning a
    ``stdio:`` child.

    ``retry`` is the optional :class:`RetryPolicy` for mid-stream
    failures — without one the client behaves like a plain socket
    (one transport failure, one typed :class:`TransportError`).
    ``breaker`` is the per-endpoint :class:`CircuitBreaker` (pass a
    shared instance to coordinate several clients on one endpoint);
    ``registry`` receives ``client.*`` counters.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float | None = 30.0,
        retry_for: float = 0.0,
        stdio_args: tuple[str, ...] = (),
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.endpoint = endpoint
        self.scheme, self.host, self.port = parse_endpoint(endpoint)
        self.retry = retry
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._next_id = 0
        self._timeout = timeout
        self._stdio_args = stdio_args
        self._journal: dict[str, dict] = {}  # session_id -> journal entry
        self._transport: Any = self._make_transport(retry_for)

    def _make_transport(self, retry_for: float = 0.0) -> Any:
        if self.scheme == "stdio":
            return _StdioTransport(self._stdio_args)
        return self._connect_tcp(self._timeout, retry_for)

    def _connect_tcp(
        self, timeout: float | None, retry_for: float
    ) -> _SocketTransport:
        assert self.host is not None and self.port is not None
        deadline = time.monotonic() + retry_for
        while True:
            try:
                return _SocketTransport(self.host, self.port, timeout)
            except (ConnectionRefusedError, OSError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def _reconnect(self, retry_for: float = 0.0) -> None:
        """Tear down the broken transport and dial a fresh one."""
        try:
            self._transport.close()
        except (OSError, ValueError):
            pass
        self._transport = self._make_transport(retry_for)
        self.registry.inc("client.reconnects")

    # -- plumbing ----------------------------------------------------------

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _fresh_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _read_response(self, op: str | None = None) -> dict:
        try:
            line = self._transport.readline()
        except (OSError, ValueError) as err:
            raise TransportError(f"read failed: {err}", op=op) from err
        if not line:
            raise TransportError("server closed the connection", op=op)
        if not line.endswith(b"\n"):
            # A torn frame: the connection died mid-line.  The partial
            # bytes ride along so the caller can see what arrived.
            raise TransportError(
                f"torn frame ({len(line)} bytes, no newline)",
                op=op,
                partial=line,
            )
        try:
            return protocol.decode_response(line)
        except json.JSONDecodeError as err:
            # A complete line that is not JSON: the stream is corrupt
            # (a proxy bug, a torn write upstream) — typed, with the
            # evidence attached, never a raw JSONDecodeError.
            raise TransportError(
                f"undecodable frame: {err}", op=op, partial=line
            ) from err

    def _write_request(self, op: str, params: dict | None, request_id: int) -> None:
        try:
            self._transport.write(protocol.encode_request(op, params, request_id))
        except (OSError, ValueError) as err:
            raise TransportError(f"write failed: {err}", op=op) from err

    def _flush(self, op: str | None = None) -> None:
        try:
            self._transport.flush()
        except (OSError, ValueError) as err:
            raise TransportError(f"flush failed: {err}", op=op) from err

    @staticmethod
    def _unwrap(response: dict) -> Any:
        if response.get("ok"):
            return response["result"]
        error = response.get("error") or {}
        raise ServeError(
            error.get("code", "internal_error"),
            error.get("message", "malformed error response"),
        )

    # -- the retry loop ----------------------------------------------------

    def _retriable(self, op: str, attempt: int, deadline: float | None) -> bool:
        if self.retry is None or op not in PURE_OPS:
            return False
        if attempt + 1 >= self.retry.attempts:
            return False
        return deadline is None or time.monotonic() < deadline

    def _backoff(self, attempt: int, deadline: float | None) -> None:
        assert self.retry is not None
        pause = self.retry.delay(attempt)
        if deadline is not None:
            pause = min(pause, max(0.0, deadline - time.monotonic()))
        if pause > 0:
            time.sleep(pause)

    def _call_once(self, op: str, params: dict | None) -> Any:
        request_id = self._fresh_id()
        self._write_request(op, params, request_id)
        self._flush(op)
        response = self._read_response(op)
        if response.get("id") != request_id:
            raise ProtocolError(
                protocol.ErrorCode.PARSE,
                f"response id {response.get('id')!r} != {request_id}",
            )
        return self._unwrap(response)

    # -- calls -------------------------------------------------------------

    def call(self, op: str, params: dict | None = None) -> Any:
        """One request, one response; raises :class:`ServeError` on errors.

        With a :class:`RetryPolicy`, transport failures and retriable
        server verdicts (``overloaded``, ``shutting_down``) on *pure*
        ops are retried across automatic reconnects; everything else
        propagates after the first failure.
        """
        deadline = (
            time.monotonic() + self.retry.deadline_s if self.retry else None
        )
        attempt = 0
        while True:
            self._allow(op)
            try:
                result = self._call_once(op, params)
            except TransportError:
                self.breaker.record_failure()
                self.registry.inc("client.transport_errors")
                self.registry.inc_family("client.transport_errors_by_op", op)
                if not self._retriable(op, attempt, deadline):
                    raise
                self._retry_pause_and_reconnect(op, attempt, deadline)
                attempt += 1
                continue
            except ServeError as err:
                # An answer *is* a live endpoint: the breaker stays happy.
                self.breaker.record_success()
                if err.code in _RETRIABLE_SERVER_CODES and self._retriable(
                    op, attempt, deadline
                ):
                    self.registry.inc("client.retries")
                    self.registry.inc_family("client.retries_by_op", op)
                    self._backoff(attempt, deadline)
                    attempt += 1
                    continue
                raise
            self.breaker.record_success()
            return result

    def _allow(self, op: str | None) -> None:
        try:
            self.breaker.allow(self.endpoint)
        except CircuitOpenError:
            self.registry.inc("client.breaker_rejections")
            raise

    def _retry_pause_and_reconnect(
        self, op: str, attempt: int, deadline: float | None
    ) -> None:
        self.registry.inc("client.retries")
        self.registry.inc_family("client.retries_by_op", op)
        self._backoff(attempt, deadline)
        # Keep redialing through transient refusals (a server coming
        # back up, a partition window on the path) for a bounded slice
        # of the remaining deadline.
        remaining = (
            max(0.0, deadline - time.monotonic()) if deadline is not None else 5.0
        )
        try:
            self._reconnect(retry_for=min(5.0, remaining))
        except (OSError, ValueError) as err:
            raise TransportError(f"reconnect failed: {err}", op=op) from err

    def call_many(self, calls: list[tuple[str, dict | None]]) -> list[Any]:
        """Pipeline a batch of calls; results come back in input order.

        All request lines are written before any response is read, and
        responses are matched by id, so server-side reordering (e.g. a
        cached answer overtaking a slow one) is invisible to callers.
        Error responses become :class:`ServeError` *instances* in the
        result list rather than raising, so one bad call cannot mask
        the other results.

        With a :class:`RetryPolicy` and an all-pure batch, a transport
        failure mid-pipeline re-sends only the still-unanswered calls
        after reconnecting, and retriable server verdicts are re-asked
        — the batch completes with zero lost queries or raises.
        """
        results: list[Any] = [None] * len(calls)
        remaining: dict[int, tuple[str, dict | None]] = dict(enumerate(calls))
        all_pure = all(op in PURE_OPS for op, _params in calls)
        deadline = (
            time.monotonic() + self.retry.deadline_s if self.retry else None
        )
        attempt = 0
        while remaining:
            self._allow(None)
            indices = sorted(remaining)
            id_to_index: dict[Any, int] = {}
            answered: dict[int, dict] = {}
            more_rounds = (
                self.retry is not None
                and attempt + 1 < self.retry.attempts
                and (deadline is None or time.monotonic() < deadline)
            )
            try:
                for index in indices:
                    op, params = remaining[index]
                    request_id = self._fresh_id()
                    id_to_index[request_id] = index
                    self._write_request(op, params, request_id)
                self._flush()
                for _ in indices:
                    response = self._read_response()
                    request_id = response.get("id")
                    index = id_to_index.get(request_id)
                    if index is None or index not in remaining:
                        raise ProtocolError(
                            protocol.ErrorCode.PARSE,
                            f"unexpected response id {request_id!r}",
                        )
                    answered[index] = response
            except TransportError as err:
                self.breaker.record_failure()
                self.registry.inc("client.transport_errors")
                # Any answers that did arrive before the cut still count.
                for index, response in answered.items():
                    if index in remaining:
                        self._settle(results, remaining, index, response, more_rounds)
                if not (more_rounds and all_pure):
                    raise
                failed_op = err.op or next(
                    (remaining[i][0] for i in sorted(remaining)), "batch"
                )
                self._retry_pause_and_reconnect(failed_op, attempt, deadline)
                attempt += 1
                continue
            self.breaker.record_success()
            for index in indices:
                if index not in answered:
                    # We read a response per request, yet this id never
                    # showed: a duplicated id, i.e. a protocol violation.
                    raise ProtocolError(
                        protocol.ErrorCode.PARSE,
                        f"no response for request id of call {index}",
                    )
                self._settle(results, remaining, index, answered[index], more_rounds)
            if remaining:
                # Only retriable server verdicts stay pending; back off
                # (no reconnect: the connection answered) and re-ask.
                self._backoff(attempt, deadline)
                attempt += 1
        return results

    def _settle(
        self,
        results: list[Any],
        remaining: dict[int, tuple[str, dict | None]],
        index: int,
        response: dict,
        more_rounds: bool,
    ) -> None:
        """Record one response; retriable server errors stay pending.

        A pending call keeps its :class:`ServeError` as the provisional
        result, so when the retry budget runs out the caller still sees
        the typed error instead of a hole.
        """
        try:
            results[index] = self._unwrap(response)
        except ServeError as err:
            results[index] = err
            op = remaining[index][0]
            if (
                more_rounds
                and op in PURE_OPS
                and err.code in _RETRIABLE_SERVER_CODES
            ):
                self.registry.inc("client.retries")
                self.registry.inc_family("client.retries_by_op", op)
                return  # stays in `remaining`: re-asked next round
        del remaining[index]

    # -- convenience wrappers ----------------------------------------------

    def analyze(
        self, query: dict | None = None, source: str | None = None, **params: Any
    ) -> dict:
        merged = dict(params)
        if query is not None:
            merged["query"] = query
        if source is not None:
            merged["source"] = source
        return self.call("analyze", merged)

    def analyze_program(self, source: str, **params: Any) -> dict:
        return self.call("analyze_program", {"source": source, **params})

    def explain(
        self, query: dict | None = None, source: str | None = None, **params: Any
    ) -> dict:
        merged = dict(params)
        if query is not None:
            merged["query"] = query
        if source is not None:
            merged["source"] = source
        return self.call("explain", merged)

    # -- durable incremental sessions --------------------------------------

    def open_session(
        self,
        source: str | None = None,
        session_id: str | None = None,
        **params: Any,
    ) -> dict:
        """Open an incremental session; returns ``{"session": id, ...}``.

        With ``source`` the first full analysis runs immediately and
        the result carries its ``update`` summary.  Requires an
        endpoint whose ``health`` advertises ``sessions: true``
        (protocol v3).

        The session is durable: the client mints ``session_id`` (or
        takes yours), stamps a monotonic epoch, and journals this
        frame plus every later :meth:`update_source`, replaying the
        journal to rebuild the session after a reconnect or a
        restarted daemon.
        """
        sid = session_id if session_id is not None else f"c{uuid.uuid4().hex[:12]}"
        merged = dict(params)
        if source is not None:
            merged["source"] = source
        merged["session_id"] = sid
        entry = {"epoch": 0, "open": dict(merged), "updates": []}
        merged["epoch"] = 0
        try:
            result = self.call("open_session", merged)
        except TransportError:
            # Journal first, then recover: the replay re-sends the open
            # (with a bumped epoch) on a fresh connection.
            self._journal[sid] = entry
            return self._replay_session(sid)
        self._journal[sid] = entry
        return result

    def update_source(self, session: str, source: str, **params: Any) -> dict:
        """Re-analyze an edited program; only dirty pairs are re-queried."""
        merged = {"session": session, "source": source, **params}
        entry = self._journal.get(session)
        if entry is not None:
            # Journal before sending: if the send dies we replay the
            # journal, whose last frame is exactly this update — so
            # the replay's return value is this call's response.
            entry["updates"].append(dict(merged))
        try:
            return self.call("update_source", merged)
        except TransportError:
            if entry is None:
                raise
            return self._replay_session(session)
        except ServeError as err:
            if entry is not None:
                if err.code == protocol.ErrorCode.UNKNOWN_SESSION:
                    # The daemon no longer holds this session (it
                    # restarted, or this is a fresh connection): rebuild
                    # everything from the journal.
                    return self._replay_session(session)
                # The server rejected this very update (bad source,
                # blown limit): scrub it from the journal so a later
                # replay does not re-court the same rejection.
                entry["updates"].pop()
            raise

    def graph(self, session: str, **params: Any) -> dict:
        """The session's retained graph: canonical edges + DOT text."""
        merged = {"session": session, **params}
        entry = self._journal.get(session)
        try:
            return self.call("graph", merged)
        except TransportError:
            if entry is None:
                raise
            self._replay_session(session)
            return self.call("graph", merged)
        except ServeError as err:
            if entry is None or err.code != protocol.ErrorCode.UNKNOWN_SESSION:
                raise
            self._replay_session(session)
            return self.call("graph", merged)

    def _replay_session(self, sid: str) -> dict:
        """Rebuild a journaled session on the live endpoint.

        Bumps the epoch (so a late frame of the old incarnation can
        never clobber the rebuilt one), re-opens with the original open
        params, and re-applies every journaled update in order.
        Returns the response of the final journal frame.
        Bit-identity with the uninterrupted session is guaranteed by
        the incremental engine's delta ≡ full invariant: the rebuilt
        graph is a pure function of the final source.
        """
        entry = self._journal[sid]
        entry["epoch"] += 1
        self.registry.inc("client.session_replays")
        open_params = dict(entry["open"])
        open_params["epoch"] = entry["epoch"]
        deadline = (
            time.monotonic() + self.retry.deadline_s if self.retry else None
        )
        attempt = 0
        while True:
            self._allow("open_session")
            try:
                result = self.call("open_session", open_params)
                for update in entry["updates"]:
                    result = self.call("update_source", update)
                self.registry.inc(
                    "client.replayed_frames", 1 + len(entry["updates"])
                )
                return result
            except TransportError:
                if self.retry is None or attempt + 1 >= self.retry.attempts or (
                    deadline is not None and time.monotonic() >= deadline
                ):
                    raise
                self._retry_pause_and_reconnect("open_session", attempt, deadline)
                attempt += 1
            except ServeError as err:
                if err.code != protocol.ErrorCode.UNKNOWN_SESSION:
                    raise
                # The session vanished *mid-replay*: restart the whole
                # replay.  The re-open is idempotent — equal epochs
                # replace — so a restarted replay converges to the same
                # final state.
                if attempt + 1 >= (
                    self.retry.attempts if self.retry else _REPLAY_ATTEMPTS
                ) or (deadline is not None and time.monotonic() >= deadline):
                    raise
                self.registry.inc("client.session_replays")
                attempt += 1

    # -- probes ------------------------------------------------------------

    def stats(self) -> dict:
        return self.call("stats")

    def health(self) -> dict:
        return self.call("health")

    def ping(self) -> float:
        """One health round-trip; returns the latency in seconds."""
        start = time.perf_counter()
        self.health()
        return time.perf_counter() - start

    def shutdown(self) -> dict:
        return self.call("shutdown")
