"""Deterministic network chaos: a seeded TCP fault proxy.

:mod:`repro.robust.chaos` proves the *process* layer survives crashes,
hangs and torn disk writes; this module does the same for the *network*
layer.  A :class:`ChaosProxy` sits between a client and a serving
daemon and injects faults into the byte stream — and, exactly like
:class:`~repro.robust.chaos.FaultPlan`, every fault is a pure function
of the seed: whether a given connection or frame suffers is decided by
a SHA-256 roll over ``(seed, site, conn, frame)``, so the same
:class:`NetFaultPlan` replays the same fault schedule in every run, on
every platform, and tests can precompute it with
:meth:`NetFaultPlan.peek`.

Fault sites and kinds:

* ``connect`` site (key = connection ordinal): ``delay`` the accept,
  ``drop`` the connection (polite EOF before any byte flows), ``reset``
  it (abortive close), or ``partition`` — refuse this and the next
  ``partition_conns - 1`` connection attempts, as if a switch died;
* ``request`` / ``response`` sites (key = connection ordinal + frame
  index within that direction): ``delay`` a frame, ``drop`` it
  (swallowed; the peer times out), ``reset`` the connection mid-stream,
  or tear the frame (``torn``): forward roughly half its bytes without
  the terminating newline, then cut the connection — the classic
  partial-line failure the resilient client must turn into a typed
  :class:`~repro.serve.client.TransportError`.

Frame indices count *complete* protocol lines per direction, so a
request and its response roll independently and pipelined batches get
one roll per frame.  Connection ordinals count accepted connections in
arrival order: with one client connecting sequentially (the chaos-test
shape) the ordinal assignment — and therefore the entire fault
schedule — is fully deterministic.

Run it in-process (``proxy = ChaosProxy(plan, upstream...); thread``)
or from the CLI::

    repro chaosproxy 127.0.0.1:0 127.0.0.1:4733 --seed 7 --drop-rate 0.05

Every injection lands in the proxy's :class:`~repro.obs.metrics
.MetricsRegistry` under ``netchaos.*`` and in an in-order injection
log, mirroring :func:`repro.robust.chaos.injection_log`.
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import Counter
from dataclasses import dataclass, fields

from repro.obs.metrics import MetricsRegistry
from repro.robust.chaos import first_fired, seeded_uniform

__all__ = [
    "NetFaultPlan",
    "ChaosProxy",
    "DELAY",
    "DROP",
    "RESET",
    "TORN",
    "PARTITION",
    "NET_FAULT_KINDS",
    "CONNECT_KINDS",
    "FRAME_KINDS",
    "SITE_CONNECT",
    "SITE_REQUEST",
    "SITE_RESPONSE",
]

DELAY = "delay"
DROP = "drop"
RESET = "reset"
TORN = "torn"
PARTITION = "partition"
NET_FAULT_KINDS = (DELAY, DROP, RESET, TORN, PARTITION)

SITE_CONNECT = "connect"
SITE_REQUEST = "request"
SITE_RESPONSE = "response"

#: Which kinds can fire where: a frame cannot ``partition`` (that is a
#: connect-time event) and a connection attempt cannot be ``torn``
#: (there is no frame yet).  Order matters: it fixes the cumulative
#: thresholds the SHA-256 draw walks, exactly like ``FaultPlan.peek``.
CONNECT_KINDS = (DELAY, DROP, RESET, PARTITION)
FRAME_KINDS = (DELAY, DROP, RESET, TORN)


@dataclass(frozen=True)
class NetFaultPlan:
    """A seeded, rate-parameterized network-fault schedule.

    ``*_rate`` fields are probabilities in ``[0, 1]`` applied per site;
    ``delay_s`` is how long an injected delay stalls a connection or
    frame; ``partition_conns`` is how many consecutive connection
    attempts one injected partition refuses.
    """

    seed: int = 0
    delay_rate: float = 0.0
    drop_rate: float = 0.0
    reset_rate: float = 0.0
    torn_rate: float = 0.0
    partition_rate: float = 0.0
    delay_s: float = 0.05
    partition_conns: int = 3

    def __post_init__(self) -> None:
        for name in (
            "delay_rate",
            "drop_rate",
            "reset_rate",
            "torn_rate",
            "partition_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value!r}")
        if self.partition_conns < 1:
            raise ValueError(
                f"partition_conns must be >= 1, got {self.partition_conns!r}"
            )

    def to_json(self) -> str:
        return json.dumps(
            {f.name: getattr(self, f.name) for f in fields(self)},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "NetFaultPlan":
        return cls(**json.loads(text))

    # -- the deterministic roll --------------------------------------------

    def rate(self, kind: str) -> float:
        return {
            DELAY: self.delay_rate,
            DROP: self.drop_rate,
            RESET: self.reset_rate,
            TORN: self.torn_rate,
            PARTITION: self.partition_rate,
        }[kind]

    def uniform(self, site: str, key: str) -> float:
        """:func:`~repro.robust.chaos.seeded_uniform` under this plan's
        seed."""
        return seeded_uniform(self.seed, site, key)

    def peek(self, site: str, conn: int, frame: int | None = None) -> str | None:
        """Which fault (if any) fires at this site — without injecting.

        ``site`` is ``"connect"`` (``frame`` must be None) or
        ``"request"``/``"response"`` (``frame`` is the 0-based index of
        the complete protocol line in that direction).  This is the
        same decision the live proxy makes, minus the side effects, so
        tests can precompute exact fault schedules.
        """
        if site == SITE_CONNECT:
            kinds = CONNECT_KINDS
            key = str(conn)
        elif site in (SITE_REQUEST, SITE_RESPONSE):
            kinds = FRAME_KINDS
            key = f"{conn}:{frame}"
        else:
            raise ValueError(f"unknown fault site {site!r}")
        return first_fired(self.uniform(site, key), kinds, self.rate)


class ChaosProxy:
    """A seeded fault-injecting TCP proxy in front of one upstream.

    Lifecycle mirrors :class:`~repro.serve.server.DependenceServer`:
    construct, call :meth:`run` on a thread (or let the CLI own it),
    wait on :attr:`started`, read :attr:`bound_port`, and stop with
    :meth:`request_shutdown`.  Frames flow through ``readline`` with
    the protocol's line limit, so fault rolls line up one-to-one with
    protocol frames.
    """

    def __init__(
        self,
        plan: NetFaultPlan,
        upstream_host: str,
        upstream_port: int,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: MetricsRegistry | None = None,
        announce: bool = False,
    ):
        self.plan = plan
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.host = host
        self.port = port
        self.announce = announce
        self.registry = registry if registry is not None else MetricsRegistry()
        self.started = threading.Event()
        self.bound_host: str | None = None
        self.bound_port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_requested = threading.Event()
        self._conn_counter = 0  # accepted connections, arrival order
        self._partition_until = 0  # conn ordinals below this are refused
        self._writers: set[asyncio.StreamWriter] = set()
        self._log: list[tuple[str, str, str]] = []  # (site, key, kind)

    # -- audit surface -----------------------------------------------------

    def injection_log(self) -> list[tuple[str, str, str]]:
        """All ``(site, key, kind)`` injections, in injection order."""
        return list(self._log)

    def injected_counts(self) -> Counter:
        return Counter(kind for _site, _key, kind in self._log)

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> int:
        """Proxy until shut down; returns the process exit code (0)."""
        asyncio.run(self._main())
        return 0

    def request_shutdown(self) -> None:
        """Stop the proxy; safe to call from any thread."""
        self._shutdown_requested.set()
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(lambda: None)  # wake the waiter
            except RuntimeError:
                pass  # loop already closed

    async def _main(self) -> None:
        from repro.serve import protocol

        self._loop = asyncio.get_running_loop()
        server = await asyncio.start_server(
            self._on_connection,
            host=self.host,
            port=self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        sockname = server.sockets[0].getsockname()
        self.bound_host, self.bound_port = sockname[0], sockname[1]
        if self.announce:
            print(
                json.dumps(
                    {
                        "proxy": {
                            "host": self.bound_host,
                            "port": self.bound_port,
                            "upstream": f"{self.upstream_host}:{self.upstream_port}",
                            "seed": self.plan.seed,
                        }
                    },
                    sort_keys=True,
                ),
                flush=True,
            )
        self.started.set()
        try:
            while not self._shutdown_requested.is_set():
                await asyncio.sleep(0.05)
        finally:
            server.close()
            await server.wait_closed()
            for writer in list(self._writers):
                writer.transport.abort()
            await asyncio.sleep(0)

    # -- the fault pipeline ------------------------------------------------

    def _record(self, site: str, key: str, kind: str) -> None:
        self._log.append((site, key, kind))
        self.registry.inc("netchaos.injected")
        self.registry.inc_family("netchaos.injected_by_kind", kind)
        self.registry.inc_family("netchaos.injected_by_site", site)

    async def _on_connection(
        self, client_reader: asyncio.StreamReader, client_writer: asyncio.StreamWriter
    ) -> None:
        from repro.serve import protocol

        conn = self._conn_counter
        self._conn_counter += 1
        self.registry.inc("netchaos.connections")
        self._writers.add(client_writer)
        try:
            if conn < self._partition_until:
                # Inside an injected partition window: refuse outright.
                self._record(SITE_CONNECT, str(conn), PARTITION)
                client_writer.transport.abort()
                return
            kind = self.plan.peek(SITE_CONNECT, conn)
            if kind is not None:
                self._record(SITE_CONNECT, str(conn), kind)
            if kind == DELAY:
                await asyncio.sleep(self.plan.delay_s)
            elif kind == DROP:
                client_writer.close()
                return
            elif kind == RESET:
                client_writer.transport.abort()
                return
            elif kind == PARTITION:
                self._partition_until = (
                    self._conn_counter + self.plan.partition_conns - 1
                )
                client_writer.transport.abort()
                return
            try:
                upstream_reader, upstream_writer = await asyncio.open_connection(
                    self.upstream_host,
                    self.upstream_port,
                    limit=protocol.MAX_LINE_BYTES,
                )
            except OSError:
                self.registry.inc("netchaos.upstream_unreachable")
                client_writer.transport.abort()
                return
            self._writers.add(upstream_writer)
            try:
                await asyncio.gather(
                    self._pump(
                        client_reader, upstream_writer, SITE_REQUEST, conn
                    ),
                    self._pump(
                        upstream_reader, client_writer, SITE_RESPONSE, conn
                    ),
                )
            finally:
                self._writers.discard(upstream_writer)
                upstream_writer.close()
        finally:
            self._writers.discard(client_writer)
            client_writer.close()

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        site: str,
        conn: int,
    ) -> None:
        """Forward one direction frame-by-frame, rolling per frame."""
        frame = 0
        while True:
            try:
                line = await reader.readline()
            except (ConnectionError, OSError):
                break
            if not line:
                break
            if not line.endswith(b"\n"):
                # The peer itself tore the final frame (e.g. a kill -9
                # upstream): pass the tear through unmodified.
                try:
                    writer.write(line)
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
                break
            kind = self.plan.peek(site, conn, frame)
            frame += 1
            if kind is not None:
                self._record(site, f"{conn}:{frame - 1}", kind)
            if kind == DROP:
                continue  # swallowed: the peer's read times out
            if kind == RESET:
                writer.transport.abort()
                break
            if kind == TORN:
                # Forward about half the frame with no newline, then cut.
                torn = line[: max(1, (len(line) - 1) // 2)]
                try:
                    writer.write(torn)
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
                writer.transport.abort()
                break
            if kind == DELAY:
                await asyncio.sleep(self.plan.delay_s)
            try:
                writer.write(line)
                await writer.drain()
            except (ConnectionError, OSError):
                break
        # EOF (or an injected cut): propagate shutdown to the peer so
        # neither side waits forever on a half-open stream.
        try:
            if writer.can_write_eof():
                writer.write_eof()
        except (ConnectionError, OSError, RuntimeError):
            pass
