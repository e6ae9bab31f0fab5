"""The cluster router: consistent-hash sharding over worker daemons.

A cluster is N independent :class:`~repro.serve.server.DependenceServer`
workers behind one tiny asyncio router.  The router owns no analyzer
and no memo table; per request it does exactly four cheap things —
parse the line, derive the **shard key** (the canonical JSON text of
the request params, the same canonicalization the workers' wire fast
lane keys on), look the key up on the :class:`HashRing`, and forward
the raw line bytes to the key's home worker.  Responses stream back
verbatim.  Because the ring is deterministic, every canonical key has
exactly one home, so a repeated query always lands on the worker whose
memo tables (and wire fast lane) already hold its answer: warm hits
stay single-probe even at fleet scale.

Failure handling is built around **replay**:

* every forwarded analysis request stays in a per-link pending table
  until its response line arrives;
* a worker that answers ``shutting_down`` (the SIGTERM drain path) or
  whose connection drops (kill -9) is removed from the ring, and every
  pending request it still owed is re-routed to the key's new home and
  resent — analysis is pure, so resending is always safe;
* the supervisor (:mod:`repro.serve.cluster`) restarts dead workers
  and re-adds them to the ring, moving their ring segment back.

Analysis requests therefore never get lost: the client either receives
the worker's answer or the replayed answer from the re-sharded ring,
bit-identical either way (workers share one deterministic analyzer).

Which ops terminate here, which forward, and what each shards on is
read from the op table, :data:`repro.serve.protocol.OPS`.

Control ops terminate at the router: ``health`` advertises
``cluster: true`` plus the live worker set (the protocol-version-2
capability frame old clients simply ignore), ``stats`` merges the
router's own counters with every worker's registry, and ``shutdown``
drains the whole cluster.

Incremental session ops (protocol v3) are served too — ``sessions:
true`` — by **pinning**: a durable session's client-minted id is the
shard key for every frame it ever sends, so ``open_session`` and all
later ``update_source``/``graph`` frames land on one home worker.
When that worker dies the id re-homes deterministically and the
client's journal replay (see :mod:`repro.serve.client`) rebuilds the
session there, bit-identical by the incremental engine's delta ≡ full
invariant.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import signal
import sys
import threading
import traceback
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry
from repro.serve import protocol
from repro.serve.protocol import ErrorCode, ProtocolError, shard_key

__all__ = ["HashRing", "RouterConfig", "ClusterRouter", "shard_key"]


class HashRing:
    """A deterministic consistent-hash ring over worker ids.

    Each node is placed at ``replicas`` positions derived from
    SHA-256 of ``"{node}#{index}"`` — no process-seeded ``hash()``
    anywhere, so placement is identical across runs, processes and
    machines.  A key homes on the first node position at or after
    SHA-256 of the key bytes (wrapping).  Removing a node moves only
    the keys that homed on it (they fall through to their next
    position's owner); every other key keeps its home — the property
    the re-shard-on-drain protocol relies on.
    """

    def __init__(self, nodes: tuple[str, ...] = (), replicas: int = 64):
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self.replicas = replicas
        self._positions: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _digest(data: bytes) -> int:
        return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        points = [
            (self._digest(f"{node}#{index}".encode("utf-8")), node)
            for index in range(self.replicas)
        ]
        merged = sorted(
            list(zip(self._positions, self._owners)) + points
        )
        self._positions = [position for position, _ in merged]
        self._owners = [owner for _, owner in merged]

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        kept = [
            (position, owner)
            for position, owner in zip(self._positions, self._owners)
            if owner != node
        ]
        self._positions = [position for position, _ in kept]
        self._owners = [owner for _, owner in kept]

    def node_for(self, key: bytes) -> str:
        """The home node of ``key``; raises LookupError on an empty ring."""
        if not self._owners:
            raise LookupError("hash ring has no nodes")
        index = bisect_right(self._positions, self._digest(key))
        if index == len(self._owners):
            index = 0
        return self._owners[index]


@dataclass
class RouterConfig:
    """Everything the router process can be configured with."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick a free port (announced on stdout)
    announce: bool = True
    replicas: int = 64  # ring positions per worker
    connect_retry_s: float = 2.0  # per-worker connect patience
    reroute_wait_s: float = 30.0  # max wait for an empty ring to refill
    # The supervisor embeds the router in its own loop and owns the
    # process's signals; a standalone router installs its own.
    install_signal_handlers: bool = True


@dataclass
class _Worker:
    """One registered worker daemon."""

    worker_id: str
    host: str
    port: int
    pid: int | None = None
    # Bumped every (re-)registration: a stale EOF from a dead worker's
    # old connection must never eject its restarted successor.
    generation: int = 0


class _Link:
    """One client session's pipelined connection to one worker."""

    __slots__ = ("worker_id", "generation", "reader", "writer", "pending", "pump")

    def __init__(
        self,
        worker_id: str,
        generation: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        self.worker_id = worker_id
        self.generation = generation
        self.reader = reader
        self.writer = writer
        # canonical id text -> raw request line awaiting its response
        self.pending: dict[str, bytes] = {}
        self.pump: asyncio.Task | None = None


class ClusterRouter:
    """The asyncio router process fronting a worker fleet.

    Lifecycle mirrors :class:`~repro.serve.server.DependenceServer`
    (``run()`` / ``started`` / ``request_shutdown()``), so the same
    harnesses drive both.  Workers join and leave through
    :meth:`add_worker` / :meth:`begin_drain`, which the supervisor (or
    a test) calls; the router also ejects workers on its own when they
    answer ``shutting_down`` or drop their connection.
    """

    def __init__(
        self,
        config: RouterConfig | None = None,
        on_shutdown: Callable[[], None] | None = None,
        on_worker_lost: Callable[[str], None] | None = None,
    ):
        self.config = config if config is not None else RouterConfig()
        self.registry = MetricsRegistry()
        self.ring = HashRing(replicas=self.config.replicas)
        self.workers: dict[str, _Worker] = {}
        self.started = threading.Event()
        self.bound_host: str | None = None
        self.bound_port: int | None = None
        self.draining = False
        self.on_shutdown = on_shutdown
        self.on_worker_lost = on_worker_lost
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_requested = threading.Event()
        self._ring_nonempty: asyncio.Event | None = None
        self._sessions: set["_ClientSession"] = set()
        self._pending_total = 0
        self._generation = 0

    # -- worker registry ---------------------------------------------------

    def add_worker(
        self, worker_id: str, host: str, port: int, pid: int | None = None
    ) -> None:
        """Register (or re-register after restart) one worker daemon.

        Safe to call from any thread; the ring mutation hops onto the
        router's event loop when it is running.
        """
        self._on_loop(self._add_worker, worker_id, host, port, pid)

    def begin_drain(self, worker_id: str) -> None:
        """Take a worker out of the ring ahead of its SIGTERM drain.

        In-flight requests it already owns keep their pending entries:
        the drain answers them, and anything it refuses or abandons is
        replayed onto the re-sharded ring.
        """
        self._on_loop(self._eject_worker, worker_id, "drain")

    def _on_loop(self, fn, *args) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            fn(*args)
            return
        try:
            on_loop = asyncio.get_running_loop() is loop
        except RuntimeError:
            on_loop = False
        if on_loop:
            # Already on the router's loop (the supervisor lives
            # there): apply now, so a caller that registers a worker
            # and immediately describes the ring sees it.
            fn(*args)
        else:
            loop.call_soon_threadsafe(fn, *args)

    def _add_worker(
        self, worker_id: str, host: str, port: int, pid: int | None
    ) -> None:
        self._generation += 1
        self.workers[worker_id] = _Worker(
            worker_id, host, port, pid, generation=self._generation
        )
        self.ring.add(worker_id)
        self.registry.inc("cluster.worker_joined")
        if self._ring_nonempty is not None and len(self.ring):
            self._ring_nonempty.set()

    def _eject_worker(self, worker_id: str, why: str) -> None:
        if worker_id not in self.ring:
            return
        self.ring.remove(worker_id)
        self.registry.inc_family("cluster.worker_ejected", why)
        if self._ring_nonempty is not None and not len(self.ring):
            self._ring_nonempty.clear()
        if why == "lost" and self.on_worker_lost is not None:
            try:
                self.on_worker_lost(worker_id)
            except Exception:  # pragma: no cover - supervisor hook bug
                traceback.print_exc(file=sys.stderr)

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> int:
        """Route until drained; returns the process exit code (0)."""
        asyncio.run(self._main())
        return 0

    def request_shutdown(self) -> None:
        """Begin a graceful cluster drain; safe from any thread."""
        self._shutdown_requested.set()
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(lambda: None)
            except RuntimeError:
                pass

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._ring_nonempty = asyncio.Event()
        if len(self.ring):
            self._ring_nonempty.set()
        if self.config.install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(
                        signum, self.request_shutdown
                    )
                except (RuntimeError, NotImplementedError, ValueError):
                    break
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
                protocol.canonical_json({"serving": self.describe()}),
                flush=True,
            )
        self.started.set()
        try:
            while not self._shutdown_requested.is_set():
                await asyncio.sleep(0.05)
            self.draining = True
            server.close()
            await server.wait_closed()
            await self._drain()
        finally:
            for session in tuple(self._sessions):
                await session.close()
            if self.on_shutdown is not None:
                try:
                    self.on_shutdown()
                except Exception:  # pragma: no cover - supervisor hook bug
                    traceback.print_exc(file=sys.stderr)

    async def _drain(self) -> None:
        """Let every pending forwarded request come home (or replay)."""
        while any(session.pending_count() for session in self._sessions):
            await asyncio.sleep(0.02)

    def describe(self) -> dict:
        """The announce/health payload describing the cluster."""
        return {
            "host": self.bound_host,
            "port": self.bound_port,
            "protocol": protocol.PROTOCOL_VERSION,
            "cluster": True,
            "workers": [
                {
                    "id": worker.worker_id,
                    "host": worker.host,
                    "port": worker.port,
                    "pid": worker.pid,
                }
                for _, worker in sorted(self.workers.items())
            ],
        }

    # -- client sessions ---------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = _ClientSession(self, reader, writer)
        self._sessions.add(session)
        self.registry.inc("cluster.connections")
        try:
            await session.serve()
        finally:
            self._sessions.discard(session)
            if not self.draining:
                await session.close()

    # -- control plane -----------------------------------------------------
    #
    # Control ops terminate here; each is async because ``stats`` must
    # ask every worker.

    async def _op_shutdown(self) -> dict:
        self.request_shutdown()
        return {"draining": True}

    async def _op_health(self) -> dict:
        import repro

        return {
            "status": "draining" if self.draining else "ok",
            "protocol": protocol.PROTOCOL_VERSION,
            "server": repro.__version__,
            "cluster": True,
            # Durable incremental sessions: the router pins each
            # client-minted session id to one ring home and forwards
            # its frames there; after a worker failover the client's
            # journal replay rebuilds the session at the new home.
            "sessions": True,
            "workers": len(self.ring),
            "ring": self.ring.nodes,
            "inflight": self._pending_total,
        }

    async def _op_stats(self) -> dict:
        merged = MetricsRegistry()
        merged.merge(self.registry)
        workers: dict[str, Any] = {}
        for worker_id, worker in sorted(self.workers.items()):
            try:
                result = await self._control_call(worker, "stats")
            except (OSError, asyncio.TimeoutError, ValueError):
                workers[worker_id] = {"unreachable": True}
                continue
            workers[worker_id] = result
        return {
            "router": merged.to_dict(),
            "ring": self.ring.nodes,
            "workers": workers,
        }

    async def _control_call(self, worker: _Worker, op: str) -> Any:
        """One short-lived request/response round trip to a worker."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(
                worker.host, worker.port, limit=protocol.MAX_LINE_BYTES
            ),
            timeout=5.0,
        )
        try:
            writer.write(protocol.encode_request(op, {}, request_id=0))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=10.0)
            response = protocol.decode_response(line)
            if not response.get("ok"):
                raise ValueError(f"{op} failed: {response.get('error')}")
            return response["result"]
        finally:
            writer.close()


class _ClientSession:
    """One client connection and its per-worker forwarding links."""

    def __init__(
        self,
        router: ClusterRouter,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        self.router = router
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.links: dict[str, _Link] = {}

    def pending_count(self) -> int:
        return sum(len(link.pending) for link in self.links.values())

    async def serve(self) -> None:
        while True:
            try:
                line = await self.reader.readline()
            except (ValueError, ConnectionError):
                break
            if not line:
                break
            if not line.strip():
                continue
            await self._handle_line(line)

    async def close(self) -> None:
        for link in tuple(self.links.values()):
            if link.pump is not None:
                link.pump.cancel()
            try:
                link.writer.close()
            except Exception:
                pass
        self.links.clear()
        try:
            self.writer.close()
        except Exception:
            pass

    # -- request path ------------------------------------------------------

    async def _respond(self, response: dict | bytes) -> None:
        payload = (
            response
            if isinstance(response, bytes)
            else protocol.encode_response(response)
        )
        try:
            async with self.write_lock:
                self.writer.write(payload)
                await self.writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away; workers still warm their caches

    async def _handle_line(self, line: bytes) -> None:
        router = self.router
        try:
            request = protocol.decode_request(line)
        except ProtocolError as err:
            await self._respond(
                protocol.error_response(err.request_id, err.code, err.message)
            )
            return
        spec = protocol.OPS[request.op]
        router.registry.inc_family("cluster.requests", request.op)
        if spec.control:
            result = await getattr(router, spec.handler)()
            await self._respond(protocol.ok_response(request.id, result))
            return

        key = spec.shard_key(request.params)
        if key is None:
            # Durable sessions pin to the ring by their client-minted
            # id; without one there is no stable home to pin to (the
            # old per-connection server-allocated ids cannot survive a
            # failover), so the router requires it.
            await self._respond(
                protocol.error_response(
                    request.id,
                    ErrorCode.BAD_REQUEST,
                    f"{request.op!r} through a cluster router needs a "
                    "client-minted session id (durable-session "
                    "clients send one automatically)",
                )
            )
            return
        if router.draining or router._shutdown_requested.is_set():
            router.registry.inc_family(
                "serve.errors", ErrorCode.SHUTTING_DOWN
            )
            await self._respond(
                protocol.error_response(
                    request.id, ErrorCode.SHUTTING_DOWN, "cluster is draining"
                )
            )
            return
        await self._forward(request.id, key, line)

    async def _forward(
        self, request_id: Any, key: bytes, line: bytes
    ) -> None:
        """Send one analysis request to its key's home worker."""
        router = self.router
        id_text = protocol.canonical_json(request_id)
        while True:
            try:
                worker_id = await self._home_for(key)
            except LookupError:
                router.registry.inc("cluster.no_worker_errors")
                await self._respond(
                    protocol.error_response(
                        request_id,
                        ErrorCode.OVERLOADED,
                        "no workers available; retry later",
                    )
                )
                return
            link = await self._link_for(worker_id)
            if link is None:
                continue  # worker ejected while connecting; re-route
            link.pending[id_text] = line
            router._pending_total += 1
            try:
                link.writer.write(line)
                await link.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                # The pump (or _lose_link) replays this pending entry.
                return
            router.registry.inc("cluster.forwarded")
            return

    async def _home_for(self, key: bytes) -> str:
        """The key's home worker, waiting out an empty-ring window."""
        router = self.router
        try:
            return router.ring.node_for(key)
        except LookupError:
            assert router._ring_nonempty is not None
            try:
                await asyncio.wait_for(
                    router._ring_nonempty.wait(),
                    timeout=router.config.reroute_wait_s,
                )
            except asyncio.TimeoutError:
                raise LookupError("ring stayed empty") from None
            return router.ring.node_for(key)

    async def _link_for(self, worker_id: str) -> _Link | None:
        link = self.links.get(worker_id)
        if link is not None:
            return link
        worker = self.router.workers.get(worker_id)
        if worker is None:
            self.router._eject_worker(worker_id, "lost")
            return None
        if worker_id not in self.router.ring:
            return None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(
                    worker.host, worker.port, limit=protocol.MAX_LINE_BYTES
                ),
                timeout=self.router.config.connect_retry_s,
            )
        except (OSError, asyncio.TimeoutError):
            # Can't reach the ring's current owner: treat it as lost so
            # the key re-homes instead of failing the request.
            self.router.registry.inc("cluster.worker_lost")
            self.router._eject_worker(worker_id, "lost")
            return None
        link = _Link(worker_id, worker.generation, reader, writer)
        self.links[worker_id] = link
        link.pump = asyncio.get_running_loop().create_task(self._pump(link))
        return link

    # -- response path -----------------------------------------------------

    async def _pump(self, link: _Link) -> None:
        """Stream one worker's responses back to the client, verbatim."""
        try:
            while True:
                line = await link.reader.readline()
                if not line:
                    break
                if not line.endswith(b"\n"):
                    break  # torn final line (kill -9 mid-write): replay
                await self._on_worker_line(link, line)
        except (ConnectionError, OSError):
            pass
        # A cancelled pump (deliberate session close) propagates instead:
        # the worker is fine, nothing to eject or replay.
        await self._lose_link(link)

    async def _on_worker_line(self, link: _Link, line: bytes) -> None:
        router = self.router
        try:
            blob = json.loads(line)
            request_id = blob.get("id") if isinstance(blob, dict) else None
        except ValueError:
            return  # not a response line; nothing to match it to
        id_text = protocol.canonical_json(request_id)
        pending = link.pending.pop(id_text, None)
        if pending is None:
            return  # stale duplicate (already replayed elsewhere)
        router._pending_total -= 1
        error = None if blob.get("ok") else blob.get("error")
        if (
            isinstance(error, dict)
            and error.get("code") == ErrorCode.SHUTTING_DOWN
        ):
            # SIGTERM drain path: the worker is refusing new work.  Take
            # it out of the ring (its segment re-shards) and replay this
            # request at the key's new home instead of surfacing the
            # refusal to the client.
            router._eject_worker(link.worker_id, "drain")
            await self._replay(pending)
            return
        await self._respond(line)

    async def _lose_link(self, link: _Link) -> None:
        """The worker connection died: re-shard and replay its debt."""
        router = self.router
        if self.links.get(link.worker_id) is link:
            del self.links[link.worker_id]
        try:
            link.writer.close()
        except Exception:
            pass
        current = router.workers.get(link.worker_id)
        if (
            link.worker_id in router.ring
            and current is not None
            and current.generation == link.generation
        ):
            router.registry.inc("cluster.worker_lost")
            router._eject_worker(link.worker_id, "lost")
        owed = list(link.pending.values())
        link.pending.clear()
        router._pending_total -= len(owed)
        for line in owed:
            await self._replay(line)

    async def _replay(self, line: bytes) -> None:
        """Re-route one request whose original home left the ring."""
        # The line decoded and had a home when first forwarded.
        request = protocol.decode_request(line)
        self.router.registry.inc("cluster.replayed")
        await self._forward(
            request.id,
            protocol.OPS[request.op].shard_key(request.params),
            line,
        )
