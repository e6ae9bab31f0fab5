"""Tests for the unified client (repro.serve.client.Client).

One ``Client`` class, two endpoint schemes — ``tcp://`` (a running
daemon) and ``stdio:`` (a private child daemon) — with identical
call/call_many/analyze semantics.

The resilience half exercises the client against a *scripted* TCP
frontend — a hand-rolled socket server whose per-connection behavior
the test controls — so torn frames, mid-call hangups, and recovery
across reconnects are deterministic rather than raced.
"""

import json
import socket
import subprocess
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import protocol
from repro.serve.client import (
    CircuitBreaker,
    CircuitOpenError,
    Client,
    PURE_OPS,
    RetryPolicy,
    ServeError,
    TransportError,
    parse_endpoint,
)

from tests.test_serve_server import SOURCE, _RunningServer


class TestParseEndpoint:
    def test_tcp(self):
        assert parse_endpoint("tcp://127.0.0.1:4733") == ("tcp", "127.0.0.1", 4733)

    def test_stdio(self):
        assert parse_endpoint("stdio:") == ("stdio", None, None)
        assert parse_endpoint("stdio://") == ("stdio", None, None)

    @pytest.mark.parametrize(
        "bad",
        [
            "http://x:1",
            "tcp://missingport",
            "tcp://:99",
            "cluster://h:1",
            "127.0.0.1:4733",
            "",
        ],
    )
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


class TestTcpEndpoint:
    def test_analyze_roundtrip(self, running):
        endpoint = (
            f"tcp://{running.server.bound_host}:{running.server.bound_port}"
        )
        with Client(endpoint) as client:
            report = client.analyze(source=SOURCE, pair=0)
        assert report["dependent"] is True

    def test_call_many_preserves_order_and_isolates_errors(self, running):
        with running.client() as client:
            results = client.call_many(
                [
                    ("analyze", {"source": SOURCE, "pair": 0}),
                    ("analyze", {"source": SOURCE, "pair": 99}),
                    ("health", {}),
                ]
            )
        assert results[0]["dependent"] is True
        assert isinstance(results[1], ServeError)
        assert results[2]["status"] == "ok"


@pytest.fixture
def running():
    handle = _RunningServer()
    yield handle
    handle.stop()


class TestStdioEndpoint:
    def test_full_call_surface_over_pipes(self):
        with Client("stdio:") as client:
            child = client._transport._proc
            health = client.health()
            assert health["status"] == "ok"
            assert health["cluster"] is False
            report = client.analyze(source=SOURCE, pair=0)
            assert report["dependent"] is True
            many = client.call_many(
                [("analyze", {"source": SOURCE, "pair": 0})] * 3
            )
            assert all(r == report for r in many)
        # close() drained the child and released both of its pipes.
        assert child.returncode == 0
        assert child.stdin.closed and child.stdout.closed

    def test_close_releases_the_pipe_when_the_child_must_be_killed(self):
        client = Client("stdio:")
        child = client._transport._proc
        assert client.health()["status"] == "ok"
        wait = child.wait
        waits: list = []

        def stuck_once(timeout=None):
            # The first wait is the graceful drain: pretend it hung.
            waits.append(timeout)
            if len(waits) == 1:
                raise subprocess.TimeoutExpired(child.args, timeout)
            return wait(timeout=timeout)

        child.wait = stuck_once
        client.close()
        assert len(waits) == 2, "close() should have killed the child"
        assert child.returncode is not None
        assert child.stdout.closed


class _ScriptedFrontend:
    """A TCP frontend whose per-connection behavior is a test script.

    ``handler(frontend, conn_index, sock)`` runs once per accepted
    connection; helpers below read protocol frames and write canned
    responses.  Every decoded request lands in ``self.requests`` so
    tests can assert exactly what the client (re)sent.
    """

    def __init__(self, handler):
        self.handler = handler
        self.connections = 0
        self.requests: list[dict] = []
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.host, self.port = self._sock.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed: test over
            index = self.connections
            self.connections += 1
            try:
                self.handler(self, index, conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def read_request(self, rfile) -> dict | None:
        line = rfile.readline()
        if not line:
            return None
        request = json.loads(line)
        self.requests.append(request)
        return request

    @staticmethod
    def answer_health(conn, request) -> None:
        conn.sendall(
            protocol.encode_response(
                protocol.ok_response(
                    request["id"], {"status": "ok", "protocol": 3}
                )
            )
        )

    def close(self) -> None:
        self._sock.close()
        self._thread.join(5)


@pytest.fixture
def scripted():
    frontends = []

    def make(handler):
        frontend = _ScriptedFrontend(handler)
        frontends.append(frontend)
        return frontend

    yield make
    for frontend in frontends:
        frontend.close()


FAST_RETRY = RetryPolicy(attempts=3, base_delay_s=0.01, deadline_s=10.0)


class TestRetryPolicy:
    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(seed=7)
        again = RetryPolicy(seed=7)
        for attempt in range(16):
            factor = policy.jitter(attempt)
            assert factor == again.jitter(attempt)
            assert 0.5 <= factor < 1.0
        assert RetryPolicy(seed=8).jitter(0) != policy.jitter(0)

    def test_delay_grows_exponentially_then_caps(self):
        policy = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, seed=0
        )
        raw = [policy.delay(k) / policy.jitter(k) for k in range(5)]
        assert raw == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)


class TestCircuitBreaker:
    def test_opens_after_threshold_and_fails_fast(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=60.0)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened == 1
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.allow("tcp://x:1")
        assert excinfo.value.endpoint == "tcp://x:1"
        assert excinfo.value.retry_after_s > 0

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.01)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        import time

        time.sleep(0.02)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.allow("tcp://x:1")  # the probe rides through
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.01)
        breaker.record_failure()
        import time

        time.sleep(0.02)
        breaker.allow("tcp://x:1")
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened == 2

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        assert breaker.failures == 0
        assert breaker.state == CircuitBreaker.CLOSED


class TestTransportFaults:
    def test_torn_frame_is_a_typed_error_with_the_evidence(self, scripted):
        def tear(frontend, index, conn):
            rfile = conn.makefile("rb")
            request = frontend.read_request(rfile)
            if request is not None:
                conn.sendall(b'{"id": %d, "ok"' % request["id"])  # no newline

        frontend = scripted(tear)
        with Client(frontend.endpoint, timeout=5.0) as client:
            with pytest.raises(TransportError) as excinfo:
                client.health()
        err = excinfo.value
        assert "torn frame" in err.detail
        assert err.op == "health"
        assert err.partial is not None and not err.partial.endswith(b"\n")

    def test_undecodable_frame_is_typed_not_a_json_error(self, scripted):
        def garble(frontend, index, conn):
            rfile = conn.makefile("rb")
            if frontend.read_request(rfile) is not None:
                conn.sendall(b"this is not json\n")

        frontend = scripted(garble)
        with Client(frontend.endpoint, timeout=5.0) as client:
            with pytest.raises(TransportError, match="undecodable"):
                client.health()

    def test_eof_mid_call_is_typed(self, scripted):
        def hangup(frontend, index, conn):
            rfile = conn.makefile("rb")
            frontend.read_request(rfile)

        frontend = scripted(hangup)
        with Client(frontend.endpoint, timeout=5.0) as client:
            with pytest.raises(TransportError, match="closed"):
                client.health()


class TestRetryAndReconnect:
    def test_pure_op_recovers_across_a_reconnect(self, scripted):
        def flaky(frontend, index, conn):
            rfile = conn.makefile("rb")
            if index == 0:
                frontend.read_request(rfile)  # swallow, hang up
                return
            while True:
                request = frontend.read_request(rfile)
                if request is None:
                    return
                frontend.answer_health(conn, request)

        frontend = scripted(flaky)
        registry = MetricsRegistry()
        with Client(
            frontend.endpoint, timeout=5.0, retry=FAST_RETRY, registry=registry
        ) as client:
            assert client.health()["status"] == "ok"
        assert frontend.connections == 2
        assert registry.get("client.reconnects") == 1
        assert registry.get("client.retries") == 1
        assert registry.get("client.transport_errors") == 1

    def test_shutdown_is_never_silently_retried(self, scripted):
        def hangup(frontend, index, conn):
            rfile = conn.makefile("rb")
            while frontend.read_request(rfile) is not None:
                pass  # never answer

        frontend = scripted(hangup)
        with Client(frontend.endpoint, timeout=5.0, retry=FAST_RETRY) as client:
            with pytest.raises(TransportError):
                client.shutdown()
        assert [r["op"] for r in frontend.requests] == ["shutdown"]
        assert "shutdown" not in PURE_OPS

    def test_retries_exhaust_into_the_last_transport_error(self, scripted):
        def always_hangup(frontend, index, conn):
            rfile = conn.makefile("rb")
            frontend.read_request(rfile)

        frontend = scripted(always_hangup)
        with Client(frontend.endpoint, timeout=5.0, retry=FAST_RETRY) as client:
            with pytest.raises(TransportError):
                client.health()
        # attempts=3: the op was actually sent three times.
        assert [r["op"] for r in frontend.requests] == ["health"] * 3

    def test_call_many_replays_only_the_unanswered_calls(self, scripted):
        def answer_one_then_die(frontend, index, conn):
            rfile = conn.makefile("rb")
            if index == 0:
                for position in range(3):
                    request = frontend.read_request(rfile)
                    if request is not None and position == 0:
                        frontend.answer_health(conn, request)
                return  # hang up with two calls unanswered
            while True:
                request = frontend.read_request(rfile)
                if request is None:
                    return
                frontend.answer_health(conn, request)

        frontend = scripted(answer_one_then_die)
        with Client(frontend.endpoint, timeout=5.0, retry=FAST_RETRY) as client:
            results = client.call_many([("health", {})] * 3)
        assert [r["status"] for r in results] == ["ok"] * 3
        # First connection saw all three; the replay re-sent only two.
        assert len(frontend.requests) == 5

    def test_breaker_fails_fast_without_touching_the_network(self, scripted):
        def hangup(frontend, index, conn):
            rfile = conn.makefile("rb")
            frontend.read_request(rfile)

        frontend = scripted(hangup)
        registry = MetricsRegistry()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
        with Client(
            frontend.endpoint,
            timeout=5.0,
            breaker=breaker,
            registry=registry,
        ) as client:
            with pytest.raises(TransportError):
                client.health()
            connections_before = frontend.connections
            with pytest.raises(CircuitOpenError):
                client.health()
        assert frontend.connections == connections_before
        assert registry.get("client.breaker_rejections") == 1


class TestBackCompat:
    def test_api_exports_the_unified_client(self):
        from repro.api import Client as ApiClient

        assert ApiClient is Client
